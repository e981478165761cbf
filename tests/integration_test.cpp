// End-to-end integration tests: the Table 5-1 methodology in miniature
// (random configurations, model vs full transistor-level simulation), plus
// cross-module consistency checks.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "characterize/serialize.hpp"
#include "sta/timing_graph.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using model::InputEvent;
using wave::Edge;

TEST(Integration, OracleModeErrorsStaySmall) {
  // The paper's validation loop: HSPICE-as-dual-input-macromodel, compared
  // against the full 3-input simulation.  With the oracle the only error
  // sources are the compositional algorithm itself and the correction term,
  // so errors should sit in the single-digit-percent band (Table 5-1).
  const auto& cg = testutil::nand3Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const auto corr = characterize::characterizeStepCorrection(
      sim, *cg.singles, oracle, testutil::fastConfig().stepTau);
  const model::ProximityCalculator calc(cg.gate, *cg.singles, oracle, corr);

  std::mt19937 rng(12345);
  std::uniform_real_distribution<double> tauDist(50e-12, 2000e-12);
  std::uniform_real_distribution<double> sepDist(-500e-12, 500e-12);

  double sumAbs = 0.0;
  int count = 0;
  for (int cfg = 0; cfg < 12; ++cfg) {
    const Edge e = cfg % 2 == 0 ? Edge::Rising : Edge::Falling;
    std::vector<InputEvent> evs;
    for (int p = 0; p < 3; ++p) {
      evs.push_back({p, e, p == 0 ? 0.0 : sepDist(rng), tauDist(rng)});
    }
    const auto full = sim.simulate(evs, 0);
    ASSERT_TRUE(full.outputRefTime.has_value()) << "cfg " << cfg;
    const auto r = calc.compute(evs);
    const double err =
        (r.outputRefTime - *full.outputRefTime) / *full.delay * 100.0;
    EXPECT_LT(std::fabs(err), 20.0) << "cfg " << cfg;
    sumAbs += std::fabs(err);
    ++count;
  }
  EXPECT_LT(sumAbs / count, 6.0);  // mean |error| in percent
}

TEST(Integration, TransitionTimePredictionsReasonable) {
  const auto& cg = testutil::nand3Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 100e-12, 300e-12}};
  const auto full = sim.simulate(evs, 0);
  ASSERT_TRUE(full.transitionTime.has_value());
  const auto r = calc.compute(evs);
  EXPECT_NEAR(r.transitionTime, *full.transitionTime,
              0.35 * *full.transitionTime);
}

TEST(Integration, ProximityBeatsClassicOnAverage) {
  // The reason the model exists: against the full simulation, the proximity
  // calculation must be more accurate than classic single-input STA when
  // inputs are temporally close.
  const auto& cg = testutil::nand3Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();

  std::mt19937 rng(99);
  std::uniform_real_distribution<double> tauDist(100e-12, 1200e-12);
  std::uniform_real_distribution<double> sepDist(-150e-12, 150e-12);

  double errProx = 0.0;
  double errClassic = 0.0;
  for (int cfg = 0; cfg < 8; ++cfg) {
    const Edge e = cfg % 2 == 0 ? Edge::Rising : Edge::Falling;
    std::vector<InputEvent> evs;
    for (int p = 0; p < 3; ++p) {
      evs.push_back({p, e, p == 0 ? 0.0 : sepDist(rng), tauDist(rng)});
    }
    const auto full = sim.simulate(evs, 0);
    ASSERT_TRUE(full.outputRefTime.has_value());
    const auto rp = calc.compute(evs);
    const auto rc = calc.computeClassic(evs);
    errProx += std::fabs(rp.outputRefTime - *full.outputRefTime);
    errClassic += std::fabs(rc.outputRefTime - *full.outputRefTime);
  }
  EXPECT_LT(errProx, errClassic);
}

TEST(Integration, SerializedModelDrivesSta) {
  // Full tool flow: characterize -> save -> load -> timing-analyze.
  const auto& cg = testutil::nand2Model();
  std::stringstream ss;
  characterize::saveGateModel(cg, ss);
  const auto loaded = characterize::loadGateModel(ss);

  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", loaded, {"a", "b"}, "y");
  sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.setInputArrival("b", {30e-12, 300e-12, Edge::Rising});
  ta.run();
  const auto y = ta.arrival("y");
  ASSERT_TRUE(y.has_value());
  EXPECT_GT(y->time, 0.0);
  EXPECT_EQ(y->edge, Edge::Falling);
}

TEST(Integration, NorGateEndToEnd) {
  // The whole flow on a NOR2: thresholds, characterization, and proximity
  // prediction vs simulation in both directions (NOR mirrors the NAND's
  // series/parallel roles, so rising pairs speed up and falling pairs slow
  // down).
  const auto cg = characterize::characterizeGate(testutil::norSpec(2),
                                                 testutil::fastConfig());
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();

  // Rising pair: parallel NMOS -> faster than the dominant input alone.
  {
    std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 400e-12},
                                {1, Edge::Rising, 0.0, 150e-12}};
    const auto r = calc.compute(evs);
    const double alone = cg.singles->at(r.dominantPin, Edge::Rising)
                             .delay(r.dominantPin == 0 ? 400e-12 : 150e-12);
    EXPECT_LT(r.delay, alone);
    const auto full = sim.simulate(evs, 0);
    ASSERT_TRUE(full.outputRefTime.has_value());
    EXPECT_NEAR(r.outputRefTime, *full.outputRefTime, 0.15 * *full.delay);
  }
  // Falling pair: series PMOS stack -> slower at zero separation.
  {
    std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 400e-12},
                                {1, Edge::Falling, 0.0, 400e-12}};
    const auto full = sim.simulate(evs, 0);
    const auto single = sim.simulateSingle({0, Edge::Falling, 0.0, 400e-12});
    ASSERT_TRUE(full.delay && single.delay);
    EXPECT_GT(*full.delay, *single.delay);
    const auto r = calc.compute(evs);
    ASSERT_TRUE(full.outputRefTime.has_value());
    EXPECT_NEAR(r.outputRefTime, *full.outputRefTime, 0.15 * *full.delay);
  }
}

TEST(Integration, DominanceDiscontinuityExists) {
  // Figure 3-3's discontinuity: when the dominant input changes, the delay
  // reference changes and the reported delay jumps.
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const InputEvent a{0, Edge::Falling, 0.0, 500e-12};
  const double tauB = 1000e-12;
  const double crossover = model::dominanceCrossover(
      a, {1, Edge::Falling, 0.0, tauB}, *cg.singles);

  auto delayAt = [&](double s) {
    std::vector<InputEvent> evs{a, {1, Edge::Falling, s, tauB}};
    const auto r = calc.compute(evs);
    return std::pair<double, int>(r.delay, r.dominantPin);
  };
  const auto before = delayAt(crossover - 20e-12);
  const auto after = delayAt(crossover + 20e-12);
  EXPECT_NE(before.second, after.second);  // dominant input flips
}

}  // namespace
