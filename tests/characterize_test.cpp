// Characterization-flow and serialization tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "characterize/serialize.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using wave::Edge;

TEST(Characterize, PackageIsComplete) {
  const auto& cg = testutil::nand2Model();
  EXPECT_EQ(cg.pinCount(), 2);
  EXPECT_GT(cg.gate.thresholds.vih, cg.gate.thresholds.vil);
  for (int pin = 0; pin < 2; ++pin) {
    for (Edge e : {Edge::Rising, Edge::Falling}) {
      EXPECT_TRUE(cg.singles->has(pin, e));
      EXPECT_TRUE(cg.dual->hasTables(pin, e));
    }
  }
  // NAND2: corrections characterized for k = 2 in both directions.
  EXPECT_EQ(cg.correction.delayErrorRising.size(), 1u);
  EXPECT_EQ(cg.correction.delayErrorFalling.size(), 1u);
}

TEST(Characterize, DualTableAxesSortedAndSized) {
  const auto& cg = testutil::nand2Model();
  const auto cfg = testutil::fastConfig();
  const auto& t = cg.dual->delayTable(0, Edge::Rising);
  EXPECT_EQ(t.u.size(), cfg.dualTauIndices.size());
  EXPECT_EQ(t.v.size(), cfg.vGrid.size());
  EXPECT_EQ(t.w.size(), cfg.wGrid.size());
  EXPECT_EQ(t.ratio.size(), t.u.size() * t.v.size() * t.w.size());
  EXPECT_TRUE(std::is_sorted(t.u.begin(), t.u.end()));
}

TEST(Characterize, DelayRatioAtWindowEdgeNearOne) {
  // The last w grid point sits at the window boundary s = Delta^(1), where
  // the other input can no longer affect the delay.
  const auto& cg = testutil::nand2Model();
  const auto& t = cg.dual->delayTable(0, Edge::Falling);
  const std::size_t lastW = t.w.size() - 1;
  ASSERT_DOUBLE_EQ(t.w[lastW], 1.0);
  for (std::size_t iu = 0; iu < t.u.size(); ++iu) {
    for (std::size_t iv = 0; iv < t.v.size(); ++iv) {
      EXPECT_NEAR(t.at(iu, iv, lastW), 1.0, 0.15)
          << "iu=" << iu << " iv=" << iv;
    }
  }
}

TEST(Characterize, InverterGetsIdentityDualTables) {
  characterize::CharacterizationConfig cfg = testutil::fastConfig();
  const auto cg = characterize::characterizeGate(testutil::invSpec(), cfg);
  EXPECT_EQ(cg.pinCount(), 1);
  EXPECT_TRUE(cg.dual->hasTables(0, Edge::Rising));
  EXPECT_DOUBLE_EQ(cg.dual->delayTable(0, Edge::Rising).ratio[0], 1.0);
  // No multi-input correction possible.
  EXPECT_TRUE(cg.correction.empty());
}

TEST(Characterize, BadDualTauIndexThrows) {
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  characterize::CharacterizationConfig cfg = testutil::fastConfig();
  cfg.dualTauIndices = {99};
  model::DualTable dt;
  model::DualTable tt;
  EXPECT_THROW(characterize::buildDualTables(sim, *cg.singles, 0, 1,
                                             Edge::Rising, cfg, &dt, &tt),
               std::invalid_argument);
  EXPECT_THROW(characterize::buildDualTables(sim, *cg.singles, 0, 1,
                                             Edge::Rising, cfg, nullptr, &tt),
               std::invalid_argument);
}

TEST(Serialize, RoundTripPreservesQueries) {
  const auto& cg = testutil::nand2Model();
  std::stringstream ss;
  characterize::saveGateModel(cg, ss);
  const auto loaded = characterize::loadGateModel(ss);

  EXPECT_EQ(loaded.gate.spec.fanin, cg.gate.spec.fanin);
  EXPECT_DOUBLE_EQ(loaded.gate.thresholds.vil, cg.gate.thresholds.vil);
  EXPECT_DOUBLE_EQ(loaded.gate.thresholds.vih, cg.gate.thresholds.vih);

  // Identical answers for single, dual and full-algorithm queries.
  for (double tau : {100e-12, 432e-12, 1500e-12}) {
    EXPECT_DOUBLE_EQ(loaded.singles->at(0, Edge::Rising).delay(tau),
                     cg.singles->at(0, Edge::Rising).delay(tau));
    EXPECT_DOUBLE_EQ(loaded.singles->at(1, Edge::Falling).transition(tau),
                     cg.singles->at(1, Edge::Falling).transition(tau));
  }
  model::DualQuery q;
  q.refPin = 0;
  q.otherPin = 1;
  q.edge = Edge::Falling;
  q.tauRef = 300e-12;
  q.tauOther = 200e-12;
  q.sep = 40e-12;
  EXPECT_DOUBLE_EQ(loaded.dual->lookup(q).value, cg.dual->lookup(q).value);
  q.kind = model::DualKind::Transition;
  EXPECT_DOUBLE_EQ(loaded.dual->lookup(q).value, cg.dual->lookup(q).value);

  std::vector<model::InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                                     {1, Edge::Rising, 50e-12, 200e-12}};
  const auto r1 = cg.calculator().compute(evs);
  const auto r2 = loaded.calculator().compute(evs);
  EXPECT_DOUBLE_EQ(r1.delay, r2.delay);
  EXPECT_DOUBLE_EQ(r1.transitionTime, r2.transitionTime);
}

TEST(Serialize, FileRoundTrip) {
  const auto& cg = testutil::nand2Model();
  const std::string path = ::testing::TempDir() + "/nand2.prox";
  characterize::saveGateModel(cg, path);
  const auto loaded = characterize::loadGateModelFile(path);
  EXPECT_EQ(loaded.gate.spec.type, cells::GateType::Nand);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptHeader) {
  std::stringstream ss("not-a-model 1\n");
  EXPECT_THROW(characterize::loadGateModel(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  const auto& cg = testutil::nand2Model();
  std::stringstream ss;
  characterize::saveGateModel(cg, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(characterize::loadGateModel(cut), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(characterize::loadGateModelFile("/nonexistent/foo.prox"),
               std::runtime_error);
}

TEST(StepCorrectionCharacterize, SimulationMinusModelSign) {
  // Rerun the correction characterization explicitly and verify it equals
  // simulation minus uncorrected model for the simultaneous-step case.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  const auto corr = characterize::characterizeStepCorrection(
      sim, *cg.singles, *cg.dual, testutil::fastConfig().stepTau);

  model::ProximityOptions raw;
  raw.applyCorrection = false;
  const model::ProximityCalculator calc(cg.gate, *cg.singles, *cg.dual, {},
                                        raw);
  std::vector<model::InputEvent> evs{
      {0, Edge::Rising, 0.0, testutil::fastConfig().stepTau},
      {1, Edge::Rising, 0.0, testutil::fastConfig().stepTau}};
  const auto actual = sim.simulate(evs, 0);
  ASSERT_TRUE(actual.delay.has_value());
  const auto modeled = calc.compute(evs);
  EXPECT_NEAR(corr.delayErrorRising[0], *actual.delay - modeled.delay, 1e-15);
}

}  // namespace
