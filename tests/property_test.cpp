// Parameterized property sweeps across fan-in, direction, slope and
// separation: the paper's structural guarantees hold over whole grids, not
// just spot values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <random>

#include "sta/synth.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using model::InputEvent;
using wave::Edge;

// Shared per-fanin characterized models (fast config), built once.
const characterize::CharacterizedGate& gateForFanin(int n) {
  static std::map<int, characterize::CharacterizedGate> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache
             .emplace(n, characterize::characterizeGate(testutil::nandSpec(n),
                                                        testutil::fastConfig()))
             .first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Positivity: delay > 0 for every (fanin, edge, tau) combination -- the
// Section 2 guarantee, exercised through the full algorithm.
struct PositivityCase {
  int fanin;
  int edgeIdx;  // 0 = rising, 1 = falling
  double tau;
};

class DelayPositivity : public ::testing::TestWithParam<PositivityCase> {};

TEST_P(DelayPositivity, DelayAndTransitionPositive) {
  const auto& p = GetParam();
  const auto& cg = gateForFanin(p.fanin);
  const auto calc = cg.calculator();
  const Edge e = p.edgeIdx == 0 ? Edge::Rising : Edge::Falling;
  std::vector<InputEvent> evs;
  for (int pin = 0; pin < p.fanin; ++pin) {
    evs.push_back({pin, e, pin * 30e-12, p.tau});
  }
  const auto r = calc.compute(evs);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_GT(r.transitionTime, 0.0);
}

std::vector<PositivityCase> positivityCases() {
  std::vector<PositivityCase> cases;
  for (int fanin : {2, 3}) {
    for (int e : {0, 1}) {
      for (double tau : {50e-12, 400e-12, 2200e-12, 6000e-12}) {
        cases.push_back({fanin, e, tau});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, DelayPositivity,
                         ::testing::ValuesIn(positivityCases()));

// ---------------------------------------------------------------------------
// Window property: as separation grows past the proximity window the
// computed delay reverts exactly to the single-input value.
class WindowSweep : public ::testing::TestWithParam<double> {};

TEST_P(WindowSweep, DelayRevertsOutsideWindow) {
  // Falling pair: earliest-first sense with the paper's window semantics.
  const double tau = GetParam();
  const auto& cg = gateForFanin(2);
  const auto calc = cg.calculator();
  const auto& m = cg.singles->at(0, Edge::Falling);
  const double d1 = m.delay(tau);
  const double t1 = m.transition(tau);
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, tau},
                              {1, Edge::Falling, d1 + t1 + 50e-12, tau}};
  const auto r = calc.compute(evs);
  EXPECT_DOUBLE_EQ(r.delay, d1);
  EXPECT_DOUBLE_EQ(r.transitionTime, t1);
}

INSTANTIATE_TEST_SUITE_P(Taus, WindowSweep,
                         ::testing::Values(100e-12, 300e-12, 700e-12,
                                           1500e-12));

// ---------------------------------------------------------------------------
// Monotone proximity trend for falling pairs: as the second falling input
// moves away (larger separation), the speedup weakens monotonically (delay
// non-decreasing), matching Figure 1-2(a)'s shape.
class FallingTrend : public ::testing::TestWithParam<double> {};

TEST_P(FallingTrend, SpeedupWeakensWithSeparation) {
  const double tauB = GetParam();
  const auto& cg = gateForFanin(2);
  const auto calc = cg.calculator();
  const InputEvent a{0, Edge::Falling, 0.0, 500e-12};
  double prev = -1e9;
  int violations = 0;
  for (double s = 0.0; s <= 400e-12; s += 50e-12) {
    std::vector<InputEvent> evs{a, {1, Edge::Falling, s, tauB}};
    const auto r = calc.compute(evs);
    if (r.dominantPin != 0) continue;  // skip pre-crossover regime
    if (r.delay < prev - 2e-12) ++violations;  // tolerate interpolation noise
    prev = r.delay;
  }
  EXPECT_LE(violations, 1);
}

INSTANTIATE_TEST_SUITE_P(TauB, FallingTrend,
                         ::testing::Values(100e-12, 500e-12, 1000e-12));

// ---------------------------------------------------------------------------
// Single-input simulation: delay grows with load capacitance (the C_L
// dependence dimensional analysis folds into the normalized coordinate).
class LoadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LoadSweep, DelayGrowsWithLoad) {
  const double tau = GetParam();
  double prev = 0.0;
  for (double cl : {50e-15, 100e-15, 200e-15}) {
    cells::CellSpec spec = testutil::nandSpec(2);
    spec.loadCap = cl;
    // Reuse the NAND2 thresholds (thresholds are load-independent).
    model::Gate g{spec, std::nullopt, gateForFanin(2).gate.thresholds};
    model::GateSimulator sim(g);
    const auto o = sim.simulateSingle({0, Edge::Rising, 0.0, tau});
    ASSERT_TRUE(o.delay.has_value());
    EXPECT_GT(*o.delay, prev);
    prev = *o.delay;
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, LoadSweep, ::testing::Values(100e-12, 600e-12));

// ---------------------------------------------------------------------------
// Dominance ordering is a permutation and its head minimizes the predicted
// crossing, for random event sets.
class DominancePermutation : public ::testing::TestWithParam<int> {};

TEST_P(DominancePermutation, HeadMinimizesPredictedCrossing) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::uniform_real_distribution<double> tauDist(50e-12, 2000e-12);
  std::uniform_real_distribution<double> sepDist(-400e-12, 400e-12);
  const auto& cg = gateForFanin(3);

  std::vector<InputEvent> evs;
  for (int p = 0; p < 3; ++p) {
    evs.push_back({p, Edge::Rising, sepDist(rng), tauDist(rng)});
  }
  for (auto sense : {model::DominanceSense::EarliestFirst,
                     model::DominanceSense::LatestFirst}) {
    std::vector<std::size_t> order;
    std::vector<double> crossing;
    model::dominanceOrder(evs, *cg.singles, sense, order, crossing);
    ASSERT_EQ(order.size(), 3u);
    std::vector<bool> seen(3, false);
    for (std::size_t i : order) seen[i] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);

    const double head = model::predictedCrossing(evs[order[0]], *cg.singles);
    for (std::size_t i = 0; i < 3; ++i) {
      const double ci = model::predictedCrossing(evs[i], *cg.singles);
      if (sense == model::DominanceSense::EarliestFirst) {
        EXPECT_LE(head, ci + 1e-18);
      } else {
        EXPECT_GE(head, ci - 1e-18);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominancePermutation,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Dominance re-ranking is invariant under input permutation: shuffling the
// order the events are *presented* in must not change which pin dominates,
// the pin-by-pin ranking, or the computed delay/transition.  (Ties are
// measure-zero with continuous random taus/separations.)
class DominanceShuffleInvariance : public ::testing::TestWithParam<int> {};

TEST_P(DominanceShuffleInvariance, RankingAndResultSurvivePermutation) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> tauDist(50e-12, 2000e-12);
  std::uniform_real_distribution<double> sepDist(-400e-12, 400e-12);
  const auto& cg = gateForFanin(3);
  const auto calc = cg.calculator();

  std::vector<InputEvent> evs;
  for (int p = 0; p < 3; ++p) {
    evs.push_back({p, Edge::Rising, sepDist(rng), tauDist(rng)});
  }

  // Rankings as pin sequences (order entries index into evs, so they only
  // compare across permutations after mapping back to pins).
  auto pinRanking = [&](const std::vector<InputEvent>& events,
                        model::DominanceSense sense) {
    std::vector<std::size_t> order;
    std::vector<double> crossing;
    model::dominanceOrder(events, *cg.singles, sense, order, crossing);
    std::vector<int> pins;
    for (std::size_t i : order) pins.push_back(events[i].pin);
    return pins;
  };

  const auto earliestBefore =
      pinRanking(evs, model::DominanceSense::EarliestFirst);
  const auto latestBefore = pinRanking(evs, model::DominanceSense::LatestFirst);
  const auto resultBefore = calc.compute(evs);

  std::vector<InputEvent> shuffled = evs;
  for (int round = 0; round < 4; ++round) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(pinRanking(shuffled, model::DominanceSense::EarliestFirst),
              earliestBefore);
    EXPECT_EQ(pinRanking(shuffled, model::DominanceSense::LatestFirst),
              latestBefore);
    const auto r = calc.compute(shuffled);
    EXPECT_DOUBLE_EQ(r.delay, resultBefore.delay);
    EXPECT_DOUBLE_EQ(r.transitionTime, resultBefore.transitionTime);
    EXPECT_EQ(r.dominantPin, resultBefore.dominantPin);
    EXPECT_DOUBLE_EQ(r.outputRefTime, resultBefore.outputRefTime);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceShuffleInvariance,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Window-drop invariance: an input whose separation lands beyond the
// proximity window (s > Delta^(i-1), and beyond the transition window too)
// contributes a ratio of exactly 1, so *removing* it from the event set must
// leave ProximityDelay's output bit-for-bit unchanged.
class WindowDropInvariance : public ::testing::TestWithParam<double> {};

TEST_P(WindowDropInvariance, FarInputDropsOut) {
  const double tau = GetParam();
  const auto& cg = gateForFanin(3);
  const auto calc = cg.calculator();

  // A separation beyond every pin's delay *and* transition window at this
  // tau (the transition window Delta^(1) + tau^(1) is the wider of the two).
  double far = 0.0;
  for (int pin = 0; pin < 3; ++pin) {
    const auto& m = cg.singles->at(pin, Edge::Falling);
    far = std::max(far, m.delay(tau) + m.transition(tau));
  }
  far += 30e-12 + 200e-12;  // latest close event + margin

  const std::vector<InputEvent> close{{0, Edge::Falling, 0.0, tau},
                                      {1, Edge::Falling, 30e-12, tau}};
  std::vector<InputEvent> withFar = close;
  withFar.push_back({2, Edge::Falling, far, tau});

  const auto rClose = calc.compute(close);
  const auto rFar = calc.compute(withFar);
  EXPECT_DOUBLE_EQ(rFar.delay, rClose.delay);
  EXPECT_DOUBLE_EQ(rFar.transitionTime, rClose.transitionTime);
  EXPECT_EQ(rFar.dominantPin, rClose.dominantPin);
}

INSTANTIATE_TEST_SUITE_P(Taus, WindowDropInvariance,
                         ::testing::Values(100e-12, 400e-12, 1200e-12));

// ---------------------------------------------------------------------------
// Synthetic-circuit generator properties, over a sampled grid of specs:
// the determinism contract (equal spec -> byte-identical BLIF), the
// structural guarantees (acyclic, exactly `depth` levels, fanin/fanout
// bounds respected), and a clean validate() report.
sta::SynthSpec specCase(std::uint64_t seed, std::uint32_t depth,
                        std::uint32_t width, std::uint32_t inputs,
                        std::uint32_t maxFanin, std::uint32_t maxFanout) {
  sta::SynthSpec s;
  s.seed = seed;
  s.depth = depth;
  s.width = width;
  s.primaryInputs = inputs;
  s.maxFanin = maxFanin;
  s.maxFanout = maxFanout;
  return s;
}

std::vector<sta::SynthSpec> synthGrid() {
  return {
      specCase(1, 1, 1, 1, 1, 0),        // degenerate: one inverter
      specCase(7, 3, 5, 4, 2, 0),        // small, unbounded fanout
      specCase(7, 3, 5, 4, 2, 4),        // same shape, fanout-capped
      specCase(42, 6, 16, 10, 3, 0),     // mid-size random wiring
      specCase(42, 6, 16, 16, 3, 3),     // tight fanout bound (16*3/16)
      specCase(1234, 10, 32, 24, 4, 8),  // deeper, wider
  };
}

class SynthProperties : public ::testing::TestWithParam<sta::SynthSpec> {};

TEST_P(SynthProperties, SameSpecEmitsByteIdenticalBlif) {
  const auto& spec = GetParam();
  const std::string first = sta::generateBlifString(spec);
  const std::string second = sta::generateBlifString(spec);
  EXPECT_EQ(first, second);
  // A different seed must actually change the circuit (wiring or mix) --
  // unless the spec is so degenerate there is only one possible circuit.
  if (spec.gateCount() > 1 && spec.maxFanin > 1) {
    sta::SynthSpec other = spec;
    other.seed += 1;
    EXPECT_NE(sta::generateBlifString(other), first);
  }
}

TEST_P(SynthProperties, StructureHonorsSpecBounds) {
  const auto& spec = GetParam();
  for (std::uint64_t g = 0; g < spec.gateCount(); ++g) {
    const auto gate = sta::synthGateAt(spec, g);
    ASSERT_GE(gate.sources.size(), 1u);
    ASSERT_LE(gate.sources.size(), spec.maxFanin);
    if (gate.type == cells::GateType::Inverter) {
      EXPECT_EQ(gate.sources.size(), 1u);
    } else {
      EXPECT_GE(gate.sources.size(), 2u);
    }
    // Sources are distinct and index the previous layer (or the PIs).
    const std::uint32_t layer = static_cast<std::uint32_t>(g / spec.width);
    const std::uint32_t sourceCount =
        layer == 0 ? spec.primaryInputs : spec.width;
    std::vector<std::uint32_t> sorted = gate.sources;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
    for (std::uint32_t s : gate.sources) EXPECT_LT(s, sourceCount);
  }
}

TEST_P(SynthProperties, FanoutCapIsRespected) {
  const auto& spec = GetParam();
  if (spec.maxFanout == 0) return;
  // Tally consumers per source net, layer by layer.
  for (std::uint32_t layer = 0; layer < spec.depth; ++layer) {
    const std::uint32_t sourceCount =
        layer == 0 ? spec.primaryInputs : spec.width;
    std::vector<std::uint32_t> consumers(sourceCount, 0);
    for (std::uint32_t pos = 0; pos < spec.width; ++pos) {
      const auto gate = sta::synthGateAt(
          spec, static_cast<std::uint64_t>(layer) * spec.width + pos);
      for (std::uint32_t s : gate.sources) ++consumers[s];
    }
    for (std::uint32_t c : consumers) EXPECT_LE(c, spec.maxFanout);
  }
}

TEST_P(SynthProperties, BuildsAcyclicNetlistThatLevelizesToDepth) {
  const auto& spec = GetParam();
  static const sta::GateLibrary lib = sta::analyticLibrary();
  sta::Netlist nl;
  const auto outputs = sta::buildNetlist(spec, lib, &nl);
  EXPECT_EQ(outputs.size(), spec.width);
  EXPECT_EQ(nl.nodeCount(), spec.gateCount());
  EXPECT_TRUE(nl.validate().empty());
  const auto res = nl.levelize(sta::StructuralPolicy::Reject);
  EXPECT_EQ(res.levelCount(), spec.depth);
  EXPECT_EQ(res.order.size(), spec.gateCount());
}

TEST_P(SynthProperties, BlifRoundTripMatchesDirectBuild) {
  const auto& spec = GetParam();
  static const sta::GateLibrary lib = sta::analyticLibrary();
  sta::Netlist direct;
  sta::buildNetlist(spec, lib, &direct);
  sta::Netlist parsed;
  const auto summary =
      sta::readBlifString(sta::generateBlifString(spec), lib, &parsed);
  EXPECT_EQ(summary.modelName, spec.modelName);
  EXPECT_EQ(summary.gates, spec.gateCount());
  ASSERT_EQ(parsed.nodeCount(), direct.nodeCount());
  ASSERT_EQ(parsed.netCount(), direct.netCount());
  for (std::uint32_t i = 0; i < direct.nodeCount(); ++i) {
    const sta::NodeId node{i};
    EXPECT_EQ(parsed.nodeName(node), direct.nodeName(node));
    EXPECT_EQ(&parsed.nodeCell(node), &direct.nodeCell(node));
    const auto a = parsed.nodeInputs(node);
    const auto b = direct.nodeInputs(node);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(parsed.netName(a[p]), direct.netName(b[p]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SynthProperties,
                         ::testing::ValuesIn(synthGrid()));

}  // namespace
