// Tests for dominance ordering and Algorithm ProximityDelay (Figure 4-1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <utility>

#include "characterize/analytic.hpp"
#include "dominance_reference.hpp"
#include "obs/registry.hpp"
#include "proximity_reference.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using model::InputEvent;
using wave::Edge;

TEST(Dominance, FallingInputsEarliestCrossingWins) {
  const auto& cg = testutil::nand2Model();
  // Falling NAND inputs engage the parallel PMOS bank: earliest wins.
  ASSERT_EQ(model::dominanceSense(cells::GateType::Nand, Edge::Falling),
            model::DominanceSense::EarliestFirst);
  std::vector<InputEvent> evs{{0, Edge::Falling, 100e-12, 200e-12},
                              {1, Edge::Falling, 0.0, 200e-12}};
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  model::dominanceOrder(evs, *cg.singles, model::DominanceSense::EarliestFirst,
                        order, crossing);
  EXPECT_EQ(order[0], 1u);
}

TEST(Dominance, RisingInputsLatestCrossingWins) {
  const auto& cg = testutil::nand2Model();
  // Rising NAND inputs complete the series stack: the output waits for the
  // last input, so the latest predicted crossing dominates.
  ASSERT_EQ(model::dominanceSense(cells::GateType::Nand, Edge::Rising),
            model::DominanceSense::LatestFirst);
  std::vector<InputEvent> evs{{0, Edge::Rising, 100e-12, 200e-12},
                              {1, Edge::Rising, 0.0, 200e-12}};
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  model::dominanceOrder(evs, *cg.singles, model::DominanceSense::LatestFirst,
                        order, crossing);
  EXPECT_EQ(order[0], 0u);
}

TEST(Dominance, NorSensesMirrorNand) {
  EXPECT_EQ(model::dominanceSense(cells::GateType::Nor, Edge::Rising),
            model::DominanceSense::EarliestFirst);
  EXPECT_EQ(model::dominanceSense(cells::GateType::Nor, Edge::Falling),
            model::DominanceSense::LatestFirst);
}

TEST(Dominance, FasterLateInputCanDominate) {
  // Figure 3-2: a slow input arriving first loses to a fast one arriving a
  // little later, because the fast one's standalone output crossing is
  // earlier.
  const auto& cg = testutil::nand2Model();
  const double dSlow = cg.singles->at(0, Edge::Falling).delay(2000e-12);
  const double dFast = cg.singles->at(1, Edge::Falling).delay(50e-12);
  ASSERT_GT(dSlow, dFast);
  const double sep = 0.5 * (dSlow - dFast);  // less than the crossover
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 2000e-12},
                              {1, Edge::Falling, sep, 50e-12}};
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  model::dominanceOrder(evs, *cg.singles, model::DominanceSense::EarliestFirst,
                        order, crossing);
  EXPECT_EQ(order[0], 1u) << "fast input must dominate inside the crossover";
}

TEST(Dominance, CrossoverMatchesDelayDifference) {
  const auto& cg = testutil::nand2Model();
  InputEvent a{0, Edge::Falling, 0.0, 2000e-12};
  InputEvent b{1, Edge::Falling, 0.0, 50e-12};
  const double sc = model::dominanceCrossover(a, b, *cg.singles);
  EXPECT_NEAR(sc,
              cg.singles->at(0, Edge::Falling).delay(2000e-12) -
                  cg.singles->at(1, Edge::Falling).delay(50e-12),
              1e-18);
  // Just beyond the crossover, a dominates again.
  b.tRef = sc * 1.01;
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  model::dominanceOrder(std::vector<InputEvent>{a, b}, *cg.singles,
                        model::DominanceSense::EarliestFirst, order, crossing);
  EXPECT_EQ(order[0], 0u);
}

// --- dominanceOrder vs the stable_sort reference ----------------------------

/// Twelve pins of single-input models on a four-point tau grid.  Pins come
/// in pairs with identical tables, so equal (tRef, tau) events on the two
/// pins of a pair cross at exactly the same predicted time.
const model::SingleInputModelSet& twelvePinSingles() {
  static const model::SingleInputModelSet set = [] {
    std::mt19937_64 rng(12);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    model::SingleInputModelSet s;
    for (int pin = 0; pin < 12; pin += 2) {
      for (const Edge e : {Edge::Rising, Edge::Falling}) {
        std::vector<model::SingleInputModel::Sample> table;
        double delay = 20e-12 + 60e-12 * unit(rng);
        for (const double tau : {20e-12, 100e-12, 400e-12, 1.6e-9}) {
          delay += tau * unit(rng);
          table.push_back({tau, delay, 2.0 * delay});
        }
        s.set(model::SingleInputModel(pin, e, table, 1e-13, 1e-4, 5.0));
        s.set(model::SingleInputModel(pin + 1, e, table, 1e-13, 1e-4, 5.0));
      }
    }
    return s;
  }();
  return set;
}

/// Checks dominanceOrder (on reused storage) against the reference in both
/// senses.
void expectOrderMatchesReference(const std::vector<InputEvent>& evs,
                                 std::vector<std::size_t>& order,
                                 std::vector<double>& crossing) {
  const auto& singles = twelvePinSingles();
  for (const auto sense : {model::DominanceSense::EarliestFirst,
                           model::DominanceSense::LatestFirst}) {
    model::dominanceOrder(evs, singles, sense, order, crossing);
    EXPECT_EQ(order, testutil::referenceDominanceOrder(evs, singles, sense));
  }
}

TEST(DominanceOrder, MatchesStableSortReferenceOnSeededEventSets) {
  const auto& singles = twelvePinSingles();
  // Few distinct times and slopes, so equal tRef with different tau and
  // exact crossing ties (paired pins) come up often.
  const double kTRef[] = {0.0, 25e-12, 50e-12, 75e-12};
  const double kTau[] = {20e-12, 60e-12, 100e-12, 400e-12, 2e-9};
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  int tiedSets = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    std::mt19937_64 rng(seed);
    const std::size_t n = 1 + seed % 12;
    std::vector<int> pins(12);
    std::iota(pins.begin(), pins.end(), 0);
    std::shuffle(pins.begin(), pins.end(), rng);
    const Edge edge = seed % 2 == 0 ? Edge::Rising : Edge::Falling;
    std::vector<InputEvent> evs;
    for (std::size_t i = 0; i < n; ++i) {
      evs.push_back({pins[i], edge, kTRef[rng() % std::size(kTRef)],
                     kTau[rng() % std::size(kTau)]});
    }
    std::vector<double> c;
    for (const InputEvent& ev : evs) {
      c.push_back(model::predictedCrossing(ev, singles));
    }
    std::sort(c.begin(), c.end());
    if (std::adjacent_find(c.begin(), c.end()) != c.end()) ++tiedSets;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectOrderMatchesReference(evs, order, crossing);
  }
  EXPECT_GT(tiedSets, 50);  // the sweep really exercises exact ties
}

TEST(DominanceOrder, ExactCrossingTiesKeepEventOrder) {
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  // Pins 4/5 and 8/9 share tables: two exact ties, interleaved.
  const std::vector<InputEvent> evs{{5, Edge::Falling, 10e-12, 100e-12},
                                    {8, Edge::Falling, 0.0, 60e-12},
                                    {4, Edge::Falling, 10e-12, 100e-12},
                                    {9, Edge::Falling, 0.0, 60e-12}};
  expectOrderMatchesReference(evs, order, crossing);
  const auto& singles = twelvePinSingles();
  ASSERT_EQ(model::predictedCrossing(evs[0], singles),
            model::predictedCrossing(evs[2], singles));
  for (const auto sense : {model::DominanceSense::EarliestFirst,
                           model::DominanceSense::LatestFirst}) {
    model::dominanceOrder(evs, singles, sense, order, crossing);
    const std::vector<std::size_t>& got = order;
    // Tied events stay in event order whichever end dominates.
    EXPECT_LT(std::find(got.begin(), got.end(), 0u) - got.begin(),
              std::find(got.begin(), got.end(), 2u) - got.begin());
    EXPECT_LT(std::find(got.begin(), got.end(), 1u) - got.begin(),
              std::find(got.begin(), got.end(), 3u) - got.begin());
  }
}

TEST(DominanceOrder, EqualTRefRanksBySlope) {
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  std::vector<InputEvent> evs;
  for (int pin = 0; pin < 12; ++pin) {
    evs.push_back({pin, Edge::Rising, 40e-12, (12 - pin) * 90e-12});
  }
  expectOrderMatchesReference(evs, order, crossing);
  // Shrinking the set reuses the grown storage.
  evs.resize(3);
  expectOrderMatchesReference(evs, order, crossing);
  evs.resize(1);
  expectOrderMatchesReference(evs, order, crossing);
  evs.clear();
  expectOrderMatchesReference(evs, order, crossing);
}

TEST(Proximity, SingleEventReducesToSingleInputModel) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const InputEvent ev{0, Edge::Rising, 1e-9, 300e-12};
  const auto r = calc.compute({ev});
  EXPECT_DOUBLE_EQ(r.delay, cg.singles->at(0, Edge::Rising).delay(300e-12));
  EXPECT_DOUBLE_EQ(r.outputRefTime, ev.tRef + r.delay);
  EXPECT_EQ(r.dominantPin, 0);
  EXPECT_EQ(r.processedPins.size(), 1u);
}

TEST(Proximity, FarSeparationLeavesDelayUntouched) {
  // Falling pair (earliest-first sense): once the second input trails past
  // the transition window, the delay is exactly the single-input value.
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const double d1 = cg.singles->at(0, Edge::Falling).delay(300e-12);
  const double t1 = cg.singles->at(0, Edge::Falling).transition(300e-12);
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                              {1, Edge::Falling, d1 + t1 + 1e-9, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_DOUBLE_EQ(r.delay, d1);
  EXPECT_EQ(r.processedPins.size(), 1u);
  EXPECT_TRUE(r.transitionOnlyPins.empty());
}

TEST(Proximity, RisingFarSeparationTracksLateInput) {
  // Rising pair (latest-first sense): a NAND output cannot fall until the
  // last input rises, so for well-separated rising inputs the output
  // crossing tracks the LATE input -- the case the direction-aware
  // dominance exists for.  Verified against a full simulation.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();
  const double sep = 1.5e-9;
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                              {1, Edge::Rising, sep, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_EQ(r.dominantPin, 1);
  const auto full = sim.simulate(evs, 0);
  ASSERT_TRUE(full.outputRefTime.has_value());
  EXPECT_NEAR(r.outputRefTime, *full.outputRefTime,
              0.15 * (*full.outputRefTime));
}

TEST(Proximity, TransitionOnlyWindowBetweenDelayAndTransitionEdges) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const double d1 = cg.singles->at(0, Edge::Falling).delay(300e-12);
  const double t1 = cg.singles->at(0, Edge::Falling).transition(300e-12);
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                              {1, Edge::Falling, d1 + 0.3 * t1, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_DOUBLE_EQ(r.delay, d1);  // outside the delay window
  ASSERT_EQ(r.transitionOnlyPins.size(), 1u);
  EXPECT_EQ(r.transitionOnlyPins[0], 1);
}

TEST(Proximity, CloseFallingPairIsFasterThanSingle) {
  // Figure 1-2(a) through the algorithm: proximity reduces delay.
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 0.0, 100e-12}};
  const auto r = calc.compute(evs);
  const double dDominantAlone =
      cg.singles->at(r.dominantPin, Edge::Falling)
          .delay(r.dominantPin == 0 ? 500e-12 : 100e-12);
  EXPECT_LT(r.delay, dDominantAlone);
  EXPECT_EQ(r.processedPins.size(), 2u);
}

TEST(Proximity, CloseRisingPairIsSlowerThanSingle) {
  const auto& cg = testutil::nand2Model();
  model::ProximityOptions opts;
  opts.applyCorrection = false;  // isolate the dual-model contribution
  const auto calc = cg.calculator(opts);
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 500e-12},
                              {1, Edge::Rising, 0.0, 500e-12}};
  const auto r = calc.compute(evs);
  const double dAlone =
      cg.singles->at(r.dominantPin, Edge::Rising).delay(500e-12);
  EXPECT_GT(r.delay, dAlone);
}

TEST(Proximity, DelayAlwaysPositiveEvenForExtremeSlopes) {
  // The Section 2 guarantee carried through the algorithm.
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  for (double tau : {50e-12, 2200e-12, 5000e-12}) {
    for (double sep : {-1e-9, -100e-12, 0.0, 100e-12, 1e-9}) {
      std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, tau},
                                  {1, Edge::Rising, sep, 300e-12},
                                  {2, Edge::Rising, -sep, tau}};
      const auto r = calc.compute(evs);
      EXPECT_GT(r.delay, 0.0) << "tau=" << tau << " sep=" << sep;
      EXPECT_GT(r.transitionTime, 0.0);
    }
  }
}

TEST(Proximity, MixedDirectionsThrow) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                              {1, Edge::Falling, 0.0, 300e-12}};
  const auto message = [](auto&& fn) {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  const std::string error = message([&] { calc.compute(evs); });
  EXPECT_NE(error.find("mixed transition directions"), std::string::npos)
      << error;
  // The classic calculation shares compute()'s setup, so it rejects the
  // same events with the same error.
  EXPECT_EQ(message([&] { calc.computeClassic(evs); }), error);
}

TEST(Proximity, EmptyEventsThrow) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  EXPECT_THROW(calc.compute({}), std::invalid_argument);
  EXPECT_THROW(calc.computeClassic({}), std::invalid_argument);
}

TEST(Proximity, CorrectionAppliedOnlyWhenMultipleProcessed) {
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  // Single event: no correction possible.
  const auto r1 = calc.compute({{0, Edge::Rising, 0.0, 200e-12}});
  EXPECT_EQ(r1.correctionApplied, 0.0);
  // Simultaneous events: correction active (full weight).
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 200e-12},
                              {1, Edge::Rising, 0.0, 200e-12},
                              {2, Edge::Rising, 0.0, 200e-12}};
  const auto r3 = calc.compute(evs);
  if (!cg.correction.empty()) {
    EXPECT_NE(r3.correctionApplied, 0.0);
  }
}

TEST(Proximity, CorrectionFadesWithSeparation) {
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  auto runWithSep = [&](double s) {
    std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 200e-12},
                                {1, Edge::Rising, s, 200e-12}};
    return calc.compute(evs).correctionApplied;
  };
  const double c0 = std::fabs(runWithSep(0.0));
  const double cMid = std::fabs(runWithSep(100e-12));
  EXPECT_GE(c0 + 1e-18, cMid);  // weight decays with positive separation
}

TEST(Proximity, ClassicIgnoresProximity) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 10e-12, 100e-12}};
  const auto classic = calc.computeClassic(evs);
  const auto prox = calc.compute(evs);
  EXPECT_DOUBLE_EQ(
      classic.delay,
      cg.singles->at(classic.dominantPin, Edge::Falling)
          .delay(classic.dominantPin == 0 ? 500e-12 : 100e-12));
  EXPECT_NE(classic.delay, prox.delay);
}

TEST(Proximity, AgainstFullSimulationSanity) {
  // One end-to-end accuracy spot-check (detailed statistics live in the
  // integration test and the Table 5-1 bench).
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 400e-12},
                              {1, Edge::Rising, 100e-12, 700e-12}};
  const auto full = sim.simulate(evs, 0);
  ASSERT_TRUE(full.outputRefTime.has_value());
  const auto r = calc.compute(evs);
  EXPECT_NEAR(r.outputRefTime, *full.outputRefTime,
              0.15 * *full.delay);  // coarse-grid package
}

TEST(Proximity, AdditiveCompositionOptionChangesTransitionOnly) {
  // The ablation knob: additive vs multiplicative transition composition
  // must differ on multi-input folds but leave the delay untouched.
  const auto& cg = testutil::nand3Model();
  model::ProximityOptions add;
  add.transitionComposition = model::TransitionComposition::Additive;
  const auto calcAdd = cg.calculator(add);
  const auto calcMul = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 20e-12, 100e-12},
                              {2, Edge::Falling, -30e-12, 300e-12}};
  const auto ra = calcAdd.compute(evs);
  const auto rm = calcMul.compute(evs);
  EXPECT_DOUBLE_EQ(ra.delay, rm.delay);
  EXPECT_NE(ra.transitionTime, rm.transitionTime);
}

// -- the composition against the straight-line reference ---------------------

const char* const kProximityCounters[] = {
    "model.proximity.computes",
    "model.proximity.classic_computes",
    "model.proximity.inputs_seen",
    "model.proximity.dominance_reorders",
    "model.proximity.window_exits",
    "model.proximity.inputs_window_skipped",
    "model.proximity.corrections_applied",
    "model.proximity.inputs_processed",
    "model.proximity.inputs_transition_only",
};

std::vector<std::uint64_t> proximityCounters() {
  std::vector<std::uint64_t> v;
  for (const char* name : kProximityCounters) {
    v.push_back(obs::counter(name).value());
  }
  return v;
}

/// Runs @p fn and returns its result with the model.proximity.* deltas.
template <class Fn>
std::pair<model::ProximityResult, std::vector<std::uint64_t>> withDeltas(
    Fn&& fn) {
  const auto before = proximityCounters();
  model::ProximityResult r = fn();
  auto deltas = proximityCounters();
  for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
  return {std::move(r), std::move(deltas)};
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expectSameResult(const model::ProximityResult& got,
                      const model::ProximityResult& want) {
  EXPECT_TRUE(sameBits(got.delay, want.delay))
      << got.delay << " vs " << want.delay;
  EXPECT_TRUE(sameBits(got.transitionTime, want.transitionTime))
      << got.transitionTime << " vs " << want.transitionTime;
  EXPECT_EQ(got.dominantPin, want.dominantPin);
  EXPECT_TRUE(sameBits(got.outputRefTime, want.outputRefTime))
      << got.outputRefTime << " vs " << want.outputRefTime;
  EXPECT_EQ(got.processedPins, want.processedPins);
  EXPECT_EQ(got.transitionOnlyPins, want.transitionOnlyPins);
  EXPECT_TRUE(sameBits(got.correctionApplied, want.correctionApplied))
      << got.correctionApplied << " vs " << want.correctionApplied;
  EXPECT_TRUE(sameBits(got.maxClampDistance, want.maxClampDistance))
      << got.maxClampDistance << " vs " << want.maxClampDistance;
}

/// Forwards every lookup to @p inner and keeps the worst clamp distance it
/// answered -- what the composition's maxClampDistance must equal when the
/// reference runs through it.
class RecordingDual : public model::DualInputModel {
 public:
  explicit RecordingDual(const model::DualInputModel& inner) : inner_(inner) {}
  model::DualResult lookup(const model::DualQuery& q) const override {
    const model::DualResult r = inner_.lookup(q);
    worst_ = std::max(worst_, r.clampDistance);
    return r;
  }
  double worst() const { return worst_; }

 private:
  const model::DualInputModel& inner_;
  mutable double worst_ = 0.0;
};

/// What a sweep exercised, so it can prove it reached every branch.
struct Coverage {
  int multiFold = 0;       ///< three or more inputs folded into the delay
  int transitionOnly = 0;  ///< an input only perturbed the transition
  int leftOut = 0;         ///< an input fell outside both windows
  int corrected = 0;       ///< a non-zero corrective term
  int clamped = 0;         ///< a lookup fell outside its table grid
};

/// Holds compute() and computeClassic() to the reference on @p evs under
/// all 16 ProximityOptions combinations, counters included; compute()'s
/// maxClampDistance to the worst clamp the reference's lookups saw.
void expectMatchesReference(const model::Gate& gate,
                            const model::SingleInputModelSet& singles,
                            const model::DualInputModel& dual,
                            const model::StepCorrection& correction,
                            const std::vector<InputEvent>& evs,
                            Coverage& seen) {
  for (int mask = 0; mask < 16; ++mask) {
    SCOPED_TRACE("options mask " + std::to_string(mask));
    model::ProximityOptions o;
    o.applyCorrection = (mask & 1) != 0;
    o.applyTransitionCorrection = (mask & 2) != 0;
    o.transitionComposition =
        (mask & 4) != 0 ? model::TransitionComposition::Additive
                        : model::TransitionComposition::Multiplicative;
    o.orderByDominance = (mask & 8) == 0;
    const model::ProximityCalculator calc(gate, singles, dual, correction, o);
    const RecordingDual recording(dual);
    auto want = withDeltas([&] {
      return testutil::referenceCompute(gate, singles, recording, correction,
                                        o, evs);
    });
    want.first.maxClampDistance = recording.worst();
    const auto got = withDeltas([&] { return calc.compute(evs); });
    expectSameResult(got.first, want.first);
    EXPECT_EQ(got.second, want.second);

    const model::ProximityResult& r = got.first;
    if (r.maxClampDistance > 0.0) ++seen.clamped;
    if (r.processedPins.size() >= 3) ++seen.multiFold;
    if (!r.transitionOnlyPins.empty()) ++seen.transitionOnly;
    if (r.processedPins.size() + r.transitionOnlyPins.size() < evs.size()) {
      ++seen.leftOut;
    }
    if (r.correctionApplied != 0.0) ++seen.corrected;
  }
  const auto wantClassic = withDeltas(
      [&] { return testutil::referenceComputeClassic(gate, singles, evs); });
  const model::ProximityCalculator calc(gate, singles, dual, correction);
  const auto gotClassic = withDeltas([&] { return calc.computeClassic(evs); });
  expectSameResult(gotClassic.first, wantClassic.first);
  EXPECT_EQ(gotClassic.second, wantClassic.second);
}

/// @p count seeded same-direction event sets on @p cg's pins: a random
/// subset of 1..pinCount pins in random order, with times and slopes drawn
/// from a few values (so exact ties occur) or from continuous ranges.
std::vector<std::vector<InputEvent>> seededEventSets(
    const characterize::CharacterizedGate& cg, std::uint64_t seed0,
    int count) {
  const double kTRef[] = {0.0, 10e-12, 40e-12, 150e-12, 600e-12};
  const double kTau[] = {50e-12, 200e-12, 700e-12, 2e-9};
  std::vector<std::vector<InputEvent>> sets;
  for (int k = 0; k < count; ++k) {
    std::mt19937_64 rng(seed0 + static_cast<std::uint64_t>(k));
    std::uniform_real_distribution<double> t(-200e-12, 800e-12);
    std::uniform_real_distribution<double> tau(20e-12, 3e-9);
    std::vector<int> pins(static_cast<std::size_t>(cg.pinCount()));
    std::iota(pins.begin(), pins.end(), 0);
    std::shuffle(pins.begin(), pins.end(), rng);
    pins.resize(1 + rng() % pins.size());
    const Edge edge = rng() % 2 == 0 ? Edge::Rising : Edge::Falling;
    const bool discrete = rng() % 2 == 0;
    std::vector<InputEvent> evs;
    for (const int pin : pins) {
      evs.push_back({pin, edge,
                     discrete ? kTRef[rng() % std::size(kTRef)] : t(rng),
                     discrete ? kTau[rng() % std::size(kTau)] : tau(rng)});
    }
    sets.push_back(std::move(evs));
  }
  return sets;
}

/// Event sets on the algorithm's boundaries: every pin switching at once
/// (the deepest fold), and a second input exactly on the delay-window and
/// transition-window edges of the first.
std::vector<std::vector<InputEvent>> edgeEventSets(
    const characterize::CharacterizedGate& cg) {
  std::vector<std::vector<InputEvent>> sets;
  if (cg.pinCount() < 2) return sets;
  for (const Edge edge : {Edge::Rising, Edge::Falling}) {
    std::vector<InputEvent> all;
    for (int pin = 0; pin < cg.pinCount(); ++pin) {
      all.push_back({pin, edge, 0.0, 200e-12});
    }
    sets.push_back(all);
    const double d1 = cg.singles->at(0, edge).delay(200e-12);
    const double t1 = cg.singles->at(0, edge).transition(200e-12);
    for (const double s : {d1, d1 + t1}) {
      sets.push_back({{0, edge, 0.0, 200e-12}, {1, edge, s, 200e-12}});
    }
  }
  return sets;
}

void expectSetsMatchReference(const characterize::CharacterizedGate& cg,
                              std::uint64_t seed0, int count,
                              Coverage& seen) {
  auto sets = seededEventSets(cg, seed0, count);
  for (auto& evs : edgeEventSets(cg)) sets.push_back(std::move(evs));
  for (const auto& evs : sets) {
    SCOPED_TRACE(std::to_string(evs.size()) + " events");
    expectMatchesReference(cg.gate, *cg.singles, *cg.dual, cg.correction, evs,
                           seen);
  }
}

TEST(ProximityComposition, MatchesReferenceOnAnalyticGatesOfOneToEightInputs) {
  // Analytic packages: any fanin, a non-empty StepCorrection, and sharp
  // enough ratios that every window branch comes up.
  std::vector<characterize::CharacterizedGate> cells;
  cells.push_back(characterize::analyticGate(testutil::invSpec()));
  for (int fanin = 2; fanin <= 8; ++fanin) {
    cells.push_back(characterize::analyticGate(testutil::nandSpec(fanin)));
    cells.push_back(characterize::analyticGate(testutil::norSpec(fanin)));
  }
  Coverage seen;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SCOPED_TRACE("cell " + std::to_string(c));
    expectSetsMatchReference(cells[c], 1000 * c, 40, seen);
  }
  // A corrective term that drives the transition time negative, so the
  // final clamp at zero is held to the reference too.
  model::StepCorrection harsh;
  harsh.delayErrorRising = harsh.delayErrorFalling = {1e-12};
  harsh.transitionErrorRising = harsh.transitionErrorFalling = {-1e-6};
  const characterize::CharacterizedGate& nand2 = cells[1];
  for (const auto& evs : edgeEventSets(nand2)) {
    expectMatchesReference(nand2.gate, *nand2.singles, *nand2.dual, harsh,
                           evs, seen);
  }
  EXPECT_GT(seen.multiFold, 0);
  EXPECT_GT(seen.transitionOnly, 0);
  EXPECT_GT(seen.leftOut, 0);
  EXPECT_GT(seen.corrected, 0);
  EXPECT_GT(seen.clamped, 0);
}

TEST(ProximityComposition, MatchesReferenceOnCharacterizedGates) {
  // Characterized tables, and the complex AOI21 whose dominance sense comes
  // from its switching subnetwork.
  static const characterize::CharacterizedGate aoi21 =
      characterize::characterizeComplexGate(cells::aoi21(),
                                            testutil::fastConfig());
  Coverage seen;
  expectSetsMatchReference(testutil::nand2Model(), 1, 40, seen);
  expectSetsMatchReference(testutil::nand3Model(), 2, 40, seen);
  expectSetsMatchReference(aoi21, 3, 60, seen);
  EXPECT_GT(seen.transitionOnly, 0);
  EXPECT_GT(seen.leftOut, 0);
  EXPECT_GT(seen.corrected, 0);
  EXPECT_GT(seen.clamped, 0);
}

TEST(ProximityComposition, MatchesReferenceThroughTheOracleModel) {
  // compute() drives any DualInputModel, not only the tabulated one the STA
  // batch answers in bulk.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  Coverage seen;
  for (const std::vector<InputEvent>& evs :
       {std::vector<InputEvent>{{0, Edge::Falling, 0.0, 300e-12},
                                {1, Edge::Falling, 30e-12, 150e-12}},
        std::vector<InputEvent>{{1, Edge::Rising, 0.0, 400e-12},
                                {0, Edge::Rising, 100e-12, 700e-12}}}) {
    expectMatchesReference(cg.gate, *cg.singles, oracle, cg.correction, evs,
                           seen);
  }
}

TEST(ProximityComposition, CountsACallThatThrowsLikeTheReference) {
  // No dual tables, so the first lookup throws TableMissing.  The call still
  // counts as a compute on its inputs, with its dominance reorder (the slow
  // early input ranks behind the fast late one), and nothing after it.
  const auto cg = characterize::analyticGate(testutil::nandSpec(3));
  const model::TabulatedDualInputModel noTables(*cg.singles);
  const model::ProximityCalculator calc(cg.gate, *cg.singles, noTables,
                                        cg.correction);
  const std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 2e-9},
                                    {1, Edge::Falling, 20e-12, 50e-12},
                                    {2, Edge::Falling, 40e-12, 50e-12}};
  const auto deltasOfThrowingCall = [](auto&& fn) {
    const auto before = proximityCounters();
    EXPECT_THROW(fn(), support::DiagnosticError);
    auto deltas = proximityCounters();
    for (std::size_t i = 0; i < deltas.size(); ++i) deltas[i] -= before[i];
    return deltas;
  };
  const auto want = deltasOfThrowingCall([&] {
    testutil::referenceCompute(cg.gate, *cg.singles, noTables, cg.correction,
                               {}, evs);
  });
  const auto got = deltasOfThrowingCall([&] { calc.compute(evs); });
  EXPECT_EQ(got, want);
#if PROX_ENABLE_STATS
  // computes, classic_computes, inputs_seen, dominance_reorders, then none.
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 0, 3, 1, 0, 0, 0, 0, 0}));
#endif
}

TEST(StepCorrection, LookupSaturatesAtTableEnd) {
  model::StepCorrection c;
  c.delayErrorRising = {1e-12, 2e-12};
  EXPECT_DOUBLE_EQ(c.delayFor(2, Edge::Rising), 1e-12);
  EXPECT_DOUBLE_EQ(c.delayFor(3, Edge::Rising), 2e-12);
  EXPECT_DOUBLE_EQ(c.delayFor(9, Edge::Rising), 2e-12);  // clamped
  EXPECT_DOUBLE_EQ(c.delayFor(1, Edge::Rising), 0.0);
  EXPECT_DOUBLE_EQ(c.delayFor(3, Edge::Falling), 0.0);  // no falling table
}

}  // namespace
