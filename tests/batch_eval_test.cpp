// Batched gate evaluation against the frozen scalar degradation ladder
// (delay_calc_reference.hpp): for the same arcs, evaluateGateBatch() must
// produce the reference's arrivals bit for bit, the same ArcQuality, the
// same sta.delay_calc.* / model.proximity.* counter deltas, and -- for
// caller bugs -- the same exception from the same (lowest) arc, in both
// delay modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <typeinfo>

#include "characterize/analytic.hpp"
#include "delay_calc_reference.hpp"
#include "obs/registry.hpp"
#include "sta/batch_eval.hpp"
#include "sta/synth.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using characterize::CharacterizedGate;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

using Pins = std::vector<std::optional<Arrival>>;

struct Arc {
  const CharacterizedGate* cell;
  Pins pins;
};

const char* const kCounters[] = {
    "sta.delay_calc.arc_evals",
    "sta.delay_calc.switching_pins",
    "sta.delay_calc.idle_gates",
    "sta.delay_calc.clamped_arcs",
    "sta.delay_calc.single_input_fallbacks",
    "sta.delay_calc.slew_fallbacks",
    "sta.delay_calc.degraded_arcs",
    "model.proximity.classic_computes",
    "model.proximity.computes",
    "model.proximity.inputs_seen",
    "model.proximity.dominance_reorders",
    "model.proximity.window_exits",
    "model.proximity.inputs_window_skipped",
    "model.proximity.corrections_applied",
    "model.proximity.inputs_processed",
    "model.proximity.inputs_transition_only",
};

std::vector<std::uint64_t> counterValues() {
  std::vector<std::uint64_t> v;
  for (const char* name : kCounters) v.push_back(obs::counter(name).value());
  return v;
}

struct Outcome {
  std::vector<sta::BatchArcResult> results;
  std::vector<std::uint64_t> counterDeltas;
  std::string error;  ///< exception type and message; empty when none
};

template <class Fn>
Outcome measure(std::size_t arcCount, Fn&& evaluate) {
  Outcome out;
  out.results.resize(arcCount);
  const auto before = counterValues();
  try {
    evaluate(out.results);
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  const auto after = counterValues();
  for (std::size_t i = 0; i < after.size(); ++i) {
    out.counterDeltas.push_back(after[i] - before[i]);
  }
  return out;
}

Outcome runReference(const std::vector<Arc>& arcs, DelayMode mode,
                     const sta::DelayCalcOptions& opt) {
  return measure(arcs.size(), [&](std::vector<sta::BatchArcResult>& r) {
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      r[i].arrival = testutil::referenceEvaluateGate(
          *arcs[i].cell, arcs[i].pins, mode, opt, &r[i].quality);
    }
  });
}

Outcome runBatch(const std::vector<Arc>& arcs, DelayMode mode,
                 const sta::DelayCalcOptions& opt) {
  std::vector<sta::BatchArc> batch;
  for (const Arc& a : arcs) batch.push_back({a.cell, &a.pins});
  return measure(arcs.size(), [&](std::vector<sta::BatchArcResult>& r) {
    sta::evaluateGateBatch(batch, mode, opt, r);
  });
}

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Runs @p arcs through the batch and the reference loop and holds the batch
/// to the reference.  Results and counters are compared only when nothing
/// threw: the reference loop stops at the throwing arc, while the batch
/// throws before evaluating any.
void expectBatchMatchesReference(const std::vector<Arc>& arcs, DelayMode mode,
                                 const sta::DelayCalcOptions& opt = {}) {
  const Outcome want = runReference(arcs, mode, opt);
  const Outcome got = runBatch(arcs, mode, opt);
  EXPECT_EQ(got.error, want.error);
  if (!want.error.empty()) return;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    SCOPED_TRACE("arc " + std::to_string(i));
    const auto& w = want.results[i];
    const auto& g = got.results[i];
    EXPECT_EQ(g.quality, w.quality);
    ASSERT_EQ(g.arrival.has_value(), w.arrival.has_value());
    if (!w.arrival) continue;
    EXPECT_TRUE(sameBits(g.arrival->time, w.arrival->time))
        << g.arrival->time << " vs " << w.arrival->time;
    EXPECT_TRUE(sameBits(g.arrival->slope, w.arrival->slope))
        << g.arrival->slope << " vs " << w.arrival->slope;
    EXPECT_EQ(g.arrival->edge, w.arrival->edge);
  }
  for (std::size_t c = 0; c < std::size(kCounters); ++c) {
    EXPECT_EQ(got.counterDeltas[c], want.counterDeltas[c]) << kCounters[c];
  }
}

const CharacterizedGate& analytic(cells::GateType type, int fanin) {
  static const sta::GateLibrary library = sta::analyticLibrary();
  return library.require(type, fanin);
}

const CharacterizedGate& aoi21() {
  static const CharacterizedGate g = characterize::characterizeComplexGate(
      cells::aoi21(), testutil::fastConfig());
  return g;
}

/// An analytic NAND2 whose singles set is rebuilt from pin 0's models: pin 1
/// gets a copy of them (@p tiePins, so equal events tie exactly) or keeps
/// only its rising model.  The dual tables still read the original set,
/// which the holder keeps alive.
struct EditedNand2 {
  std::unique_ptr<model::SingleInputModelSet> original;
  CharacterizedGate gate;

  explicit EditedNand2(bool tiePins) {
    gate = characterize::analyticGate(testutil::nandSpec(2));
    original = std::move(gate.singles);
    gate.singles = std::make_unique<model::SingleInputModelSet>();
    for (const Edge e : {Edge::Rising, Edge::Falling}) {
      const model::SingleInputModel& m0 = original->at(0, e);
      gate.singles->set(m0);
      if (tiePins) {
        gate.singles->set(model::SingleInputModel(
            1, e, m0.table(), m0.loadCap(), m0.strengthK(), m0.vdd()));
      } else if (e == Edge::Rising) {
        gate.singles->set(original->at(1, e));
      }
    }
  }
};

const CharacterizedGate& tiedNand2() {
  static const EditedNand2 g(true);
  return g.gate;
}

const CharacterizedGate& nand2MissingFallingPin1() {
  static const EditedNand2 g(false);
  return g.gate;
}

/// An analytic NAND2 with part of its dual tables: pin 0 keeps both tables
/// for both edges, pin 1 keeps only its rising transition table, so a
/// lookup can miss on the delay query alone or on both.
const CharacterizedGate& nand2MissingDualTables() {
  static const CharacterizedGate g = [] {
    CharacterizedGate c = characterize::analyticGate(testutil::nandSpec(2));
    auto dual = std::make_unique<model::TabulatedDualInputModel>(*c.singles);
    for (const Edge e : {Edge::Rising, Edge::Falling}) {
      dual->setDelayTable(0, e, c.dual->delayTable(0, e));
      dual->setTransitionTable(0, e, c.dual->transitionTable(0, e));
    }
    dual->setTransitionTable(1, Edge::Rising,
                             c.dual->transitionTable(1, Edge::Rising));
    c.dual = std::move(dual);
    return c;
  }();
  return g;
}

Arrival rise(double t, double tau) { return {t, tau, Edge::Rising}; }
Arrival fall(double t, double tau) { return {t, tau, Edge::Falling}; }

const DelayMode kModes[] = {DelayMode::Classic, DelayMode::Proximity};

TEST(BatchEval, IdleGatesAndSingleSwitchingPins) {
  const auto& nand3 = analytic(cells::GateType::Nand, 3);
  const auto& inv = analytic(cells::GateType::Inverter, 1);
  const std::vector<Arc> arcs{
      {&nand3, {std::nullopt, std::nullopt, std::nullopt}},
      {&nand3, {std::nullopt, rise(10e-12, 150e-12), std::nullopt}},
      {&inv, {fall(0.0, 80e-12)}},
      {&inv, {std::nullopt}},
      {&nand3, {fall(-5e-12, 2e-9), std::nullopt, std::nullopt}},
  };
  for (const DelayMode mode : kModes) {
    expectBatchMatchesReference(arcs, mode);
  }
}

TEST(BatchEval, ExactCrossingTiesPickTheSameDominantInput) {
  const auto& tied = tiedNand2();
  ASSERT_EQ(model::predictedCrossing({0, Edge::Rising, 0.0, 100e-12},
                                     *tied.singles),
            model::predictedCrossing({1, Edge::Rising, 0.0, 100e-12},
                                     *tied.singles));
  const std::vector<Arc> arcs{
      {&tied, {rise(0.0, 100e-12), rise(0.0, 100e-12)}},
      {&tied, {fall(20e-12, 300e-12), fall(20e-12, 300e-12)}},
      {&tied, {rise(0.0, 50e-12), rise(0.0, 50e-12)}},
  };
  for (const DelayMode mode : kModes) {
    expectBatchMatchesReference(arcs, mode);
  }
}

TEST(BatchEval, SeededMixedLibraryArcsMatchBitForBit) {
  using cells::GateType;
  const CharacterizedGate* mix[] = {
      &analytic(GateType::Inverter, 1), &analytic(GateType::Nand, 2),
      &analytic(GateType::Nand, 3),     &analytic(GateType::Nand, 4),
      &analytic(GateType::Nor, 2),      &analytic(GateType::Nor, 3),
  };
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> t(-100e-12, 300e-12);
  std::uniform_real_distribution<double> tau(20e-12, 3e-9);
  std::vector<Arc> arcs;
  for (int i = 0; i < 300; ++i) {
    const CharacterizedGate* cell = mix[rng() % std::size(mix)];
    const Edge edge = rng() % 2 == 0 ? Edge::Rising : Edge::Falling;
    Pins pins(static_cast<std::size_t>(cell->pinCount()));
    for (auto& p : pins) {
      if (rng() % 4 != 0) p = Arrival{t(rng), tau(rng), edge};
    }
    arcs.push_back({cell, std::move(pins)});
  }
  // Characterized AOI21 arcs: the structural dominance sense and the
  // per-pair dual tables of a complex gate.
  for (int i = 0; i < 100; ++i) {
    const Edge edge = rng() % 2 == 0 ? Edge::Rising : Edge::Falling;
    Pins pins(static_cast<std::size_t>(aoi21().pinCount()));
    for (auto& p : pins) {
      if (rng() % 4 != 0) p = Arrival{t(rng), tau(rng), edge};
    }
    arcs.push_back({&aoi21(), std::move(pins)});
  }
  for (const DelayMode mode : kModes) {
    SCOPED_TRACE(mode == DelayMode::Classic ? "classic" : "proximity");
    expectBatchMatchesReference(arcs, mode);
    // Out-of-trust clamps degrade proximity arcs to their classic result.
    sta::DelayCalcOptions strict;
    strict.maxClampDistance = 0.0;
    expectBatchMatchesReference(arcs, mode, strict);
    if (mode == DelayMode::Proximity) {
      const Outcome got = runBatch(arcs, mode, strict);
      EXPECT_GT(std::count_if(got.results.begin(), got.results.end(),
                              [](const sta::BatchArcResult& r) {
                                return r.quality ==
                                       sta::ArcQuality::SingleInput;
                              }),
                0);
    }
  }
}

TEST(BatchEval, CallerBugsThrowFromTheLowestArc) {
  const auto& nand2 = analytic(cells::GateType::Nand, 2);
  const Arc good{&nand2, {rise(0.0, 100e-12), rise(5e-12, 100e-12)}};
  const Arc mixed{&nand2, {rise(0.0, 100e-12), fall(5e-12, 100e-12)}};
  const Arc shortPins{&nand2, {rise(0.0, 100e-12)}};
  for (const DelayMode mode : kModes) {
    expectBatchMatchesReference({good, good, mixed, good, shortPins}, mode);
    expectBatchMatchesReference({good, shortPins, good, mixed}, mode);
    const Outcome got = runBatch({good, mixed}, mode, {});
    EXPECT_NE(got.error.find("mixed input directions"), std::string::npos)
        << got.error;
  }
}

TEST(BatchEval, MissingSingleInputModelDegradesLikeScalar) {
  const auto& partial = nand2MissingFallingPin1();
  const std::vector<Arc> arcs{
      {&partial, {fall(0.0, 100e-12), fall(10e-12, 100e-12)}},  // missing
      {&partial, {std::nullopt, fall(0.0, 200e-12)}},           // missing
      {&partial, {rise(0.0, 100e-12), rise(10e-12, 100e-12)}},  // complete
      {&partial, {fall(0.0, 100e-12), std::nullopt}},           // complete
  };
  for (const DelayMode mode : kModes) {
    expectBatchMatchesReference(arcs, mode);
    const Outcome got = runBatch(arcs, mode, {});
    EXPECT_EQ(got.results[0].quality, sta::ArcQuality::SlewEstimate);
    EXPECT_EQ(got.results[2].quality, sta::ArcQuality::Full);
  }
}

TEST(BatchEval, MissingDualTablesDegradeToSingleInputInTheBatch) {
  // Complete and table-missing arcs share the batch: the clean arcs finish
  // at full quality while the others drop to their classic result.
  const CharacterizedGate* mix[] = {&nand2MissingDualTables(),
                                    &analytic(cells::GateType::Nand, 2)};
  std::mt19937_64 rng(18);
  std::uniform_real_distribution<double> t(-50e-12, 150e-12);
  std::uniform_real_distribution<double> tau(20e-12, 1e-9);
  std::vector<Arc> arcs;
  for (int i = 0; i < 200; ++i) {
    const Edge edge = rng() % 2 == 0 ? Edge::Rising : Edge::Falling;
    Pins pins(2);
    for (auto& p : pins) {
      if (rng() % 4 != 0) p = Arrival{t(rng), tau(rng), edge};
    }
    arcs.push_back({mix[rng() % std::size(mix)], std::move(pins)});
  }
  for (const DelayMode mode : kModes) {
    SCOPED_TRACE(mode == DelayMode::Classic ? "classic" : "proximity");
    expectBatchMatchesReference(arcs, mode);
    sta::DelayCalcOptions strict;
    strict.maxClampDistance = 0.0;
    expectBatchMatchesReference(arcs, mode, strict);
  }
  const Outcome got = runBatch(arcs, DelayMode::Proximity, {});
  std::size_t full = 0, single = 0;
  for (const sta::BatchArcResult& r : got.results) {
    if (!r.arrival) continue;
    full += r.quality == sta::ArcQuality::Full ? 1 : 0;
    single += r.quality == sta::ArcQuality::SingleInput ? 1 : 0;
  }
  EXPECT_GT(full, 0u);
  EXPECT_GT(single, 0u);
}

TEST(BatchEval, SpansOfDifferentLengthsThrow) {
  const auto& nand2 = analytic(cells::GateType::Nand, 2);
  const Pins pins{rise(0.0, 100e-12), rise(5e-12, 100e-12)};
  const std::vector<sta::BatchArc> arcs(2, sta::BatchArc{&nand2, &pins});
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}}) {
    std::vector<sta::BatchArcResult> results(n);
    for (const DelayMode mode : kModes) {
      EXPECT_THROW(sta::evaluateGateBatch(arcs, mode, {}, results),
                   std::invalid_argument)
          << n << " results";
    }
  }
}

}  // namespace
