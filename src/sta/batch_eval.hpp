#pragma once
// Per-gate delay calculation for the levelized STA, in both delay modes, a
// whole chunk of same-level arcs at a time.
//
// All per-arc state lives in reused per-thread scratch.  Each arc's
// Algorithm ProximityDelay is a model::ProximityComposition -- the same code
// ProximityCalculator runs -- and the batch only does batch work:
//   * setup gathers each arc's switching events and starts its composition:
//     the dominance order and the dominant input's Delta^(1)/tau^(1), which
//     is the classic result.  Classic mode finishes there, as
//     computeClassic() does.
//   * Proximity mode advances the compositions in lockstep rounds: each
//     round stages, across all arcs, the dual-input queries their next
//     steps need, groups them by dual-table model and answers them with one
//     TabulatedDualInputModel::evaluateMany() call per model -- grid
//     location amortized, trilinear blends vectorized -- then folds the
//     answers back in.
// After warm-up (scratch grown to the largest chunk) a batch of simple-gate
// arcs makes no heap allocation in either mode.
//
// Degradation ladder: when the model cannot answer, an arc drops a rung
// instead of failing the run, and no arc is evaluated twice.
//   * SingleInput: a dual-input table is missing, or the arc's worst clamp
//     exceeds DelayCalcOptions::maxClampDistance.  The arc takes its classic
//     result from setup.
//   * SlewEstimate: the composition could not start (a missing single-input
//     model).  The arc arrives one slew after its latest input, with that
//     input's slope.
// Each rung counts what the scalar ladder it replaced counted
// (tests/delay_calc_reference.hpp holds the batch to it bit for bit).

#include <span>

#include "sta/delay_calc.hpp"

namespace prox::sta {

/// One arc of a batch: a characterized cell and its per-pin input arrivals
/// (nullopt for pins whose nets are stable at the non-controlling level).
/// Both pointees must outlive the call.
struct BatchArc {
  const characterize::CharacterizedGate* cell = nullptr;
  const std::vector<std::optional<Arrival>>* pins = nullptr;
};

struct BatchArcResult {
  std::optional<Arrival> arrival;
  ArcQuality quality = ArcQuality::Full;
};

/// Evaluates arcs[i] into results[i]: the output arrival (nullopt when no
/// pin switches) and the ladder rung it came from.  All switching pins of an
/// arc must share a direction.  Throws std::invalid_argument when the spans
/// differ in length, and -- from the lowest-index arc, before any result is
/// written -- on a pin-count mismatch or mixed directions (caller bugs are
/// never degraded away).
void evaluateGateBatch(std::span<const BatchArc> arcs, DelayMode mode,
                       const DelayCalcOptions& opt,
                       std::span<BatchArcResult> results);

}  // namespace prox::sta
