#pragma once
// Batched per-gate delay calculation: evaluateGate() for a whole chunk of
// same-level arcs, used by the levelized STA in both delay modes.
//
// evaluateGate() costs every arc a ProximityCalculator construction (the
// StepCorrection vectors copied) plus one virtual dual-table lookup per
// folded input.  This evaluator instead keeps all per-arc state in reused
// per-thread scratch.  Each arc's Algorithm ProximityDelay is a
// model::ProximityComposition -- the same code ProximityCalculator runs --
// and the batch only does batch work:
//   * setup starts every arc's composition: the switching events, the
//     anomaly screen, the dominance order and the dominant input's
//     Delta^(1)/tau^(1).  Classic mode finishes there, as computeClassic()
//     does.
//   * Proximity mode advances the compositions in lockstep rounds: each
//     round stages, across all arcs, the dual-input queries their next
//     steps need, groups them by dual-table model and answers them with one
//     TabulatedDualInputModel::evaluateMany() call per model -- grid
//     location amortized, trilinear blends vectorized -- then folds the
//     answers back in.
// After warm-up (scratch grown to the largest chunk) a batch of simple-gate
// arcs makes no heap allocation in either mode.
//
// Equivalence with evaluateGate(): for every arc the produced Arrival and
// ArcQuality equal evaluateGate()'s exactly, and so do the counters.  Both
// paths run one composition, which also records the arc's worst clamp
// distance, and one model::ProximityCounts tally, and evaluateMany() is
// bit-identical to lookup(), so what is left to hold equal is the batch
// work itself: event gathering and the trust check.  Any anomaly
// -- pin-count mismatch, mixed directions, missing models, out-of-trust
// clamps, any exception -- re-runs that arc through scalar evaluateGate(),
// which reproduces the scalar path's diagnostics, degradation ladder and
// counters; propagation-class errors (caller bugs, allowDegraded=false)
// throw out of it naturally.

#include <span>

#include "sta/delay_calc.hpp"

namespace prox::sta {

/// One arc of a batch: a characterized cell and its per-pin input arrivals
/// (same shape evaluateGate() takes).  Both pointees must outlive the call.
struct BatchArc {
  const characterize::CharacterizedGate* cell = nullptr;
  const std::vector<std::optional<Arrival>>* pins = nullptr;
};

struct BatchArcResult {
  std::optional<Arrival> arrival;
  ArcQuality quality = ArcQuality::Full;
};

/// Evaluates arcs[i] into results[i] (spans must be the same length).
/// Throws exactly when a scalar evaluateGate() loop over the same arcs would
/// (lowest arc index first).
void evaluateGateBatch(std::span<const BatchArc> arcs, DelayMode mode,
                       const DelayCalcOptions& opt,
                       std::span<BatchArcResult> results);

}  // namespace prox::sta
