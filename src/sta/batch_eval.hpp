#pragma once
// Batched per-gate delay calculation: the lockstep mirror of
// evaluateGate() used by the levelized STA, in both delay modes.
//
// evaluateGate() costs every arc a ProximityCalculator construction (the
// StepCorrection vectors and a std::function copied) plus one virtual
// dual-table lookup per folded input.  This evaluator instead keeps all
// per-arc state in reused per-thread scratch and shares one setup between
// the modes: the switching events, the anomaly screen, the dominance order
// (one single-input lookup per input, sorted into the arc's own storage) and
// the dominant input's Delta^(1)/tau^(1).
//   * Classic mode finishes there, as computeClassic() does: the output
//     crosses at y1.tRef + Delta^(1) with slope tau^(1).
//   * Proximity mode runs a whole chunk of same-level arcs in lockstep
//     rounds: each round collects, across all arcs, the dual-input queries
//     their compositions need next, groups them by dual-table model and
//     answers them with one TabulatedDualInputModel::evaluateMany() call per
//     model -- grid location amortized, trilinear blends vectorized.
// After warm-up (scratch grown to the largest chunk) a batch of simple-gate
// arcs makes no heap allocation in either mode.
//
// Bit-identity contract: for every arc the produced Arrival and ArcQuality
// equal evaluateGate()'s exactly, and so do the counters.  The composition
// replays Algorithm ProximityDelay statement for statement (same query
// values, same update order, same correction arithmetic), and evaluateMany()
// is bit-identical to the scalar lookups.  Any anomaly -- pin-count
// mismatch, mixed directions, missing models, out-of-trust clamps, any
// exception -- re-runs that arc through scalar evaluateGate(), which stays
// the reference: it reproduces the scalar path's diagnostics, degradation
// ladder and counters, and propagation-class errors (caller bugs,
// allowDegraded=false) throw out of it naturally.

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
