#pragma once
// Reference per-gate delay calculation: the scalar degradation ladder the
// STA ran on every arc before the ladder moved into evaluateGateBatch()
// (sta/batch_eval.hpp).  Kept in tests/ as an oracle (the way
// proximity_reference.hpp backs ProximityComposition): for every arc the
// batch must reproduce this ladder's Arrival bit for bit, its ArcQuality,
// its sta.delay_calc.* and model.proximity.* counters, and its exception
// type and text.  It runs one ProximityCalculator per arc -- compute(), then
// computeClassic() on a model-side failure -- so its model.dual.* counters
// are not the batch's: a degraded arc looks its tables up once in the batch
// and up to twice here.

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sta/delay_calc.hpp"
#include "support/diagnostic.hpp"

namespace prox::testutil {

/// Output arrival of @p cell for per-pin input arrivals (nullopt for stable
/// pins); nullopt when no pin switches.  Throws std::invalid_argument on a
/// pin-count mismatch or mixed directions; model-side failures degrade
/// Proximity -> classic single-input -> slew estimate, reported in
/// @p quality.
inline std::optional<sta::Arrival> referenceEvaluateGate(
    const characterize::CharacterizedGate& cell,
    const std::vector<std::optional<sta::Arrival>>& pins, sta::DelayMode mode,
    const sta::DelayCalcOptions& opt, sta::ArcQuality* quality = nullptr) {
  using sta::ArcQuality;
  if (quality != nullptr) *quality = ArcQuality::Full;
  if (static_cast<int>(pins.size()) != cell.pinCount()) {
    throw std::invalid_argument("evaluateGate: pin count mismatch");
  }
  std::vector<model::InputEvent> events;
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (!pins[p]) continue;
    events.push_back({static_cast<int>(p), pins[p]->edge, pins[p]->time,
                      pins[p]->slope});
  }
  if (events.empty()) {
    PROX_OBS_COUNT("sta.delay_calc.idle_gates", 1);
    return std::nullopt;
  }
  PROX_OBS_COUNT("sta.delay_calc.arc_evals", 1);
  PROX_OBS_COUNT("sta.delay_calc.switching_pins", events.size());
  for (const auto& ev : events) {
    if (ev.edge != events.front().edge) {
      throw std::invalid_argument(
          "evaluateGate: mixed input directions on one gate");
    }
  }

  const model::ProximityCalculator calc = cell.calculator();
  ArcQuality q = ArcQuality::Full;
  model::ProximityResult r;
  bool have = false;

  if (mode == sta::DelayMode::Proximity) {
    try {
      r = calc.compute(events);
      if (r.maxClampDistance > 0.0) {
        PROX_OBS_COUNT("sta.delay_calc.clamped_arcs", 1);
      }
      if (r.maxClampDistance > opt.maxClampDistance) {
        throw support::DiagnosticError(
            support::makeDiagnostic(
                support::StatusCode::TableOutOfRange,
                "proximity lookup clamped beyond the trust distance")
                .withSite("sta.delay_calc"));
      }
      have = true;
    } catch (const std::exception&) {
      PROX_OBS_COUNT("sta.delay_calc.single_input_fallbacks", 1);
      q = ArcQuality::SingleInput;
    }
  }

  if (!have) {
    try {
      r = calc.computeClassic(events);
      have = true;
    } catch (const std::exception&) {
      q = ArcQuality::SlewEstimate;
    }
  }

  sta::Arrival out;
  out.edge = cell.gate.spec.outputEdgeFor(events.front().edge);
  if (have) {
    out.time = r.outputRefTime;
    out.slope = r.transitionTime;
  } else {
    PROX_OBS_COUNT("sta.delay_calc.slew_fallbacks", 1);
    const auto latest = std::max_element(
        events.begin(), events.end(),
        [](const model::InputEvent& a, const model::InputEvent& b) {
          return a.tRef < b.tRef;
        });
    out.time = latest->tRef + latest->tau;
    out.slope = latest->tau;
  }
  if (q != ArcQuality::Full) {
    PROX_OBS_COUNT("sta.delay_calc.degraded_arcs", 1);
    PROX_OBS_TRACE_INSTANT("sta.arc_degraded");
  }
  if (quality != nullptr) *quality = q;
  return out;
}

}  // namespace prox::testutil
