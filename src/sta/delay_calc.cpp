#include "sta/delay_calc.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/diagnostic.hpp"

namespace prox::sta {

std::optional<Arrival> evaluateGate(const characterize::CharacterizedGate& cell,
                                    const std::vector<std::optional<Arrival>>& pins,
                                    DelayMode mode,
                                    const DelayCalcOptions& opt,
                                    ArcQuality* quality) {
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

  // Degradation ladder: the requested mode first; on a model-side failure
  // (missing table, lookup clamped beyond the trust distance, solver error)
  // fall to the classic single-input calculation, and as a last resort to a
  // pure slew estimate so the STA always completes with a bounded answer.
  const model::ProximityCalculator calc = cell.calculator();
  ArcQuality q = ArcQuality::Full;
  model::ProximityResult r;
  bool have = false;

  if (mode == DelayMode::Proximity) {
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
      if (!opt.allowDegraded) throw;
      PROX_OBS_COUNT("sta.delay_calc.single_input_fallbacks", 1);
      q = ArcQuality::SingleInput;
    }
  }

  if (!have) {
    try {
      r = calc.computeClassic(events);
      have = true;
    } catch (const std::exception&) {
      if (!opt.allowDegraded) throw;
      q = ArcQuality::SlewEstimate;
    }
  }

  Arrival out;
  out.edge = cell.gate.spec.outputEdgeFor(events.front().edge);
  if (have) {
    out.time = r.outputRefTime;
    out.slope = r.transitionTime;
  } else {
    // Last rung: no model answered, so bound the arc by the latest input's
    // transition -- arrival after one full slew, slope carried through.
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
    // Pin each degradation to its moment on the evaluating thread's track.
    PROX_OBS_TRACE_INSTANT("sta.arc_degraded");
  }
  if (quality != nullptr) *quality = q;
  return out;
}

std::optional<Arrival> evaluateGate(const characterize::CharacterizedGate& cell,
                                    const std::vector<std::optional<Arrival>>& pins,
                                    DelayMode mode) {
  return evaluateGate(cell, pins, mode, DelayCalcOptions{});
}

}  // namespace prox::sta
