#include "sta/batch_eval.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "model/proximity.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace prox::sta {

namespace {

/// Per-arc batch state: the arc's composition (Algorithm ProximityDelay,
/// model/proximity.hpp) plus what only the batch tracks -- the event
/// storage the composition reads, the classic result the ladder falls back
/// to and the rung the arc has reached.
struct ArcState {
  std::vector<model::InputEvent> events;
  model::ProximityComposition comp;
  /// The composition's start: computeClassic()'s outputRefTime and
  /// transitionTime.
  double classicTime = 0.0, classicSlope = 0.0;
  bool idle = false;
  ArcQuality quality = ArcQuality::Full;

  /// Returns the state to freshly-constructed semantics while keeping the
  /// vectors' capacity, so a reused scratch arc costs no allocations.
  void reset() {
    events.clear();
    idle = false;
    quality = ArcQuality::Full;
  }
};

/// False when lookup() would have thrown (TableMissing) on the query.
bool answered(const model::DualResult& r) {
  return r.status == model::DualResult::Status::Ok;
}

/// One staged composition step: which arc it belongs to and whether its
/// delay query follows its transition query in the bucket.
struct PendingStep {
  std::uint32_t arc = 0;
  bool hasDelay = false;
};

/// Reusable per-thread scratch: the STA inner loop calls evaluateGateBatch
/// once per 64-arc chunk, and a fresh std::vector<ArcState> plus the
/// per-round staging vectors made allocation churn the dominant batching
/// cost.  Reuse keeps every capacity across chunks.
struct EvalScratch {
  std::vector<ArcState> states;
  std::vector<const model::TabulatedDualInputModel*> models;
  std::vector<std::vector<model::DualQuery>> queries;
  std::vector<std::vector<PendingStep>> steps;
  std::vector<model::DualResult> answers;

  std::vector<ArcState>& arcs(std::size_t n) {
    if (states.size() < n) states.resize(n);
    for (std::size_t i = 0; i < n; ++i) states[i].reset();
    return states;
  }
};

EvalScratch& evalScratch() {
  thread_local EvalScratch s;
  return s;
}

/// Arc setup shared by both modes: the switching events and the
/// composition's start (dominance order, the dominant input's
/// Delta^(1)/tau^(1)), which is also the classic result.  Caller bugs throw;
/// an arc whose start fails (a missing single-input model) drops to the
/// slew estimate.
void setUpArc(const BatchArc& arc, ArcState& a) {
  const characterize::CharacterizedGate& cell = *arc.cell;
  const std::vector<std::optional<Arrival>>& pins = *arc.pins;
  if (static_cast<int>(pins.size()) != cell.pinCount()) {
    throw std::invalid_argument("evaluateGate: pin count mismatch");
  }
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (!pins[p]) continue;
    if (!a.events.empty() && pins[p]->edge != a.events.front().edge) {
      throw std::invalid_argument(
          "evaluateGate: mixed input directions on one gate");
    }
    a.events.push_back(
        {static_cast<int>(p), pins[p]->edge, pins[p]->time, pins[p]->slope});
  }
  if (a.events.empty()) {
    a.idle = true;
    PROX_OBS_COUNT("sta.delay_calc.idle_gates", 1);
    return;
  }
  try {
    // Default ProximityOptions: what cell.calculator() constructs, and
    // computeClassic() ranks by dominance too.
    a.comp.start(a.events, cell.gate, *cell.singles, model::ProximityOptions{});
  } catch (const std::exception&) {
    a.quality = ArcQuality::SlewEstimate;
    return;
  }
  a.classicTime = a.comp.result().outputRefTime;
  a.classicSlope = a.comp.result().transitionTime;
}

/// Proximity mode's lockstep rounds: per round each unfinished arc's
/// composition advances to its next step (window skips are free) and stages
/// the step's transition query and -- inside the delay window -- its delay
/// query.  Queries are grouped by dual-table model, answered with one
/// evaluateMany() per model and folded back in.  An arc with an unanswered
/// query (a missing table) stops composing and drops to its classic result.
void composeInRounds(std::span<const BatchArc> arcs, EvalScratch& scratch) {
  std::vector<ArcState>& states = scratch.states;
  std::vector<const model::TabulatedDualInputModel*>& models = scratch.models;
  std::vector<std::vector<model::DualQuery>>& queries = scratch.queries;
  std::vector<std::vector<PendingStep>>& steps = scratch.steps;
  std::vector<model::DualResult>& answers = scratch.answers;
  model::ProximityComposition::Step step;

  for (;;) {
    models.clear();
    // Clear the buckets in place: shrinking `queries` itself would free the
    // inner vectors' capacity, which is the whole point of the scratch.
    for (auto& qs : queries) qs.clear();
    for (auto& ss : steps) ss.clear();

    bool any = false;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      ArcState& a = states[i];
      if (a.idle || a.quality != ArcQuality::Full || !a.comp.next(step)) {
        continue;
      }
      const model::TabulatedDualInputModel* dual = arcs[i].cell->dual.get();
      std::size_t b = 0;
      for (; b < models.size(); ++b) {
        if (models[b] == dual) break;
      }
      if (b == models.size()) {
        models.push_back(dual);
        if (queries.size() < models.size()) {
          queries.emplace_back();
          steps.emplace_back();
        }
      }
      queries[b].push_back(step.transition);
      if (step.inDelayWindow) queries[b].push_back(step.delay);
      steps[b].push_back({static_cast<std::uint32_t>(i), step.inDelayWindow});
      any = true;
    }
    if (!any) return;

    for (std::size_t b = 0; b < models.size(); ++b) {
      answers.assign(queries[b].size(), model::DualResult{});
      models[b]->evaluateMany(queries[b], answers);
      std::size_t k = 0;
      for (const PendingStep& p : steps[b]) {
        ArcState& a = states[p.arc];
        const model::DualResult& t = answers[k++];
        const model::DualResult* d = p.hasDelay ? &answers[k++] : nullptr;
        if (!answered(t) || (d != nullptr && !answered(*d))) {
          a.quality = ArcQuality::SingleInput;
          continue;
        }
        a.comp.fold(t, d != nullptr ? *d : model::DualResult{});
      }
    }
  }
}

/// Writes every arc's result, on the rung it reached, and flushes the
/// batch's counters.  Classic mode ends at setup (computeClassic()'s result
/// is the composition's start).  Proximity mode finishes each composition,
/// then applies the trust check, which drops an arc clamped past
/// opt.maxClampDistance to its classic result.  The counters are the scalar
/// ladder's: an arc whose lookups failed counts what a throwing
/// ProximityCalculator::compute() counts, and each degraded arc one
/// computeClassic().
void finishArcs(std::span<const BatchArc> arcs, DelayMode mode,
                const DelayCalcOptions& opt, std::vector<ArcState>& states,
                std::span<BatchArcResult> results) {
  std::uint64_t arcEvals = 0, switchingPins = 0, clampedArcs = 0;
  std::uint64_t slewFallbacks = 0, degradedArcs = 0;
  model::ProximityCounts counts;

  for (std::size_t i = 0; i < arcs.size(); ++i) {
    ArcState& a = states[i];
    if (a.idle) {
      results[i] = {std::nullopt, ArcQuality::Full};
      continue;
    }
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    Arrival out{a.classicTime, a.classicSlope,
                cell.gate.spec.outputEdgeFor(a.events.front().edge)};
    ArcQuality q = a.quality;
    if (mode == DelayMode::Proximity) {
      if (q != ArcQuality::SlewEstimate) counts.started(a.comp);
      if (q == ArcQuality::Full) {
        a.comp.finish(cell.correction);
        counts.finished(a.comp);
        const model::ProximityResult& r = a.comp.result();
        if (r.maxClampDistance > 0.0) clampedArcs += 1;
        if (r.maxClampDistance > opt.maxClampDistance) {
          q = ArcQuality::SingleInput;
        } else {
          out.time = r.outputRefTime;
          out.slope = r.transitionTime;
        }
      }
    }
    if (q == ArcQuality::SlewEstimate) {
      // Last rung: no model answered, so bound the arc by the latest input's
      // transition -- arrival after one full slew, slope carried through.
      const auto latest = std::max_element(
          a.events.begin(), a.events.end(),
          [](const model::InputEvent& x, const model::InputEvent& y) {
            return x.tRef < y.tRef;
          });
      out.time = latest->tRef + latest->tau;
      out.slope = latest->tau;
      slewFallbacks += 1;
    }
    if (q != ArcQuality::Full) {
      degradedArcs += 1;
      // Pin each degradation to its moment on the evaluating thread's track.
      PROX_OBS_TRACE_INSTANT("sta.arc_degraded");
    }
    results[i] = {out, q};
    arcEvals += 1;
    switchingPins += a.events.size();
  }

  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.arc_evals", arcEvals);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.switching_pins", switchingPins);
  // The ladder's counters are only touched by degraded arcs, so a clean run
  // does not list them.
  if (slewFallbacks != 0) {
    PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.slew_fallbacks",
                      slewFallbacks);
  }
  if (degradedArcs != 0) {
    PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.degraded_arcs", degradedArcs);
  }
  if (mode == DelayMode::Classic) {
    PROX_OBS_COUNT_IN(obsCells, "model.proximity.classic_computes", arcEvals);
    return;
  }
  // Every degraded proximity arc failed compute() and ran computeClassic().
  if (degradedArcs != 0) {
    PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.single_input_fallbacks",
                      degradedArcs);
    PROX_OBS_COUNT_IN(obsCells, "model.proximity.classic_computes",
                      degradedArcs);
  }
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.clamped_arcs", clampedArcs);
  counts.computes = arcEvals;
  counts.inputsSeen = switchingPins;
  counts.flush();
}

}  // namespace

void evaluateGateBatch(std::span<const BatchArc> arcs, DelayMode mode,
                       const DelayCalcOptions& opt,
                       std::span<BatchArcResult> results) {
  if (results.size() != arcs.size()) {
    throw std::invalid_argument(
        "evaluateGateBatch: arcs and results differ in length");
  }
  const std::size_t n = arcs.size();
  if (n == 0) return;

  EvalScratch& scratch = evalScratch();
  std::vector<ArcState>& states = scratch.arcs(n);
  for (std::size_t i = 0; i < n; ++i) setUpArc(arcs[i], states[i]);

  if (mode == DelayMode::Proximity) composeInRounds(arcs, scratch);
  finishArcs(arcs, mode, opt, states, results);
}

}  // namespace prox::sta
