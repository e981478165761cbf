#include "sta/batch_eval.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "model/proximity.hpp"
#include "obs/registry.hpp"

namespace prox::sta {

namespace {

/// Per-arc batch state: the arc's composition (Algorithm ProximityDelay,
/// model/proximity.hpp) plus what only the batch tracks -- the event
/// storage the composition reads and the fallback flag.
struct ArcState {
  std::vector<model::InputEvent> events;
  model::ProximityComposition comp;
  bool idle = false;
  bool fallback = false;  ///< re-run through scalar evaluateGate()

  /// Returns the state to freshly-constructed semantics while keeping the
  /// vectors' capacity, so a reused scratch arc costs no allocations.
  void reset() {
    events.clear();
    idle = fallback = false;
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
/// composition's start (anomaly screen, dominance order, the dominant
/// input's Delta^(1)/tau^(1)).  An arc the batch cannot finish is marked for
/// the scalar fallback; idle arcs are counted here exactly as evaluateGate()
/// counts them.
void setUpArc(const BatchArc& arc, ArcState& a) {
  const characterize::CharacterizedGate& cell = *arc.cell;
  const std::vector<std::optional<Arrival>>& pins = *arc.pins;
  if (static_cast<int>(pins.size()) != cell.pinCount()) {
    a.fallback = true;  // scalar throws invalid_argument (caller bug)
    return;
  }
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (!pins[p]) continue;
    a.events.push_back(
        {static_cast<int>(p), pins[p]->edge, pins[p]->time, pins[p]->slope});
  }
  if (a.events.empty()) {
    a.idle = true;
    PROX_OBS_COUNT("sta.delay_calc.idle_gates", 1);
    return;
  }
  try {
    // The batch runs the default ProximityOptions -- what the scalar path's
    // cell.calculator() constructs; computeClassic() ranks by dominance too.
    a.comp.start(a.events, cell.gate, *cell.singles, model::ProximityOptions{});
  } catch (...) {
    // Mixed directions (a caller bug), a missing single-input model: the
    // scalar path throws or degrades identically.
    a.fallback = true;
  }
}

/// Proximity mode's lockstep rounds: per round each unfinished arc's
/// composition advances to its next step (window skips are free) and stages
/// the step's transition query and -- inside the delay window -- its delay
/// query.  Queries are grouped by dual-table model, answered with one
/// evaluateMany() per model and folded back in.
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
      if (a.idle || a.fallback || !a.comp.next(step)) continue;
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
          a.fallback = true;
          continue;
        }
        a.comp.fold(t, d != nullptr ? *d : model::DualResult{});
      }
    }
  }
}

/// Writes every arc the batch completes and flushes its counters.  Classic
/// mode ends at setup (computeClassic()'s result is the composition's
/// start); proximity mode applies the trust check and the corrective term.
void finishArcs(std::span<const BatchArc> arcs, DelayMode mode,
                const DelayCalcOptions& opt, std::vector<ArcState>& states,
                std::span<BatchArcResult> results) {
  std::uint64_t arcEvals = 0, switchingPins = 0, clampedArcs = 0;
  model::ProximityCounts counts;

  for (std::size_t i = 0; i < arcs.size(); ++i) {
    ArcState& a = states[i];
    if (a.idle) {
      results[i] = {std::nullopt, ArcQuality::Full};
      continue;
    }
    if (a.fallback) continue;
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    const model::ProximityResult& r = a.comp.result();
    if (mode == DelayMode::Proximity) {
      // evaluateGate's trust check: past the distance, the scalar ladder
      // degrades the arc.
      if (r.maxClampDistance > opt.maxClampDistance) {
        a.fallback = true;
        continue;
      }
      a.comp.finish(cell.correction);
      if (r.maxClampDistance > 0.0) clampedArcs += 1;
      counts.started(a.comp);
      counts.finished(a.comp);
    }
    results[i] = {Arrival{r.outputRefTime, r.transitionTime,
                          cell.gate.spec.outputEdgeFor(a.events.front().edge)},
                  ArcQuality::Full};
    arcEvals += 1;
    switchingPins += a.events.size();
  }

  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.arc_evals", arcEvals);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.switching_pins", switchingPins);
  if (mode == DelayMode::Classic) {
    PROX_OBS_COUNT_IN(obsCells, "model.proximity.classic_computes", arcEvals);
    return;
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
  if (results.size() < arcs.size()) {
    throw std::invalid_argument("evaluateGateBatch: results span too small");
  }
  const std::size_t n = arcs.size();
  if (n == 0) return;

  EvalScratch& scratch = evalScratch();
  std::vector<ArcState>& states = scratch.arcs(n);
  for (std::size_t i = 0; i < n; ++i) setUpArc(arcs[i], states[i]);

  if (mode == DelayMode::Proximity) composeInRounds(arcs, scratch);
  finishArcs(arcs, mode, opt, states, results);

  // --- scalar fallback for anomalous arcs, in arc order --------------------
  // Exceptions (caller bugs, allowDegraded=false rethrows) escape from the
  // lowest-index arc first, matching a scalar loop over the same arcs.
  for (std::size_t i = 0; i < n; ++i) {
    if (!states[i].fallback) continue;
    results[i].arrival = evaluateGate(*arcs[i].cell, *arcs[i].pins, mode, opt,
                                      &results[i].quality);
  }
}

}  // namespace prox::sta
