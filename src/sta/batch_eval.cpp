#include "sta/batch_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "model/dominance.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace prox::sta {

namespace {

/// Per-arc state: the local variables of Algorithm ProximityDelay
/// (ProximityCalculator::compute), lifted into a struct so a whole chunk of
/// arcs can advance in lockstep rounds.  Classic mode uses only the setup
/// and dominance fields (computeClassic stops at y1's Delta^(1)/tau^(1)).
struct ArcState {
  // -- setup --
  std::vector<model::InputEvent> events;
  bool idle = false;
  bool fallback = false;  ///< re-run through scalar evaluateGate()
  bool done = false;      ///< composition finished cleanly

  const model::TabulatedDualInputModel* dual = nullptr;
  const model::SingleInputModelSet* singles = nullptr;

  // -- dominance --
  model::DominanceSense sense = model::DominanceSense::EarliestFirst;
  std::vector<std::size_t> order;
  std::vector<double> crossing;  ///< dominanceOrder's scratch
  bool reordered = false;

  // -- composition registers (names as in compute()) --
  model::InputEvent y1;
  double d1 = 0.0, t1 = 0.0;
  double dCum = 0.0, tCum = 0.0;
  double dBeforeLast = 0.0;
  double sLast = 0.0;
  std::size_t idx = 1;
  std::vector<int> processedPins, transitionOnlyPins;

  // -- the round's staged step --
  double sCur = 0.0;
  int yiPin = 0;
  bool stepHasDelay = false;

  // -- mirrors of the arc-scoped ClampStats --
  std::uint64_t clamped = 0;
  double maxClamp = 0.0;

  // -- deferred observability tallies (flushed only on success) --
  std::uint64_t windowExits = 0;
  std::uint64_t windowSkipped = 0;
  double correctionApplied = 0.0;
  bool correctionCounted = false;

  /// Returns the state to freshly-constructed semantics while keeping the
  /// inner vectors' capacity, so a reused scratch arc costs no allocations.
  void reset() {
    events.clear();
    idle = fallback = done = false;
    dual = nullptr;
    singles = nullptr;
    sense = model::DominanceSense::EarliestFirst;
    order.clear();
    reordered = false;
    y1 = {};
    d1 = t1 = 0.0;
    dCum = tCum = dBeforeLast = sLast = 0.0;
    idx = 1;
    processedPins.clear();
    transitionOnlyPins.clear();
    sCur = 0.0;
    yiPin = 0;
    stepHasDelay = false;
    clamped = 0;
    maxClamp = 0.0;
    windowExits = windowSkipped = 0;
    correctionApplied = 0.0;
    correctionCounted = false;
  }
};

/// One staged dual-input query: which arc it belongs to and whether it is
/// the step's delay query (false = transition query).
struct PendingQuery {
  std::uint32_t arc = 0;
  bool isDelay = false;
};

/// Reusable per-thread scratch: the STA inner loop calls evaluateGateBatch
/// once per 64-arc chunk, and a fresh std::vector<ArcState> (4 inner vectors
/// each) plus the per-round staging vectors made allocation churn the
/// dominant batching cost.  Reuse keeps every capacity across chunks.
struct EvalScratch {
  std::vector<ArcState> states;
  std::vector<const model::TabulatedDualInputModel*> models;
  std::vector<std::vector<model::DualQuery>> queries;
  std::vector<std::vector<PendingQuery>> meta;
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

/// Mirror of ProximityCalculator's sense resolution (senseResolverFor).
model::DominanceSense resolveSense(const characterize::CharacterizedGate& cell,
                                   const std::vector<model::InputEvent>& events) {
  if (cell.gate.complex) {
    std::vector<int> pins;
    pins.reserve(events.size());
    for (const model::InputEvent& ev : events) pins.push_back(ev.pin);
    return model::complexDominanceSense(*cell.gate.complex, pins,
                                        events.front().edge);
  }
  return model::dominanceSense(cell.gate.spec.type, events.front().edge);
}

/// Arc setup shared by both modes: the switching events, the anomaly
/// screen, the dominance order and the dominant input's Delta^(1)/tau^(1).
/// An arc the batch cannot finish is marked for the scalar fallback; idle
/// arcs are counted here exactly as evaluateGate() counts them.
void setUpArc(const BatchArc& arc, DelayMode mode, ArcState& a) {
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
  for (const auto& ev : a.events) {
    if (ev.edge != a.events.front().edge) {
      a.fallback = true;  // scalar throws invalid_argument (caller bug)
      return;
    }
  }
  a.dual = cell.dual.get();
  a.singles = cell.singles.get();
  try {
    // computeClassic() always ranks by dominance, and so does compute()
    // under the default ProximityOptions both paths run.
    static_assert(model::ProximityOptions{}.orderByDominance);
    a.sense = resolveSense(cell, a.events);
    model::dominanceOrder(a.events, *a.singles, a.sense, a.order, a.crossing);
#if PROX_ENABLE_STATS
    if (mode == DelayMode::Proximity) {
      a.reordered = !std::is_sorted(
          a.order.begin(), a.order.end(), [&](std::size_t x, std::size_t y) {
            return a.sense == model::DominanceSense::EarliestFirst
                       ? a.events[x].tRef < a.events[y].tRef
                       : a.events[x].tRef > a.events[y].tRef;
          });
    }
#else
    (void)mode;
#endif
    a.y1 = a.events[a.order[0]];
    const model::SingleInputModel& m1 = a.singles->at(a.y1.pin, a.y1.edge);
    a.d1 = m1.delay(a.y1.tau);
    a.t1 = m1.transition(a.y1.tau);
  } catch (...) {
    a.fallback = true;  // scalar degrades (or rethrows) identically
    return;
  }
  a.dCum = a.d1;
  a.tCum = a.t1;
  a.dBeforeLast = a.d1;
  a.sLast = 0.0;
  a.processedPins.push_back(a.y1.pin);
}

/// Classic mode ends at setup: computeClassic()'s result is the dominant
/// input's crossing plus Delta^(1), with tau^(1) as the (unclamped) slope.
void finishClassic(std::span<const BatchArc> arcs,
                   const std::vector<ArcState>& states,
                   std::span<BatchArcResult> results) {
  std::uint64_t arcEvals = 0, switchingPins = 0;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    const ArcState& a = states[i];
    if (a.fallback) continue;
    results[i].quality = ArcQuality::Full;
    if (a.idle) {
      results[i].arrival = std::nullopt;
      continue;
    }
    Arrival out;
    out.edge = arcs[i].cell->gate.spec.outputEdgeFor(a.events.front().edge);
    out.time = a.y1.tRef + a.d1;  // res.outputRefTime
    out.slope = a.t1;             // res.transitionTime
    results[i].arrival = out;
    arcEvals += 1;
    switchingPins += a.events.size();
  }
  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.arc_evals", arcEvals);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.switching_pins", switchingPins);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.classic_computes", arcEvals);
}

/// Proximity mode: Algorithm ProximityDelay for every set-up arc, run in
/// lockstep rounds, then the corrective term and the trust check.
void composeProximity(std::span<const BatchArc> arcs,
                      const DelayCalcOptions& opt, EvalScratch& scratch,
                      std::span<BatchArcResult> results) {
  const std::size_t n = arcs.size();
  // The batched mirror always runs the default ProximityOptions -- exactly
  // what the scalar path's cell.calculator() constructs.
  const model::ProximityOptions options{};
  std::vector<ArcState>& states = scratch.states;

  // --- lockstep composition rounds ----------------------------------------
  // Per round each unfinished arc advances to its next step needing table
  // lookups (window-skips advance for free), staging one transition query
  // and -- inside the delay window -- one delay query.  Queries are grouped
  // by dual-table model and answered with one evaluateMany() per model.
  std::vector<const model::TabulatedDualInputModel*>& models = scratch.models;
  std::vector<std::vector<model::DualQuery>>& queries = scratch.queries;
  std::vector<std::vector<PendingQuery>>& meta = scratch.meta;
  std::vector<model::DualResult>& answers = scratch.answers;

  for (;;) {
    models.clear();
    // Clear the buckets in place: shrinking `queries` itself would free the
    // inner vectors' capacity, which is the whole point of the scratch.
    for (auto& qs : queries) qs.clear();
    for (auto& ms : meta) ms.clear();

    for (std::size_t i = 0; i < n; ++i) {
      ArcState& a = states[i];
      if (a.idle || a.fallback || a.done) continue;
      // Advance through lookup-free steps (window exits / skips).
      for (;;) {
        if (a.idx >= a.order.size()) {
          a.done = true;
          break;
        }
        const model::InputEvent& yi = a.events[a.order[a.idx]];
        const double s = yi.tRef - a.y1.tRef;  // s_{y1, yi}
        if (s < a.dCum) {
          a.sCur = s;
          a.yiPin = yi.pin;
          a.stepHasDelay = true;
        } else if (s < a.dCum + a.tCum) {
          a.sCur = s;
          a.yiPin = yi.pin;
          a.stepHasDelay = false;
        } else {
          if (a.sense == model::DominanceSense::EarliestFirst) {
            a.windowExits += 1;
            a.windowSkipped += a.order.size() - a.idx;
            a.done = true;
            break;
          }
          a.windowSkipped += 1;
          ++a.idx;
          continue;
        }
        // Stage this step's queries under the arc's model bucket.
        std::size_t b = 0;
        for (; b < models.size(); ++b) {
          if (models[b] == a.dual) break;
        }
        if (b == models.size()) {
          models.push_back(a.dual);
          if (queries.size() < models.size()) {
            queries.emplace_back();
            meta.emplace_back();
          }
        }
        const model::InputEvent& yiq = a.events[a.order[a.idx]];
        model::DualQuery qt;
        qt.refPin = a.y1.pin;
        qt.otherPin = yiq.pin;
        qt.edge = a.y1.edge;
        qt.tauRef = a.y1.tau;
        qt.tauOther = yiq.tau;
        qt.sep = a.sCur + (a.d1 + a.t1) - (a.dCum + a.tCum);
        qt.kind = model::DualKind::Transition;
        queries[b].push_back(qt);
        meta[b].push_back({static_cast<std::uint32_t>(i), false});
        if (a.stepHasDelay) {
          model::DualQuery qd = qt;
          qd.sep = a.sCur + a.d1 - a.dCum;
          qd.kind = model::DualKind::Delay;
          queries[b].push_back(qd);
          meta[b].push_back({static_cast<std::uint32_t>(i), true});
        }
        break;
      }
    }

    bool any = false;
    for (const auto& qs : queries) any = any || !qs.empty();
    if (!any) break;

    for (std::size_t b = 0; b < models.size(); ++b) {
      answers.assign(queries[b].size(), model::DualResult{});
      models[b]->evaluateMany(queries[b], answers);
      // Apply in staging order: an arc's transition result lands before its
      // delay result, reproducing foldTransition-then-delayRatio exactly.
      for (std::size_t k = 0; k < answers.size(); ++k) {
        ArcState& a = states[meta[b][k].arc];
        if (a.fallback) continue;
        const model::DualResult& r = answers[k];
        if (r.status != model::DualResult::Status::Ok) {
          a.fallback = true;  // scalar lookup would have thrown TableMissing
          continue;
        }
        if (r.clampDistance > 0.0) {
          a.clamped += 1;
          a.maxClamp = std::max(a.maxClamp, r.clampDistance);
        }
        if (!meta[b][k].isDelay) {
          if (options.transitionComposition ==
              model::TransitionComposition::Additive) {
            a.tCum += a.t1 * (r.value - 1.0);
          } else {
            a.tCum *= r.value;
          }
          if (!a.stepHasDelay) a.transitionOnlyPins.push_back(a.yiPin);
        } else {
          a.dBeforeLast = a.dCum;
          a.dCum += a.d1 * (r.value - 1.0);
          a.sLast = a.sCur;
          a.processedPins.push_back(a.yiPin);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      ArcState& a = states[i];
      if (a.idle || a.fallback || a.done) continue;
      ++a.idx;  // this round's input is folded in; move to the next
    }
  }

  // --- correction, trust check, finalize ----------------------------------
  PROX_OBS_BATCH(obsCells);
  std::uint64_t arcEvals = 0, switchingPins = 0, clampedArcs = 0;
  std::uint64_t computes = 0, inputsSeen = 0, reorders = 0;
  std::uint64_t windowExits = 0, windowSkipped = 0, correctionsApplied = 0;
  std::uint64_t inputsProcessed = 0, inputsTransitionOnly = 0;

  for (std::size_t i = 0; i < n; ++i) {
    ArcState& a = states[i];
    if (a.idle) {
      results[i].arrival = std::nullopt;
      results[i].quality = ArcQuality::Full;
      continue;
    }
    if (a.fallback) continue;

    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    if (options.applyCorrection && a.processedPins.size() >= 2 &&
        !cell.correction.empty()) {
      const double sEff =
          a.sense == model::DominanceSense::EarliestFirst ? a.sLast : -a.sLast;
      const double weight =
          sEff <= 0.0
              ? 1.0
              : std::max(0.0, 1.0 - sEff / std::max(a.dBeforeLast, 1e-18));
      const double dc =
          cell.correction.delayFor(a.processedPins.size(), a.y1.edge) * weight;
      a.dCum += dc;
      if (options.applyTransitionCorrection) {
        a.tCum +=
            cell.correction.transitionFor(a.processedPins.size(), a.y1.edge) *
            weight;
      }
      a.correctionApplied = dc;
      a.correctionCounted = dc != 0.0;
    }

    // Scalar parity: evaluateGate inspects the arc-scoped ClampStats after
    // compute() and degrades past the trust distance.
    if (a.maxClamp > opt.maxClampDistance) {
      a.fallback = true;
      continue;
    }

    Arrival out;
    out.edge = cell.gate.spec.outputEdgeFor(a.events.front().edge);
    out.time = a.y1.tRef + a.dCum;                 // res.outputRefTime
    out.slope = std::max(a.tCum, 0.0);             // res.transitionTime
    results[i].arrival = out;
    results[i].quality = ArcQuality::Full;

    arcEvals += 1;
    switchingPins += a.events.size();
    if (a.clamped > 0) clampedArcs += 1;
    computes += 1;
    inputsSeen += a.events.size();
    if (a.reordered) reorders += 1;
    windowExits += a.windowExits;
    windowSkipped += a.windowSkipped;
    if (a.correctionCounted) {
      correctionsApplied += 1;
      PROX_OBS_RECORD_IN(obsCells, "model.proximity.correction_magnitude_s",
                         std::fabs(a.correctionApplied));
    }
    inputsProcessed += a.processedPins.size();
    inputsTransitionOnly += a.transitionOnlyPins.size();
  }

  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.arc_evals", arcEvals);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.switching_pins", switchingPins);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.clamped_arcs", clampedArcs);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.computes", computes);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_seen", inputsSeen);
#if PROX_ENABLE_STATS
  if (obsCells != nullptr) {
    PROX_OBS_COUNT_IN(obsCells, "model.proximity.dominance_reorders", reorders);
  }
#endif
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.window_exits", windowExits);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_window_skipped",
                    windowSkipped);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.corrections_applied",
                    correctionsApplied);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_processed",
                    inputsProcessed);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_transition_only",
                    inputsTransitionOnly);
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
  for (std::size_t i = 0; i < n; ++i) setUpArc(arcs[i], mode, states[i]);

  if (mode == DelayMode::Classic) {
    finishClassic(arcs, states, results);
  } else {
    composeProximity(arcs, opt, scratch, results);
  }

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
