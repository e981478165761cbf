#pragma once
// Reference Algorithm ProximityDelay: ProximityCalculator::compute() and
// computeClassic() in the straight-line form they had before the algorithm
// became the resumable model::ProximityComposition that the calculator and
// the STA batch now share.  Kept in tests/ as an oracle (the way
// dominance_reference.hpp backs dominanceOrder()): the composition must
// reproduce every ProximityResult field bit for bit and every
// model.proximity.* counter, under every ProximityOptions combination.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "model/proximity.hpp"
#include "obs/registry.hpp"

namespace prox::testutil {

/// The dominance-sense strategy the calculator used to carry: structural for
/// complex gates, by gate type otherwise.
inline model::DominanceSense referenceSense(
    const model::Gate& gate, const std::vector<model::InputEvent>& events) {
  if (gate.complex) {
    std::vector<int> pins;
    for (const model::InputEvent& ev : events) pins.push_back(ev.pin);
    return model::complexDominanceSense(*gate.complex, pins,
                                        events.front().edge);
  }
  return model::dominanceSense(gate.spec.type, events.front().edge);
}

inline model::ProximityResult referenceCompute(
    const model::Gate& gate, const model::SingleInputModelSet& singles,
    const model::DualInputModel& dual, const model::StepCorrection& correction,
    const model::ProximityOptions& options,
    const std::vector<model::InputEvent>& events) {
  using model::DominanceSense;
  using model::DualQuery;
  using model::InputEvent;
  if (events.empty()) {
    throw std::invalid_argument("ProximityCalculator: no events");
  }
  for (const InputEvent& ev : events) {
    if (ev.edge != events.front().edge) {
      throw std::invalid_argument(
          "ProximityCalculator: mixed transition directions (use GlitchModel)");
    }
  }

  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.computes", 1);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_seen", events.size());

  const DominanceSense sense = referenceSense(gate, events);
  std::vector<std::size_t> order;
  if (options.orderByDominance) {
    std::vector<double> crossing;
    model::dominanceOrder(events, singles, sense, order, crossing);
#if PROX_ENABLE_STATS
    if (obsCells != nullptr &&
        !std::is_sorted(order.begin(), order.end(),
                        [&](std::size_t a, std::size_t b) {
                          return sense == DominanceSense::EarliestFirst
                                     ? events[a].tRef < events[b].tRef
                                     : events[a].tRef > events[b].tRef;
                        })) {
      PROX_OBS_COUNT_IN(obsCells, "model.proximity.dominance_reorders", 1);
    }
#endif
  } else {
    order.resize(events.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return events[a].tRef < events[b].tRef;
                     });
  }
  const InputEvent& y1 = events[order[0]];
  const model::SingleInputModel& m1 = singles.at(y1.pin, y1.edge);
  const double d1 = m1.delay(y1.tau);
  const double t1 = m1.transition(y1.tau);

  model::ProximityResult res;
  res.dominantPin = y1.pin;
  res.processedPins.push_back(y1.pin);

  double dCum = d1;
  double tCum = t1;
  double dBeforeLast = d1;
  double sLast = 0.0;

  for (std::size_t idx = 1; idx < order.size(); ++idx) {
    const InputEvent& yi = events[order[idx]];
    const double s = yi.tRef - y1.tRef;

    DualQuery q;
    q.refPin = y1.pin;
    q.otherPin = yi.pin;
    q.edge = y1.edge;
    q.tauRef = y1.tau;
    q.tauOther = yi.tau;

    const auto foldTransition = [&] {
      DualQuery qt = q;
      qt.sep = s + (d1 + t1) - (dCum + tCum);
      qt.kind = model::DualKind::Transition;
      const double tRatio = dual.lookup(qt).value;
      if (options.transitionComposition ==
          model::TransitionComposition::Additive) {
        tCum += t1 * (tRatio - 1.0);
      } else {
        tCum *= tRatio;
      }
    };

    if (s < dCum) {
      q.sep = s + d1 - dCum;
      foldTransition();
      const double ratio = dual.lookup(q).value;
      dBeforeLast = dCum;
      dCum += d1 * (ratio - 1.0);
      sLast = s;
      res.processedPins.push_back(yi.pin);
    } else if (s < dCum + tCum) {
      foldTransition();
      res.transitionOnlyPins.push_back(yi.pin);
    } else {
      if (sense == DominanceSense::EarliestFirst) {
        PROX_OBS_COUNT_IN(obsCells, "model.proximity.window_exits", 1);
        PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_window_skipped",
                          order.size() - idx);
        break;
      }
      PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_window_skipped", 1);
    }
  }

  if (options.applyCorrection && res.processedPins.size() >= 2 &&
      !correction.empty()) {
    const double sEff =
        sense == DominanceSense::EarliestFirst ? sLast : -sLast;
    const double weight =
        sEff <= 0.0
            ? 1.0
            : std::max(0.0, 1.0 - sEff / std::max(dBeforeLast, 1e-18));
    const double dc =
        correction.delayFor(res.processedPins.size(), y1.edge) * weight;
    dCum += dc;
    if (options.applyTransitionCorrection) {
      tCum += correction.transitionFor(res.processedPins.size(), y1.edge) *
              weight;
    }
    res.correctionApplied = dc;
    if (dc != 0.0) {
      PROX_OBS_COUNT_IN(obsCells, "model.proximity.corrections_applied", 1);
      PROX_OBS_RECORD_IN(obsCells, "model.proximity.correction_magnitude_s",
                         std::fabs(dc));
    }
  }

  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_processed",
                    res.processedPins.size());
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_transition_only",
                    res.transitionOnlyPins.size());

  res.delay = dCum;
  res.transitionTime = std::max(tCum, 0.0);
  res.outputRefTime = y1.tRef + dCum;
  return res;
}

/// computeClassic() for same-direction event sets (it used to answer mixed
/// ones too).
inline model::ProximityResult referenceComputeClassic(
    const model::Gate& gate, const model::SingleInputModelSet& singles,
    const std::vector<model::InputEvent>& events) {
  if (events.empty()) {
    throw std::invalid_argument("ProximityCalculator: no events");
  }
  PROX_OBS_COUNT("model.proximity.classic_computes", 1);
  std::vector<std::size_t> order;
  std::vector<double> crossing;
  model::dominanceOrder(events, singles, referenceSense(gate, events), order,
                        crossing);
  const model::InputEvent& y1 = events[order[0]];
  const model::SingleInputModel& m1 = singles.at(y1.pin, y1.edge);

  model::ProximityResult res;
  res.dominantPin = y1.pin;
  res.processedPins.push_back(y1.pin);
  res.delay = m1.delay(y1.tau);
  res.transitionTime = m1.transition(y1.tau);
  res.outputRefTime = y1.tRef + res.delay;
  return res;
}

}  // namespace prox::testutil
