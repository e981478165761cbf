#include "model/proximity.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/registry.hpp"

namespace prox::model {

namespace {
double lookupCorrection(const std::vector<double>& table,
                        std::size_t inputCount) {
  if (inputCount < 2 || table.empty()) return 0.0;
  const std::size_t idx = std::min(inputCount - 2, table.size() - 1);
  return table[idx];
}
}  // namespace

double StepCorrection::delayFor(std::size_t inputCount,
                                wave::Edge inputEdge) const {
  return lookupCorrection(
      inputEdge == wave::Edge::Rising ? delayErrorRising : delayErrorFalling,
      inputCount);
}

double StepCorrection::transitionFor(std::size_t inputCount,
                                     wave::Edge inputEdge) const {
  return lookupCorrection(inputEdge == wave::Edge::Rising
                              ? transitionErrorRising
                              : transitionErrorFalling,
                          inputCount);
}

void ProximityComposition::start(std::span<const InputEvent> events,
                                 const Gate& gate,
                                 const SingleInputModelSet& singles,
                                 const ProximityOptions& options) {
  if (events.empty()) {
    throw std::invalid_argument("ProximityCalculator: no events");
  }
  for (const InputEvent& ev : events) {
    if (ev.edge != events.front().edge) {
      throw std::invalid_argument(
          "ProximityCalculator: mixed transition directions (use GlitchModel)");
    }
  }
  events_ = events;
  options_ = options;
  sense_ = dominanceSense(gate.spec.type, gate.complex, events);
  if (options.orderByDominance) {
    dominanceOrder(events, singles, sense_, order_, crossing_);
  } else {
    order_.resize(events.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return events[a].tRef < events[b].tRef;
                     });
  }
  y1_ = events[order_[0]];
  const SingleInputModel& m1 = singles.at(y1_.pin, y1_.edge);
  d1_ = m1.delay(y1_.tau);
  t1_ = m1.transition(y1_.tau);
  dCum_ = d1_;
  tCum_ = t1_;
  dBeforeLast_ = d1_;
  sLast_ = 0.0;
  idx_ = 1;
  windowExits_ = windowSkipped_ = 0;

  // The classic single-input result, which finish() turns into the
  // proximity result.
  res_.delay = d1_;
  res_.transitionTime = t1_;
  res_.dominantPin = y1_.pin;
  res_.outputRefTime = y1_.tRef + d1_;
  res_.processedPins.assign(1, y1_.pin);
  res_.transitionOnlyPins.clear();
  res_.correctionApplied = 0.0;
  res_.maxClampDistance = 0.0;
}

void ProximityComposition::finish(const StepCorrection& correction) {
  // Corrective term (Section 4): bounded by the simultaneous-step error,
  // fading linearly to zero at s_{y1,ym} = Delta^{(m-1)}.
  const std::size_t processed = res_.processedPins.size();
  if (options_.applyCorrection && processed >= 2 && !correction.empty()) {
    // With latest-first ordering the "spreading apart" direction is negative
    // separation, so the fade mirrors.
    const double sEff =
        sense_ == DominanceSense::EarliestFirst ? sLast_ : -sLast_;
    const double weight =
        sEff <= 0.0
            ? 1.0
            : std::max(0.0, 1.0 - sEff / std::max(dBeforeLast_, 1e-18));
    const double dc = correction.delayFor(processed, y1_.edge) * weight;
    dCum_ += dc;
    if (options_.applyTransitionCorrection) {
      tCum_ += correction.transitionFor(processed, y1_.edge) * weight;
    }
    res_.correctionApplied = dc;
  }
  res_.delay = dCum_;
  res_.transitionTime = std::max(tCum_, 0.0);
  res_.outputRefTime = y1_.tRef + dCum_;
}

bool ProximityComposition::reordered() const {
  if (!options_.orderByDominance) return false;
  return !std::is_sorted(order_.begin(), order_.end(),
                         [&](std::size_t a, std::size_t b) {
                           return sense_ == DominanceSense::EarliestFirst
                                      ? events_[a].tRef < events_[b].tRef
                                      : events_[a].tRef > events_[b].tRef;
                         });
}

void ProximityCounts::started(const ProximityComposition& c) {
#if PROX_ENABLE_STATS
  if (obs::enabled() && c.reordered()) reorders += 1;
#else
  (void)c;
#endif
}

void ProximityCounts::finished(const ProximityComposition& c) {
  windowExits += c.windowExits();
  windowSkipped += c.windowSkipped();
  const ProximityResult& r = c.result();
  if (r.correctionApplied != 0.0) {
    corrections += 1;
    // Magnitude of the corrective term, recorded as a real-valued sample
    // (seconds): mean/min/max show how hard the repair works in practice.
    PROX_OBS_RECORD("model.proximity.correction_magnitude_s",
                    std::fabs(r.correctionApplied));
  }
  processed += r.processedPins.size();
  transitionOnly += r.transitionOnlyPins.size();
}

void ProximityCounts::flush() const {
  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.computes", computes);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_seen", inputsSeen);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.dominance_reorders", reorders);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.window_exits", windowExits);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_window_skipped",
                    windowSkipped);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.corrections_applied",
                    corrections);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_processed", processed);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_transition_only",
                    transitionOnly);
}

ProximityCalculator::ProximityCalculator(const Gate& gate,
                                         const SingleInputModelSet& singles,
                                         const DualInputModel& dual,
                                         StepCorrection correction,
                                         ProximityOptions options)
    : gate_(gate),
      singles_(singles),
      dual_(dual),
      correction_(std::move(correction)),
      options_(options) {}

ProximityResult ProximityCalculator::compute(
    const std::vector<InputEvent>& events) const {
  ProximityCounts counts;
  counts.computes = 1;
  counts.inputsSeen = events.size();
  ProximityComposition c;
  try {
    c.start(events, gate_, singles_, options_);
    counts.started(c);
    ProximityComposition::Step step;
    while (c.next(step)) {
      const DualResult t = dual_.lookup(step.transition);
      c.fold(t, step.inDelayWindow ? dual_.lookup(step.delay) : DualResult{});
    }
    c.finish(correction_);
  } catch (...) {
    // A call that throws still counts as a compute on its inputs (and, once
    // start() returned, its reorder).
    counts.flush();
    throw;
  }
  counts.finished(c);
  counts.flush();
  return c.release();
}

ProximityResult ProximityCalculator::computeClassic(
    const std::vector<InputEvent>& events) const {
  PROX_OBS_COUNT("model.proximity.classic_computes", 1);
  ProximityComposition c;
  c.start(events, gate_, singles_, ProximityOptions{});
  return c.release();
}

}  // namespace prox::model
