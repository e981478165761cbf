#pragma once
// Algorithm ProximityDelay (Section 4, Figure 4-1): multi-input delay and
// output transition time by repeated application of the dual-input
// proximity macromodel.
//
//   1. Order the switching inputs by dominance (most dominant = y1).
//   2. Delta := Delta_{y1}^(1).
//   3. For each next input y_i inside the proximity window (s_{y1,yi} <
//      Delta^{(i-1)}): replace the cumulative effect of y_1..y_{i-1} by an
//      equivalent waveform y* = y1 shifted so it reproduces the cumulative
//      crossing (eq 4.3), apply the dual-input model to (y*, y_i) (eq 4.4),
//      and change the reference back to y1 (eq 4.5):
//          Delta^{(i)} = Delta^{(i-1)}
//                      + Delta^{(1)} * [ D^(2)(tau_1/Delta^(1),
//                                              tau_i/Delta^(1),
//                                              (s + Delta^(1) - Delta^{(i-1)})/Delta^(1)) - 1 ]
//   4. Inputs outside the delay window but inside the transition window
//      (s < Delta + tau) still perturb the output transition time.
//   5. A corrective term repairs the two known failure modes (simultaneous
//      identical inputs; very late dominant input): full magnitude (the
//      characterized simultaneous-step error) for s_{y1,ym} <= 0, decaying
//      linearly to zero at s_{y1,ym} = Delta^{(m-1)}.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "model/dominance.hpp"
#include "model/dual_input.hpp"

namespace prox::model {

/// Characterized corrective-term magnitudes (Section 4).  Entry k-2 of each
/// vector is the signed error (simulation minus uncorrected algorithm) when
/// k inputs receive a simultaneous step in the given direction.
struct StepCorrection {
  std::vector<double> delayErrorRising;       ///< [k-2] signed delay error [s]
  std::vector<double> delayErrorFalling;
  std::vector<double> transitionErrorRising;  ///< [k-2] signed error [s]
  std::vector<double> transitionErrorFalling;

  bool empty() const {
    return delayErrorRising.empty() && delayErrorFalling.empty();
  }
  double delayFor(std::size_t inputCount, wave::Edge inputEdge) const;
  double transitionFor(std::size_t inputCount, wave::Edge inputEdge) const;
};

/// How per-input transition-time ratios combine across the composition loop.
enum class TransitionComposition {
  /// tau^(i) = tau^(i-1) * T2 -- the default; accurate because transition
  /// perturbations are large and compound (see DESIGN.md 4b).
  Multiplicative,
  /// tau^(i) = tau^(i-1) + tau^(1) (T2 - 1) -- the literal analog of the
  /// paper's delay recurrence (4.5); kept for the ablation bench.
  Additive,
};

struct ProximityOptions {
  bool applyCorrection = true;
  /// The paper notes "a similar correction can be done while computing the
  /// output transition time"; on our validation workload that correction
  /// *degraded* transition accuracy (see bench_ablation_correction), so it
  /// is opt-in.
  bool applyTransitionCorrection = false;
  TransitionComposition transitionComposition =
      TransitionComposition::Multiplicative;
  /// When false, inputs are processed in raw arrival order (earliest tRef
  /// first) instead of the paper's dominance order -- the naive alternative
  /// quantified by bench_ablation_dominance.
  bool orderByDominance = true;
};

struct ProximityResult {
  double delay = 0.0;           ///< wrt the dominant input's reference crossing
  double transitionTime = 0.0;  ///< output transition time
  int dominantPin = -1;
  double outputRefTime = 0.0;   ///< absolute output crossing time
  /// Pins folded into the delay, in processing order (dominant first).
  std::vector<int> processedPins;
  /// Pins that only influenced the transition time.
  std::vector<int> transitionOnlyPins;
  double correctionApplied = 0.0;  ///< signed corrective delay term [s]
  /// Worst clamp distance of the dual-input lookups folded in (0 when every
  /// one was in-grid); STA degrades an arc past its trust distance.
  double maxClampDistance = 0.0;
};

/// Algorithm ProximityDelay for one same-direction event set, in resumable
/// form.  This is the one implementation of the algorithm: both
/// ProximityCalculator (one arc, lookups answered at once) and the STA's
/// batch evaluator (sta/batch_eval.hpp: many arcs in lockstep, lookups
/// answered together) drive it.  The caller owns the dual-input lookups:
///
///   ProximityComposition c;
///   c.start(events, gate, singles, options);  // steps 1-2
///   // c.result() is now the classic single-input result
///   ProximityComposition::Step step;
///   while (c.next(step)) {                    // steps 3-4
///     const DualResult t = dual.lookup(step.transition);
///     c.fold(t, step.inDelayWindow ? dual.lookup(step.delay) : DualResult{});
///   }
///   c.finish(correction);                     // step 5
///   // c.result() is now the proximity result
///
/// A composition keeps its vectors' capacity across start() calls, so a
/// reused one makes no heap allocation once it has seen its largest event
/// set.  The events must stay alive and unchanged until finish().
class ProximityComposition {
 public:
  /// One loop step: the dual-input queries for the next input y_i.
  struct Step {
    DualQuery transition;  ///< always looked up (kind = Transition)
    DualQuery delay;       ///< looked up only inside the delay window
    bool inDelayWindow = false;
  };

  /// Steps 1-2: orders the events (by dominance in the sense of
  /// dominanceSense(gate.spec.type, gate.complex, events), or by arrival when
  /// options.orderByDominance is false) and looks up the dominant input's
  /// Delta^(1)/tau^(1).  Throws std::invalid_argument for an empty or
  /// mixed-direction event set (use GlitchModel for opposite transitions),
  /// and whatever the single-input lookups throw.
  void start(std::span<const InputEvent> events, const Gate& gate,
             const SingleInputModelSet& singles,
             const ProximityOptions& options);

  /// Steps 3-4: moves past inputs outside both proximity windows (no
  /// lookups; tallied in windowExits()/windowSkipped()) to the next input
  /// that needs one, and writes its queries into @p step.  Returns false
  /// once every input is folded in or skipped.
  bool next(Step& step);

  /// Folds the current step's answers in: the transition ratio first, then
  /// -- inside the delay window -- the delay ratio (ignored outside it).
  /// The clamp distances of the answers folded in raise the result's
  /// maxClampDistance.
  void fold(const DualResult& transition, const DualResult& delay);

  /// Step 5: applies the corrective term; result() then holds the
  /// proximity result.
  void finish(const StepCorrection& correction);

  const ProximityResult& result() const { return res_; }
  /// Moves the result out; start() again before reusing the composition.
  ProximityResult release() { return std::move(res_); }

  /// Earliest-first window exits (0 or 1 per arc), and the inputs left out
  /// of both windows, including those a window exit cut off.
  std::size_t windowExits() const { return windowExits_; }
  std::size_t windowSkipped() const { return windowSkipped_; }

  /// True when the dominance order deviates from arrival order in the sense
  /// direction (ascending tRef for earliest-first, descending for
  /// latest-first) -- the paper's Step 1 doing real work rather than
  /// echoing the input sequence.  Always false under arrival ordering.
  bool reordered() const;

 private:
  std::span<const InputEvent> events_;
  ProximityOptions options_;
  DominanceSense sense_ = DominanceSense::EarliestFirst;
  std::vector<std::size_t> order_;
  std::vector<double> crossing_;  ///< dominanceOrder's scratch
  InputEvent y1_;
  double d1_ = 0.0, t1_ = 0.0;  ///< Delta_{y1}^(1), tau_{y1}^(1)
  double dCum_ = 0.0;           ///< Delta^(i-1), the running delay
  double tCum_ = 0.0;           ///< the running transition time
  /// Delta^(m-1): the running delay *before* the last processed input was
  /// folded in -- the corrective term's decay length.
  double dBeforeLast_ = 0.0;
  double sLast_ = 0.0;  ///< s_{y1,ym} of the last processed input
  std::size_t idx_ = 1;  ///< next position in order_
  // The current step, between next() and fold().
  double sCur_ = 0.0;
  int pinCur_ = 0;
  bool inDelayWindow_ = false;
  std::size_t windowExits_ = 0, windowSkipped_ = 0;
  ProximityResult res_;
};

// next() and fold() run once per folded input in the STA's inner loop, which
// lives in another translation unit; they are defined here so it inlines
// them.

inline bool ProximityComposition::next(Step& step) {
  while (idx_ < order_.size()) {
    const InputEvent& yi = events_[order_[idx_]];
    const double s = yi.tRef - y1_.tRef;  // s_{y1, yi}
    if (s < dCum_) {
      // Inside the delay proximity window: eq (4.4)/(4.5) apply.
      step.inDelayWindow = true;
    } else if (s < dCum_ + tCum_) {
      // Outside the delay window but inside the transition-time window
      // (Section 3: only for s > Delta^(1) + tau^(1) can the effect on the
      // output transition time be ignored).
      step.inDelayWindow = false;
    } else {
      // Step 3's loop condition: with earliest-first ordering the first
      // input outside the window stops the processing (later inputs are
      // assumed unimportant).  With latest-first ordering (series stacks)
      // the remaining inputs are *earlier*, not later, so they are skipped
      // individually rather than cutting the loop.
      if (sense_ == DominanceSense::EarliestFirst) {
        windowExits_ += 1;
        windowSkipped_ += order_.size() - idx_;
        idx_ = order_.size();
        return false;
      }
      windowSkipped_ += 1;
      ++idx_;
      continue;
    }
    sCur_ = s;
    pinCur_ = yi.pin;
    inDelayWindow_ = step.inDelayWindow;
    step.transition.refPin = y1_.pin;
    step.transition.otherPin = yi.pin;
    step.transition.edge = y1_.edge;
    step.transition.tauRef = y1_.tau;
    step.transition.tauOther = yi.tau;
    // Transition-time perturbation: the paper's "slight modification of the
    // algorithm".  The equivalent waveform is aligned on the output's
    // *completion* time (Delta + tau) instead of its crossing.
    step.transition.sep = s + (d1_ + t1_) - (dCum_ + tCum_);
    step.transition.kind = DualKind::Transition;
    if (step.inDelayWindow) {
      step.delay = step.transition;
      step.delay.sep = s + d1_ - dCum_;  // separation measured from y*
      step.delay.kind = DualKind::Delay;
    }
    return true;
  }
  return false;
}

inline void ProximityComposition::fold(const DualResult& transition,
                                       const DualResult& delay) {
  // Transition ratios compose multiplicatively by default: transition-time
  // perturbations are large (a second parallel path can halve the
  // transition), where the additive form double-counts.
  if (options_.transitionComposition == TransitionComposition::Additive) {
    tCum_ += t1_ * (transition.value - 1.0);
  } else {
    tCum_ *= transition.value;
  }
  res_.maxClampDistance =
      std::max(res_.maxClampDistance, transition.clampDistance);
  if (inDelayWindow_) {
    res_.maxClampDistance = std::max(res_.maxClampDistance, delay.clampDistance);
    dBeforeLast_ = dCum_;
    dCum_ += d1_ * (delay.value - 1.0);  // eq (4.5)
    sLast_ = sCur_;
    res_.processedPins.push_back(pinCur_);
  } else {
    res_.transitionOnlyPins.push_back(pinCur_);
  }
  ++idx_;
}

/// The nine model.proximity.* counters, tallied per composition and flushed
/// once: ProximityCalculator::compute() flushes one call, the STA batch a
/// chunk of arcs.
struct ProximityCounts {
  std::uint64_t computes = 0, inputsSeen = 0, reorders = 0;
  std::uint64_t windowExits = 0, windowSkipped = 0, corrections = 0;
  std::uint64_t processed = 0, transitionOnly = 0;

  /// After start(): whether the dominance order did real work (checked only
  /// while stats record; reordered() scans the order).
  void started(const ProximityComposition& c);
  /// After finish(): window exits and skips, folded and transition-only
  /// inputs, and the corrective term (its magnitude is recorded here, one
  /// sample per arc).
  void finished(const ProximityComposition& c);
  void flush() const;
};

class ProximityCalculator {
 public:
  /// All references must outlive the calculator.  @p gate selects the
  /// dominance sense per event set (dominanceSense()).
  ProximityCalculator(const Gate& gate, const SingleInputModelSet& singles,
                      const DualInputModel& dual,
                      StepCorrection correction = {},
                      ProximityOptions options = {});

  /// Computes delay/transition for a set of same-direction input events.
  /// Throws std::invalid_argument for empty input or mixed directions (use
  /// GlitchModel for opposite transitions).
  ProximityResult compute(const std::vector<InputEvent>& events) const;

  /// Classic single-input-switching calculation for the same events: the
  /// dominant input's Delta^(1)/tau^(1) with proximity ignored (always
  /// ranked by dominance).  Throws like compute().  Used by the ablation and
  /// STA-comparison benches; the STA reads the same result from its batch's
  /// composition start (sta/batch_eval.hpp).
  ProximityResult computeClassic(const std::vector<InputEvent>& events) const;

 private:
  const Gate& gate_;
  const SingleInputModelSet& singles_;
  const DualInputModel& dual_;
  StepCorrection correction_;
  ProximityOptions options_;
};

}  // namespace prox::model
