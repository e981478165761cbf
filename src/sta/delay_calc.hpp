#pragma once
// Per-gate delay calculation types for the STA: input/output arrival events,
// the delay mode (the classic single-switching-input model or the paper's
// proximity model) and the options.  sta/batch_eval.hpp evaluates the arcs.

#include <limits>
#include <optional>

#include "characterize/characterize.hpp"
#include "sta/netlist.hpp"

namespace prox::sta {

/// A transition event on a net.
struct Arrival {
  double time = 0.0;   ///< reference-threshold crossing [s]
  double slope = 0.0;  ///< full transition time [s]
  wave::Edge edge = wave::Edge::Rising;
};

enum class DelayMode {
  Classic,    ///< dominant input's Delta^(1); proximity ignored
  Proximity,  ///< Algorithm ProximityDelay (Figure 4-1)
};

/// How much of the model the arc actually used.  Anything below Full means
/// the preferred calculation failed (missing/unusable tables, solver error)
/// and a cruder-but-safe estimate was substituted: the degradation ladder
/// Proximity -> Classic -> slew estimate, each degraded arc counted under
/// sta.delay_calc.degraded_arcs.
enum class ArcQuality {
  Full = 0,      ///< requested mode computed cleanly
  SingleInput,   ///< proximity failed; classic single-input delay used
  SlewEstimate,  ///< even classic failed; latest input's slew as the delay
};

struct DelayCalcOptions {
  /// Largest tolerated out-of-grid clamp (relative to the grid span) before
  /// a proximity lookup is considered too extrapolated to trust and the arc
  /// degrades to the classic model.  Infinity accepts any clamp.
  double maxClampDistance = std::numeric_limits<double>::infinity();
  /// Worker threads for levelized arc evaluation in TimingAnalyzer::run():
  /// 1 (default) = serial on the calling thread, 0 = par::defaultThreadCount(),
  /// N > 1 evaluates each level's arcs as pool tasks.  Arrival times are
  /// bit-identical at any thread count (results commit in instance order).
  int threads = 1;
  /// Cooperative cancellation: when set, levelized evaluation stops issuing
  /// arcs once the token trips and run() unwinds with the token's typed
  /// DiagnosticError (see support/cancel.hpp).  Not owned.
  support::CancelToken* cancel = nullptr;
  /// Structural degradation ladder for defective netlists (cycles,
  /// multiply-driven nets, dangling inputs).  Reject (default): run()
  /// throws DiagnosticError(StructuralError) naming the defect.  Degrade:
  /// levelization breaks each loop deterministically, dangling inputs
  /// become no-event nets, and every issue is reported through
  /// TimingAnalyzer::structuralIssues() with the affected instances counted
  /// as degraded arcs.
  StructuralPolicy structural = StructuralPolicy::Reject;
};

}  // namespace prox::sta
