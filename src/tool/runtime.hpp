#pragma once
// Shared runtime for the command-line tools (examples/): one checked flag
// table and one run scope, so every tool parses, cancels, budgets, reports
// and exits the same way.
//
// Flags.  Each tool declares its flags in a table.  Valued flags accept both
// `--flag=V` and `--flag V`; every number goes through the overflow-checked
// whole-token converters in support/bounded.hpp with the flag's range, so
// "--threads=abc" or "--max-nodes=1abc" is a usage error naming the flag,
// never a silent 0 or 1.  The usage line is generated from the table.
//
// Run scope.  Tool::run() parses the table, then runs the tool body inside
// the standard scopes: a CancelToken armed by --timeout and tripped by
// SIGINT/SIGTERM, a ResourceBudget from --max-memory/--max-nodes, and a
// TraceSession for --trace.  On every exit path short of SIGKILL (success,
// DiagnosticError, any std::exception) it writes --stats and --trace
// atomically, then maps the outcome onto the one exit-code table:
//
//   0 ok   1 error   2 usage   6 cancelled / timeout   7 resource budget
//   8 structural reject
//
// Tool-specific codes (netlist_sim --strict 3-5, a quarantined fleet 1) are
// returned by the tool body itself.

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"

namespace prox::obs::trace {
class TraceSession;
}

namespace prox::tool {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitCancelled = 6;
inline constexpr int kExitBudget = 7;
inline constexpr int kExitStructural = 8;

/// The exit code for a run that ended with @p code.
int exitCodeFor(support::StatusCode code) noexcept;

/// A bad command line: unknown flag, missing or malformed value, value out
/// of range, or an inconsistent combination.  Tool::run() maps it to exit 2
/// and prints the usage line, wherever it is thrown.
class UsageError : public support::DiagnosticError {
 public:
  explicit UsageError(const std::string& message);
};

/// Throws UsageError(@p message).
[[noreturn]] void failUsage(const std::string& message);

namespace detail {
template <class T>
inline constexpr long long kMinOf =
    std::is_signed_v<T> ? static_cast<long long>(std::numeric_limits<T>::min())
                        : 0;
template <class T>
inline constexpr long long kMaxOf =
    std::cmp_greater(std::numeric_limits<T>::max(),
                     std::numeric_limits<long long>::max())
        ? std::numeric_limits<long long>::max()
        : static_cast<long long>(std::numeric_limits<T>::max());
}  // namespace detail

/// A declarative flag table.  Every add method stores a parser for one
/// exact flag name; the values land in caller-owned variables, which keep
/// their defaults when the flag is absent.  The last occurrence wins.
class Flags {
 public:
  /// Presence flag: `--name` sets *out; `--name=V` is a usage error.
  Flags& toggle(const char* name, bool* out);

  /// Non-empty string value.
  Flags& text(const char* name, const char* meta, std::string* out);

  /// Integer in [lo, hi] (parseIntChecked).
  template <class T>
  Flags& integer(const char* name, const char* meta, T* out,
                 long long lo = detail::kMinOf<T>,
                 long long hi = detail::kMaxOf<T>) {
    return integerSink(name, meta, lo, hi,
                       [out](long long v) { *out = static_cast<T>(v); });
  }

  /// Finite real number (parseFiniteDoubleChecked) with a lower bound:
  /// v > lo when @p strict, else v >= lo.
  Flags& real(const char* name, const char* meta, double* out,
              double lo = -std::numeric_limits<double>::infinity(),
              bool strict = false);

  /// One of a fixed set of words, mapped to a value.
  template <class E>
  Flags& choice(const char* name, E* out,
                std::vector<std::pair<const char*, E>> options) {
    std::vector<const char*> words;
    for (const auto& option : options) words.push_back(option.first);
    return choiceIndex(name, std::move(words), [out, options](std::size_t i) {
      *out = options[i].second;
    });
  }

  /// Valued flag with a caller-supplied parser.  The parser rejects a value
  /// by throwing; a DiagnosticError that is not already a UsageError is
  /// rethrown as one prefixed with the flag name.
  Flags& custom(const char* name, const char* meta,
                std::function<void(std::string_view)> parse);

  /// `--name` sets *present; `--name=V` additionally stores V (non-empty)
  /// in *value.  The --stats[=FILE] shape.
  Flags& optionalValue(const char* name, const char* meta, bool* present,
                       std::string* value);

  /// Parses @p args (argv without the program name).  Throws UsageError.
  void parse(const std::vector<std::string_view>& args) const;
  void parse(int argc, const char* const* argv) const;

  /// "usage: PROGRAM [--flag META] ..." wrapped at 78 columns.
  std::string usage(std::string_view program) const;

 protected:
  /// integer() with the checked value handed to @p sink, which may reject
  /// it with failUsage.
  Flags& integerSink(const char* name, const char* meta, long long lo,
                     long long hi, std::function<void(long long)> sink);
  /// choice() by position in @p words.
  Flags& choiceIndex(const char* name, std::vector<const char*> words,
                     std::function<void(std::size_t)> sink);

 private:
  enum class Kind { Toggle, Value, OptionalValue };
  struct Entry {
    std::string name;
    std::string meta;
    Kind kind;
    std::function<void(std::string_view)> apply;
  };

  Flags& add(const char* name, const char* meta, Kind kind,
             std::function<void(std::string_view)> apply);
  const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;
};

/// What the run scope installs around the tool body.
struct RunOptions {
  double timeoutSeconds = 0.0;    ///< > 0 arms the deadline watchdog
  bool handleSignals = true;      ///< SIGINT/SIGTERM trip the token
  support::ResourceBudget budget; ///< .cancel is set to the run's token
  bool stats = false;             ///< write the obs report at exit
  std::string statsPath;          ///< "" = stdout
  std::string tracePath;          ///< "" = no trace session
};

/// The run scope: owns the cancel token, signal/cancel/budget scopes and
/// the trace session for the lifetime of the object.  finish() writes the
/// stats report and trace.
class Run {
 public:
  explicit Run(RunOptions options);
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// The token every engine loop of this run polls.
  support::CancelToken* cancel() noexcept { return &token_; }
  /// The options this run was set up with (the parsed standard flags).
  const RunOptions& options() const noexcept { return options_; }

  /// Writes --stats and --trace atomically and returns the final exit
  /// code: @p code, or 1 when @p code is 0 and an artifact could not be
  /// written (a failed write never masks an earlier failure's code).
  int finish(int code);

 private:
  RunOptions options_;
  support::CancelToken token_;
  std::optional<support::SignalCancelScope> signalScope_;
  support::CancelScope cancelScope_;
  support::BudgetTracker tracker_;
  support::BudgetScope budgetScope_;
  std::unique_ptr<obs::trace::TraceSession> trace_;
};

/// Which standard flags (and so which scopes) a tool exposes.
enum Feature : unsigned {
  kCancel = 1u << 0,  ///< --timeout SECS; SIGINT/SIGTERM cancel the run
  kBudget = 1u << 1,  ///< --max-memory MB, --max-nodes N
  kStats = 1u << 2,   ///< --stats[=FILE]
  kTrace = 1u << 3,   ///< --trace FILE
  kAllFeatures = kCancel | kBudget | kStats | kTrace,
};

/// A command-line tool: its flag table (with the standard flags of the
/// selected features pre-registered) plus run().
class Tool : public Flags {
 public:
  explicit Tool(unsigned features, std::string summary = {});

  /// Parses argv (usage error: message + usage on stderr, exit 2), runs
  /// @p body inside a Run, maps any exception escaping it to the exit-code
  /// table, and writes the stats/trace epilogue.  Returns the exit code.
  int run(int argc, char** argv, const std::function<int(Run&)>& body);

 private:
  std::string summary_;
  RunOptions options_;
};

}  // namespace prox::tool
