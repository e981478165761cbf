#include "tool/runtime.hpp"

#include <cstdio>
#include <iostream>

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/bounded.hpp"
#include "support/durable_io.hpp"

namespace prox::tool {

namespace {

constexpr const char* kSite = "cli";

support::Diagnostic usageDiagnostic(const std::string& message) {
  return support::makeDiagnostic(support::StatusCode::ParseError, message)
      .withSite(kSite);
}

std::string formatBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

support::ResourceBudget withCancel(support::ResourceBudget budget,
                                   support::CancelToken* token) {
  budget.cancel = token;
  return budget;
}

}  // namespace

int exitCodeFor(support::StatusCode code) noexcept {
  switch (code) {
    case support::StatusCode::Ok:
      return kExitOk;
    case support::StatusCode::Cancelled:
    case support::StatusCode::DeadlineExceeded:
      return kExitCancelled;
    case support::StatusCode::ResourceExhausted:
      return kExitBudget;
    case support::StatusCode::StructuralError:
      return kExitStructural;
    default:
      return kExitError;
  }
}

UsageError::UsageError(const std::string& message)
    : support::DiagnosticError(usageDiagnostic(message)) {}

void failUsage(const std::string& message) { throw UsageError(message); }

// --- flag table --------------------------------------------------------------

Flags& Flags::add(const char* name, const char* meta, Kind kind,
                  std::function<void(std::string_view)> apply) {
  entries_.push_back({name, meta, kind, std::move(apply)});
  return *this;
}

const Flags::Entry* Flags::find(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Flags& Flags::toggle(const char* name, bool* out) {
  return add(name, "", Kind::Toggle, [out](std::string_view) { *out = true; });
}

Flags& Flags::text(const char* name, const char* meta, std::string* out) {
  return add(name, meta, Kind::Value,
             [out](std::string_view v) { *out = std::string(v); });
}

Flags& Flags::custom(const char* name, const char* meta,
                     std::function<void(std::string_view)> parse) {
  return add(name, meta, Kind::Value, std::move(parse));
}

Flags& Flags::optionalValue(const char* name, const char* meta, bool* present,
                            std::string* value) {
  return add(name, meta, Kind::OptionalValue,
             [present, value](std::string_view v) {
               *present = true;
               if (!v.empty()) *value = std::string(v);
             });
}

Flags& Flags::integerSink(const char* name, const char* meta, long long lo,
                          long long hi, std::function<void(long long)> sink) {
  std::string expects = "an integer";
  if (hi == std::numeric_limits<long long>::max()) {
    if (lo != std::numeric_limits<long long>::min()) {
      expects += " >= " + std::to_string(lo);
    }
  } else {
    expects += " in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  }
  return custom(name, meta,
                [flag = std::string(name), expects, lo, hi,
                 sink = std::move(sink)](std::string_view v) {
                  long long x = 0;
                  try {
                    x = support::parseIntChecked(v, kSite, flag.c_str(), -1,
                                                 lo, hi);
                  } catch (const support::DiagnosticError&) {
                    failUsage(flag + " expects " + expects + ", got '" +
                              std::string(v) + "'");
                  }
                  sink(x);
                });
}

Flags& Flags::choiceIndex(const char* name, std::vector<const char*> words,
                          std::function<void(std::size_t)> sink) {
  std::string meta;
  for (const char* word : words) {
    if (!meta.empty()) meta += '|';
    meta += word;
  }
  return custom(name, meta.c_str(),
                [flag = std::string(name), meta, words = std::move(words),
                 sink = std::move(sink)](std::string_view v) {
                  for (std::size_t i = 0; i < words.size(); ++i) {
                    if (v == words[i]) return sink(i);
                  }
                  failUsage(flag + " expects " + meta + ", got '" +
                            std::string(v) + "'");
                });
}

Flags& Flags::real(const char* name, const char* meta, double* out, double lo,
                   bool strict) {
  std::string expects = "a finite number";
  if (lo != -std::numeric_limits<double>::infinity()) {
    expects += (strict ? " > " : " >= ") + formatBound(lo);
  }
  return custom(name, meta,
                [flag = std::string(name), expects, out, lo,
                 strict](std::string_view v) {
                  // A malformed value stays NaN and fails the bound check.
                  double x = std::numeric_limits<double>::quiet_NaN();
                  try {
                    x = support::parseFiniteDoubleChecked(v, kSite,
                                                          flag.c_str());
                  } catch (const support::DiagnosticError&) {
                  }
                  if (strict ? !(x > lo) : !(x >= lo)) {
                    failUsage(flag + " expects " + expects + ", got '" +
                              std::string(v) + "'");
                  }
                  *out = x;
                });
}

void Flags::parse(const std::vector<std::string_view>& args) const {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const Entry* e = arg.starts_with("--") ? find(name) : nullptr;
    if (e == nullptr) failUsage("unknown argument '" + std::string(arg) + "'");
    const std::string flag(name);
    const bool inlineValue = eq != std::string_view::npos;
    std::string_view value = inlineValue ? arg.substr(eq + 1) : "";

    if (e->kind == Kind::Toggle) {
      if (inlineValue) failUsage(flag + " takes no value");
    } else if (e->kind == Kind::Value && !inlineValue) {
      if (i + 1 >= args.size()) {
        failUsage("missing " + e->meta + " after " + flag);
      }
      value = args[++i];
    }
    if (e->kind != Kind::Toggle && (inlineValue || e->kind == Kind::Value) &&
        value.empty()) {
      failUsage(flag + " requires a non-empty " + e->meta);
    }
    try {
      e->apply(value);
    } catch (const UsageError&) {
      throw;
    } catch (const support::DiagnosticError& d) {
      failUsage(flag + ": " + d.diagnostic().message);
    }
  }
}

void Flags::parse(int argc, const char* const* argv) const {
  std::vector<std::string_view> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

std::string Flags::usage(std::string_view program) const {
  std::string out = "usage: " + std::string(program);
  std::size_t lineStart = 0;
  for (const Entry& e : entries_) {
    std::string item = "[" + e.name;
    if (e.kind == Kind::Value) item += " " + e.meta;
    if (e.kind == Kind::OptionalValue) item += "[=" + e.meta + "]";
    item += "]";
    if (out.size() - lineStart + 1 + item.size() > 78) {
      out += "\n";
      lineStart = out.size();
      out += "       ";
    }
    out += " " + item;
  }
  return out + "\n";
}

// --- run scope ---------------------------------------------------------------

Run::Run(RunOptions options)
    : options_(std::move(options)),
      cancelScope_(&token_),
      tracker_(withCancel(options_.budget, &token_)),
      budgetScope_(&tracker_) {
  if (options_.timeoutSeconds > 0.0) {
    token_.setTimeout(options_.timeoutSeconds);
  }
  if (options_.handleSignals) signalScope_.emplace(&token_);
  if (!options_.tracePath.empty()) {
    trace_ = std::make_unique<obs::trace::TraceSession>();
  }
}

Run::~Run() = default;

int Run::finish(int code) {
  // A failed artifact write turns success into 1 but never replaces the
  // code of a run that already failed.
  auto writeFailed = [&code](const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    if (code == kExitOk) code = kExitError;
  };
  if (options_.stats) {
    try {
      if (options_.statsPath.empty()) {
        std::printf("\n");
        obs::writeJson(std::cout);
        std::cout.flush();
      } else {
        // Atomic commit: a reader sees the previous report or the complete
        // new one, never a torn file.
        support::writeFileAtomic(options_.statsPath,
                                 [](std::ostream& os) { obs::writeJson(os); });
        std::printf("stats report written to %s\n",
                    options_.statsPath.c_str());
      }
    } catch (const std::exception& e) {
      writeFailed(e);
    }
  }
  if (trace_ != nullptr) {
    try {
      support::writeFileAtomic(options_.tracePath, [this](std::ostream& os) {
        trace_->exportJson(os);
      });
      std::printf("trace written to %s (open in ui.perfetto.dev or "
                  "chrome://tracing)\n",
                  options_.tracePath.c_str());
    } catch (const std::exception& e) {
      writeFailed(e);
    }
  }
  return code;
}

// --- tool --------------------------------------------------------------------

Tool::Tool(unsigned features, std::string summary)
    : summary_(std::move(summary)) {
  options_.handleSignals = (features & kCancel) != 0;
  if (features & kCancel) {
    real("--timeout", "SECS", &options_.timeoutSeconds, 0.0, /*strict=*/true);
  }
  if (features & kBudget) {
    integerSink("--max-memory", "MB", 1, std::numeric_limits<long long>::max(),
                [this](long long mb) {
                  std::size_t bytes = 0;
                  if (__builtin_mul_overflow(static_cast<std::size_t>(mb),
                                             std::size_t{1} << 20, &bytes)) {
                    failUsage("--max-memory " + std::to_string(mb) +
                              " MB overflows the byte count");
                  }
                  options_.budget.maxRssBytes = bytes;
                });
    integer("--max-nodes", "N", &options_.budget.maxNodes, 1);
  }
  if (features & kStats) {
    optionalValue("--stats", "FILE", &options_.stats, &options_.statsPath);
  }
  if (features & kTrace) text("--trace", "FILE", &options_.tracePath);
}

int Tool::run(int argc, char** argv, const std::function<int(Run&)>& body) {
  const std::string program = argc > 0 ? argv[0] : "tool";
  auto usageFailure = [&](const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n%s%s", program.c_str(),
                 e.diagnostic().message.c_str(), usage(program).c_str(),
                 summary_.c_str());
    return kExitUsage;
  };
  try {
    parse(argc, argv);
  } catch (const UsageError& e) {
    return usageFailure(e);
  }

  Run run(options_);
  int code = kExitOk;
  try {
    code = body(run);
  } catch (const UsageError& e) {
    code = usageFailure(e);
  } catch (const support::DiagnosticError& e) {
    std::fprintf(stderr, "%s\n", e.diagnostic().toString().c_str());
    code = exitCodeFor(e.code());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    code = kExitError;
  }
  return run.finish(code);
}

}  // namespace prox::tool
