#pragma once
// The flag table fuzz_cli drives and corpus_test replays: the standard run
// flags plus one flag of every other kind the tools declare, so one input
// stream reaches every conversion and spelling path of tool::Flags.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/bounded.hpp"
#include "tool/runtime.hpp"

namespace prox::fuzz {

/// Splits @p bytes at NUL bytes into an argument vector (a trailing NUL
/// ends the last argument) and parses it.  Success or a thrown
/// support::DiagnosticError (tool::UsageError) are the only outcomes the
/// contract allows.
inline void parseCliBytes(std::string_view bytes) {
  struct Values {
    bool quick = false;
    std::string out;
    int threads = 0;
    std::uint32_t depth = 0;
    std::uint64_t seed = 0;
    long long crashAt = -1;
    double backoff = 0.0;
    double deadline = 0.0;
    int policy = 0;
    std::vector<long long> list;
  } v;
  tool::Tool table(tool::kAllFeatures);
  table.toggle("--quick", &v.quick)
      .text("--out", "FILE", &v.out)
      .integer("--threads", "N", &v.threads, 0)
      .integer("--depth", "N", &v.depth)
      .integer("--seed", "N", &v.seed)
      .integer("--crash-at", "INDEX", &v.crashAt)
      .real("--retry-backoff", "SECS", &v.backoff, 0.0)
      .real("--deadline", "SECS", &v.deadline)
      .choice("--policy", &v.policy, {{"reject", 0}, {"degrade", 1}})
      .custom("--list", "N[:N...]", [&v](std::string_view text) {
        while (true) {
          const std::size_t colon = text.find(':');
          v.list.push_back(support::parseIntChecked(text.substr(0, colon),
                                                    "fuzz", "--list item"));
          if (colon == std::string_view::npos) return;
          text.remove_prefix(colon + 1);
        }
      });

  std::vector<std::string_view> args;
  while (!bytes.empty()) {
    const std::size_t nul = bytes.find('\0');
    args.push_back(bytes.substr(0, nul));
    bytes.remove_prefix(nul == std::string_view::npos ? bytes.size()
                                                      : nul + 1);
  }
  table.parse(args);
}

}  // namespace prox::fuzz
