// Fuzz target: the command-line flag table (src/tool/runtime.hpp).
// Contract: any NUL-separated argument vector either parses or throws
// support::DiagnosticError (a usage error naming the offending flag).

#include <cstdint>
#include <string_view>

#include "cli_table.hpp"
#include "support/diagnostic.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    prox::fuzz::parseCliBytes(
        std::string_view(reinterpret_cast<const char*>(data), size));
  } catch (const prox::support::DiagnosticError&) {
    // Typed rejection: within contract.
  }
  return 0;
}
