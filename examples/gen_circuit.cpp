// Deterministic synthetic-circuit generator CLI: emits a layered random
// BLIF netlist of INV/NAND/NOR cells fully determined by its parameters.
// The same flags always produce byte-identical output, at any thread count,
// on any platform -- the spec is the circuit (see sta/synth.hpp).
//
// Typical use, piped straight into the STA front end:
//   gen_circuit --seed=7 --depth=30 --width=64 | sta_path --blif=-
//
// Flags and exit codes follow the shared tool runtime (src/tool/runtime.hpp).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "sta/synth.hpp"
#include "support/bounded.hpp"
#include "tool/runtime.hpp"

using namespace prox;

namespace {

/// "--mix" value: NAND:NOR:INV weights, each a 32-bit unsigned integer.
void parseMix(std::string_view text, sta::SynthSpec* spec) {
  std::uint32_t* weights[] = {&spec->nandWeight, &spec->norWeight,
                              &spec->invWeight};
  const std::string original(text);
  for (std::uint32_t* w : weights) {
    const std::size_t colon = text.find(':');
    const bool last = w == weights[2];
    if (last != (colon == std::string_view::npos)) {
      tool::failUsage("--mix expects NAND:NOR:INV, got '" + original + "'");
    }
    *w = static_cast<std::uint32_t>(support::parseIntChecked(
        text.substr(0, colon), "cli", "--mix weight", -1, 0, UINT32_MAX));
    text.remove_prefix(last ? text.size() : colon + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  sta::SynthSpec spec;
  std::string outPath;

  tool::Tool cli(0,
                 "Emits a deterministic synthetic BLIF circuit (depth x width "
                 "layered\nINV/NAND/NOR gates) to stdout or FILE.  Equal flags "
                 "always emit\nbyte-identical BLIF.\n");
  cli.integer("--seed", "N", &spec.seed)
      .integer("--depth", "N", &spec.depth)
      .integer("--width", "N", &spec.width)
      .integer("--inputs", "N", &spec.primaryInputs)
      .integer("--max-fanin", "N", &spec.maxFanin)
      .integer("--max-fanout", "N", &spec.maxFanout)
      .custom("--mix", "NAND:NOR:INV",
              [&](std::string_view v) { parseMix(v, &spec); })
      .text("--model", "NAME", &spec.modelName)
      .text("--out", "FILE", &outPath);

  return cli.run(argc, argv, [&](tool::Run&) {
    try {
      sta::validateSynthSpec(spec);
    } catch (const std::invalid_argument& e) {
      tool::failUsage(e.what());
    }

    if (outPath.empty()) {
      sta::generateBlif(spec, std::cout);
      std::cout.flush();
      return std::cout ? tool::kExitOk : tool::kExitError;
    }
    std::ofstream os(outPath);
    if (!os) {
      std::fprintf(stderr, "%s: cannot open %s\n", argv[0], outPath.c_str());
      return tool::kExitError;
    }
    sta::generateBlif(spec, os);
    os.flush();
    if (!os) {
      std::fprintf(stderr, "%s: write failed: %s\n", argv[0], outPath.c_str());
      return tool::kExitError;
    }
    return tool::kExitOk;
  });
}
