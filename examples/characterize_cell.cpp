// Library-characterization example: run the full offline flow for a cell
// and write the deployable ".prox" model package, then reload it and verify
// the round trip -- the workflow a cell-library team would script.
//
//   $ ./characterize_cell                       # writes nand3.prox
//   $ ./characterize_cell --threads 8           # parallel sweeps (same
//                                               # tables, bit for bit)
//   $ ./characterize_cell --checkpoint=run.ckpt # journal results as they land
//   $ ./characterize_cell --checkpoint=run.ckpt --resume
//                                               # replay journaled points,
//                                               # recompute only the rest
//   $ ./characterize_cell --timeout=30          # watchdog: exit 6 with a
//                                               # partial-but-valid checkpoint
//
// Ctrl-C (SIGINT) / SIGTERM flush the checkpoint journal and exit with the
// typed cancelled code; a later --resume continues where the run died.
// --crash-at=N kills the process (real SIGKILL, no flushing) when parallel
// task N starts -- the deterministic stand-in for an operator's `kill -9`
// used by the CI kill-resume job.  Flags, --stats/--trace and exit codes
// follow the shared tool runtime (src/tool/runtime.hpp).

#include <cstdio>
#include <memory>

#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "demo_cells.hpp"
#include "par/pool.hpp"
#include "support/fault_injection.hpp"
#include "tool/runtime.hpp"

using namespace prox;
using model::InputEvent;
using wave::Edge;

int main(int argc, char** argv) {
  int threads = 0;  // 0 = par::defaultThreadCount() (PROX_THREADS or cores)
  std::string outPath = "nand3.prox";
  std::string checkpointPath;
  bool resume = false;
  bool quick = false;
  double progressSecs = 0.0;
  long long crashAt = -1;
  support::Journal::Options journalOptions;

  tool::Tool cli(tool::kAllFeatures);
  cli.integer("--threads", "N", &threads, 0)
      .text("--out", "FILE", &outPath)
      .text("--checkpoint", "FILE", &checkpointPath)
      .toggle("--resume", &resume)
      .toggle("--quick", &quick)
      .integer("--fsync-every", "N", &journalOptions.fsyncEveryN, 1)
      .integer("--crash-at", "INDEX", &crashAt)
      .real("--progress", "SECS", &progressSecs, 0.0, /*strict=*/true);

  return cli.run(argc, argv, [&](tool::Run& run) {
    if (resume && checkpointPath.empty()) {
      tool::failUsage("--resume requires --checkpoint FILE");
    }
    const cells::CellSpec spec = examples::demoNand3();
    characterize::CharacterizationConfig cfg = examples::demoGrids(quick);
    cfg.threads = threads;
    cfg.progressIntervalSeconds = progressSecs;
    cfg.cancel = run.cancel();

    std::unique_ptr<characterize::CheckpointSession> checkpoint;
    if (!checkpointPath.empty()) {
      checkpoint = std::make_unique<characterize::CheckpointSession>(
          checkpointPath, characterize::configFingerprint(spec, cfg), resume,
          journalOptions);
      cfg.checkpoint = checkpoint.get();
      if (resume) {
        std::printf("resuming from %s: %zu journaled result%s\n",
                    checkpointPath.c_str(), checkpoint->loadedRecords(),
                    checkpoint->loadedRecords() == 1 ? "" : "s");
      }
    }

    if (crashAt >= 0) {
      support::FaultPlan::arm({.site = "par.task",
                               .kind = support::FaultKind::ProcessCrash,
                               .taskIndex = crashAt});
    }

    const int resolved = threads == 0 ? par::defaultThreadCount() : threads;
    std::printf("characterizing %s on %d thread%s (this runs a few thousand "
                "transistor-level transients)...\n",
                cells::gateTypeName(spec.type, spec.fanin).c_str(), resolved,
                resolved == 1 ? "" : "s");

    characterize::CharacterizedGate gate;
    try {
      gate = characterize::characterizeGate(spec, cfg);
    } catch (const support::DiagnosticError& e) {
      // Pin whatever the journal holds before unwinding: the checkpoint
      // must be partial-but-valid no matter why the flow stopped.
      if (checkpoint) {
        checkpoint->flush();
        if (tool::exitCodeFor(e.code()) == tool::kExitCancelled) {
          std::fprintf(stderr,
                       "checkpoint %s is valid; rerun with --resume to "
                       "continue\n",
                       checkpointPath.c_str());
        }
      }
      throw;
    }

    if (checkpoint != nullptr) {
      checkpoint->flush();
      std::printf("  checkpoint: %zu replayed, journal %s\n",
                  checkpoint->replayCount(), checkpointPath.c_str());
    }

    std::printf("  thresholds: V_il = %.3f V, V_ih = %.3f V\n",
                gate.gate.thresholds.vil, gate.gate.thresholds.vih);
    for (int pin = 0; pin < gate.pinCount(); ++pin) {
      const auto& m = gate.singles->at(pin, Edge::Rising);
      std::printf("  pin %d rising:  Delta(100ps) = %.1f ps, Delta(2000ps) = "
                  "%.1f ps\n",
                  pin, m.delay(100e-12) * 1e12, m.delay(2000e-12) * 1e12);
    }
    std::printf("  dual-input tables: %zu bytes total\n",
                gate.dual->totalBytes());
    std::printf("  simultaneous-step corrections (rising): ");
    for (double c : gate.correction.delayErrorRising) {
      std::printf("%+.1f ps ", c * 1e12);
    }
    std::printf("\n");

    characterize::saveGateModel(gate, outPath);
    std::printf("\nwrote %s\n", outPath.c_str());

    // Reload and verify a query agrees bit-for-bit.
    const auto loaded = characterize::loadGateModelFile(outPath);
    std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                                {1, Edge::Rising, 40e-12, 500e-12},
                                {2, Edge::Rising, -60e-12, 150e-12}};
    const auto r1 = gate.calculator().compute(evs);
    const auto r2 = loaded.calculator().compute(evs);
    std::printf("round-trip check: delay %.3f ps (in-memory) vs %.3f ps "
                "(reloaded) -> %s\n",
                r1.delay * 1e12, r2.delay * 1e12,
                r1.delay == r2.delay ? "identical" : "MISMATCH");
    return r1.delay == r2.delay ? tool::kExitOk : tool::kExitError;
  });
}
