// Corner-sweep fleet driver: characterize the demo cell at every corner of
// a PVT corner set, one supervised worker process per corner, and assemble
// the results into a multi-corner model bundle.
//
//   $ ./characterize_corners --quick --out corners.proxbundle
//   $ ./characterize_corners --quick --corners my.corners --shards 4
//   $ ./characterize_corners --quick --resume        # replay every shard's
//                                                    # journal byte-identically
//
// Supervision (see DESIGN.md section 12): each worker journals through the
// checkpoint layer; a worker that crashes, hangs (heartbeat silence), blows
// its deadline, exits nonzero, or writes an invalid artifact is retried
// with exponential backoff and --resume, and lands in quarantine after
// --max-retries failures.  Quarantined corners are recorded -- with exit
// code and last diagnostic -- in the fleet report JSON and as explicit
// holes in the bundle manifest, which sta_path / netlist_sim then serve
// under an explicit degrade-or-reject policy.
//
// --inject drives the failure ladder deterministically for tests/CI:
//   --inject=crash@1      shard 1's first attempt dies by SIGKILL mid-sweep
//   --inject=crash@1*2    ...its first two attempts
//   --inject=hang@0       shard 0's first attempt stops producing output
//   --inject=corrupt@2    shard 2's first attempt corrupts its artifact
//
// Exit code 1 means some corners were quarantined (the bundle and report
// are still written); the other codes, the flag spellings and --stats follow
// the shared tool runtime (src/tool/runtime.hpp).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cells/corner.hpp"
#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "demo_cells.hpp"
#include "fleet/bundle.hpp"
#include "fleet/orchestrator.hpp"
#include "support/bounded.hpp"
#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"
#include "support/journal.hpp"
#include "tool/runtime.hpp"

using namespace prox;

namespace {

/// Worker-facing corner encoding: NAME then the exact double bit patterns
/// as ":%016llx" fields, so the worker fingerprints precisely the technology
/// the supervisor intended.
std::string encodeCorner(const cells::Corner& c) {
  std::string out = c.name;
  for (double v : {c.vddScale, c.vtShift, c.kpScale, c.gammaScale}) {
    char buf[18];
    std::snprintf(buf, sizeof(buf), ":%016llx",
                  static_cast<unsigned long long>(support::doubleToBits(v)));
    out += buf;
  }
  return out;
}

bool decodeCorner(std::string_view s, cells::Corner* out) {
  constexpr std::size_t kField = 17;  // ':' + 16 hex digits
  const std::size_t nameLen = s.size() - std::min(s.size(), 4 * kField);
  if (nameLen == 0 || s.find(':') != nameLen) return false;
  out->name = s.substr(0, nameLen);
  s.remove_prefix(nameLen);
  for (double* field : {&out->vddScale, &out->vtShift, &out->kpScale,
                        &out->gammaScale}) {
    std::uint64_t bits = 0;
    const auto [end, ec] =
        std::from_chars(s.data() + 1, s.data() + kField, bits, 16);
    if (s[0] != ':' || ec != std::errc() || end != s.data() + kField) {
      return false;
    }
    *field = support::bitsFromDouble(bits);
    s.remove_prefix(kField);
  }
  return true;
}

std::string artifactPath(const std::string& workdir,
                         const std::string& corner) {
  return workdir + "/corner-" + corner + ".prox";
}

std::string journalPath(const std::string& workdir,
                        const std::string& corner) {
  return workdir + "/shard-" + corner + ".ckpt";
}

bool fileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Loads + CRC-checks the artifact; used both for --resume skip detection
/// and post-exit validation of every finished shard.
bool artifactValid(const std::string& path, std::string* reason) {
  try {
    (void)characterize::loadGateModelFile(path);
    return true;
  } catch (const std::exception& e) {
    if (reason != nullptr) *reason = e.what();
    return false;
  }
}

/// Every flag of both modes; the supervisor forwards the worker subset.
struct Options {
  std::string cornersPath;
  std::string outPath = "corners.proxbundle";
  std::string workdir;
  std::string reportPath;
  int shards = 2;
  int maxRetries = 2;
  int threads = 1;
  int fsyncEveryN = 0;  // 0 = the journal's default cadence
  double retryBackoff = 0.25;
  double deadlineSecs = 0.0;
  double heartbeatSecs = 0.0;
  double progressSecs = 0.0;
  long long crashAt = -1;
  bool resume = false;
  bool quick = false;
  bool quiet = false;
  bool faultHang = false;
  bool faultCorrupt = false;
  bool workerMode = false;
  cells::Corner workerCorner;
};

// --- worker mode ------------------------------------------------------------

/// One shard: characterize one corner with a journal, write the artifact
/// atomically.  Runs in its own process under the orchestrator (but is a
/// plain exit-coded program, so it can also be run by hand for debugging).
int runWorker(const Options& o, support::CancelToken* cancel) {
  const cells::Corner& corner = o.workerCorner;
  const cells::CellSpec spec = examples::demoNand3(
      cells::applyCorner(cells::Technology::generic5v(), corner));
  characterize::CharacterizationConfig cfg = examples::demoGrids(o.quick);
  cfg.threads = o.threads;
  cfg.progressIntervalSeconds = o.progressSecs;
  cfg.cancel = cancel;

  support::Journal::Options journalOptions;
  if (o.fsyncEveryN >= 1) journalOptions.fsyncEveryN = o.fsyncEveryN;
  const std::string fingerprint = characterize::configFingerprint(spec, cfg);
  characterize::CheckpointSession checkpoint(
      journalPath(o.workdir, corner.name), fingerprint, o.resume,
      journalOptions);
  cfg.checkpoint = &checkpoint;
  if (o.resume && checkpoint.loadedRecords() > 0) {
    std::printf("[worker %s] resuming: %zu journaled results\n",
                corner.name.c_str(), checkpoint.loadedRecords());
  }

  if (o.crashAt >= 0) {
    support::FaultPlan::arm({.site = "par.task",
                             .kind = support::FaultKind::ProcessCrash,
                             .taskIndex = o.crashAt});
  } else if (o.faultHang) {
    support::FaultPlan::arm({.site = "fleet.worker.hang",
                             .kind = support::FaultKind::WorkerHang});
  } else if (o.faultCorrupt) {
    support::FaultPlan::arm({.site = "fleet.worker.artifact",
                             .kind = support::FaultKind::CorruptArtifact});
  }

  if (PROX_FAULT_POINT("fleet.worker.hang", WorkerHang)) {
    // Injected hang: alive but silent and unresponsive to cooperative
    // cancellation, so the supervisor's heartbeat -> SIGTERM -> SIGKILL
    // ladder is what ends this process.
    while (true) ::usleep(100 * 1000);
  }

  std::printf("[worker %s] characterizing (vdd x%g, vt %+g V, kp x%g, "
              "gamma x%g)\n",
              corner.name.c_str(), corner.vddScale, corner.vtShift,
              corner.kpScale, corner.gammaScale);

  characterize::CharacterizedGate gate;
  try {
    gate = characterize::characterizeGate(spec, cfg);
  } catch (const support::DiagnosticError&) {
    checkpoint.flush();
    throw;
  }
  checkpoint.flush();

  const std::string outPath = artifactPath(o.workdir, corner.name);
  characterize::saveGateModel(gate, outPath);

  if (PROX_FAULT_POINT("fleet.worker.artifact", CorruptArtifact)) {
    // Injected artifact damage *after* the atomic commit: the classic
    // "exit 0 but the output is garbage" failure the validate step exists
    // to catch.
    std::FILE* f = std::fopen(outPath.c_str(), "r+b");
    if (f != nullptr) {
      std::fseek(f, -16, SEEK_END);
      std::fputc('X', f);
      std::fclose(f);
    }
    std::printf("[worker %s] fault injection: corrupted %s\n",
                corner.name.c_str(), outPath.c_str());
  }

  std::printf("[worker %s] wrote %s (%zu replayed)\n", corner.name.c_str(),
              outPath.c_str(), checkpoint.replayCount());
  return tool::kExitOk;
}

// --- supervisor mode --------------------------------------------------------

struct InjectSpec {
  std::string kind;  // crash | hang | corrupt
  std::size_t shard = 0;
  int count = 1;
};

/// "--inject" value: comma-separated (crash|hang|corrupt)@SHARD[*COUNT].
std::vector<InjectSpec> parseInject(std::string_view text) {
  std::vector<InjectSpec> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view spec = text.substr(start, comma - start);
    start = comma + 1;
    const std::size_t at = spec.find('@');
    InjectSpec is;
    is.kind = spec.substr(0, at);
    if (at == std::string_view::npos ||
        (is.kind != "crash" && is.kind != "hang" && is.kind != "corrupt")) {
      tool::failUsage("--inject expects (crash|hang|corrupt)@SHARD[*COUNT], "
                      "got '" + std::string(spec) + "'");
    }
    std::string_view rest = spec.substr(at + 1);
    const std::size_t star = rest.find('*');
    if (star != std::string_view::npos) {
      is.count = static_cast<int>(support::parseIntChecked(
          rest.substr(star + 1), "cli", "--inject COUNT", -1, 1, INT_MAX));
      rest = rest.substr(0, star);
    }
    is.shard = support::parseCountChecked(rest, SIZE_MAX, "cli",
                                          "--inject SHARD");
    out.push_back(std::move(is));
  }
  return out;
}

/// Runs the fleet over every corner and assembles the bundle.
int runSupervisor(const Options& o, const std::string& self,
                  const std::vector<InjectSpec>& injects,
                  support::CancelToken* cancel) {
  const std::vector<cells::Corner> corners =
      o.cornersPath.empty() ? cells::defaultCorners()
                            : cells::loadCornersFile(o.cornersPath);

  if (::mkdir(o.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "%s: cannot create workdir %s\n", self.c_str(),
                 o.workdir.c_str());
    return tool::kExitError;
  }

  // Fleet-level resume: a corner whose artifact already loads cleanly is
  // done (skipped entirely); one with a journal resumes from it.
  std::vector<bool> alreadyDone(corners.size(), false);
  std::vector<fleet::ShardSpec> specs;
  for (std::size_t i = 0; i < corners.size(); ++i) {
    const cells::Corner& corner = corners[i];
    const std::string artifact = artifactPath(o.workdir, corner.name);
    if (o.resume && fileExists(artifact) && artifactValid(artifact, nullptr)) {
      alreadyDone[i] = true;
      continue;
    }
    fleet::ShardSpec spec;
    spec.name = corner.name;
    const bool hasJournal =
        o.resume && fileExists(journalPath(o.workdir, corner.name));
    spec.resumesFromJournal = hasJournal;
    const std::size_t shardIndex = specs.size();
    spec.command = [=, &o, &injects](int attempt) {
      std::vector<std::string> cmd{
          self, "--worker-corner=" + encodeCorner(corner),
          "--workdir=" + o.workdir, "--threads=" + std::to_string(o.threads)};
      if (o.quick) cmd.push_back("--quick");
      if (o.fsyncEveryN >= 1) {
        cmd.push_back("--fsync-every=" + std::to_string(o.fsyncEveryN));
      }
      if (o.progressSecs > 0.0) {
        cmd.push_back("--progress=" + std::to_string(o.progressSecs));
      }
      // Any attempt after the first -- and the first attempt over a prior
      // run's journal -- replays instead of restarting.
      if (attempt > 0 || hasJournal) cmd.push_back("--resume");
      for (const InjectSpec& is : injects) {
        if (is.shard != shardIndex || attempt >= is.count) continue;
        if (is.kind == "crash") cmd.push_back("--crash-at=2");
        else if (is.kind == "hang") cmd.push_back("--fault-hang");
        else cmd.push_back("--fault-corrupt");
      }
      return cmd;
    };
    spec.validateArtifact = [artifact](std::string* reason) {
      return artifactValid(artifact, reason);
    };
    specs.push_back(std::move(spec));
  }

  fleet::FleetOptions options;
  options.maxParallel = o.shards;
  options.maxRetries = o.maxRetries;
  options.backoffBaseSeconds = o.retryBackoff;
  options.shardDeadlineSeconds = o.deadlineSecs;
  options.heartbeatTimeoutSeconds = o.heartbeatSecs;
  options.cancel = cancel;
  options.echoWorkerOutput = !o.quiet;

  if (!o.quiet) {
    std::printf("fleet: %zu corner%s (%zu already done), up to %d worker%s"
                ", max %d retr%s\n",
                corners.size(), corners.size() == 1 ? "" : "s",
                static_cast<std::size_t>(
                    std::count(alreadyDone.begin(), alreadyDone.end(), true)),
                o.shards, o.shards == 1 ? "" : "s", o.maxRetries,
                o.maxRetries == 1 ? "y" : "ies");
  }

  fleet::FleetReport report = fleet::runFleet(specs, options);

  // Merge the skipped (already-done) corners into the report so --resume
  // runs document the whole fleet, not just the relaunched slice.
  std::vector<fleet::ShardResult> merged;
  std::size_t ri = 0;
  for (std::size_t i = 0; i < corners.size(); ++i) {
    if (alreadyDone[i]) {
      fleet::ShardResult s;
      s.name = corners[i].name;
      s.state = fleet::ShardState::Done;
      s.attempts = 0;
      s.lastExitCode = 0;
      s.resumedFromJournal = true;
      merged.push_back(std::move(s));
    } else {
      merged.push_back(std::move(report.shards[ri++]));
    }
  }
  report.shards = std::move(merged);

  support::writeFileAtomic(o.reportPath,
                           [&](std::ostream& os) { report.writeJson(os); });

  // Bundle assembly: every corner appears in the manifest; only the
  // characterized ones carry sections.
  std::vector<fleet::BundleWriteEntry> entries;
  for (std::size_t i = 0; i < corners.size(); ++i) {
    fleet::BundleWriteEntry e;
    e.corner = corners[i];
    const fleet::ShardResult& s = report.shards[i];
    if (s.state == fleet::ShardState::Done) {
      e.status = fleet::BundleCornerStatus::Ok;
      e.proxPath = artifactPath(o.workdir, corners[i].name);
    } else if (s.state == fleet::ShardState::Quarantined) {
      e.status = fleet::BundleCornerStatus::Quarantined;
      e.reason = "attempts=" + std::to_string(s.attempts) +
                 (s.lastSignal != 0
                      ? ",signal=" + std::to_string(s.lastSignal)
                      : ",exit=" + std::to_string(s.lastExitCode));
    } else {
      e.status = fleet::BundleCornerStatus::Missing;
      e.reason = fleet::shardStateName(s.state);
    }
    entries.push_back(std::move(e));
  }
  fleet::writeBundle(o.outPath, entries);

  const std::size_t quarantined =
      report.countIn(fleet::ShardState::Quarantined);
  if (!o.quiet) {
    for (const fleet::ShardResult& s : report.shards) {
      std::printf("  %-12s %-11s attempts=%d%s%s\n", s.name.c_str(),
                  fleet::shardStateName(s.state), s.attempts,
                  s.state == fleet::ShardState::Quarantined
                      ? (" exit=" + std::to_string(s.lastExitCode) +
                         " signal=" + std::to_string(s.lastSignal))
                            .c_str()
                      : "",
                  s.lastDiagnostic.empty()
                      ? ""
                      : ("  [" + s.lastDiagnostic + "]").c_str());
    }
    std::printf("wrote %s (%zu ok, %zu quarantined), report %s\n",
                o.outPath.c_str(), report.countIn(fleet::ShardState::Done),
                quarantined, o.reportPath.c_str());
  }
  // A quarantined (or unfinished) fleet is this tool's own failure code.
  return quarantined == 0 && report.allDone() ? tool::kExitOk
                                              : tool::kExitError;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::vector<InjectSpec> injects;

  tool::Tool cli(tool::kCancel | tool::kStats);
  cli.text("--corners", "FILE", &o.cornersPath)
      .text("--out", "BUNDLE", &o.outPath)
      .text("--workdir", "DIR", &o.workdir)
      .text("--report", "FILE", &o.reportPath)
      .integer("--shards", "N", &o.shards, 1)
      .integer("--max-retries", "N", &o.maxRetries, 0)
      .real("--retry-backoff", "SECS", &o.retryBackoff, 0.0)
      .real("--deadline", "SECS", &o.deadlineSecs)
      .real("--heartbeat-timeout", "SECS", &o.heartbeatSecs)
      .toggle("--resume", &o.resume)
      .toggle("--quick", &o.quick)
      .integer("--threads", "N", &o.threads, 0)
      .integer("--fsync-every", "N", &o.fsyncEveryN, 1)
      .real("--progress", "SECS", &o.progressSecs)
      .custom("--inject", "SPEC[,SPEC...]",
              [&](std::string_view v) { injects = parseInject(v); })
      .toggle("--quiet", &o.quiet)
      // Worker mode (spawned by the supervisor, one corner per process).
      .custom("--worker-corner", "ENCODED",
              [&](std::string_view v) {
                if (!decodeCorner(v, &o.workerCorner)) {
                  tool::failUsage("bad --worker-corner encoding");
                }
                o.workerMode = true;
              })
      .integer("--crash-at", "INDEX", &o.crashAt)
      .toggle("--fault-hang", &o.faultHang)
      .toggle("--fault-corrupt", &o.faultCorrupt);

  return cli.run(argc, argv, [&](tool::Run& run) {
    if (o.workdir.empty()) o.workdir = o.outPath + ".work";
    if (o.reportPath.empty()) o.reportPath = o.outPath + ".fleet.json";
    return o.workerMode ? runWorker(o, run.cancel())
                        : runSupervisor(o, argv[0], injects, run.cancel());
  });
}
