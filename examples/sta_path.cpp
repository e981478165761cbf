// STA example: proximity-aware vs classic timing on a small combinational
// block, judged against a flat transistor-level simulation of the whole
// netlist -- the downstream application the paper motivates.
//
// Circuit (all NAND2; s1/s2 are stable side inputs):
//
//   a ---+
//        |u1>--- y1 ---+
//   b ---+             |u2>--- y2 ---+
//   s1 ----------------+             |u3>--- out
//   c -------------------------------+
//
// Inputs arrive in a tight burst, so gates see multiple switching inputs in
// close temporal proximity; classic pin-to-pin STA mis-times the stages.
//
// The tool doubles as the structural-validation demo: --graph builds a
// deliberately defective variant (cyclic, multidriven, dangling, selfloop)
// and --structural selects the degradation ladder (a rejected graph exits
// 8).  Flags, --stats/--trace and exit codes follow the shared tool runtime
// (src/tool/runtime.hpp).

#include <cstdio>
#include <string>

#include "characterize/characterize.hpp"
#include "demo_cells.hpp"
#include "fleet/bundle.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "sta/blif.hpp"
#include "sta/flat_sim.hpp"
#include "support/diagnostic.hpp"
#include "tool/runtime.hpp"

using namespace prox;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

namespace {

/// BLIF mode: reads a circuit (file or "-" = stdin), runs proximity and
/// classic STA with a uniform input stimulus, and prints the critical path.
void runBlifFlow(const std::string& path, const std::string& libKind,
                 int threads, support::CancelToken* cancel,
                 sta::StructuralPolicy structural) {
  sta::GateLibrary library = sta::analyticLibrary();
  if (libKind == "characterized") {
    // Transistor-level characterization per (type, fanin) the input demands.
    // Slow but real; the analytic default answers instantly at any scale.
    library.setFactory([threads, cancel](cells::GateType type, int fanin)
                           -> std::optional<characterize::CharacterizedGate> {
      const bool inverter = type == cells::GateType::Inverter;
      if (fanin < 1 || fanin > 8 || inverter != (fanin == 1)) {
        return std::nullopt;
      }
      cells::CellSpec spec;
      spec.type = type;
      spec.fanin = fanin;
      std::printf("characterizing %s ...\n",
                  cells::gateTypeName(type, fanin).c_str());
      characterize::CharacterizationConfig cfg;
      cfg.threads = threads;
      cfg.cancel = cancel;
      return characterize::characterizeGate(spec, cfg);
    });
  }

  sta::Netlist nl;
  const sta::BlifSummary summary = sta::readBlifFile(path, library, &nl);
  std::printf("model '%s': %zu gates, %zu inputs, %zu outputs",
              summary.modelName.c_str(), summary.gates, summary.inputs.size(),
              summary.outputs.size());
  if (summary.latches != 0) std::printf(", %zu latch cuts", summary.latches);
  if (summary.constants != 0) std::printf(", %zu constants", summary.constants);
  std::printf("\n");

  sta::DelayCalcOptions opt;
  opt.threads = threads;
  opt.cancel = cancel;
  opt.structural = structural;
  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode, opt);
    for (const std::string& net : summary.inputs) {
      ta.setInputArrival(net, Arrival{0.0, 200e-12, Edge::Rising});
    }
    ta.run();
    return ta;
  };
  const auto proximity = analyze(DelayMode::Proximity);
  const auto classic = analyze(DelayMode::Classic);

  const sta::LevelizeResult& schedule = nl.levelize(structural);
  std::printf("%zu levels deep", schedule.levelCount());
  if (proximity.degradedArcs() != 0) {
    std::printf(", %zu degraded arc(s)", proximity.degradedArcs());
  }
  std::printf("\n");
  for (const auto& issue : proximity.structuralIssues()) {
    std::printf("structural %s: %s\n", sta::structuralKindName(issue.kind),
                issue.message.c_str());
  }

  // Latest-arriving declared output under the proximity model.
  PROX_OBS_SCOPED_TIMER("sta.report.seconds");
  PROX_OBS_SPAN("sta.report");
  sta::NetId worst;
  for (const std::string& net : summary.outputs) {
    const sta::NetId id = nl.findNet(net);
    const auto a = proximity.arrival(id);
    if (!a) continue;
    if (!worst.valid() || a->time > proximity.arrival(worst)->time) {
      worst = id;
    }
  }
  if (!worst.valid()) {
    std::printf("no declared output switches under this stimulus\n");
    return;
  }

  // Walk the worst path backwards: at each gate, follow the input whose
  // arrival is latest.  Bounded by the node count so a degraded (formerly
  // cyclic) graph cannot loop the walk.
  std::vector<sta::NetId> pathNets{worst};
  sta::NetId cur = worst;
  for (std::size_t hop = 0; hop < nl.nodeCount(); ++hop) {
    const sta::NodeId driver = nl.netDriver(cur);
    if (!driver.valid()) break;  // reached a primary input
    sta::NetId latest;
    for (const sta::NetId in : nl.nodeInputs(driver)) {
      const auto a = proximity.arrival(in);
      if (!a) continue;
      if (!latest.valid() || a->time > proximity.arrival(latest)->time) {
        latest = in;
      }
    }
    if (!latest.valid()) break;  // no switching input (loop-break estimate)
    pathNets.push_back(latest);
    cur = latest;
  }
  std::reverse(pathNets.begin(), pathNets.end());

  std::printf("critical path (%zu stages):", pathNets.size() - 1);
  const std::size_t kMaxPrinted = 12;
  for (std::size_t i = 0; i < pathNets.size(); ++i) {
    if (pathNets.size() > kMaxPrinted && i == kMaxPrinted / 2) {
      std::printf(" ... ->");
      i = pathNets.size() - kMaxPrinted / 2 - 1;
      continue;
    }
    std::printf(" %s%s", nl.netName(pathNets[i]).c_str(),
                i + 1 == pathNets.size() ? "" : " ->");
  }
  std::printf("\n");
  const auto pArr = proximity.arrival(worst);
  const auto cArr = classic.arrival(worst);
  std::printf("critical arrival on %s: %.1f ps proximity",
              nl.netName(worst).c_str(), pArr->time * 1e12);
  if (cArr) {
    std::printf(", %.1f ps classic (delta %+.1f ps)", cArr->time * 1e12,
                (pArr->time - cArr->time) * 1e12);
  }
  std::printf("\n");
}

/// Bundle mode: serve a model from a fleet-assembled multi-corner bundle
/// (see fleet/bundle.hpp) and time the three-stage demo chain with it.  The
/// interesting part is the hole handling: a corner the fleet quarantined is
/// served under an explicit policy -- reject (exit 8) or degrade to the
/// nearest characterized corner with a counted, logged substitution --
/// mirroring the --structural ladder.
void runBundleFlow(const std::string& bundlePath, const std::string& cornerName,
                   fleet::MissingCornerPolicy policy, int threads,
                   support::CancelToken* cancel) {
  const fleet::Bundle bundle = fleet::loadBundleFile(bundlePath);
  std::printf("bundle %s: %zu corner(s), %zu characterized\n",
              bundlePath.c_str(), bundle.entries.size(), bundle.okCount());
  for (const fleet::BundleEntry& e : bundle.entries) {
    std::printf("  %-12s %-11s%s%s\n", e.corner.name.c_str(),
                fleet::bundleCornerStatusName(e.status),
                e.reason.empty() ? "" : "  ", e.reason.c_str());
  }

  support::DiagnosticLog degradeLog;
  const fleet::CornerSelection sel =
      fleet::selectCorner(bundle, cornerName, policy, &degradeLog);
  if (sel.degraded) {
    std::printf("corner '%s' has no model; degraded to nearest characterized "
                "corner '%s' (see fleet.bundle.nearest_fallbacks in --stats)\n",
                sel.requested.c_str(), sel.entry->corner.name.c_str());
    for (const auto& d : degradeLog.entries()) {
      std::printf("  %s\n", d.toString().c_str());
    }
  } else {
    std::printf("serving corner '%s'\n", sel.entry->corner.name.c_str());
  }
  // The familiar three-stage chain, sized to the bundle cell's fanin: extra
  // pins ride on stable pad inputs, exactly like s1 in the demo circuit.
  sta::Netlist nl;
  examples::addDemoChain(nl, *sel.entry->gate, "s1");

  sta::DelayCalcOptions opt;
  opt.threads = threads;
  opt.cancel = cancel;
  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode, opt);
    for (const auto& [net, arr] : examples::demoArrivals()) {
      ta.setInputArrival(net, arr);
    }
    ta.run();
    return ta;
  };
  const auto proximity = analyze(DelayMode::Proximity);
  const auto classic = analyze(DelayMode::Classic);
  std::printf("\n%-5s | %16s | %16s\n", "net", "proximity [ps]", "classic [ps]");
  for (const char* net : {"y1", "y2", "y3"}) {
    const auto p = proximity.arrival(net);
    const auto cl = classic.arrival(net);
    if (!p || !cl) continue;
    std::printf("%-5s | %16.1f | %16.1f\n", net, p->time * 1e12,
                cl->time * 1e12);
  }
  if (proximity.degradedArcs() + classic.degradedArcs() > 0) {
    std::printf("note: %zu arc(s) used a degraded delay model\n",
                proximity.degradedArcs() + classic.degradedArcs());
  }
}

/// Demo mode: the three-NAND2 circuit above (or, with @p graph, one of its
/// deliberately defective variants), timed both ways and, when clean,
/// judged against the flat transistor-level simulation.
void runDemoFlow(const std::string& graph, sta::StructuralPolicy structural,
                 int threads, support::CancelToken* cancel) {
  cells::CellSpec spec;
  spec.type = cells::GateType::Nand;
  spec.fanin = 2;
  std::printf("characterizing NAND2 cell ...\n");
  characterize::CharacterizationConfig cfg;
  cfg.threads = threads;
  cfg.cancel = cancel;
  const auto cell = characterize::characterizeGate(spec, cfg);

  sta::Netlist nl;
  if (graph == "clean") {
    examples::addDemoChain(nl, cell, "s1");
  } else {
    for (const char* pi : {"a", "b", "c", "s1"}) nl.addPrimaryInput(pi);
    if (graph == "cyclic") {
      // u1 consumes u3's output: u1 -> u2 -> u3 -> u1.
      nl.addInstance("u1", cell, {"a", "y3"}, "y1");
      nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
      nl.addInstance("u3", cell, {"y2", "c"}, "y3");
    } else if (graph == "selfloop") {
      nl.addInstance("u1", cell, {"a", "y1"}, "y1");
      nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
      nl.addInstance("u3", cell, {"y2", "c"}, "y3");
    } else if (graph == "dangling") {
      nl.addInstance("u1", cell, {"a", "b"}, "y1");
      nl.addInstance("u2", cell, {"y1", "floating"}, "y2");
      nl.addInstance("u3", cell, {"y2", "c"}, "y3");
    } else {  // multidriven
      nl.addInstance("u1", cell, {"a", "b"}, "y1");
      nl.addInstance("u2", cell, {"y1", "s1"}, "y2");
      // Lenient construction: the conflicting driver is a property of the
      // (untrusted) input, recorded for validation rather than thrown.
      nl.addInstanceLenient("u2b", cell, {"c", "s1"}, "y2");
      nl.addInstance("u3", cell, {"y2", "c"}, "y3");
    }
  }

  const auto arrivals = examples::demoArrivals();

  auto analyze = [&](DelayMode mode) {
    sta::DelayCalcOptions opt;
    opt.threads = threads;
    opt.cancel = cancel;
    opt.structural = structural;
    sta::TimingAnalyzer ta(nl, mode, opt);
    for (const auto& [net, arr] : arrivals) {
      ta.setInputArrival(net, arr);
    }
    ta.run();
    return ta;
  };

  if (graph != "clean") {
    // Structural demo path: validate, then run under the selected policy.
    std::printf("validating deliberately defective graph '%s' ...\n",
                graph.c_str());
    const auto proximity = analyze(DelayMode::Proximity);
    for (const auto& issue : proximity.structuralIssues()) {
      std::printf("structural %s: %s\n", sta::structuralKindName(issue.kind),
                  issue.message.c_str());
    }
    std::printf("%zu arc(s) degraded:", proximity.degradedArcs());
    for (const auto& name : proximity.degradedArcNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    for (const char* net : {"y1", "y2", "y3"}) {
      const auto p = proximity.arrival(net);
      if (p) std::printf("%-5s arrives at %.1f ps\n", net, p->time * 1e12);
    }
  } else {
    const auto classic = analyze(DelayMode::Classic);
    const auto proximity = analyze(DelayMode::Proximity);
    if (proximity.degradedArcs() + classic.degradedArcs() > 0) {
      std::printf(
          "note: %zu arc(s) used a degraded delay model (missing or "
          "unusable tables); see sta.delay_calc.degraded_arcs in "
          "--stats\n",
          proximity.degradedArcs() + classic.degradedArcs());
    }

    std::printf(
        "running the flat transistor-level reference simulation ...\n");
    const auto flat = sta::simulateFlat(nl, arrivals);

    std::printf("\n%-5s | %13s | %16s | %16s\n", "net", "flat sim [ps]",
                "proximity [ps]", "classic [ps]");
    for (const char* net : {"y1", "y2", "y3"}) {
      const auto it = flat.arrivals.find(net);
      const auto p = proximity.arrival(net);
      const auto cl = classic.arrival(net);
      if (it == flat.arrivals.end() || !p || !cl) continue;
      const Arrival& f = it->second;
      std::printf("%-5s | %13.1f | %8.1f (%+5.1f) | %8.1f (%+5.1f)\n", net,
                  f.time * 1e12, p->time * 1e12, (p->time - f.time) * 1e12,
                  cl->time * 1e12, (cl->time - f.time) * 1e12);
    }
    std::printf(
        "\n(parenthesized: error vs the flat simulation; the proximity "
        "mode stays closer\nat every stage, and the classic error "
        "compounds along the path)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 0;  // 0 = par::defaultThreadCount() (PROX_THREADS or cores)
  std::string graph = "clean";
  sta::StructuralPolicy structural = sta::StructuralPolicy::Reject;
  std::string blifPath;
  std::string libKind = "analytic";
  std::string bundlePath;
  std::string cornerName = "tt";
  fleet::MissingCornerPolicy cornerPolicy = fleet::MissingCornerPolicy::Reject;

  tool::Tool cli(tool::kAllFeatures);
  cli.integer("--threads", "N", &threads, 0)
      .choice<std::string>("--graph", &graph,
                           {{"clean", "clean"},
                            {"cyclic", "cyclic"},
                            {"multidriven", "multidriven"},
                            {"dangling", "dangling"},
                            {"selfloop", "selfloop"}})
      .choice("--structural", &structural,
              {{"reject", sta::StructuralPolicy::Reject},
               {"degrade", sta::StructuralPolicy::Degrade}})
      .text("--blif", "FILE|-", &blifPath)
      .choice<std::string>("--lib", &libKind,
                           {{"analytic", "analytic"},
                            {"characterized", "characterized"}})
      .text("--bundle", "FILE", &bundlePath)
      .text("--corner", "NAME", &cornerName)
      .choice("--corner-policy", &cornerPolicy,
              {{"reject", fleet::MissingCornerPolicy::Reject},
               {"degrade", fleet::MissingCornerPolicy::Degrade}});

  return cli.run(argc, argv, [&](tool::Run& run) {
    if (!bundlePath.empty()) {
      // Fleet-bundle mode: serve a characterized corner (or a policy-governed
      // substitute) from a multi-corner bundle and time the demo chain.
      runBundleFlow(bundlePath, cornerName, cornerPolicy, threads,
                    run.cancel());
    } else if (!blifPath.empty()) {
      // Netlist-scale frontend: parse BLIF, run both STA modes, report the
      // critical path.
      runBlifFlow(blifPath, libKind, threads, run.cancel(), structural);
    } else {
      runDemoFlow(graph, structural, threads, run.cancel());
    }
    return tool::kExitOk;
  });
}
