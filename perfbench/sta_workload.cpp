// sta_wide_100k / sta_deep_100k: the `sta_path --blif` netlist job on a
// 100k-gate gen_circuit netlist over analyticLibrary().  The BLIF text is
// generated in set-up; each job parses it, levelizes, runs a proximity and a
// classic TimingAnalyzer, and walks the critical path as sta_path does.
// Output identity is a CRC-32 over every net's proximity and classic
// arrival, pinned for seeds 0-10.

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "harness.hpp"
#include "sta/blif.hpp"
#include "sta/synth.hpp"
#include "sta/timing_graph.hpp"
#include "support/durable_io.hpp"

namespace perfbench {

namespace {

using namespace prox;

/// Arrival CRCs ("proximity/classic") of the two circuits at seeds 0-10
/// (seed 7 is the reference circuit of gen_circuit --seed=7).  Other seeds
/// are checked for identity across jobs and thread counts only.
struct Pin {
  const char* wide;
  const char* deep;
};
constexpr Pin kPinned[] = {
    {"81ad7c0d/8740dff9", "e90fd813/143090a5"},  // seed 0
    {"e7d382f2/35674214", "6acb215f/5c99f1e8"},
    {"f9f5b616/d669b3c1", "5654a6d7/b0c9f256"},
    {"ada07906/3ab85a2d", "0c06e5af/e55b55ba"},
    {"c1407fa9/48714f0c", "85562efa/90b82eab"},
    {"07d7ca81/d3f76c82", "0702d796/333b5c19"},
    {"2cd58ed3/5aa3aa13", "6c3a2cea/f348f61c"},
    {"a08afcda/ac2bfe6d", "2ea0ff8b/fc5e2df4"},  // seed 7
    {"244f1b4b/e19a7bdf", "843d7733/61e4d802"},
    {"72ca3a34/628d170b", "78e97fcb/2675622c"},
    {"9c77c895/e7af67fb", "a79ab506/27637fbe"},  // seed 10
};

sta::SynthSpec circuitSpec(bool deep, std::uint64_t seed) {
  sta::SynthSpec spec;
  spec.seed = seed;
  spec.depth = deep ? 2000 : 100;
  spec.width = deep ? 50 : 1000;
  spec.primaryInputs = deep ? 50 : 1000;
  spec.maxFanin = 3;
  return spec;
}

/// CRC-32 over (time, slope, edge) of every net in NetId order; nets that
/// never switch contribute a marker byte.
std::uint32_t arrivalCrc(const sta::Netlist& nl, const sta::TimingAnalyzer& ta) {
  std::uint32_t crc = support::kCrc32Init;
  for (std::size_t n = 0; n < nl.netCount(); ++n) {
    const auto a = ta.arrival(sta::NetId(static_cast<std::uint32_t>(n)));
    if (!a) {
      const unsigned char none = 0xff;
      crc = support::crc32Update(crc, &none, 1);
      continue;
    }
    crc = support::crc32Update(crc, &a->time, sizeof a->time);
    crc = support::crc32Update(crc, &a->slope, sizeof a->slope);
    const int e = static_cast<int>(a->edge);
    crc = support::crc32Update(crc, &e, sizeof e);
  }
  return support::crc32Final(crc);
}

class StaWorkload final : public Workload {
 public:
  StaWorkload(bool deep, std::uint64_t seed)
      : deep_(deep), spec_(circuitSpec(deep, seed)) {}

  void setup() override {
    library_ = std::make_unique<sta::GateLibrary>(sta::analyticLibrary());
    blif_ = sta::generateBlifString(spec_);
  }

  JobOutcome job(int threads, Tracer* tracer, std::uint64_t id) override {
    JobOutcome out;
    sta::Netlist nl;
    sta::BlifSummary summary;
    std::optional<sta::TimingAnalyzer> proximity;
    std::optional<sta::TimingAnalyzer> classic;
    std::size_t levels = 0;
    std::vector<sta::NetId> path;
    {
      JobClock clock(&out, tracer, id);
      {
        SpanScope span(tracer, "sta.blif.parse", id);
        summary = sta::readBlifString(blif_, *library_, &nl);
      }
      {
        SpanScope span(tracer, "sta.levelize", id);
        levels = nl.levelize(sta::StructuralPolicy::Reject).levelCount();
      }
      sta::DelayCalcOptions opt;
      opt.threads = threads;
      const auto analyze = [&](sta::DelayMode mode,
                               std::optional<sta::TimingAnalyzer>* ta) {
        ta->emplace(nl, mode, opt);
        for (const std::string& net : summary.inputs) {
          (*ta)->setInputArrival(net, sta::Arrival{0.0, 200e-12, wave::Edge::Rising});
        }
        (*ta)->run();
      };
      {
        SpanScope span(tracer, "sta.analyze_proximity", id);
        analyze(sta::DelayMode::Proximity, &proximity);
      }
      {
        SpanScope span(tracer, "sta.analyze_classic", id);
        analyze(sta::DelayMode::Classic, &classic);
      }
      {
        SpanScope span(tracer, "sta.report", id);
        path = criticalPath(nl, summary, *proximity);
      }
      clock.stop();
    }

    char digest[32];
    std::snprintf(digest, sizeof digest, "%08x/%08x",
                  arrivalCrc(nl, *proximity), arrivalCrc(nl, *classic));
    out.digest = digest;
    if (levels != spec_.depth || path.size() != spec_.depth + 1 ||
        proximity->degradedArcs() != 0 || classic->degradedArcs() != 0) {
      out.error = "netlist job: " + std::to_string(levels) + " levels, " +
                  std::to_string(path.size()) + "-net critical path, " +
                  std::to_string(proximity->degradedArcs()) +
                  " degraded arcs";
    }
    return out;
  }

  std::optional<std::string> pinnedDigest() const override {
    if (spec_.seed >= std::size(kPinned)) return std::nullopt;
    const Pin& pin = kPinned[spec_.seed];
    return std::string(deep_ ? pin.deep : pin.wide);
  }

  bool checkSerialWhenUntraced() const override { return true; }

  std::vector<Metric> finish(std::vector<std::string>*) override { return {}; }

 private:
  /// sta_path's report: the latest-arriving declared output under the
  /// proximity model, walked back through each gate's latest input.
  static std::vector<sta::NetId> criticalPath(const sta::Netlist& nl,
                                              const sta::BlifSummary& summary,
                                              const sta::TimingAnalyzer& ta) {
    const auto later = [&](sta::NetId a, sta::NetId b) {
      return !b.valid() || ta.arrival(a)->time > ta.arrival(b)->time;
    };
    sta::NetId worst;
    for (const std::string& net : summary.outputs) {
      const sta::NetId id = nl.findNet(net);
      if (ta.arrival(id) && later(id, worst)) worst = id;
    }
    if (!worst.valid()) return {};
    std::vector<sta::NetId> path{worst};
    for (std::size_t hop = 0; hop < nl.nodeCount(); ++hop) {
      const sta::NodeId driver = nl.netDriver(path.back());
      if (!driver.valid()) break;
      sta::NetId latest;
      for (const sta::NetId in : nl.nodeInputs(driver)) {
        if (ta.arrival(in) && later(in, latest)) latest = in;
      }
      if (!latest.valid()) break;
      path.push_back(latest);
    }
    std::reverse(path.begin(), path.end());
    return path;
  }

  bool deep_;
  sta::SynthSpec spec_;
  std::unique_ptr<sta::GateLibrary> library_;
  std::string blif_;
};

}  // namespace

std::unique_ptr<Workload> makeStaWorkload(bool deep, std::uint64_t seed) {
  return std::make_unique<StaWorkload>(deep, seed);
}

}  // namespace perfbench
