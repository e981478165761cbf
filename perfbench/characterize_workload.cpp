// characterize_nand3: the offline cell-characterization job of
// `characterize_cell` -- the NAND3 spec and full grids, then saveGateModel,
// loadGateModelFile and a bit-identical reload check.  The traced run
// rebuilds the same flow from the stage functions characterizeGate composes,
// so each stage gets its own span; its .prox must match the untraced one
// byte for byte.  After the loop the last job's model is scored against
// transistor-level simulation the way Table 5-1 does (bench_table5_1).

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>

#include "characterize/characterize.hpp"
#include "characterize/serialize.hpp"
#include "harness.hpp"
#include "model/gate_sim.hpp"
#include "par/parallel_for.hpp"
#include "support/durable_io.hpp"

namespace perfbench {

namespace {

using namespace prox;
using model::InputEvent;
using wave::Edge;

/// CRC-32 of the .prox bytes this flow writes.  Any change to the
/// characterized tables or to the file format changes it.
constexpr const char* kPinnedProxCrc = "f118d95a";
/// Dual-table sweep points of the full grids: 6 (pin, edge) pairs x 5
/// reference taus x (7 x 12 delay + 8 x 12 transition) points.
constexpr double kTablePoints = 5400.0;
/// Table 5-1 sample: configurations wanted, and the attempt cap.
constexpr int kAccuracyConfigs = 100;
/// Ceilings on the Table 5-1 statistics.  The paper reports an 8.54 % worst
/// delay error; the tabulated model here stays well inside these.
constexpr double kMaxDelayErrMeanPct = 5.0;
constexpr double kMaxDelayErrAbsPct = 25.0;
constexpr double kMaxSlewErrMeanPct = 10.0;

cells::CellSpec nand3Spec() {
  cells::CellSpec spec;
  spec.type = cells::GateType::Nand;
  spec.fanin = 3;
  spec.wn = 6e-6;
  spec.wp = 8e-6;
  spec.loadCap = 100e-15;
  return spec;
}

/// The full (non --quick) grids of characterize_cell.
characterize::CharacterizationConfig nand3Config(int threads) {
  characterize::CharacterizationConfig cfg;
  cfg.tauGrid = {50e-12,   100e-12,  200e-12,  400e-12,
                 700e-12,  1100e-12, 1600e-12, 2200e-12};
  cfg.dualTauIndices = {0, 2, 4, 6, 7};
  cfg.threads = threads;
  return cfg;
}

/// characterizeGate, stage by stage through the same public calls, with a
/// span around each stage.
characterize::CharacterizedGate characterizeInStages(
    const cells::CellSpec& spec, const characterize::CharacterizationConfig& cfg,
    Tracer* tracer, std::uint64_t job) {
  characterize::CharacterizedGate g;
  {
    SpanScope span(tracer, "vtc.make_gate", job);
    g.gate = model::makeGate(spec, cfg.vtcStep);
  }
  model::GateSimulator sim(g.gate);
  const int pins = g.pinCount();
  {
    SpanScope span(tracer, "model.singles", job);
    std::vector<model::SingleInputModel> singles(2 * static_cast<std::size_t>(pins));
    const auto characterizeOne = [&](model::GateSimulator& s, std::size_t i) {
      singles[i] = model::SingleInputModel::characterize(
          s, static_cast<int>(i / 2), i % 2 == 0 ? Edge::Rising : Edge::Falling,
          cfg.tauGrid);
    };
    if (cfg.threads <= 1) {
      for (std::size_t i = 0; i < singles.size(); ++i) characterizeOne(sim, i);
    } else {
      par::parallelFor(
          singles.size(),
          [&](std::size_t i) {
            model::GateSimulator local(g.gate);
            characterizeOne(local, i);
          },
          {.threads = cfg.threads, .failFast = true});
    }
    auto set = std::make_unique<model::SingleInputModelSet>();
    for (model::SingleInputModel& m : singles) set->set(std::move(m));
    g.singles = std::move(set);
  }
  g.dual = std::make_unique<model::TabulatedDualInputModel>(*g.singles);
  {
    SpanScope span(tracer, "characterize.dual_tables", job);
    for (int pin = 0; pin < pins; ++pin) {
      const int partner = (pin + cfg.partnerOffset) % pins;
      for (Edge edge : {Edge::Rising, Edge::Falling}) {
        model::DualTable delay;
        model::DualTable transition;
        characterize::buildDualTables(sim, *g.singles, pin, partner, edge, cfg,
                                      &delay, &transition, &g.diagnostics);
        g.dual->setDelayTable(pin, edge, std::move(delay));
        g.dual->setTransitionTable(pin, edge, std::move(transition));
      }
    }
  }
  {
    SpanScope span(tracer, "characterize.correction", job);
    g.correction = characterize::characterizeStepCorrection(
        sim, *g.singles, *g.dual, cfg.stepTau, cfg.healPointFailures,
        &g.diagnostics, cfg.threads);
  }
  return g;
}

std::string fileCrc(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>()};
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", support::crc32(bytes));
  return buf;
}

bool sameBits(const model::ProximityResult& a, const model::ProximityResult& b) {
  return std::bit_cast<std::uint64_t>(a.delay) ==
             std::bit_cast<std::uint64_t>(b.delay) &&
         std::bit_cast<std::uint64_t>(a.transitionTime) ==
             std::bit_cast<std::uint64_t>(b.transitionTime);
}

class CharacterizeWorkload final : public Workload {
 public:
  CharacterizeWorkload(std::uint64_t seed, std::string outDir)
      : seed_(seed), outDir_(std::move(outDir)) {}

  /// Draws the Table 5-1 configurations from the seed and simulates each at
  /// transistor level (the reference side of the accuracy check), plus the
  /// round-trip query.
  void setup() override {
    const cells::CellSpec spec = nand3Spec();
    model::GateSimulator sim(model::makeGate(spec, nand3Config(1).vtcStep));
    std::mt19937_64 rng(seed_);
    std::uniform_real_distribution<double> tauDist(50e-12, 2000e-12);
    std::uniform_real_distribution<double> sepDist(-500e-12, 500e-12);
    const auto draw = [&](Edge edge) {
      std::vector<InputEvent> evs{{0, edge, 0.0, tauDist(rng)}};
      for (int pin = 1; pin < 3; ++pin) {
        const double sep = sepDist(rng);
        evs.push_back({pin, edge, sep, tauDist(rng)});
      }
      return evs;
    };
    roundTripQuery_ = draw(Edge::Rising);
    references_.clear();
    attempted_ = 0;
    while (static_cast<int>(references_.size()) < kAccuracyConfigs &&
           attempted_ < 3 * kAccuracyConfigs) {
      ++attempted_;
      std::vector<InputEvent> evs = draw(Edge::Falling);
      const model::SimOutcome full = sim.simulate(evs, 0);
      if (!full.outputRefTime || !full.transitionTime || !full.delay ||
          *full.delay <= 0.0) {
        continue;
      }
      // Normalize by the delay from the earliest input: pin 0 is the
      // simulator's reference but may switch last, leaving a near-zero delay
      // that would turn a few picoseconds of error into hundreds of percent.
      double earliest = evs[0].tRef;
      for (const InputEvent& e : evs) earliest = std::min(earliest, e.tRef);
      references_.push_back({std::move(evs), *full.outputRefTime,
                             *full.outputRefTime - earliest,
                             *full.transitionTime});
    }
  }

  JobOutcome job(int threads, Tracer* tracer, std::uint64_t id) override {
    const cells::CellSpec spec = nand3Spec();
    const characterize::CharacterizationConfig cfg = nand3Config(threads);
    const std::string path =
        outDir_ + (tracer != nullptr ? "/nand3-traced.prox" : "/nand3.prox");
    JobOutcome out;
    characterize::CharacterizedGate gate;
    model::ProximityResult inMemory;
    model::ProximityResult reloaded;
    {
      JobClock clock(&out, tracer, id);
      gate = tracer != nullptr ? characterizeInStages(spec, cfg, tracer, id)
                               : characterize::characterizeGate(spec, cfg);
      {
        SpanScope span(tracer, "characterize.save", id);
        characterize::saveGateModel(gate, path);
      }
      {
        SpanScope span(tracer, "characterize.load", id);
        const characterize::CharacterizedGate loaded =
            characterize::loadGateModelFile(path);
        inMemory = gate.calculator().compute(roundTripQuery_);
        reloaded = loaded.calculator().compute(roundTripQuery_);
      }
      clock.stop();
    }

    out.digest = fileCrc(path);
    std::ostringstream err;
    if (!sameBits(inMemory, reloaded)) {
      err << "reloaded model answers differently from the in-memory one; ";
    }
    // Cold-sweep guard: every table point is a fresh transient, never an
    // answer remembered from an earlier sweep or job.  (The serial path
    // shares one simulator per job, as characterize_cell --threads 1 does.)
    const double hits = out.obs.counter("model.dual.oracle_cache_hits");
    const double misses = out.obs.counter("model.dual.oracle_cache_misses");
    const double points = out.obs.counter("characterize.table_points");
    if (points != kTablePoints || hits + misses != points ||
        (threads > 1 && hits != 0.0)) {
      err << "cold-sweep guard: " << points << " table points, " << hits
          << " memo hits, " << misses << " misses; ";
    }
    out.error = err.str();
    last_ = std::move(gate);
    return out;
  }

  std::optional<std::string> pinnedDigest() const override {
    return std::string(kPinnedProxCrc);
  }

  bool checkSerialWhenUntraced() const override { return false; }

  std::vector<Metric> finish(std::vector<std::string>* errors) override {
    if (!last_.singles) {
      errors->push_back("no characterized model to score");
      return {};
    }
    const model::ProximityCalculator calc = last_.calculator();
    double delaySum = 0.0;
    double delayMax = 0.0;
    double slewSum = 0.0;
    for (const Reference& ref : references_) {
      const model::ProximityResult r = calc.compute(ref.events);
      const double d =
          std::fabs(r.outputRefTime - ref.outputRefTime) / ref.delay * 100.0;
      delaySum += d;
      delayMax = std::max(delayMax, d);
      slewSum += std::fabs(r.transitionTime - ref.transition) /
                 ref.transition * 100.0;
    }
    const std::size_t n = references_.size();
    const double delayMean = n > 0 ? delaySum / static_cast<double>(n) : 0.0;
    const double slewMean = n > 0 ? slewSum / static_cast<double>(n) : 0.0;
    if (static_cast<int>(n) < kAccuracyConfigs) {
      errors->push_back("only " + std::to_string(n) + " of " +
                        std::to_string(attempted_) +
                        " Table 5-1 configurations simulated");
    }
    if (!(delayMean <= kMaxDelayErrMeanPct && delayMax <= kMaxDelayErrAbsPct &&
          slewMean <= kMaxSlewErrMeanPct)) {
      errors->push_back("Table 5-1 error above its ceiling: delay mean " +
                        std::to_string(delayMean) + " %, max " +
                        std::to_string(delayMax) + " %, slew mean " +
                        std::to_string(slewMean) + " %");
    }
    return {{"delay_err_abs_mean_pct", "%", delayMean, n, std::nullopt},
            {"delay_err_abs_max_pct", "%", delayMax, n, std::nullopt},
            {"slew_err_abs_mean_pct", "%", slewMean, n, std::nullopt},
            {"accuracy.configs_attempted", "count",
             static_cast<double>(attempted_), 1, std::nullopt}};
  }

 private:
  struct Reference {
    std::vector<InputEvent> events;
    double outputRefTime = 0.0;
    double delay = 0.0;
    double transition = 0.0;
  };

  std::uint64_t seed_;
  std::string outDir_;
  std::vector<InputEvent> roundTripQuery_;
  std::vector<Reference> references_;
  int attempted_ = 0;
  characterize::CharacterizedGate last_;
};

}  // namespace

std::unique_ptr<Workload> makeCharacterizeWorkload(std::uint64_t seed,
                                                   const std::string& outDir) {
  return std::make_unique<CharacterizeWorkload>(seed, outDir);
}

}  // namespace perfbench
