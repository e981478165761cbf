#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kMinJobs = 3;
/// A traced job's stage spans must cover at least this share of its time.
constexpr double kMinSpanCoverage = 0.95;

/// Stage spans the workloads record; each becomes the per-layer metric
/// "<stage>_s".
const char* const kStages[] = {
    "vtc.make_gate",         "model.singles",          "characterize.dual_tables",
    "characterize.correction", "characterize.save",    "characterize.load",
    "sta.blif.parse",        "sta.levelize",           "sta.analyze_proximity",
    "sta.analyze_classic",   "sta.report"};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"job_s", "s"}, {"job_cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};

const MetricSpec kPerLayer[] = {
    {"vtc.make_gate_s", "s"},
    {"model.singles_s", "s"},
    {"characterize.dual_tables_s", "s"},
    {"characterize.correction_s", "s"},
    {"characterize.save_s", "s"},
    {"characterize.load_s", "s"},
    {"spice.tran.runs", "count"},
    {"spice.tran.busy_s", "s"},
    {"spice.tran.steps_accepted", "count"},
    {"spice.tran.accept_ratio", "ratio"},
    {"spice.newton.iters_per_solve", "ratio"},
    {"spice.solve.allocs", "count"},
    {"linalg.sparse.factorizations", "count"},
    {"linalg.sparse.refactorizations", "count"},
    {"par.pool.tasks_run", "count"},
    {"par.pool.tasks_stolen", "count"},
    {"par.speedup", "ratio"},
    {"spice.tran.inflation", "ratio"},
    {"model.dual.oracle_cache_hits", "count"},
    {"model.dual.oracle_cache_misses", "count"},
    {"characterize.points_failed_ratio", "ratio"},
    {"sta.blif.parse_s", "s"},
    {"sta.levelize_s", "s"},
    {"sta.analyze_proximity_s", "s"},
    {"sta.analyze_classic_s", "s"},
    {"sta.report_s", "s"},
    {"sta.graph.levels", "count"},
    {"sta.delay_calc.arc_evals", "count"},
    {"model.dual.queries_per_batch", "ratio"},
    {"model.dual.lookups_per_s", "1/s"},
    {"model.dual.clamped_ratio", "ratio"},
    {"model.proximity.window_exits", "count"},
    {"trace.job_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.span_coverage", "ratio"},
    {"delay_err_abs_mean_pct", "%"},
    {"delay_err_abs_max_pct", "%"},
    {"slew_err_abs_mean_pct", "%"}};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values of one traced job, from its counter deltas and spans.
std::map<std::string, double> layerValues(const JobOutcome& job) {
  const ObsDelta& d = job.obs;
  const std::map<std::string, double>& stages = job.stages;
  const auto c = [&](const char* name) { return d.counter(name); };
  std::map<std::string, double> v;
  for (const char* stage : kStages) {
    const auto it = stages.find(stage);
    v[std::string(stage) + "_s"] = it == stages.end() ? 0.0 : it->second;
  }
  for (const char* name :
       {"spice.tran.runs", "spice.tran.steps_accepted", "spice.solve.allocs",
        "linalg.sparse.factorizations", "linalg.sparse.refactorizations",
        "par.pool.tasks_run", "par.pool.tasks_stolen",
        "model.dual.oracle_cache_hits", "model.dual.oracle_cache_misses",
        "sta.graph.levels", "sta.delay_calc.arc_evals",
        "model.proximity.window_exits"}) {
    v[name] = c(name);
  }
  v["spice.tran.busy_s"] = d.timerTotal("spice.tran.seconds");
  v["spice.tran.accept_ratio"] =
      ratio(c("spice.tran.steps_accepted"),
            c("spice.tran.steps_accepted") + c("spice.tran.steps_rejected"));
  v["spice.newton.iters_per_solve"] =
      ratio(c("spice.newton.iterations"), c("spice.newton.solves"));
  v["characterize.points_failed_ratio"] =
      ratio(c("characterize.points_failed"), c("characterize.table_points"));
  v["model.dual.queries_per_batch"] =
      ratio(c("model.dual.batch_queries"), c("model.dual.batch_calls"));
  v["model.dual.lookups_per_s"] = ratio(c("model.dual.table_lookups"),
                                        v["sta.analyze_proximity_s"]);
  v["model.dual.clamped_ratio"] =
      ratio(c("model.dual.clamped_lookups"), c("model.dual.table_lookups"));
  v["trace.span_coverage"] = job.spanCoverage;
  return v;
}

/// Jobs that threw never finished their measured region; jobs that failed
/// an output check did, and keep their timings.
bool timed(const JobOutcome& j) { return j.wall > 0.0; }

std::vector<double> walls(const std::vector<JobOutcome>& jobs) {
  std::vector<double> w;
  for (const JobOutcome& j : jobs) {
    if (timed(j)) w.push_back(j.wall);
  }
  return w;
}

double medianWall(const std::vector<JobOutcome>& jobs) {
  return median(walls(jobs));
}

}  // namespace

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Metric medianMetric(const std::string& name, const std::string& unit,
                    std::vector<double> values) {
  Metric m{name, unit, median(values), values.size(), std::nullopt};
  if (!values.empty()) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    m.range = {*lo, *hi};
  }
  return m;
}

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::begin(const char* name, std::uint64_t job) {
  Span s;
  s.name = name;
  s.start = secondsBetween(origin_, Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.job = job;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end =
      secondsBetween(origin_, Clock::now());
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, double> Tracer::stageSeconds(std::uint64_t job) const {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& root = spans_[i];
    if (root.job != job || root.parent != -1) continue;
    for (const Span& s : spans_) {
      if (s.parent == static_cast<int>(i)) out[s.name] += s.end - s.start;
    }
  }
  return out;
}

void Tracer::writeChromeJson(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.job), s.parent);
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

double ObsDelta::counter(const std::string& name) const {
  return static_cast<double>(after_.counterValue(name) -
                             before_.counterValue(name));
}

double ObsDelta::timerTotal(const std::string& name) const {
  const auto total = [&](const prox::obs::Report& r) {
    for (const prox::obs::TimerSample& t : r.timers) {
      if (t.name == name) return t.totalSeconds;
    }
    return 0.0;
  };
  return total(after_) - total(before_);
}

JobClock::JobClock(JobOutcome* out, Tracer* tracer, std::uint64_t job)
    : out_(out), tracer_(tracer) {
  out_->obs.start();
  if (tracer_ != nullptr) span_ = tracer_->begin("job", job);
  cpu0_ = processCpuSeconds();
  t0_ = Clock::now();
}

JobClock::~JobClock() {
  if (!stopped_ && tracer_ != nullptr) tracer_->end(span_);
}

void JobClock::stop() {
  const Clock::time_point t1 = Clock::now();
  stopped_ = true;
  out_->cpu = processCpuSeconds() - cpu0_;
  out_->wall = secondsBetween(t0_, t1);
  if (tracer_ != nullptr) tracer_->end(span_);
  out_->obs.stop();
}

RunResult runWorkload(Workload& w, const RunOptions& o) {
  RunResult r;

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  // Every job of the run must reproduce one digest: the pinned one when this
  // seed has one, else the first job's.  Comparing the single-threaded job
  // against it is the cross-thread identity check.
  std::optional<std::string> reference = w.pinnedDigest();
  r.pinned = reference.has_value();
  // One line per job (JSON), written to the output directory at the end.
  std::string jobLog;
  const auto runJob = [&](int threads, Tracer* tracer) {
    const std::uint64_t id = r.attempted++;
    JobOutcome out;
    try {
      out = w.job(threads, tracer, id);
    } catch (const std::exception& e) {
      out.error = std::string("exception: ") + e.what();
    }
    if (out.error.empty()) {
      if (!reference) reference = out.digest;
      if (out.digest != *reference) {
        out.error = "output digest " + out.digest + " != expected " +
                    *reference + " (threads=" + std::to_string(threads) + ")";
      }
    }
    if (tracer != nullptr) {
      out.stages = tracer->stageSeconds(id);
      double covered = 0.0;
      for (const auto& [name, seconds] : out.stages) covered += seconds;
      out.spanCoverage = ratio(covered, out.wall);
      if (out.error.empty() && out.spanCoverage < kMinSpanCoverage) {
        out.error = "stage spans cover " + std::to_string(out.spanCoverage) +
                    " of the job, below " + std::to_string(kMinSpanCoverage);
      }
    }
    if (!out.error.empty()) {
      ++r.failed;
      r.errors.push_back(out.error);
    }
    char line[200];
    std::snprintf(line, sizeof line,
                  "{\"job\":%llu,\"threads\":%d,\"traced\":%s,\"wall_s\":%.9g,"
                  "\"cpu_s\":%.9g,\"peak_rss_mb\":%.6g,\"ok\":%s}\n",
                  static_cast<unsigned long long>(id), threads,
                  tracer != nullptr ? "true" : "false", out.wall, out.cpu,
                  peakRssMb(), out.error.empty() ? "true" : "false");
    jobLog += line;
    return out;
  };
  const auto loop = [&](double seconds, Tracer* tracer) {
    std::vector<JobOutcome> jobs;
    const Clock::time_point t0 = Clock::now();
    do {
      jobs.push_back(runJob(o.threads, tracer));
    } while (jobs.size() < kMinJobs ||
             secondsBetween(t0, Clock::now()) < seconds);
    return jobs;
  };
  const auto finish = [&](bool lastJobFailed) {
    std::vector<std::string> errors;
    r.info = w.finish(&errors);
    if (!errors.empty()) {
      // The end-of-run checks judge the last job's output.
      if (!lastJobFailed) ++r.failed;
      r.errors.insert(r.errors.end(), errors.begin(), errors.end());
    }
  };

  const auto writeOutputs = [&](const Tracer* tracer) {
    r.digest = reference.value_or("");
    if (o.outDir.empty()) return;
    const std::string stem = o.outDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + (tracer ? "-traced" : "");
    std::ofstream(stem + "-jobs.jsonl") << jobLog;
    if (tracer != nullptr) tracer->writeChromeJson(stem + "-trace.json");
  };

  if (!o.trace) {
    const std::vector<JobOutcome> jobs = loop(o.seconds, nullptr);
    bool lastFailed = !jobs.back().error.empty();
    if (w.checkSerialWhenUntraced()) {
      lastFailed = !runJob(1, nullptr).error.empty();
    }
    finish(lastFailed);
    std::vector<double> cpu;
    for (const JobOutcome& j : jobs) {
      if (timed(j)) cpu.push_back(j.cpu);
    }
    const std::vector<double> values[] = {walls(jobs), cpu, setups,
                                          {peakRssMb()}};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      r.metrics.push_back(
          medianMetric(kEndToEnd[i].name, kEndToEnd[i].unit, values[i]));
    }
    writeOutputs(nullptr);
    return r;
  }

  Tracer tracer;
  const std::vector<JobOutcome> plain = loop(0.5 * o.seconds, nullptr);
  const std::vector<JobOutcome> traced = loop(0.5 * o.seconds, &tracer);
  const JobOutcome serial = runJob(1, nullptr);
  finish(!serial.error.empty());

  std::map<std::string, std::vector<double>> samples;
  for (const JobOutcome& j : traced) {
    if (!timed(j)) continue;
    for (const auto& [name, value] : layerValues(j)) {
      samples[name].push_back(value);
    }
  }
  std::vector<double> plainBusy;
  for (const JobOutcome& j : plain) {
    if (timed(j)) plainBusy.push_back(j.obs.timerTotal("spice.tran.seconds"));
  }
  const double plainWall = medianWall(plain);
  const double tracedWall = medianWall(traced);
  std::map<std::string, double> derived = {
      {"trace.job_s", tracedWall},
      {"trace.overhead_s", tracedWall - plainWall},
      {"par.speedup", ratio(serial.wall, plainWall)},
      {"spice.tran.inflation",
       ratio(median(plainBusy), serial.obs.timerTotal("spice.tran.seconds"))}};
  for (const MetricSpec& m : kPerLayer) {
    const auto info = std::find_if(r.info.begin(), r.info.end(),
                                   [&](const Metric& i) { return i.name == m.name; });
    if (info != r.info.end()) {
      r.metrics.push_back(*info);
      r.info.erase(info);
    } else if (const auto it = derived.find(m.name); it != derived.end()) {
      r.metrics.push_back(medianMetric(m.name, m.unit, {it->second}));
    } else if (const auto it = samples.find(m.name); it != samples.end()) {
      r.metrics.push_back(medianMetric(m.name, m.unit, it->second));
    } else {
      r.metrics.push_back({m.name, m.unit, 0.0, 0, std::nullopt});
    }
  }
  writeOutputs(&tracer);
  return r;
}

}  // namespace perfbench
