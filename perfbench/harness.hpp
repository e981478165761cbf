#pragma once
// Closed-loop job runner shared by the benchmark's workloads.
//
// One client issues one job at a time: a job starts only after the previous
// one returned.  Each workload supplies set-up (run several times, median
// reported), one job at a given thread count, and its output checks.  The
// runner measures end-to-end metrics with tracing off; a traced run records
// spans from this benchmark's own code around the library calls of each
// stage and reads counter deltas from obs::snapshot() around each job.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
/// User plus system CPU seconds of the whole process (all threads).
double processCpuSeconds();
/// Peak resident set size of the process [MiB].
double peakRssMb();
double median(std::vector<double> values);


/// In-memory span log: name, start, end, parent span and the job it belongs
/// to.  Written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a job's root span
    std::uint64_t job = 0;
  };

  Tracer();
  int begin(const char* name, std::uint64_t job);
  void end(int span);
  /// Durations of the direct children of @p job's root span, by name.
  std::map<std::string, double> stageSeconds(std::uint64_t job) const;
  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  void writeChromeJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records one span for the lifetime of the scope; a null tracer records
/// nothing, which is how untraced jobs run the same code.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::uint64_t job)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, job) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Counter and timer deltas of the obs registry over one region.
class ObsDelta {
 public:
  void start() { before_ = prox::obs::snapshot(); }
  void stop() { after_ = prox::obs::snapshot(); }
  double counter(const std::string& name) const;
  double timerTotal(const std::string& name) const;

 private:
  prox::obs::Report before_;
  prox::obs::Report after_;
};

/// What one job reports back to the runner.  wall/cpu cover only the
/// measured region; output checks run after it.
struct JobOutcome {
  double wall = 0.0;
  double cpu = 0.0;
  /// Identity of the job's output; every job of a run must reproduce it.
  std::string digest;
  /// Empty when the job passed every output check.
  std::string error;
  ObsDelta obs;
  /// Traced jobs: seconds in each stage span, and their share of the job.
  std::map<std::string, double> stages;
  double spanCoverage = 0.0;
};

/// Measures a job's region: wall and CPU clocks, the obs deltas, and the
/// job's root span when traced.
class JobClock {
 public:
  JobClock(JobOutcome* out, Tracer* tracer, std::uint64_t job);
  /// Closes a root span left open by a job that threw.
  ~JobClock();
  void stop();
  JobClock(const JobClock&) = delete;
  JobClock& operator=(const JobClock&) = delete;

 private:
  JobOutcome* out_;
  Tracer* tracer_;
  int span_ = -1;
  bool stopped_ = false;
  Clock::time_point t0_;
  double cpu0_ = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  /// Smallest and largest sample, when value is their median.
  std::optional<std::pair<double, double>> range;
};

/// Median of @p values as a metric, with its sample count and range.
Metric medianMetric(const std::string& name, const std::string& unit,
                    std::vector<double> values);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the job inputs from the seed.  Called several times; the last
  /// call's inputs are used.
  virtual void setup() = 0;
  /// One job at @p threads.  Stage spans go to @p tracer when non-null.
  virtual JobOutcome job(int threads, Tracer* tracer, std::uint64_t jobId) = 0;
  /// Digest every job must reproduce at this seed, when one is pinned.
  virtual std::optional<std::string> pinnedDigest() const = 0;
  /// Whether an untraced run also checks a single-threaded job's output
  /// against the parallel jobs (a traced run always does).
  virtual bool checkSerialWhenUntraced() const = 0;
  /// Checks and measurements on the last job's output, outside any timing.
  /// Returns its figures (per-layer metrics or informational) keyed by
  /// name; failures go to @p errors.
  virtual std::vector<Metric> finish(std::vector<std::string>* errors) = 0;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  int threads = 4;
  std::string outDir;
};

struct RunResult {
  /// The metrics the mode reports (end-to-end untraced, per-layer traced).
  std::vector<Metric> metrics;
  /// Further figures from the end-of-run checks, printed for people only.
  std::vector<Metric> info;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  /// The output digest every job was checked against, and whether it was
  /// pinned for this seed (else it is the first job's).
  std::string digest;
  bool pinned = false;
};

RunResult runWorkload(Workload& w, const RunOptions& options);

std::unique_ptr<Workload> makeCharacterizeWorkload(std::uint64_t seed,
                                                   const std::string& outDir);
/// The 100k-gate netlist workloads: wide (100 levels x 1,000 gates) or deep
/// (2,000 levels x 50 gates).
std::unique_ptr<Workload> makeStaWorkload(bool deep, std::uint64_t seed);

}  // namespace perfbench
