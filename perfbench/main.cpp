// perfbench: runs one workload of the end-to-end benchmark and prints its
// metrics.  Normally driven by run.py, which builds this package first:
//
//   perfbench --workload characterize_nand3|sta_wide_100k|sta_deep_100k
//             --seed N --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// Jobs use min(4, nproc) worker threads.
//
// Output: one "metric" line per figure (name, value, unit, sample count),
// an "env" stamp, any failed checks, and as the last line a JSON object
// {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
// output check passed, 1 when one failed, 2 on bad usage, 3 when the build
// is not an optimized Release build.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "simd/dispatch.hpp"
#include "support/bounded.hpp"

namespace {

using perfbench::Metric;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "          [--out-dir DIR] [--git-sha SHA]\n",
               argv0);
  return 2;
}

/// JSON string body: the stamp fields are plain identifiers, but a compiler
/// version or SHA must never break the line.
std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string utcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  namespace pb = perfbench;
  pb::RunOptions o;
  std::string gitSha = "unknown";
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  o.threads = std::min(4, nproc);
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = prox::support::parseCountChecked(value, SIZE_MAX, "perfbench",
                                                  "--seed");
        haveSeed = true;
      } else if (flag == "--seconds") {
        o.seconds = prox::support::parseFiniteDoubleChecked(value, "perfbench",
                                                             "--seconds");
        haveSeconds = o.seconds > 0.0 && o.seconds <= 3600.0;
      } else if (flag == "--trace") {
        haveTrace = value == "0" || value == "1";
        o.trace = value == "1";
      } else if (flag == "--out-dir") {
        o.outDir = value;
      } else if (flag == "--git-sha") {
        gitSha = value;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return usage(argv[0]);
  }
  if (!haveSeed || !haveSeconds || !haveTrace) return usage(argv[0]);

  bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "%s: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 argv[0], PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::unique_ptr<pb::Workload> workload;
  if (o.workload == "characterize_nand3") {
    if (o.outDir.empty()) o.outDir = ".";
    workload = pb::makeCharacterizeWorkload(o.seed, o.outDir);
  } else if (o.workload == "sta_wide_100k" || o.workload == "sta_deep_100k") {
    workload = pb::makeStaWorkload(o.workload == "sta_deep_100k", o.seed);
  } else {
    std::fprintf(stderr, "%s: unknown workload '%s'\n", argv[0],
                 o.workload.c_str());
    return 2;
  }
  if (!o.outDir.empty()) std::filesystem::create_directories(o.outDir);

  std::printf(
      "env {\"git_sha\":\"%s\",\"utc\":\"%s\",\"nproc\":%d,\"threads\":%d,"
      "\"compiler\":\"%s\",\"build_type\":\"%s\",\"simd\":\"%s\"}\n",
      jsonEscape(gitSha).c_str(),
      utcNow().c_str(), nproc, o.threads, jsonEscape(PERFBENCH_COMPILER).c_str(),
      PERFBENCH_BUILD_TYPE,
      prox::simd::pathName(prox::simd::activePath()));
  std::printf("workload %s seed %llu trace %d: closed loop, 1 client, %d "
              "worker threads, %.0f s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, o.threads, o.seconds);
  std::fflush(stdout);

  const pb::RunResult r = pb::runWorkload(*workload, o);

  const auto printMetric = [](const char* kind, const Metric& m) {
    std::printf("%s %-34s %.6g %s (n=%zu", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    if (m.range && m.samples > 1) {
      std::printf(", min %.6g, max %.6g", m.range->first, m.range->second);
    }
    std::printf(")\n");
  };
  for (const Metric& m : r.metrics) printMetric("metric", m);
  for (const Metric& m : r.info) printMetric("info  ", m);
  std::printf("info   %-34s %.6g ratio (n=%zu)\n", "fail_frac",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              r.attempted);
  std::printf("digest %s (%s)\n", r.digest.c_str(),
              r.pinned ? "pinned for this seed" : "first job's; not pinned");
  for (const std::string& e : r.errors) std::printf("FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + r.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + r.metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.failed == 0 ? 0 : 1;
}
