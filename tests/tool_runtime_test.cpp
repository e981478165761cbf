// Unit tests for the command-line tool runtime (src/tool/runtime.hpp): the
// checked flag table (conversions, ranges, both spellings, generated usage)
// and the run scope (exit-code mapping, cancel/budget scopes, and the
// stats/trace epilogue on every unwind path).

#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/report.hpp"
#include "support/bounded.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "tool/runtime.hpp"

namespace fs = std::filesystem;
using namespace prox;
using support::StatusCode;
using tool::Flags;
using tool::UsageError;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("prox_tool_runtime_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Parses @p args; returns the UsageError message, or "" on success.
std::string parseError(const Flags& flags,
                       const std::vector<std::string_view>& args) {
  try {
    flags.parse(args);
    return "";
  } catch (const UsageError& e) {
    EXPECT_EQ(e.code(), StatusCode::ParseError);
    return e.diagnostic().message;
  }
}

/// Runs @p tool on @p args (program name prepended) with @p body.
int runTool(tool::Tool& tool, std::vector<std::string> args,
            const std::function<int(tool::Run&)>& body) {
  args.insert(args.begin(), "tool_runtime_test");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return tool.run(static_cast<int>(argv.size()), argv.data(), body);
}

int returnOk(tool::Run&) { return 0; }

}  // namespace

// --- flag table --------------------------------------------------------------

TEST(ToolFlags, BothSpellingsOfAValuedFlag) {
  int n = 0;
  std::string out;
  Flags flags;
  flags.integer("--n", "N", &n).text("--out", "FILE", &out);
  EXPECT_EQ(parseError(flags, {"--n=5", "--out", "a.prox"}), "");
  EXPECT_EQ(n, 5);
  EXPECT_EQ(out, "a.prox");
  EXPECT_EQ(parseError(flags, {"--n", "7", "--out=b.prox"}), "");
  EXPECT_EQ(n, 7);
  EXPECT_EQ(out, "b.prox");
  // The last occurrence wins; absent flags keep the caller's default.
  EXPECT_EQ(parseError(flags, {"--n=1", "--n=2"}), "");
  EXPECT_EQ(n, 2);
}

TEST(ToolFlags, IntegersAreWholeTokenAndRangeChecked) {
  int threads = 3;
  Flags flags;
  flags.integer("--threads", "N", &threads, 0);
  for (const char* bad : {"abc", "1abc", "", "1.5", "-1", "2147483648",
                          "99999999999999999999"}) {
    const std::string arg = std::string("--threads=") + bad;
    const std::string msg = parseError(flags, {arg});
    EXPECT_NE(msg.find("--threads"), std::string::npos) << arg << ": " << msg;
  }
  EXPECT_EQ(threads, 3) << "a rejected value must not be stored";
  EXPECT_EQ(parseError(flags, {"--threads=2147483647"}), "");
  EXPECT_EQ(threads, INT_MAX);
}

TEST(ToolFlags, IntegerRangeFollowsTheTargetType) {
  std::uint32_t depth = 0;
  std::uint64_t seed = 0;
  Flags flags;
  flags.integer("--depth", "N", &depth).integer("--seed", "N", &seed);
  EXPECT_NE(parseError(flags, {"--depth=-1"}), "");
  EXPECT_NE(parseError(flags, {"--depth=4294967296"}), "");
  EXPECT_EQ(parseError(flags, {"--depth=4294967295"}), "");
  EXPECT_EQ(depth, UINT32_MAX);
  EXPECT_NE(parseError(flags, {"--seed=-1"}), "");
  EXPECT_NE(parseError(flags, {"--seed=18446744073709551616"}), "");
  EXPECT_EQ(parseError(flags, {"--seed=9223372036854775807"}), "");
  EXPECT_EQ(seed, static_cast<std::uint64_t>(INT64_MAX));
}

TEST(ToolFlags, RealsAreFiniteAndBounded) {
  double timeout = 0.0;
  double backoff = 0.25;
  double deadline = 0.0;
  Flags flags;
  flags.real("--timeout", "SECS", &timeout, 0.0, /*strict=*/true)
      .real("--backoff", "SECS", &backoff, 0.0)
      .real("--deadline", "SECS", &deadline);
  for (const char* bad : {"abc", "2s", "nan", "inf", "1e999", "0", "-1"}) {
    const std::string arg = std::string("--timeout=") + bad;
    EXPECT_NE(parseError(flags, {arg}).find("--timeout"), std::string::npos)
        << arg;
  }
  EXPECT_EQ(parseError(flags, {"--timeout=2.5"}), "");
  EXPECT_EQ(timeout, 2.5);
  EXPECT_EQ(parseError(flags, {"--backoff=0"}), "");
  EXPECT_EQ(backoff, 0.0);
  EXPECT_NE(parseError(flags, {"--backoff=-0.5"}), "");
  EXPECT_EQ(parseError(flags, {"--deadline=-3"}), "");
  EXPECT_EQ(deadline, -3.0);
}

TEST(ToolFlags, MalformedCommandLinesAreUsageErrors) {
  bool quick = false;
  std::string out;
  Flags flags;
  flags.toggle("--quick", &quick).text("--out", "FILE", &out);
  EXPECT_NE(parseError(flags, {"--bogus"}).find("--bogus"), std::string::npos);
  EXPECT_NE(parseError(flags, {"positional"}), "");
  EXPECT_NE(parseError(flags, {"--quick=1"}).find("--quick"),
            std::string::npos);
  EXPECT_NE(parseError(flags, {"--out"}).find("--out"), std::string::npos);
  EXPECT_NE(parseError(flags, {"--out="}).find("--out"), std::string::npos);
  // Exact names only: a prefix or extension of a flag is not that flag.
  EXPECT_NE(parseError(flags, {"--qui"}), "");
  EXPECT_NE(parseError(flags, {"--quicker"}), "");
  EXPECT_FALSE(quick);
  EXPECT_EQ(parseError(flags, {"--quick"}), "");
  EXPECT_TRUE(quick);
}

TEST(ToolFlags, OptionalValueIsBareOrEquals) {
  bool stats = false;
  std::string path;
  Flags flags;
  flags.optionalValue("--stats", "FILE", &stats, &path);
  EXPECT_EQ(parseError(flags, {"--stats"}), "");
  EXPECT_TRUE(stats);
  EXPECT_EQ(path, "");
  EXPECT_EQ(parseError(flags, {"--stats=s.json"}), "");
  EXPECT_EQ(path, "s.json");
  EXPECT_NE(parseError(flags, {"--stats="}), "");
  // `--stats FILE` is bare --stats followed by a stray argument.
  EXPECT_NE(parseError(flags, {"--stats", "s.json"}).find("s.json"),
            std::string::npos);
}

TEST(ToolFlags, ChoiceAndCustomParsersNameTheFlag) {
  enum class Policy { Reject, Degrade };
  Policy policy = Policy::Reject;
  long long shard = -1;
  Flags flags;
  flags
      .choice("--policy", &policy,
              {{"reject", Policy::Reject}, {"degrade", Policy::Degrade}})
      .custom("--shard", "N", [&](std::string_view v) {
        // A checked parser's own DiagnosticError becomes a usage error.
        shard = support::parseIntChecked(v, "test", "shard");
      });
  EXPECT_EQ(parseError(flags, {"--policy", "degrade"}), "");
  EXPECT_EQ(policy, Policy::Degrade);
  const std::string msg = parseError(flags, {"--policy=maybe"});
  EXPECT_NE(msg.find("--policy"), std::string::npos);
  EXPECT_NE(msg.find("reject|degrade"), std::string::npos);
  EXPECT_NE(parseError(flags, {"--shard=x"}).find("--shard"),
            std::string::npos);
  EXPECT_EQ(parseError(flags, {"--shard=4"}), "");
  EXPECT_EQ(shard, 4);
}

TEST(ToolFlags, UsageIsGeneratedFromTheTable) {
  bool quick = false;
  int n = 0;
  tool::Tool tool(tool::kAllFeatures);
  tool.toggle("--quick", &quick).integer("--threads", "N", &n, 0);
  const std::string usage = tool.usage("prog");
  for (const char* item :
       {"usage: prog", "[--quick]", "[--threads N]", "[--timeout SECS]",
        "[--max-memory MB]", "[--max-nodes N]", "[--stats[=FILE]]",
        "[--trace FILE]"}) {
    EXPECT_NE(usage.find(item), std::string::npos) << item << "\n" << usage;
  }
  for (std::size_t start = 0; start < usage.size();) {
    const std::size_t nl = usage.find('\n', start);
    EXPECT_LE(nl - start, 78u);
    start = nl + 1;
  }
  // Features the tool does not select register no flags.
  tool::Tool bare(0);
  EXPECT_EQ(bare.usage("prog"), "usage: prog\n");
}

// --- run scope ---------------------------------------------------------------

TEST(ToolRun, ExitCodeForEveryStatusCode) {
  for (int c = static_cast<int>(StatusCode::Ok);
       c <= static_cast<int>(StatusCode::Internal); ++c) {
    const auto code = static_cast<StatusCode>(c);
    int expected = tool::kExitError;
    switch (code) {
      case StatusCode::Ok: expected = 0; break;
      case StatusCode::Cancelled:
      case StatusCode::DeadlineExceeded: expected = 6; break;
      case StatusCode::ResourceExhausted: expected = 7; break;
      case StatusCode::StructuralError: expected = 8; break;
      default: break;
    }
    EXPECT_EQ(tool::exitCodeFor(code), expected)
        << support::statusCodeName(code);
    if (code == StatusCode::Ok) continue;
    // The same mapping for a DiagnosticError escaping the tool body.
    tool::Tool t(0);
    EXPECT_EQ(runTool(t, {},
                      [code](tool::Run&) -> int {
                        throw support::DiagnosticError(
                            support::makeDiagnostic(code, "boom"));
                      }),
              expected)
        << support::statusCodeName(code);
  }
}

TEST(ToolRun, BodyOutcomesMapToTheExitTable) {
  tool::Tool t(0);
  EXPECT_EQ(runTool(t, {}, returnOk), 0);
  EXPECT_EQ(runTool(t, {}, [](tool::Run&) { return 3; }), 3);
  EXPECT_EQ(runTool(t, {},
                    [](tool::Run&) -> int {
                      throw std::runtime_error("foreign failure");
                    }),
            tool::kExitError);
  EXPECT_EQ(runTool(t, {},
                    [](tool::Run&) -> int {
                      tool::failUsage("--a requires --b");
                    }),
            tool::kExitUsage);
  // A bad command line never reaches the body.
  bool ran = false;
  EXPECT_EQ(runTool(t, {"--nope"},
                    [&](tool::Run&) {
                      ran = true;
                      return 0;
                    }),
            tool::kExitUsage);
  EXPECT_FALSE(ran);
}

TEST(ToolRun, MaxMemoryConvertsMegabytesWithoutOverflow) {
  tool::Tool t(tool::kBudget);
  std::size_t seen = 0;
  auto capture = [&](tool::Run& run) {
    seen = run.options().budget.maxRssBytes;
    return 0;
  };
  EXPECT_EQ(runTool(t, {"--max-memory=3"}, capture), 0);
  EXPECT_EQ(seen, std::size_t{3} << 20);
  // 2^44 + 1 MB: the shift used to wrap this to a 1 MiB ceiling.
  EXPECT_EQ(runTool(t, {"--max-memory=17592186044417"}, capture),
            tool::kExitUsage);
  EXPECT_EQ(runTool(t, {"--max-memory=0"}, capture), tool::kExitUsage);
  EXPECT_EQ(runTool(t, {"--max-nodes=1abc"}, capture), tool::kExitUsage);
}

TEST(ToolRun, BudgetAndCancelScopesAreInstalled) {
  tool::Tool t(tool::kCancel | tool::kBudget);
  EXPECT_EQ(runTool(t, {"--max-nodes", "4"},
                    [](tool::Run&) {
                      support::budgetChargeNodes(5, "test");
                      return 0;
                    }),
            tool::kExitBudget);
  EXPECT_EQ(runTool(t, {"--timeout=0.01"},
                    [](tool::Run& run) {
                      EXPECT_EQ(support::currentCancelToken(), run.cancel());
                      std::this_thread::sleep_for(std::chrono::milliseconds(30));
                      support::pollCancellation("test");
                      return 0;
                    }),
            tool::kExitCancelled);
  EXPECT_EQ(support::currentCancelToken(), nullptr) << "scope must unwind";
  EXPECT_EQ(runTool(t, {"--timeout=abc"}, returnOk), tool::kExitUsage);
}

TEST(ToolRun, StatsAndTraceAreWrittenOnTheUnwindPath) {
  TempDir dir;
  const std::string stats = dir.file("s.json");
  const std::string trace = dir.file("t.json");
  tool::Tool t(tool::kAllFeatures);
  EXPECT_EQ(runTool(t, {"--stats=" + stats, "--trace", trace, "--max-nodes=1"},
                    [](tool::Run&) {
                      support::budgetChargeNodes(2, "test");
                      return 0;
                    }),
            tool::kExitBudget);
  ASSERT_TRUE(fs::exists(stats));
  ASSERT_TRUE(fs::exists(trace));
  std::istringstream is(slurp(stats));
  EXPECT_NO_THROW(obs::parseJson(is));
  EXPECT_NE(slurp(stats).find("support.budget.exceeded"), std::string::npos);
  EXPECT_NE(slurp(trace).find("traceEvents"), std::string::npos);

  // A foreign exception unwinds the same way.
  fs::remove(stats);
  fs::remove(trace);
  EXPECT_EQ(runTool(t, {"--stats=" + stats, "--trace=" + trace},
                    [](tool::Run&) -> int {
                      throw std::runtime_error("foreign failure");
                    }),
            tool::kExitError);
  EXPECT_TRUE(fs::exists(stats));
  EXPECT_TRUE(fs::exists(trace));
}

TEST(ToolRun, UnwritableStatsFailsOnlyAnOtherwiseCleanRun) {
  TempDir dir;
  const std::string bad = "--stats=" + dir.file("missing/dir/s.json");
  tool::Tool t(tool::kStats);
  EXPECT_EQ(runTool(t, {bad}, returnOk), tool::kExitError);
  EXPECT_EQ(runTool(t, {bad}, [](tool::Run&) { return 5; }), 5);
}
