// End-to-end tests of the command-line tools through the shared runtime:
// each case runs a real binary and checks its exit code and artifacts.
// Covers the flag defects the checked flag table fixes (garbage numbers read
// as 0 or as a prefix, a wrapped --max-memory, an unwritable --out aborting
// the process), the spelling rules (`--flag V` and `--flag=V`, bare --stats
// to stdout), and the exit codes CI relies on for the structural ladder and
// the resource budgets.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("prox_tool_cli_test_" + std::to_string(::getpid()) + "_" +
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

/// Result of one tool run: exit code (-signal when killed) and its output.
struct Outcome {
  int code = -1;
  std::string out;
  std::string err;
};

/// Runs `@p tool @p args` inside @p dir, capturing stdout and stderr.
Outcome run(const TempDir& dir, const char* tool, const std::string& args) {
  const std::string out = dir.file("stdout.txt");
  const std::string err = dir.file("stderr.txt");
  const std::string cmd = "cd '" + dir.path.string() + "' && '" + tool +
                          "' " + args + " >'" + out + "' 2>'" + err + "'";
  const int status = std::system(cmd.c_str());
  Outcome o;
  o.code = WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  o.out = slurp(out);
  o.err = slurp(err);
  return o;
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Expects a usage failure (exit 2) whose message names @p flag.
void expectUsage(const TempDir& dir, const char* tool, const std::string& args,
                 const std::string& flag) {
  const Outcome o = run(dir, tool, args);
  EXPECT_EQ(o.code, 2) << tool << " " << args << "\n" << o.err;
  EXPECT_TRUE(contains(o.err, flag)) << tool << " " << args << "\n" << o.err;
  EXPECT_TRUE(contains(o.err, "usage: ")) << o.err;
}

}  // namespace

// --- defects the checked flag table fixes -----------------------------------

TEST(ToolCli, GarbageNumbersAreRejectedNotReadAsZeroOrPrefix) {
  TempDir dir;
  // Each of these used to run: --threads=abc with the default thread count,
  // --max-nodes=1abc as 1, --crash-at=abc as task 0 (a SIGKILL).
  expectUsage(dir, PROX_TOOL_STA_PATH, "--threads=abc", "--threads");
  expectUsage(dir, PROX_TOOL_STA_PATH, "--max-nodes=1abc", "--max-nodes");
  expectUsage(dir, PROX_TOOL_NETLIST_SIM, "--threads 2x", "--threads");
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CELL, "--quick --crash-at=abc",
              "--crash-at");
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CELL, "--quick --progress=soon",
              "--progress");
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CORNERS, "--timeout=abc",
              "--timeout");
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CORNERS, "--shards=4x", "--shards");
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CORNERS, "--inject=crash@0*x",
              "--inject");
}

TEST(ToolCli, MaxMemoryOverflowIsRejected) {
  TempDir dir;
  // 2^44 + 1 MB wrapped to a 1 MiB ceiling and exited 7.
  expectUsage(dir, PROX_TOOL_CHARACTERIZE_CELL,
              "--quick --max-memory=17592186044417", "--max-memory");
  expectUsage(dir, PROX_TOOL_STA_PATH, "--max-memory=17592186044417",
              "--max-memory");
}

TEST(ToolCli, GenCircuitRejectsNegativeAndOverflowingValues) {
  TempDir dir;
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--seed=-1", "--seed");
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--depth=-1", "--depth");
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--width=4294967296", "--width");
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--mix=-1:1:1", "--mix");
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--mix=1:1", "--mix");
  expectUsage(dir, PROX_TOOL_GEN_CIRCUIT, "--mix=1:1:1:1", "--mix");
  // Both spellings of a valued flag give the same circuit.
  const Outcome eq = run(dir, PROX_TOOL_GEN_CIRCUIT, "--seed=3 --depth=2");
  const Outcome sp = run(dir, PROX_TOOL_GEN_CIRCUIT, "--seed 3 --depth 2");
  ASSERT_EQ(eq.code, 0) << eq.err;
  ASSERT_EQ(sp.code, 0) << sp.err;
  EXPECT_EQ(eq.out, sp.out);
  EXPECT_TRUE(contains(eq.out, ".model"));
}

TEST(ToolCli, UnwritableOutExitsOneWithStatsAndTrace) {
  TempDir dir;
  // Used to end in std::terminate (exit 134) with no stats written.
  const Outcome o =
      run(dir, PROX_TOOL_CHARACTERIZE_CELL,
          "--quick --threads=2 --out=" + dir.file("no/such/dir/x.prox") +
              " --stats=s.json --trace t.json");
  EXPECT_EQ(o.code, 1) << o.err;
  EXPECT_TRUE(contains(o.err, "io-error")) << o.err;
  EXPECT_TRUE(contains(slurp(dir.file("s.json")), "spice.tran"));
  EXPECT_TRUE(contains(slurp(dir.file("t.json")), "traceEvents"));
}

// --- spelling rules ------------------------------------------------------------

TEST(ToolCli, BareStatsGoesToStdoutInEveryTool) {
  TempDir dir;
  // characterize_cell used to read the next argument as the stats file, so
  // this run ignored --max-memory and completed.
  const Outcome o = run(dir, PROX_TOOL_CHARACTERIZE_CELL,
                        "--quick --stats --max-memory=1 --out=never.prox");
  EXPECT_EQ(o.code, 7) << o.err;
  EXPECT_TRUE(contains(o.out, "support.budget.exceeded")) << o.out;
  EXPECT_FALSE(fs::exists(dir.file("never.prox")));
}

TEST(ToolCli, SpaceSeparatedValuesAreAcceptedEverywhere) {
  TempDir dir;
  // sta_path accepted only --graph=V before.
  const Outcome o = run(dir, PROX_TOOL_STA_PATH, "--threads 1 --graph cyclic");
  EXPECT_EQ(o.code, 8) << o.err;
  expectUsage(dir, PROX_TOOL_STA_PATH, "--graph sideways", "--graph");
}

TEST(ToolCli, TimeoutExitsSixAndKeepsTheCheckpoint) {
  TempDir dir;
  const Outcome o = run(dir, PROX_TOOL_CHARACTERIZE_CELL,
                        "--quick --threads=1 --timeout=0.05 "
                        "--checkpoint=t.ckpt --out=t.prox --stats=s.json");
  EXPECT_EQ(o.code, 6) << o.err;
  EXPECT_TRUE(contains(o.err, "rerun with --resume")) << o.err;
  EXPECT_TRUE(contains(slurp(dir.file("t.ckpt")), "proxjournal"));
  EXPECT_TRUE(fs::exists(dir.file("s.json")));
  EXPECT_FALSE(fs::exists(dir.file("t.prox")));
}

// --- exit codes CI relies on ------------------------------------------------

// Each command line of ci.yml's "Structural ladder and resource-budget exit
// codes" step, with the exit code and artifacts that step checks.
TEST(ToolCli, StructuralLadderAndBudgetExitCodes) {
  TempDir dir;
  EXPECT_EQ(run(dir, PROX_TOOL_STA_PATH, "--graph=cyclic").code, 8);
  EXPECT_EQ(run(dir, PROX_TOOL_STA_PATH, "--graph=multidriven").code, 8);
  const Outcome degrade =
      run(dir, PROX_TOOL_STA_PATH, "--graph=cyclic --structural=degrade");
  EXPECT_EQ(degrade.code, 0) << degrade.err;
  EXPECT_TRUE(contains(degrade.out, "arc(s) degraded")) << degrade.out;
  EXPECT_EQ(run(dir, PROX_TOOL_STA_PATH, "--max-nodes=1").code, 7);
  EXPECT_EQ(run(dir, PROX_TOOL_NETLIST_SIM, "--max-nodes=2").code, 7);
  EXPECT_EQ(run(dir, PROX_TOOL_CHARACTERIZE_CELL,
                "--quick --max-memory=1 --out=never.prox "
                "--stats=budget.stats.json")
                .code,
            7);
  EXPECT_TRUE(contains(slurp(dir.file("budget.stats.json")),
                       "support.budget.exceeded"));
  EXPECT_FALSE(fs::exists(dir.file("never.prox")));
}
