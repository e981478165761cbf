// Golden end-to-end BLIF -> STA check: a checked-in 30-gate benchmark
// (tests/data/golden30.blif, 5 layers x 6 gates) analyzed in both delay
// modes against hand-verified arrivals.
//
// Verification strategy:
//   * Outputs o0 and o4 are pure 5-stage inverter chains (from inputs a
//     and d).  The test recomputes their arrival by explicit single-input
//     table composition -- independent of the STA engine's gate-evaluation
//     and levelization machinery -- and requires an exact match in BOTH
//     modes (a single switching pin leaves nothing for proximity to do).
//   * The multi-input outputs (NAND/NOR stacks with close arrivals) are
//     pinned to golden constants for each mode, and proximity must differ
//     from classic exactly where the paper predicts: everywhere at least
//     one gate on the path saw temporally proximate transitions.
//
// The analytic gate library is built from exactly-representable rational
// constants (no libm), so these doubles are reproducible across toolchains
// and the tolerances below can be attosecond-tight.

#include <gtest/gtest.h>

#include <string>

#include "sta/blif.hpp"
#include "sta/timing_graph.hpp"
#include "support/diagnostic.hpp"
#include "tool/runtime.hpp"

namespace {

using namespace prox;
using sta::DelayMode;
using wave::Edge;

constexpr double kTau0 = 200e-12;  // primary-input transition time

const sta::GateLibrary& library() {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  return lib;
}

std::string goldenPath() {
  return std::string(PROX_TEST_DATA_DIR) + "/golden30.blif";
}

sta::TimingAnalyzer analyze(const sta::Netlist& nl, DelayMode mode) {
  sta::TimingAnalyzer ta(nl, mode);
  ta.setInputArrival("a", {0.0, kTau0, Edge::Rising});
  ta.setInputArrival("b", {20e-12, kTau0, Edge::Rising});
  ta.setInputArrival("c", {40e-12, kTau0, Edge::Rising});
  ta.setInputArrival("d", {60e-12, kTau0, Edge::Rising});
  ta.run();
  return ta;
}

/// Arrival of a k-stage inverter chain whose input rises at @p t0, by
/// direct composition of the characterized single-input tables.
sta::Arrival inverterChain(double t0, int stages) {
  const auto* inv = library().find(cells::GateType::Inverter, 1);
  EXPECT_NE(inv, nullptr);
  sta::Arrival a{t0, kTau0, Edge::Rising};
  for (int i = 0; i < stages; ++i) {
    const auto& m = inv->singles->at(0, a.edge);
    a = {a.time + m.delay(a.slope), m.transition(a.slope),
         a.edge == Edge::Rising ? Edge::Falling : Edge::Rising};
  }
  return a;
}

class BlifStaGolden : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    netlist_ = new sta::Netlist;
    const auto summary = sta::readBlifFile(goldenPath(), library(), netlist_);
    ASSERT_EQ(summary.modelName, "golden30");
    ASSERT_EQ(summary.gates, 30u);
    ASSERT_EQ(summary.inputs.size(), 4u);
    ASSERT_EQ(summary.outputs.size(), 6u);
  }
  static void TearDownTestSuite() {
    delete netlist_;
    netlist_ = nullptr;
  }
  static sta::Netlist* netlist_;
};

sta::Netlist* BlifStaGolden::netlist_ = nullptr;

TEST_F(BlifStaGolden, StructureLevelizesToFiveLayers) {
  EXPECT_TRUE(netlist_->validate().empty());
  const auto res = netlist_->levelize(sta::StructuralPolicy::Reject);
  EXPECT_EQ(res.levelCount(), 5u);
  EXPECT_EQ(res.order.size(), 30u);
}

TEST_F(BlifStaGolden, InverterChainsMatchHandComposition) {
  // o0: a -> x0 -> y0 -> z0 -> w0 -> o0.  o4: the same chain from d.
  const sta::Arrival expectA = inverterChain(0.0, 5);
  const sta::Arrival expectD = inverterChain(60e-12, 5);
  EXPECT_EQ(expectA.edge, Edge::Falling);  // odd number of inversions
  // The chains differ only by the 60 ps input stagger.
  EXPECT_DOUBLE_EQ(expectD.time - expectA.time, 60e-12);
  EXPECT_DOUBLE_EQ(expectD.slope, expectA.slope);

  for (DelayMode mode : {DelayMode::Proximity, DelayMode::Classic}) {
    const auto ta = analyze(*netlist_, mode);
    const auto o0 = ta.arrival("o0");
    const auto o4 = ta.arrival("o4");
    ASSERT_TRUE(o0 && o4);
    EXPECT_DOUBLE_EQ(o0->time, expectA.time);
    EXPECT_DOUBLE_EQ(o0->slope, expectA.slope);
    EXPECT_EQ(o0->edge, expectA.edge);
    EXPECT_DOUBLE_EQ(o4->time, expectD.time);
    EXPECT_DOUBLE_EQ(o4->slope, expectD.slope);
  }
}

TEST_F(BlifStaGolden, ProximityArrivalsMatchGolden) {
  const auto ta = analyze(*netlist_, DelayMode::Proximity);
  struct Expect {
    const char* net;
    double time, slope;
  };
  const Expect golden[] = {
      {"o0", 5.970785647630692e-10, 1.1832688376307487e-10},
      {"o1", 1.4088389386325905e-09, 3.1652704089757202e-10},
      {"o2", 8.9992617119783561e-10, 2.5781407092108133e-10},
      {"o3", 1.3632745306210709e-09, 3.1770863949922622e-10},
      {"o4", 6.570785647630692e-10, 1.1832688376307487e-10},
      {"o5", 7.2525749898049986e-10, 2.1406458948570155e-10},
  };
  for (const auto& e : golden) {
    const auto a = ta.arrival(e.net);
    ASSERT_TRUE(a.has_value()) << e.net;
    EXPECT_NEAR(a->time, e.time, 1e-18) << e.net;
    EXPECT_NEAR(a->slope, e.slope, 1e-18) << e.net;
    EXPECT_EQ(a->edge, Edge::Falling) << e.net;  // 5 inverting layers
  }
}

TEST_F(BlifStaGolden, ClassicArrivalsMatchGolden) {
  const auto ta = analyze(*netlist_, DelayMode::Classic);
  struct Expect {
    const char* net;
    double time, slope;
  };
  const Expect golden[] = {
      {"o0", 5.970785647630692e-10, 1.1832688376307487e-10},
      {"o1", 1.3139482814153325e-09, 2.5780788515294259e-10},
      {"o2", 8.9358935238793489e-10, 2.3247790220193562e-10},
      {"o3", 1.261002061178442e-09, 2.4202603520825508e-10},
      {"o4", 6.570785647630692e-10, 1.1832688376307487e-10},
      {"o5", 7.2525749898049986e-10, 1.9782265269896012e-10},
  };
  for (const auto& e : golden) {
    const auto a = ta.arrival(e.net);
    ASSERT_TRUE(a.has_value()) << e.net;
    EXPECT_NEAR(a->time, e.time, 1e-18) << e.net;
    EXPECT_NEAR(a->slope, e.slope, 1e-18) << e.net;
    EXPECT_EQ(a->edge, Edge::Falling) << e.net;
  }
}

TEST_F(BlifStaGolden, ProximityDisagreesWithClassicOnStackedPaths) {
  const auto prox = analyze(*netlist_, DelayMode::Proximity);
  const auto classic = analyze(*netlist_, DelayMode::Classic);
  // Multi-input paths with close arrivals: the modes must disagree.  The
  // NAND-heavy paths (o1, o3) see series-stack slowdown, so proximity is
  // later than classic.
  for (const char* net : {"o1", "o2", "o3"}) {
    const auto p = prox.arrival(net);
    const auto c = classic.arrival(net);
    ASSERT_TRUE(p && c) << net;
    EXPECT_NE(p->time, c->time) << net;
  }
  EXPECT_GT(prox.arrival("o1")->time, classic.arrival("o1")->time);
  EXPECT_GT(prox.arrival("o3")->time, classic.arrival("o3")->time);
  // o5's final NOR sees its inputs far apart (delay window closed), but the
  // wider transition window still reshapes the slope.
  EXPECT_DOUBLE_EQ(prox.arrival("o5")->time, classic.arrival("o5")->time);
  EXPECT_GT(prox.arrival("o5")->slope, classic.arrival("o5")->slope);
}

// --- Instance naming for multiply-driven nets --------------------------------

// Three inverter covers all drive net x.
constexpr const char* kTripleDriver = R"(.model dup
.inputs a b c
.outputs x
.names a x
0 1
.names b x
0 1
.names c x
0 1
.end
)";

TEST(BlifInstanceNames, MultiplyDrivenNetIsUniquifiedAndRejected) {
  // '#' opens a comment in BLIF text, so a net literally named "x#2" can only
  // come from the netlist the reader extends.  Instance and net names are
  // separate namespaces: the net must not push the uniquifier past x#2.
  sta::Netlist nl;
  nl.addPrimaryInput("x#2");
  const auto summary = sta::readBlifString(kTripleDriver, library(), &nl);
  EXPECT_EQ(summary.gates, 3u);
  ASSERT_EQ(nl.nodeCount(), 3u);
  const sta::NetId x = nl.findNet("x");
  const char* const names[] = {"x", "x#2", "x#3"};
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nl.nodeName(sta::NodeId(i)), names[i]);
    EXPECT_EQ(nl.findNode(names[i]).value, i);
    EXPECT_EQ(nl.nodeOutput(sta::NodeId(i)), x);
  }
  EXPECT_TRUE(nl.netIsPrimaryInput(nl.findNet("x#2")));
  EXPECT_EQ(nl.netDriver(x).value, 0u);

  const auto issues = nl.validate();
  ASSERT_EQ(issues.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(issues[i].kind, sta::StructuralIssue::Kind::MultiDriver);
    EXPECT_EQ(issues[i].instances, std::vector<std::string>{names[i + 1]});
    EXPECT_EQ(issues[i].message,
              std::string("net multiply driven: x (instance ") + names[i + 1] +
                  " loses to x)");
  }

  // Reject (the analyzer's default) stops at the first loser with a
  // StructuralError, which the tools turn into exit 8.
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  try {
    ta.run();
    ADD_FAILURE() << "Reject must not analyze a multiply-driven net";
  } catch (const support::DiagnosticError& e) {
    EXPECT_EQ(e.code(), support::StatusCode::StructuralError);
    EXPECT_EQ(e.diagnostic().message,
              "Netlist: net multiply driven: x (instance x#2 loses to x)");
    EXPECT_EQ(tool::exitCodeFor(e.code()), tool::kExitStructural);
  }
}

TEST(BlifInstanceNames, UniquifierSkipsInstancesAlreadyInTheNetlist) {
  sta::Netlist nl;
  nl.addPrimaryInput("p");
  nl.addInstance("x#2", *library().find(cells::GateType::Inverter, 1), {"p"},
                 "q");
  sta::readBlifString(kTripleDriver, library(), &nl);
  ASSERT_EQ(nl.nodeCount(), 4u);
  EXPECT_EQ(nl.nodeName(sta::NodeId(1u)), "x");
  EXPECT_EQ(nl.nodeName(sta::NodeId(2u)), "x#3");
  EXPECT_EQ(nl.nodeName(sta::NodeId(3u)), "x#4");
}

}  // namespace
