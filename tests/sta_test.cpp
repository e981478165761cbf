// STA-layer tests: netlist structure, topological ordering, delay-calc
// semantics, and classic-vs-proximity propagation.

#include <gtest/gtest.h>

#include <limits>

#include "sta/batch_eval.hpp"
#include "sta/blif.hpp"
#include "sta/timing_graph.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

TEST(Netlist, RejectsDuplicateInstanceNames) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  EXPECT_THROW(nl.addInstance("u1", cell, {"a", "b"}, "z"),
               std::invalid_argument);
}

TEST(Netlist, RejectsMultipleDrivers) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  EXPECT_THROW(nl.addInstance("u2", cell, {"a", "b"}, "y"),
               std::invalid_argument);
  EXPECT_THROW(nl.addPrimaryInput("y"), std::invalid_argument);
}

TEST(Netlist, RejectsPinCountMismatch) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  EXPECT_THROW(nl.addInstance("u1", cell, {"a"}, "y"), std::invalid_argument);
}

TEST(Netlist, NameIndexRoundTripsEveryNameInInsertionOrder) {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  const auto& inv = lib.require(cells::GateType::Inverter, 1);
  sta::Netlist nl;
  nl.addPrimaryInput("in");
  // 100k instances and 100k+1 nets: both indexes grow many times over.
  constexpr std::uint32_t kNodes = 100000;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::string prev = i == 0 ? "in" : "w" + std::to_string(i - 1);
    const sta::NodeId id = nl.addInstance("g" + std::to_string(i), inv, {prev},
                                          "w" + std::to_string(i));
    ASSERT_EQ(id.value, i);
  }
  ASSERT_EQ(nl.nodeCount(), kNodes);
  ASSERT_EQ(nl.netCount(), kNodes + 1);
  EXPECT_EQ(nl.findNet("in").value, 0u);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    const std::string node = "g" + std::to_string(i);
    const std::string net = "w" + std::to_string(i);
    ASSERT_EQ(nl.findNode(node).value, i);
    ASSERT_EQ(nl.findNet(net).value, i + 1);
    ASSERT_EQ(nl.nodeName(sta::NodeId(i)), node);
    ASSERT_EQ(nl.netName(sta::NetId(i + 1)), net);
  }
  for (const std::string miss :
       {"", "g", "w", "g100000", "w100000", "g-1", "in ", "G7", "g07"}) {
    EXPECT_FALSE(nl.findNode(miss).valid()) << miss;
    EXPECT_FALSE(nl.findNet(miss).valid()) << miss;
  }
  // The two namespaces are separate: net names are not instances.
  EXPECT_FALSE(nl.findNode("w5").valid());
  EXPECT_FALSE(nl.findNet("g5").valid());
}

TEST(Netlist, RejectedInstanceLeavesNoNameBehind) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  const std::size_t nodes = nl.nodeCount();
  const std::size_t nets = nl.netCount();

  EXPECT_THROW(nl.addInstanceLenient("u1", cell, {"a", "fresh_in"}, "z"),
               std::invalid_argument);
  EXPECT_THROW(nl.addInstanceLenient("u2", cell, {"a"}, "z"),
               std::invalid_argument);
  EXPECT_EQ(nl.nodeCount(), nodes);
  EXPECT_EQ(nl.netCount(), nets);
  EXPECT_EQ(nl.findNode("u1").value, 0u);
  EXPECT_FALSE(nl.findNode("u2").valid());
  EXPECT_FALSE(nl.findNet("fresh_in").valid());
  EXPECT_FALSE(nl.findNet("z").valid());

  // The rejected name stays free for a well-formed instance.
  EXPECT_EQ(nl.addInstance("u2", cell, {"a", "y"}, "z").value, nodes);
  EXPECT_EQ(nl.findNode("u2").value, nodes);
  EXPECT_EQ(nl.findNet("z").value, nets);
}

TEST(Netlist, ReserveMidBuildKeepsEveryNameFindable) {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  const auto& inv = lib.require(cells::GateType::Inverter, 1);
  // Names are views into one buffer, neither NUL-terminated nor owned.
  const std::string buffer =
      "in w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 g0 g1 g2 g3 g4 g5 g6 g7 g8 g9";
  const std::string_view text(buffer);
  const auto net = [&](int i) { return text.substr(3 + 3 * i, 2); };
  const auto node = [&](int i) { return text.substr(33 + 3 * i, 2); };
  sta::Netlist nl;
  nl.addPrimaryInput(text.substr(0, 2));
  for (int i = 0; i < 10; ++i) {
    if (i == 4) nl.reserve(5000, 5000, 5000);  // re-places the first ids
    const std::string_view pin = i == 0 ? text.substr(0, 2) : net(i - 1);
    EXPECT_EQ(nl.addInstanceLenient(node(i), inv,
                                    std::span<const std::string_view>(&pin, 1),
                                    net(i))
                  .value,
              static_cast<std::uint32_t>(i));
  }
  nl.reserve(1, 1, 1);  // never shrinks
  ASSERT_EQ(nl.netCount(), 11u);
  EXPECT_EQ(nl.findNet("in").value, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(nl.findNode(node(i)).value, static_cast<std::uint32_t>(i));
    EXPECT_EQ(nl.findNet(net(i)).value, static_cast<std::uint32_t>(i + 1));
    EXPECT_EQ(nl.netName(sta::NetId(static_cast<std::uint32_t>(i + 1))),
              net(i));
  }
  EXPECT_FALSE(nl.findNet(text.substr(3, 1)).valid());  // "w", a prefix
  EXPECT_FALSE(nl.findNet("").valid());
}

TEST(Netlist, TryAddLeavesATakenNameUntouched) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  const std::string_view pins[] = {"a", "b"};
  EXPECT_EQ(nl.tryAddInstanceLenient("u1", cell, pins, "y").value, 0u);
  const std::size_t nets = nl.netCount();
  const std::string_view fresh[] = {"a", "fresh_in"};
  EXPECT_FALSE(nl.tryAddInstanceLenient("u1", cell, fresh, "z").valid());
  EXPECT_EQ(nl.nodeCount(), 1u);
  EXPECT_EQ(nl.netCount(), nets);
  EXPECT_FALSE(nl.findNet("fresh_in").valid());
  EXPECT_FALSE(nl.findNet("z").valid());
  // The throwing form reports the same taken name as a duplicate.
  EXPECT_THROW(nl.addInstanceLenient("u1", cell, fresh, "z"),
               std::invalid_argument);
  // A second driver is recorded, not refused.
  EXPECT_EQ(nl.tryAddInstanceLenient("u2", cell, pins, "y").value, 1u);
  ASSERT_EQ(nl.validate().size(), 1u);
  EXPECT_EQ(nl.validate()[0].kind, sta::StructuralIssue::Kind::MultiDriver);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  // Add the consumer first to make the sort do real work.
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  const auto order = nl.topologicalOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(nl.nodeName(order[0]), "u1");
  EXPECT_EQ(nl.nodeName(order[1]), "u2");
}

TEST(Netlist, DetectsUndrivenInput) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "floating"}, "y");
  EXPECT_THROW(nl.topologicalOrder(), std::runtime_error);
}

TEST(Netlist, DetectsCycle) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "y2"}, "y1");
  nl.addInstance("u2", cell, {"a", "y1"}, "y2");
  EXPECT_THROW(nl.topologicalOrder(), std::runtime_error);
}

/// Evaluates one arc: a batch of one.
std::optional<Arrival> evaluateOne(
    const characterize::CharacterizedGate& cell,
    const std::vector<std::optional<Arrival>>& pins, DelayMode mode) {
  const sta::BatchArc arc{&cell, &pins};
  sta::BatchArcResult result;
  sta::evaluateGateBatch({&arc, 1}, mode, {}, {&result, 1});
  return result.arrival;
}

TEST(DelayCalc, NoSwitchingPinsYieldsNoOutput) {
  const auto& cell = testutil::nand2Model();
  const auto out =
      evaluateOne(cell, {std::nullopt, std::nullopt}, DelayMode::Classic);
  EXPECT_FALSE(out.has_value());
}

TEST(DelayCalc, SingleSwitchingPinPropagates) {
  const auto& cell = testutil::nand2Model();
  Arrival a{1e-9, 300e-12, Edge::Rising};
  const auto out = evaluateOne(cell, {a, std::nullopt}, DelayMode::Classic);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->edge, Edge::Falling);  // NAND inverts
  EXPECT_NEAR(out->time,
              1e-9 + cell.singles->at(0, Edge::Rising).delay(300e-12), 1e-15);
  EXPECT_GT(out->slope, 0.0);
}

TEST(DelayCalc, MixedDirectionsThrow) {
  const auto& cell = testutil::nand2Model();
  Arrival r{0.0, 300e-12, Edge::Rising};
  Arrival f{0.0, 300e-12, Edge::Falling};
  EXPECT_THROW(evaluateOne(cell, {r, f}, DelayMode::Classic),
               std::invalid_argument);
}

TEST(DelayCalc, ProximityDiffersFromClassicWhenClose) {
  const auto& cell = testutil::nand2Model();
  Arrival a{0.0, 500e-12, Edge::Falling};
  Arrival b{20e-12, 100e-12, Edge::Falling};
  const auto classic = evaluateOne(cell, {a, b}, DelayMode::Classic);
  const auto prox = evaluateOne(cell, {a, b}, DelayMode::Proximity);
  ASSERT_TRUE(classic && prox);
  EXPECT_NE(classic->time, prox->time);
  // Falling pair: parallel pullup reinforcement makes proximity earlier.
  EXPECT_LT(prox->time, classic->time);
}

TEST(Analyzer, PropagatesThroughTwoLevels) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");   // falls
  nl.addInstance("u2", cell, {"y1", "c"}, "y2");  // c stable: y2 rises

  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.setInputArrival("b", {50e-12, 300e-12, Edge::Rising});
  ta.run();

  const auto y1 = ta.arrival("y1");
  ASSERT_TRUE(y1.has_value());
  EXPECT_EQ(y1->edge, Edge::Falling);
  const auto y2 = ta.arrival("y2");
  ASSERT_TRUE(y2.has_value());
  EXPECT_EQ(y2->edge, Edge::Rising);
  EXPECT_GT(y2->time, y1->time);
  // c never switches.
  EXPECT_FALSE(ta.arrival("c").has_value());
}

TEST(Analyzer, RejectsArrivalOnNonPrimaryInput) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  sta::TimingAnalyzer ta(nl, DelayMode::Classic);
  EXPECT_THROW(ta.setInputArrival("y", {0.0, 1e-10, Edge::Rising}),
               std::invalid_argument);
}

/// The invalid_argument message setInputArrival throws for @p arrival on
/// primary input "a" (by name and by id, which must agree); empty when it
/// accepts the arrival.
std::string arrivalRejection(Arrival arrival) {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  sta::Netlist nl;
  const sta::NetId a = nl.addPrimaryInput("a");
  nl.addInstance("u1", lib.require(cells::GateType::Inverter, 1), {"a"}, "y");
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  std::string byName, byId;
  try {
    ta.setInputArrival("a", arrival);
  } catch (const std::invalid_argument& e) {
    byName = e.what();
  }
  try {
    ta.setInputArrival(a, arrival);
  } catch (const std::invalid_argument& e) {
    byId = e.what();
  }
  EXPECT_EQ(byName, byId);
  return byName;
}

struct BadArrival {
  const char* name;
  Arrival arrival;
  const char* field;  ///< what the message must name
};

// Print a case by its name: gtest's default dumps the struct's bytes, whose
// pointers and padding differ from run to run, so the listed test names would too.
void PrintTo(const BadArrival& c, std::ostream* os) { *os << c.name; }

class AnalyzerBadArrival : public ::testing::TestWithParam<BadArrival> {};

TEST_P(AnalyzerBadArrival, IsRejectedNamingTheNet) {
  const std::string msg = arrivalRejection(GetParam().arrival);
  EXPECT_NE(msg.find(GetParam().field), std::string::npos) << msg;
  EXPECT_NE(msg.find(" on a"), std::string::npos) << msg;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Analyzer, AnalyzerBadArrival,
    ::testing::Values(
        BadArrival{"NaNTime", {kNaN, 100e-12, Edge::Rising}, "arrival time"},
        BadArrival{"PosInfTime", {kInf, 100e-12, Edge::Rising}, "arrival time"},
        BadArrival{"NegInfTime", {-kInf, 100e-12, Edge::Falling},
                   "arrival time"},
        BadArrival{"NaNSlope", {0.0, kNaN, Edge::Rising}, "slope"},
        BadArrival{"PosInfSlope", {0.0, kInf, Edge::Rising}, "slope"},
        BadArrival{"NegInfSlope", {0.0, -kInf, Edge::Falling}, "slope"},
        BadArrival{"NegativeSlope", {0.0, -1e-12, Edge::Falling}, "slope"}),
    [](const ::testing::TestParamInfo<BadArrival>& info) {
      return std::string(info.param.name);
    });

TEST(Analyzer, AcceptsFiniteTimesAndNonNegativeSlopes) {
  EXPECT_EQ(arrivalRejection({-1e-9, 0.0, Edge::Rising}), "");
  EXPECT_EQ(arrivalRejection({1e-9, 3e-9, Edge::Falling}), "");
}

TEST(Analyzer, MixedCellTypesPropagate) {
  // A NAND2 feeding a NOR2: the falling NAND output is a non-controlling
  // transition for the NOR (its stable side input sits at 0), so the NOR
  // output rises -- two different dominance senses in one path.
  const auto& nand = testutil::nand2Model();
  static const characterize::CharacterizedGate nor =
      characterize::characterizeGate(testutil::norSpec(2),
                                     testutil::fastConfig());
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("s");
  nl.addInstance("u1", nand, {"a", "b"}, "y1");   // rising a,b -> y1 falls
  nl.addInstance("u2", nor, {"y1", "s"}, "y2");   // falling y1 -> y2 rises

  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 250e-12, Edge::Rising});
  ta.setInputArrival("b", {30e-12, 250e-12, Edge::Rising});
  ta.run();
  const auto y1 = ta.arrival("y1");
  const auto y2 = ta.arrival("y2");
  ASSERT_TRUE(y1 && y2);
  EXPECT_EQ(y1->edge, Edge::Falling);
  EXPECT_EQ(y2->edge, Edge::Rising);
  EXPECT_GT(y2->time, y1->time);
}

TEST(Analyzer, ClassicVsProximityEndToEnd) {
  // A NAND3 with three near-simultaneous rising inputs: the proximity path
  // reports a *later* output (series stack slowdown) than classic STA.
  const auto& cell = testutil::nand3Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b", "c"}, "y");

  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode);
    ta.setInputArrival("a", {0.0, 200e-12, Edge::Rising});
    ta.setInputArrival("b", {10e-12, 200e-12, Edge::Rising});
    ta.setInputArrival("c", {20e-12, 200e-12, Edge::Rising});
    ta.run();
    return ta.arrival("y");
  };
  const auto classic = analyze(DelayMode::Classic);
  const auto prox = analyze(DelayMode::Proximity);
  ASSERT_TRUE(classic && prox);
  EXPECT_GT(prox->time, classic->time);
}

}  // namespace
