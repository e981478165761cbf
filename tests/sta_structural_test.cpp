// Structural netlist validation: cycle detection with the offending path
// named, multi-driver and dangling-net checks, and the
// DelayCalcOptions::structural degradation ladder exercised end-to-end
// through TimingAnalyzer at both settings (Reject throws a typed
// StructuralError; Degrade completes with the defect tallied in
// structuralIssues()/degradedArcNames()), plus a property test holding the
// CSR levelize() to the reference levelizer in levelize_reference.hpp, and
// the schedule memo: one levelization per unchanged netlist, dropped by every
// mutator, shared by concurrent analyzers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

#include "levelize_reference.hpp"
#include "obs/registry.hpp"
#include "sta/synth.hpp"
#include "sta/timing_graph.hpp"
#include "support/diagnostic.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using sta::DelayMode;
using sta::Netlist;
using sta::StructuralIssue;
using sta::StructuralPolicy;
using support::DiagnosticError;
using support::StatusCode;
using wave::Edge;

using Kind = StructuralIssue::Kind;

// u1 -> u2 -> u3 -> u1 ring, plus a clean u0 so degraded runs still have
// something valid to analyze.
Netlist cyclicNetlist() {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u0", cell, {"a", "b"}, "y0");
  nl.addInstance("u1", cell, {"a", "y3"}, "y1");
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  nl.addInstance("u3", cell, {"y2", "a"}, "y3");
  return nl;
}

const StructuralIssue* findIssue(const std::vector<StructuralIssue>& issues,
                                 Kind kind) {
  const auto it = std::find_if(issues.begin(), issues.end(),
                               [&](const auto& i) { return i.kind == kind; });
  return it == issues.end() ? nullptr : &*it;
}

TEST(StructuralValidation, CleanNetlistHasNoIssues) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  EXPECT_TRUE(nl.validate().empty());
  const auto res = nl.levelize(StructuralPolicy::Reject);
  ASSERT_EQ(res.levelCount(), 2u);
  EXPECT_TRUE(res.issues.empty());
  EXPECT_TRUE(res.degradedInstances.empty());
}

TEST(StructuralValidation, CycleIsNamedInPathOrder) {
  const auto issues = cyclicNetlist().validate();
  const auto* cycle = findIssue(issues, Kind::Cycle);
  ASSERT_NE(cycle, nullptr);
  // Signal-flow order: u2 drives u3 drives u1 drives u2.
  EXPECT_NE(cycle->message.find("u2 -> u3 -> u1 -> u2"), std::string::npos)
      << cycle->message;
  EXPECT_EQ(cycle->instances,
            (std::vector<std::string>{"u2", "u3", "u1"}));
}

TEST(StructuralValidation, RejectPolicyThrowsTypedStructuralError) {
  try {
    cyclicNetlist().levelize(StructuralPolicy::Reject);
    FAIL() << "expected DiagnosticError(StructuralError)";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::StructuralError);
    EXPECT_EQ(e.diagnostic().site, "sta.netlist");
    EXPECT_NE(e.diagnostic().message.find("combinational cycle"),
              std::string::npos);
  }
}

TEST(StructuralValidation, DegradeBreaksLoopAtLowestNumberedMember) {
  const auto res = cyclicNetlist().levelize(StructuralPolicy::Degrade);
  // Every instance placed exactly once -- levelization terminated.
  EXPECT_EQ(res.order.size(), 4u);
  ASSERT_FALSE(res.degradedInstances.empty());
  // u1 is the lowest-numbered cycle member, so the break lands there.
  EXPECT_EQ(res.degradedInstances.front(), "u1");
  EXPECT_NE(findIssue(res.issues, Kind::Cycle), nullptr);
}

TEST(StructuralValidation, SelfLoopIsItsOwnKind) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "y1"}, "y1");
  const auto issues = nl.validate();
  const auto* loop = findIssue(issues, Kind::SelfLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_NE(loop->message.find("u1 -> u1"), std::string::npos);
  EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
}

TEST(StructuralValidation, LenientMultiDriverIsReportedNotThrown) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  nl.addInstanceLenient("u2", cell, {"b", "a"}, "y");  // second driver of y
  const auto issues = nl.validate();
  const auto* md = findIssue(issues, Kind::MultiDriver);
  ASSERT_NE(md, nullptr);
  EXPECT_NE(md->message.find("multiply driven"), std::string::npos);
  EXPECT_NE(md->message.find("y"), std::string::npos);
  // Reject still refuses the graph; strict addInstance still throws.
  EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
  EXPECT_THROW(nl.addInstance("u3", cell, {"a", "b"}, "y"),
               std::invalid_argument);
}

TEST(StructuralValidation, DanglingInputIsNamed) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "floating"}, "y1");
  const auto issues = nl.validate();
  const auto* d = findIssue(issues, Kind::DanglingInput);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("floating"), std::string::npos);
  EXPECT_EQ(d->instances, std::vector<std::string>{"u1"});
  // Degrade treats the dangling net as no-event and still levelizes.
  const auto res = nl.levelize(StructuralPolicy::Degrade);
  ASSERT_EQ(res.levelCount(), 1u);
  EXPECT_EQ(res.degradedInstances, std::vector<std::string>{"u1"});
}

TEST(StructuralValidation, KindNamesAreStable) {
  EXPECT_STREQ(sta::structuralKindName(Kind::Cycle), "cycle");
  EXPECT_STREQ(sta::structuralKindName(Kind::SelfLoop), "self-loop");
  EXPECT_STREQ(sta::structuralKindName(Kind::MultiDriver), "multi-driver");
  EXPECT_STREQ(sta::structuralKindName(Kind::DanglingInput),
               "dangling-input");
}

// --- degradation ladder through the analyzer --------------------------------

TEST(StructuralLadder, AnalyzerRejectsDefectiveGraphByDefault) {
  const Netlist nl = cyclicNetlist();
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);  // default: Reject
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  EXPECT_THROW(ta.run(), DiagnosticError);
}

TEST(StructuralLadder, AnalyzerDegradeCompletesAndTalliesTheDamage) {
  const Netlist nl = cyclicNetlist();
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  // One switching input only: the broken loop must not manufacture
  // mixed-direction events at any gate.
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.run();

  // The clean side of the graph still produced real analysis.
  EXPECT_TRUE(ta.arrival("y0").has_value());
  // The loop-break is visible in all three reporting channels.
  EXPECT_GE(ta.degradedArcs(), 1u);
  const auto& names = ta.degradedArcNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "u1"), names.end());
  EXPECT_NE(findIssue(ta.structuralIssues(), Kind::Cycle), nullptr);
}

TEST(StructuralLadder, DegradeOnCleanGraphReportsNothing) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.run();
  EXPECT_TRUE(ta.structuralIssues().empty());
  EXPECT_TRUE(ta.degradedArcNames().empty());
  EXPECT_EQ(ta.degradedArcs(), 0u);
}

// --- CSR levelize vs the reference levelizer ---------------------------------

const sta::GateLibrary& analyticLib() {
  static const sta::GateLibrary library = sta::analyticLibrary();
  return library;
}

/// A small gen_circuit netlist (seed-sized, up to 6 layers x 7 gates) with
/// defects injected deterministically from the seed: self-loops, back edges
/// to same-or-deeper layers (cycles), undriven inputs, and outputs that
/// re-drive a gate net or a primary input.  Instances are declared in a
/// seed-shuffled order so the within-level sort does real work.  Every
/// fourth seed injects nothing.
Netlist defectiveCircuit(std::uint64_t seed) {
  sta::SynthSpec spec;
  spec.seed = seed;
  spec.depth = 2 + static_cast<std::uint32_t>(seed % 5);
  spec.width = 2 + static_cast<std::uint32_t>((seed / 5) % 6);
  spec.primaryInputs = 3;
  const std::uint64_t percent = (seed % 4) * 4;
  const auto roll = [&](std::uint64_t gate, std::uint64_t slot,
                        std::uint64_t mod) {
    return sta::synthRandom(seed, gate, 1000 + slot) % mod;
  };
  const auto gateNet = [&](std::uint64_t index) {
    return "n" + std::to_string(index / spec.width) + "_" +
           std::to_string(index % spec.width);
  };
  const sta::GateLibrary& library = analyticLib();

  Netlist nl;
  for (std::uint32_t k = 0; k < spec.primaryInputs; ++k) {
    nl.addPrimaryInput("pi" + std::to_string(k));
  }
  const std::uint64_t gates = spec.gateCount();
  std::vector<std::uint64_t> declOrder(gates);
  std::iota(declOrder.begin(), declOrder.end(), 0);
  for (std::uint64_t i = gates; i-- > 1;) {
    std::swap(declOrder[i], declOrder[roll(i, 0, i + 1)]);
  }
  for (const std::uint64_t index : declOrder) {
    const std::uint64_t layer = index / spec.width;
    const sta::SynthGate gate = sta::synthGateAt(spec, index);
    std::vector<std::string> inputs;
    for (const std::uint32_t src : gate.sources) {
      inputs.push_back(layer == 0
                           ? "pi" + std::to_string(src)
                           : gateNet((layer - 1) * spec.width + src));
    }
    std::string output = gateNet(index);
    const std::uint64_t pin = roll(index, 1, inputs.size());
    if (roll(index, 2, 100) < percent) {
      inputs[pin] = output;  // self-loop
    } else if (roll(index, 3, 100) < percent) {
      // Back edge into this layer or a deeper one.
      const std::uint64_t first = layer * spec.width;
      inputs[pin] = gateNet(first + roll(index, 4, gates - first));
    }
    if (roll(index, 5, 100) < percent) {
      inputs[roll(index, 6, inputs.size())] = "dangle" + std::to_string(index);
    }
    if (roll(index, 7, 100) < percent) {
      output = roll(index, 8, 4) == 0 ? "pi0" : gateNet(roll(index, 9, gates));
    }
    nl.addInstanceLenient(
        "u" + std::to_string(index),
        library.require(gate.type, static_cast<int>(inputs.size())), inputs,
        output);
  }
  return nl;
}

std::vector<std::uint32_t> idValues(const std::vector<sta::NodeId>& ids) {
  std::vector<std::uint32_t> v;
  for (const sta::NodeId id : ids) v.push_back(id.value);
  return v;
}

void expectSameLevelization(const sta::LevelizeResult& got,
                            const sta::LevelizeResult& want) {
  EXPECT_EQ(idValues(got.order), idValues(want.order));
  EXPECT_EQ(got.levelFirst, want.levelFirst);
  ASSERT_EQ(got.issues.size(), want.issues.size());
  for (std::size_t i = 0; i < got.issues.size(); ++i) {
    EXPECT_EQ(got.issues[i].kind, want.issues[i].kind) << "issue " << i;
    EXPECT_EQ(got.issues[i].message, want.issues[i].message);
    EXPECT_EQ(got.issues[i].instances, want.issues[i].instances);
  }
  EXPECT_EQ(idValues(got.degradedNodes), idValues(want.degradedNodes));
  EXPECT_EQ(got.degradedInstances, want.degradedInstances);
}

/// The Reject outcome of @p levelize: the thrown diagnostic's message, or
/// empty when the graph levelized.
template <class Fn>
std::string rejectMessage(Fn&& levelize, sta::LevelizeResult* result) {
  try {
    *result = levelize();
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::StructuralError);
    EXPECT_EQ(e.diagnostic().site, "sta.netlist");
    return e.diagnostic().message;
  }
  return {};
}

TEST(LevelizeOracle, CsrLevelizeMatchesReferenceOnDefectiveCircuits) {
  std::set<Kind> kindsSeen;
  int cleanSeeds = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Netlist nl = defectiveCircuit(seed);

    const sta::LevelizeResult degraded =
        nl.levelize(StructuralPolicy::Degrade);
    expectSameLevelization(
        degraded, testutil::referenceLevelize(nl, StructuralPolicy::Degrade));
    ASSERT_EQ(degraded.order.size(), nl.nodeCount());
    for (const StructuralIssue& issue : degraded.issues) {
      kindsSeen.insert(issue.kind);
    }
    if (degraded.issues.empty()) ++cleanSeeds;

    sta::LevelizeResult got, want;
    const std::string gotMsg = rejectMessage(
        [&] { return nl.levelize(StructuralPolicy::Reject); }, &got);
    const std::string wantMsg = rejectMessage(
        [&] {
          return testutil::referenceLevelize(nl, StructuralPolicy::Reject);
        },
        &want);
    EXPECT_EQ(gotMsg, wantMsg);
    EXPECT_EQ(gotMsg.empty(), degraded.issues.empty());
    if (gotMsg.empty()) expectSameLevelization(got, want);
  }
  // The injection must reach every defect kind and leave clean seeds too.
  EXPECT_EQ(kindsSeen, (std::set<Kind>{Kind::Cycle, Kind::SelfLoop,
                                      Kind::MultiDriver, Kind::DanglingInput}));
  EXPECT_GE(cleanSeeds, 15);
}

// --- one levelization per netlist --------------------------------------------

/// A clean 4-layer x 6-gate gen_circuit netlist over the analytic library.
sta::SynthSpec smallSpec() {
  sta::SynthSpec spec;
  spec.seed = 15;
  spec.depth = 4;
  spec.width = 6;
  spec.primaryInputs = 5;
  return spec;
}

Netlist smallCircuit() {
  Netlist nl;
  sta::buildNetlist(smallSpec(), analyticLib(), &nl);
  return nl;
}

std::uint64_t nodesLevelized() {
  return obs::counter("sta.graph.nodes_levelized").value();
}

/// Expects @p body to levelize exactly @p nodes nodes (checked only when
/// the stats are compiled in).
template <class Fn>
void expectLevelized(std::uint64_t nodes, Fn&& body) {
  const std::uint64_t before = nodesLevelized();
  body();
#if PROX_ENABLE_STATS
  EXPECT_EQ(nodesLevelized() - before, nodes);
#else
  (void)before;
  (void)nodes;
#endif
}

sta::TimingAnalyzer analyzed(const Netlist& nl, DelayMode mode) {
  sta::TimingAnalyzer ta(nl, mode);
  for (const auto& [net, arrival] : sta::synthInputArrivals(smallSpec())) {
    ta.setInputArrival(net, arrival);
  }
  ta.run();
  return ta;
}

TEST(LevelizeCache, UnchangedNetlistLevelizesOnce) {
  const Netlist nl = smallCircuit();
  const sta::LevelizeResult* first = nullptr;
  expectLevelized(nl.nodeCount(),
                  [&] { first = &nl.levelize(StructuralPolicy::Reject); });
  expectLevelized(0, [&] {
    // A clean schedule serves both policies, and every run() reuses it.
    EXPECT_EQ(&nl.levelize(StructuralPolicy::Reject), first);
    EXPECT_EQ(&nl.levelize(StructuralPolicy::Degrade), first);
    EXPECT_TRUE(nl.validate().empty());
    EXPECT_EQ(nl.topologicalOrder().size(), nl.nodeCount());
    analyzed(nl, DelayMode::Proximity);
    analyzed(nl, DelayMode::Classic);
  });
  EXPECT_EQ(first->levelCount(), smallSpec().depth);
}

TEST(LevelizeCache, FirstRunLevelizesAndLaterRunsReuse) {
  const Netlist nl = smallCircuit();
  expectLevelized(nl.nodeCount(), [&] { analyzed(nl, DelayMode::Classic); });
  expectLevelized(0, [&] {
    sta::TimingAnalyzer ta = analyzed(nl, DelayMode::Proximity);
    ta.run();
  });
}

TEST(LevelizeCache, MovedNetlistKeepsItsSchedule) {
  Netlist nl = smallCircuit();
  const sta::LevelizeResult* first = &nl.levelize(StructuralPolicy::Reject);
  const std::size_t levels = first->levelCount();
  Netlist moved = std::move(nl);
  expectLevelized(0, [&] {
    EXPECT_EQ(&moved.levelize(StructuralPolicy::Reject), first);
  });
  EXPECT_EQ(first->levelCount(), levels);
}

TEST(LevelizeCache, EveryMutatorDropsTheSchedule) {
  const auto& nand2 = analyticLib().require(cells::GateType::Nand, 2);
  const auto& inv = analyticLib().require(cells::GateType::Inverter, 1);
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u0", nand2, {"a", "c"}, "y0");  // c dangles for now
  EXPECT_EQ(nl.levelize(StructuralPolicy::Degrade).issues.size(), 1u);

  // addPrimaryInput: c becomes a primary input, so u0 is clean.
  nl.addPrimaryInput("c");
  expectLevelized(1, [&] {
    EXPECT_TRUE(nl.levelize(StructuralPolicy::Degrade).issues.empty());
  });

  // Each instance mutator adds a level to the chain.
  nl.addInstance("u1", inv, {"y0"}, "y1");
  expectLevelized(2, [&] {
    EXPECT_EQ(nl.levelize(StructuralPolicy::Reject).levelCount(), 2u);
  });
  nl.addInstanceLenient("u2", inv, std::vector<std::string>{"y1"}, "y2");
  expectLevelized(3, [&] {
    EXPECT_EQ(nl.levelize(StructuralPolicy::Reject).levelCount(), 3u);
  });
  const std::string_view y2[] = {"y2"};
  nl.addInstanceLenient(std::string_view("u3"), inv, y2, "y3");
  expectLevelized(4, [&] {
    EXPECT_EQ(nl.levelize(StructuralPolicy::Reject).levelCount(), 4u);
  });
  const std::string_view y3[] = {"y3"};
  ASSERT_TRUE(nl.tryAddInstanceLenient("u4", inv, y3, "y4").valid());
  expectLevelized(5, [&] {
    EXPECT_EQ(nl.levelize(StructuralPolicy::Reject).levelCount(), 5u);
  });
  // A taken name writes nothing; the schedule still holds every instance.
  EXPECT_FALSE(nl.tryAddInstanceLenient("u4", inv, y3, "y5").valid());
  EXPECT_EQ(nl.levelize(StructuralPolicy::Reject).order.size(), 5u);
}

TEST(LevelizeCache, RejectOnADefectiveNetlistThrowsOnEveryCall) {
  const Netlist nl = cyclicNetlist();
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
  }
  // A cached Degrade schedule carries the issues; Reject still throws.
  const sta::LevelizeResult& degraded = nl.levelize(StructuralPolicy::Degrade);
  EXPECT_FALSE(degraded.issues.empty());
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
    sta::TimingAnalyzer ta(nl, DelayMode::Classic);
    EXPECT_THROW(ta.run(), DiagnosticError);
  }
  EXPECT_EQ(&nl.levelize(StructuralPolicy::Degrade), &degraded);
}

TEST(LevelizeCache, AnalyzersOnTwoThreadsShareOneScheduleAndAgree) {
  for (const DelayMode mode : {DelayMode::Classic, DelayMode::Proximity}) {
    const Netlist nl = smallCircuit();  // unlevelized: the threads race
    std::optional<sta::TimingAnalyzer> a, b;
    expectLevelized(nl.nodeCount(), [&] {
      std::thread ta([&] { a.emplace(analyzed(nl, mode)); });
      std::thread tb([&] { b.emplace(analyzed(nl, mode)); });
      ta.join();
      tb.join();
    });
    std::size_t switching = 0;
    for (std::uint32_t n = 0; n < nl.netCount(); ++n) {
      const auto x = a->arrival(sta::NetId(n));
      const auto y = b->arrival(sta::NetId(n));
      ASSERT_EQ(x.has_value(), y.has_value()) << nl.netName(sta::NetId(n));
      if (!x) continue;
      ++switching;
      EXPECT_EQ(std::memcmp(&x->time, &y->time, sizeof x->time), 0);
      EXPECT_EQ(std::memcmp(&x->slope, &y->slope, sizeof x->slope), 0);
      EXPECT_EQ(x->edge, y->edge);
    }
    EXPECT_GT(switching, nl.nodeCount() / 2);
  }
}

}  // namespace
