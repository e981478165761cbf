// Structural netlist validation: cycle detection with the offending path
// named, multi-driver and dangling-net checks, and the
// DelayCalcOptions::structural degradation ladder exercised end-to-end
// through TimingAnalyzer at both settings (Reject throws a typed
// StructuralError; Degrade completes with the defect tallied in
// structuralIssues()/degradedArcNames()), plus a property test holding the
// CSR levelize() to the reference levelizer in levelize_reference.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "levelize_reference.hpp"
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
  static const sta::GateLibrary library = sta::analyticLibrary();

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

}  // namespace
