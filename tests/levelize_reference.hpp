#pragma once
// Reference levelizer: the straightforward vector-of-vectors Kahn
// levelization that sta::Netlist::levelize() replaced with a counting-sort
// CSR.  Kept in tests/ as an oracle (the way dense LU backs the sparse
// solver): it uses only the netlist's public accessors, derives the
// multi-driver losers from netDriver() instead of the arena's private
// record, and must agree with levelize() field by field under both
// StructuralPolicy values.

#include <algorithm>
#include <string>
#include <vector>

#include "sta/netlist.hpp"
#include "support/diagnostic.hpp"

namespace prox::testutil {

inline sta::LevelizeResult referenceLevelize(
    const sta::Netlist& nl, sta::StructuralPolicy policy) {
  using sta::NetId;
  using sta::NodeId;
  using sta::StructuralIssue;
  sta::LevelizeResult out;
  const std::size_t n = nl.nodeCount();

  std::vector<char> degraded(n, 0);
  const auto report = [&](StructuralIssue issue, std::uint32_t degrade) {
    if (policy == sta::StructuralPolicy::Reject) {
      throw support::DiagnosticError(
          support::makeDiagnostic(
              support::StatusCode::StructuralError,
              "Netlist: " + issue.message)
              .withSite("sta.netlist"));
    }
    degraded[degrade] = 1;
    out.issues.push_back(std::move(issue));
  };

  // Multiply-driven nets: every instance that is not its output net's
  // recorded driver lost to an earlier driver (or a primary input).
  for (std::uint32_t i = 0; i < n; ++i) {
    const NetId net = nl.nodeOutput(NodeId(i));
    const NodeId winner = nl.netDriver(net);
    if (winner == NodeId(i)) continue;
    StructuralIssue issue;
    issue.kind = StructuralIssue::Kind::MultiDriver;
    issue.message = "net multiply driven: " + nl.netName(net) +
                    " (instance " + nl.nodeName(NodeId(i)) + " loses to " +
                    (winner.valid() ? nl.nodeName(winner)
                                    : std::string("primary input")) +
                    ")";
    issue.instances.push_back(nl.nodeName(NodeId(i)));
    report(std::move(issue), i);
  }

  std::vector<std::uint32_t> remaining(n, 0);
  std::vector<std::vector<std::uint32_t>> consumers(n);
  std::vector<std::vector<std::uint32_t>> deps(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const NetId net : nl.nodeInputs(NodeId(i))) {
      if (nl.netIsPrimaryInput(net)) continue;
      const NodeId driver = nl.netDriver(net);
      if (!driver.valid()) {
        StructuralIssue issue;
        issue.kind = StructuralIssue::Kind::DanglingInput;
        issue.message = "undriven input net " + nl.netName(net) +
                        " on instance " + nl.nodeName(NodeId(i));
        issue.instances.push_back(nl.nodeName(NodeId(i)));
        report(std::move(issue), i);
        continue;
      }
      consumers[driver.value].push_back(i);
      deps[i].push_back(driver.value);
      ++remaining[i];
    }
  }

  std::vector<char> placedMark(n, 0);
  std::size_t placed = 0;
  std::vector<std::uint32_t> frontier;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) frontier.push_back(i);
  }
  while (true) {
    while (!frontier.empty()) {
      std::vector<std::uint32_t> next;
      for (const std::uint32_t i : frontier) {
        out.order.push_back(NodeId(i));
        placedMark[i] = 1;
        ++placed;
        for (const std::uint32_t c : consumers[i]) {
          if (remaining[c] > 0 && --remaining[c] == 0 && placedMark[c] == 0) {
            next.push_back(c);
          }
        }
      }
      std::sort(next.begin(), next.end());
      out.levelFirst.push_back(static_cast<std::uint32_t>(out.order.size()));
      frontier = std::move(next);
    }
    if (placed == n) break;

    std::uint32_t start = 0;
    while (placedMark[start] != 0) ++start;
    std::vector<std::uint32_t> path;
    std::vector<std::uint32_t> posInPath(n, static_cast<std::uint32_t>(n));
    std::uint32_t cur = start;
    while (posInPath[cur] == n) {
      posInPath[cur] = static_cast<std::uint32_t>(path.size());
      path.push_back(cur);
      for (const std::uint32_t d : deps[cur]) {
        if (placedMark[d] == 0) {
          cur = d;
          break;
        }
      }
    }
    std::vector<std::uint32_t> cycle(path.begin() + posInPath[cur], path.end());
    std::reverse(cycle.begin(), cycle.end());

    StructuralIssue issue;
    issue.kind = cycle.size() == 1 ? StructuralIssue::Kind::SelfLoop
                                   : StructuralIssue::Kind::Cycle;
    for (const std::uint32_t i : cycle) {
      issue.instances.push_back(nl.nodeName(NodeId(i)));
    }
    std::string pathText;
    for (const std::string& name : issue.instances) pathText += name + " -> ";
    pathText += issue.instances.front();
    issue.message = std::string(cycle.size() == 1 ? "self-loop"
                                                  : "combinational cycle") +
                    " detected: " + pathText;
    const std::uint32_t breaker = *std::min_element(cycle.begin(), cycle.end());
    report(std::move(issue), breaker);
    remaining[breaker] = 0;
    frontier.assign(1, breaker);
  }

  out.levelFirst.insert(out.levelFirst.begin(), 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (degraded[i] != 0) {
      out.degradedNodes.push_back(NodeId(i));
      out.degradedInstances.push_back(nl.nodeName(NodeId(i)));
    }
  }
  return out;
}

}  // namespace prox::testutil
