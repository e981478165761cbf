#include "sta/netlist.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>
#include <string_view>

#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"

namespace prox::sta {

namespace {

constexpr const char* kSite = "sta.netlist";

[[noreturn]] void failStructural(const std::string& msg) {
  PROX_OBS_COUNT("sta.structural.rejects", 1);
  throw support::DiagnosticError(
      support::makeDiagnostic(support::StatusCode::StructuralError, msg)
          .withSite(kSite));
}

/// Counts one structural issue under its kind's counter.  Each kind has its
/// own PROX_OBS_COUNT: the macro binds its counter on first execution.
void countIssue(StructuralIssue::Kind k) {
  switch (k) {
    case StructuralIssue::Kind::Cycle:
      PROX_OBS_COUNT("sta.structural.cycles", 1);
      return;
    case StructuralIssue::Kind::SelfLoop:
      PROX_OBS_COUNT("sta.structural.self_loops", 1);
      return;
    case StructuralIssue::Kind::MultiDriver:
      PROX_OBS_COUNT("sta.structural.multi_drivers", 1);
      return;
    case StructuralIssue::Kind::DanglingInput:
      PROX_OBS_COUNT("sta.structural.dangling_inputs", 1);
      return;
  }
}

// Name index: an open-addressing table (power-of-two size, at most half
// full) whose slots hold only ids into a name array, kInvalidIdValue = free.
// Beside the names sits each one's 32-bit hash: a probe compares it before
// touching the string, and growth re-places ids from it without hashing a
// name again.  Every name is stored once.

std::uint32_t hashName(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

/// Linear probe from @p hash's home slot: the slot holding @p name, or the
/// free slot where it would go.  @p slots must be non-empty.
std::size_t probeName(const std::vector<std::uint32_t>& slots,
                      std::string_view name, std::uint32_t hash,
                      const std::vector<std::string>& names,
                      const std::vector<std::uint32_t>& hashes) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = slots[i];
    if (id == kInvalidIdValue || (hashes[id] == hash && names[id] == name)) {
      return i;
    }
  }
}

/// Id of @p name in @p names; kInvalidIdValue when absent.
std::uint32_t findName(const std::vector<std::uint32_t>& slots,
                       std::string_view name,
                       const std::vector<std::string>& names,
                       const std::vector<std::uint32_t>& hashes) {
  return slots.empty()
             ? kInvalidIdValue
             : slots[probeName(slots, name, hashName(name), names, hashes)];
}

/// Rebuilds @p slots at @p size slots, placing every id by its stored hash.
void placeAll(std::vector<std::uint32_t>& slots, std::size_t size,
              const std::vector<std::uint32_t>& hashes) {
  slots.assign(size, kInvalidIdValue);
  const std::size_t mask = size - 1;
  for (std::size_t id = 0; id < hashes.size(); ++id) {
    std::size_t i = hashes[id] & mask;
    while (slots[i] != kInvalidIdValue) i = (i + 1) & mask;
    slots[i] = static_cast<std::uint32_t>(id);
  }
}

/// Indexes the newest name (id hashes.size() - 1) at @p slot, the free slot
/// its probe ended on, growing the table (2x, 16 at first) instead when it
/// would be more than half full.
void indexLastName(std::vector<std::uint32_t>& slots, std::size_t slot,
                   const std::vector<std::uint32_t>& hashes) {
  if (2 * hashes.size() > slots.size()) {
    placeAll(slots, std::max<std::size_t>(16, 2 * slots.size()), hashes);
  } else {
    slots[slot] = static_cast<std::uint32_t>(hashes.size() - 1);
  }
}

/// Sizes @p slots to hold @p count names at most half full.
void reserveIndex(std::vector<std::uint32_t>& slots, std::size_t count,
                  const std::vector<std::uint32_t>& hashes) {
  const std::size_t size = std::bit_ceil(std::max<std::size_t>(16, 2 * count));
  if (size > slots.size()) placeAll(slots, size, hashes);
}

}  // namespace

const char* structuralKindName(StructuralIssue::Kind k) {
  switch (k) {
    case StructuralIssue::Kind::Cycle: return "cycle";
    case StructuralIssue::Kind::SelfLoop: return "self-loop";
    case StructuralIssue::Kind::MultiDriver: return "multi-driver";
    case StructuralIssue::Kind::DanglingInput: return "dangling-input";
  }
  return "?";
}

void Netlist::reserve(std::size_t nodes, std::size_t nets, std::size_t pins) {
  netNames_.reserve(nets);
  netHash_.reserve(nets);
  netDriver_.reserve(nets);
  netIsPi_.reserve(nets);
  reserveIndex(netIndex_, nets, netHash_);
  nodeNames_.reserve(nodes);
  nodeHash_.reserve(nodes);
  nodeCells_.reserve(nodes);
  nodeOutput_.reserve(nodes);
  pinFirst_.reserve(nodes + 1);
  reserveIndex(nodeIndex_, nodes, nodeHash_);
  pinNets_.reserve(pins);
  arcNode_.reserve(pins);
}

NetId Netlist::internNet(std::string_view name) {
  const std::uint32_t hash = hashName(name);
  std::size_t slot = 0;
  if (!netIndex_.empty()) {
    slot = probeName(netIndex_, name, hash, netNames_, netHash_);
    if (netIndex_[slot] != kInvalidIdValue) return NetId(netIndex_[slot]);
  }
  if (netNames_.size() >= kInvalidIdValue) {
    throw std::length_error("Netlist: net count overflows 32-bit IDs");
  }
  netNames_.emplace_back(name);
  netHash_.push_back(hash);
  indexLastName(netIndex_, slot, netHash_);
  netDriver_.emplace_back();
  netIsPi_.push_back(0);
  return NetId(netNames_.size() - 1);
}

NetId Netlist::addPrimaryInput(std::string_view net) {
  schedule_.result.reset();
  // A driven net already exists, so interning it first writes nothing
  // before the throw.
  const NetId id = internNet(net);
  if (netIsPi_[id.value] != 0 || netDriver_[id.value].valid()) {
    throw std::invalid_argument("Netlist: net already driven: " +
                                std::string(net));
  }
  netIsPi_[id.value] = 1;
  primaryInputs_.push_back(id);
  return id;
}

NodeId Netlist::addInstance(const std::string& name,
                            const characterize::CharacterizedGate& cell,
                            const std::vector<std::string>& inputNets,
                            const std::string& outputNet) {
  if (isDriven(outputNet)) {
    throw std::invalid_argument("Netlist: net multiply driven: " + outputNet);
  }
  return addInstanceLenient(name, cell, inputNets, outputNet);
}

NodeId Netlist::addInstanceLenient(const std::string& name,
                                   const characterize::CharacterizedGate& cell,
                                   const std::vector<std::string>& inputNets,
                                   const std::string& outputNet) {
  const std::vector<std::string_view> pins(inputNets.begin(), inputNets.end());
  return addInstanceLenient(std::string_view(name), cell, pins, outputNet);
}

NodeId Netlist::addInstanceLenient(std::string_view name,
                                   const characterize::CharacterizedGate& cell,
                                   std::span<const std::string_view> inputNets,
                                   std::string_view outputNet) {
  const NodeId node = tryAddInstanceLenient(name, cell, inputNets, outputNet);
  if (!node.valid()) {
    throw std::invalid_argument("Netlist: duplicate instance: " +
                                std::string(name));
  }
  return node;
}

NodeId Netlist::tryAddInstanceLenient(
    std::string_view name, const characterize::CharacterizedGate& cell,
    std::span<const std::string_view> inputNets, std::string_view outputNet) {
  // Every check precedes the first write: a rejected instance leaves
  // neither its name nor any of its nets behind.
  if (nodeCount() >= kInvalidIdValue) {
    throw std::length_error("Netlist: node count overflows 32-bit IDs");
  }
  const std::uint32_t hash = hashName(name);
  std::size_t slot = 0;
  if (!nodeIndex_.empty()) {
    slot = probeName(nodeIndex_, name, hash, nodeNames_, nodeHash_);
    if (nodeIndex_[slot] != kInvalidIdValue) return NodeId();
  }
  if (static_cast<int>(inputNets.size()) != cell.pinCount()) {
    throw std::invalid_argument("Netlist: pin count mismatch on " +
                                std::string(name));
  }
  support::budgetChargeNodes(1, kSite);

  schedule_.result.reset();
  const NodeId node(nodeCount());
  nodeNames_.emplace_back(name);
  nodeHash_.push_back(hash);
  indexLastName(nodeIndex_, slot, nodeHash_);
  nodeCells_.push_back(&cell);
  for (const std::string_view net : inputNets) {
    pinNets_.push_back(internNet(net));
    arcNode_.push_back(node);
  }
  pinFirst_.push_back(static_cast<std::uint32_t>(pinNets_.size()));

  const NetId out = internNet(outputNet);
  nodeOutput_.push_back(out);
  if (netIsPi_[out.value] != 0 || netDriver_[out.value].valid()) {
    // Untrusted input: the first driver keeps the net; this one is recorded
    // for validate()/levelize() to report.
    extraDrivers_.emplace_back(out, node);
  } else {
    netDriver_[out.value] = node;
  }
  return node;
}

NetId Netlist::findNet(std::string_view name) const {
  return NetId(findName(netIndex_, name, netNames_, netHash_));
}

NodeId Netlist::findNode(std::string_view name) const {
  return NodeId(findName(nodeIndex_, name, nodeNames_, nodeHash_));
}

bool Netlist::isDriven(std::string_view net) const {
  const NetId id = findNet(net);
  if (!id.valid()) return false;
  return netIsPi_[id.value] != 0 || netDriver_[id.value].valid();
}

const LevelizeResult& Netlist::levelize(StructuralPolicy policy) const {
  const std::lock_guard<std::mutex> lock(schedule_.mutex);
  // A cached schedule with issues came from Degrade; Reject recomputes it,
  // which throws on the first defect and leaves the cache as it was.
  if (schedule_.result == nullptr ||
      (policy == StructuralPolicy::Reject && !schedule_.result->issues.empty())) {
    schedule_.result =
        std::make_unique<const LevelizeResult>(computeLevels(policy));
  }
  return *schedule_.result;
}

LevelizeResult Netlist::computeLevels(StructuralPolicy policy) const {
  PROX_OBS_SCOPED_TIMER("sta.levelize.seconds");
  PROX_OBS_SPAN("sta.levelize");
  LevelizeResult out;
  const std::size_t n = nodeCount();
  const bool reject = policy == StructuralPolicy::Reject;

  std::vector<char> degraded(n, 0);
  const auto report = [&](StructuralIssue issue, NodeId degrade) {
    countIssue(issue.kind);
    if (reject) {
      failStructural("Netlist: " + issue.message);
    }
    degraded[degrade.value] = 1;
    out.issues.push_back(std::move(issue));
  };

  // Multiply-driven nets recorded at lenient construction.
  for (const auto& [net, loser] : extraDrivers_) {
    StructuralIssue issue;
    issue.kind = StructuralIssue::Kind::MultiDriver;
    issue.message = "net multiply driven: " + netNames_[net.value] +
                    " (instance " + nodeNames_[loser.value] + " loses to " +
                    (netDriver_[net.value].valid()
                         ? nodeNames_[netDriver_[net.value].value]
                         : std::string("primary input")) +
                    ")";
    issue.instances.push_back(nodeNames_[loser.value]);
    report(std::move(issue), loser);
  }

  // Dependency edges, straight off the pin CSR (ID-only), as a counting-sort
  // CSR: node d's consumers are consumers[consFirst[d] .. consFirst[d+1]),
  // ascending.  Dangling inputs either reject or become no-event nets (the
  // consumer is marked degraded).
  const auto driverOf = [&](NetId net) {
    return netIsPi_[net.value] != 0 ? NodeId() : netDriver_[net.value];
  };
  std::vector<std::uint32_t> remaining(n, 0);
  std::vector<std::uint32_t> consFirst(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const NetId net : nodeInputs(NodeId(i))) {
      if (const NodeId driver = driverOf(net); driver.valid()) {
        ++consFirst[driver.value];
        ++remaining[i];
      } else if (netIsPi_[net.value] == 0) {
        StructuralIssue issue;
        issue.kind = StructuralIssue::Kind::DanglingInput;
        issue.message = "undriven input net " + netNames_[net.value] +
                        " on instance " + nodeNames_[i];
        issue.instances.push_back(nodeNames_[i]);
        report(std::move(issue), NodeId(i));
      }
    }
  }
  for (std::size_t d = 0; d < n; ++d) consFirst[d + 1] += consFirst[d];
  // consFirst[d] is now d's end; a backward pin walk leaves it d's start.
  std::vector<std::uint32_t> consumers(consFirst[n]);
  for (std::size_t a = pinNets_.size(); a-- > 0;) {
    if (const NodeId d = driverOf(pinNets_[a]); d.valid()) {
      consumers[--consFirst[d.value]] = arcNode_[a].value;
    }
  }

  // Frontier-by-frontier Kahn: each frontier is one level, appended to the
  // order as soon as it is known (order[head..] is still to expand), so a
  // node is unplaced exactly while remaining[] is nonzero.  When the frontier
  // drains with nodes still unplaced, those nodes sit on or behind a cycle;
  // Degrade breaks the cycle at its lowest-numbered member (a deterministic
  // choice) and resumes, so the loop always terminates with every node placed
  // exactly once.
  std::vector<NodeId>& order = out.order;
  order.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) order.push_back(NodeId(i));
  }
  out.levelFirst.push_back(0);
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> posInPath;  // sized at the first cycle
  std::size_t head = 0;
  std::uint32_t scan = 0;  // every node below scan is placed
  while (true) {
    while (head < order.size()) {
      const std::size_t end = order.size();
      for (; head < end; ++head) {
        const std::uint32_t i = order[head].value;
        for (std::uint32_t k = consFirst[i]; k < consFirst[i + 1]; ++k) {
          const std::uint32_t c = consumers[k];
          if (remaining[c] > 0 && --remaining[c] == 0) next.push_back(c);
        }
      }
      // Declaration order within a level keeps the schedule (and thus the
      // chunking and the deterministic fault-plan keying) independent of
      // discovery order.
      std::sort(next.begin(), next.end());
      for (const std::uint32_t c : next) order.push_back(NodeId(c));
      next.clear();
      out.levelFirst.push_back(static_cast<std::uint32_t>(end));
    }
    if (order.size() == n) break;

    // Stuck: extract one cycle by walking unplaced predecessors (first in
    // pin order) from the lowest-numbered unplaced node.  Every unplaced node
    // has an unplaced dependency, so the walk must revisit a node.
    // posInPath is a sparse set: cur is on the path only when its entry
    // points back at it, so stale entries from earlier walks need no reset.
    while (remaining[scan] == 0) ++scan;
    posInPath.resize(n);
    std::vector<std::uint32_t> path;
    std::uint32_t cur = scan;
    while (posInPath[cur] >= path.size() || path[posInPath[cur]] != cur) {
      posInPath[cur] = static_cast<std::uint32_t>(path.size());
      path.push_back(cur);
      for (const NetId net : nodeInputs(NodeId(cur))) {
        const NodeId driver = driverOf(net);
        if (driver.valid() && remaining[driver.value] != 0) {
          cur = driver.value;
          break;
        }
      }
    }
    // path[posInPath[cur]..] is the cycle in predecessor order; reverse it
    // so the message reads in signal-flow (driver -> consumer) order.
    std::vector<std::uint32_t> cycle(path.begin() + posInPath[cur], path.end());
    std::reverse(cycle.begin(), cycle.end());

    StructuralIssue issue;
    issue.kind = cycle.size() == 1 ? StructuralIssue::Kind::SelfLoop
                                   : StructuralIssue::Kind::Cycle;
    issue.message = cycle.size() == 1 ? "self-loop detected: "
                                      : "combinational cycle detected: ";
    for (const std::uint32_t i : cycle) {
      issue.instances.push_back(nodeNames_[i]);
      issue.message += nodeNames_[i] + " -> ";
    }
    issue.message += issue.instances.front();

    const NodeId breaker(*std::min_element(cycle.begin(), cycle.end()));
    report(std::move(issue), breaker);
    PROX_OBS_COUNT("sta.structural.loop_breaks", 1);
    remaining[breaker.value] = 0;
    order.push_back(breaker);
  }

  for (std::uint32_t i = 0; i < n; ++i) {
    if (degraded[i] != 0) {
      out.degradedNodes.push_back(NodeId(i));
      out.degradedInstances.push_back(nodeNames_[i]);
    }
  }
  PROX_OBS_COUNT("sta.graph.nodes_levelized", order.size());
  PROX_OBS_COUNT("sta.graph.levels", out.levelCount());
  return out;
}

std::vector<StructuralIssue> Netlist::validate() const {
  return levelize(StructuralPolicy::Degrade).issues;
}

std::vector<NodeId> Netlist::topologicalOrder() const {
  return levelize(StructuralPolicy::Reject).order;
}

}  // namespace prox::sta
