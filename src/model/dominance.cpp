#include "model/dominance.hpp"

#include <algorithm>

namespace prox::model {

double predictedCrossing(const InputEvent& ev, const SingleInputModelSet& singles) {
  return ev.tRef + singles.at(ev.pin, ev.edge).delay(ev.tau);
}

DominanceSense dominanceSense(cells::GateType type, wave::Edge inputEdge) {
  // Controlling value: 0 for NAND/inverter, 1 (Vdd) for NOR.  A transition
  // toward the controlling value engages the parallel bank (earliest wins);
  // toward the non-controlling value it completes the series stack (latest
  // wins).
  const bool towardControlling = type == cells::GateType::Nor
                                     ? inputEdge == wave::Edge::Rising
                                     : inputEdge == wave::Edge::Falling;
  return towardControlling ? DominanceSense::EarliestFirst
                           : DominanceSense::LatestFirst;
}

void dominanceOrder(std::span<const InputEvent> events,
                    const SingleInputModelSet& singles, DominanceSense sense,
                    std::vector<std::size_t>& order,
                    std::vector<double>& crossing) {
  const std::size_t n = events.size();
  order.resize(n);
  if (n < 2) {
    // Nothing to rank; the caller looks up the lone input's model itself.
    if (n == 1) order[0] = 0;
    return;
  }
  crossing.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    crossing[i] = predictedCrossing(events[i], singles);
  }
  // Stable insertion sort: an index moves left only past strictly less
  // dominant ones, so equal crossings keep event order -- the permutation
  // std::stable_sort yields for the same strict weak order.
  const bool earliest = sense == DominanceSense::EarliestFirst;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = crossing[i];
    std::size_t j = i;
    for (; j > 0; --j) {
      const double prev = crossing[order[j - 1]];
      if (!(earliest ? c < prev : c > prev)) break;
      order[j] = order[j - 1];
    }
    order[j] = i;
  }
}

DominanceSense complexDominanceSense(const cells::ComplexCellSpec& spec,
                                     const std::vector<int>& switchingPins,
                                     wave::Edge inputEdge) {
  if (switchingPins.size() < 2) return DominanceSense::EarliestFirst;
  const auto stable = spec.sensitizingAssignment(switchingPins);
  if (!stable) return DominanceSense::EarliestFirst;  // degenerate; unused

  // Pre-transition level of the switching pins: low for rising, high for
  // falling.  If flipping any single pin to its post-transition level
  // already toggles the output, the first arrival wins the race.
  const bool pre = inputEdge == wave::Edge::Falling;
  std::vector<bool> base = *stable;
  for (int p : switchingPins) base[static_cast<std::size_t>(p)] = pre;
  const bool outBefore = spec.outputFor(base);
  for (int p : switchingPins) {
    std::vector<bool> probe = base;
    probe[static_cast<std::size_t>(p)] = !pre;
    if (spec.outputFor(probe) != outBefore) {
      return DominanceSense::EarliestFirst;
    }
  }
  return DominanceSense::LatestFirst;
}

DominanceSense dominanceSense(
    cells::GateType type, const std::optional<cells::ComplexCellSpec>& complex,
    std::span<const InputEvent> events) {
  const wave::Edge edge = events.front().edge;
  if (!complex) return dominanceSense(type, edge);
  std::vector<int> pins;
  pins.reserve(events.size());
  for (const InputEvent& ev : events) pins.push_back(ev.pin);
  return complexDominanceSense(*complex, pins, edge);
}

double dominanceCrossover(const InputEvent& a, const InputEvent& b,
                          const SingleInputModelSet& singles) {
  const double da = singles.at(a.pin, a.edge).delay(a.tau);
  const double db = singles.at(b.pin, b.edge).delay(b.tau);
  return da - db;
}

}  // namespace prox::model
