#pragma once
// Reference dominance order: the std::stable_sort form that
// model::dominanceOrder() replaced with one predicted-crossing lookup per
// event and a stable insertion sort.  Kept in tests/ as an oracle (the way
// levelize_reference.hpp backs levelize()): it looks both events' models up
// again inside every comparison, and the new order must equal it index for
// index in both senses, ties included.

#include <algorithm>
#include <numeric>
#include <vector>

#include "model/dominance.hpp"

namespace prox::testutil {

inline std::vector<std::size_t> referenceDominanceOrder(
    const std::vector<model::InputEvent>& events,
    const model::SingleInputModelSet& singles, model::DominanceSense sense) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ca = model::predictedCrossing(events[a], singles);
                     const double cb = model::predictedCrossing(events[b], singles);
                     return sense == model::DominanceSense::EarliestFirst
                                ? ca < cb
                                : ca > cb;
                   });
  return order;
}

}  // namespace prox::testutil
