// Allocation freedom of the batched gate evaluator: once its per-thread
// scratch has grown to a chunk's size, evaluateGateBatch() makes no heap
// allocation in either delay mode.  This binary replaces the global
// operator new with a counting one, so it lives apart from the other STA
// tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>

#include "characterize/analytic.hpp"
#include "sta/batch_eval.hpp"
#include "test_util.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

void* countedAlloc(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace prox;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

/// Heap allocations made by one evaluateGateBatch() call.
std::size_t allocationsIn(std::span<const sta::BatchArc> arcs, DelayMode mode,
                          std::span<sta::BatchArcResult> results) {
  allocations = 0;
  counting = true;
  sta::evaluateGateBatch(arcs, mode, {}, results);
  counting = false;
  return allocations;
}

TEST(BatchAllocation, WarmEvaluationAllocatesNothingInEitherMode) {
  std::vector<characterize::CharacterizedGate> cells;
  cells.push_back(characterize::analyticGate(testutil::invSpec()));
  cells.push_back(characterize::analyticGate(testutil::nandSpec(2)));
  cells.push_back(characterize::analyticGate(testutil::nandSpec(3)));
  cells.push_back(characterize::analyticGate(testutil::norSpec(3)));

  // A 64-arc chunk (the STA's chunk size) of idle, single-pin and
  // multi-input arcs in both directions, close enough for proximity
  // composition to fold inputs in.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> t(0.0, 150e-12);
  std::uniform_real_distribution<double> tau(50e-12, 600e-12);
  std::vector<std::vector<std::optional<Arrival>>> pins(64);
  std::vector<sta::BatchArc> arcs;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto& cell = cells[i % cells.size()];
    const Edge edge = i % 3 == 0 ? Edge::Falling : Edge::Rising;
    pins[i].resize(static_cast<std::size_t>(cell.pinCount()));
    for (auto& p : pins[i]) {
      if (i % 7 != 0 && rng() % 5 != 0) p = Arrival{t(rng), tau(rng), edge};
    }
    arcs.push_back({&cell, &pins[i]});
  }
  std::vector<sta::BatchArcResult> results(arcs.size());

  for (const DelayMode mode : {DelayMode::Classic, DelayMode::Proximity}) {
    SCOPED_TRACE(mode == DelayMode::Classic ? "classic" : "proximity");
    allocationsIn(arcs, mode, results);  // warm-up grows the scratch
    EXPECT_EQ(allocationsIn(arcs, mode, results), 0u);
    // A smaller batch reuses the grown scratch.
    EXPECT_EQ(allocationsIn(std::span(arcs).first(9), mode,
                            std::span(results).first(9)),
              0u);
  }
  // Sanity: the counter sees the allocations it should.
  allocations = 0;
  counting = true;
  auto* probe = new std::vector<int>(3);
  counting = false;
  delete probe;
  EXPECT_GE(allocations.load(), 1u);
}

}  // namespace
