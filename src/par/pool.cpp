#include "par/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/bounded.hpp"

namespace prox::par {
namespace {

std::atomic<int> g_defaultOverride{0};

// Set while the calling thread is inside ThreadPool::workerLoop.
thread_local bool t_onWorker = false;

// PROX_THREADS as a whole positive integer (capped at kMaxThreads); any
// other value counts as unset.
int envThreadCount() {
  const char* env = std::getenv("PROX_THREADS");
  if (env == nullptr) return 0;
  try {
    const long long parsed =
        support::parseIntChecked(env, "par", "PROX_THREADS", -1, 1);
    return static_cast<int>(std::min<long long>(parsed, kMaxThreads));
  } catch (const support::DiagnosticError&) {
    return 0;
  }
}

int clampThreads(int threads) {
  return std::clamp(threads, 1, kMaxThreads);
}

}  // namespace

int defaultThreadCount() {
  const int override = g_defaultOverride.load(std::memory_order_relaxed);
  if (override > 0) return clampThreads(override);
  const int env = envThreadCount();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return clampThreads(hw == 0 ? 1 : static_cast<int>(hw));
}

void setDefaultThreadCount(int threads) {
  g_defaultOverride.store(threads > 0 ? clampThreads(threads) : 0,
                          std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int threads) {
  queues_.resize(kMaxThreads);
  workers_.reserve(kMaxThreads);
  ensureWorkers(threads);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

int ThreadPool::threadCount() const noexcept {
  return workerCount_.load(std::memory_order_acquire);
}

void ThreadPool::ensureWorkers(int threads) {
  threads = clampThreads(threads);
  std::lock_guard<std::mutex> lock(mu_);
  int count = workerCount_.load(std::memory_order_acquire);
  while (count < threads) {
    if (queues_[static_cast<std::size_t>(count)] == nullptr) {
      queues_[static_cast<std::size_t>(count)] =
          std::make_unique<WorkerQueue>();
    }
    const int self = count;
    // Publish the queue before the worker (or a thief) can reach it.
    workerCount_.store(count + 1, std::memory_order_release);
    workers_.emplace_back([this, self] { workerLoop(self); });
    ++count;
    PROX_OBS_COUNT("par.pool.workers_started", 1);
  }
}

void ThreadPool::submit(std::function<void()> task) {
  const int count = workerCount_.load(std::memory_order_acquire);
  const auto slot = static_cast<std::size_t>(
      nextQueue_.fetch_add(1, std::memory_order_relaxed) %
      static_cast<std::uint64_t>(count));
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  const std::size_t depth = pending_.fetch_add(1, std::memory_order_release) + 1;
  PROX_OBS_COUNT("par.pool.tasks_submitted", 1);
  PROX_OBS_TRACE_COUNTER("par.pool.queue_depth", depth);
  cv_.notify_one();
}

bool ThreadPool::onWorkerThread() noexcept { return t_onWorker; }

ThreadPool& ThreadPool::global(int threads) {
  // Leaked deliberately: worker threads may still be parked in cv_.wait at
  // process exit, and joining them from a static destructor races other
  // teardown.  The OS reclaims everything.
  static ThreadPool* pool = new ThreadPool(threads);
  pool->ensureWorkers(threads);
  return *pool;
}

bool ThreadPool::runOneTask(int self) {
  std::function<void()> task;
  const int count = workerCount_.load(std::memory_order_acquire);
  // Own queue first (LIFO back: cache-warm, recently pushed)...
  {
    auto& q = *queues_[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
    }
  }
  // ...then steal from siblings (FIFO front: oldest, likely largest work).
  if (!task) {
    for (int i = 1; i < count && !task; ++i) {
      const auto victim = static_cast<std::size_t>((self + i) % count);
      auto& q = *queues_[victim];
      std::lock_guard<std::mutex> lock(q.mu);
      if (!q.tasks.empty()) {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
        PROX_OBS_COUNT("par.pool.tasks_stolen", 1);
      }
    }
  }
  if (!task) return false;
  const std::size_t depth = pending_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  PROX_OBS_TRACE_COUNTER("par.pool.queue_depth", depth);
  {
    PROX_OBS_SPAN("par.task");
    task();
  }
  PROX_OBS_COUNT("par.pool.tasks_run", 1);
  return true;
}

void ThreadPool::workerLoop(int self) {
  t_onWorker = true;
  PROX_OBS_THREAD_NAME("pool-worker-" + std::to_string(self));
  for (;;) {
    if (runOneTask(self)) continue;
    // The idle span brackets the cv wait so a trace shows each worker's
    // utilization gaps next to its par.task spans.
    PROX_OBS_SPAN("par.pool.idle");
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return stopping_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_ && pending_.load(std::memory_order_acquire) == 0) break;
  }
  // Final drain so ~ThreadPool leaves no submitted task unexecuted.  The
  // obs thread-cache reaper folds this thread's counters into the retired
  // tally when the thread exits; no explicit flush is required.
  while (runOneTask(self)) {
  }
}

}  // namespace prox::par
