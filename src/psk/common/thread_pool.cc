#include "psk/common/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <memory>

#include "psk/common/failpoint.h"

namespace psk {
namespace {

// The process-wide pool: null until the first Shared(), and again in a
// forked child.
std::atomic<ThreadPool*> shared_pool{nullptr};

// pthread_atfork child handler. A forked child holds only the thread that
// called fork(), so the inherited pool has no workers and a ParallelFor
// would wait forever for helpers that never run. The child forgets the
// pool, and its next Shared() starts its own workers. The old pool is
// leaked: its mutex may have been held by a thread that no longer exists.
void ForgetSharedPoolInChild() {
  shared_pool.store(nullptr, std::memory_order_relaxed);
}

const int kAtForkRegistered =
    pthread_atfork(nullptr, nullptr, &ForgetSharedPoolInChild);

// State shared between one ParallelFor call and its helper tasks. Owned by
// shared_ptr so a helper that outlives the call's stack frame (it cannot —
// the call blocks — but the type system doesn't know that) stays valid.
struct ForState {
  std::atomic<size_t> next{0};
  size_t count = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;
  // First exception thrown by fn on any worker; remaining indices are
  // abandoned (abort) and the exception is rethrown on the calling
  // thread once every helper has retired — helpers never terminate the
  // process and never leave the caller blocked on the completion latch.
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex mu;
  std::condition_variable done;
  size_t live_helpers = 0;
};

void DrainIndices(ForState& state, size_t worker) {
  while (true) {
    size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state.count) return;
    if (state.abort.load(std::memory_order_relaxed)) return;
    try {
      // Torture seam: a pool worker dying mid-sweep is modeled as a
      // thrown task — it takes the same abort/rethrow path a real task
      // failure would, so the caller sees one clean exception and the
      // pool survives.
      PSK_FAIL_POINT_THROW("threadpool.task");
      (*state.fn)(worker, i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state.mu);
        if (!state.first_error) state.first_error = std::current_exception();
      }
      state.abort.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  ThreadPool* pool = shared_pool.load(std::memory_order_acquire);
  if (pool != nullptr) return *pool;
  size_t hw = std::thread::hardware_concurrency();
  size_t workers = std::max<size_t>(hw, 8) - 1;
  auto* created = new ThreadPool(workers);
  if (shared_pool.compare_exchange_strong(pool, created,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return *created;
  }
  delete created;  // another thread's pool won the race
  return *pool;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    size_t count, size_t workers,
    const std::function<void(size_t worker, size_t index)>& fn) {
  if (count == 0) return;
  // Count this region for the whole call so concurrent sweeps consulting
  // FairShareWorkers() see each other. RAII because fn may throw.
  active_regions_.fetch_add(1, std::memory_order_relaxed);
  struct RegionGuard {
    std::atomic<size_t>* counter;
    ~RegionGuard() { counter->fetch_sub(1, std::memory_order_relaxed); }
  } region_guard{&active_regions_};
  workers = std::min(std::max<size_t>(workers, 1), count);
  size_t helpers = std::min(workers - 1, num_threads());

  auto state = std::make_shared<ForState>();
  state->count = count;
  state->fn = &fn;
  state->live_helpers = helpers;

  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t h = 1; h <= helpers; ++h) {
        queue_.push_back([state, h] {
          DrainIndices(*state, h);
          std::lock_guard<std::mutex> lock(state->mu);
          if (--state->live_helpers == 0) state->done.notify_one();
        });
      }
    }
    cv_.notify_all();
  }

  DrainIndices(*state, /*worker=*/0);

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&] { return state->live_helpers == 0; });
  }
  // Every helper has retired (or none was scheduled), so first_error is
  // stable without the lock; rethrow the first failure on the caller.
  if (state->first_error) std::rethrow_exception(state->first_error);
}

size_t ThreadPool::ApproxQueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

size_t ThreadPool::FairShareWorkers(size_t requested) const {
  if (requested <= 1) return std::max<size_t>(requested, 1);
  size_t others = active_regions_.load(std::memory_order_relaxed);
  if (others == 0) return requested;
  // `others` regions are already sweeping; this caller makes others + 1.
  // Grant an equal split of the whole pool (background threads plus the
  // caller itself), rounded up so small pools don't starve everyone down
  // to sequential, but never more than was requested.
  size_t capacity = num_threads() + 1;
  size_t share = (capacity + others) / (others + 1);
  return std::max<size_t>(1, std::min(requested, share));
}

}  // namespace psk
