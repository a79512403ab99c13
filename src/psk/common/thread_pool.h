#ifndef PSK_COMMON_THREAD_POOL_H_
#define PSK_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psk {

/// Shared worker pool for the parallel node sweeps of the lattice engines.
///
/// One process-wide pool (Shared()) serves every search, so concurrent
/// anonymization runs share a bounded set of OS threads instead of each
/// spawning its own (the previous std::async-per-shard approach). The pool
/// is created on first use and intentionally leaked — worker threads must
/// not be joined during static destruction. A forked child does not
/// inherit it: the child's first Shared() starts a pool of its own.
///
/// The only scheduling primitive the engines need is ParallelFor: a
/// dynamically load-balanced index loop in which the *calling thread
/// participates* as worker 0. Because the caller always makes progress,
/// ParallelFor cannot deadlock even when the pool is saturated by other
/// runs (or when invoked, transitively, from a pool thread): helpers that
/// never get scheduled simply contribute nothing.
class ThreadPool {
 public:
  /// `num_threads` background workers (0 is allowed: every ParallelFor then
  /// runs entirely on the calling thread).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// The process-wide pool. Sized so that SearchOptions::threads up to 8
  /// maps to distinct workers even on small machines:
  /// max(hardware_concurrency, 8) - 1 background threads (the caller is
  /// the extra worker).
  static ThreadPool& Shared();

  /// Runs fn(worker, index) for every index in [0, count), using up to
  /// `workers` concurrent workers (clamped to [1, count]). Worker 0 is the
  /// calling thread; workers 1..w-1 are pool threads. Each worker id is
  /// held by exactly one thread at a time, so fn may keep per-worker
  /// mutable state (e.g. one NodeEvaluator per worker) without locking.
  /// Indices are handed out dynamically in increasing order; blocks until
  /// every index has been processed.
  ///
  /// Exception safety: if fn throws on any worker, the first exception is
  /// captured, remaining indices are abandoned, every helper retires
  /// normally (the completion latch always resolves), and the exception
  /// is rethrown on the calling thread. Which indices ran before the
  /// abort is unspecified, so throwing fns forfeit the engines'
  /// determinism contract — the engines therefore report failures via
  /// Status, and this path only catches genuinely exceptional escapes.
  void ParallelFor(size_t count, size_t workers,
                   const std::function<void(size_t worker, size_t index)>& fn);

  /// Instantaneous task-queue length; racy by nature — for trace timings
  /// only, never for scheduling decisions.
  size_t ApproxQueueDepth() const;

  /// Number of ParallelFor calls currently in flight on this pool (each
  /// call counts itself for its whole duration). Racy by nature; a
  /// fair-share signal, not a synchronization primitive.
  size_t ActiveRegions() const {
    return active_regions_.load(std::memory_order_relaxed);
  }

  /// Fair-share advice: how many workers a sweep that *wants* `requested`
  /// should actually use given the other ParallelFor regions currently on
  /// the pool. With no competition the request is granted in full; with R
  /// other regions the grant shrinks toward an equal split of the pool
  /// (never below 1 — the caller always participates). Advisory only:
  /// the engines' determinism contract guarantees byte-identical results
  /// for any worker count, so acting on a racy read is safe.
  size_t FairShareWorkers(size_t requested) const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
  std::atomic<size_t> active_regions_{0};
};

}  // namespace psk

#endif  // PSK_COMMON_THREAD_POOL_H_
