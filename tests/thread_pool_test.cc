// ThreadPool regression and stress tests. The exception-safety cases pin
// the ParallelFor contract the engines rely on: a throwing fn must not
// wedge the pool, leak helpers, or lose the exception; the pool must stay
// fully usable afterwards. The stress cases (nested ParallelFor from a
// pool thread, zero-thread pools, saturation from concurrent sweeps) run
// under TSan in CI.

#include "psk/common/thread_pool.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace psk {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, 4, [&](size_t, size_t index) {
    hits[index].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsAreExclusive) {
  ThreadPool pool(4);
  constexpr size_t kWorkers = 5;
  // One (unsynchronized) counter per worker id: if two threads ever held
  // the same id concurrently, TSan would flag the plain ++ below.
  std::vector<size_t> per_worker(kWorkers, 0);
  pool.ParallelFor(2000, kWorkers,
                   [&](size_t worker, size_t) { ++per_worker[worker]; });
  size_t total = std::accumulate(per_worker.begin(), per_worker.end(),
                                 size_t{0});
  EXPECT_EQ(total, 2000u);
}

TEST(ThreadPoolTest, ExceptionIsRethrownOnCaller) {
  ThreadPool pool(3);
  std::atomic<size_t> ran{0};
  try {
    pool.ParallelFor(500, 4, [&](size_t, size_t index) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (index == 17) throw std::runtime_error("boom at 17");
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "boom at 17");
  }
  // The abort is cooperative: some indices were abandoned, none ran twice.
  EXPECT_LE(ran.load(), 500u);
  EXPECT_GE(ran.load(), 1u);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.ParallelFor(100, 3,
                                  [&](size_t, size_t index) {
                                    if (index == 0) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error);
    // The completion latch resolved and every helper retired: the very
    // next loop must run all indices normally.
    std::atomic<size_t> ran{0};
    pool.ParallelFor(100, 3, [&](size_t, size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 100u);
  }
}

TEST(ThreadPoolTest, FirstExceptionWinsWhenManyThrow) {
  ThreadPool pool(3);
  // Every index throws; exactly one exception must surface (which one is
  // unspecified) and the call must still return by throwing, not hang.
  EXPECT_THROW(pool.ParallelFor(
                   64, 4,
                   [](size_t, size_t index) {
                     throw std::runtime_error("boom " +
                                              std::to_string(index));
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ZeroThreadPoolRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  std::mutex mu;
  pool.ParallelFor(50, 8, [&](size_t worker, size_t) {
    EXPECT_EQ(worker, 0u);
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
  // Exceptions propagate from the caller-only path too.
  EXPECT_THROW(pool.ParallelFor(10, 4,
                                [](size_t, size_t) {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForFromPoolThread) {
  // An engine running inside ParallelFor may itself call ParallelFor
  // (e.g. a guard re-check inside a sweep). The caller-participates
  // design means the inner loop always makes progress even when every
  // pool thread is busy with the outer loop.
  ThreadPool& pool = ThreadPool::Shared();
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, 4, [&](size_t, size_t) {
    pool.ParallelFor(32, 4, [&](size_t, size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 32u);
}

TEST(ThreadPoolTest, SaturationFromConcurrentSweeps) {
  // Two runs sharing the process-wide pool must both complete even when
  // each asks for every worker: helpers that never get scheduled
  // contribute nothing, the callers always make progress.
  ThreadPool& pool = ThreadPool::Shared();
  const size_t workers = pool.num_threads() + 1;
  std::atomic<size_t> first{0};
  std::atomic<size_t> second{0};
  std::thread other([&] {
    pool.ParallelFor(4000, workers, [&](size_t, size_t) {
      second.fetch_add(1, std::memory_order_relaxed);
    });
  });
  pool.ParallelFor(4000, workers, [&](size_t, size_t) {
    first.fetch_add(1, std::memory_order_relaxed);
  });
  other.join();
  EXPECT_EQ(first.load(), 4000u);
  EXPECT_EQ(second.load(), 4000u);
}

TEST(ThreadPoolTest, ApproxQueueDepthIsBounded) {
  ThreadPool& pool = ThreadPool::Shared();
  // Racy by design; the only hard guarantees are "callable any time" and
  // "empty once everything joined".
  pool.ParallelFor(100, 4, [&](size_t, size_t) { (void)pool.ApproxQueueDepth(); });
  EXPECT_EQ(pool.ApproxQueueDepth(), 0u);
}

#if defined(__SANITIZE_THREAD__)
#define PSK_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PSK_UNDER_TSAN 1
#endif
#endif

TEST(ThreadPoolTest, ForkedChildRunsParallelFor) {
#ifdef PSK_UNDER_TSAN
  GTEST_SKIP() << "TSan does not support starting threads after a "
                  "multithreaded fork";
#endif
  // The parent's shared pool has started its workers; a forked child
  // inherits none of them and must start its own.
  std::atomic<size_t> ran{0};
  ThreadPool::Shared().ParallelFor(64, 4, [&](size_t, size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_EQ(ran.load(), 64u);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::atomic<size_t> child_ran{0};
    ThreadPool::Shared().ParallelFor(64, 4, [&](size_t, size_t) {
      child_ran.fetch_add(1, std::memory_order_relaxed);
    });
    // _exit, not exit: do not run the parent's atexit/gtest machinery.
    _exit(child_ran.load() == 64 ? 0 : 1);
  }
  // Poll rather than block, so a child stuck on helpers that never run
  // fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "the forked child's ParallelFor did not finish within 20 s";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace psk
