// Multi-job scheduler and its resource-governance primitives: per-job
// memory accounting (MemoryBudget/MemoryReservation), the LRU verdict
// cache under a byte cap, admission control with load shedding, priority
// dispatch, transient-fault retries, user cancellation, the hang
// watchdog's cancel -> hard-cancel escalation, and the three-rung
// degradation ladder.

#include "psk/service/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/api/anonymizer.h"
#include "psk/common/durable_file.h"
#include "psk/common/failpoint.h"
#include "psk/common/memory_budget.h"
#include "psk/datagen/adult.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

// ---------------------------------------------------------------------------
// MemoryBudget.

TEST(MemoryBudgetTest, ChargesReleasesAndTracksHighWater) {
  MemoryBudget budget;
  EXPECT_EQ(budget.bytes_used(), 0u);
  PSK_ASSERT_OK(budget.Charge(100));
  PSK_ASSERT_OK(budget.Charge(50));
  EXPECT_EQ(budget.bytes_used(), 150u);
  EXPECT_EQ(budget.high_water(), 150u);
  budget.Release(120);
  EXPECT_EQ(budget.bytes_used(), 30u);
  // The high-water mark is monotone.
  EXPECT_EQ(budget.high_water(), 150u);
  // Release saturates at zero instead of wrapping.
  budget.Release(1000);
  EXPECT_EQ(budget.bytes_used(), 0u);
}

TEST(MemoryBudgetTest, HardLimitRejectsWithoutRecording) {
  MemoryBudget budget;
  budget.set_hard_limit(100);
  PSK_ASSERT_OK(budget.Charge(60));
  Status rejected = budget.Charge(50);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // No retry-after hint: blindly retrying an over-limit charge is
  // pointless, so the failure must not be classified retryable.
  EXPECT_FALSE(rejected.retryable());
  // The failed charge recorded nothing.
  EXPECT_EQ(budget.bytes_used(), 60u);
  // Not sticky: releasing memory lets later charges succeed again.
  budget.Release(30);
  PSK_ASSERT_OK(budget.Charge(50));
  EXPECT_EQ(budget.bytes_used(), 80u);
}

TEST(MemoryBudgetTest, ForceExhaustedIsSticky) {
  MemoryBudget budget;
  PSK_ASSERT_OK(budget.Charge(10));
  budget.ForceExhausted();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.Charge(1).code(), StatusCode::kResourceExhausted);
  budget.Release(10);
  // Still exhausted: the ladder's last rung cannot be un-tripped by
  // freeing memory.
  EXPECT_EQ(budget.Charge(1).code(), StatusCode::kResourceExhausted);
}

TEST(MemoryBudgetTest, SoftLimitIsAdvisoryOnly) {
  MemoryBudget budget;
  budget.set_soft_limit(100);
  PSK_ASSERT_OK(budget.Charge(150));  // charges never fail against soft
  EXPECT_TRUE(budget.over_soft());
  budget.Release(100);
  EXPECT_FALSE(budget.over_soft());
  // A zero soft limit means unlimited, never over.
  budget.set_soft_limit(0);
  PSK_ASSERT_OK(budget.Charge(1000000));
  EXPECT_FALSE(budget.over_soft());
}

// ---------------------------------------------------------------------------
// MemoryReservation.

TEST(MemoryReservationTest, ReserveResizeReleaseLifecycle) {
  auto budget = std::make_shared<MemoryBudget>();
  {
    MemoryReservation reservation;
    PSK_ASSERT_OK(reservation.Reserve(budget, 100));
    EXPECT_EQ(reservation.bytes(), 100u);
    EXPECT_EQ(budget->bytes_used(), 100u);
    PSK_ASSERT_OK(reservation.Resize(40));
    EXPECT_EQ(budget->bytes_used(), 40u);
    PSK_ASSERT_OK(reservation.Resize(90));
    EXPECT_EQ(budget->bytes_used(), 90u);
    reservation.Release();
    EXPECT_EQ(budget->bytes_used(), 0u);
    reservation.Release();  // idempotent
    EXPECT_EQ(budget->bytes_used(), 0u);
  }
}

TEST(MemoryReservationTest, DestructionReturnsTheBytes) {
  auto budget = std::make_shared<MemoryBudget>();
  {
    MemoryReservation reservation;
    PSK_ASSERT_OK(reservation.Reserve(budget, 64));
  }
  EXPECT_EQ(budget->bytes_used(), 0u);
}

TEST(MemoryReservationTest, FailedResizeKeepsTheOldReservation) {
  auto budget = std::make_shared<MemoryBudget>();
  budget->set_hard_limit(100);
  MemoryReservation reservation;
  PSK_ASSERT_OK(reservation.Reserve(budget, 60));
  Status grown = reservation.Resize(200);
  EXPECT_EQ(grown.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(reservation.bytes(), 60u);
  EXPECT_EQ(budget->bytes_used(), 60u);
}

TEST(MemoryReservationTest, MoveTransfersOwnership) {
  auto budget = std::make_shared<MemoryBudget>();
  MemoryReservation a;
  PSK_ASSERT_OK(a.Reserve(budget, 50));
  MemoryReservation b = std::move(a);
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(b.bytes(), 50u);
  EXPECT_EQ(budget->bytes_used(), 50u);
  b.Release();
  EXPECT_EQ(budget->bytes_used(), 0u);
}

TEST(MemoryReservationTest, NoBudgetIsANoop) {
  MemoryReservation reservation;
  PSK_ASSERT_OK(reservation.Reserve(nullptr, 1000));
  EXPECT_EQ(reservation.bytes(), 0u);
  PSK_ASSERT_OK(reservation.Resize(5000));
}

// ---------------------------------------------------------------------------
// VerdictCache under a byte cap / a memory budget.

NodeEvaluation MakeEval(bool satisfied) {
  NodeEvaluation eval;
  eval.satisfied = satisfied;
  eval.stage = satisfied ? CheckStage::kPassed : CheckStage::kKAnonymity;
  eval.suppressed = 2;
  eval.num_groups = 9;
  return eval;
}

TEST(VerdictCacheTest, EvictsTheLeastRecentlyUsedEntryAtTheCap) {
  VerdictCache cache;
  uint64_t entry = VerdictCache::EntryBytes("a");
  cache.set_max_bytes(2 * entry);
  cache.Insert("a", MakeEval(true));
  cache.Insert("b", MakeEval(false));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes_used(), 2 * entry);
  // Touch "a" so "b" becomes the least recently used entry.
  NodeEvaluation out;
  ASSERT_TRUE(cache.Lookup("a", &out));
  EXPECT_TRUE(out.satisfied);
  cache.Insert("c", MakeEval(true));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
}

TEST(VerdictCacheTest, ShrinkEvictsImmediately) {
  VerdictCache cache;  // unbounded by default
  cache.Insert("a", MakeEval(true));
  cache.Insert("b", MakeEval(true));
  cache.Insert("c", MakeEval(false));
  EXPECT_EQ(cache.size(), 3u);
  cache.Shrink(VerdictCache::EntryBytes("a"));
  EXPECT_EQ(cache.size(), 1u);
  // The most recently inserted entry survives.
  NodeEvaluation out;
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_LE(cache.bytes_used(), VerdictCache::EntryBytes("a"));
}

TEST(VerdictCacheTest, InsertsChargeTheMemoryBudgetAndDropOnRejection) {
  auto budget = std::make_shared<MemoryBudget>();
  uint64_t entry = VerdictCache::EntryBytes("a");
  budget->set_hard_limit(entry);  // room for exactly one entry
  VerdictCache cache;
  cache.set_memory_budget(budget);
  cache.Insert("a", MakeEval(true));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(budget->bytes_used(), entry);
  // The second insert would breach the hard limit: it is dropped (losing
  // a memoization is the cheapest degradation) and the books stay exact.
  cache.Insert("b", MakeEval(true));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(budget->bytes_used(), entry);
  EXPECT_EQ(cache.bytes_used(), entry);
}

TEST(VerdictCacheTest, EvictionReturnsBytesToTheBudget) {
  auto budget = std::make_shared<MemoryBudget>();
  VerdictCache cache;
  cache.set_memory_budget(budget);
  cache.Insert("a", MakeEval(true));
  cache.Insert("b", MakeEval(true));
  uint64_t before = budget->bytes_used();
  EXPECT_EQ(before, 2 * VerdictCache::EntryBytes("a"));
  cache.Shrink(VerdictCache::EntryBytes("a"));
  EXPECT_EQ(budget->bytes_used(), VerdictCache::EntryBytes("a"));
}

// ---------------------------------------------------------------------------
// Scheduler helpers.

JobSpec MakeSpec(size_t rows, uint64_t seed,
                 AnonymizationAlgorithm algorithm) {
  JobSpec spec;
  spec.input = UnwrapOk(AdultGenerate(rows, seed));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(spec.input.schema()));
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    spec.hierarchies.push_back(hierarchies.hierarchy_ptr(i));
  }
  spec.k = 3;
  spec.p = 2;
  spec.max_suppression = 6;
  spec.algorithm = algorithm;
  return spec;
}

// Reference run without the scheduler: same engines, same knobs.
AnonymizationReport DirectRun(const JobSpec& spec, size_t threads = 1,
                              RunBudget budget = {},
                              std::shared_ptr<VerdictCache> cache = nullptr) {
  Anonymizer anonymizer(spec.input);
  for (const auto& hierarchy : spec.hierarchies) {
    anonymizer.AddHierarchy(hierarchy);
  }
  anonymizer.set_k(spec.k)
      .set_p(spec.p)
      .set_max_suppression(spec.max_suppression)
      .set_algorithm(spec.algorithm)
      .set_budget(budget)
      .set_threads(threads);
  if (cache != nullptr) anonymizer.set_verdict_cache(cache);
  if (!spec.fallback_chain.empty()) {
    anonymizer.set_fallback_chain(spec.fallback_chain);
  }
  return UnwrapOk(anonymizer.Run());
}

bool HasEvent(const std::vector<std::string>& events,
              const std::string& prefix) {
  for (const std::string& event : events) {
    if (event.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// Names of jobs in dispatch order, read off the "start" events.
std::vector<std::string> StartOrder(const std::vector<std::string>& events) {
  std::vector<std::string> names;
  for (const std::string& event : events) {
    if (event.rfind("start ", 0) != 0) continue;
    std::string rest = event.substr(6);
    names.push_back(rest.substr(0, rest.find(' ')));
  }
  return names;
}

bool IsTerminalForTest(JobState state) {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

void WaitUntilRunning(JobScheduler& scheduler, uint64_t id) {
  for (int i = 0; i < 20000; ++i) {
    SchedulerJobStatus status = UnwrapOk(scheduler.Progress(id));
    if (status.state == JobState::kRunning) return;
    ASSERT_FALSE(IsTerminalForTest(status.state))
        << "job reached a terminal state before it was observed running";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  FAIL() << "job " << id << " never started running";
}

std::string SchedulerTestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "psk_service_test_" + name;
  std::remove((dir + "/job.journal").c_str());
  std::remove((dir + "/checkpoint").c_str());
  std::remove((dir + "/progress").c_str());
  std::remove((dir + "/release.csv").c_str());
  std::remove((dir + "/report.json").c_str());
  return dir;
}

void ExpectSameStats(const SearchStats& a, const SearchStats& b) {
  EXPECT_EQ(a.nodes_generalized, b.nodes_generalized);
  EXPECT_EQ(a.nodes_pruned_condition2, b.nodes_pruned_condition2);
  EXPECT_EQ(a.nodes_rejected_kanonymity, b.nodes_rejected_kanonymity);
  EXPECT_EQ(a.nodes_rejected_detail, b.nodes_rejected_detail);
  EXPECT_EQ(a.nodes_satisfied, b.nodes_satisfied);
  EXPECT_EQ(a.nodes_skipped, b.nodes_skipped);
  EXPECT_EQ(a.nodes_cache_hits, b.nodes_cache_hits);
  EXPECT_EQ(a.nodes_cache_misses, b.nodes_cache_misses);
  EXPECT_EQ(a.heights_probed, b.heights_probed);
  EXPECT_EQ(a.subset_nodes_evaluated, b.subset_nodes_evaluated);
  EXPECT_EQ(a.partial, b.partial);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
}

// ---------------------------------------------------------------------------
// Scheduler: basic lifecycle.

TEST(SchedulerTest, CompletesAnInMemoryJobAndReportsProgress) {
  JobScheduler scheduler({});
  SchedulerJobRequest request;
  request.name = "basic";
  request.spec = MakeSpec(120, 1, AnonymizationAlgorithm::kSamarati);
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  PSK_EXPECT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.degrade_level, 0);
  EXPECT_GE(result.report.achieved_k, 3u);
  EXPECT_GE(result.report.achieved_p, 2u);

  SchedulerJobStatus status = UnwrapOk(scheduler.Progress(id));
  EXPECT_EQ(status.name, "basic");
  EXPECT_EQ(status.state, JobState::kCompleted);
  // The job's memory was accounted (encode seam) and the heartbeat
  // advanced (budget checkpoints) — the watchdog's liveness signals.
  EXPECT_GT(status.memory_high_water, 0u);
  EXPECT_GT(status.heartbeat, 0u);

  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "submit basic"));
  EXPECT_TRUE(HasEvent(events, "start basic"));
  EXPECT_TRUE(HasEvent(events, "complete basic"));

  // Unknown ids are kNotFound everywhere.
  EXPECT_EQ(scheduler.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Cancel(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(scheduler.Progress(999).status().code(), StatusCode::kNotFound);
}

TEST(SchedulerTest, MatchesADirectRunByteForByte) {
  JobSpec spec = MakeSpec(200, 7, AnonymizationAlgorithm::kOla);
  // The scheduler gives each job a fresh VerdictCache; so does the
  // reference run.
  AnonymizationReport direct =
      DirectRun(spec, 1, {}, std::make_shared<VerdictCache>());

  JobScheduler scheduler({});
  SchedulerJobRequest request;
  request.spec = spec;
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  PSK_ASSERT_OK(result.status);

  EXPECT_EQ(WriteCsvString(result.report.masked),
            WriteCsvString(direct.masked));
  EXPECT_EQ(result.report.achieved_k, direct.achieved_k);
  EXPECT_EQ(result.report.achieved_p, direct.achieved_p);
  EXPECT_EQ(result.report.discernibility, direct.discernibility);
  ExpectSameStats(result.report.stats, direct.stats);
}

TEST(SchedulerTest, RunsADurableJobThroughTheJobRunner) {
  std::string dir = SchedulerTestDir("durable");
  JobScheduler scheduler({});
  SchedulerJobRequest request;
  request.name = "durable";
  request.spec = MakeSpec(150, 3, AnonymizationAlgorithm::kSamarati);
  request.job_dir = dir;
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  // The crash-safe layer committed the release to disk.
  EXPECT_TRUE(FileExists(dir + "/release.csv"));
  EXPECT_TRUE(FileExists(dir + "/report.json"));
}

TEST(SchedulerTest, StopDrainsAndRefusesNewWork) {
  JobScheduler scheduler({});
  SchedulerJobRequest request;
  request.spec = MakeSpec(150, 2, AnonymizationAlgorithm::kSamarati);
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  scheduler.Stop();
  scheduler.Stop();  // idempotent
  // The admitted job was drained to a terminal state, not dropped.
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  EXPECT_EQ(result.state, JobState::kCompleted);
  SchedulerJobRequest late;
  late.spec = MakeSpec(150, 2, AnonymizationAlgorithm::kSamarati);
  Result<uint64_t> refused = scheduler.Submit(std::move(late));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(refused.status().retryable());
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(SchedulerTest, ShedsWhenTheQueueIsFull) {
  SchedulerOptions options;
  options.max_running = 1;
  options.max_queue_depth = 1;
  JobScheduler scheduler(options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  SchedulerJobRequest blocker;
  blocker.name = "blocker";
  blocker.spec = MakeSpec(150, 1, AnonymizationAlgorithm::kSamarati);
  blocker.on_start = [gate] { gate.wait(); };
  uint64_t blocker_id = UnwrapOk(scheduler.Submit(std::move(blocker)));
  WaitUntilRunning(scheduler, blocker_id);

  SchedulerJobRequest queued;
  queued.spec = MakeSpec(150, 2, AnonymizationAlgorithm::kSamarati);
  uint64_t queued_id = UnwrapOk(scheduler.Submit(std::move(queued)));

  SchedulerJobRequest overload;
  overload.spec = MakeSpec(150, 3, AnonymizationAlgorithm::kSamarati);
  Result<uint64_t> shed = scheduler.Submit(std::move(overload));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  // Shedding is explicitly retryable: the hint tells the caller when.
  EXPECT_TRUE(shed.status().retryable());
  ASSERT_TRUE(shed.status().retry_after_ms().has_value());
  EXPECT_EQ(*shed.status().retry_after_ms(), options.shed_retry_after_ms);
  EXPECT_EQ(scheduler.stats().shed, 1u);
  EXPECT_TRUE(HasEvent(scheduler.Events(), "shed.queue"));

  release.set_value();
  PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(blocker_id)).status);
  PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(queued_id)).status);
}

TEST(SchedulerTest, ShedsWhenInFlightMemoryExceedsTheCap) {
  SchedulerOptions options;
  options.max_total_memory = 1;  // any accounted byte trips admission
  JobScheduler scheduler(options);

  // Stream the heavy job's input through a gated chunk source: the
  // materialization loop holds the first chunk's reservation against
  // job.memory while the source parks on the gate, so the in-flight
  // charge stays observable for as long as the test needs. (Polling a
  // free-running job races with its completion.)
  SchedulerJobRequest heavy;
  heavy.name = "heavy";
  heavy.spec = MakeSpec(1500, 4, AnonymizationAlgorithm::kExhaustive);
  auto source_table = std::make_shared<Table>(std::move(heavy.spec.input));
  heavy.spec.input = Table(source_table->schema());
  heavy.spec.ingest_chunk_rows = 1000;
  std::promise<void> first_chunk_charged;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto pos = std::make_shared<size_t>(0);
  auto signaled = std::make_shared<bool>(false);
  heavy.spec.input_source = [source_table, pos, signaled, gate,
                             &first_chunk_charged](
                                size_t max_rows,
                                IngestChunk* chunk) -> Result<size_t> {
    if (*pos > 0 && !*signaled) {
      *signaled = true;
      first_chunk_charged.set_value();
      gate.wait();
    }
    size_t rows =
        std::min(max_rows, source_table->num_rows() - *pos);
    chunk->Reset(source_table->schema(), rows);
    for (size_t c = 0; c < source_table->num_columns(); ++c) {
      for (size_t r = 0; r < rows; ++r) {
        chunk->Append(c, source_table->Get(*pos + r, c));
      }
    }
    *pos += rows;
    return rows;
  };
  uint64_t heavy_id = UnwrapOk(scheduler.Submit(std::move(heavy)));
  first_chunk_charged.get_future().wait();
  SchedulerJobStatus status = UnwrapOk(scheduler.Progress(heavy_id));
  EXPECT_GT(status.memory_bytes, 0u)
      << "materialized chunk did not charge the job's budget";

  SchedulerJobRequest extra;
  extra.spec = MakeSpec(150, 5, AnonymizationAlgorithm::kSamarati);
  Result<uint64_t> shed = scheduler.Submit(std::move(extra));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().retryable());
  EXPECT_TRUE(HasEvent(scheduler.Events(), "shed.memory"));

  release.set_value();
  PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(heavy_id)).status);
}

TEST(SchedulerTest, DispatchFollowsTheWeightedRoundRobinPattern) {
  SchedulerOptions options;
  options.max_running = 1;
  JobScheduler scheduler(options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  SchedulerJobRequest blocker;
  blocker.name = "gate";
  blocker.spec = MakeSpec(150, 1, AnonymizationAlgorithm::kSamarati);
  blocker.priority = JobPriority::kNormal;
  blocker.on_start = [gate] { gate.wait(); };
  uint64_t blocker_id = UnwrapOk(scheduler.Submit(std::move(blocker)));
  WaitUntilRunning(scheduler, blocker_id);

  // Queue up two of each class while the only executor is busy, so the
  // dispatch order after the gate lifts is decided purely by the pattern.
  auto submit = [&](const std::string& name, JobPriority priority,
                    uint64_t seed) {
    SchedulerJobRequest request;
    request.name = name;
    request.spec = MakeSpec(150, seed, AnonymizationAlgorithm::kSamarati);
    request.priority = priority;
    return UnwrapOk(scheduler.Submit(std::move(request)));
  };
  std::vector<uint64_t> ids;
  ids.push_back(submit("i1", JobPriority::kInteractive, 2));
  ids.push_back(submit("i2", JobPriority::kInteractive, 3));
  ids.push_back(submit("n1", JobPriority::kNormal, 4));
  ids.push_back(submit("b1", JobPriority::kBatch, 5));
  ids.push_back(submit("b2", JobPriority::kBatch, 6));

  release.set_value();
  for (uint64_t id : ids) PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(id)).status);

  // The rotation resumed after the gate job (drawn at pattern slot 1, so
  // the scan continues from slot 2): I, B, I, N, then wrap to B.
  std::vector<std::string> expected = {"gate", "i1", "b1", "i2", "n1", "b2"};
  EXPECT_EQ(StartOrder(scheduler.Events()), expected);
}

// ---------------------------------------------------------------------------
// Retries of transient faults.

TEST(SchedulerTest, RetriesATransientFaultAndCompletes) {
  std::string dir = SchedulerTestDir("retry");
  // Clean slate first: site hit counters are process-lifetime, and the
  // x1 window below is relative to hit #0 (environment arming via
  // PSK_FAILPOINTS makes earlier tests in this binary accumulate hits).
  FailPoints::DisarmAll();
  PSK_ASSERT_OK(
      FailPoints::ArmFromSpec("jobs.journal.begin=error(Unavailable)x1"));

  SchedulerOptions options;
  options.retry_backoff_base = std::chrono::milliseconds(1);
  JobScheduler scheduler(options);
  SchedulerJobRequest request;
  request.name = "flaky";
  request.spec = MakeSpec(120, 6, AnonymizationAlgorithm::kSamarati);
  request.job_dir = dir;
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  FailPoints::DisarmAll();

  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(scheduler.stats().retries, 1u);
  EXPECT_TRUE(HasEvent(scheduler.Events(), "retry flaky"));
  EXPECT_TRUE(FileExists(dir + "/release.csv"));
}

TEST(SchedulerTest, GivesUpAfterMaxRetries) {
  std::string dir = SchedulerTestDir("retry_exhausted");
  // Every journal begin fails: the job can never make progress.
  FailPoints::DisarmAll();
  PSK_ASSERT_OK(
      FailPoints::ArmFromSpec("jobs.journal.begin=error(Unavailable)"));

  SchedulerOptions options;
  options.max_retries = 1;
  options.retry_backoff_base = std::chrono::milliseconds(1);
  JobScheduler scheduler(options);
  SchedulerJobRequest request;
  request.name = "doomed";
  request.spec = MakeSpec(100, 8, AnonymizationAlgorithm::kSamarati);
  request.job_dir = dir;
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  FailPoints::DisarmAll();

  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(result.attempts, 2);  // original + one retry
  EXPECT_EQ(scheduler.stats().retries, 1u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
  EXPECT_TRUE(HasEvent(scheduler.Events(), "failed doomed"));
}

TEST(SchedulerTest, RetriesWhenAPoolTaskThrows) {
  // A pool worker dying mid-sweep surfaces as one rethrown exception
  // from the parallel-for. The executor must classify it as transient
  // (kUnavailable) and re-run the attempt instead of unwinding — the
  // engines are deterministic, so the retry completes normally.
  FailPoints::DisarmAll();  // x1 below is relative to a zero hit count
  PSK_ASSERT_OK(FailPoints::ArmFromSpec("threadpool.task=throwx1"));

  SchedulerOptions options;
  options.threads_per_job = 2;  // the sweep must actually use the pool
  options.retry_backoff_base = std::chrono::milliseconds(1);
  JobScheduler scheduler(options);
  SchedulerJobRequest request;
  request.name = "thrown";
  request.spec = MakeSpec(200, 9, AnonymizationAlgorithm::kExhaustive);
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  FailPoints::DisarmAll();

  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(scheduler.stats().retries, 1u);
  EXPECT_TRUE(HasEvent(scheduler.Events(), "retry thrown"));
}

// ---------------------------------------------------------------------------
// Cancellation.

TEST(SchedulerTest, CancelsAQueuedJobImmediately) {
  SchedulerOptions options;
  options.max_running = 1;
  JobScheduler scheduler(options);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  SchedulerJobRequest blocker;
  blocker.spec = MakeSpec(150, 1, AnonymizationAlgorithm::kSamarati);
  blocker.on_start = [gate] { gate.wait(); };
  uint64_t blocker_id = UnwrapOk(scheduler.Submit(std::move(blocker)));
  WaitUntilRunning(scheduler, blocker_id);

  SchedulerJobRequest queued;
  queued.name = "victim";
  queued.spec = MakeSpec(150, 2, AnonymizationAlgorithm::kSamarati);
  uint64_t victim_id = UnwrapOk(scheduler.Submit(std::move(queued)));
  PSK_ASSERT_OK(scheduler.Cancel(victim_id));
  // The queued job is terminal without ever being dispatched.
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(victim_id));
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(result.attempts, 0);
  // Cancel is idempotent once terminal.
  PSK_EXPECT_OK(scheduler.Cancel(victim_id));

  release.set_value();
  PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(blocker_id)).status);
}

TEST(SchedulerTest, CancelsARunningJob) {
  JobScheduler scheduler({});
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  SchedulerJobRequest request;
  request.name = "victim";
  request.spec = MakeSpec(500, 9, AnonymizationAlgorithm::kExhaustive);
  auto started_ptr = std::make_shared<std::promise<void>>(std::move(started));
  request.on_start = [started_ptr, gate] {
    started_ptr->set_value();
    gate.wait();
  };
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  started_ptr->get_future().wait();
  PSK_ASSERT_OK(scheduler.Cancel(id));
  release.set_value();

  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
  EXPECT_EQ(result.state, JobState::kCancelled);
  // User cancellation aborts the fallback chain (kCancelled), it does not
  // degrade into a partial release.
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "cancel.requested victim"));
  EXPECT_TRUE(HasEvent(events, "cancelled victim"));
}

// ---------------------------------------------------------------------------
// Watchdog: hung-job escalation.

TEST(SchedulerTest, WatchdogHardCancelsAHungJobAndKeepsScheduling) {
  SchedulerOptions options;
  options.max_running = 1;
  options.watchdog_interval = std::chrono::milliseconds(5);
  options.hung_timeout = std::chrono::milliseconds(30);
  options.hard_cancel_grace = std::chrono::milliseconds(30);
  JobScheduler scheduler(options);

  auto release = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate(release->get_future());
  SchedulerJobRequest hung;
  hung.name = "hung";
  hung.spec = MakeSpec(150, 1, AnonymizationAlgorithm::kSamarati);
  // Deaf to the cooperative cancel: blocks before the first heartbeat.
  hung.on_start = [gate] { gate.wait(); };
  uint64_t hung_id = UnwrapOk(scheduler.Submit(std::move(hung)));

  SchedulerJobResult result = UnwrapOk(scheduler.Wait(hung_id));
  EXPECT_EQ(result.state, JobState::kCancelled);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.watchdog_cancels, 1u);
  EXPECT_EQ(stats.hard_cancels, 1u);
  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "watchdog.cancel hung"));
  EXPECT_TRUE(HasEvent(events, "watchdog.hard_cancel hung"));

  // The abandoned executor seat was replaced: the scheduler still runs
  // new jobs even though the hung attempt is still blocked.
  SchedulerJobRequest next;
  next.name = "after";
  next.spec = MakeSpec(150, 2, AnonymizationAlgorithm::kSamarati);
  uint64_t next_id = UnwrapOk(scheduler.Submit(std::move(next)));
  SchedulerJobResult next_result = UnwrapOk(scheduler.Wait(next_id));
  PSK_EXPECT_OK(next_result.status);

  // Unblock the abandoned attempt and wait for it to exit cleanly (its
  // late return is recorded, nothing else is touched).
  release->set_value();
  bool returned = false;
  for (int i = 0; i < 50000 && !returned; ++i) {
    returned = HasEvent(scheduler.Events(), "executor.abandoned_attempt");
    if (!returned) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(returned);
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// Degradation ladder.

// Delegates to `inner`, except that the first Generalize call waits until
// `resume()` holds. Anonymizer::Run makes that call in its preflight: after
// it has charged its input to the job's budget, before any search work.
class ParkingHierarchy : public AttributeHierarchy {
 public:
  ParkingHierarchy(std::shared_ptr<const AttributeHierarchy> inner,
                   std::function<bool()> resume)
      : inner_(std::move(inner)), resume_(std::move(resume)) {}

  const std::string& attribute_name() const override {
    return inner_->attribute_name();
  }
  int num_levels() const override { return inner_->num_levels(); }
  std::string LevelName(int level) const override {
    return inner_->LevelName(level);
  }
  Result<Value> Generalize(const Value& value, int level) const override {
    if (!parked_.exchange(true)) {
      while (!resume_()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return inner_->Generalize(value, level);
  }

 private:
  std::shared_ptr<const AttributeHierarchy> inner_;
  std::function<bool()> resume_;
  mutable std::atomic<bool> parked_{false};
};

TEST(SchedulerTest, DegradationLadderEndsInAPartialRelease) {
  JobSpec spec = MakeSpec(12000, 11, AnonymizationAlgorithm::kExhaustive);
  spec.fallback_chain = {AnonymizationAlgorithm::kFullSuppression};

  SchedulerOptions options;
  options.watchdog_interval = std::chrono::milliseconds(1);
  // A parked job makes no progress: keep the hang watchdog out of it.
  options.hung_timeout = std::chrono::seconds(60);
  // From the moment the run charges its input (~400KB), the job sits far
  // over its soft limit (1% of the quota = 7KB, below the rung-1 cache
  // cap of 8KB, so shrinking the cache cannot bring it back under), and
  // the watchdog climbs one rung per tick. The hard limit stays above
  // the input, so nothing trips until rung 3 forces exhaustion.
  options.cache_shrink_bytes = 8 * 1024;
  options.soft_quota_percent = 1;
  JobScheduler scheduler(options);
  SchedulerJobRequest request;
  request.name = "hog";
  request.spec = spec;
  request.memory_quota = 700 * 1024;
  // Park the run in its preflight until rung 3 has landed — deterministic,
  // instead of racing three watchdog ticks against a search that may end
  // first under load. The exhaustive stage then fails its first budget
  // charge (kResourceExhausted) and the budget-exempt full-suppression
  // stage releases.
  request.spec.hierarchies[0] = std::make_shared<ParkingHierarchy>(
      request.spec.hierarchies[0], [&scheduler] {
        return scheduler.stats().degrade_force_exhausted > 0;
      });
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));

  // Rung 3 is a budget stop, not a cancellation: the job *completes*
  // with best-so-far output through the fallback chain.
  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.degrade_level, 3);
  EXPECT_TRUE(result.report.partial || result.report.fallback_stage > 0);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.degrade_cache_shrinks, 1u);
  EXPECT_EQ(stats.degrade_force_exhausted, 1u);
  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "degrade.cache_shrink hog"));
  EXPECT_TRUE(HasEvent(events, "degrade.force_exhausted hog"));
  // The ladder is observable in the trace surface too.
  std::string trace = scheduler.TraceJson();
  EXPECT_NE(trace.find("degrade.force_exhausted"), std::string::npos);
  EXPECT_NE(trace.find("scheduler"), std::string::npos);
}

TEST(SchedulerTest, LadderRestartsAParallelJobOnTheSequentialPath) {
  JobSpec spec = MakeSpec(12000, 12, AnonymizationAlgorithm::kExhaustive);
  spec.fallback_chain = {AnonymizationAlgorithm::kFullSuppression};

  SchedulerOptions options;
  options.watchdog_interval = std::chrono::milliseconds(1);
  options.cache_shrink_bytes = 8 * 1024;
  options.soft_quota_percent = 1;  // same sizing as the ladder test above
  options.threads_per_job = 2;  // rung 2 has a parallel attempt to demote
  JobScheduler scheduler(options);
  SchedulerJobRequest request;
  request.name = "hog";
  request.spec = std::move(spec);
  // Roomy hard quota: the 1% *soft* quota drives the ladder. (Interned
  // tables charge their input footprint now, so a tight hard quota would
  // budget-stop the run before the ladder ever engages.)
  request.memory_quota = 2 * 1024 * 1024;

  // Stream the input through a source that parks after the first chunk
  // until the watchdog has climbed to rung 2: the materialization
  // reservation keeps the job over its soft quota while it waits, and
  // the rung-2 cancel then lands before the run starts — deterministic,
  // instead of racing the demotion against a search the interned data
  // layer made too fast to catch mid-flight. The source then holds the
  // job over its soft quota for ~20 watchdog ticks more: the ladder must
  // not climb to rung 3 while the restart is pending, or the forced
  // exhaustion would fail the sequential attempt's input charge.
  auto source_table =
      std::make_shared<Table>(std::move(request.spec.input));
  request.spec.input = Table(source_table->schema());
  auto pos = std::make_shared<size_t>(0);
  request.spec.input_source = [source_table, pos, &scheduler](
                                  size_t max_rows,
                                  IngestChunk* chunk) -> Result<size_t> {
    if (*pos > 0) {
      // First chunk is charged; park until the demotion fires.
      while (scheduler.stats().degrade_sequential_restarts == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    size_t rows = std::min(max_rows, source_table->num_rows() - *pos);
    chunk->Reset(source_table->schema(), rows);
    for (size_t c = 0; c < source_table->num_columns(); ++c) {
      for (size_t r = 0; r < rows; ++r) {
        chunk->Append(c, source_table->Get(*pos + r, c));
      }
    }
    *pos += rows;
    return rows;
  };
  uint64_t id = UnwrapOk(scheduler.Submit(std::move(request)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));

  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.degrade_level, 3);
  // The rung-2 demotion cancelled the parallel attempt and re-ran the job
  // sequentially: two attempts, with the restart visible in the events.
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(scheduler.stats().degrade_sequential_restarts, 1u);
  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "degrade.sequential hog"));
  EXPECT_TRUE(HasEvent(events, "degrade.sequential_restart hog"));
  EXPECT_TRUE(HasEvent(events, "start hog (attempt 2 threads=1"));
}

}  // namespace
}  // namespace psk
