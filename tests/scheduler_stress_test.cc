// Acceptance stress for the multi-job scheduler: >= 8 concurrent jobs of
// mixed priorities — one pinned over its memory quota (walks the
// degradation ladder to a partial release), one hung (escalated by the
// watchdog to a hard cancel), one fault-injected (transient kUnavailable
// retried to success) — must all complete or shed deterministically with
// no deadlock, surviving jobs byte-identical to solo runs, and the
// degradation ladder observable in the scheduler trace.

#include <gtest/gtest.h>

#include <chrono>
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
#include "psk/common/run_budget.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/service/scheduler.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

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

// An exhaustive job over a 16,384-node lattice (seven QIs, four levels
// each) whose QI tuples barely repeat, so every node groups all its rows.
JobSpec MakeWideLatticeSpec(size_t rows, uint64_t seed) {
  SyntheticSpec synthetic = MakeUniformSpec(rows, 7, 6, 1, 50, 0.5);
  for (size_t i = 0; i < 7; ++i) synthetic.attributes[i].hierarchy_levels = 4;
  SyntheticData data = UnwrapOk(SyntheticGenerate(synthetic, seed));
  JobSpec spec;
  spec.input = std::move(data.table);
  for (size_t i = 0; i < data.hierarchies.size(); ++i) {
    spec.hierarchies.push_back(data.hierarchies.hierarchy_ptr(i));
  }
  spec.k = 3;
  spec.p = 2;
  spec.max_suppression = 6;
  spec.algorithm = AnonymizationAlgorithm::kExhaustive;
  return spec;
}

AnonymizationReport SoloRun(const JobSpec& spec, size_t threads,
                            RunBudget budget = {}) {
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

TEST(SchedulerStressTest, MixedOverloadRoundCompletesDeterministically) {
  constexpr size_t kThreadsPerJob = 2;

  // --- Solo baselines for the five survivor jobs (mixed engines). -----
  struct Survivor {
    std::string name;
    JobPriority priority;
    JobSpec spec;
    std::string solo_csv;
  };
  std::vector<Survivor> survivors;
  survivors.push_back({"s-exhaustive", JobPriority::kInteractive,
                       MakeSpec(250, 41, AnonymizationAlgorithm::kExhaustive),
                       ""});
  survivors.push_back({"s-samarati", JobPriority::kNormal,
                       MakeSpec(300, 42, AnonymizationAlgorithm::kSamarati),
                       ""});
  survivors.push_back({"s-ola", JobPriority::kBatch,
                       MakeSpec(250, 43, AnonymizationAlgorithm::kOla), ""});
  survivors.push_back({"s-mondrian", JobPriority::kInteractive,
                       MakeSpec(400, 44, AnonymizationAlgorithm::kMondrian),
                       ""});
  survivors.push_back({"s-greedy", JobPriority::kBatch,
                       MakeSpec(200, 45,
                                AnonymizationAlgorithm::kGreedyCluster),
                       ""});
  for (Survivor& survivor : survivors) {
    survivor.solo_csv =
        WriteCsvString(SoloRun(survivor.spec, kThreadsPerJob).masked);
  }

  // Over-quota job. It holds its input and its encoding for the whole
  // run, far more than its soft quota (sized below), so it stays over-soft
  // after rung 1 narrows it to one lane and the ladder walks to rung 2.
  // Sized so the sweep outlasts two watchdog dwells: rung 2 must land
  // while the search is still sweeping. An Adult input cannot be: its QI tuples
  // repeat so heavily that its nodes group a few thousand entries, and a
  // 12,000-row exhaustive search took 5-10 ms, often finishing before the
  // ladder's first rung. A 1,024-node lattice (about 30 ms solo) could
  // still finish before rung 2 under load. A solo run of this 16,384-node
  // lattice takes about 0.4 s at 2 threads on a 4-core Xeon.
  JobSpec hog_spec = MakeWideLatticeSpec(4000, 46);
  hog_spec.fallback_chain = {AnonymizationAlgorithm::kFullSuppression};

  // Transient fault: the only durable job's first journal write fails
  // with kUnavailable; the retry must succeed.
  std::string fault_dir = ProcessJobDir("psk_sched_stress_fault");
  PSK_ASSERT_OK(
      FailPoints::ArmFromSpec("jobs.journal.begin=error(Unavailable)x1"));

  // Generate every remaining dataset up front: once the gate jobs block
  // the executors their heartbeats are frozen, so the window between
  // phase 1 and phase 4 must stay well inside hung_timeout even on a
  // loaded sanitizer machine.
  std::vector<JobSpec> gate_specs;
  for (int i = 0; i < 3; ++i) {
    gate_specs.push_back(
        MakeSpec(150, 50 + i, AnonymizationAlgorithm::kSamarati));
  }
  JobSpec hung_spec = MakeSpec(150, 60, AnonymizationAlgorithm::kSamarati);
  JobSpec fault_spec = MakeSpec(150, 61, AnonymizationAlgorithm::kSamarati);
  std::vector<JobSpec> extra_specs;
  for (int i = 0; i < 2; ++i) {
    extra_specs.push_back(
        MakeSpec(150, 70 + i, AnonymizationAlgorithm::kSamarati));
  }

  SchedulerOptions options;
  options.max_running = 3;
  options.max_queue_depth = 8;
  options.threads_per_job = kThreadsPerJob;
  options.watchdog_interval = std::chrono::milliseconds(3);
  options.hung_timeout = std::chrono::milliseconds(300);
  options.hard_cancel_grace = std::chrono::milliseconds(100);
  options.retry_backoff_base = std::chrono::milliseconds(1);
  // hog quota below: hard = 5 MB, above its solo high-water of about 3.7
  // MB at 2 threads (nothing trips until rung 2 forces exhaustion); soft
  // = 1% = 52 KB, below the input and encoding it holds for its whole run
  // (stays armed through every rung).
  options.soft_quota_percent = 1;
  options.shed_retry_after_ms = 25;
  JobScheduler scheduler(options);

  // --- Phase 1: block all three executors with gate jobs so the next
  // eight submissions are queued and admission control is exact. -------
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::vector<uint64_t> gate_ids;
  for (int i = 0; i < 3; ++i) {
    SchedulerJobRequest request;
    request.name = "gate-" + std::to_string(i);
    request.priority = JobPriority::kInteractive;
    request.spec = std::move(gate_specs[i]);
    request.on_start = [gate] { gate.wait(); };
    gate_ids.push_back(UnwrapOk(scheduler.Submit(std::move(request))));
  }
  for (int i = 0; i < 20000; ++i) {
    size_t running = 0;
    for (const SchedulerJobStatus& job : scheduler.Jobs()) {
      if (job.state == JobState::kRunning) ++running;
    }
    if (running == 3) break;
    ASSERT_LT(i, 19999) << "gate jobs never occupied all executors";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  // --- Phase 2: queue the eight-job mixed workload. -------------------
  auto hung_release = std::make_shared<std::promise<void>>();
  std::shared_future<void> hung_gate(hung_release->get_future());

  SchedulerJobRequest hung;
  hung.name = "hung";
  hung.priority = JobPriority::kNormal;
  hung.spec = std::move(hung_spec);
  hung.on_start = [hung_gate] { hung_gate.wait(); };
  uint64_t hung_id = UnwrapOk(scheduler.Submit(std::move(hung)));

  SchedulerJobRequest hog;
  hog.name = "hog";
  hog.priority = JobPriority::kNormal;
  hog.spec = hog_spec;
  hog.memory_quota = 5 * 1024 * 1024;
  uint64_t hog_id = UnwrapOk(scheduler.Submit(std::move(hog)));

  SchedulerJobRequest fault;
  fault.name = "fault";
  fault.priority = JobPriority::kInteractive;
  fault.spec = std::move(fault_spec);
  fault.job_dir = fault_dir;
  uint64_t fault_id = UnwrapOk(scheduler.Submit(std::move(fault)));

  std::vector<uint64_t> survivor_ids;
  for (const Survivor& survivor : survivors) {
    SchedulerJobRequest request;
    request.name = survivor.name;
    request.priority = survivor.priority;
    request.spec = survivor.spec;
    survivor_ids.push_back(UnwrapOk(scheduler.Submit(std::move(request))));
  }

  // --- Phase 3: the queue is now exactly full (8 waiting); two more
  // submissions must shed deterministically with a retry-after hint. ---
  for (int i = 0; i < 2; ++i) {
    SchedulerJobRequest extra;
    extra.name = "extra-" + std::to_string(i);
    extra.spec = std::move(extra_specs[i]);
    Result<uint64_t> shed = scheduler.Submit(std::move(extra));
    ASSERT_FALSE(shed.ok());
    EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(shed.status().retryable());
    ASSERT_TRUE(shed.status().retry_after_ms().has_value());
    EXPECT_EQ(*shed.status().retry_after_ms(), 25u);
  }
  EXPECT_EQ(scheduler.stats().shed, 2u);

  // --- Phase 4: lift the gates and let the round play out. ------------
  release.set_value();

  for (uint64_t id : gate_ids) {
    PSK_EXPECT_OK(UnwrapOk(scheduler.Wait(id)).status);
  }

  // The hung job is escalated: cooperative cancel, then hard cancel.
  SchedulerJobResult hung_result = UnwrapOk(scheduler.Wait(hung_id));
  EXPECT_EQ(hung_result.state, JobState::kCancelled);
  EXPECT_EQ(hung_result.status.code(), StatusCode::kCancelled);

  // The over-quota job *completes* with degraded, partial output.
  SchedulerJobResult hog_result = UnwrapOk(scheduler.Wait(hog_id));
  PSK_EXPECT_OK(hog_result.status);
  EXPECT_EQ(hog_result.state, JobState::kCompleted);
  EXPECT_GE(hog_result.degrade_level, 1);
  EXPECT_TRUE(hog_result.report.partial ||
              hog_result.report.fallback_stage > 0);

  // The fault-injected job retried through the transient error.
  SchedulerJobResult fault_result = UnwrapOk(scheduler.Wait(fault_id));
  PSK_EXPECT_OK(fault_result.status);
  EXPECT_EQ(fault_result.state, JobState::kCompleted);
  EXPECT_EQ(fault_result.attempts, 2);
  EXPECT_TRUE(FileExists(fault_dir + "/release.csv"));

  // Every survivor's release is byte-identical to its solo run: the
  // neighbors' cancellation, degradation and faults never bled over.
  for (size_t i = 0; i < survivors.size(); ++i) {
    SchedulerJobResult result = UnwrapOk(scheduler.Wait(survivor_ids[i]));
    PSK_ASSERT_OK(result.status);
    EXPECT_EQ(result.state, JobState::kCompleted) << survivors[i].name;
    EXPECT_FALSE(result.report.partial) << survivors[i].name;
    EXPECT_EQ(WriteCsvString(result.report.masked), survivors[i].solo_csv)
        << survivors[i].name;
  }

  // --- Phase 5: observability and bookkeeping. ------------------------
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.submitted, 11u);  // 3 gates + 8 workload
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.watchdog_cancels, 1u);
  EXPECT_EQ(stats.hard_cancels, 1u);
  EXPECT_GE(stats.degrade_sequential_restarts, 1u);
  EXPECT_EQ(stats.completed, 3u + 1u + 1u + survivors.size());
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 0u);

  std::vector<std::string> events = scheduler.Events();
  EXPECT_TRUE(HasEvent(events, "shed.queue"));
  EXPECT_TRUE(HasEvent(events, "retry fault"));
  EXPECT_TRUE(HasEvent(events, "watchdog.cancel hung"));
  EXPECT_TRUE(HasEvent(events, "watchdog.hard_cancel hung"));
  EXPECT_TRUE(HasEvent(events, "degrade.sequential hog"));

  // The degradation ladder and the watchdog escalation are visible in
  // the scheduler's trace surface.
  std::string trace = scheduler.TraceJson();
  EXPECT_NE(trace.find("degrade.sequential"), std::string::npos);
  EXPECT_NE(trace.find("watchdog.hard_cancel"), std::string::npos);
  EXPECT_NE(trace.find("shed.queue"), std::string::npos);

  // Unblock the abandoned executor and wait for its clean exit before
  // tearing the process down.
  hung_release->set_value();
  bool returned = false;
  for (int i = 0; i < 50000 && !returned; ++i) {
    returned = HasEvent(scheduler.Events(), "executor.abandoned_attempt");
    if (!returned) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(returned);
  scheduler.Stop();
  FailPoints::DisarmAll();
}

}  // namespace
}  // namespace psk
