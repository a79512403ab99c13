// Cross-job cancellation isolation: N concurrent jobs share the process
// ThreadPool through the scheduler; cancelling one mid-sweep must not
// perturb its neighbors. Each surviving job's release must be
// byte-identical to a solo run of the same spec, with identical
// SearchStats — the sweep shards carry only their owning job's
// CancelToken, so a neighbor's cancel can neither stop nor skew them.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/datagen/adult.h"
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

// A solo run of `spec` with a fresh VerdictCache, like the one the
// scheduler gives each job.
AnonymizationReport SoloRun(const JobSpec& spec, size_t threads) {
  Anonymizer anonymizer(spec.input);
  for (const auto& hierarchy : spec.hierarchies) {
    anonymizer.AddHierarchy(hierarchy);
  }
  anonymizer.set_k(spec.k)
      .set_p(spec.p)
      .set_max_suppression(spec.max_suppression)
      .set_algorithm(spec.algorithm)
      .set_threads(threads)
      .set_verdict_cache(std::make_shared<VerdictCache>());
  return UnwrapOk(anonymizer.Run());
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
  EXPECT_FALSE(a.partial);
  EXPECT_FALSE(b.partial);
  EXPECT_EQ(a.stop_reason, StatusCode::kOk);
  EXPECT_EQ(b.stop_reason, StatusCode::kOk);
}

TEST(CancelIsolationTest, CancellingOneJobLeavesNeighborsByteIdentical) {
  constexpr size_t kThreadsPerJob = 2;

  // Four survivor jobs across distinct engines and seeds, plus one big
  // exhaustive victim that will be cancelled mid-sweep.
  struct Survivor {
    std::string name;
    JobSpec spec;
    std::string solo_csv;
    AnonymizationReport solo;
  };
  std::vector<Survivor> survivors;
  survivors.push_back(
      {"exhaustive", MakeSpec(300, 2, AnonymizationAlgorithm::kExhaustive),
       "", {}});
  survivors.push_back(
      {"samarati", MakeSpec(350, 3, AnonymizationAlgorithm::kSamarati),
       "", {}});
  survivors.push_back(
      {"ola", MakeSpec(300, 4, AnonymizationAlgorithm::kOla), "", {}});
  survivors.push_back(
      {"incognito", MakeSpec(250, 5, AnonymizationAlgorithm::kIncognito),
       "", {}});
  for (Survivor& survivor : survivors) {
    survivor.solo = SoloRun(survivor.spec, kThreadsPerJob);
    survivor.solo_csv = WriteCsvString(survivor.solo.masked);
  }

  SchedulerOptions options;
  options.max_running = 5;  // all five jobs genuinely concurrent
  options.threads_per_job = kThreadsPerJob;
  JobScheduler scheduler(options);

  SchedulerJobRequest victim_request;
  victim_request.name = "victim";
  victim_request.spec =
      MakeSpec(4000, 99, AnonymizationAlgorithm::kExhaustive);
  uint64_t victim_id = UnwrapOk(scheduler.Submit(std::move(victim_request)));

  std::vector<uint64_t> survivor_ids;
  for (const Survivor& survivor : survivors) {
    SchedulerJobRequest request;
    request.name = survivor.name;
    request.spec = survivor.spec;
    survivor_ids.push_back(UnwrapOk(scheduler.Submit(std::move(request))));
  }

  // Cancel the victim once it is demonstrably mid-sweep (its heartbeat
  // ticks only from inside the search's budget checkpoints).
  bool sweeping = false;
  for (int i = 0; i < 50000 && !sweeping; ++i) {
    SchedulerJobStatus status = UnwrapOk(scheduler.Progress(victim_id));
    sweeping = status.state == JobState::kRunning && status.heartbeat > 0;
    if (!sweeping) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(sweeping) << "victim never reached its sweep";
  PSK_ASSERT_OK(scheduler.Cancel(victim_id));

  SchedulerJobResult victim = UnwrapOk(scheduler.Wait(victim_id));
  EXPECT_EQ(victim.state, JobState::kCancelled);
  EXPECT_EQ(victim.status.code(), StatusCode::kCancelled);

  // Every neighbor ran to completion as if it had the process to itself.
  for (size_t i = 0; i < survivors.size(); ++i) {
    SchedulerJobResult result = UnwrapOk(scheduler.Wait(survivor_ids[i]));
    PSK_ASSERT_OK(result.status);
    EXPECT_EQ(result.state, JobState::kCompleted) << survivors[i].name;
    EXPECT_EQ(WriteCsvString(result.report.masked), survivors[i].solo_csv)
        << survivors[i].name;
    EXPECT_EQ(result.report.achieved_k, survivors[i].solo.achieved_k);
    EXPECT_EQ(result.report.achieved_p, survivors[i].solo.achieved_p);
    EXPECT_EQ(result.report.suppressed, survivors[i].solo.suppressed);
    EXPECT_EQ(result.report.discernibility,
              survivors[i].solo.discernibility);
    ExpectSameStats(result.report.stats, survivors[i].solo.stats);
  }
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
  EXPECT_EQ(scheduler.stats().completed, survivors.size());
}

TEST(CancelIsolationTest, RepeatedCancellationsDoNotPoisonTheScheduler) {
  // Cancel several victims back to back on a busy scheduler, then prove a
  // fresh job still completes correctly — no stuck slots, no leaked
  // cancel state bleeding into later runs.
  SchedulerOptions options;
  options.max_running = 3;
  options.threads_per_job = 2;
  JobScheduler scheduler(options);

  JobSpec reference_spec = MakeSpec(300, 21, AnonymizationAlgorithm::kOla);
  AnonymizationReport solo = SoloRun(reference_spec, 2);

  // Generate the victim datasets before submitting anything: dataset
  // generation takes longer than a small sweep, so interleaving it with
  // submission would let early victims finish before the cancel loop.
  std::vector<JobSpec> victim_specs;
  for (uint64_t seed = 30; seed < 33; ++seed) {
    victim_specs.push_back(
        MakeSpec(3000, seed, AnonymizationAlgorithm::kExhaustive));
  }
  // Every victim parks at its start until all cancels are sent, so each
  // cancel lands on a queued or running job, never on a finished one. The
  // promise is declared after the scheduler: if an assert returns early,
  // its destruction wakes the parked victims before the scheduler joins.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::vector<uint64_t> victims;
  for (uint64_t seed = 30; seed < 33; ++seed) {
    SchedulerJobRequest request;
    request.name = "victim-" + std::to_string(seed);
    request.spec = std::move(victim_specs[seed - 30]);
    request.on_start = [gate] { gate.wait(); };
    victims.push_back(UnwrapOk(scheduler.Submit(std::move(request))));
  }
  for (uint64_t id : victims) {
    PSK_ASSERT_OK(scheduler.Cancel(id));
  }
  release.set_value();
  for (uint64_t id : victims) {
    SchedulerJobResult result = UnwrapOk(scheduler.Wait(id));
    EXPECT_EQ(result.state, JobState::kCancelled);
  }

  SchedulerJobRequest after;
  after.name = "after";
  after.spec = reference_spec;
  uint64_t after_id = UnwrapOk(scheduler.Submit(std::move(after)));
  SchedulerJobResult result = UnwrapOk(scheduler.Wait(after_id));
  PSK_ASSERT_OK(result.status);
  EXPECT_EQ(WriteCsvString(result.report.masked), WriteCsvString(solo.masked));
  ExpectSameStats(result.report.stats, solo.stats);
}

}  // namespace
}  // namespace psk
