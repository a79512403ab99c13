// jobs_mix: many small jobs through a JobScheduler, driven by a closed
// loop of clients that each wait for their job before submitting the next.
//
// The timed jobs run in memory, without a job dir. With durable job dirs,
// the commit's fsyncs took over half of a job's latency and most of the
// run-to-run spread, and fsync latency belongs to the disk under the
// checkout rather than to the library. The traced pass times the durable
// commit on its own (jobs.commit_ms).

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pipeline.h"
#include "psk/api/anonymizer.h"
#include "psk/datagen/adult.h"
#include "psk/jobs/checkpoint_io.h"
#include "psk/jobs/job.h"
#include "psk/table/csv.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// At 20,000 rows the search path depended on the seed: 26 of seeds
/// 1-100 (4, 6 and 8 of 1-10) probed 4 heights and 62 nodes instead of 3
/// and 43, so every ten-seed spread held a seed effect. At 35,000 rows 98
/// of seeds 1-100 (all of 1-10) take the 3-height path.
constexpr size_t kJobRows = 35000;
constexpr size_t kClients = 4;
/// The closed loop runs in rounds of this many jobs, each on a new
/// scheduler made by a set-up between rounds, outside the timed region. A
/// scheduler keeps every job it ran (input, release, verdict cache) and
/// its watchdog walks them all, so one scheduler for the whole run would
/// let latency grow with the run's length and throughput.
constexpr size_t kJobsPerRound = 40;
/// A run keeps going past its seconds until this many jobs completed, so
/// op_p90_ms has at least 10 samples beyond it.
constexpr size_t kMinJobs = 100;
/// Safety stop for the closed loop, past the measured seconds.
constexpr std::chrono::seconds kOverrun{60};
constexpr size_t kLedgerPasses = 10;
constexpr size_t kCommitPairs = 10;
constexpr psk::JobPriority kPriorityRotation[] = {
    psk::JobPriority::kInteractive, psk::JobPriority::kNormal,
    psk::JobPriority::kBatch};
constexpr Requirements kRequirements = {/*k=*/3, /*p=*/2,
                                        /*max_suppression=*/200,
                                        /*threads=*/1};

struct JobsSetup {
  Input input;
  std::unique_ptr<psk::JobScheduler> scheduler;
};

psk::Result<Input> MakeAdultInput(uint64_t seed) {
  PSK_ASSIGN_OR_RETURN(psk::Table table, psk::AdultGenerate(kJobRows, seed));
  Input input;
  input.schema = table.schema();
  input.csv = psk::WriteCsvString(table);
  input.table = std::move(table);
  PSK_ASSIGN_OR_RETURN(input.hierarchies,
                       psk::AdultHierarchies(input.schema));
  return input;
}

JobsSetup SetUp(const Args& args) {
  JobsSetup setup;
  setup.input = Require(MakeAdultInput(args.seed), "Adult input");
  psk::SchedulerOptions options;
  options.max_running = 2;
  options.threads_per_job = 1;
  setup.scheduler = std::make_unique<psk::JobScheduler>(options);
  return setup;
}

/// The job's requirements over an empty input table of the schema.
psk::JobSpec MakeSpec(const Input& input, uint64_t seed) {
  psk::JobSpec spec;
  spec.input = psk::Table(input.schema);
  for (size_t i = 0; i < input.hierarchies.size(); ++i) {
    spec.hierarchies.push_back(input.hierarchies.hierarchy_ptr(i));
  }
  spec.k = kRequirements.k;
  spec.p = kRequirements.p;
  spec.max_suppression = kRequirements.max_suppression;
  spec.threads = kRequirements.threads;
  spec.seed = seed;
  return spec;
}

/// Streams the input's CSV text into the job through input_source.
psk::Status AttachCsvSource(const Input& input, psk::JobSpec* spec) {
  PSK_ASSIGN_OR_RETURN(psk::CsvChunkReader reader,
                       psk::CsvChunkReader::OpenString(input.csv,
                                                       input.schema));
  auto shared = std::make_shared<psk::CsvChunkReader>(std::move(reader));
  spec->input_source = [shared](size_t max_rows, psk::IngestChunk* chunk) {
    return shared->NextChunk(max_rows, chunk);
  };
  return psk::Status::OK();
}

/// What the closed loop measured, summed over its rounds.
struct LoopResult {
  /// In completion order.
  std::vector<double> latency_ms;
  /// Submit -> first on_start, and first on_start -> Wait returns; only
  /// filled when the loop installed on_start hooks.
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  uint64_t peak_bytes = 0;
  double wall_s = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
};

/// One round: the clients share kJobsPerRound jobs on the set-up's fresh
/// scheduler, whose stats() are then the round's own.
void RunRound(JobsSetup& setup, uint64_t expected_digest, uint64_t seed,
              bool hooks, LoopResult* loop, Outcome* outcome) {
  std::mutex mu;  // guards *loop and *outcome
  std::atomic<size_t> issued{0};
  psk::JobScheduler& scheduler = *setup.scheduler;
  Clock::time_point start = Clock::now();

  auto client = [&](size_t c) {
    for (size_t seq = 0; issued.fetch_add(1) < kJobsPerRound; ++seq) {
      psk::SchedulerJobRequest request;
      request.name = "client" + std::to_string(c) + "-" + std::to_string(seq);
      request.spec = MakeSpec(setup.input, seed);
      psk::Status attached = AttachCsvSource(setup.input, &request.spec);
      if (!attached.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        outcome->Record("input source: " + attached.ToString());
        continue;
      }
      request.priority = kPriorityRotation[(c + seq) % 3];
      auto started = std::make_shared<std::atomic<int64_t>>(0);
      if (hooks) {
        request.on_start = [started] {
          int64_t unset = 0;
          started->compare_exchange_strong(
              unset, Clock::now().time_since_epoch().count());
        };
      }

      Clock::time_point submitted = Clock::now();
      psk::Result<uint64_t> id = scheduler.Submit(std::move(request));
      if (!id.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu);
          outcome->Record("Submit: " + id.status().ToString());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      psk::Result<psk::SchedulerJobResult> waited = scheduler.Wait(*id);
      Clock::time_point done = Clock::now();

      std::string failure = CheckJobResult(expected_digest, waited);
      psk::Result<psk::SchedulerJobStatus> status = scheduler.Progress(*id);
      std::lock_guard<std::mutex> lock(mu);
      outcome->Record(failure);
      loop->latency_ms.push_back(MsBetween(submitted, done));
      if (status.ok()) {
        loop->peak_bytes =
            std::max(loop->peak_bytes, status->memory_high_water);
      }
      if (hooks && started->load() != 0) {
        Clock::time_point began{Clock::duration(started->load())};
        loop->queue_wait_ms.push_back(MsBetween(submitted, began));
        loop->run_ms.push_back(MsBetween(began, done));
      }
    }
  };
  {
    std::vector<std::jthread> clients;
    for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  }
  loop->wall_s += MsBetween(start, Clock::now()) / 1000.0;
  psk::SchedulerStats stats = scheduler.stats();
  loop->shed += stats.shed;
  loop->retries += stats.retries;
  loop->degraded += stats.degrade_cache_shrinks +
                    stats.degrade_sequential_restarts +
                    stats.degrade_force_exhausted;
}

/// Empty when the release passed the guard and its TableDigest equals
/// `expected_digest`.
std::string CheckReport(uint64_t expected_digest,
                        const psk::AnonymizationReport& report) {
  if (!report.guard.passed) return "release did not pass the guard";
  uint64_t digest = psk::TableDigest(report.masked);
  if (digest != expected_digest) {
    return "release digest " + psk::HashToHex(digest) + " != reference " +
           psk::HashToHex(expected_digest);
  }
  return "";
}

/// jobs.commit_ms: the median of JobRunner::Run minus Anonymizer::Run
/// over pairs on the same materialized spec.
ServiceLayers MeasureCommit(const JobsSetup& setup, uint64_t expected_digest,
                            const Args& args, Outcome* outcome) {
  std::string job_dir = args.work_dir + "/jobs_mix/direct";
  ResetDir(job_dir);
  psk::JobSpec spec = MakeSpec(setup.input, args.seed);
  spec.input = setup.input.table;
  std::vector<double> diffs;
  for (size_t i = 0; i < kCommitPairs; ++i) {
    Clock::time_point t0 = Clock::now();
    psk::JobRunner runner(job_dir);
    psk::Result<psk::JobOutcome> job = runner.Run(spec);
    Clock::time_point t1 = Clock::now();
    outcome->Record(job.ok() ? CheckReport(expected_digest, job->report)
                             : "JobRunner::Run: " + job.status().ToString());

    Clock::time_point t2 = Clock::now();
    psk::Anonymizer anonymizer(spec.input);
    Configure(anonymizer, setup.input, kRequirements);
    psk::Result<psk::AnonymizationReport> run = anonymizer.Run();
    Clock::time_point t3 = Clock::now();
    outcome->Record(run.ok() ? CheckReport(expected_digest, *run)
                             : "Anonymizer::Run: " + run.status().ToString());
    diffs.push_back(MsBetween(t0, t1) - MsBetween(t2, t3));
  }
  ServiceLayers service;
  service.commit_ms = Median(diffs);
  service.commit_samples = diffs.size();
  return service;
}

}  // namespace

std::string CheckJobResult(
    uint64_t expected_digest,
    const psk::Result<psk::SchedulerJobResult>& waited) {
  if (!waited.ok()) return "Wait: " + waited.status().ToString();
  if (!waited->status.ok()) return "job: " + waited->status.ToString();
  if (waited->state != psk::JobState::kCompleted) {
    return std::string("job ended ") + psk::JobStateName(waited->state);
  }
  return CheckReport(expected_digest, waited->report);
}

Outcome RunJobsMix(const Args& args) {
  Outcome outcome;
  std::vector<double> setup_s;
  auto set_up = [&] {
    Clock::time_point start = Clock::now();
    JobsSetup made = SetUp(args);
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    return made;
  };
  JobsSetup setup = set_up();
  Reference ref =
      Require(MakeReference(setup.input, kRequirements), "reference run");
  outcome.inputs.push_back(InputLine("jobs_mix", args.seed, setup.input));

  // Rounds until the run's seconds are up and kMinJobs jobs completed.
  // Each round ends with the next set-up, so set-up, like the ops, is
  // sampled across the whole run: the host's speed drifts within seconds.
  LoopResult loop;
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  Clock::time_point hard_stop = deadline + kOverrun;
  do {
    RunRound(setup, ref.release_hash, args.seed, args.trace, &loop,
             &outcome);
    setup.scheduler.reset();  // joins its threads outside any timed region
    setup = set_up();
  } while (Clock::now() < hard_stop &&
           (Clock::now() < deadline || loop.latency_ms.size() < kMinJobs));

  size_t jobs = loop.latency_ms.size();
  double op_p50 = jobs == 0 ? 0.0 : Median(loop.latency_ms);
  if (!args.trace) {
    outcome.metrics = {
        {"setup_s", Median(setup_s), "s", setup_s.size()},
        {"op_p50_ms", op_p50, "ms", jobs},
        {"peak_tracked_mb", static_cast<double>(loop.peak_bytes) / 1e6, "MB",
         jobs},
    };
    size_t half = jobs / 2;
    outcome.extra = {
        {"ops_per_s", static_cast<double>(jobs) / loop.wall_s, "ops/s", jobs},
        {"op_p90_ms", jobs == 0 ? 0.0 : Percentile(loop.latency_ms, 0.9),
         "ms", jobs},
        // No trend from the first to the second half of the run.
        {"op_p50_first_half_ms",
         half == 0 ? 0.0
                   : Median({loop.latency_ms.begin(),
                             loop.latency_ms.begin() + half}),
         "ms", half},
        {"op_p50_second_half_ms",
         half == 0 ? 0.0
                   : Median({loop.latency_ms.begin() + half,
                             loop.latency_ms.end()}),
         "ms", jobs - half},
    };
    return outcome;
  }

  ServiceLayers service =
      MeasureCommit(setup, ref.release_hash, args, &outcome);
  service.jobs = loop.queue_wait_ms.size();
  if (service.jobs > 0) {
    service.queue_wait_p50_ms = Median(loop.queue_wait_ms);
    service.queue_wait_p90_ms = Percentile(loop.queue_wait_ms, 0.9);
    service.run_p50_ms = Median(loop.run_ms);
  }
  service.shed = loop.shed;
  service.retries = loop.retries;
  service.degraded = loop.degraded;

  Ledger ledger;
  for (size_t i = 0; i < kLedgerPasses; ++i) {
    ledger.BeginPass("pass");
    psk::Result<Release> pass =
        RunLedgerPass(setup.input, kRequirements, &ledger);
    ledger.EndPass();
    outcome.Record(pass.ok() ? CheckRelease(ref, *pass)
                             : "ledger pass: " + pass.status().ToString());
  }
  outcome.metrics = LayerMetrics(ledger, op_p50, jobs, service);
  WriteTrace(ledger, args);
  return outcome;
}

}  // namespace perfbench
