#ifndef PSK_SERVICE_SCHEDULER_H_
#define PSK_SERVICE_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/common/result.h"
#include "psk/jobs/job.h"

namespace psk {

/// Dispatch class of one scheduled job. Higher classes are served more
/// often by the deterministic weighted round-robin pattern, but every
/// class appears in the pattern, so batch work is throttled — never
/// starved — while interactive jobs are in the queue.
enum class JobPriority {
  kBatch = 0,
  kNormal = 1,
  kInteractive = 2,
};

const char* JobPriorityName(JobPriority priority);

/// Lifecycle of one admitted job. Terminal states are kCompleted,
/// kFailed and kCancelled; a retried job moves back to kQueued between
/// attempts.
enum class JobState {
  kQueued = 0,
  kRunning = 1,
  kCompleted = 2,
  kFailed = 3,
  kCancelled = 4,
};

const char* JobStateName(JobState state);

/// Tuning knobs for one JobScheduler. The defaults suit tests and small
/// embedded deployments; a service wraps its own policy around them.
struct SchedulerOptions {
  /// Executor threads = jobs running concurrently. Each running job may
  /// additionally shard its node sweeps over the shared ThreadPool (see
  /// threads_per_job); ThreadPool::FairShareWorkers keeps concurrent
  /// sweeps from oversubscribing the machine.
  size_t max_running = 2;
  /// Admission bound: Submit sheds (kResourceExhausted + retry-after)
  /// when this many jobs are already waiting in the queues.
  size_t max_queue_depth = 16;
  /// Admission bound on in-flight memory: Submit sheds while the live
  /// jobs' MemoryBudget charges sum past this. 0 = unlimited.
  uint64_t max_total_memory = 0;
  /// Per-job hard memory quota applied when a request does not carry its
  /// own. 0 = unlimited (no hard limit, no ladder).
  uint64_t default_job_quota = 0;
  /// The soft (advisory) limit that arms the degradation ladder is this
  /// fraction of the job's hard quota, in percent.
  uint32_t soft_quota_percent = 75;
  /// Watchdog poll cadence; also the minimum dwell between ladder rungs.
  std::chrono::milliseconds watchdog_interval{20};
  /// A running job whose heartbeat has not advanced for this long is
  /// presumed hung and cooperatively cancelled.
  std::chrono::milliseconds hung_timeout{1000};
  /// Grace after the cooperative cancel before the watchdog hard-cancels:
  /// the executor thread is abandoned (detached and replaced) and the job
  /// is forced terminal.
  std::chrono::milliseconds hard_cancel_grace{500};
  /// Re-dispatches of a job whose attempt failed with a retryable status
  /// (Status::retryable(): kUnavailable, or kResourceExhausted carrying a
  /// retry-after hint).
  int max_retries = 2;
  /// Exponential backoff between retry attempts (RetryBackoffDelay).
  std::chrono::milliseconds retry_backoff_base{10};
  std::chrono::milliseconds retry_backoff_cap{200};
  /// Retry-after hint attached to shed admissions.
  uint64_t shed_retry_after_ms = 100;
  /// Directory-lock wait passed to JobRunner for durable jobs.
  std::chrono::milliseconds lock_wait{250};
  /// Sweep threads per job (ladder rung 1 narrows a running job to one).
  size_t threads_per_job = 1;
};

/// One admission request. `spec` carries the work; the scheduler owns the
/// run-control plumbing (CancelToken, MemoryBudget, heartbeat) and
/// overwrites whatever the spec's budget carried.
struct SchedulerJobRequest {
  /// Display name for events/traces; defaults to "job-<id>" when empty.
  std::string name;
  JobSpec spec;
  /// Empty = in-memory execution (Anonymizer::Run, nothing durable).
  /// Non-empty = crash-safe execution through JobRunner in this
  /// directory; retries Resume() from the last checkpoint.
  std::string job_dir;
  JobPriority priority = JobPriority::kNormal;
  /// Hard memory quota for this job; 0 = SchedulerOptions::
  /// default_job_quota.
  uint64_t memory_quota = 0;
  /// Test seam: runs on the executor thread at the start of every
  /// attempt, before any search work (and before the first heartbeat
  /// tick, so a hook that blocks simulates a hung job).
  std::function<void()> on_start;
};

/// Final verdict of one job, returned by Wait().
struct SchedulerJobResult {
  /// OK for kCompleted; the failure/cancellation status otherwise.
  Status status = Status::OK();
  /// Valid when status is OK. partial=true means the degradation ladder
  /// (or the job's own budget) stopped the search and a fallback stage
  /// released best-so-far output.
  AnonymizationReport report;
  JobState state = JobState::kQueued;
  /// Attempts dispatched (1 = first attempt succeeded).
  int attempts = 0;
  /// Highest degradation rung reached: 0 none, 1 narrowed to one lane (a
  /// no-op for a job that already runs on one), 2 memory force-exhausted.
  int degrade_level = 0;
};

/// Point-in-time view of one job (Jobs()/Progress()).
struct SchedulerJobStatus {
  uint64_t id = 0;
  std::string name;
  JobPriority priority = JobPriority::kNormal;
  JobState state = JobState::kQueued;
  int attempts = 0;
  int degrade_level = 0;
  /// Live MemoryBudget charges (bytes) and the budget's high-water mark.
  uint64_t memory_bytes = 0;
  uint64_t memory_high_water = 0;
  /// Liveness counter (BudgetEnforcer checkpoints observed).
  uint64_t heartbeat = 0;
};

/// Monotone counters over the scheduler's lifetime.
struct SchedulerStats {
  uint64_t submitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t retries = 0;
  uint64_t watchdog_cancels = 0;
  uint64_t hard_cancels = 0;
  /// Nothing increments this any more: the ladder rung that shrank a
  /// job's verdict cache is gone with the cache, so it stays 0. Kept
  /// declared for callers that still name it.
  uint64_t degrade_cache_shrinks = 0;
  /// Rung-1 demotions: parallel jobs narrowed to one lane in place.
  uint64_t degrade_sequential_restarts = 0;
  uint64_t degrade_force_exhausted = 0;
};

/// Overload-resilient multi-job scheduler: multiplexes concurrent
/// anonymization jobs onto one process with bounded admission, per-job
/// memory accounting, graceful degradation and a hang watchdog.
///
/// Admission. Submit() sheds load instead of queueing unboundedly: when
/// the queue is full or the live jobs' accounted memory exceeds
/// max_total_memory, it fails with kResourceExhausted carrying a
/// retry-after hint (Status::retryable() is true — the caller may come
/// back). Admitted jobs wait in per-priority FIFO queues served by a
/// deterministic weighted round-robin pattern (interactive 3 : normal 2 :
/// batch 1), so a flood of batch work cannot starve interactive jobs and
/// vice versa.
///
/// Isolation. Every job gets its own CancelToken, MemoryBudget and
/// heartbeat counter, threaded through RunBudget into the engines.
/// Cancelling one job never stalls its neighbors: the sweep workers
/// observe only their owning job's token, and jobs sharing the process
/// ThreadPool split its workers via FairShareWorkers.
///
/// Degradation ladder. The watchdog walks an over-soft-quota job down
/// one rung per tick: (1) narrow its running search to one lane at the
/// next sweep, so its sweeps hold one worker's scratch instead of N, with
/// no work lost; (2) force-exhaust its MemoryBudget, which turns every
/// budget checkpoint into a kResourceExhausted budget stop: the search
/// unwinds with best-so-far partial results and the fallback chain
/// (typically ending in kFullSuppression) still releases. A rung-2 job
/// therefore *completes*, with report.partial — deliberately distinct
/// from Cancel(), whose kCancelled aborts the chain.
///
/// Watchdog. A job whose heartbeat freezes for hung_timeout is
/// cooperatively cancelled; if it stays deaf past hard_cancel_grace, the
/// watchdog abandons the executor thread (detach + replace) and forces
/// the job terminal, so one hung job can never wedge a scheduler slot.
///
/// Retries. Attempts failing with a retryable status (kUnavailable —
/// transient I/O, lock contention, injected faults) are re-queued with
/// bounded exponential backoff up to max_retries; durable jobs Resume()
/// from their last checkpoint.
///
/// All public methods are thread-safe.
class JobScheduler {
 public:
  explicit JobScheduler(SchedulerOptions options);
  /// Stop()s if the caller has not.
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits the job and returns its id, or sheds with kResourceExhausted
  /// (+ retry-after) / refuses with kUnavailable once Stop() has begun.
  Result<uint64_t> Submit(SchedulerJobRequest request);

  /// User cancellation: cancels the job's token (kCancelled aborts the
  /// fallback chain). A still-queued job is cancelled immediately.
  /// kNotFound for unknown ids; OK (idempotent) for terminal jobs.
  Status Cancel(uint64_t id);

  /// Blocks until the job is terminal and returns its result.
  Result<SchedulerJobResult> Wait(uint64_t id);

  /// Snapshot of one job / all jobs (admission order).
  Result<SchedulerJobStatus> Progress(uint64_t id) const;
  std::vector<SchedulerJobStatus> Jobs() const;

  SchedulerStats stats() const;

  /// Human-readable event log ("submit job-1 ...", "degrade.sequential
  /// job-2 ...") in the order things happened.
  std::vector<std::string> Events() const;

  /// The event log rendered as a RunTrace ("scheduler" root, one span per
  /// event with job/detail attributes) — the observability surface the
  /// acceptance tests read the degradation ladder from.
  std::string TraceJson() const;

  /// Stops admission, drains every admitted job to a terminal state
  /// (the watchdog keeps escalating hung jobs, so the drain is bounded),
  /// then joins the executor and watchdog threads. Idempotent.
  void Stop();

  const SchedulerOptions& options() const;

  /// Shared internal state (opaque). Public only so the implementation's
  /// executor/watchdog thread entry points can name it.
  struct State;

 private:
  std::shared_ptr<State> state_;
};

}  // namespace psk

#endif  // PSK_SERVICE_SCHEDULER_H_
