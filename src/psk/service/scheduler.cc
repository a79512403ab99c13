#include "psk/service/scheduler.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "psk/common/durable_file.h"
#include "psk/common/run_budget.h"
#include "psk/trace/trace.h"

namespace psk {
namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic weighted round-robin over the priority classes:
/// interactive 3 : normal 2 : batch 1 per full rotation. Every class
/// appears, so nothing starves; the rotation index advances only when a
/// job is actually drawn, so the pattern is stable under empty queues.
constexpr JobPriority kDispatchPattern[] = {
    JobPriority::kInteractive, JobPriority::kNormal,
    JobPriority::kInteractive, JobPriority::kBatch,
    JobPriority::kInteractive, JobPriority::kNormal,
};
constexpr size_t kDispatchPatternLength =
    sizeof(kDispatchPattern) / sizeof(kDispatchPattern[0]);

bool IsTerminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// One scheduled job and all its run-control plumbing. Owned by a
/// shared_ptr so an abandoned executor thread finishing late still holds
/// valid state. All mutable fields are guarded by State::mu except the
/// shared control objects (token/budget/heartbeat), which are
/// thread-safe themselves and immutable as pointers after construction.
struct SchedulerJob {
  uint64_t id = 0;
  std::string name;
  JobPriority priority = JobPriority::kNormal;
  JobSpec spec;
  std::string job_dir;
  std::function<void()> on_start;

  JobState state = JobState::kQueued;
  int attempts = 0;
  int degrade_level = 0;

  std::shared_ptr<CancelToken> cancel = std::make_shared<CancelToken>();
  std::shared_ptr<MemoryBudget> memory = std::make_shared<MemoryBudget>();
  std::shared_ptr<std::atomic<uint64_t>> heartbeat =
      std::make_shared<std::atomic<uint64_t>>(0);

  // Watchdog bookkeeping.
  uint64_t last_heartbeat = 0;
  Clock::time_point last_progress{};
  Clock::time_point last_rung_at{};
  bool watchdog_cancelled = false;
  Clock::time_point hard_cancel_at{};
  bool user_cancelled = false;
  /// Retry-backoff gate: not dispatched before this instant.
  Clock::time_point not_before{};

  Status final_status = Status::OK();
  AnonymizationReport report;
  bool has_report = false;
};

struct SchedulerEvent {
  std::string action;
  std::string job;
  std::string detail;
};

}  // namespace

const char* JobPriorityName(JobPriority priority) {
  switch (priority) {
    case JobPriority::kBatch:
      return "batch";
    case JobPriority::kNormal:
      return "normal";
    case JobPriority::kInteractive:
      return "interactive";
  }
  return "unknown";
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kCompleted:
      return "completed";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// All shared scheduler state lives behind one shared_ptr: executor
/// threads (including abandoned ones that outlive the scheduler object)
/// and the watchdog each hold a reference, so nothing they touch is freed
/// under them even if the JobScheduler is destroyed while a hard-hung
/// detached thread is still blocked.
struct JobScheduler::State {
  SchedulerOptions options;

  mutable std::mutex mu;
  /// Executors sleep here; signalled on submit/requeue/stop.
  std::condition_variable work_cv;
  /// Wait()/Stop() drain sleeps here; signalled on any terminal.
  std::condition_variable terminal_cv;
  /// Watchdog cadence; signalled on stop.
  std::condition_variable watchdog_cv;

  bool accepting = true;
  bool stop = false;
  bool watchdog_stop = false;
  std::once_flag stop_once;

  uint64_t next_id = 1;
  /// Admission order == id order (std::map iterates sorted).
  std::map<uint64_t, std::shared_ptr<SchedulerJob>> jobs;
  std::deque<std::shared_ptr<SchedulerJob>> queues[3];
  size_t rr_index = 0;

  SchedulerStats stats;
  std::vector<SchedulerEvent> events;

  /// One executor seat. Slots are heap-allocated and never erased, so a
  /// raw pointer into the vector stays valid as replacements are added.
  struct Slot {
    std::thread thread;
    std::shared_ptr<SchedulerJob> running;
    /// Set by the watchdog's hard cancel: the thread was detached and
    /// must exit without touching scheduler bookkeeping when (if) its
    /// blocked attempt ever returns.
    bool abandoned = false;
  };
  std::vector<std::unique_ptr<Slot>> slots;
  std::thread watchdog;

  void Append(std::string action, std::string job, std::string detail) {
    events.push_back(
        {std::move(action), std::move(job), std::move(detail)});
  }

  size_t QueuedLocked() const {
    return queues[0].size() + queues[1].size() + queues[2].size();
  }

  uint64_t LiveMemoryLocked() const {
    uint64_t total = 0;
    for (const auto& [id, job] : jobs) {
      if (!IsTerminal(job->state)) total += job->memory->bytes_used();
    }
    return total;
  }
};

namespace {

/// Picks the next dispatchable job per the weighted round-robin pattern,
/// honoring retry-backoff gates. Fills *next_wake with the earliest gated
/// job's release time (untouched when nothing is gated).
std::shared_ptr<SchedulerJob> PickLocked(JobScheduler::State& s,
                                         Clock::time_point now,
                                         Clock::time_point* next_wake) {
  for (size_t i = 0; i < kDispatchPatternLength; ++i) {
    size_t cls = static_cast<size_t>(
        kDispatchPattern[(s.rr_index + i) % kDispatchPatternLength]);
    auto& queue = s.queues[cls];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if ((*it)->not_before <= now) {
        std::shared_ptr<SchedulerJob> job = *it;
        queue.erase(it);
        s.rr_index = (s.rr_index + i + 1) % kDispatchPatternLength;
        return job;
      }
      *next_wake = std::min(*next_wake, (*it)->not_before);
    }
  }
  return nullptr;
}

/// One attempt of one job, run with State::mu released. Reads only fields
/// no other thread writes while the job is running (the spec and the
/// shared control objects).
Status RunAttempt(const SchedulerOptions& options, SchedulerJob& job,
                  bool resume, AnonymizationReport* report) {
  if (job.on_start) job.on_start();

  // Streaming input: drained into the job's spec on the first attempt,
  // chunk-metered against the job's quota (over-quota inputs fail here
  // with kResourceExhausted, before any search work). The source is
  // one-shot; materializing into job.spec means retries and the durable
  // journal's input digest see an ordinary table. Only the owning
  // executor touches job.spec, so this mutation is race-free.
  if (job.spec.input_source) {
    PSK_RETURN_IF_ERROR(MaterializeJobInput(&job.spec, job.memory));
  }

  // Per-attempt copy: the scheduler owns the run-control plumbing and
  // must not leak it into the caller's spec (or across jobs).
  JobSpec spec = job.spec;
  spec.budget.cancel = job.cancel;
  spec.budget.memory = job.memory;
  spec.budget.heartbeat = job.heartbeat;
  spec.threads = options.threads_per_job;

  if (job.job_dir.empty()) {
    // In-memory job: no journal, no checkpoints — the retry path simply
    // re-runs (the engines are deterministic).
    Anonymizer anonymizer = MakeJobAnonymizer(spec);
    Result<AnonymizationReport> run = anonymizer.Run();
    if (!run.ok()) return run.status();
    *report = std::move(*run);
    return Status::OK();
  }

  // Durable job: crash-safe execution through JobRunner. Retries Resume
  // from the last checkpoint; a first attempt that failed before its
  // journal landed falls back to a fresh Run.
  JobRunner runner(job.job_dir);
  runner.set_lock_wait(options.lock_wait);
  Result<JobOutcome> outcome =
      resume ? runner.Resume(spec) : runner.Run(spec);
  if (!outcome.ok() && resume &&
      outcome.status().code() == StatusCode::kNotFound) {
    outcome = runner.Run(spec);
  }
  if (!outcome.ok()) return outcome.status();
  *report = std::move(outcome->report);
  return Status::OK();
}

/// Books one finished attempt: terminal or retry requeue. Caller holds
/// State::mu.
void ResolveAttemptLocked(JobScheduler::State& s,
                          const std::shared_ptr<SchedulerJob>& job,
                          Status status, AnonymizationReport report) {
  Clock::time_point now = Clock::now();
  size_t cls = static_cast<size_t>(job->priority);
  if (status.ok()) {
    job->state = JobState::kCompleted;
    job->final_status = Status::OK();
    job->report = std::move(report);
    job->has_report = true;
    ++s.stats.completed;
    s.Append(job->report.partial ? "complete.partial" : "complete",
             job->name,
             "attempt " + std::to_string(job->attempts));
  } else if (status.code() == StatusCode::kCancelled) {
    job->state = JobState::kCancelled;
    job->final_status = std::move(status);
    ++s.stats.cancelled;
    s.Append(job->user_cancelled ? "cancelled" : "cancelled.watchdog",
             job->name, job->final_status.message());
  } else if (status.retryable() &&
             job->attempts <= s.options.max_retries) {
    job->state = JobState::kQueued;
    job->not_before =
        now + RetryBackoffDelay(job->attempts - 1,
                                s.options.retry_backoff_base,
                                s.options.retry_backoff_cap);
    s.queues[cls].push_back(job);
    ++s.stats.retries;
    s.Append("retry", job->name, status.ToString());
    s.work_cv.notify_all();
    return;
  } else {
    job->state = JobState::kFailed;
    job->final_status = std::move(status);
    ++s.stats.failed;
    s.Append("failed", job->name, job->final_status.ToString());
  }
  s.terminal_cv.notify_all();
}

void ExecutorLoop(std::shared_ptr<JobScheduler::State> state,
                  JobScheduler::State::Slot* slot) {
  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    if (state->stop || slot->abandoned) return;
    Clock::time_point now = Clock::now();
    Clock::time_point next_wake = now + std::chrono::hours(1);
    std::shared_ptr<SchedulerJob> job = PickLocked(*state, now, &next_wake);
    if (job == nullptr) {
      state->work_cv.wait_until(lock, next_wake);
      continue;
    }

    job->state = JobState::kRunning;
    ++job->attempts;
    bool resume = job->attempts > 1;
    job->last_heartbeat = job->heartbeat->load(std::memory_order_relaxed);
    job->last_progress = Clock::now();
    slot->running = job;
    state->Append("start", job->name,
                  "attempt " + std::to_string(job->attempts) + " threads=" +
                      std::to_string(state->options.threads_per_job));

    lock.unlock();
    AnonymizationReport report;
    Status status;
    try {
      status = RunAttempt(state->options, *job, resume, &report);
    } catch (const std::exception& e) {
      // A pool worker dying mid-sweep surfaces as one rethrown exception
      // (see ThreadPool::DrainIndices). The engines are deterministic, so
      // a fresh attempt is sound: classify as transient and let the
      // bounded-backoff retry path absorb it instead of unwinding this
      // executor thread.
      status = Status::Unavailable(std::string("attempt threw: ") + e.what());
    } catch (...) {
      status = Status::Unavailable("attempt threw a non-standard exception");
    }
    lock.lock();

    slot->running = nullptr;
    if (slot->abandoned) {
      // The watchdog hard-cancelled this job, forced it terminal, and
      // replaced this executor while the attempt was blocked. Record the
      // late return for the trace, touch nothing else, and exit.
      state->Append("executor.abandoned_attempt_returned", job->name,
                    status.ToString());
      return;
    }
    ResolveAttemptLocked(*state, job, std::move(status), std::move(report));
  }
}

/// Hard cancel: abandon the executor seat stuck on `job` (detach +
/// replace so scheduler capacity is restored) and force the job terminal.
/// Caller holds State::mu.
void HardCancelLocked(const std::shared_ptr<JobScheduler::State>& state,
                      const std::shared_ptr<SchedulerJob>& job) {
  for (auto& slot : state->slots) {
    if (slot->running == job && !slot->abandoned) {
      slot->abandoned = true;
      slot->thread.detach();
      state->slots.push_back(
          std::make_unique<JobScheduler::State::Slot>());
      JobScheduler::State::Slot* replacement = state->slots.back().get();
      replacement->thread =
          std::thread(ExecutorLoop, state, replacement);
      break;
    }
  }
  job->state = JobState::kCancelled;
  job->final_status = Status::Cancelled(
      "hard-cancelled by watchdog: job ignored cooperative cancellation "
      "for the whole grace period");
  ++state->stats.hard_cancels;
  ++state->stats.cancelled;
  state->Append("watchdog.hard_cancel", job->name, "executor abandoned");
  state->terminal_cv.notify_all();
}

void WatchdogLoop(std::shared_ptr<JobScheduler::State> state) {
  std::unique_lock<std::mutex> lock(state->mu);
  while (!state->watchdog_stop) {
    state->watchdog_cv.wait_for(lock, state->options.watchdog_interval);
    if (state->watchdog_stop) return;
    Clock::time_point now = Clock::now();
    const SchedulerOptions& options = state->options;
    for (auto& [id, job] : state->jobs) {
      if (job->state != JobState::kRunning) continue;

      // Liveness: a heartbeat that advanced since the last tick proves
      // the job is still doing budget-checkpointed work.
      uint64_t hb = job->heartbeat->load(std::memory_order_relaxed);
      if (hb != job->last_heartbeat) {
        job->last_heartbeat = hb;
        job->last_progress = now;
      }
      if (!job->watchdog_cancelled &&
          now - job->last_progress >= options.hung_timeout) {
        job->cancel->Cancel();
        job->watchdog_cancelled = true;
        job->hard_cancel_at = now + options.hard_cancel_grace;
        ++state->stats.watchdog_cancels;
        state->Append("watchdog.cancel", job->name,
                      "heartbeat frozen past hung_timeout");
      } else if (job->watchdog_cancelled && now >= job->hard_cancel_at) {
        HardCancelLocked(state, job);
        continue;  // terminal now; the ladder no longer applies
      }

      // Degradation ladder, one rung per dwell while the job sits over
      // its soft quota. LimitToOneLane (rung 1) narrows the running
      // search at its next sweep. ForceExhausted (rung 2) is a budget
      // stop, not a cancellation: the search unwinds with best-so-far
      // partials at its next checkpoint and the fallback chain still
      // releases.
      if (job->memory->over_soft() && job->degrade_level < 2 &&
          now - job->last_rung_at >= options.watchdog_interval) {
        job->last_rung_at = now;
        if (job->degrade_level == 0) {
          if (options.threads_per_job > 1) {
            job->memory->LimitToOneLane();
            ++state->stats.degrade_sequential_restarts;
            state->Append("degrade.sequential", job->name,
                          "narrowing to one lane");
          }
          job->degrade_level = 1;
        } else {
          job->memory->ForceExhausted();
          job->degrade_level = 2;
          ++state->stats.degrade_force_exhausted;
          state->Append("degrade.force_exhausted", job->name,
                        "memory budget force-exhausted; job will release "
                        "best-so-far partial results");
        }
      }
    }
  }
}

SchedulerJobStatus SnapshotLocked(const SchedulerJob& job) {
  SchedulerJobStatus status;
  status.id = job.id;
  status.name = job.name;
  status.priority = job.priority;
  status.state = job.state;
  status.attempts = job.attempts;
  status.degrade_level = job.degrade_level;
  status.memory_bytes = job.memory->bytes_used();
  status.memory_high_water = job.memory->high_water();
  status.heartbeat = job.heartbeat->load(std::memory_order_relaxed);
  return status;
}

}  // namespace

JobScheduler::JobScheduler(SchedulerOptions options)
    : state_(std::make_shared<State>()) {
  if (options.max_running == 0) options.max_running = 1;
  if (options.threads_per_job == 0) options.threads_per_job = 1;
  if (options.soft_quota_percent == 0 || options.soft_quota_percent > 100) {
    options.soft_quota_percent = 75;
  }
  state_->options = options;
  for (size_t i = 0; i < options.max_running; ++i) {
    state_->slots.push_back(std::make_unique<State::Slot>());
    State::Slot* slot = state_->slots.back().get();
    slot->thread = std::thread(ExecutorLoop, state_, slot);
  }
  state_->watchdog = std::thread(WatchdogLoop, state_);
}

JobScheduler::~JobScheduler() { Stop(); }

const SchedulerOptions& JobScheduler::options() const {
  return state_->options;
}

Result<uint64_t> JobScheduler::Submit(SchedulerJobRequest request) {
  std::lock_guard<std::mutex> lock(state_->mu);
  State& s = *state_;
  if (!s.accepting) {
    return Status::Unavailable("scheduler is stopping; job not admitted");
  }
  std::string name = request.name.empty()
                         ? "job-" + std::to_string(s.next_id)
                         : std::move(request.name);
  // Admission control: shed instead of queueing unboundedly. Both
  // verdicts are retryable (kResourceExhausted + retry-after) so a
  // caller can back off and resubmit.
  if (s.QueuedLocked() >= s.options.max_queue_depth) {
    ++s.stats.shed;
    s.Append("shed.queue", name,
             "queue depth " + std::to_string(s.QueuedLocked()));
    return Status::ResourceExhausted(
               "admission queue is full (" +
               std::to_string(s.options.max_queue_depth) +
               " jobs waiting); retry later")
        .WithRetryAfterMs(s.options.shed_retry_after_ms);
  }
  if (s.options.max_total_memory > 0 &&
      s.LiveMemoryLocked() >= s.options.max_total_memory) {
    ++s.stats.shed;
    s.Append("shed.memory", name,
             "in-flight " + std::to_string(s.LiveMemoryLocked()) + " bytes");
    return Status::ResourceExhausted(
               "in-flight job memory exceeds max_total_memory (" +
               std::to_string(s.options.max_total_memory) +
               " bytes); retry later")
        .WithRetryAfterMs(s.options.shed_retry_after_ms);
  }

  auto job = std::make_shared<SchedulerJob>();
  job->id = s.next_id++;
  job->name = std::move(name);
  job->priority = request.priority;
  job->spec = std::move(request.spec);
  job->job_dir = std::move(request.job_dir);
  job->on_start = std::move(request.on_start);
  uint64_t quota = request.memory_quota != 0 ? request.memory_quota
                                             : s.options.default_job_quota;
  if (quota > 0) {
    job->memory->set_hard_limit(quota);
    job->memory->set_soft_limit(quota * s.options.soft_quota_percent / 100);
  }
  s.jobs.emplace(job->id, job);
  s.queues[static_cast<size_t>(job->priority)].push_back(job);
  ++s.stats.submitted;
  s.Append("submit", job->name,
           std::string(JobPriorityName(job->priority)) +
               (job->job_dir.empty() ? "" : " durable"));
  s.work_cv.notify_all();
  return job->id;
}

Status JobScheduler::Cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(state_->mu);
  State& s = *state_;
  auto it = s.jobs.find(id);
  if (it == s.jobs.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  const std::shared_ptr<SchedulerJob>& job = it->second;
  if (IsTerminal(job->state)) return Status::OK();
  job->user_cancelled = true;
  job->cancel->Cancel();
  if (job->state == JobState::kQueued) {
    auto& queue = s.queues[static_cast<size_t>(job->priority)];
    for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
      if (*qit == job) {
        queue.erase(qit);
        break;
      }
    }
    job->state = JobState::kCancelled;
    job->final_status = Status::Cancelled("cancelled before dispatch");
    ++s.stats.cancelled;
    s.Append("cancelled", job->name, "while queued");
    s.terminal_cv.notify_all();
  } else {
    s.Append("cancel.requested", job->name, "while running");
  }
  return Status::OK();
}

Result<SchedulerJobResult> JobScheduler::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(state_->mu);
  State& s = *state_;
  auto it = s.jobs.find(id);
  if (it == s.jobs.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  std::shared_ptr<SchedulerJob> job = it->second;
  s.terminal_cv.wait(lock, [&] { return IsTerminal(job->state); });
  SchedulerJobResult result;
  result.status = job->final_status;
  if (job->has_report) result.report = job->report;
  result.state = job->state;
  result.attempts = job->attempts;
  result.degrade_level = job->degrade_level;
  return result;
}

Result<SchedulerJobStatus> JobScheduler::Progress(uint64_t id) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->jobs.find(id);
  if (it == state_->jobs.end()) {
    return Status::NotFound("no job with id " + std::to_string(id));
  }
  return SnapshotLocked(*it->second);
}

std::vector<SchedulerJobStatus> JobScheduler::Jobs() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<SchedulerJobStatus> out;
  out.reserve(state_->jobs.size());
  for (const auto& [id, job] : state_->jobs) {
    out.push_back(SnapshotLocked(*job));
  }
  return out;
}

SchedulerStats JobScheduler::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

std::vector<std::string> JobScheduler::Events() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<std::string> out;
  out.reserve(state_->events.size());
  for (const SchedulerEvent& event : state_->events) {
    std::string line = event.action + " " + event.job;
    if (!event.detail.empty()) line += " (" + event.detail + ")";
    out.push_back(std::move(line));
  }
  return out;
}

std::string JobScheduler::TraceJson() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  // RunTrace's span stack is single-threaded by contract; building the
  // whole tree here, under the scheduler lock, satisfies it.
  RunTrace trace("scheduler");
  for (const SchedulerEvent& event : state_->events) {
    trace.Begin(event.action);
    trace.Attr("job", event.job);
    if (!event.detail.empty()) trace.Attr("detail", event.detail);
    trace.End();
  }
  for (const auto& [id, job] : state_->jobs) {
    trace.Begin("job");
    trace.Attr("name", job->name);
    trace.Attr("priority", JobPriorityName(job->priority));
    trace.Attr("state", JobStateName(job->state));
    trace.Counter("attempts", static_cast<uint64_t>(job->attempts));
    trace.Counter("degrade_level",
                  static_cast<uint64_t>(job->degrade_level));
    trace.Counter("memory_high_water", job->memory->high_water());
    trace.Counter("heartbeat",
                  job->heartbeat->load(std::memory_order_relaxed));
    trace.End();
  }
  return trace.ToJson();
}

void JobScheduler::Stop() {
  std::shared_ptr<State> state = state_;
  std::call_once(state->stop_once, [state] {
    std::unique_lock<std::mutex> lock(state->mu);
    state->accepting = false;
    state->Append("stop", "scheduler", "draining");
    // Drain every admitted job to a terminal state. Bounded: the
    // watchdog keeps running and escalates hung jobs to hard-cancel.
    state->terminal_cv.wait(lock, [&] {
      for (const auto& [id, job] : state->jobs) {
        if (!IsTerminal(job->state)) return false;
      }
      return true;
    });
    state->stop = true;
    state->work_cv.notify_all();
    state->watchdog_stop = true;
    state->watchdog_cv.notify_all();
    std::vector<std::thread> joiners;
    for (auto& slot : state->slots) {
      if (!slot->abandoned && slot->thread.joinable()) {
        joiners.push_back(std::move(slot->thread));
      }
    }
    std::thread watchdog = std::move(state->watchdog);
    lock.unlock();
    for (std::thread& thread : joiners) thread.join();
    if (watchdog.joinable()) watchdog.join();
  });
}

}  // namespace psk
