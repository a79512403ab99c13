#ifndef PSK_COMMON_RUN_BUDGET_H_
#define PSK_COMMON_RUN_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "psk/common/memory_budget.h"
#include "psk/common/status.h"

namespace psk {

/// Cooperative cancellation flag shared between a caller and a running
/// anonymization. The caller keeps one reference (e.g. wired to a signal
/// handler or an RPC context) and hands another to RunBudget::cancel; the
/// search observes the flag at every budget checkpoint and unwinds with
/// kCancelled. Thread-safe.
///
/// Sharing semantics: the flag is sticky. Once Cancel() is called, every
/// run sharing the token — including runs started later — observes it as
/// cancelled until Reset() is called. A token reused across sequential
/// runs must therefore be Reset() between them; for concurrent runs,
/// prefer one token per run unless "cancel them all" is the intent.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Re-arms a cancelled token for the next run. Do not call while a run
  /// sharing this token is still in flight: the racing run may miss the
  /// cancellation entirely.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits for one anonymization run. Default-constructed budgets
/// are unlimited, so existing callers pay only an atomic increment per
/// lattice node.
///
/// The lattice is exponential in the number of key attributes, so a
/// hostile schema can make any of the searches run effectively forever; a
/// budget turns "forever" into a clean kDeadlineExceeded /
/// kResourceExhausted status carrying whatever best-so-far result the
/// search had (see SearchStats::partial).
struct RunBudget {
  /// Wall-clock limit, measured from the moment the enforcer is created
  /// (i.e. from the start of the search, not of process).
  std::optional<std::chrono::milliseconds> deadline;
  /// Budget checkpoints between wall-clock reads. 1 (the default) reads
  /// the clock at every checkpoint — a steady_clock read is tens of
  /// nanoseconds, negligible next to evaluating a lattice node. Raise it
  /// only for workloads with very cheap checkpoints.
  uint64_t check_interval = 1;
  /// Cap on lattice nodes expanded (generalizations applied). For the
  /// clustering algorithms this counts splits/growth steps instead.
  std::optional<uint64_t> max_nodes_expanded;
  /// Cap on total rows materialized across all node evaluations — a proxy
  /// for peak memory/CPU spent on intermediate tables.
  std::optional<uint64_t> max_rows_materialized;
  /// Optional cooperative cancellation; may be shared across runs.
  std::shared_ptr<CancelToken> cancel;
  /// Optional per-job byte accountant, charged at the allocation seams
  /// (the input table, EncodedTable::Build, group-by scratch growth).
  /// When the budget is force-exhausted, every enforcer checkpoint fails
  /// with kResourceExhausted — a budget-stop code the search absorbs into
  /// a best-so-far partial result.
  std::shared_ptr<MemoryBudget> memory;
  /// Optional liveness counter, bumped at every enforcer checkpoint. A
  /// scheduler watchdog polls it to tell a slow job (counter advancing)
  /// from a hung or budget-deaf one (counter frozen). Observability only;
  /// never causes a stop.
  std::shared_ptr<std::atomic<uint64_t>> heartbeat;

  /// True when no limit of any kind is configured (the heartbeat is not a
  /// limit; an attached memory budget is).
  bool Unlimited() const {
    return !deadline.has_value() && !max_nodes_expanded.has_value() &&
           !max_rows_materialized.has_value() && cancel == nullptr &&
           memory == nullptr;
  }
};

/// Thread-safe accountant for one run. Created when a search starts (the
/// deadline clock starts ticking at construction) and charged at every
/// checkpoint; the first exceeded limit makes every subsequent Charge()
/// fail, so a search cannot accidentally keep working after a stop.
///
/// One enforcer may be shared by several NodeEvaluators (the threaded
/// exhaustive sweep), making every limit global across threads.
class BudgetEnforcer {
 public:
  explicit BudgetEnforcer(RunBudget budget);

  /// Records `nodes` expanded and `rows` materialized, then checks every
  /// configured limit. Returns OK, or kResourceExhausted /
  /// kDeadlineExceeded / kCancelled naming the limit and its value.
  Status Charge(uint64_t nodes = 1, uint64_t rows = 0);

  /// Checks deadline and cancellation without advancing any counter (for
  /// loops that do bookkeeping between node evaluations).
  Status Check();

  uint64_t nodes_expanded() const {
    return nodes_.load(std::memory_order_relaxed);
  }
  uint64_t rows_materialized() const {
    return rows_.load(std::memory_order_relaxed);
  }

  /// Wall-clock spent since construction.
  std::chrono::milliseconds Elapsed() const;

  /// Deadline left, clamped at zero; nullopt when no deadline is set.
  /// Used to re-budget the later stages of a fallback chain.
  std::optional<std::chrono::milliseconds> Remaining() const;

  const RunBudget& budget() const { return budget_; }

 private:
  Status Trip(Status status);

  RunBudget budget_;
  std::chrono::steady_clock::time_point start_;
  /// start_ + deadline, saturated to the clock's representable range so a
  /// huge deadline (milliseconds::max()) clamps to "effectively never"
  /// instead of wrapping into the past. Meaningful only when
  /// budget_.deadline is set.
  std::chrono::steady_clock::time_point deadline_point_;
  std::atomic<uint64_t> nodes_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> checks_{0};
  /// StatusCode of the first exceeded limit; kOk while within budget.
  std::atomic<int> tripped_code_{0};
};

/// True iff `status` is one of the budget-stop codes (kDeadlineExceeded,
/// kCancelled, kResourceExhausted) — the statuses a search absorbs into a
/// best-so-far partial result rather than propagating as a hard error.
bool IsBudgetExhausted(const Status& status);
bool IsBudgetExhausted(StatusCode code);

}  // namespace psk

#endif  // PSK_COMMON_RUN_BUDGET_H_
