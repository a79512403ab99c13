#ifndef PSK_COMMON_MEMORY_BUDGET_H_
#define PSK_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "psk/common/status.h"

namespace psk {

/// Thread-safe byte accountant for one job's working memory.
///
/// A MemoryBudget is charged at the allocation seams the runtime owns —
/// the input table's footprint, EncodedTable::Build and the per-worker
/// GroupByCodes scratch buffers — so a scheduler multiplexing many jobs
/// onto one process can see each job's footprint and act on it long
/// before the allocator or the OOM killer would.
///
/// Two thresholds with different roles:
///  - soft limit: purely advisory. Charges never fail against it; the
///    scheduler's watchdog polls over_soft() to drive the degradation
///    ladder (narrow the running search to one lane, then stop it).
///  - hard limit: a Charge that would move usage past it fails with
///    kResourceExhausted and records nothing, so the caller can unwind
///    (fail an encode, stop a search) without the books drifting.
///
/// ForceExhausted() is the ladder's last rung: every later BudgetEnforcer
/// checkpoint whose RunBudget carries this budget fails with
/// kResourceExhausted. Because that is a budget code (IsBudgetExhausted),
/// the running search absorbs it into a best-so-far partial result and
/// the fallback chain can still finish with the budget-exempt
/// full-suppression stage, which is exactly the "cancel with partial
/// results" semantics the scheduler wants, distinct from a user
/// CancelToken (kCancelled aborts the chain).
///
/// A default-constructed budget (both limits 0 = unlimited) never fails
/// a charge and never trips, so wiring the seams costs existing callers
/// nothing.
class MemoryBudget {
 public:
  MemoryBudget() = default;
  MemoryBudget(uint64_t soft_limit_bytes, uint64_t hard_limit_bytes)
      : soft_limit_(soft_limit_bytes), hard_limit_(hard_limit_bytes) {}

  /// Records `bytes` of new usage. Fails with kResourceExhausted — and
  /// records nothing — when the hard limit would be crossed. Failure is
  /// not sticky: releasing memory lets later charges succeed again.
  Status Charge(uint64_t bytes);

  /// Returns `bytes` to the budget. Saturates at zero so a conservative
  /// caller double-releasing cannot wrap the counter.
  void Release(uint64_t bytes);

  /// Sticky: every search charging this budget runs its later sweeps on
  /// one lane (the scheduler's first degradation step).
  void LimitToOneLane() { one_lane_.store(true, std::memory_order_relaxed); }
  bool one_lane() const { return one_lane_.load(std::memory_order_relaxed); }

  /// Sticky: every later BudgetEnforcer checkpoint fails with
  /// kResourceExhausted (the scheduler's final degradation step). Charges
  /// still succeed under the hard limit.
  void ForceExhausted() { exhausted_.store(true, std::memory_order_relaxed); }
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  uint64_t bytes_used() const {
    return used_.load(std::memory_order_relaxed);
  }
  /// Largest usage ever observed; monotone, survives releases.
  uint64_t high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  uint64_t soft_limit() const {
    return soft_limit_.load(std::memory_order_relaxed);
  }
  uint64_t hard_limit() const {
    return hard_limit_.load(std::memory_order_relaxed);
  }
  /// 0 means unlimited for both setters.
  void set_soft_limit(uint64_t bytes) {
    soft_limit_.store(bytes, std::memory_order_relaxed);
  }
  void set_hard_limit(uint64_t bytes) {
    hard_limit_.store(bytes, std::memory_order_relaxed);
  }

  /// True when a soft limit is configured and current usage exceeds it.
  bool over_soft() const {
    uint64_t soft = soft_limit();
    return soft != 0 && bytes_used() > soft;
  }

 private:
  std::atomic<uint64_t> used_{0};
  std::atomic<uint64_t> high_water_{0};
  std::atomic<uint64_t> soft_limit_{0};
  std::atomic<uint64_t> hard_limit_{0};
  std::atomic<bool> one_lane_{false};
  std::atomic<bool> exhausted_{false};
};

/// RAII wrapper for a block charge against a MemoryBudget: reserve once
/// (e.g. the encoded table's footprint), resize as the underlying buffers
/// grow (per-worker scratch), release automatically on destruction.
/// Move-only. A reservation with no budget attached is a no-op, so the
/// charging seams stay zero-cost when no scheduler is involved.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  ~MemoryReservation() { Release(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  MemoryReservation(MemoryReservation&& other) noexcept
      : budget_(std::move(other.budget_)), bytes_(other.bytes_) {
    other.budget_.reset();
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      Release();
      budget_ = std::move(other.budget_);
      bytes_ = other.bytes_;
      other.budget_.reset();
      other.bytes_ = 0;
    }
    return *this;
  }

  /// Releases any prior reservation, then charges `bytes` against
  /// `budget`. With a null budget this succeeds and remembers nothing.
  Status Reserve(std::shared_ptr<MemoryBudget> budget, uint64_t bytes);

  /// Adjusts the reservation to `new_bytes` by charging or releasing the
  /// delta. On charge failure the old reservation stays intact.
  Status Resize(uint64_t new_bytes);

  /// Returns the reserved bytes to the budget (idempotent).
  void Release();

  uint64_t bytes() const { return bytes_; }

 private:
  std::shared_ptr<MemoryBudget> budget_;
  uint64_t bytes_ = 0;
};

}  // namespace psk

#endif  // PSK_COMMON_MEMORY_BUDGET_H_
