#include "psk/common/run_budget.h"

#include <algorithm>
#include <string>

namespace psk {
namespace {

std::string LimitMessage(const char* what, uint64_t used, uint64_t limit) {
  return std::string("budget exhausted: ") + what + " (" +
         std::to_string(used) + " > limit " + std::to_string(limit) + ")";
}

}  // namespace

BudgetEnforcer::BudgetEnforcer(RunBudget budget)
    : budget_(std::move(budget)),
      start_(std::chrono::steady_clock::now()) {
  if (budget_.deadline.has_value()) {
    // start_ + deadline is computed in the clock's native (nanosecond)
    // representation, which milliseconds::max() overflows by six decimal
    // orders; clamp in the milliseconds domain first so the expiry point
    // saturates at the far end of the clock instead of wrapping into the
    // past and tripping the deadline on the first Check().
    auto representable = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::time_point::max() - start_);
    deadline_point_ = start_ + std::min(*budget_.deadline, representable);
  }
}

Status BudgetEnforcer::Trip(Status status) {
  tripped_code_.store(static_cast<int>(status.code()),
                      std::memory_order_relaxed);
  return status;
}

Status BudgetEnforcer::Charge(uint64_t nodes, uint64_t rows) {
  // Tick the heartbeat before any limit check: even a charge that is
  // about to fail proves the job is alive and polling its budget, which
  // is exactly what the scheduler watchdog wants to distinguish from a
  // hung job.
  if (budget_.heartbeat != nullptr) {
    budget_.heartbeat->fetch_add(1, std::memory_order_relaxed);
  }
  int tripped = tripped_code_.load(std::memory_order_relaxed);
  if (tripped != 0) {
    return Status(static_cast<StatusCode>(tripped),
                  "budget already exhausted earlier in this run");
  }
  uint64_t total_nodes =
      nodes_.fetch_add(nodes, std::memory_order_relaxed) + nodes;
  uint64_t total_rows =
      rows > 0 ? rows_.fetch_add(rows, std::memory_order_relaxed) + rows
               : rows_.load(std::memory_order_relaxed);
  if (budget_.max_nodes_expanded.has_value() &&
      total_nodes > *budget_.max_nodes_expanded) {
    return Trip(Status::ResourceExhausted(LimitMessage(
        "lattice nodes expanded", total_nodes, *budget_.max_nodes_expanded)));
  }
  if (budget_.max_rows_materialized.has_value() &&
      total_rows > *budget_.max_rows_materialized) {
    return Trip(Status::ResourceExhausted(LimitMessage(
        "rows materialized", total_rows, *budget_.max_rows_materialized)));
  }
  if (budget_.cancel == nullptr && !budget_.deadline.has_value() &&
      budget_.memory == nullptr) {
    return Status::OK();
  }
  return Check();
}

Status BudgetEnforcer::Check() {
  if (budget_.heartbeat != nullptr) {
    budget_.heartbeat->fetch_add(1, std::memory_order_relaxed);
  }
  int tripped = tripped_code_.load(std::memory_order_relaxed);
  if (tripped != 0) {
    return Status(static_cast<StatusCode>(tripped),
                  "budget already exhausted earlier in this run");
  }
  if (budget_.cancel != nullptr && budget_.cancel->cancelled()) {
    return Trip(Status::Cancelled("run cancelled by caller"));
  }
  if (budget_.memory != nullptr && budget_.memory->exhausted()) {
    return Trip(Status::ResourceExhausted(
        "memory budget exhausted (" +
        std::to_string(budget_.memory->bytes_used()) + " bytes in use)"));
  }
  if (budget_.deadline.has_value() &&
      std::chrono::steady_clock::now() >= deadline_point_) {
    return Trip(Status::DeadlineExceeded(
        "deadline of " + std::to_string(budget_.deadline->count()) +
        " ms exceeded after " + std::to_string(Elapsed().count()) + " ms"));
  }
  return Status::OK();
}

std::chrono::milliseconds BudgetEnforcer::Elapsed() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start_);
}

std::optional<std::chrono::milliseconds> BudgetEnforcer::Remaining() const {
  if (!budget_.deadline.has_value()) return std::nullopt;
  std::chrono::milliseconds left = *budget_.deadline - Elapsed();
  return left.count() > 0 ? left : std::chrono::milliseconds(0);
}

bool IsBudgetExhausted(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

bool IsBudgetExhausted(const Status& status) {
  return IsBudgetExhausted(status.code());
}

}  // namespace psk
