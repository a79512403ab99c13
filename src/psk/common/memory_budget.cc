#include "psk/common/memory_budget.h"

#include <string>

namespace psk {

Status MemoryBudget::Charge(uint64_t bytes) {
  if (bytes == 0) return Status::OK();
  // Commit with a CAS loop so a rejected charge never becomes visible to
  // concurrent readers (a fetch_add/fetch_sub undo would transiently
  // overshoot and could trip another thread's hard-limit check).
  uint64_t current = used_.load(std::memory_order_relaxed);
  for (;;) {
    uint64_t hard = hard_limit();
    uint64_t next = current + bytes;
    if (next < current) next = ~uint64_t{0};  // saturate on overflow
    if (hard != 0 && next > hard) {
      return Status::ResourceExhausted(
          "memory budget exhausted: " + std::to_string(current) + " used + " +
          std::to_string(bytes) + " requested > hard limit " +
          std::to_string(hard) + " bytes");
    }
    if (used_.compare_exchange_weak(current, next, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
      uint64_t seen = high_water_.load(std::memory_order_relaxed);
      while (seen < next && !high_water_.compare_exchange_weak(
                                seen, next, std::memory_order_relaxed,
                                std::memory_order_relaxed)) {
      }
      return Status::OK();
    }
  }
}

void MemoryBudget::Release(uint64_t bytes) {
  if (bytes == 0) return;
  uint64_t current = used_.load(std::memory_order_relaxed);
  for (;;) {
    uint64_t next = current > bytes ? current - bytes : 0;
    if (used_.compare_exchange_weak(current, next, std::memory_order_relaxed,
                                    std::memory_order_relaxed)) {
      return;
    }
  }
}

Status MemoryReservation::Reserve(std::shared_ptr<MemoryBudget> budget,
                                  uint64_t bytes) {
  Release();
  if (budget == nullptr) return Status::OK();
  Status charged = budget->Charge(bytes);
  if (!charged.ok()) return charged;
  budget_ = std::move(budget);
  bytes_ = bytes;
  return Status::OK();
}

Status MemoryReservation::Resize(uint64_t new_bytes) {
  if (budget_ == nullptr) return Status::OK();
  if (new_bytes > bytes_) {
    Status charged = budget_->Charge(new_bytes - bytes_);
    if (!charged.ok()) return charged;
  } else if (new_bytes < bytes_) {
    budget_->Release(bytes_ - new_bytes);
  }
  bytes_ = new_bytes;
  return Status::OK();
}

void MemoryReservation::Release() {
  if (budget_ != nullptr) budget_->Release(bytes_);
  budget_.reset();
  bytes_ = 0;
}

}  // namespace psk
