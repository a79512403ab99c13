#include "psk/anonymity/frequency_stats.h"

#include <algorithm>
#include <sstream>

#include "psk/table/group_by.h"

namespace psk {

Result<FrequencyStats> FrequencyStats::Compute(
    const Table& table, const std::vector<size_t>& confidential_indices) {
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  for (size_t col : confidential_indices) {
    if (col >= table.num_columns()) {
      return Status::OutOfRange("confidential column index out of range: " +
                                std::to_string(col));
    }
  }
  FrequencyStats stats;
  stats.n_ = table.num_rows();
  stats.freq_.reserve(confidential_indices.size());
  stats.cum_freq_.reserve(confidential_indices.size());
  for (size_t col : confidential_indices) {
    std::vector<size_t> f = DescendingValueFrequencies(table, col);
    std::vector<size_t> cf(f.size());
    size_t acc = 0;
    for (size_t i = 0; i < f.size(); ++i) {
      acc += f[i];
      cf[i] = acc;
    }
    stats.freq_.push_back(std::move(f));
    stats.cum_freq_.push_back(std::move(cf));
  }
  size_t max_p = stats.MaxP();
  stats.cf_max_.resize(max_p, 0);
  for (size_t i = 0; i < max_p; ++i) {
    for (size_t j = 0; j < stats.q(); ++j) {
      stats.cf_max_[i] = std::max(stats.cf_max_[i], stats.cum_freq_[j][i]);
    }
  }
  return stats;
}

Result<FrequencyStats> FrequencyStats::Compute(const Table& table) {
  return Compute(table, table.schema().ConfidentialIndices());
}

Result<FrequencyStats> FrequencyStats::Compute(const EncodedTable& encoded) {
  if (encoded.num_confidential() == 0) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  FrequencyStats stats;
  stats.n_ = encoded.num_rows();
  stats.freq_.reserve(encoded.num_confidential());
  stats.cum_freq_.reserve(encoded.num_confidential());
  for (size_t j = 0; j < encoded.num_confidential(); ++j) {
    const std::vector<uint32_t>& rows = encoded.confidential_value_counts(j);
    std::vector<size_t> counts(rows.begin(), rows.end());
    std::sort(counts.begin(), counts.end(), std::greater<size_t>());
    std::vector<size_t> cf(counts.size());
    size_t acc = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      acc += counts[i];
      cf[i] = acc;
    }
    stats.freq_.push_back(std::move(counts));
    stats.cum_freq_.push_back(std::move(cf));
  }
  size_t max_p = stats.MaxP();
  stats.cf_max_.resize(max_p, 0);
  for (size_t i = 0; i < max_p; ++i) {
    for (size_t j = 0; j < stats.q(); ++j) {
      stats.cf_max_[i] = std::max(stats.cf_max_[i], stats.cum_freq_[j][i]);
    }
  }
  return stats;
}

size_t FrequencyStats::MaxP() const {
  size_t max_p = SIZE_MAX;
  for (const auto& f : freq_) {
    max_p = std::min(max_p, f.size());
  }
  return max_p == SIZE_MAX ? 0 : max_p;
}

Result<uint64_t> FrequencyStats::MaxGroups(size_t p) const {
  if (p < 2) {
    return Status::InvalidArgument(
        "Condition 2 is defined for p >= 2; got p = " + std::to_string(p));
  }
  if (p > MaxP()) {
    return Status::FailedPrecondition(
        "p = " + std::to_string(p) + " exceeds maxP = " +
        std::to_string(MaxP()) + " (Condition 1 already fails)");
  }
  uint64_t best = UINT64_MAX;
  // min over i = 1..p-1 of floor((n - cf_{p-i}) / i); cf_max_ is 0-based so
  // the paper's cf_{p-i} is cf_max_[p - i - 1].
  for (size_t i = 1; i <= p - 1; ++i) {
    size_t cf = cf_max_[p - i - 1];
    uint64_t numerator = n_ >= cf ? n_ - cf : 0;
    best = std::min(best, numerator / i);
  }
  return best;
}

std::string FrequencyStats::ToString() const {
  std::ostringstream os;
  os << "n = " << n_ << "\n";
  for (size_t j = 0; j < q(); ++j) {
    os << "S" << (j + 1) << " (s=" << s(j) << "): f = [";
    for (size_t i = 0; i < s(j); ++i) {
      if (i > 0) os << ", ";
      os << f(j, i);
    }
    os << "], cf = [";
    for (size_t i = 0; i < s(j); ++i) {
      if (i > 0) os << ", ";
      os << cf(j, i);
    }
    os << "]\n";
  }
  os << "cf_max = [";
  for (size_t i = 0; i < cf_max_.size(); ++i) {
    if (i > 0) os << ", ";
    os << cf_max_[i];
  }
  os << "]\n";
  return os.str();
}

}  // namespace psk
