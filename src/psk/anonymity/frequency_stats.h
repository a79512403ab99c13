#ifndef PSK_ANONYMITY_FREQUENCY_STATS_H_
#define PSK_ANONYMITY_FREQUENCY_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/encoded.h"
#include "psk/table/table.h"

namespace psk {

/// The confidential-attribute frequency statistics of §3 (Tables 5-6) that
/// power the paper's two necessary conditions:
///
///  - n: number of tuples;
///  - s_j: number of distinct values of confidential attribute S_j;
///  - f_i^j: descending ordered frequency set of S_j (i = 1..s_j);
///  - cf_i^j: cumulative descending frequencies of S_j;
///  - cf_i = max_j cf_i^j for i = 1..min_j(s_j).
///
/// Indices in this API are 0-based: f(j, i) is the paper's f_{i+1}^{j+1}.
class FrequencyStats {
 public:
  /// Computes the statistics over the given confidential columns. Fails if
  /// `confidential_indices` is empty or out of range.
  static Result<FrequencyStats> Compute(
      const Table& table, const std::vector<size_t>& confidential_indices);

  /// Convenience overload using the schema's confidential attributes.
  static Result<FrequencyStats> Compute(const Table& table);

  /// Code-path overload: frequencies read off the per-code row counts
  /// EncodedTable::Build keeps for each confidential column (no row is
  /// visited). Codes deduplicate by Value equality, so the
  /// resulting statistics — and the Condition 1/2 bounds derived from
  /// them — are identical to the Value-path overloads.
  static Result<FrequencyStats> Compute(const EncodedTable& encoded);

  /// Number of tuples (the paper's n).
  size_t n() const { return n_; }

  /// Number of confidential attributes (the paper's q).
  size_t q() const { return freq_.size(); }

  /// Distinct-value count of confidential attribute j (the paper's s_j).
  size_t s(size_t j) const { return freq_[j].size(); }

  /// Descending frequency f_{i+1}^{j+1} (0-based i < s(j)).
  size_t f(size_t j, size_t i) const { return freq_[j][i]; }

  /// Cumulative descending frequency cf_{i+1}^{j+1} (0-based i < s(j)).
  size_t cf(size_t j, size_t i) const { return cum_freq_[j][i]; }

  /// cf_{i+1} = max_j cf_{i+1}^j, defined for 0-based i < MaxP().
  size_t cf_max(size_t i) const { return cf_max_[i]; }

  /// Condition 1 bound: maxP = min_j s_j. p-sensitive k-anonymity is
  /// impossible for any p > MaxP() (First necessary condition).
  size_t MaxP() const;

  /// Condition 2 bound: the maximum number of QI-groups a masked microdata
  /// can have while being p-sensitive:
  ///
  ///   maxGroups(p) = min_{i=1..p-1} floor((n - cf_{p-i}) / i).
  ///
  /// Requires 2 <= p <= MaxP() (otherwise InvalidArgument /
  /// FailedPrecondition).
  Result<uint64_t> MaxGroups(size_t p) const;

  /// Debug rendering of the f / cf tables (mirrors Tables 5-6).
  std::string ToString() const;

 private:
  size_t n_ = 0;
  std::vector<std::vector<size_t>> freq_;      // [j][i] descending
  std::vector<std::vector<size_t>> cum_freq_;  // [j][i]
  std::vector<size_t> cf_max_;                 // [i], i < MaxP()
};

}  // namespace psk

#endif  // PSK_ANONYMITY_FREQUENCY_STATS_H_
