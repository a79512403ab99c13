#include "psk/anonymity/diversity.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "psk/anonymity/psensitive.h"
#include "psk/table/group_by.h"

namespace psk {
namespace {

Status ValidateInputs(const Table& table,
                      const std::vector<size_t>& confidential_indices) {
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
  return Status::OK();
}

// Within-group value counts for one confidential attribute.
std::unordered_map<Value, size_t, ValueHash> GroupCounts(const Table& table,
                                                         const Group& group,
                                                         size_t col) {
  std::unordered_map<Value, size_t, ValueHash> counts;
  for (size_t row : group.row_indices) {
    ++counts[table.Get(row, col)];
  }
  return counts;
}

}  // namespace

Result<bool> IsDistinctLDiverse(const Table& table,
                                const std::vector<size_t>& key_indices,
                                const std::vector<size_t>& confidential_indices,
                                size_t l) {
  // Distinct l-diversity is definitionally p-sensitivity with p = l.
  return IsPSensitive(table, key_indices, confidential_indices, l);
}

bool IsDistinctLDiverseEncoded(const EncodedGroups& groups,
                               const EncodedTable& encoded, size_t l,
                               EncodedDistinctScratch* scratch) {
  return IsPSensitiveEncoded(groups, encoded, l, /*min_group_size=*/1,
                             scratch);
}

Result<bool> IsEntropyLDiverse(const Table& table,
                               const std::vector<size_t>& key_indices,
                               const std::vector<size_t>& confidential_indices,
                               double l) {
  if (l < 1.0) return Status::InvalidArgument("l must be >= 1");
  PSK_RETURN_IF_ERROR(ValidateInputs(table, confidential_indices));
  PSK_ASSIGN_OR_RETURN(double min_l,
                       EntropyDiversityL(table, key_indices,
                                         confidential_indices));
  if (table.num_rows() == 0) return true;
  // Tolerate rounding at the boundary (entropy of a uniform group of l
  // values is exactly log l).
  return min_l >= l - 1e-9;
}

Result<double> EntropyDiversityL(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices) {
  PSK_RETURN_IF_ERROR(ValidateInputs(table, confidential_indices));
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  if (fs.num_groups() == 0) return 0.0;
  double min_entropy = HUGE_VAL;
  for (const Group& group : fs.groups()) {
    for (size_t col : confidential_indices) {
      auto counts = GroupCounts(table, group, col);
      double entropy = 0.0;
      double n = static_cast<double>(group.size());
      for (const auto& [value, count] : counts) {
        double p = static_cast<double>(count) / n;
        entropy -= p * std::log(p);
      }
      min_entropy = std::min(min_entropy, entropy);
    }
  }
  return std::exp(min_entropy);
}

Result<bool> IsRecursiveCLDiverse(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices, double c, size_t l) {
  if (c <= 0.0) return Status::InvalidArgument("c must be > 0");
  if (l < 1) return Status::InvalidArgument("l must be >= 1");
  PSK_RETURN_IF_ERROR(ValidateInputs(table, confidential_indices));
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  for (const Group& group : fs.groups()) {
    for (size_t col : confidential_indices) {
      auto counts = GroupCounts(table, group, col);
      if (counts.size() < l) return false;
      std::vector<size_t> r;
      r.reserve(counts.size());
      for (const auto& [value, count] : counts) r.push_back(count);
      std::sort(r.begin(), r.end(), std::greater<size_t>());
      size_t tail = 0;
      for (size_t i = l - 1; i < r.size(); ++i) tail += r[i];
      if (static_cast<double>(r[0]) >= c * static_cast<double>(tail)) {
        return false;
      }
    }
  }
  return true;
}

namespace {

// EMD between a group's distribution and the global distribution for one
// confidential attribute. Values are the global distinct values; for
// numeric attributes they are sorted and the ordered-distance EMD
// (mean absolute prefix sum, normalized by (m-1)) is used; for the rest,
// the equal-distance EMD = total variation distance.
Result<double> GroupEmd(const Table& table, const Group& group, size_t col,
                        const std::map<Value, size_t>& global_counts,
                        bool numeric) {
  double n_global = static_cast<double>(table.num_rows());
  double n_group = static_cast<double>(group.size());
  auto group_counts = GroupCounts(table, group, col);

  if (!numeric) {
    // Equal ground distance: EMD = 1/2 * L1.
    double l1 = 0.0;
    for (const auto& [value, count] : global_counts) {
      double p = static_cast<double>(count) / n_global;
      auto it = group_counts.find(value);
      double q = it == group_counts.end()
                     ? 0.0
                     : static_cast<double>(it->second) / n_group;
      l1 += std::fabs(p - q);
    }
    return l1 / 2.0;
  }

  // Ordered distance over the sorted global values (std::map iterates in
  // value order): EMD = sum |prefix(p - q)| / (m - 1).
  size_t m = global_counts.size();
  if (m <= 1) return 0.0;
  double prefix = 0.0;
  double emd = 0.0;
  for (const auto& [value, count] : global_counts) {
    double p = static_cast<double>(count) / n_global;
    auto it = group_counts.find(value);
    double q = it == group_counts.end()
                   ? 0.0
                   : static_cast<double>(it->second) / n_group;
    prefix += p - q;
    emd += std::fabs(prefix);
  }
  return emd / static_cast<double>(m - 1);
}

}  // namespace

Result<double> TCloseness(const Table& table,
                          const std::vector<size_t>& key_indices,
                          const std::vector<size_t>& confidential_indices) {
  PSK_RETURN_IF_ERROR(ValidateInputs(table, confidential_indices));
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  if (fs.num_groups() == 0) return 0.0;

  double worst = 0.0;
  for (size_t col : confidential_indices) {
    // Global distribution (value-ordered for the numeric EMD). Counted
    // per code first, so the ordered map is touched once per distinct
    // value instead of once per row.
    const ColumnDictionary& dictionary = table.dictionary(col);
    std::vector<size_t> code_counts(dictionary.size(), 0);
    for (uint32_t code : table.column_codes(col)) ++code_counts[code];
    std::map<Value, size_t> global_counts;
    for (uint32_t code = 0; code < code_counts.size(); ++code) {
      if (code_counts[code] > 0) {
        global_counts[dictionary[code]] += code_counts[code];
      }
    }
    ValueType type = table.schema().attribute(col).type;
    bool numeric = type == ValueType::kInt64 || type == ValueType::kDouble;
    for (const Group& group : fs.groups()) {
      PSK_ASSIGN_OR_RETURN(
          double emd, GroupEmd(table, group, col, global_counts, numeric));
      worst = std::max(worst, emd);
    }
  }
  return worst;
}

Result<bool> IsTClose(const Table& table,
                      const std::vector<size_t>& key_indices,
                      const std::vector<size_t>& confidential_indices,
                      double t) {
  if (t < 0.0) return Status::InvalidArgument("t must be >= 0");
  PSK_ASSIGN_OR_RETURN(
      double worst, TCloseness(table, key_indices, confidential_indices));
  return worst <= t + 1e-12;
}

}  // namespace psk
