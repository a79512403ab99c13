#include "psk/anonymity/psensitive.h"

#include <type_traits>
#include <unordered_set>

#include "psk/hierarchy/hierarchy.h"
#include "psk/table/group_by.h"

namespace psk {
namespace {

// Distinct values of column `col` among the rows of `group`, counting at
// most `cap` — the early-exit scan of Algorithms 1 and 2, which stop at the
// first group that decides the check.
size_t DistinctInGroup(const Table& table, const Group& group, size_t col,
                       size_t cap) {
  std::unordered_set<Value, ValueHash> seen;
  for (size_t row : group.row_indices) {
    seen.insert(table.Get(row, col));
    if (seen.size() >= cap) return seen.size();
  }
  return seen.size();
}

Status ValidatePK(size_t p, size_t k) {
  if (p < 1) return Status::InvalidArgument("p must be >= 1");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (p > k) {
    return Status::InvalidArgument(
        "p must be <= k (a group of k tuples holds at most k distinct "
        "values); got p = " +
        std::to_string(p) + ", k = " + std::to_string(k));
  }
  return Status::OK();
}

// The detailed per-group check shared by Algorithms 1 and 2.
Result<CheckOutcome> DetailedCheck(const Table& table, const FrequencySet& fs,
                                   const std::vector<size_t>& conf_indices,
                                   size_t p, CheckOutcome outcome) {
  for (const Group& group : fs.groups()) {
    ++outcome.groups_examined;
    for (size_t col : conf_indices) {
      if (DistinctInGroup(table, group, col, p) < p) {
        outcome.satisfied = false;
        outcome.stage = CheckStage::kGroupDetail;
        return outcome;
      }
    }
  }
  outcome.satisfied = true;
  outcome.stage = CheckStage::kPassed;
  return outcome;
}

}  // namespace

/// Groups no larger than this are scanned branch-free (no early exit);
/// larger groups keep the early-exit loop, whose saved work dominates
/// once the group is much bigger than p.
constexpr uint32_t kBranchFreeGroupLimit = 64;

bool IsPSensitiveEncoded(const EncodedGroups& groups,
                         const EncodedTable& encoded, size_t p,
                         size_t min_group_size,
                         EncodedDistinctScratch* scratch) {
  if (p <= 1 || encoded.num_confidential() == 0) return true;
  size_t num_groups = groups.num_groups();
  size_t num_entries = groups.num_rows();

  // Counting sort: entries_[offsets_[g] .. offsets_[g+1]) are group g's
  // entries.
  scratch->offsets_.assign(num_groups + 1, 0);
  for (uint32_t gid : groups.row_gid) ++scratch->offsets_[gid + 1];
  for (size_t g = 0; g < num_groups; ++g) {
    scratch->offsets_[g + 1] += scratch->offsets_[g];
  }
  scratch->cursor_.assign(scratch->offsets_.begin(),
                          scratch->offsets_.end() - 1);
  scratch->entries_.resize(num_entries);
  for (size_t entry = 0; entry < num_entries; ++entry) {
    scratch->entries_[scratch->cursor_[groups.row_gid[entry]]++] =
        static_cast<uint32_t>(entry);
  }

  for (size_t j = 0; j < encoded.num_confidential(); ++j) {
    const uint32_t* codes = encoded.confidential_codes(j).data();
    const uint32_t* lists = encoded.confidential_offsets(j).data();
    uint32_t cardinality = encoded.confidential_cardinality(j);
    if (scratch->stamp_.size() < cardinality) {
      scratch->stamp_.resize(cardinality, 0);
    }
    // An entry's codes are codes[lo .. hi): its one code on the row
    // layout, its list of distinct codes on the entry layout. The layout
    // is a template argument, so the row layout's scan keeps one load per
    // row.
    auto column_holds_p = [&](auto has_lists) {
      constexpr bool kLists = decltype(has_lists)::value;
      for (size_t g = 0; g < num_groups; ++g) {
        if (groups.group_sizes[g] < min_group_size) continue;
        if (++scratch->generation_ == 0) {  // stamp wrap: reset
          std::fill(scratch->stamp_.begin(), scratch->stamp_.end(), 0u);
          scratch->generation_ = 1;
        }
        const uint32_t gen = scratch->generation_;
        const uint32_t begin = scratch->offsets_[g];
        const uint32_t end = scratch->offsets_[g + 1];
        uint32_t* stamp = scratch->stamp_.data();
        size_t distinct = 0;
        if (groups.group_sizes[g] <= kBranchFreeGroupLimit) {
          // Branch-free counting scan: k-anonymous groups are mostly small
          // (size ~k), and for them the early-exit branch mispredicts more
          // than it saves. Scan the whole group with straight-line
          // stamp/count stores and compare once at the end — the stamp
          // store is unconditional, so re-stamping a seen code is a no-op.
          for (uint32_t idx = begin; idx < end; ++idx) {
            const uint32_t entry = scratch->entries_[idx];
            const uint32_t lo = kLists ? lists[entry] : entry;
            const uint32_t hi = kLists ? lists[entry + 1] : entry + 1;
            for (uint32_t i = lo; i < hi; ++i) {
              const uint32_t code = codes[i];
              distinct += stamp[code] != gen;
              stamp[code] = gen;
            }
          }
          if (distinct < p) return false;
        } else {
          bool enough = false;
          for (uint32_t idx = begin; idx < end && !enough; ++idx) {
            const uint32_t entry = scratch->entries_[idx];
            const uint32_t lo = kLists ? lists[entry] : entry;
            const uint32_t hi = kLists ? lists[entry + 1] : entry + 1;
            for (uint32_t i = lo; i < hi; ++i) {
              const uint32_t code = codes[i];
              if (stamp[code] != gen) {
                stamp[code] = gen;
                if (++distinct >= p) {
                  enough = true;
                  break;
                }
              }
            }
          }
          if (!enough) return false;
        }
      }
      return true;
    };
    const bool holds = encoded.confidential_offsets(j).empty()
                           ? column_holds_p(std::false_type{})
                           : column_holds_p(std::true_type{});
    if (!holds) return false;
  }
  return true;
}

Result<bool> IsPSensitive(const Table& table,
                          const std::vector<size_t>& key_indices,
                          const std::vector<size_t>& confidential_indices,
                          size_t p) {
  if (p < 1) return Status::InvalidArgument("p must be >= 1");
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(
      ReleaseProfile profile,
      ReleaseProfile::Compute(table, key_indices, confidential_indices));
  return profile.groups.num_groups() == 0 || profile.MinDistinct() >= p;
}

Result<CheckOutcome> CheckBasic(const Table& table,
                                const std::vector<size_t>& key_indices,
                                const std::vector<size_t>& confidential_indices,
                                size_t p, size_t k) {
  PSK_RETURN_IF_ERROR(ValidatePK(p, k));
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  CheckOutcome outcome;
  if (fs.num_groups() > 0 && fs.MinGroupSize() < k) {
    outcome.stage = CheckStage::kKAnonymity;
    return outcome;
  }
  return DetailedCheck(table, fs, confidential_indices, p, outcome);
}

Result<CheckOutcome> CheckImproved(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices, size_t p, size_t k,
    const std::optional<ConditionBounds>& bounds) {
  PSK_RETURN_IF_ERROR(ValidatePK(p, k));
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }

  size_t max_p;
  uint64_t max_groups;
  if (bounds.has_value()) {
    // Theorems 1-2: bounds computed on the initial microdata dominate the
    // bounds of any generalized+suppressed MM, so they are safe here.
    max_p = bounds->max_p;
    max_groups = bounds->max_groups;
  } else {
    PSK_ASSIGN_OR_RETURN(FrequencyStats stats,
                         FrequencyStats::Compute(table, confidential_indices));
    max_p = stats.MaxP();
    if (p >= 2 && p <= max_p) {
      PSK_ASSIGN_OR_RETURN(max_groups, stats.MaxGroups(p));
    } else {
      max_groups = 0;  // unused when Condition 1 fails or p == 1
    }
  }

  CheckOutcome outcome;
  // First necessary condition.
  if (p > max_p) {
    outcome.stage = CheckStage::kCondition1;
    return outcome;
  }

  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));

  // Second necessary condition (defined for p >= 2).
  if (p >= 2 && static_cast<uint64_t>(fs.num_groups()) > max_groups) {
    outcome.stage = CheckStage::kCondition2;
    return outcome;
  }

  if (fs.num_groups() > 0 && fs.MinGroupSize() < k) {
    outcome.stage = CheckStage::kKAnonymity;
    return outcome;
  }
  return DetailedCheck(table, fs, confidential_indices, p, outcome);
}

Result<CheckOutcome> CheckBasic(const Table& table, size_t p, size_t k) {
  return CheckBasic(table, table.schema().KeyIndices(),
                    table.schema().ConfidentialIndices(), p, k);
}

Result<CheckOutcome> CheckImproved(const Table& table, size_t p, size_t k) {
  return CheckImproved(table, table.schema().KeyIndices(),
                       table.schema().ConfidentialIndices(), p, k);
}

Result<size_t> SensitivityP(const Table& table,
                            const std::vector<size_t>& key_indices,
                            const std::vector<size_t>& confidential_indices) {
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(
      ReleaseProfile profile,
      ReleaseProfile::Compute(table, key_indices, confidential_indices));
  return profile.MinDistinct();
}

namespace {

// Distinct categories (ancestors at `level`) of column `col` within one
// group, counting at most `cap`.
Result<size_t> DistinctCategoriesInGroup(
    const Table& table, const Group& group, size_t col,
    const AttributeHierarchy& value_hierarchy, int level, size_t cap) {
  std::unordered_set<Value, ValueHash> seen;
  std::unordered_map<Value, Value, ValueHash> memo;
  for (size_t row : group.row_indices) {
    const Value& ground = table.Get(row, col);
    auto it = memo.find(ground);
    if (it == memo.end()) {
      PSK_ASSIGN_OR_RETURN(Value category,
                           value_hierarchy.Generalize(ground, level));
      it = memo.emplace(ground, std::move(category)).first;
    }
    seen.insert(it->second);
    if (seen.size() >= cap) return seen.size();
  }
  return seen.size();
}

}  // namespace

Result<bool> IsPSensitiveHierarchical(
    const Table& table, const std::vector<size_t>& key_indices,
    size_t confidential_col, const AttributeHierarchy& value_hierarchy,
    int level, size_t p) {
  if (p < 1) return Status::InvalidArgument("p must be >= 1");
  if (confidential_col >= table.num_columns()) {
    return Status::OutOfRange("confidential column index out of range");
  }
  if (level < 0 || level >= value_hierarchy.num_levels()) {
    return Status::OutOfRange("hierarchy level out of range");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  for (const Group& group : fs.groups()) {
    PSK_ASSIGN_OR_RETURN(
        size_t distinct,
        DistinctCategoriesInGroup(table, group, confidential_col,
                                  value_hierarchy, level, p));
    if (distinct < p) return false;
  }
  return true;
}

Result<size_t> HierarchicalSensitivityP(
    const Table& table, const std::vector<size_t>& key_indices,
    size_t confidential_col, const AttributeHierarchy& value_hierarchy,
    int level) {
  if (confidential_col >= table.num_columns()) {
    return Status::OutOfRange("confidential column index out of range");
  }
  if (level < 0 || level >= value_hierarchy.num_levels()) {
    return Status::OutOfRange("hierarchy level out of range");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  if (fs.num_groups() == 0) return static_cast<size_t>(0);
  size_t min_distinct = SIZE_MAX;
  for (const Group& group : fs.groups()) {
    PSK_ASSIGN_OR_RETURN(
        size_t distinct,
        DistinctCategoriesInGroup(table, group, confidential_col,
                                  value_hierarchy, level, SIZE_MAX));
    min_distinct = std::min(min_distinct, distinct);
  }
  return min_distinct;
}

Result<size_t> CountAttributeDisclosures(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices) {
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(
      ReleaseProfile profile,
      ReleaseProfile::Compute(table, key_indices, confidential_indices));
  return profile.Disclosures();
}

}  // namespace psk
