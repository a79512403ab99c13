#ifndef PSK_ANONYMITY_PSENSITIVE_H_
#define PSK_ANONYMITY_PSENSITIVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "psk/anonymity/frequency_stats.h"
#include "psk/common/result.h"
#include "psk/table/encoded.h"
#include "psk/table/table.h"

namespace psk {

/// Where a p-sensitive k-anonymity check stopped. The improved checker
/// (Algorithm 2) can reject a masked microdata at one of two cheap gates
/// before touching any group.
enum class CheckStage {
  kPassed = 0,           ///< property satisfied
  kCondition1 = 1,       ///< rejected: p > maxP (First necessary condition)
  kCondition2 = 2,       ///< rejected: too many QI-groups (Second condition)
  kKAnonymity = 3,       ///< rejected: some QI-group smaller than k
  kGroupDetail = 4,      ///< rejected: some group lacks p distinct values
};

/// Outcome of a property check, with enough telemetry to measure how much
/// work the necessary conditions saved (the paper's §5 future-work
/// comparison).
struct CheckOutcome {
  bool satisfied = false;
  CheckStage stage = CheckStage::kPassed;
  /// QI-groups whose confidential values were actually inspected.
  size_t groups_examined = 0;
};

/// True iff every QI-group of `table` contains at least `p` distinct values
/// for each confidential attribute — the p-sensitivity half of Definition 2
/// (k-anonymity checked separately). Requires p >= 1. An empty table is
/// vacuously p-sensitive.
Result<bool> IsPSensitive(const Table& table,
                          const std::vector<size_t>& key_indices,
                          const std::vector<size_t>& confidential_indices,
                          size_t p);

/// Algorithm 1 (basic test): checks k-anonymity via the frequency set, then
/// walks every (group, confidential attribute) pair counting distinct
/// values, breaking out at the first violation.
Result<CheckOutcome> CheckBasic(const Table& table,
                                const std::vector<size_t>& key_indices,
                                const std::vector<size_t>& confidential_indices,
                                size_t p, size_t k);

/// Algorithm 2 (improved test): first applies the two necessary conditions
/// — Condition 1 (p <= maxP) and Condition 2 (#groups <= maxGroups) — and
/// only runs the detailed per-group check when both pass.
///
/// `bounds`, when provided, supplies maxP and maxGroups(p) precomputed on
/// the *initial* microdata; Theorems 1 and 2 guarantee they remain valid
/// upper bounds for any MM derived by generalization + suppression, so
/// lattice searches compute them once. When absent they are computed from
/// `table` itself.
struct ConditionBounds {
  size_t max_p = 0;
  uint64_t max_groups = 0;  ///< maxGroups for the p being checked
};

Result<CheckOutcome> CheckImproved(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices, size_t p, size_t k,
    const std::optional<ConditionBounds>& bounds = std::nullopt);

/// Convenience wrappers using the schema's key/confidential attributes.
Result<CheckOutcome> CheckBasic(const Table& table, size_t p, size_t k);
Result<CheckOutcome> CheckImproved(const Table& table, size_t p, size_t k);

/// The sensitivity of a masked microdata: the largest p for which the
/// table is p-sensitive, i.e. the minimum over all QI-groups and
/// confidential attributes of the per-group distinct-value count. (Table 3
/// of the paper is 1-sensitive: min distinct count = 1.) Returns 0 for an
/// empty table.
Result<size_t> SensitivityP(const Table& table,
                            const std::vector<size_t>& key_indices,
                            const std::vector<size_t>& confidential_indices);

/// Extension implementing the paper's follow-up work (Campan & Truta,
/// "extended p-sensitive k-anonymity"): sensitivity counted over
/// *categories* of confidential values instead of raw values. The
/// categories are the ancestors of the values in `value_hierarchy` at
/// `level` — e.g. with Illness categorized into {Cancer, Chronic, Viral},
/// a group holding {Colon Cancer, Breast Cancer} has 2 distinct raw values
/// but only 1 category, and still discloses "the patient has cancer".
/// `confidential_col` must be a confidential attribute; `level` must be a
/// valid level of the hierarchy.
Result<bool> IsPSensitiveHierarchical(
    const Table& table, const std::vector<size_t>& key_indices,
    size_t confidential_col, const class AttributeHierarchy& value_hierarchy,
    int level, size_t p);

/// The largest p satisfied by IsPSensitiveHierarchical — the minimum over
/// QI-groups of the number of distinct value categories. 0 for an empty
/// table.
Result<size_t> HierarchicalSensitivityP(
    const Table& table, const std::vector<size_t>& key_indices,
    size_t confidential_col, const class AttributeHierarchy& value_hierarchy,
    int level);

/// Reusable buffers for the encoded p-sensitivity check: a counting-sort
/// index of entries by group id plus a generation-stamped seen-array over
/// confidential codes. One instance per worker thread.
class EncodedDistinctScratch {
 public:
  EncodedDistinctScratch() = default;

 private:
  friend bool IsPSensitiveEncoded(const EncodedGroups& groups,
                                  const EncodedTable& encoded, size_t p,
                                  size_t min_group_size,
                                  EncodedDistinctScratch* scratch);

  std::vector<uint32_t> offsets_;  // group -> [offsets_[g], offsets_[g+1])
  std::vector<uint32_t> entries_;  // entry indices sorted by group id
  std::vector<uint32_t> cursor_;
  std::vector<uint32_t> stamp_;    // per confidential code, gen-stamped
  uint32_t generation_ = 0;
};

/// Code-path p-sensitivity over an encoded QI-partition (`groups` from
/// EncodedTable::GroupByNode or GroupBySubset): every group of size >=
/// `min_group_size` must hold >= `p` distinct codes of every confidential
/// column. Distinct counting is a counting sort of the entries by group id
/// plus a stamped seen-array over the confidential code space, read
/// through each entry's codes — no hashing, early exit at `p` per group.
/// min_group_size = k skips exactly the groups suppression removes (the
/// evaluator's detail check); min_group_size <= 1 checks every group.
/// Agrees exactly with the Value-keyed IsPSensitive over the generalized
/// table. Vacuously true when p <= 1 or there is no confidential column.
bool IsPSensitiveEncoded(const EncodedGroups& groups,
                         const EncodedTable& encoded, size_t p,
                         size_t min_group_size,
                         EncodedDistinctScratch* scratch);

/// Number of attribute disclosures in a masked microdata: the count of
/// (QI-group, confidential attribute) pairs where every tuple of the group
/// carries the same value — an intruder who links any member of the group
/// learns that value with certainty. This is the quantity reported in
/// Table 8 of the paper.
Result<size_t> CountAttributeDisclosures(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices);

}  // namespace psk

#endif  // PSK_ANONYMITY_PSENSITIVE_H_
