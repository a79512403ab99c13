#ifndef PSK_GENERALIZE_GENERALIZE_H_
#define PSK_GENERALIZE_GENERALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/encoded.h"
#include "psk/table/table.h"

namespace psk {

/// Applies the full-domain generalization described by `node` to `table`:
/// each key attribute's column is mapped through its hierarchy at the
/// node's level (global recoding — every occurrence of a value maps to the
/// same generalized value). Identifier attributes are dropped; confidential
/// and other attributes pass through unchanged, matching the paper's
/// masking model (§2-3).
///
/// Generalized key columns whose level is > 0 hold string values, so the
/// output schema re-types those attributes as kString.
Result<Table> ApplyGeneralization(const Table& table,
                                  const HierarchySet& hierarchies,
                                  const LatticeNode& node);

/// Removes every tuple belonging to a key-attribute group with fewer than
/// `k` members — the suppression step applied after generalization.
/// Returns the surviving table; `*suppressed_count` (optional) receives the
/// number of removed tuples.
Result<Table> SuppressUndersizedGroups(const Table& table,
                                       const std::vector<size_t>& key_indices,
                                       size_t k,
                                       size_t* suppressed_count = nullptr);

/// Result of running the full masking pipeline on an initial microdata.
struct MaskedMicrodata {
  Table table;          ///< the masked microdata (MM)
  LatticeNode node;     ///< the generalization applied
  size_t suppressed = 0;  ///< tuples removed by suppression
};

/// Masking pipeline: drop identifiers, generalize the key attributes to
/// `node`, then (if `k` > 0) suppress groups smaller than `k`. Runs as
/// EncodedTable::Build + DecodeMasked — the same decode every lattice
/// engine uses for its winning node — and produces the bytes
/// ApplyGeneralization + SuppressUndersizedGroups would. Because it encodes
/// the whole table first, every observed key value must generalize at
/// every level of its hierarchy (the contract the Anonymizer's preflight
/// already enforces); otherwise the hierarchy's Generalize status is
/// returned, whichever `node` was asked for.
Result<MaskedMicrodata> Mask(const Table& initial_microdata,
                             const HierarchySet& hierarchies,
                             const LatticeNode& node, size_t k = 0);

/// Code-path masking pipeline: partitions the encoded rows at `node`
/// (into `ws`, the caller's reusable workspace), drops the rows of groups
/// smaller than `k` (none when k == 0), and decodes the survivors with
/// EncodedTable::Decode — a MaskedMicrodata byte-identical to
/// ApplyGeneralization + SuppressUndersizedGroups over the same inputs.
/// This is how a search's winning node is materialized exactly once, and
/// what Mask() runs.
Result<MaskedMicrodata> DecodeMasked(const EncodedTable& encoded,
                                     const LatticeNode& node, size_t k,
                                     EncodedWorkspace* ws);

/// Alternative to tuple deletion — the "local suppression" of §2: instead
/// of removing the tuples of undersized groups, their *key attribute
/// cells* are masked to "*", moving them into the fully-suppressed group.
/// Tuples are only deleted if even that group stays smaller than `k`.
///
/// Keeps more rows (confidential values of outliers remain available to
/// analysts) at the cost of key information; the returned table still
/// satisfies k-anonymity.
///
/// `*cells_masked` (optional) receives the number of masked cells;
/// `*deleted` the number of tuples that had to be removed anyway.
Result<Table> SuppressUndersizedGroupCells(
    const Table& table, const std::vector<size_t>& key_indices, size_t k,
    size_t* cells_masked = nullptr, size_t* deleted = nullptr);

/// Number of tuples of `table` (already generalized) violating k-anonymity,
/// i.e. living in groups smaller than k. This is the per-node count the
/// paper plots in Fig. 3.
Result<size_t> CountTuplesViolatingK(const Table& table,
                                     const std::vector<size_t>& key_indices,
                                     size_t k);

}  // namespace psk

#endif  // PSK_GENERALIZE_GENERALIZE_H_
