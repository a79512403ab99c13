#ifndef PSK_TABLE_ENCODED_H_
#define PSK_TABLE_ENCODED_H_

#include <cstdint>
#include <vector>

#include "psk/common/result.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/group_by.h"
#include "psk/table/table.h"

namespace psk {

/// Per-worker scratch for encoded evaluation (group-by buffers plus the
/// resulting partition). Reused across node evaluations so the hot path
/// allocates nothing after warm-up; never shared between threads.
struct EncodedWorkspace {
  GroupByScratch group_scratch;
  EncodedGroups groups;

  /// Heap footprint of the scratch buffers — the GroupByCodes allocation
  /// seam a per-job MemoryBudget is delta-charged at after each node
  /// evaluation.
  size_t ApproxBytes() const {
    return group_scratch.ApproxBytes() + groups.ApproxBytes();
  }
};

/// Dictionary-encoded view of an initial microdata against a fixed
/// hierarchy set — the evaluation core every lattice engine runs on.
///
/// Build() encodes each quasi-identifier and confidential column once into
/// dense uint32 codes (the table's own codes renumbered by first
/// occurrence, so equal cells share a code — exactly the equality a
/// generalized Table groups by), and
/// precomputes, per QI and per hierarchy level, an ancestor-code map
/// `ground code -> generalized code` together with the generalized Value
/// each ground code maps to. Applying a LatticeNode is then a table-free
/// gather over code vectors: no Value is constructed, nothing is hashed
/// per row beyond integer densification, and no generalized Table is
/// materialized. The winning release is decoded back into a Table exactly
/// once, byte-identical to the ApplyGeneralization + suppression
/// pipeline (Decode reuses the same memoized generalized Values and the
/// same schema re-typing rules).
///
/// Group-bys run over *entries*. Full-domain generalization maps every
/// distinct ground QI tuple to one generalized tuple, so a node's
/// frequency set is a roll-up of the ground frequency set: on the entry
/// layout Build keeps one entry per distinct ground QI tuple, numbered by
/// the first row holding it, with its row count (weight) and, per
/// confidential column, the distinct codes its rows carry. Grouping the
/// entries and summing their weights gives the same groups, sizes and
/// first-occurrence numbering as grouping the rows. Build takes that
/// layout only when it is smaller than the row layout, where every row is
/// its own entry with weight 1 and one code per confidential column (an
/// input whose QI tuples barely repeat).
///
/// An EncodedTable is immutable after Build and safe to share across
/// worker threads; per-thread mutable state lives in EncodedWorkspace.
/// The encoding is derived state: checkpoint identity (input_digest /
/// JobSpecHash) is computed from the initial microdata and hierarchies,
/// never from the encoding.
class EncodedTable {
 public:
  EncodedTable() = default;

  /// Encodes `initial_microdata` (which must outlive the EncodedTable)
  /// against `hierarchies`. Fails with the hierarchy's Generalize status
  /// when any observed QI value does not generalize at some level of its
  /// hierarchy; lattice engines and Mask return that status unchanged.
  static Result<EncodedTable> Build(const Table& initial_microdata,
                                    const HierarchySet& hierarchies);

  size_t num_rows() const { return num_rows_; }
  size_t num_key_attributes() const { return keys_.size(); }
  size_t num_confidential() const { return confs_.size(); }

  /// Entries the group-bys run over: the distinct ground QI tuples on the
  /// entry layout, num_rows() on the row layout.
  size_t num_entries() const {
    return weights_.empty() ? num_rows_ : weights_.size();
  }

  /// The entry holding `row` (the row itself on the row layout).
  uint32_t entry_of(size_t row) const {
    return row_entry_.empty() ? static_cast<uint32_t>(row) : row_entry_[row];
  }

  /// Hierarchy levels of QI slot `slot` (ground level included).
  int num_levels(size_t slot) const { return keys_[slot].num_levels; }

  /// Ground codes of confidential column `j` (schema confidential order),
  /// per entry: on the row layout one code per row and
  /// confidential_offsets(j) is empty; on the entry layout the distinct
  /// codes of entry e's rows are codes[offsets[e] .. offsets[e + 1]).
  const std::vector<uint32_t>& confidential_codes(size_t j) const {
    return confs_[j].codes;
  }
  const std::vector<uint32_t>& confidential_offsets(size_t j) const {
    return confs_[j].offsets;
  }
  uint32_t confidential_cardinality(size_t j) const {
    return confs_[j].cardinality;
  }
  /// Rows carrying each code of confidential column `j`.
  const std::vector<uint32_t>& confidential_value_counts(size_t j) const {
    return confs_[j].value_counts;
  }

  /// Groups every entry by the full QI tuple generalized to `node`,
  /// writing the partition into ws->groups: groups.row_gid is indexed by
  /// entry and groups.group_sizes counts rows. Group ids are numbered by
  /// first occurrence in row order — the same order FrequencySet::Compute
  /// assigns over the materialized generalized table. Fails (like
  /// ApplyGeneralization) when the node's level count does not match the
  /// key attributes or a level is out of range.
  Status GroupByNode(const LatticeNode& node, EncodedWorkspace* ws) const;

  /// Groups by a subset of QI slots at the given levels (Incognito's
  /// subset phases, the bottom-up search's single-attribute bounds).
  /// attrs[i] is a key-slot index; attrs and levels must be in range.
  void GroupBySubset(const std::vector<size_t>& attrs,
                     const std::vector<int>& levels,
                     EncodedWorkspace* ws) const;

  /// Approximate heap footprint of the encoding (code vectors and lists,
  /// entry maps, ancestor maps, memoized generalized Values). The
  /// EncodedTable::Build charge seam: NodeSweeper reserves this many bytes
  /// against the job's MemoryBudget for the lifetime of the shared
  /// encoding.
  size_t ApproxBytes() const;

  /// Decodes the masked microdata at `node`: identifiers dropped, each QI
  /// column rewritten through the stored generalized Values (re-typed to
  /// string above level 0), other columns passed through from the initial
  /// microdata. `keep`, when non-null, must have num_rows() entries; rows
  /// with keep[row] == false are omitted (suppression), preserving row
  /// order. Byte-identical to ApplyGeneralization + FilterByMask.
  Result<Table> Decode(const LatticeNode& node,
                       const std::vector<bool>* keep) const;

 private:
  /// Build's ground pass: groups the rows by their ground QI tuple and
  /// switches to the entry layout when it is smaller than the row layout.
  void GroupRowsIntoEntries();

  /// Runs GroupByCodes over the entries' `columns` into ws->groups, then
  /// weights the group sizes by the entries' row counts.
  void DispatchGroupBy(const std::vector<CodeColumnView>& columns,
                       EncodedWorkspace* ws) const;

  struct KeyColumn {
    size_t src_col = 0;  ///< column index in the initial microdata
    int num_levels = 0;
    uint32_t cardinality = 0;         ///< distinct ground values
    std::vector<uint32_t> codes;      ///< per-entry ground codes
    /// ancestors[level][ground code] -> code at `level`; level 0 is the
    /// identity and stays empty.
    std::vector<std::vector<uint32_t>> ancestors;
    std::vector<uint32_t> level_cardinality;  ///< per level
    /// values[level][ground code] -> generalized Value at `level` (the
    /// same per-ground memoization ApplyGeneralization performs, kept for
    /// byte-identical decoding); level 0 stays empty.
    std::vector<std::vector<Value>> values;
  };
  struct ConfColumn {
    size_t src_col = 0;
    uint32_t cardinality = 0;
    std::vector<uint32_t> codes;    ///< see confidential_codes()
    std::vector<uint32_t> offsets;  ///< entry layout only
    std::vector<uint32_t> value_counts;
  };

  const Table* im_ = nullptr;
  size_t num_rows_ = 0;
  /// Entry layout only (both empty on the row layout): the entry of each
  /// row, and the rows of each entry.
  std::vector<uint32_t> row_entry_;
  std::vector<uint32_t> weights_;
  std::vector<KeyColumn> keys_;
  std::vector<ConfColumn> confs_;
};

}  // namespace psk

#endif  // PSK_TABLE_ENCODED_H_
