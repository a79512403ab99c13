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

  /// Intra-node row parallelism (the fine decomposition axis): group-bys
  /// run through GroupByCodesSliced with up to `row_workers` pool lanes
  /// when the table is large enough to slice (>= 2 slices of at least
  /// `min_rows_per_slice` rows). row_workers must stay 1 on workspaces
  /// evaluated from inside a ThreadPool task — only a control thread may
  /// dispatch the sliced path (nested ParallelFor can deadlock). Output
  /// is bit-identical either way.
  size_t row_workers = 1;
  size_t min_rows_per_slice = 1024;
  ParallelGroupByScratch parallel_scratch;
  std::vector<size_t> slice_ends;

  /// Heap footprint of the scratch buffers — the GroupByCodes allocation
  /// seam a per-job MemoryBudget is delta-charged at after each node
  /// evaluation.
  size_t ApproxBytes() const {
    return group_scratch.ApproxBytes() + groups.ApproxBytes() +
           parallel_scratch.ApproxBytes() +
           slice_ends.capacity() * sizeof(size_t);
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

  /// Hierarchy levels of QI slot `slot` (ground level included).
  int num_levels(size_t slot) const { return keys_[slot].num_levels; }

  /// Per-row ground codes of confidential column `j` (schema
  /// confidential order).
  const std::vector<uint32_t>& confidential_codes(size_t j) const {
    return confs_[j].codes;
  }
  uint32_t confidential_cardinality(size_t j) const {
    return confs_[j].cardinality;
  }

  /// Groups every row by the full QI tuple generalized to `node`, writing
  /// the partition into ws->groups. Group ids are numbered by first
  /// occurrence in row order — the same order FrequencySet::Compute
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

  /// Approximate heap footprint of the encoding (code vectors, ancestor
  /// maps, memoized generalized Values). The EncodedTable::Build charge
  /// seam: NodeSweeper reserves this many bytes against the job's
  /// MemoryBudget for the lifetime of the shared encoding.
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
  /// Runs the group-by over `columns` into ws->groups, choosing the
  /// row-sliced parallel path when ws->row_workers and the row count
  /// justify it; bit-identical output either way.
  void DispatchGroupBy(const std::vector<CodeColumnView>& columns,
                       EncodedWorkspace* ws) const;

  struct KeyColumn {
    size_t src_col = 0;  ///< column index in the initial microdata
    int num_levels = 0;
    uint32_t cardinality = 0;         ///< distinct ground values
    std::vector<uint32_t> codes;      ///< per-row ground codes
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
    std::vector<uint32_t> codes;
  };

  const Table* im_ = nullptr;
  size_t num_rows_ = 0;
  std::vector<KeyColumn> keys_;
  std::vector<ConfColumn> confs_;
};

}  // namespace psk

#endif  // PSK_TABLE_ENCODED_H_
