#ifndef PSK_TABLE_GROUP_BY_H_
#define PSK_TABLE_GROUP_BY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/table.h"
#include "psk/table/value.h"

namespace psk {

/// Hash / equality over a composite key (one Value per grouping column).
///
/// Per-element hashes are folded with a boost-style combiner rather than a
/// plain multiply-add: multiplicative-only mixing is linear, so families of
/// low-entropy keys that differ by compensating amounts in two positions
/// (e.g. {a, b} vs {a + 1, b - M}) collide systematically and degrade the
/// frequency-set hash map to linked-list probing on clustered QI data.
struct CompositeKeyHash {
  static size_t Mix(size_t h, size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  }

  size_t operator()(const std::vector<Value>& key) const {
    size_t h = 0x345678;
    for (const Value& v : key) {
      h = Mix(h, v.Hash());
    }
    return h;
  }
};

/// One group of the frequency set: a unique key-attribute combination plus
/// the indices of all rows carrying it.
struct Group {
  std::vector<Value> key;
  std::vector<size_t> row_indices;

  size_t size() const { return row_indices.size(); }
};

/// The frequency set of a microdata with respect to a set of attributes
/// (Truta & Vinay Definition 4): a mapping from each unique combination of
/// values of those attributes to the rows carrying it.
///
/// This is the engine behind every property check in the library:
/// `SELECT COUNT(*) FROM MM GROUP BY KA`.
class FrequencySet {
 public:
  /// Groups `table` by the given column indices through GroupByCodes over
  /// their code columns, the same pass as ReleaseProfile. Group order is
  /// deterministic: by first occurrence.
  static Result<FrequencySet> Compute(const Table& table,
                                      const std::vector<size_t>& col_indices);

  const std::vector<Group>& groups() const { return groups_; }
  size_t num_groups() const { return groups_.size(); }

  /// Total number of rows across all groups.
  size_t num_rows() const { return num_rows_; }

  /// Size of the smallest group; 0 for an empty table.
  size_t MinGroupSize() const;

  /// Number of rows that belong to groups smaller than `k` — the count
  /// suppression must remove to reach k-anonymity (Fig. 3 of the paper).
  size_t RowsInGroupsSmallerThan(size_t k) const;

  /// Group sizes in descending order.
  std::vector<size_t> SizesDescending() const;

 private:
  std::vector<Group> groups_;
  size_t num_rows_ = 0;
};

/// Frequencies of the distinct values in column `col`, sorted descending —
/// the paper's f_i^j for one confidential attribute.
std::vector<size_t> DescendingValueFrequencies(const Table& table, size_t col);

/// The frequency set of a dictionary-encoded table: a dense group id per
/// row plus the group sizes, the compact form of FrequencySet (which
/// materializes each group's key and rows from one of these). Group ids
/// are numbered by first occurrence in row order, so num_groups,
/// MinGroupSize and RowsInGroupsSmallerThan agree exactly with
/// FrequencySet::Compute over the equivalent table.
///
/// EncodedTable groups entries rather than rows (one entry per distinct
/// ground QI tuple, on its entry layout): there row_gid is indexed by
/// entry, num_rows() counts entries, and group_sizes still count rows.
struct EncodedGroups {
  /// row_gid[row] in [0, num_groups()), numbered by first occurrence.
  std::vector<uint32_t> row_gid;
  std::vector<uint32_t> group_sizes;

  size_t num_groups() const { return group_sizes.size(); }
  size_t num_rows() const { return row_gid.size(); }

  /// Size of the smallest group; 0 for an empty table.
  size_t MinGroupSize() const;

  /// Rows living in groups smaller than `k` — what suppression removes.
  size_t RowsInGroupsSmallerThan(size_t k) const;

  /// Groups of size >= k — the group count of the suppressed release.
  size_t GroupsAtLeast(size_t k) const;

  /// Heap footprint of the owned buffers (capacity, not size — what the
  /// allocator actually holds). Memory-accounting seam for per-job
  /// MemoryBudget charging.
  size_t ApproxBytes() const {
    return (row_gid.capacity() + group_sizes.capacity()) * sizeof(uint32_t);
  }
};

/// Everything a release is judged by, from one grouping pass: the
/// QI-partition of a table plus, for each confidential attribute, the
/// number of distinct values in every group. k-anonymity (Definition 1),
/// p-sensitivity (Definition 2), the attribute disclosures of Table 8 and
/// the scorecard's utility and risk measures are all reads of it, so the
/// release guard and the scorecard each group a release once.
///
/// Groups come from GroupByCodes over the key columns' codes, and distinct
/// values are counted per code through a flat array: equal cells of a
/// column carry equal codes (ColumnDictionary), so no Value is hashed.
struct ReleaseProfile {
  /// The QI-partition, groups numbered by first occurrence in row order
  /// (the same order as FrequencySet::Compute).
  EncodedGroups groups;
  /// distinct[j][g]: distinct values of the j-th confidential column
  /// among the rows of group g.
  std::vector<std::vector<uint32_t>> distinct;

  /// Profiles `table` by `key_indices`, counting distinct values of each
  /// of `confidential_indices` per group (none: a size-only profile).
  /// Every index is checked before any row is read. Zero key columns put
  /// every row in one group.
  static Result<ReleaseProfile> Compute(
      const Table& table, const std::vector<size_t>& key_indices,
      const std::vector<size_t>& confidential_indices = {});

  /// The sensitivity: the smallest distinct count over every group and
  /// confidential column; 0 when there is no group or no confidential
  /// column.
  size_t MinDistinct() const;

  /// Attribute disclosures: (group, confidential column) pairs whose
  /// group holds a single value of the column.
  size_t Disclosures() const;

  /// Rows living in a group with at least one attribute disclosure.
  size_t RowsInDisclosingGroups() const;

  /// Discernibility: sum of |G|^2 over groups, plus `total_rows` for each
  /// of the `suppressed` tuples.
  uint64_t Discernibility(size_t suppressed, size_t total_rows) const;

  /// Marketer risk: #groups / n; 0 for an empty table.
  double MarketerRisk() const;

  /// C_AVG = (n / #groups) / k; 0 for an empty table. InvalidArgument
  /// when k is 0.
  Result<double> NormalizedAvgGroupSize(size_t k) const;
};

/// One grouping column for GroupByCodes: dense per-row codes with an
/// optional translation table (e.g. a hierarchy's ancestor-code map).
/// `cardinality` bounds the translated code space: translated codes must
/// lie in [0, cardinality).
struct CodeColumnView {
  const uint32_t* codes = nullptr;  ///< per-row codes (num_rows entries)
  /// Optional: row's key is map[codes[row]] instead of codes[row].
  const uint32_t* map = nullptr;
  uint32_t cardinality = 0;
};

/// Reusable buffers for GroupByCodes. One instance per worker thread.
/// The dense table is generation-stamped, so repeated calls pay no
/// clearing cost; the open-addressing table is reset per column that
/// needs it, in time proportional to the rows.
class GroupByScratch {
 public:
  GroupByScratch() = default;

  /// Heap footprint of the owned buffers (capacity, not size). Memory-
  /// accounting seam for per-job MemoryBudget charging.
  size_t ApproxBytes() const {
    return (dense_.capacity() + sparse_keys_.capacity()) * sizeof(uint64_t) +
           sparse_ids_.capacity() * sizeof(uint32_t);
  }

 private:
  friend void GroupByCodes(const std::vector<CodeColumnView>& columns,
                           size_t num_rows, GroupByScratch* scratch,
                           EncodedGroups* out);

  /// Claims a generation for a dense table of `key_space` slots; a slot
  /// whose high 32 bits differ from the returned generation is free.
  uint32_t NextGeneration(size_t key_space) {
    if (dense_.size() < key_space) dense_.resize(key_space, 0);
    if (++generation_ == 0) {  // wrapped: stamps are ambiguous, reset
      std::fill(dense_.begin(), dense_.end(), uint64_t{0});
      generation_ = 1;
    }
    return generation_;
  }

  /// Dense key -> (generation << 32 | group id).
  std::vector<uint64_t> dense_;
  uint32_t generation_ = 0;
  /// Open-addressing table over 64-bit (group, code) keys, for a column
  /// whose key space alone leaves the dense range: power-of-two capacity
  /// of at least twice the rows, UINT64_MAX = empty slot.
  std::vector<uint64_t> sparse_keys_;
  std::vector<uint32_t> sparse_ids_;
};

/// The library's group-by kernel, behind FrequencySet, ReleaseProfile and
/// every lattice node: groups rows by the tuple of (translated) codes
/// across `columns`, assigning dense group ids numbered by first
/// occurrence in row order. Columns of cardinality 1
/// cannot split a group and are skipped. The rest are refined in blocks:
/// each block is the longest run of columns whose key space (groups so
/// far x product of their cardinalities) fits the dense limit, 2^20; its
/// mixed-radix key is built in place in `out->row_gid` and densified in
/// one pass, with no hashing. A column whose key space alone exceeds the
/// limit is refined on its own through an open-addressing table. The
/// numbering depends only on the final partition, never on the blocking.
/// Zero columns put every row in one group.
void GroupByCodes(const std::vector<CodeColumnView>& columns, size_t num_rows,
                  GroupByScratch* scratch, EncodedGroups* out);

}  // namespace psk

#endif  // PSK_TABLE_GROUP_BY_H_
