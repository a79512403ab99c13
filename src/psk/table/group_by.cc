#include "psk/table/group_by.h"

#include <algorithm>
#include <bit>

#include "psk/common/check.h"

namespace psk {

namespace {

Status CheckColumns(const Table& table, const std::vector<size_t>& cols,
                    const char* role) {
  for (size_t col : cols) {
    if (col >= table.num_columns()) {
      return Status::OutOfRange(std::string(role) +
                                " column index out of range: " +
                                std::to_string(col));
    }
    PSK_DCHECK(table.column(col).size() == table.num_rows());
  }
  return Status::OK();
}

// The grouping pass behind FrequencySet and ReleaseProfile: GroupByCodes
// over the code columns `cols` (already range-checked), each with its
// dictionary size as cardinality. Equal cells of a column carry equal
// codes, so code-tuple equality is exactly Value-tuple equality; groups
// are numbered by first occurrence in row order.
void GroupByColumns(const Table& table, const std::vector<size_t>& cols,
                    EncodedGroups* out) {
  std::vector<CodeColumnView> columns;
  columns.reserve(cols.size());
  for (size_t col : cols) {
    columns.push_back(CodeColumnView{
        table.column_codes(col).data(), nullptr,
        static_cast<uint32_t>(table.dictionary(col).size())});
  }
  GroupByScratch scratch;
  GroupByCodes(columns, table.num_rows(), &scratch, out);
}

}  // namespace

Result<FrequencySet> FrequencySet::Compute(
    const Table& table, const std::vector<size_t>& col_indices) {
  PSK_RETURN_IF_ERROR(CheckColumns(table, col_indices, "group-by"));
  EncodedGroups partition;
  GroupByColumns(table, col_indices, &partition);
  FrequencySet fs;
  fs.num_rows_ = table.num_rows();
  fs.groups_.resize(partition.num_groups());
  for (size_t g = 0; g < fs.groups_.size(); ++g) {
    fs.groups_[g].row_indices.reserve(partition.group_sizes[g]);
  }
  // The Value key of each group is materialized once, on first occurrence.
  for (size_t row = 0; row < table.num_rows(); ++row) {
    Group& group = fs.groups_[partition.row_gid[row]];
    if (group.row_indices.empty()) {
      group.key = table.RowKey(row, col_indices);
    }
    group.row_indices.push_back(row);
  }
  return fs;
}

Result<ReleaseProfile> ReleaseProfile::Compute(
    const Table& table, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices) {
  PSK_RETURN_IF_ERROR(CheckColumns(table, key_indices, "group-by"));
  PSK_RETURN_IF_ERROR(
      CheckColumns(table, confidential_indices, "confidential"));
  ReleaseProfile profile;
  GroupByColumns(table, key_indices, &profile.groups);
  const EncodedGroups& groups = profile.groups;
  if (confidential_indices.empty()) return profile;

  // Counting sort of the rows by group, so each group's rows are
  // contiguous: rows_by_group[begin[g] .. begin[g + 1]).
  std::vector<uint32_t> begin(groups.num_groups() + 1, 0);
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    begin[g + 1] = begin[g] + groups.group_sizes[g];
  }
  std::vector<uint32_t> rows_by_group(groups.num_rows());
  std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
  for (size_t row = 0; row < groups.num_rows(); ++row) {
    rows_by_group[cursor[groups.row_gid[row]]++] = static_cast<uint32_t>(row);
  }

  // Walking the rows group by group, a value is new to its group exactly
  // when the last group its code was seen in (stored as g + 1; 0 = never)
  // is another one.
  std::vector<uint32_t> last_group;
  for (size_t col : confidential_indices) {
    const std::vector<uint32_t>& codes = table.column_codes(col);
    std::vector<uint32_t>& distinct = profile.distinct.emplace_back(
        groups.num_groups(), 0);
    last_group.assign(table.dictionary(col).size(), 0);
    for (uint32_t g = 0; g < groups.num_groups(); ++g) {
      for (uint32_t i = begin[g]; i < begin[g + 1]; ++i) {
        uint32_t& last = last_group[codes[rows_by_group[i]]];
        if (last != g + 1) {
          last = g + 1;
          ++distinct[g];
        }
      }
    }
  }
  return profile;
}

size_t ReleaseProfile::MinDistinct() const {
  if (groups.num_groups() == 0 || distinct.empty()) return 0;
  size_t min_distinct = SIZE_MAX;
  for (const std::vector<uint32_t>& per_group : distinct) {
    for (uint32_t count : per_group) {
      min_distinct = std::min<size_t>(min_distinct, count);
    }
  }
  return min_distinct;
}

size_t ReleaseProfile::Disclosures() const {
  size_t disclosures = 0;
  for (const std::vector<uint32_t>& per_group : distinct) {
    disclosures += std::count(per_group.begin(), per_group.end(), 1u);
  }
  return disclosures;
}

size_t ReleaseProfile::RowsInDisclosingGroups() const {
  size_t rows = 0;
  for (size_t g = 0; g < groups.num_groups(); ++g) {
    for (const std::vector<uint32_t>& per_group : distinct) {
      if (per_group[g] == 1) {
        rows += groups.group_sizes[g];
        break;
      }
    }
  }
  return rows;
}

uint64_t ReleaseProfile::Discernibility(size_t suppressed,
                                        size_t total_rows) const {
  uint64_t dm = 0;
  for (uint32_t size : groups.group_sizes) {
    dm += static_cast<uint64_t>(size) * size;
  }
  return dm + static_cast<uint64_t>(suppressed) * total_rows;
}

double ReleaseProfile::MarketerRisk() const {
  if (groups.num_rows() == 0) return 0.0;
  return static_cast<double>(groups.num_groups()) /
         static_cast<double>(groups.num_rows());
}

Result<double> ReleaseProfile::NormalizedAvgGroupSize(size_t k) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (groups.num_groups() == 0) return 0.0;
  double avg = static_cast<double>(groups.num_rows()) /
               static_cast<double>(groups.num_groups());
  return avg / static_cast<double>(k);
}

size_t FrequencySet::MinGroupSize() const {
  size_t min_size = 0;
  for (const Group& group : groups_) {
    if (min_size == 0 || group.size() < min_size) min_size = group.size();
  }
  return min_size;
}

size_t FrequencySet::RowsInGroupsSmallerThan(size_t k) const {
  size_t count = 0;
  for (const Group& group : groups_) {
    if (group.size() < k) count += group.size();
  }
  return count;
}

std::vector<size_t> FrequencySet::SizesDescending() const {
  std::vector<size_t> sizes;
  sizes.reserve(groups_.size());
  for (const Group& group : groups_) sizes.push_back(group.size());
  std::sort(sizes.begin(), sizes.end(), std::greater<size_t>());
  return sizes;
}

size_t EncodedGroups::MinGroupSize() const {
  size_t min_size = 0;
  for (uint32_t size : group_sizes) {
    if (min_size == 0 || size < min_size) min_size = size;
  }
  return min_size;
}

size_t EncodedGroups::RowsInGroupsSmallerThan(size_t k) const {
  size_t count = 0;
  for (uint32_t size : group_sizes) {
    if (size < k) count += size;
  }
  return count;
}

size_t EncodedGroups::GroupsAtLeast(size_t k) const {
  size_t count = 0;
  for (uint32_t size : group_sizes) {
    if (size >= k) ++count;
  }
  return count;
}

namespace {

/// Translated code of `row` in column `c` — the actual grouping key digit.
inline uint32_t TranslatedCode(const CodeColumnView& c, size_t row) {
  uint32_t code = c.codes[row];
  return c.map != nullptr ? c.map[code] : code;
}

}  // namespace

void GroupByCodes(const std::vector<CodeColumnView>& columns, size_t num_rows,
                  GroupByScratch* scratch, EncodedGroups* out) {
  // Partition refinement, a block of columns per pass. Every pass renumbers
  // its keys by first occurrence in row order, so after each pass a row's
  // id is the first-occurrence index of its code tuple over the columns
  // seen so far — which is why the final numbering does not depend on how
  // the columns were blocked, and matches a grouping by Value tuples.
  out->row_gid.assign(num_rows, 0);
  std::vector<uint32_t>& row_gid = out->row_gid;
  uint64_t num_groups = num_rows > 0 ? 1 : 0;

  // Keys resolve through a generation-stamped flat array while the key
  // space fits; beyond that, through the open-addressing table.
  constexpr uint64_t kDenseKeyLimit = uint64_t{1} << 20;

  size_t next_col = 0;
  while (num_rows > 0 && next_col < columns.size()) {
    // Collect the block: the longest run of splitting columns whose key
    // space fits the dense limit. Cardinality-1 columns are constant.
    const size_t block_begin = next_col;
    uint64_t key_space = num_groups;
    for (; next_col < columns.size(); ++next_col) {
      const uint64_t cardinality = columns[next_col].cardinality;
      PSK_DCHECK(columns[next_col].codes != nullptr && cardinality > 0);
      if (cardinality == 1) continue;
      if (key_space * cardinality > kDenseKeyLimit) break;
      key_space *= cardinality;
    }
    uint32_t next = 0;

    if (key_space > num_groups) {
      // Mixed-radix key of the block, built in place: each column turns
      // id into id * cardinality + code, bounded by key_space <= 2^20.
      for (size_t c = block_begin; c < next_col; ++c) {
        const CodeColumnView& column = columns[c];
        if (column.cardinality == 1) continue;
        for (size_t row = 0; row < num_rows; ++row) {
          const uint32_t code = TranslatedCode(column, row);
          PSK_DCHECK(code < column.cardinality);
          row_gid[row] = row_gid[row] * column.cardinality + code;
        }
      }
      // Densify once, in row order.
      const uint32_t gen = scratch->NextGeneration(key_space);
      uint64_t* dense = scratch->dense_.data();
      for (size_t row = 0; row < num_rows; ++row) {
        uint64_t& slot = dense[row_gid[row]];
        if ((slot >> 32) != gen) slot = (uint64_t{gen} << 32) | next++;
        row_gid[row] = static_cast<uint32_t>(slot);
      }
    } else if (next_col < columns.size()) {
      // The next splitting column alone leaves the dense range: refine it
      // through a flat open-addressing table over 64-bit (group, code)
      // keys. A key is below groups x cardinality < 2^64 - 1, so
      // UINT64_MAX marks a free slot; at most num_rows distinct keys keep
      // the load factor at or below 1/2.
      const CodeColumnView& column = columns[next_col++];
      const int bits = std::max<int>(4, std::bit_width(2 * num_rows - 1));
      const size_t capacity = size_t{1} << bits;
      scratch->sparse_keys_.assign(capacity, UINT64_MAX);
      scratch->sparse_ids_.resize(capacity);
      uint64_t* keys = scratch->sparse_keys_.data();
      uint32_t* ids = scratch->sparse_ids_.data();
      const size_t mask = capacity - 1;
      for (size_t row = 0; row < num_rows; ++row) {
        const uint32_t code = TranslatedCode(column, row);
        PSK_DCHECK(code < column.cardinality);
        const uint64_t key =
            uint64_t{row_gid[row]} * column.cardinality + code;
        // Fibonacci hashing: the top bits of key * 2^64/phi.
        size_t slot = static_cast<size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> (64 - bits));
        while (keys[slot] != key && keys[slot] != UINT64_MAX) {
          slot = (slot + 1) & mask;
        }
        if (keys[slot] == UINT64_MAX) {
          keys[slot] = key;
          ids[slot] = next++;
        }
        row_gid[row] = ids[slot];
      }
    } else {
      break;  // only cardinality-1 columns were left
    }
    num_groups = next;
  }

  out->group_sizes.assign(num_groups, 0);
  for (uint32_t gid : row_gid) ++out->group_sizes[gid];
}

std::vector<size_t> DescendingValueFrequencies(const Table& table,
                                               size_t col) {
  // Frequencies only — no Value is inspected, so count per code.
  std::vector<size_t> counts(table.dictionary(col).size(), 0);
  for (uint32_t code : table.column_codes(col)) ++counts[code];
  std::erase(counts, size_t{0});
  std::sort(counts.begin(), counts.end(), std::greater<size_t>());
  return counts;
}

}  // namespace psk
