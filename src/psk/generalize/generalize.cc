#include "psk/generalize/generalize.h"

#include <unordered_map>

#include "psk/table/group_by.h"

namespace psk {

Result<Table> ApplyGeneralization(const Table& table,
                                  const HierarchySet& hierarchies,
                                  const LatticeNode& node) {
  const Schema& schema = table.schema();
  std::vector<size_t> key_indices = schema.KeyIndices();
  if (node.levels.size() != key_indices.size()) {
    return Status::InvalidArgument(
        "lattice node has " + std::to_string(node.levels.size()) +
        " levels but the schema has " + std::to_string(key_indices.size()) +
        " key attributes");
  }

  // Build the output schema: identifiers dropped; generalized key columns
  // re-typed to string.
  std::vector<Attribute> out_attrs;
  std::vector<size_t> src_cols;
  std::unordered_map<size_t, size_t> key_col_to_slot;  // src col -> key slot
  for (size_t slot = 0; slot < key_indices.size(); ++slot) {
    key_col_to_slot[key_indices[slot]] = slot;
  }
  for (size_t col = 0; col < schema.num_attributes(); ++col) {
    const Attribute& attr = schema.attribute(col);
    if (attr.role == AttributeRole::kIdentifier) continue;
    Attribute out_attr = attr;
    auto it = key_col_to_slot.find(col);
    if (it != key_col_to_slot.end() && node.levels[it->second] > 0) {
      out_attr.type = ValueType::kString;
    }
    out_attrs.push_back(std::move(out_attr));
    src_cols.push_back(col);
  }
  PSK_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));
  Table out(std::move(out_schema));

  // Per key attribute, memoize ground value -> generalized value. Global
  // recoding guarantees the map is a function of the value alone.
  std::vector<std::unordered_map<Value, Value, ValueHash>> memo(
      key_indices.size());

  for (size_t row = 0; row < table.num_rows(); ++row) {
    std::vector<Value> out_row;
    out_row.reserve(src_cols.size());
    for (size_t col : src_cols) {
      auto it = key_col_to_slot.find(col);
      if (it == key_col_to_slot.end() || node.levels[it->second] == 0) {
        out_row.push_back(table.Get(row, col));
        continue;
      }
      size_t slot = it->second;
      const Value& ground = table.Get(row, col);
      auto cached = memo[slot].find(ground);
      if (cached != memo[slot].end()) {
        out_row.push_back(cached->second);
        continue;
      }
      PSK_ASSIGN_OR_RETURN(
          Value generalized,
          hierarchies.hierarchy(slot).Generalize(ground, node.levels[slot]));
      memo[slot].emplace(ground, generalized);
      out_row.push_back(std::move(generalized));
    }
    PSK_RETURN_IF_ERROR(out.AppendRow(std::move(out_row)));
  }
  return out;
}

Result<Table> SuppressUndersizedGroups(const Table& table,
                                       const std::vector<size_t>& key_indices,
                                       size_t k,
                                       size_t* suppressed_count) {
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1 for suppression");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  std::vector<bool> keep(table.num_rows(), false);
  size_t suppressed = 0;
  for (const Group& group : fs.groups()) {
    if (group.size() >= k) {
      for (size_t row : group.row_indices) keep[row] = true;
    } else {
      suppressed += group.size();
    }
  }
  if (suppressed_count != nullptr) *suppressed_count = suppressed;
  return table.FilterByMask(keep);
}

Result<Table> SuppressUndersizedGroupCells(
    const Table& table, const std::vector<size_t>& key_indices, size_t k,
    size_t* cells_masked, size_t* deleted) {
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1 for suppression");
  }
  for (size_t col : key_indices) {
    if (col >= table.num_columns()) {
      return Status::OutOfRange("key column index out of range");
    }
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  // Rows to mask, plus any rows already fully masked (key = all "*") —
  // the latter count toward the "*" group's size and, if that group stays
  // under k even after masking, must be deleted along with it.
  std::vector<size_t> to_mask;
  std::vector<size_t> star_rows;
  const Value star("*");
  for (const Group& group : fs.groups()) {
    bool all_star = !group.key.empty();
    for (const Value& v : group.key) {
      if (!(v == star)) {
        all_star = false;
        break;
      }
    }
    if (all_star) {
      star_rows = group.row_indices;
    } else if (group.size() < k) {
      to_mask.insert(to_mask.end(), group.row_indices.begin(),
                     group.row_indices.end());
    }
  }
  size_t star_group_size = star_rows.size();

  // Masking the cells requires the key columns to accept strings.
  std::vector<Attribute> attrs = table.schema().attributes();
  if (!to_mask.empty()) {
    for (size_t col : key_indices) {
      attrs[col].type = ValueType::kString;
    }
  }
  PSK_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(attrs)));
  Table out(std::move(out_schema));
  bool star_group_viable = star_group_size + to_mask.size() >= k;
  size_t masked_cells = 0;
  size_t deleted_rows = 0;
  std::vector<bool> mask_row(table.num_rows(), false);
  std::vector<bool> star_row(table.num_rows(), false);
  for (size_t row : to_mask) mask_row[row] = true;
  for (size_t row : star_rows) star_row[row] = true;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    // An undersized "*" group that cannot reach k even with the newly
    // masked rows is deleted together with them.
    if ((mask_row[row] || (star_row[row] && star_group_size < k)) &&
        !star_group_viable) {
      ++deleted_rows;
      continue;
    }
    std::vector<Value> values = table.Row(row);
    if (mask_row[row]) {
      for (size_t col : key_indices) {
        values[col] = star;
        ++masked_cells;
      }
    } else if (!to_mask.empty()) {
      // Key columns were re-typed to string; convert surviving values.
      for (size_t col : key_indices) {
        if (!values[col].is_null() &&
            values[col].type() != ValueType::kString) {
          values[col] = Value(values[col].ToString());
        }
      }
    }
    PSK_RETURN_IF_ERROR(out.AppendRow(std::move(values)));
  }
  if (cells_masked != nullptr) *cells_masked = masked_cells;
  if (deleted != nullptr) *deleted = deleted_rows;
  return out;
}

Result<MaskedMicrodata> Mask(const Table& initial_microdata,
                             const HierarchySet& hierarchies,
                             const LatticeNode& node, size_t k) {
  PSK_ASSIGN_OR_RETURN(EncodedTable encoded,
                       EncodedTable::Build(initial_microdata, hierarchies));
  EncodedWorkspace ws;
  return DecodeMasked(encoded, node, k, &ws);
}

Result<MaskedMicrodata> DecodeMasked(const EncodedTable& encoded,
                                     const LatticeNode& node, size_t k,
                                     EncodedWorkspace* ws) {
  PSK_RETURN_IF_ERROR(encoded.GroupByNode(node, ws));
  const EncodedGroups& groups = ws->groups;
  // keep[row] == false where suppression removes the row; k == 0
  // suppresses nothing.
  std::vector<bool> keep;
  size_t suppressed = 0;
  if (k > 0) {
    keep.assign(encoded.num_rows(), false);
    for (size_t row = 0; row < encoded.num_rows(); ++row) {
      if (groups.group_sizes[groups.row_gid[encoded.entry_of(row)]] >= k) {
        keep[row] = true;
      } else {
        ++suppressed;
      }
    }
  }
  PSK_ASSIGN_OR_RETURN(Table table,
                       encoded.Decode(node, k > 0 ? &keep : nullptr));
  return MaskedMicrodata{std::move(table), node, suppressed};
}

Result<size_t> CountTuplesViolatingK(const Table& table,
                                     const std::vector<size_t>& key_indices,
                                     size_t k) {
  PSK_ASSIGN_OR_RETURN(FrequencySet fs,
                       FrequencySet::Compute(table, key_indices));
  return fs.RowsInGroupsSmallerThan(k);
}

}  // namespace psk
