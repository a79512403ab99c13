#include "psk/table/encoded.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "psk/common/check.h"
#include "psk/common/failpoint.h"

namespace psk {
namespace {

/// Dictionary-encodes one column, numbering codes by first occurrence in
/// row order. `representatives` receives one Value per code — the first
/// Value observed with that code.
///
/// The table's codes already identify equal cells, so densification is a
/// flat code -> code array over the column: no Value is hashed and no
/// string payload is touched. Renumbering by first occurrence drops the
/// dictionary entries no row uses and makes the codes independent of the
/// dictionary's entry order.
void EncodeColumn(const Table& table, size_t col, std::vector<uint32_t>* codes,
                  std::vector<Value>* representatives) {
  const std::vector<uint32_t>& table_codes = table.column_codes(col);
  const ColumnDictionary& dictionary = table.dictionary(col);
  size_t num_rows = table_codes.size();
  codes->resize(num_rows);
  std::vector<uint32_t> dense(dictionary.size(), UINT32_MAX);
  uint32_t next = 0;
  for (size_t row = 0; row < num_rows; ++row) {
    uint32_t& code = dense[table_codes[row]];
    if (code == UINT32_MAX) {
      code = next++;
      representatives->push_back(dictionary[table_codes[row]]);
    }
    (*codes)[row] = code;
  }
}

}  // namespace

Result<EncodedTable> EncodedTable::Build(const Table& initial_microdata,
                                         const HierarchySet& hierarchies) {
  // Torture seam: a failed Build fails the lattice engine's Init (and
  // Mask) with the injected status before any node is evaluated; the
  // Anonymizer's fallback chain decides what runs instead.
  PSK_FAIL_POINT("table.encoded.build");
  std::vector<size_t> key_cols = initial_microdata.schema().KeyIndices();
  if (hierarchies.size() != key_cols.size()) {
    return Status::InvalidArgument(
        "hierarchy set has " + std::to_string(hierarchies.size()) +
        " hierarchies but the schema has " + std::to_string(key_cols.size()) +
        " key attributes");
  }

  EncodedTable enc;
  enc.im_ = &initial_microdata;
  enc.num_rows_ = initial_microdata.num_rows();

  enc.keys_.resize(key_cols.size());
  for (size_t slot = 0; slot < key_cols.size(); ++slot) {
    KeyColumn& kc = enc.keys_[slot];
    kc.src_col = key_cols[slot];
    std::vector<Value> grounds;
    EncodeColumn(initial_microdata, kc.src_col, &kc.codes, &grounds);
    kc.cardinality = static_cast<uint32_t>(grounds.size());

    const AttributeHierarchy& hierarchy = hierarchies.hierarchy(slot);
    kc.num_levels = hierarchy.num_levels();
    kc.ancestors.resize(kc.num_levels);
    kc.values.resize(kc.num_levels);
    kc.level_cardinality.resize(kc.num_levels);
    kc.level_cardinality[0] = kc.cardinality;
    for (int level = 1; level < kc.num_levels; ++level) {
      std::vector<uint32_t>& ancestor = kc.ancestors[level];
      std::vector<Value>& values = kc.values[level];
      ancestor.resize(kc.cardinality);
      values.reserve(kc.cardinality);
      // Level codes deduplicate by Value equality — the equality
      // ApplyGeneralization's tables group by — numbered in ground-code
      // (= first occurrence) order.
      std::unordered_map<Value, uint32_t, ValueHash> level_dict;
      level_dict.reserve(kc.cardinality);
      for (uint32_t ground = 0; ground < kc.cardinality; ++ground) {
        PSK_ASSIGN_OR_RETURN(Value generalized,
                             hierarchy.Generalize(grounds[ground], level));
        auto [it, inserted] = level_dict.try_emplace(
            generalized, static_cast<uint32_t>(level_dict.size()));
        ancestor[ground] = it->second;
        values.push_back(std::move(generalized));
      }
      kc.level_cardinality[level] =
          static_cast<uint32_t>(level_dict.size());
    }
  }

  std::vector<size_t> conf_cols =
      initial_microdata.schema().ConfidentialIndices();
  enc.confs_.resize(conf_cols.size());
  for (size_t j = 0; j < conf_cols.size(); ++j) {
    ConfColumn& cc = enc.confs_[j];
    cc.src_col = conf_cols[j];
    std::vector<Value> representatives;
    EncodeColumn(initial_microdata, cc.src_col, &cc.codes, &representatives);
    cc.cardinality = static_cast<uint32_t>(representatives.size());
    cc.value_counts.assign(cc.cardinality, 0);
    for (uint32_t code : cc.codes) ++cc.value_counts[code];
  }
  enc.GroupRowsIntoEntries();
  return enc;
}

void EncodedTable::GroupRowsIntoEntries() {
  // Entries are the ground frequency set: rows grouped by their ground QI
  // codes, numbered by first occurrence. The scratch is local, as in
  // ReleaseProfile::Compute: it lives only for this pass.
  EncodedGroups ground;
  {
    std::vector<CodeColumnView> columns;
    columns.reserve(keys_.size());
    for (const KeyColumn& kc : keys_) {
      columns.push_back(CodeColumnView{kc.codes.data(), nullptr,
                                       kc.cardinality});
    }
    GroupByScratch scratch;
    GroupByCodes(columns, num_rows_, &scratch, &ground);
  }
  const size_t entries = ground.num_groups();

  // Footprints in 4-byte words of what the layouts do not share. The row
  // layout holds a code per row and column; the entry layout a code per
  // entry and key, the entry map, the weights, and per confidential
  // column the list offsets plus the lists, of at least one code each.
  const size_t row_words = num_rows_ * (keys_.size() + confs_.size());
  const size_t entry_words_without_lists =
      num_rows_ + entries * (keys_.size() + 1) +
      confs_.size() * (entries + 1);
  if (entry_words_without_lists + confs_.size() * entries >= row_words) {
    return;
  }

  // Counting sort of the rows by entry; stable, so each entry's first row
  // leads its range rows_by_entry[begin[e] .. begin[e + 1]).
  std::vector<uint32_t> begin(entries + 1, 0);
  for (size_t e = 0; e < entries; ++e) {
    begin[e + 1] = begin[e] + ground.group_sizes[e];
  }
  std::vector<uint32_t> rows_by_entry(num_rows_);
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t row = 0; row < num_rows_; ++row) {
      rows_by_entry[cursor[ground.row_gid[row]]++] =
          static_cast<uint32_t>(row);
    }
  }

  // Each entry's distinct confidential codes: walking the rows entry by
  // entry, a code is new to its entry when the entry it was last seen in
  // (stored as e + 1; 0 = never) is another one.
  std::vector<std::vector<uint32_t>> lists(confs_.size());
  std::vector<std::vector<uint32_t>> offsets(confs_.size());
  size_t list_words = 0;
  std::vector<uint32_t> buffer;
  buffer.reserve(num_rows_);
  std::vector<uint32_t> last_entry;
  for (size_t j = 0; j < confs_.size(); ++j) {
    const std::vector<uint32_t>& codes = confs_[j].codes;
    offsets[j].resize(entries + 1);
    buffer.clear();
    last_entry.assign(confs_[j].cardinality, 0);
    for (uint32_t e = 0; e < entries; ++e) {
      for (uint32_t i = begin[e]; i < begin[e + 1]; ++i) {
        const uint32_t code = codes[rows_by_entry[i]];
        if (last_entry[code] != e + 1) {
          last_entry[code] = e + 1;
          buffer.push_back(code);
        }
      }
      offsets[j][e + 1] = static_cast<uint32_t>(buffer.size());
    }
    lists[j].assign(buffer.begin(), buffer.end());
    list_words += buffer.size();
  }
  if (entry_words_without_lists + list_words >= row_words) return;

  for (KeyColumn& kc : keys_) {
    std::vector<uint32_t> entry_codes(entries);
    for (size_t e = 0; e < entries; ++e) {
      entry_codes[e] = kc.codes[rows_by_entry[begin[e]]];
    }
    kc.codes = std::move(entry_codes);
  }
  for (size_t j = 0; j < confs_.size(); ++j) {
    confs_[j].codes = std::move(lists[j]);
    confs_[j].offsets = std::move(offsets[j]);
  }
  row_entry_ = std::move(ground.row_gid);
  weights_ = std::move(ground.group_sizes);
}

size_t EncodedTable::ApproxBytes() const {
  // Self-reported footprint of the owned vectors; Values are estimated at
  // their in-struct size plus a nominal string payload (generalized
  // interval labels like "[30-40)" fit small-string buffers or short heap
  // blocks — precision is not the point, stable accounting is).
  constexpr size_t kValueBytes = sizeof(Value) + 16;
  size_t bytes = 0;
  for (const KeyColumn& kc : keys_) {
    bytes += kc.codes.capacity() * sizeof(uint32_t);
    bytes += kc.level_cardinality.capacity() * sizeof(uint32_t);
    for (const std::vector<uint32_t>& level : kc.ancestors) {
      bytes += level.capacity() * sizeof(uint32_t);
    }
    for (const std::vector<Value>& level : kc.values) {
      bytes += level.capacity() * kValueBytes;
    }
  }
  for (const ConfColumn& cc : confs_) {
    bytes += (cc.codes.capacity() + cc.offsets.capacity() +
              cc.value_counts.capacity()) *
             sizeof(uint32_t);
  }
  bytes += (row_entry_.capacity() + weights_.capacity()) * sizeof(uint32_t);
  return bytes;
}

Status EncodedTable::GroupByNode(const LatticeNode& node,
                                 EncodedWorkspace* ws) const {
  if (node.levels.size() != keys_.size()) {
    // Same contract (and message) as ApplyGeneralization, so both masking
    // routes reject malformed nodes identically.
    return Status::InvalidArgument(
        "lattice node has " + std::to_string(node.levels.size()) +
        " levels but the schema has " + std::to_string(keys_.size()) +
        " key attributes");
  }
  std::vector<CodeColumnView> columns;
  columns.reserve(keys_.size());
  for (size_t slot = 0; slot < keys_.size(); ++slot) {
    int level = node.levels[slot];
    if (level < 0 || level >= keys_[slot].num_levels) {
      return Status::OutOfRange("level out of range: " +
                                std::to_string(level));
    }
    const KeyColumn& kc = keys_[slot];
    columns.push_back(CodeColumnView{
        kc.codes.data(),
        level == 0 ? nullptr : kc.ancestors[level].data(),
        kc.level_cardinality[level]});
  }
  DispatchGroupBy(columns, ws);
  return Status::OK();
}

void EncodedTable::GroupBySubset(const std::vector<size_t>& attrs,
                                 const std::vector<int>& levels,
                                 EncodedWorkspace* ws) const {
  PSK_DCHECK(attrs.size() == levels.size());
  std::vector<CodeColumnView> columns;
  columns.reserve(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    PSK_DCHECK(attrs[i] < keys_.size());
    const KeyColumn& kc = keys_[attrs[i]];
    int level = levels[i];
    PSK_DCHECK(level >= 0 && level < kc.num_levels);
    columns.push_back(CodeColumnView{
        kc.codes.data(),
        level == 0 ? nullptr : kc.ancestors[level].data(),
        kc.level_cardinality[level]});
  }
  DispatchGroupBy(columns, ws);
}

void EncodedTable::DispatchGroupBy(const std::vector<CodeColumnView>& columns,
                                   EncodedWorkspace* ws) const {
  const size_t entries = num_entries();
  GroupByCodes(columns, entries, &ws->group_scratch, &ws->groups);
  if (weights_.empty()) return;
  // Entry layout: the kernel counted entries; a group holds their rows.
  std::vector<uint32_t>& sizes = ws->groups.group_sizes;
  std::fill(sizes.begin(), sizes.end(), 0u);
  const std::vector<uint32_t>& entry_gid = ws->groups.row_gid;
  for (size_t e = 0; e < entries; ++e) sizes[entry_gid[e]] += weights_[e];
}

Result<Table> EncodedTable::Decode(const LatticeNode& node,
                                   const std::vector<bool>* keep) const {
  const Table& im = *im_;
  const Schema& schema = im.schema();
  std::vector<size_t> key_cols = schema.KeyIndices();
  if (node.levels.size() != key_cols.size()) {
    return Status::InvalidArgument(
        "lattice node has " + std::to_string(node.levels.size()) +
        " levels but the schema has " + std::to_string(key_cols.size()) +
        " key attributes");
  }
  if (keep != nullptr && keep->size() != num_rows_) {
    return Status::InvalidArgument("mask length does not match row count");
  }

  // Output schema: identifiers dropped, key columns generalized above
  // level 0 re-typed to string — mirroring ApplyGeneralization so the
  // decoded release is byte-identical to ApplyGeneralization +
  // SuppressUndersizedGroups.
  std::vector<Attribute> out_attrs;
  std::vector<size_t> src_cols;
  std::vector<int> key_slot_of_out;  // -1 = pass-through column
  for (size_t col = 0, slot = 0; col < schema.num_attributes(); ++col) {
    const Attribute& attr = schema.attribute(col);
    bool is_key = attr.role == AttributeRole::kKey;
    size_t this_slot = slot;
    if (is_key) ++slot;
    if (attr.role == AttributeRole::kIdentifier) continue;
    Attribute out_attr = attr;
    if (is_key && node.levels[this_slot] > 0) {
      out_attr.type = ValueType::kString;
    }
    out_attrs.push_back(std::move(out_attr));
    src_cols.push_back(col);
    key_slot_of_out.push_back(is_key ? static_cast<int>(this_slot) : -1);
  }
  PSK_ASSIGN_OR_RETURN(Schema out_schema, Schema::Create(std::move(out_attrs)));

  // Columnar decode over codes: pass-through columns (and level-0 keys)
  // gather 4-byte codes through the suppression mask and share the
  // initial microdata's dictionary; a generalized key column gets a fresh
  // dictionary, interning each memoized generalized Value once per
  // *ground code*, and then gathers — no per-row Value is constructed or
  // hashed, and nothing is written into the initial microdata.
  // Byte-identical to the row path (same Values, same order), it just
  // never materializes them.
  size_t out_rows = num_rows_;
  if (keep != nullptr) {
    out_rows = 0;
    for (size_t row = 0; row < num_rows_; ++row) {
      if ((*keep)[row]) ++out_rows;
    }
  }
  std::vector<std::vector<uint32_t>> out_codes(src_cols.size());
  std::vector<std::shared_ptr<const ColumnDictionary>> out_dictionaries;
  out_dictionaries.reserve(src_cols.size());
  std::vector<uint32_t> gen_codes;  // ground code -> generalized code
  for (size_t i = 0; i < src_cols.size(); ++i) {
    std::vector<uint32_t>& out = out_codes[i];
    out.reserve(out_rows);
    int slot = key_slot_of_out[i];
    if (slot < 0 || node.levels[slot] == 0) {
      const std::vector<uint32_t>& src = im.column_codes(src_cols[i]);
      for (size_t row = 0; row < num_rows_; ++row) {
        if (keep != nullptr && !(*keep)[row]) continue;
        out.push_back(src[row]);
      }
      out_dictionaries.push_back(im.shared_dictionary(src_cols[i]));
      continue;
    }
    const KeyColumn& kc = keys_[slot];
    auto dictionary = std::make_shared<ColumnDictionary>();
    gen_codes.clear();
    for (const Value& v : kc.values[node.levels[slot]]) {
      gen_codes.push_back(dictionary->Intern(v));
    }
    for (size_t row = 0; row < num_rows_; ++row) {
      if (keep != nullptr && !(*keep)[row]) continue;
      out.push_back(gen_codes[kc.codes[entry_of(row)]]);
    }
    out_dictionaries.push_back(std::move(dictionary));
  }
  return Table::FromColumns(std::move(out_schema), std::move(out_codes),
                            std::move(out_dictionaries));
}

}  // namespace psk
