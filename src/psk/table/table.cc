#include "psk/table/table.h"

#include <algorithm>
#include <sstream>

#include "psk/common/check.h"

namespace psk {

void IngestChunk::Reset(const Schema& schema, size_t rows_hint) {
  types.resize(schema.num_attributes());
  codes.resize(schema.num_attributes());
  dictionary.resize(schema.num_attributes());
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    types[i] = schema.attribute(i).type;
    codes[i].clear();
    codes[i].reserve(rows_hint);
    dictionary[i].clear();
  }
}

void IngestChunk::Clear() {
  for (auto& column : codes) column.clear();
  for (auto& entries : dictionary) entries.clear();
}

size_t IngestChunk::ApproxBytes() const {
  constexpr size_t kEntryBytes = 2 * (sizeof(Value) + 16);
  size_t bytes = 0;
  for (const auto& column : codes) {
    bytes += column.capacity() * sizeof(uint32_t);
  }
  for (const auto& entries : dictionary) {
    bytes += entries.size() * kEntryBytes;
  }
  return bytes;
}

namespace {

/// Dictionary equality: same dynamic type and equal payload (see
/// ColumnDictionary). Within one typed column it coincides with
/// Value::operator==, except that a NaN equals nothing.
bool TypedEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble:
      return a.AsDouble() == b.AsDouble();
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

/// 32-bit hash consistent with TypedEqual: the type is mixed in so the
/// numeric classes do not alias, -0.0 hashes as 0.0, and the result is
/// Fibonacci-mixed so identity-hashed integers spread over the index.
uint32_t TypedHash(const Value& v) {
  size_t h = 0;
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      h = std::hash<int64_t>()(v.AsInt64());
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // merge -0.0
      h = std::hash<double>()(d);
      break;
    }
    case ValueType::kString:
      h = std::hash<std::string>()(v.AsString());
      break;
  }
  const uint64_t mixed =
      (h ^ static_cast<uint64_t>(v.type())) * 0x9e3779b97f4a7c15ULL;
  return static_cast<uint32_t>(mixed >> 32);
}

size_t StringPayloadBytes(const Value& v) {
  if (v.type() != ValueType::kString) return 0;
  const std::string& s = v.AsString();
  // Small strings live in the SSO buffer already counted in sizeof(Value).
  return s.capacity() > sizeof(std::string) ? s.capacity() : 0;
}

}  // namespace

uint32_t ColumnDictionary::Intern(const Value& value) {
  if (2 * (values_.size() + 1) > index_.size()) GrowIndex();
  const uint32_t hash = TypedHash(value);
  const size_t mask = index_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint64_t entry = index_[slot];
    if (entry == 0) {
      PSK_CHECK_MSG(values_.size() < UINT32_MAX, "column dictionary overflow");
      const uint32_t code = static_cast<uint32_t>(values_.size());
      values_.push_back(value);
      payload_bytes_ += StringPayloadBytes(values_.back());
      index_[slot] = (uint64_t{hash} << 32) | (code + 1);
      return code;
    }
    const uint32_t code = static_cast<uint32_t>(entry) - 1;
    if (static_cast<uint32_t>(entry >> 32) == hash &&
        TypedEqual(values_[code], value)) {
      return code;
    }
  }
}

void ColumnDictionary::GrowIndex() {
  std::vector<uint64_t> old = std::move(index_);
  index_.assign(std::max<size_t>(16, 2 * old.size()), 0);
  const size_t mask = index_.size() - 1;
  for (uint64_t entry : old) {
    if (entry == 0) continue;
    size_t slot = (entry >> 32) & mask;
    while (index_[slot] != 0) slot = (slot + 1) & mask;
    index_[slot] = entry;
  }
}

size_t ColumnDictionary::ApproxBytes() const {
  return values_.capacity() * sizeof(Value) + payload_bytes_ +
         index_.capacity() * sizeof(uint64_t);
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  codes_.resize(schema_.num_attributes());
  dictionaries_.reserve(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    dictionaries_.push_back(std::make_shared<ColumnDictionary>());
  }
}

Result<Table> Table::FromColumns(
    Schema schema, std::vector<std::vector<uint32_t>> codes,
    std::vector<std::shared_ptr<const ColumnDictionary>> dictionaries) {
  if (codes.size() != schema.num_attributes() ||
      dictionaries.size() != codes.size()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(codes.size()) + " with " +
        std::to_string(dictionaries.size()) +
        " dictionaries does not match schema attribute count " +
        std::to_string(schema.num_attributes()));
  }
  size_t rows = codes.empty() ? 0 : codes[0].size();
  for (size_t c = 0; c < codes.size(); ++c) {
    if (codes[c].size() != rows) {
      return Status::InvalidArgument("ragged code columns");
    }
    if (dictionaries[c] == nullptr) {
      return Status::InvalidArgument("column " + std::to_string(c) +
                                     " has no dictionary");
    }
    PSK_DCHECK(std::all_of(
        codes[c].begin(), codes[c].end(),
        [&](uint32_t code) { return code < dictionaries[c]->size(); }));
  }
  Table out;
  out.schema_ = std::move(schema);
  out.codes_ = std::move(codes);
  out.dictionaries_ = std::move(dictionaries);
  out.num_rows_ = rows;
  return out;
}

ColumnDictionary& Table::WritableDictionary(size_t col) {
  std::shared_ptr<const ColumnDictionary>& dictionary = dictionaries_[col];
  if (dictionary.use_count() > 1) {
    dictionary = std::make_shared<ColumnDictionary>(*dictionary);
  }
  // Every dictionary is allocated non-const (see FromColumns); the const
  // in the pointer only keeps the tables sharing it from writing it.
  return const_cast<ColumnDictionary&>(*dictionary);
}

void Table::ReserveRows(size_t additional_rows) {
  for (auto& column : codes_) {
    column.reserve(num_rows_ + additional_rows);
  }
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; schema has " +
        std::to_string(schema_.num_attributes()) + " attributes");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].is_null() && row[i].type() != schema_.attribute(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.attribute(i).name +
          "': expected " + std::string(ValueTypeToString(
                               schema_.attribute(i).type)) +
          ", got " + std::string(ValueTypeToString(row[i].type())));
    }
  }
  for (size_t i = 0; i < row.size(); ++i) {
    codes_[i].push_back(WritableDictionary(i).Intern(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendChunk(IngestChunk* chunk) {
  const size_t num_columns = schema_.num_attributes();
  if (chunk->types.size() != num_columns ||
      chunk->codes.size() != num_columns ||
      chunk->dictionary.size() != num_columns) {
    return Status::InvalidArgument(
        "chunk has " + std::to_string(chunk->codes.size()) +
        " columns; schema has " + std::to_string(num_columns) +
        " attributes");
  }
  const size_t rows = chunk->num_rows();
  // Validate the whole chunk before appending anything: a user
  // JobSpec::input_source is outside input, so these checks hold in every
  // build. Types cost one compare per distinct value, codes one per cell.
  for (size_t c = 0; c < num_columns; ++c) {
    const std::string& name = schema_.attribute(c).name;
    const ValueType type = schema_.attribute(c).type;
    if (chunk->types[c] != type) {
      return Status::InvalidArgument(
          "type mismatch in chunk column '" + name + "': expected " +
          std::string(ValueTypeToString(type)) + ", got " +
          std::string(ValueTypeToString(chunk->types[c])));
    }
    const std::vector<uint32_t>& codes = chunk->codes[c];
    if (codes.size() != rows) {
      return Status::InvalidArgument(
          "ragged chunk: column '" + name + "' has " +
          std::to_string(codes.size()) + " codes; expected " +
          std::to_string(rows));
    }
    const std::vector<Value>& entries = chunk->dictionary[c];
    for (size_t e = 0; e < entries.size(); ++e) {
      if (!entries[e].is_null() && entries[e].type() != type) {
        return Status::InvalidArgument(
            "type mismatch in chunk column '" + name + "': entry " +
            std::to_string(e) + " is " +
            std::string(ValueTypeToString(entries[e].type())) +
            "; expected " + std::string(ValueTypeToString(type)));
      }
    }
    for (size_t row = 0; row < rows; ++row) {
      if (codes[row] >= entries.size()) {
        return Status::InvalidArgument(
            "chunk column '" + name + "': code " +
            std::to_string(codes[row]) + " at row " + std::to_string(row) +
            " is past its " + std::to_string(entries.size()) +
            "-entry dictionary");
      }
    }
  }
  std::vector<uint32_t> entry_codes;
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnDictionary& dictionary = WritableDictionary(c);
    entry_codes.clear();
    for (const Value& entry : chunk->dictionary[c]) {
      entry_codes.push_back(dictionary.Intern(entry));
    }
    std::vector<uint32_t>& codes = codes_[c];
    codes.reserve(num_rows_ + rows);
    for (uint32_t code : chunk->codes[c]) codes.push_back(entry_codes[code]);
  }
  num_rows_ += rows;
  chunk->Clear();
  return Status::OK();
}

void Table::Set(size_t row, size_t col, Value value) {
  PSK_CHECK(col < codes_.size() && row < num_rows_);
  codes_[col][row] = WritableDictionary(col).Intern(value);
}

const std::vector<uint32_t>& Table::column_codes(size_t col) const {
  PSK_CHECK(col < codes_.size());
  PSK_DCHECK(codes_[col].size() == num_rows_);
  return codes_[col];
}

const ColumnDictionary& Table::dictionary(size_t col) const {
  PSK_CHECK(col < dictionaries_.size());
  return *dictionaries_[col];
}

const std::shared_ptr<const ColumnDictionary>& Table::shared_dictionary(
    size_t col) const {
  PSK_CHECK(col < dictionaries_.size());
  return dictionaries_[col];
}

Table::ColumnView Table::column(size_t col) const {
  PSK_CHECK(col < codes_.size());
  PSK_DCHECK(codes_[col].size() == num_rows_);
  return ColumnView(dictionaries_[col].get(), &codes_[col]);
}

std::vector<Value> Table::Row(size_t row) const {
  PSK_CHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(codes_.size());
  for (size_t col = 0; col < codes_.size(); ++col) {
    values.push_back(Get(row, col));
  }
  return values;
}

std::vector<Value> Table::RowKey(
    size_t row, const std::vector<size_t>& col_indices) const {
  PSK_DCHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(col_indices.size());
  for (size_t col : col_indices) {
    PSK_DCHECK(col < codes_.size());
    values.push_back(Get(row, col));
  }
  return values;
}

Result<Table> Table::FilterRows(const std::vector<size_t>& row_indices) const {
  Table out;
  out.schema_ = schema_;
  out.dictionaries_ = dictionaries_;
  out.codes_.resize(codes_.size());
  for (auto& column : out.codes_) column.reserve(row_indices.size());
  for (size_t row : row_indices) {
    if (row >= num_rows_) {
      return Status::OutOfRange("row index out of range: " +
                                std::to_string(row));
    }
    for (size_t col = 0; col < codes_.size(); ++col) {
      out.codes_[col].push_back(codes_[col][row]);
    }
  }
  out.num_rows_ = row_indices.size();
  return out;
}

Result<Table> Table::FilterByMask(const std::vector<bool>& keep) const {
  if (keep.size() != num_rows_) {
    return Status::InvalidArgument("mask length does not match row count");
  }
  std::vector<size_t> row_indices;
  for (size_t row = 0; row < num_rows_; ++row) {
    if (keep[row]) row_indices.push_back(row);
  }
  return FilterRows(row_indices);
}

Result<Table> Table::ProjectColumns(
    const std::vector<size_t>& col_indices) const {
  PSK_ASSIGN_OR_RETURN(Schema projected, schema_.Project(col_indices));
  Table out;
  out.schema_ = std::move(projected);
  for (size_t col : col_indices) {
    out.codes_.push_back(codes_[col]);
    out.dictionaries_.push_back(dictionaries_[col]);
  }
  out.num_rows_ = num_rows_;
  return out;
}

Result<Table> Table::DropIdentifiers() const {
  std::vector<size_t> kept;
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    if (schema_.attribute(i).role != AttributeRole::kIdentifier) {
      kept.push_back(i);
    }
  }
  return ProjectColumns(kept);
}

size_t Table::DistinctCount(size_t col) const {
  PSK_CHECK(col < codes_.size());
  PSK_DCHECK(codes_[col].size() == num_rows_);
  std::vector<bool> seen(dictionaries_[col]->size());
  size_t distinct = 0;
  for (uint32_t code : codes_[col]) {
    if (!seen[code]) {
      seen[code] = true;
      ++distinct;
    }
  }
  return distinct;
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& column : codes_) {
    bytes += column.capacity() * sizeof(uint32_t);
  }
  for (const auto& dictionary : dictionaries_) {
    bytes += dictionary->ApproxBytes();
  }
  return bytes;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  size_t rows_to_show = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(codes_.size());
  std::vector<std::vector<std::string>> cells(rows_to_show);
  for (size_t col = 0; col < codes_.size(); ++col) {
    widths[col] = schema_.attribute(col).name.size();
  }
  for (size_t row = 0; row < rows_to_show; ++row) {
    cells[row].resize(codes_.size());
    for (size_t col = 0; col < codes_.size(); ++col) {
      cells[row][col] = Get(row, col).ToString();
      widths[col] = std::max(widths[col], cells[row][col].size());
    }
  }
  std::ostringstream os;
  for (size_t col = 0; col < codes_.size(); ++col) {
    if (col > 0) os << " | ";
    std::string name = schema_.attribute(col).name;
    name.resize(widths[col], ' ');
    os << name;
  }
  os << '\n';
  for (size_t col = 0; col < codes_.size(); ++col) {
    if (col > 0) os << "-+-";
    os << std::string(widths[col], '-');
  }
  os << '\n';
  for (size_t row = 0; row < rows_to_show; ++row) {
    for (size_t col = 0; col < codes_.size(); ++col) {
      if (col > 0) os << " | ";
      std::string cell = cells[row][col];
      cell.resize(widths[col], ' ');
      os << cell;
    }
    os << '\n';
  }
  if (rows_to_show < num_rows_) {
    os << "... (" << num_rows_ - rows_to_show << " more rows)\n";
  }
  return os.str();
}

}  // namespace psk
