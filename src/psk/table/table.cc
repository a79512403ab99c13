#include "psk/table/table.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

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

Table::Table(Schema schema)
    : schema_(std::move(schema)), store_(std::make_shared<ValueStore>()) {
  columns_.resize(schema_.num_attributes());
}

Table::Table(Schema schema, std::shared_ptr<ValueStore> store)
    : schema_(std::move(schema)), store_(std::move(store)) {
  PSK_CHECK(store_ != nullptr);
  columns_.resize(schema_.num_attributes());
}

Result<Table> Table::FromColumns(Schema schema,
                                 std::shared_ptr<ValueStore> store,
                                 std::vector<std::vector<ValueId>> columns) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "column count " + std::to_string(columns.size()) +
        " does not match schema attribute count " +
        std::to_string(schema.num_attributes()));
  }
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const auto& column : columns) {
    if (column.size() != rows) {
      return Status::InvalidArgument("ragged id columns");
    }
  }
  Table out(std::move(schema), std::move(store));
  out.columns_ = std::move(columns);
  out.num_rows_ = rows;
  return out;
}

void Table::ReserveRows(size_t additional_rows) {
  for (auto& column : columns_) {
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
    columns_[i].push_back(store_->Intern(row[i]));
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
  std::vector<ValueId> entry_ids;
  for (size_t c = 0; c < num_columns; ++c) {
    entry_ids.clear();
    for (const Value& entry : chunk->dictionary[c]) {
      entry_ids.push_back(store_->Intern(entry));
    }
    std::vector<ValueId>& ids = columns_[c];
    ids.reserve(num_rows_ + rows);
    for (uint32_t code : chunk->codes[c]) ids.push_back(entry_ids[code]);
  }
  num_rows_ += rows;
  chunk->Clear();
  return Status::OK();
}

void Table::Set(size_t row, size_t col, Value value) {
  PSK_CHECK(col < columns_.size() && row < num_rows_);
  columns_[col][row] = store_->Intern(value);
}

const std::vector<ValueId>& Table::column_ids(size_t col) const {
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  return columns_[col];
}

Table::ColumnView Table::column(size_t col) const {
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  return ColumnView(store_.get(), &columns_[col]);
}

std::vector<Value> Table::Row(size_t row) const {
  PSK_CHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const auto& column : columns_) {
    values.push_back(store_->Get(column[row]));
  }
  return values;
}

std::vector<Value> Table::RowKey(
    size_t row, const std::vector<size_t>& col_indices) const {
  PSK_DCHECK(row < num_rows_);
  std::vector<Value> values;
  values.reserve(col_indices.size());
  for (size_t col : col_indices) {
    PSK_DCHECK(col < columns_.size());
    values.push_back(store_->Get(columns_[col][row]));
  }
  return values;
}

Result<Table> Table::FilterRows(const std::vector<size_t>& row_indices) const {
  Table out(schema_, store_);
  for (auto& column : out.columns_) column.reserve(row_indices.size());
  for (size_t row : row_indices) {
    if (row >= num_rows_) {
      return Status::OutOfRange("row index out of range: " +
                                std::to_string(row));
    }
    for (size_t col = 0; col < columns_.size(); ++col) {
      out.columns_[col].push_back(columns_[col][row]);
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
  Table out(std::move(projected), store_);
  for (size_t i = 0; i < col_indices.size(); ++i) {
    out.columns_[i] = columns_[col_indices[i]];
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
  PSK_CHECK(col < columns_.size());
  PSK_DCHECK(columns_[col].size() == num_rows_);
  // The store already deduplicates by value: a column's distinct values
  // are exactly its distinct ids. Counting scans uint32 ids, never
  // hashing a Value (or touching a string payload).
  std::unordered_set<ValueId> seen;
  seen.reserve(std::min(num_rows_, size_t{1} << 20));
  for (ValueId id : columns_[col]) seen.insert(id);
  return seen.size();
}

size_t Table::ApproxBytes() const {
  size_t bytes = store_ != nullptr ? store_->ApproxBytes() : 0;
  for (const auto& column : columns_) {
    bytes += column.capacity() * sizeof(ValueId);
  }
  return bytes;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  size_t rows_to_show = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(columns_.size());
  std::vector<std::vector<std::string>> cells(rows_to_show);
  for (size_t col = 0; col < columns_.size(); ++col) {
    widths[col] = schema_.attribute(col).name.size();
  }
  for (size_t row = 0; row < rows_to_show; ++row) {
    cells[row].resize(columns_.size());
    for (size_t col = 0; col < columns_.size(); ++col) {
      cells[row][col] = Get(row, col).ToString();
      widths[col] = std::max(widths[col], cells[row][col].size());
    }
  }
  std::ostringstream os;
  for (size_t col = 0; col < columns_.size(); ++col) {
    if (col > 0) os << " | ";
    std::string name = schema_.attribute(col).name;
    name.resize(widths[col], ' ');
    os << name;
  }
  os << '\n';
  for (size_t col = 0; col < columns_.size(); ++col) {
    if (col > 0) os << "-+-";
    os << std::string(widths[col], '-');
  }
  os << '\n';
  for (size_t row = 0; row < rows_to_show; ++row) {
    for (size_t col = 0; col < columns_.size(); ++col) {
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
