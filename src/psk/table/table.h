#ifndef PSK_TABLE_TABLE_H_
#define PSK_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/schema.h"
#include "psk/table/value.h"
#include "psk/table/value_store.h"

namespace psk {

/// One columnar batch of rows in flight between a streaming producer (CSV
/// chunk reader, synthetic generator, a JobSpec::input_source) and
/// Table::AppendChunk, dictionary-encoded per column: codes[c] holds one
/// code per row, indexing dictionary[c]. AppendChunk interns each
/// dictionary entry once and gathers ids by code, so ingest costs one
/// intern per distinct value per chunk, not one per cell.
///
/// Producers list entries in first-occurrence order, which makes the
/// store assign ValueIds exactly as a row-by-row append would. Entries may
/// repeat a Value (two CSV texts such as "5" and "05", or a producer that
/// calls Append once per cell); every entry is interned, so each should be
/// referenced by some code.
struct IngestChunk {
  /// Element type of each column; dictionary entries must be null or this
  /// type.
  std::vector<ValueType> types;
  /// codes[c][r] is row r's index into dictionary[c]. All columns have
  /// equal length, in schema attribute order.
  std::vector<std::vector<uint32_t>> codes;
  /// The chunk's Values for each column, in first-occurrence order.
  std::vector<std::vector<Value>> dictionary;

  size_t num_rows() const { return codes.empty() ? 0 : codes[0].size(); }
  size_t num_columns() const { return codes.size(); }

  /// Appends one cell to column `col` as a dictionary entry of its own.
  void Append(size_t col, Value value) {
    codes[col].push_back(static_cast<uint32_t>(dictionary[col].size()));
    dictionary[col].push_back(std::move(value));
  }

  /// Shapes the chunk for `schema` with every column empty, reserving
  /// `rows_hint` codes per column. Reusable across refills.
  void Reset(const Schema& schema, size_t rows_hint);
  /// Drops the rows and entries but keeps the buffers for refill.
  void Clear();

  /// Approximate heap footprint, the one chunk charge ingest meters: code
  /// capacity at 4 bytes, plus each dictionary entry at twice the nominal
  /// cell cost (sizeof(Value) + 16, EncodedTable::ApproxBytes'
  /// convention) — once for the Value, once for the key its producer
  /// finds it by (the CSV reader's per-column text map holds one owned
  /// text per entry).
  size_t ApproxBytes() const;
};

/// Columnar in-memory microdata table over an interned value store.
///
/// A Table owns a Schema and one id column per attribute; every cell is a
/// 32-bit ValueId into the table's ValueStore, which holds each distinct
/// value exactly once. All columns have the same length and rows are
/// addressed by index. Tables remain value types (copyable); masking
/// operations produce new tables rather than mutating the input,
/// mirroring the paper's IM -> MM pipeline. Derived tables (filters,
/// projections, decodes) share the parent's store, so row-level
/// operations copy 4-byte ids, never strings.
class Table {
 public:
  /// An empty table over `schema` with its own value store.
  explicit Table(Schema schema);
  /// An empty table over `schema` sharing `store` (derived tables: the
  /// ids already interned by the sibling remain valid and dedup'd).
  Table(Schema schema, std::shared_ptr<ValueStore> store);
  Table() = default;

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// Adopts pre-built id columns over `store` — the columnar assembly
  /// path for derived-table producers (encoded decode, chunked
  /// suppression) that gather ids directly instead of appending Value
  /// rows. Columns must be parallel (one per schema attribute, equal
  /// lengths) and every id must come from `store`; cell/type agreement is
  /// the producer's contract.
  static Result<Table> FromColumns(Schema schema,
                                   std::shared_ptr<ValueStore> store,
                                   std::vector<std::vector<ValueId>> columns);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// The interned store backing this table's cells.
  const std::shared_ptr<ValueStore>& store() const { return store_; }

  /// Capacity hint: reserves id-column capacity for `additional_rows`
  /// more rows, so a streaming ingest loop (AppendChunk / AppendRow)
  /// never reallocates mid-chunk.
  void ReserveRows(size_t additional_rows);

  /// Appends one row; `row` must have one value per attribute. (Value/type
  /// agreement is validated: each value must be null or match the declared
  /// attribute type.)
  Status AppendRow(std::vector<Value> row);

  /// Appends a dictionary-encoded chunk: interns each dictionary entry
  /// once, then gathers ids by code. The whole chunk is validated first,
  /// in every build — each column's type tag against the schema, equal
  /// code lengths, every code inside its dictionary, every entry null or
  /// of the tagged type — so a malformed chunk fails with InvalidArgument
  /// naming the column and appends nothing. The chunk's rows are
  /// consumed; its buffers survive for Clear()+refill.
  Status AppendChunk(IngestChunk* chunk);

  /// Cell accessors; indices are bounds-checked with PSK_CHECK in debug
  /// builds and trusted in release hot paths. The reference is stable for
  /// the lifetime of the store (shared by all derived tables).
  const Value& Get(size_t row, size_t col) const {
    return store_->Get(columns_[col][row]);
  }
  void Set(size_t row, size_t col, Value value);

  /// Interned id of one cell. Equal cells of the same column always carry
  /// equal ids; ids are store-assignment-order dependent, so consumers
  /// may compare ids within a column or dereference them, never order by
  /// them.
  ValueId GetId(size_t row, size_t col) const { return columns_[col][row]; }

  /// Whole-column id view — the O(rows)-over-uint32 fast path for
  /// distinct counting, frequency stats and dictionary encoding.
  const std::vector<ValueId>& column_ids(size_t col) const;

  /// Read-only view of one column as Values: iterable (range-for yields
  /// `const Value&`), sized, and indexable. Dereferences the interned
  /// store per access.
  class ColumnView {
   public:
    class iterator {
     public:
      using value_type = Value;
      using reference = const Value&;
      using difference_type = std::ptrdiff_t;
      iterator(const ValueStore* store, const ValueId* id)
          : store_(store), id_(id) {}
      const Value& operator*() const { return store_->Get(*id_); }
      iterator& operator++() {
        ++id_;
        return *this;
      }
      bool operator==(const iterator& o) const { return id_ == o.id_; }
      bool operator!=(const iterator& o) const { return id_ != o.id_; }

     private:
      const ValueStore* store_;
      const ValueId* id_;
    };

    ColumnView(const ValueStore* store, const std::vector<ValueId>* ids)
        : store_(store), ids_(ids) {}
    size_t size() const { return ids_->size(); }
    const Value& operator[](size_t row) const {
      return store_->Get((*ids_)[row]);
    }
    iterator begin() const { return iterator(store_, ids_->data()); }
    iterator end() const {
      return iterator(store_, ids_->data() + ids_->size());
    }

   private:
    const ValueStore* store_;
    const std::vector<ValueId>* ids_;
  };

  /// Whole-column view (dereferencing). For id-level access use
  /// column_ids().
  ColumnView column(size_t col) const;

  /// Materializes row `row` as a vector of values.
  std::vector<Value> Row(size_t row) const;

  /// Values of row `row` restricted to `col_indices`, in that order.
  std::vector<Value> RowKey(size_t row,
                            const std::vector<size_t>& col_indices) const;

  /// New table with only the rows whose index appears in `row_indices`
  /// (in the given order). Shares this table's store: copies ids only.
  Result<Table> FilterRows(const std::vector<size_t>& row_indices) const;

  /// New table with only the rows for which keep[i] is true. `keep` must
  /// have num_rows() entries.
  Result<Table> FilterByMask(const std::vector<bool>& keep) const;

  /// New table with a subset of columns (projection). Shares the store.
  Result<Table> ProjectColumns(const std::vector<size_t>& col_indices) const;

  /// New table without the identifier attributes — the first masking step
  /// in the paper (§2): identifiers are always removed from released data.
  Result<Table> DropIdentifiers() const;

  /// Number of distinct values in column `col` (nulls count as one value).
  /// Counts interned ids — O(rows) over uint32, no Value is hashed.
  size_t DistinctCount(size_t col) const;

  /// Approximate heap footprint: the id columns plus the value store.
  /// Tables sharing one store each report the full store (the seam
  /// charges one table per job, so no double counting in practice).
  size_t ApproxBytes() const;

  /// Pretty-prints up to `max_rows` rows as an aligned text grid (for
  /// examples and debugging).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::shared_ptr<ValueStore> store_;
  std::vector<std::vector<ValueId>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace psk

#endif  // PSK_TABLE_TABLE_H_
