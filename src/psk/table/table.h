#ifndef PSK_TABLE_TABLE_H_
#define PSK_TABLE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/schema.h"
#include "psk/table/value.h"

namespace psk {

/// One columnar batch of rows in flight between a streaming producer (CSV
/// chunk reader, synthetic generator, a JobSpec::input_source) and
/// Table::AppendChunk, dictionary-encoded per column: codes[c] holds one
/// code per row, indexing dictionary[c]. AppendChunk interns each entry
/// once into the table column's ColumnDictionary and translates codes, so
/// ingest costs one intern per distinct value per chunk, not one per cell.
///
/// Producers list entries in first-occurrence order, which makes the
/// table number its codes exactly as a row-by-row append would. Entries may
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

/// The distinct Values of one table column, each stored once under a dense
/// uint32 code; codes are numbered in interning order.
///
/// Equality is typed: two Values share a code iff they have the same type()
/// and equal payload. Unlike Value::operator==, int64 5 and double 5.0 stay
/// apart, so a cell reads back with exactly the type it was written with.
/// Doubles compare by value, so 0.0 and -0.0 share a code, and a NaN equals
/// nothing: every interned NaN takes a code of its own.
class ColumnDictionary {
 public:
  /// The code of the entry equal to `value`, appending `value` as a new
  /// entry when there is none.
  uint32_t Intern(const Value& value);

  const Value& operator[](uint32_t code) const { return values_[code]; }
  /// Entries, the code space of the column (some may be unused by rows).
  size_t size() const { return values_.size(); }

  /// Approximate heap footprint: the entries, their string payloads and
  /// the lookup index.
  size_t ApproxBytes() const;

 private:
  /// Doubles the lookup index and re-slots every entry.
  void GrowIndex();

  std::vector<Value> values_;
  /// Open-addressing lookup index, power-of-two sized and at most half
  /// full: each slot holds 32 bits of the entry's hash above its code + 1
  /// (0 = empty), so a rehash or a probe miss never rehashes a Value.
  std::vector<uint64_t> index_;
  /// Heap bytes of the entries' string payloads (for ApproxBytes).
  size_t payload_bytes_ = 0;
};

/// Columnar in-memory microdata table, dictionary-encoded per column.
///
/// A Table owns a Schema and, for each attribute, a column of uint32 codes
/// into that column's ColumnDictionary. All columns have the same length
/// and rows are addressed by index. Equal cells of a column carry equal
/// codes, so grouping, distinct counting and frequency counting work over
/// codes and flat arrays indexed by them, never hashing a Value.
///
/// Tables are value types (copyable); masking operations produce new
/// tables rather than mutating the input, mirroring the paper's IM -> MM
/// pipeline. Copies, filters, projections and decodes share dictionaries
/// with their source, so row-level operations copy 4-byte codes, never
/// strings. A write (AppendRow, AppendChunk, Set) first clones a
/// dictionary another table shares, so a thread may write its own copy of
/// a table while other copies are read or written on other threads; like
/// any container, one table is safe for concurrent readers only.
class Table {
 public:
  /// An empty table over `schema`, one empty dictionary per attribute.
  explicit Table(Schema schema);
  Table() = default;

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) noexcept = default;
  Table& operator=(Table&&) noexcept = default;

  /// Adopts pre-built code columns — the columnar assembly path for
  /// derived tables (encoded decode) that gather codes directly instead
  /// of appending Value rows. codes[c] indexes dictionaries[c]; columns
  /// must be parallel (one per schema attribute, equal lengths) with every
  /// code inside its dictionary, and cell/type agreement is the producer's
  /// contract. A dictionary may be shared with other tables; it must have
  /// been allocated non-const.
  static Result<Table> FromColumns(
      Schema schema, std::vector<std::vector<uint32_t>> codes,
      std::vector<std::shared_ptr<const ColumnDictionary>> dictionaries);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return codes_.size(); }

  /// Capacity hint: reserves code-column capacity for `additional_rows`
  /// more rows, so a streaming ingest loop (AppendChunk / AppendRow)
  /// never reallocates mid-chunk.
  void ReserveRows(size_t additional_rows);

  /// Appends one row; `row` must have one value per attribute. (Value/type
  /// agreement is validated: each value must be null or match the declared
  /// attribute type.)
  Status AppendRow(std::vector<Value> row);

  /// Appends a dictionary-encoded chunk: interns each chunk dictionary
  /// entry once into the column's dictionary, then gathers codes. The
  /// whole chunk is validated first, in every build — each column's type
  /// tag against the schema, equal code lengths, every code inside its
  /// dictionary, every entry null or of the tagged type — so a malformed
  /// chunk fails with InvalidArgument naming the column and appends
  /// nothing. The chunk's rows are consumed; its buffers survive for
  /// Clear()+refill.
  Status AppendChunk(IngestChunk* chunk);

  /// Cell accessors; indices are bounds-checked with PSK_CHECK in debug
  /// builds and trusted in release hot paths. The reference lives until
  /// the next write to this table.
  const Value& Get(size_t row, size_t col) const {
    return (*dictionaries_[col])[codes_[col][row]];
  }
  void Set(size_t row, size_t col, Value value);

  /// Column `col`'s per-row codes into dictionary(col) — the O(rows)
  /// fast path for grouping, distinct counting and frequency stats.
  const std::vector<uint32_t>& column_codes(size_t col) const;
  /// Column `col`'s dictionary; its size() bounds the column's codes.
  const ColumnDictionary& dictionary(size_t col) const;
  /// The same dictionary, for a derived table to share (FromColumns).
  const std::shared_ptr<const ColumnDictionary>& shared_dictionary(
      size_t col) const;

  /// Read-only view of one column as Values: iterable (range-for yields
  /// `const Value&`), sized, and indexable. Looks each code up in the
  /// column's dictionary.
  class ColumnView {
   public:
    class iterator {
     public:
      using value_type = Value;
      using reference = const Value&;
      using difference_type = std::ptrdiff_t;
      iterator(const ColumnDictionary* dictionary, const uint32_t* code)
          : dictionary_(dictionary), code_(code) {}
      const Value& operator*() const { return (*dictionary_)[*code_]; }
      iterator& operator++() {
        ++code_;
        return *this;
      }
      bool operator==(const iterator& o) const { return code_ == o.code_; }
      bool operator!=(const iterator& o) const { return code_ != o.code_; }

     private:
      const ColumnDictionary* dictionary_;
      const uint32_t* code_;
    };

    ColumnView(const ColumnDictionary* dictionary,
               const std::vector<uint32_t>* codes)
        : dictionary_(dictionary), codes_(codes) {}
    size_t size() const { return codes_->size(); }
    const Value& operator[](size_t row) const {
      return (*dictionary_)[(*codes_)[row]];
    }
    iterator begin() const { return iterator(dictionary_, codes_->data()); }
    iterator end() const {
      return iterator(dictionary_, codes_->data() + codes_->size());
    }

   private:
    const ColumnDictionary* dictionary_;
    const std::vector<uint32_t>* codes_;
  };

  /// Whole-column view of Values. For code-level access use
  /// column_codes().
  ColumnView column(size_t col) const;

  /// Materializes row `row` as a vector of values.
  std::vector<Value> Row(size_t row) const;

  /// Values of row `row` restricted to `col_indices`, in that order.
  std::vector<Value> RowKey(size_t row,
                            const std::vector<size_t>& col_indices) const;

  /// New table with only the rows whose index appears in `row_indices`
  /// (in the given order). Shares this table's dictionaries: copies codes
  /// only.
  Result<Table> FilterRows(const std::vector<size_t>& row_indices) const;

  /// New table with only the rows for which keep[i] is true. `keep` must
  /// have num_rows() entries.
  Result<Table> FilterByMask(const std::vector<bool>& keep) const;

  /// New table with a subset of columns (projection). Shares the
  /// projected columns' dictionaries.
  Result<Table> ProjectColumns(const std::vector<size_t>& col_indices) const;

  /// New table without the identifier attributes — the first masking step
  /// in the paper (§2): identifiers are always removed from released data.
  Result<Table> DropIdentifiers() const;

  /// Number of distinct values in column `col` (nulls count as one value):
  /// the codes its rows use, which a shared or rewritten dictionary may
  /// outnumber. O(rows) over uint32; no Value is hashed.
  size_t DistinctCount(size_t col) const;

  /// Approximate heap footprint: the code columns plus every dictionary.
  /// Tables sharing a dictionary each report it in full (the seam charges
  /// one table per job, so no double counting in practice).
  size_t ApproxBytes() const;

  /// Pretty-prints up to `max_rows` rows as an aligned text grid (for
  /// examples and debugging).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  /// Column `col`'s dictionary, ready to write: cloned first when another
  /// table shares it.
  ColumnDictionary& WritableDictionary(size_t col);

  Schema schema_;
  std::vector<std::vector<uint32_t>> codes_;
  std::vector<std::shared_ptr<const ColumnDictionary>> dictionaries_;
  size_t num_rows_ = 0;
};

}  // namespace psk

#endif  // PSK_TABLE_TABLE_H_
