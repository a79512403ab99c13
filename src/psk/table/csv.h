#ifndef PSK_TABLE_CSV_H_
#define PSK_TABLE_CSV_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "psk/common/memory_budget.h"
#include "psk/common/result.h"
#include "psk/table/table.h"

namespace psk {

/// Options controlling CSV parsing/serialization. Every reader streams:
/// ReadCsvString and ReadCsvFile drain a CsvChunkReader in fixed
/// 64Ki-row chunks; callers that want another chunk size drive
/// CsvChunkReader::NextChunk themselves.
struct CsvOptions {
  char separator = ',';
  /// When true, the first line must list the attribute names in schema
  /// order (any order is accepted; columns are matched by name).
  bool has_header = true;
  /// When set, ingest memory is metered against this budget: the reader's
  /// I/O buffer and in-flight chunk, plus the growing table (code columns
  /// and their dictionaries), are kept reserved while reading. A Charge
  /// failure (hard quota crossed, or the scheduler force-exhausted the job)
  /// aborts the read with kResourceExhausted.
  std::shared_ptr<MemoryBudget> ingest_budget;
};

/// Streaming CSV reader: parses records incrementally into columnar
/// IngestChunks so a caller can `NextChunk -> Table::AppendChunk ->
/// discard` without the text and the table ever being co-resident (file
/// sources are read through a bounded buffer).
///
///   PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
///                        CsvChunkReader::OpenFile(path, schema));
///   Table table(schema);
///   IngestChunk chunk;
///   while (true) {
///     PSK_ASSIGN_OR_RETURN(size_t n, reader.NextChunk(64 * 1024, &chunk));
///     if (n == 0) break;
///     PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
///   }
///
/// Parsing semantics (quoting, header matching, error line numbers, null
/// handling) are the same at every chunk size; ReadCsvString and
/// ReadCsvFile are thin drains over this reader.
class CsvChunkReader {
 public:
  /// Opens a CSV file; the header (when configured) is parsed eagerly so
  /// malformed headers fail at open, not at first read.
  static Result<CsvChunkReader> OpenFile(const std::string& path,
                                         const Schema& schema,
                                         const CsvOptions& options = {});

  /// Reads from an in-memory buffer. `text` must outlive the reader (it
  /// is not copied — the reader is a view, like ReadCsvString).
  static Result<CsvChunkReader> OpenString(std::string_view text,
                                           const Schema& schema,
                                           const CsvOptions& options = {});

  CsvChunkReader(CsvChunkReader&&) noexcept = default;
  CsvChunkReader& operator=(CsvChunkReader&&) noexcept = default;

  /// Parses up to `max_rows` records into `chunk` (reshaped for the
  /// schema; previous contents dropped), dictionary-encoding each column:
  /// every distinct field text of the chunk is parsed once. Returns the
  /// number of rows produced; 0 means end of input, and the chunk comes
  /// back empty with its buffers freed. Fails with line-accurate
  /// InvalidArgument errors, with InvalidArgument when `max_rows` is 0
  /// (the reader is left untouched), or with kResourceExhausted when the
  /// configured ingest budget refuses the buffers.
  Result<size_t> NextChunk(size_t max_rows, IngestChunk* chunk);

  /// Total data rows produced so far.
  size_t rows_read() const { return rows_read_; }

 private:
  CsvChunkReader(const Schema& schema, CsvOptions options);

  /// Ensures buffer_ holds at least one complete record starting at
  /// pos_ (or all remaining input). Returns false at end of input.
  Result<bool> FillRecord();
  Status ParseHeader();
  /// Reserves the I/O buffer plus `chunk`'s footprint against the ingest
  /// budget, when one is configured.
  Status ChargeBuffers(const IngestChunk& chunk);

  /// Maps a field's text to its code in the chunk's dictionary; looked up
  /// by string_view without building a string.
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  using TextCodes =
      std::unordered_map<std::string, uint32_t, TextHash, std::equal_to<>>;

  const Schema* schema_;
  CsvOptions options_;
  /// File source (null for string sources); buffer_ holds the unconsumed
  /// window. String sources view the whole text in buffer_view_.
  std::unique_ptr<std::ifstream> file_;
  std::string buffer_;
  std::string_view buffer_view_;
  size_t pos_ = 0;
  size_t line_ = 1;
  bool source_exhausted_ = false;
  std::vector<size_t> file_to_schema_;
  /// Per schema attribute, the current chunk's distinct field texts and
  /// their codes: Value::Parse runs once per distinct text per chunk. The
  /// keys are owned, because a file source compacts buffer_ mid-chunk.
  std::vector<TextCodes> text_codes_;
  /// The record being read: its fields, viewing buffer_view_ or
  /// field_copies_ (reused across records).
  std::vector<std::string_view> fields_;
  std::deque<std::string> field_copies_;
  size_t rows_read_ = 0;
  MemoryReservation ingest_reservation_;
};

/// Parses CSV text into a table over `schema`. Values are parsed with
/// Value::Parse according to each attribute's declared type; empty fields
/// become null. With a header, columns may appear in any order but every
/// schema attribute must be present. Quoted fields ("a, b" with embedded
/// separators, doubled quotes for literal quotes) are supported. Streams
/// through 64Ki-row IngestChunks (see CsvChunkReader).
Result<Table> ReadCsvString(std::string_view text, const Schema& schema,
                            const CsvOptions& options = {});

/// Reads a CSV file from disk, streaming: the file is consumed through a
/// bounded buffer, so peak memory is the table plus one chunk — never
/// text + table. See ReadCsvString.
Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options = {});

/// One record of a schemaless CSV text (see ReadCsvRecords).
struct CsvRecord {
  size_t line = 0;  ///< 1-based line on which the record starts
  std::vector<std::string> fields;
};

/// Splits CSV text that has no schema (hierarchy files) into records,
/// with the table reader's record parser: a quoted field may hold the
/// separator, doubled quotes and line breaks, and a CR outside quotes is
/// dropped. Lines holding nothing but spaces, tabs and CRs are skipped.
/// Fails with InvalidArgument on an unterminated quote.
Result<std::vector<CsvRecord>> ReadCsvRecords(std::string_view text,
                                              char separator);

/// True when `field` must be quoted to survive a CSV round trip: it holds
/// the separator, a quote, or a line break (LF or CR).
bool NeedsQuoting(const std::string& field, char sep);

/// `field` wrapped in quotes, inner quotes doubled.
std::string QuoteField(const std::string& field);

/// Serializes a table as CSV (header + rows). Fields containing the
/// separator, quotes, or newlines are quoted.
std::string WriteCsvString(const Table& table, const CsvOptions& options = {});

/// Writes a table to a CSV file on disk, atomically: the CSV is staged at
/// `path`.tmp, fsync'd, and renamed over `path` (see AtomicWriteFile), so
/// a crash mid-write can never leave a truncated-but-parseable CSV at the
/// final path. Returns kDataLoss when the bytes could not be made durable.
Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

}  // namespace psk

#endif  // PSK_TABLE_CSV_H_
