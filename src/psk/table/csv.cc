#include "psk/table/csv.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

#include "psk/common/durable_file.h"
#include "psk/common/string_util.h"

namespace psk {
namespace {

/// File-source read granularity. The streaming reader's peak text
/// residency is one block plus the longest record, independent of file
/// size.
constexpr size_t kReadBlockBytes = 256 * 1024;

/// Rows per chunk when ReadCsvString / ReadCsvFile drain a reader, and the
/// cap on the rows one IngestChunk reserves up front.
constexpr size_t kReadChunkRows = 64 * 1024;

// Splits one logical CSV record into fields, honoring quotes. `pos` points
// at the start of the record and is advanced past its trailing newline.
// `start_line` (1-based) is where this record begins; `lines_consumed`
// receives the number of newlines swallowed, counting those embedded in
// quoted fields, so callers can keep reported line numbers accurate.
//
// Each field views `text` while its bytes are contiguous there (quotes
// around the whole field and a dropped trailing CR keep them so); a
// doubled quote, quotes around only part of the field or a CR inside it
// move the field into a copy in `*copies`. The views live until `text`
// changes or the next call.
Status ParseRecord(std::string_view text, size_t* pos, char sep,
                   size_t start_line, size_t* lines_consumed,
                   std::vector<std::string_view>* fields,
                   std::deque<std::string>* copies) {
  fields->clear();
  copies->clear();
  // The current field: text[begin, end) until a gap forces `copy`.
  size_t begin = *pos;
  size_t end = *pos;
  std::string* copy = nullptr;
  // Appends text[from, to) to the current field.
  auto append = [&](size_t from, size_t to) {
    if (copy != nullptr) {
      copy->append(text.substr(from, to - from));
    } else if (begin == end) {
      begin = from;
      end = to;
    } else if (from == end) {
      end = to;
    } else {
      copy = &copies->emplace_back(text.substr(begin, end - begin));
      copy->append(text.substr(from, to - from));
    }
  };
  auto finish_field = [&] {
    fields->push_back(copy != nullptr ? std::string_view(*copy)
                                      : text.substr(begin, end - begin));
    copy = nullptr;
    begin = end;
  };
  *lines_consumed = 0;
  size_t i = *pos;
  while (i < text.size()) {
    char c = text[i];
    if (c == '"') {
      // Quoted: everything up to the closing quote is content, a doubled
      // quote standing for one.
      ++i;
      while (true) {
        size_t quote = text.find('"', i);
        if (quote == std::string_view::npos) {
          return Status::InvalidArgument(
              "unterminated quoted field in CSV record starting at line " +
              std::to_string(start_line));
        }
        *lines_consumed += static_cast<size_t>(
            std::count(text.begin() + i, text.begin() + quote, '\n'));
        append(i, quote);
        if (quote + 1 < text.size() && text[quote + 1] == '"') {
          append(quote, quote + 1);
          i = quote + 2;
        } else {
          i = quote + 1;
          break;
        }
      }
    } else if (c == sep) {
      finish_field();
      ++i;
    } else if (c == '\n') {
      ++*lines_consumed;
      ++i;
      break;
    } else if (c == '\r') {
      ++i;  // dropped; a \r\n ends the record at its \n
    } else {
      size_t run = i + 1;
      while (run < text.size() && text[run] != sep && text[run] != '"' &&
             text[run] != '\n' && text[run] != '\r') {
        ++run;
      }
      append(i, run);
      i = run;
    }
  }
  finish_field();
  *pos = i;
  return Status::OK();
}

/// Matches a parsed header against the schema: file column j maps to
/// schema attribute result[j].
Result<std::vector<size_t>> MapHeader(
    const std::vector<std::string_view>& header, const Schema& schema) {
  std::vector<size_t> file_to_schema;
  std::vector<bool> seen(schema.num_attributes(), false);
  for (std::string_view name : header) {
    auto idx_result = schema.IndexOf(Trim(name));
    if (!idx_result.ok()) {
      return Status::InvalidArgument("CSV header (line 1): " +
                                     idx_result.status().message());
    }
    size_t idx = idx_result.value();
    if (seen[idx]) {
      return Status::InvalidArgument(
          "CSV header (line 1): duplicate column '" +
          std::string(Trim(name)) + "'");
    }
    seen[idx] = true;
    file_to_schema.push_back(idx);
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("CSV is missing column '" +
                                     schema.attribute(i).name + "'");
    }
  }
  return file_to_schema;
}

/// Streams every chunk of `reader` into a fresh table. When `budget` is
/// set, the growing table (code columns + dictionaries) stays reserved
/// against it for the duration of the read — a transient ingest meter;
/// the sustained charge is the run-time seam (Anonymizer input
/// reservation).
Result<Table> DrainReader(CsvChunkReader reader, const Schema& schema,
                          const CsvOptions& options) {
  Table table(schema);
  IngestChunk chunk;
  MemoryReservation table_reservation;
  while (true) {
    PSK_ASSIGN_OR_RETURN(size_t n, reader.NextChunk(kReadChunkRows, &chunk));
    if (n == 0) break;
    PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
    if (options.ingest_budget != nullptr) {
      PSK_RETURN_IF_ERROR(table_reservation.Reserve(options.ingest_budget,
                                                    table.ApproxBytes()));
    }
  }
  return table;
}

}  // namespace

CsvChunkReader::CsvChunkReader(const Schema& schema, CsvOptions options)
    : schema_(&schema),
      options_(std::move(options)),
      text_codes_(schema.num_attributes()) {}

Result<CsvChunkReader> CsvChunkReader::OpenFile(const std::string& path,
                                                const Schema& schema,
                                                const CsvOptions& options) {
  CsvChunkReader reader(schema, options);
  reader.file_ = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*reader.file_) {
    return Status::IOError("cannot open file for reading: " + path);
  }
  PSK_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Result<CsvChunkReader> CsvChunkReader::OpenString(std::string_view text,
                                                  const Schema& schema,
                                                  const CsvOptions& options) {
  CsvChunkReader reader(schema, options);
  reader.buffer_view_ = text;
  reader.source_exhausted_ = true;
  PSK_RETURN_IF_ERROR(reader.ParseHeader());
  return reader;
}

Result<bool> CsvChunkReader::FillRecord() {
  // File sources view their own buffer_: re-anchor the view each call so
  // a moved reader (Open* returns by value) never reads the moved-from
  // string's storage.
  if (file_ != nullptr) buffer_view_ = buffer_;
  if (file_ == nullptr || source_exhausted_) {
    // String source (or drained file): everything is already in view.
    return pos_ < buffer_view_.size();
  }
  // Scan for an unquoted newline from pos_, refilling until found or EOF.
  // The quote state survives refills so the scan stays linear.
  size_t scan = pos_;
  bool in_quotes = false;
  while (true) {
    for (; scan < buffer_.size(); ++scan) {
      char c = buffer_[scan];
      if (in_quotes) {
        if (c == '"') in_quotes = false;
      } else if (c == '"') {
        in_quotes = true;
      } else if (c == '\n') {
        buffer_view_ = buffer_;
        return true;
      }
    }
    // No complete record yet: compact the consumed prefix, then read
    // another block. Compaction keeps residency bounded by one block
    // plus the longest record.
    if (pos_ > 0) {
      buffer_.erase(0, pos_);
      scan -= pos_;
      pos_ = 0;
    }
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + kReadBlockBytes);
    file_->read(&buffer_[old_size], static_cast<std::streamsize>(
                                        kReadBlockBytes));
    size_t got = static_cast<size_t>(file_->gcount());
    buffer_.resize(old_size + got);
    buffer_view_ = buffer_;
    if (got == 0) {
      source_exhausted_ = true;
      return pos_ < buffer_.size();
    }
  }
}

Status CsvChunkReader::ParseHeader() {
  if (!options_.has_header) {
    for (size_t i = 0; i < schema_->num_attributes(); ++i) {
      file_to_schema_.push_back(i);
    }
    return Status::OK();
  }
  PSK_ASSIGN_OR_RETURN(bool have, FillRecord());
  if (!have) {
    return Status::InvalidArgument("CSV is empty but a header was expected");
  }
  size_t consumed = 0;
  PSK_RETURN_IF_ERROR(ParseRecord(buffer_view_, &pos_, options_.separator,
                                  line_, &consumed, &fields_,
                                  &field_copies_));
  PSK_ASSIGN_OR_RETURN(file_to_schema_, MapHeader(fields_, *schema_));
  line_ += consumed;
  return Status::OK();
}

Status CsvChunkReader::ChargeBuffers(const IngestChunk& chunk) {
  if (options_.ingest_budget == nullptr) return Status::OK();
  return ingest_reservation_.Reserve(
      options_.ingest_budget, buffer_.capacity() + chunk.ApproxBytes());
}

Result<size_t> CsvChunkReader::NextChunk(size_t max_rows, IngestChunk* chunk) {
  // 0 rows would read as end of input on a reader that still has rows.
  if (max_rows == 0) {
    return Status::InvalidArgument(
        "CsvChunkReader::NextChunk: max_rows must be > 0");
  }
  chunk->Reset(*schema_, std::min(max_rows, kReadChunkRows));
  // Codes are chunk-local: each chunk starts its dictionaries afresh.
  for (TextCodes& text_codes : text_codes_) text_codes.clear();
  size_t rows = 0;
  size_t consumed = 0;
  while (rows < max_rows) {
    PSK_ASSIGN_OR_RETURN(bool have, FillRecord());
    if (!have) break;
    char c = buffer_view_[pos_];
    // Skip blank lines (common at end of file).
    if (c == '\n') {
      ++pos_;
      ++line_;
      continue;
    }
    if (c == '\r') {
      ++pos_;
      continue;
    }
    PSK_RETURN_IF_ERROR(ParseRecord(buffer_view_, &pos_, options_.separator,
                                    line_, &consumed, &fields_,
                                    &field_copies_));
    if (fields_.size() != file_to_schema_.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line_) + " has " +
          std::to_string(fields_.size()) + " fields; expected " +
          std::to_string(file_to_schema_.size()));
    }
    for (size_t j = 0; j < fields_.size(); ++j) {
      size_t attr = file_to_schema_[j];
      TextCodes& text_codes = text_codes_[attr];
      std::vector<Value>& entries = chunk->dictionary[attr];
      auto it = text_codes.find(fields_[j]);
      if (it == text_codes.end()) {
        // First sighting of this text in the chunk: parse it once. A text
        // that fails fails here, on the first row holding it.
        auto value = Value::Parse(fields_[j], schema_->attribute(attr).type);
        if (!value.ok()) {
          return Status::InvalidArgument(
              "CSV line " + std::to_string(line_) + ", column '" +
              schema_->attribute(attr).name +
              "': " + value.status().message());
        }
        it = text_codes
                 .emplace(std::string(fields_[j]),
                          static_cast<uint32_t>(entries.size()))
                 .first;
        entries.push_back(std::move(value).value());
      }
      chunk->codes[attr].push_back(it->second);
    }
    line_ += consumed > 0 ? consumed : 1;
    ++rows;
  }
  rows_read_ += rows;
  if (rows == 0) {
    // End of input: no refill follows, so free the chunk and the text
    // maps, and let the reservation fall back to the I/O buffer.
    *chunk = IngestChunk();
    for (TextCodes& text_codes : text_codes_) text_codes = TextCodes();
  }
  PSK_RETURN_IF_ERROR(ChargeBuffers(*chunk));
  return rows;
}

Result<std::vector<CsvRecord>> ReadCsvRecords(std::string_view text,
                                              char separator) {
  std::vector<CsvRecord> records;
  std::vector<std::string_view> fields;
  std::deque<std::string> copies;
  size_t pos = 0;
  size_t line = 1;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    size_t next = eol == std::string_view::npos ? text.size() : eol + 1;
    if (Trim(text.substr(pos, next - pos)).empty()) {
      pos = next;
      ++line;
      continue;
    }
    size_t consumed = 0;
    PSK_RETURN_IF_ERROR(ParseRecord(text, &pos, separator, line, &consumed,
                                    &fields, &copies));
    records.push_back(CsvRecord{
        line, std::vector<std::string>(fields.begin(), fields.end())});
    line += consumed;
  }
  return records;
}

bool NeedsQuoting(const std::string& field, char sep) {
  for (char c : field) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

Result<Table> ReadCsvString(std::string_view text, const Schema& schema,
                            const CsvOptions& options) {
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenString(text, schema, options));
  return DrainReader(std::move(reader), schema, options);
}

Result<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                          const CsvOptions& options) {
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenFile(path, schema, options));
  return DrainReader(std::move(reader), schema, options);
}

std::string WriteCsvString(const Table& table, const CsvOptions& options) {
  std::ostringstream os;
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t col = 0; col < schema.num_attributes(); ++col) {
      if (col > 0) os << options.separator;
      os << schema.attribute(col).name;
    }
    os << '\n';
  }
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t col = 0; col < schema.num_attributes(); ++col) {
      if (col > 0) os << options.separator;
      std::string field = table.Get(row, col).ToString();
      os << (NeedsQuoting(field, options.separator) ? QuoteField(field)
                                                    : field);
    }
    os << '\n';
  }
  return os.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  return AtomicWriteFile(path, WriteCsvString(table, options));
}

}  // namespace psk
