// Suite for streaming chunked ingest: a table read in chunks — any chunk
// size — must round-trip the generated table's CSV byte for byte, fail on
// the same line with the same message, and every downstream consumer (all
// seven engines through Anonymizer, the guard, SearchStats) must reproduce
// the goldens the eager parser produced on the same text (see
// release_golden.h). ReadCsvString / ReadCsvFile read in fixed 64Ki-row
// chunks; every other chunk size drives CsvChunkReader::NextChunk directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/api/spec_parser.h"
#include "psk/common/memory_budget.h"
#include "psk/common/random.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/jobs/job.h"
#include "psk/table/csv.h"
#include "psk/table/table.h"
#include "release_golden.h"
#include "test_util.h"

namespace psk {
namespace {

struct Fixture {
  Table table;
  HierarchySet hierarchies;
  std::string csv;

  explicit Fixture(size_t n = 600, uint64_t seed = 11)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))),
        csv(WriteCsvString(table)) {}
};

// The chunk sizes driven through CsvChunkReader::NextChunk directly:
// degenerate (1), prime and unaligned (7), a power of two (1024), and one
// chunk covering the whole table. ReadCsvString / ReadCsvFile cover the
// fixed 64Ki-row size.
const size_t kChunkSizes[] = {1, 7, 1024, size_t{1} << 30};

// Drains `reader` into a fresh table, `chunk_rows` rows per NextChunk.
Result<Table> DrainInChunks(CsvChunkReader reader, const Schema& schema,
                            size_t chunk_rows) {
  Table table(schema);
  IngestChunk chunk;
  for (;;) {
    PSK_ASSIGN_OR_RETURN(size_t rows, reader.NextChunk(chunk_rows, &chunk));
    if (rows == 0) return table;
    PSK_RETURN_IF_ERROR(table.AppendChunk(&chunk));
  }
}

Result<Table> ReadStringInChunks(std::string_view text, const Schema& schema,
                                 size_t chunk_rows) {
  PSK_ASSIGN_OR_RETURN(CsvChunkReader reader,
                       CsvChunkReader::OpenString(text, schema));
  return DrainInChunks(std::move(reader), schema, chunk_rows);
}

// The eager parser's verdict on the corrupted text of
// ErrorLinesMatchTheEagerOracle.
constexpr const char* kShortRowError = "CSV line 3 has 5 fields; expected 8";

// Anonymizer over Fixture() (Adult 600 rows, seed 11) read back from CSV,
// k=3 p=2 TS=8, one per engine.
const ReportGolden kChunkedRuns[] = {
    {AnonymizationAlgorithm::kSamarati, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kSamarati, {true, 64, 2, 0, 0, 0},
     {43, 0, 17, 23, 3, 0, 0, 0, 0, 3, 0}},
    {AnonymizationAlgorithm::kIncognito, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kIncognito, {true, 64, 2, 0, 0, 0},
     {36, 0, 0, 32, 4, 253, 0, 0, 0, 0, 50}},
    {AnonymizationAlgorithm::kBottomUp, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kBottomUp, {true, 64, 2, 0, 0, 0},
     {68, 0, 32, 32, 4, 28, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kExhaustive, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kExhaustive, {true, 64, 2, 0, 0, 0},
     {96, 0, 56, 32, 8, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kMondrian, 0xccf2d39853a80f7cULL, {}, 0, 13, 2,
     1, 20836, 0, 0.033333333333333333, 10,
     AnonymizationAlgorithm::kMondrian, {true, 13, 2, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kGreedyCluster, 0x8c79429dd9955e0cULL, {}, 0, 4,
     2, 1, 45370, 0, 0.044999999999999998, 7.4074074074074074,
     AnonymizationAlgorithm::kGreedyCluster, {true, 4, 2, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kOla, 0x7be5015221cf728aULL, {3, 1, 3, 0}, 0, 82,
     2, 0.375, 100854, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kOla, {true, 82, 2, 0, 0, 0},
     {37, 0, 18, 13, 6, 471, 0, 0, 0, 0, 0}},
};

// ---------------------------------------------------------------------------
// Table-level byte identity: every chunk size round-trips the generated
// table's CSV.

TEST(ChunkedIngestTest, ChunkedCsvMatchesEagerOracleByteForByte) {
  Fixture fixture;
  Table whole =
      UnwrapOk(ReadCsvString(fixture.csv, fixture.table.schema()));
  EXPECT_EQ(WriteCsvString(whole), fixture.csv);
  EXPECT_EQ(whole.num_rows(), fixture.table.num_rows());
  for (size_t chunk_rows : kChunkSizes) {
    Table got = UnwrapOk(
        ReadStringInChunks(fixture.csv, fixture.table.schema(), chunk_rows));
    EXPECT_EQ(WriteCsvString(got), fixture.csv)
        << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(got.num_rows(), fixture.table.num_rows());
  }
}

TEST(ChunkedIngestTest, FileAndStringSourcesAgree) {
  Fixture fixture(200, 3);
  std::string path = testing::TempDir() + "/chunked_ingest_src.csv";
  ASSERT_TRUE(WriteCsvFile(fixture.table, path).ok());
  Table whole = UnwrapOk(ReadCsvFile(path, fixture.table.schema()));
  EXPECT_EQ(WriteCsvString(whole), fixture.csv);
  for (size_t chunk_rows : kChunkSizes) {
    CsvChunkReader reader =
        UnwrapOk(CsvChunkReader::OpenFile(path, fixture.table.schema()));
    Table from_file = UnwrapOk(DrainInChunks(
        std::move(reader), fixture.table.schema(), chunk_rows));
    EXPECT_EQ(WriteCsvString(from_file), fixture.csv)
        << "chunk_rows=" << chunk_rows;
  }
  std::remove(path.c_str());
}

TEST(ChunkedIngestTest, ErrorLinesMatchTheEagerOracle) {
  Fixture fixture(20, 4);
  // Corrupt one record: every chunk size must fail on its line.
  std::string bad = fixture.csv;
  size_t cut = bad.find('\n', bad.find('\n') + 1);  // after first data row
  ASSERT_NE(cut, std::string::npos);
  bad.insert(cut + 1, "this,row,is,hopelessly,short\n");
  Result<Table> whole = ReadCsvString(bad, fixture.table.schema());
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(whole.status().message(), kShortRowError);
  for (size_t chunk_rows : kChunkSizes) {
    Result<Table> got =
        ReadStringInChunks(bad, fixture.table.schema(), chunk_rows);
    ASSERT_FALSE(got.ok()) << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), kShortRowError)
        << "chunk_rows=" << chunk_rows;
  }
}

TEST(ChunkedIngestTest, NextChunkZeroIsRejectedAndLosesNoRows) {
  Fixture fixture(25, 5);
  CsvChunkReader reader = UnwrapOk(
      CsvChunkReader::OpenString(fixture.csv, fixture.table.schema()));
  IngestChunk chunk;
  Result<size_t> zero = reader.NextChunk(0, &chunk);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reader.rows_read(), 0u);
  Table table = UnwrapOk(
      DrainInChunks(std::move(reader), fixture.table.schema(), 10));
  EXPECT_EQ(table.num_rows(), fixture.table.num_rows());
  EXPECT_EQ(WriteCsvString(table), fixture.csv);
}

// ---------------------------------------------------------------------------
// Full-pipeline matrix: 7 engines x chunk sizes, comparing release bytes,
// SearchStats, scorecard and the guard's verdict against the goldens.

TEST(ChunkedIngestTest, AllEnginesMatchEagerAcrossChunkSizes) {
  Fixture fixture;
  auto run = [&](const Table& input, AnonymizationAlgorithm algorithm) {
    Anonymizer anonymizer(input);
    for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
    }
    anonymizer.set_k(3).set_p(2).set_max_suppression(8).set_algorithm(
        algorithm);
    return UnwrapOk(anonymizer.Run());
  };

  std::vector<std::pair<std::string, Table>> inputs;
  inputs.emplace_back("64Ki", UnwrapOk(ReadCsvString(
                                  fixture.csv, fixture.table.schema())));
  for (size_t chunk_rows : kChunkSizes) {
    inputs.emplace_back(std::to_string(chunk_rows),
                        UnwrapOk(ReadStringInChunks(
                            fixture.csv, fixture.table.schema(), chunk_rows)));
  }
  for (const ReportGolden& want : kChunkedRuns) {
    for (const auto& [chunk_rows, input] : inputs) {
      ExpectReportMatches(run(input, want.algorithm), want,
                          "algorithm=" +
                              std::string(AlgorithmName(want.algorithm)) +
                              " chunk_rows=" + chunk_rows);
    }
  }
}

// ---------------------------------------------------------------------------
// Anonymizer::Ingest seam: chunk-fed construction equals table-fed.

TEST(ChunkedIngestTest, AnonymizerIngestMatchesEagerConstruction) {
  Fixture fixture(400, 8);
  Anonymizer eager(fixture.table);
  for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
    eager.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
  }
  eager.set_k(3).set_p(2).set_max_suppression(8);
  AnonymizationReport want = UnwrapOk(eager.Run());

  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
    Anonymizer streaming(fixture.table.schema());
    RunBudget budget;
    budget.memory = std::make_shared<MemoryBudget>();
    streaming.set_budget(budget);
    streaming.ReserveRows(fixture.table.num_rows());
    CsvChunkReader reader = UnwrapOk(CsvChunkReader::OpenString(
        fixture.csv, fixture.table.schema()));
    IngestChunk chunk;
    for (;;) {
      size_t rows = UnwrapOk(reader.NextChunk(chunk_rows, &chunk));
      if (rows == 0) break;
      ASSERT_TRUE(streaming.Ingest(&chunk).ok());
    }
    EXPECT_EQ(streaming.num_ingested_rows(), fixture.table.num_rows());
    // Ingest kept the input footprint charged for the scheduler to see.
    EXPECT_GT(budget.memory->bytes_used(), 0u);
    for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
      streaming.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
    }
    streaming.set_k(3).set_p(2).set_max_suppression(8);
    AnonymizationReport got = UnwrapOk(streaming.Run());
    EXPECT_EQ(WriteCsvString(got.masked), WriteCsvString(want.masked))
        << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(got.guard.passed, want.guard.passed);
  }
}

TEST(ChunkedIngestTest, IngestFailsWhenInputExceedsHardQuota) {
  Fixture fixture(400, 9);
  Anonymizer streaming(fixture.table.schema());
  RunBudget budget;
  budget.memory = std::make_shared<MemoryBudget>();
  budget.memory->set_hard_limit(1024);  // far below the input's footprint
  streaming.set_budget(budget);
  CsvChunkReader reader = UnwrapOk(
      CsvChunkReader::OpenString(fixture.csv, fixture.table.schema()));
  IngestChunk chunk;
  Status failed = Status::OK();
  for (;;) {
    size_t rows = UnwrapOk(reader.NextChunk(64, &chunk));
    if (rows == 0) break;
    failed = streaming.Ingest(&chunk);
    if (!failed.ok()) break;
  }
  EXPECT_EQ(failed.code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// AppendChunk: dictionary chunks intern like per-cell appends, and a
// malformed chunk is refused whole, in every build.

// Rows [begin, end) of `table`, one dictionary entry per cell.
IngestChunk PerCellChunk(const Table& table, size_t begin, size_t end) {
  IngestChunk chunk;
  chunk.Reset(table.schema(), end - begin);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    for (size_t r = begin; r < end; ++r) chunk.Append(c, table.Get(r, c));
  }
  return chunk;
}

TEST(ChunkedIngestTest, DictionaryChunksAssignThePerCellIds) {
  Fixture fixture(300, 13);
  for (size_t chunk_rows : kChunkSizes) {
    Table from_csv = UnwrapOk(
        ReadStringInChunks(fixture.csv, fixture.table.schema(), chunk_rows));
    Table per_cell(fixture.table.schema());
    for (size_t begin = 0; begin < fixture.table.num_rows();) {
      size_t end = std::min(fixture.table.num_rows(), begin + chunk_rows);
      IngestChunk chunk = PerCellChunk(fixture.table, begin, end);
      PSK_ASSERT_OK(per_cell.AppendChunk(&chunk));
      begin = end;
    }
    ASSERT_EQ(from_csv.store()->size(), per_cell.store()->size());
    for (size_t c = 0; c < from_csv.num_columns(); ++c) {
      EXPECT_EQ(from_csv.column_ids(c), per_cell.column_ids(c))
          << "column " << c << " chunk_rows=" << chunk_rows;
    }
  }
}

TEST(ChunkedIngestTest, AppendChunkRefusesMalformedChunksWhole) {
  Fixture fixture(40, 12);
  Table table = fixture.table;
  const size_t rows_before = table.num_rows();
  const size_t store_before = table.store()->size();
  std::vector<std::vector<ValueId>> ids_before;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ids_before.push_back(table.column_ids(c));
  }
  // Column 1 (MaritalStatus) is a string column; column 0 (Age) int64.
  struct Hostile {
    const char* what;
    const char* column;
    void (*corrupt)(IngestChunk*);
  };
  const Hostile hostile[] = {
      {"wrong-typed entry", "MaritalStatus",
       [](IngestChunk* chunk) { chunk->dictionary[1][2] = Value(int64_t{7}); }},
      {"code past the dictionary", "Age",
       [](IngestChunk* chunk) {
         chunk->codes[0][3] =
             static_cast<uint32_t>(chunk->dictionary[0].size());
       }},
      {"ragged codes", "Sex",
       [](IngestChunk* chunk) { chunk->codes[3].pop_back(); }},
  };
  for (const Hostile& h : hostile) {
    Table source = UnwrapOk(AdultGenerate(5, 99));
    IngestChunk chunk = PerCellChunk(source, 0, 5);
    h.corrupt(&chunk);
    Status status = table.AppendChunk(&chunk);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << h.what;
    EXPECT_NE(status.message().find("'" + std::string(h.column) + "'"),
              std::string::npos)
        << h.what << ": " << status.message();
    EXPECT_EQ(table.num_rows(), rows_before) << h.what;
    EXPECT_EQ(table.store()->size(), store_before) << h.what;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(table.column_ids(c), ids_before[c])
          << h.what << " column " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming synthetic generator: chunk sizing never changes the data.

TEST(ChunkedIngestTest, SyntheticChunkGeneratorMatchesEagerGenerate) {
  SyntheticSpec spec = MakeUniformSpec(500, 3, 8, 1, 12, 0.5);
  SyntheticData want = UnwrapOk(SyntheticGenerate(spec, 42));
  std::string want_csv = WriteCsvString(want.table);
  for (size_t chunk_rows : kChunkSizes) {
    SyntheticChunkGenerator gen =
        UnwrapOk(SyntheticChunkGenerator::Create(spec, 42));
    Table table(gen.schema());
    IngestChunk chunk;
    for (;;) {
      size_t rows = UnwrapOk(gen.NextChunk(chunk_rows, &chunk));
      if (rows == 0) break;
      ASSERT_TRUE(table.AppendChunk(&chunk).ok());
    }
    EXPECT_EQ(gen.rows_generated(), spec.num_rows);
    EXPECT_EQ(WriteCsvString(table), want_csv)
        << "chunk_rows=" << chunk_rows;
  }
}

// ---------------------------------------------------------------------------
// Differential check of the reader against a naive reference parser.
// Seeded generated texts mix quoted separators, doubled quotes, CRLF and
// bare CR, newlines inside quotes, blank lines, and texts that parse to
// one Value ("5"/"05"/"+5", "0.0"/"-0.0"); some carry a ragged row, an
// unparseable number or an unterminated quote. Every chunk size, from a
// string or a file, must yield the reference's table or its exact error.

Schema MixedSchema() {
  return UnwrapOk(Schema::Create(
      {{"N", ValueType::kInt64, AttributeRole::kKey},
       {"X", ValueType::kDouble, AttributeRole::kOther},
       {"S", ValueType::kString, AttributeRole::kKey},
       {"T", ValueType::kString, AttributeRole::kConfidential}}));
}

// The reference: the whole text in one pass, one std::string per field
// and one AppendRow per record — no chunks, views, dictionaries or
// refills. The header is trusted (the generator writes valid ones).
Result<Table> ReferenceReadCsv(std::string_view text, const Schema& schema) {
  size_t pos = 0;
  size_t line = 1;
  std::vector<std::string> fields;
  size_t newlines = 0;
  // Reads the record at `pos`, counting the line breaks it consumes.
  auto read_record = [&]() -> Status {
    fields.assign(1, std::string());
    newlines = 0;
    bool quoted = false;
    while (pos < text.size()) {
      char c = text[pos++];
      if (quoted) {
        if (c != '"') {
          if (c == '\n') ++newlines;
          fields.back() += c;
        } else if (pos < text.size() && text[pos] == '"') {
          fields.back() += '"';
          ++pos;
        } else {
          quoted = false;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        fields.emplace_back();
      } else if (c == '\n') {
        ++newlines;
        return Status::OK();
      } else if (c != '\r') {
        fields.back() += c;
      }
    }
    if (quoted) {
      return Status::InvalidArgument(
          "unterminated quoted field in CSV record starting at line " +
          std::to_string(line));
    }
    return Status::OK();
  };
  PSK_RETURN_IF_ERROR(read_record());
  line += newlines;
  std::vector<size_t> attr_of;
  for (const std::string& name : fields) {
    PSK_ASSIGN_OR_RETURN(size_t attr, schema.IndexOf(name));
    attr_of.push_back(attr);
  }
  Table table(schema);
  while (pos < text.size()) {
    if (text[pos] == '\n') {  // blank line
      ++pos;
      ++line;
      continue;
    }
    if (text[pos] == '\r') {
      ++pos;
      continue;
    }
    PSK_RETURN_IF_ERROR(read_record());
    if (fields.size() != attr_of.size()) {
      return Status::InvalidArgument(
          "CSV line " + std::to_string(line) + " has " +
          std::to_string(fields.size()) + " fields; expected " +
          std::to_string(attr_of.size()));
    }
    std::vector<Value> row(attr_of.size());
    for (size_t j = 0; j < fields.size(); ++j) {
      const Attribute& attr = schema.attribute(attr_of[j]);
      Result<Value> value = Value::Parse(fields[j], attr.type);
      if (!value.ok()) {
        return Status::InvalidArgument(
            "CSV line " + std::to_string(line) + ", column '" + attr.name +
            "': " + value.status().message());
      }
      row[attr_of[j]] = std::move(value).value();
    }
    PSK_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
    line += newlines > 0 ? newlines : 1;
  }
  return table;
}

enum class CsvFault { kNone, kRagged, kBadInt, kBadDouble, kUnterminated };

// Raw field bytes per MixedSchema column, as they appear in the file.
const std::vector<std::string> kFieldPools[] = {
    {"5", "05", "+5", "\"5\"", " 5", "-3", "0", "12", "", "\"\"", "1\r2"},
    {"0.0", "-0.0", "\"-0.0\"", "1.5", "1.50", "2", "1e3", "", "0\r.5"},
    {"a", "b b", "\"x,y\"", "\"say \"\"hi\"\"\"", "\"two\nlines\"",
     "\"crlf\r\ninside\"", "mid\rcr", "ab\"c,d\"e", "", "\"\"", " pad ",
     "\"\"\"\"", "\"cr\rquoted\""},
    {"p", "q", "\"r,\"", "\"\n\"", "", "t t", "p\r"},
};
const std::vector<std::string> kBadInts = {"5x", "abc", "1.5",
                                           "99999999999999999999"};
const std::vector<std::string> kBadDoubles = {"1.5.5", "nan", "x1", "inf"};

constexpr size_t kFileBlock = 256 * 1024;

// A quoted field of about `bytes` bytes mixing CRLFs, bare newlines and
// doubled quotes.
std::string QuotedRun(size_t bytes) {
  std::string field = "\"";
  while (field.size() < bytes) {
    field += "straddles a block\n" + std::string(60, 'x') +
             "\r\n\"\"quoted\"\", here\n";
  }
  return field + "\"";
}

// A seeded CSV text over MixedSchema: the header in a seeded column
// order, then `rows` records. `fault` corrupts record `fault_row` (an
// unterminated quote always goes last). The first record starting within
// 150 bytes of each 256 KiB file block boundary carries `straddle` as
// its S field, so that field straddles the reader's refill.
std::string GenerateCsv(uint64_t seed, size_t rows, CsvFault fault,
                        size_t fault_row,
                        const std::string& straddle = QuotedRun(200)) {
  Rng rng(seed);
  auto pick = [&](const std::vector<std::string>& pool) -> const std::string& {
    return pool[rng.Uniform(pool.size())];
  };
  std::vector<size_t> order = {0, 1, 2, 3};
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  const char* names[] = {"N", "X", "S", "T"};
  std::string text;
  for (size_t j = 0; j < order.size(); ++j) {
    text += (j > 0 ? "," : "") + std::string(names[order[j]]);
  }
  text += rng.Bernoulli(0.3) ? "\r\n" : "\n";
  size_t next_block = kFileBlock;
  if (fault == CsvFault::kUnterminated) fault_row = rows - 1;
  for (size_t row = 0; row < rows; ++row) {
    if (rng.Bernoulli(0.04)) text += rng.Bernoulli(0.5) ? "\n" : "\r\n";
    if (rng.Bernoulli(0.02)) text += "\r";
    bool planted = text.size() + 150 > next_block;
    std::vector<std::string> fields(order.size());
    for (size_t j = 0; j < order.size(); ++j) {
      size_t col = order[j];
      fields[j] = planted && col == 2 ? straddle : pick(kFieldPools[col]);
    }
    if (row == fault_row) {
      switch (fault) {
        case CsvFault::kNone:
          break;
        case CsvFault::kRagged:
          if (rng.Bernoulli(0.5)) {
            fields.pop_back();
          } else {
            fields.push_back("extra");
          }
          break;
        case CsvFault::kBadInt:
          for (size_t j = 0; j < order.size(); ++j) {
            if (order[j] == 0) fields[j] = pick(kBadInts);
          }
          break;
        case CsvFault::kBadDouble:
          for (size_t j = 0; j < order.size(); ++j) {
            if (order[j] == 1) fields[j] = pick(kBadDoubles);
          }
          break;
        case CsvFault::kUnterminated:
          fields.back() = "\"open";
          break;
      }
    }
    for (size_t j = 0; j < fields.size(); ++j) {
      text += (j > 0 ? "," : "") + fields[j];
    }
    if (row + 1 < rows || rng.Bernoulli(0.5)) {
      text += rng.Bernoulli(0.25) ? "\r\n" : "\n";
    }
    if (planted) next_block = (text.size() / kFileBlock + 1) * kFileBlock;
  }
  return text;
}

void ExpectSameOutcome(const Result<Table>& got, const Result<Table>& want,
                       const std::string& label) {
  ASSERT_EQ(got.ok(), want.ok())
      << label << ": " << (got.ok() ? want : got).status().ToString();
  if (want.ok()) {
    EXPECT_EQ(got->num_rows(), want->num_rows()) << label;
    EXPECT_EQ(TableDigest(*got), TableDigest(*want)) << label;
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
  }
}

// Reads `text` at every chunk size through OpenString and ReadCsvString,
// and through OpenFile and ReadCsvFile when `path` holds it too.
void ExpectReaderMatchesReference(const std::string& text,
                                  const std::string& path,
                                  const std::string& label) {
  Schema schema = MixedSchema();
  Result<Table> want = ReferenceReadCsv(text, schema);
  ExpectSameOutcome(ReadCsvString(text, schema), want, label + " 64Ki");
  if (!path.empty()) {
    ExpectSameOutcome(ReadCsvFile(path, schema), want, label + " file 64Ki");
  }
  for (size_t chunk_rows : kChunkSizes) {
    std::string at = " chunk_rows=" + std::to_string(chunk_rows);
    ExpectSameOutcome(ReadStringInChunks(text, schema, chunk_rows), want,
                      label + at);
    if (!path.empty()) {
      CsvChunkReader reader = UnwrapOk(CsvChunkReader::OpenFile(path, schema));
      ExpectSameOutcome(DrainInChunks(std::move(reader), schema, chunk_rows),
                        want, label + " file" + at);
    }
  }
}

TEST(ChunkedIngestTest, ReaderMatchesReferenceParserOnGeneratedText) {
  const CsvFault faults[] = {CsvFault::kNone, CsvFault::kNone,
                             CsvFault::kRagged, CsvFault::kBadInt,
                             CsvFault::kBadDouble, CsvFault::kUnterminated};
  size_t clean = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    CsvFault fault = faults[seed % std::size(faults)];
    size_t rows = 1 + seed % 37;
    std::string text = GenerateCsv(seed, rows, fault, seed % rows);
    if (ReferenceReadCsv(text, MixedSchema()).ok()) ++clean;
    ExpectReaderMatchesReference(text, "", "seed=" + std::to_string(seed));
  }
  // Both outcomes are exercised, not just one.
  EXPECT_GT(clean, 20u);
  EXPECT_LT(clean, 100u);
}

TEST(ChunkedIngestTest, FileReaderMatchesReferenceAcrossBlockRefills) {
  std::string path = testing::TempDir() + "/chunked_ingest_refill.csv";
  // The last case plants one record longer than a whole block.
  const struct {
    const char* name;
    CsvFault fault;
    std::string straddle;
  } cases[] = {{"clean", CsvFault::kNone, QuotedRun(200)},
               {"bad double", CsvFault::kBadDouble, QuotedRun(200)},
               {"record over a block", CsvFault::kNone,
                QuotedRun(kFileBlock + kFileBlock / 8)}};
  for (const auto& [name, fault, straddle] : cases) {
    const size_t rows = 22000;
    std::string text = GenerateCsv(2024, rows, fault, rows - 3, straddle);
    ASSERT_GT(text.size(), kFileBlock + kFileBlock / 4);
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    ExpectReaderMatchesReference(text, path, name);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CSV ingest budget: metered reads fail cleanly over quota.

TEST(ChunkedIngestTest, CsvIngestBudgetRefusesOverQuotaReads) {
  Fixture fixture(400, 10);
  CsvOptions options;
  options.ingest_budget = std::make_shared<MemoryBudget>();
  options.ingest_budget->set_hard_limit(512);
  Result<Table> got =
      ReadCsvString(fixture.csv, fixture.table.schema(), options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  // An ample budget reads fine and releases what it charged.
  options.ingest_budget = std::make_shared<MemoryBudget>();
  options.ingest_budget->set_hard_limit(64 * 1024 * 1024);
  Table table = UnwrapOk(
      ReadCsvString(fixture.csv, fixture.table.schema(), options));
  EXPECT_EQ(WriteCsvString(table), fixture.csv);
  EXPECT_GT(options.ingest_budget->high_water(), 0u);
}

}  // namespace
}  // namespace psk
