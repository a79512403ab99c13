// Suite for streaming chunked ingest: a table read in chunks — any chunk
// size — must round-trip the generated table's CSV byte for byte, fail on
// the same line with the same message, and every downstream consumer (all
// seven engines through Anonymizer, the guard, SearchStats) must reproduce
// the goldens the eager parser produced on the same text (see
// release_golden.h). ReadCsvString / ReadCsvFile read in fixed 64Ki-row
// chunks; every other chunk size drives CsvChunkReader::NextChunk directly.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/api/spec_parser.h"
#include "psk/common/memory_budget.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
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
     {43, 0, 17, 23, 3, 0, 0, 43, 0, 3, 0}},
    {AnonymizationAlgorithm::kIncognito, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kIncognito, {true, 64, 2, 0, 0, 0},
     {36, 0, 0, 32, 4, 253, 0, 36, 0, 0, 50}},
    {AnonymizationAlgorithm::kBottomUp, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kBottomUp, {true, 64, 2, 0, 0, 0},
     {68, 0, 32, 32, 4, 28, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kExhaustive, 0xd292f2e954c359feULL, {2, 1, 3, 1},
     0, 64, 2, 0.20833333333333337, 117494, 0, 0.0066666666666666671, 50,
     AnonymizationAlgorithm::kExhaustive, {true, 64, 2, 0, 0, 0},
     {96, 0, 56, 32, 8, 0, 0, 96, 0, 0, 0}},
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
     {37, 0, 18, 13, 6, 471, 0, 37, 0, 0, 0}},
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
