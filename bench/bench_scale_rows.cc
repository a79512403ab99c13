// Row-count scaling of the data layer: streaming synthetic ingest →
// encode at 10k/100k/1M rows, plus one end-to-end anonymization at the
// largest scale. Emits BENCH_scale.json for the CI memory gate
// (scripts/check_scale_rows.py): the peak *tracked* bytes during
// ingest+encode must stay within 2x of the footprint retained once both
// finish, plus one in-flight chunk buffer (part of the streaming
// contract) — i.e. streaming ingest must never balloon to text+table or
// row-vector transients the way the legacy eager path did.
//
//   bench_scale_rows [max_rows] [out.json]
//
// Defaults: 1,000,000 rows, ./BENCH_scale.json. Scales above max_rows
// are skipped (CI on small runners can pass 100000).
//
// generate_append_ms times the synthetic generator producing each chunk
// plus Table::AppendChunk taking it; generate_append_rows_per_sec is rows
// over that time. Neither is a CSV ingest rate (perfbench's table.ingest
// times the CSV reader).
//
// Tracked bytes = what the MemoryBudget seams see: the growing table
// (code columns + column dictionaries) re-reserved after every chunk,
// the in-flight chunk buffer, and the EncodedTable once built. Peak RSS
// (getrusage ru_maxrss) is recorded per scale for the humans; it is
// process-cumulative and allocator-dependent, so the gate reads the
// tracked numbers, not RSS.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/common/check.h"
#include "psk/common/json_writer.h"
#include "psk/common/memory_budget.h"
#include "psk/datagen/synthetic.h"
#include "psk/table/encoded.h"
#include "psk/table/table.h"

namespace psk {
namespace {

constexpr size_t kChunkRows = 64 * 1024;

size_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux.
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

SyntheticSpec SpecForRows(size_t rows) {
  // 3 QIs of cardinality 20 + one skewed confidential of cardinality 50:
  // enough distinct values to exercise the dictionaries, small enough that
  // groups stay k-anonymizable at every scale.
  SyntheticSpec spec = MakeUniformSpec(rows, /*num_key=*/3, /*key_card=*/20,
                                       /*num_conf=*/1, /*conf_card=*/50,
                                       /*conf_theta=*/0.5);
  return spec;
}

struct ScaleResult {
  size_t rows = 0;
  double generate_append_ms = 0.0;
  double encode_ms = 0.0;
  double generate_append_rows_per_sec = 0.0;
  size_t table_bytes = 0;       ///< code columns + dictionaries
  size_t dictionary_bytes = 0;  ///< the column dictionaries alone
  size_t encoded_bytes = 0;  ///< EncodedTable codes + level tables
  size_t final_bytes = 0;    ///< retained after ingest+encode
  size_t chunk_buffer_bytes = 0;  ///< largest in-flight chunk charge
  size_t peak_tracked_bytes = 0;  ///< MemoryBudget high water
  size_t peak_rss_bytes = 0;
};

ScaleResult RunScale(size_t rows, uint64_t seed) {
  ScaleResult r;
  r.rows = rows;
  auto budget = std::make_shared<MemoryBudget>();

  auto gen_or = SyntheticChunkGenerator::Create(SpecForRows(rows), seed);
  PSK_CHECK(gen_or.ok());
  SyntheticChunkGenerator gen = std::move(*gen_or);
  auto hierarchies = gen.BuildHierarchies();
  PSK_CHECK(hierarchies.ok());

  Table table(gen.schema());
  table.ReserveRows(rows);
  MemoryReservation table_charge;
  MemoryReservation chunk_charge;
  IngestChunk chunk;
  auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    auto produced = gen.NextChunk(kChunkRows, &chunk);
    PSK_CHECK(produced.ok());
    if (*produced == 0) break;
    // The chunk's own footprint, the same charge the CSV reader makes.
    size_t chunk_bytes = chunk.ApproxBytes();
    PSK_CHECK(chunk_charge.Reserve(budget, chunk_bytes).ok());
    r.chunk_buffer_bytes = std::max(r.chunk_buffer_bytes, chunk_bytes);
    PSK_CHECK(table.AppendChunk(&chunk).ok());
    PSK_CHECK(table_charge.bytes() == 0
                  ? table_charge.Reserve(budget, table.ApproxBytes()).ok()
                  : table_charge.Resize(table.ApproxBytes()).ok());
  }
  chunk_charge.Release();
  auto t1 = std::chrono::steady_clock::now();

  auto encoded = EncodedTable::Build(table, *hierarchies);
  PSK_CHECK(encoded.ok());
  MemoryReservation encode_charge;
  PSK_CHECK(encode_charge.Reserve(budget, encoded->ApproxBytes()).ok());
  auto t2 = std::chrono::steady_clock::now();

  r.generate_append_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.encode_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  r.generate_append_rows_per_sec =
      r.generate_append_ms > 0.0
          ? static_cast<double>(rows) / (r.generate_append_ms / 1000.0)
          : 0.0;
  r.table_bytes = table.ApproxBytes();
  for (size_t col = 0; col < table.num_columns(); ++col) {
    r.dictionary_bytes += table.dictionary(col).ApproxBytes();
  }
  r.encoded_bytes = encoded->ApproxBytes();
  r.final_bytes = r.table_bytes + r.encoded_bytes;
  r.peak_tracked_bytes = budget->high_water();
  r.peak_rss_bytes = PeakRssBytes();
  return r;
}

struct EndToEndResult {
  size_t rows = 0;
  bool ok = false;
  double wall_ms = 0.0;
  size_t released_rows = 0;
  size_t peak_tracked_bytes = 0;
  size_t peak_rss_bytes = 0;
};

/// Streaming ingest → anonymize → release at the largest scale, under a
/// default (unlimited, tracked) memory budget: proves the whole pipeline
/// completes and records what it cost.
EndToEndResult RunEndToEnd(size_t rows, uint64_t seed) {
  EndToEndResult r;
  r.rows = rows;
  auto gen_or = SyntheticChunkGenerator::Create(SpecForRows(rows), seed);
  PSK_CHECK(gen_or.ok());
  SyntheticChunkGenerator gen = std::move(*gen_or);
  auto hierarchies = gen.BuildHierarchies();
  PSK_CHECK(hierarchies.ok());

  RunBudget budget;
  budget.memory = std::make_shared<MemoryBudget>();

  auto t0 = std::chrono::steady_clock::now();
  Anonymizer anonymizer(gen.schema());
  anonymizer.set_budget(budget);
  anonymizer.ReserveRows(rows);
  IngestChunk chunk;
  for (;;) {
    auto produced = gen.NextChunk(kChunkRows, &chunk);
    PSK_CHECK(produced.ok());
    if (*produced == 0) break;
    PSK_CHECK(anonymizer.Ingest(&chunk).ok());
  }
  for (size_t i = 0; i < hierarchies->size(); ++i) {
    anonymizer.AddHierarchy(hierarchies->hierarchy_ptr(i));
  }
  anonymizer.set_k(3).set_p(2).set_max_suppression(rows / 100);
  auto report = anonymizer.Run();
  auto t1 = std::chrono::steady_clock::now();

  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.ok = report.ok();
  if (report.ok()) r.released_rows = report->masked.num_rows();
  r.peak_tracked_bytes = budget.memory->high_water();
  r.peak_rss_bytes = PeakRssBytes();
  return r;
}

int Main(int argc, char** argv) {
  size_t max_rows = argc > 1 ? static_cast<size_t>(std::atoll(argv[1]))
                             : 1000000;
  std::string out_path = argc > 2 ? argv[2] : "BENCH_scale.json";

  std::vector<size_t> scales = {10000, 100000, 1000000};
  std::vector<ScaleResult> results;
  for (size_t rows : scales) {
    if (rows > max_rows) continue;
    ScaleResult r = RunScale(rows, /*seed=*/17);
    std::cout << rows << " rows: generate+append " << r.generate_append_ms
              << " ms (" << static_cast<size_t>(r.generate_append_rows_per_sec)
              << " rows/s), encode "
              << r.encode_ms << " ms, table " << r.table_bytes / 1024
              << " KiB (dictionaries " << r.dictionary_bytes / 1024 << " KiB), encoded "
              << r.encoded_bytes / 1024 << " KiB, peak tracked "
              << r.peak_tracked_bytes / 1024 << " KiB, peak RSS "
              << r.peak_rss_bytes / 1024 << " KiB\n";
    results.push_back(r);
  }
  PSK_CHECK(!results.empty());

  EndToEndResult e2e = RunEndToEnd(results.back().rows, /*seed=*/17);
  std::cout << "end-to-end " << e2e.rows << " rows: "
            << (e2e.ok ? "ok" : "FAILED") << " in " << e2e.wall_ms
            << " ms, released " << e2e.released_rows << " rows, peak tracked "
            << e2e.peak_tracked_bytes / 1024 << " KiB\n";

  JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("scale_rows");
  json.Key("workload").String("synthetic_3qi");
  json.Key("chunk_rows").Uint(kChunkRows);
  json.Key("results").BeginArray();
  for (const ScaleResult& r : results) {
    json.BeginObject();
    json.Key("rows").Uint(r.rows);
    json.Key("generate_append_ms").Double(r.generate_append_ms);
    json.Key("encode_ms").Double(r.encode_ms);
    json.Key("generate_append_rows_per_sec")
        .Double(r.generate_append_rows_per_sec);
    json.Key("table_bytes").Uint(r.table_bytes);
    json.Key("dictionary_bytes").Uint(r.dictionary_bytes);
    json.Key("encoded_bytes").Uint(r.encoded_bytes);
    json.Key("final_bytes").Uint(r.final_bytes);
    json.Key("chunk_buffer_bytes").Uint(r.chunk_buffer_bytes);
    json.Key("peak_tracked_bytes").Uint(r.peak_tracked_bytes);
    json.Key("peak_rss_bytes").Uint(r.peak_rss_bytes);
    json.EndObject();
  }
  json.EndArray();
  json.Key("end_to_end").BeginObject();
  json.Key("rows").Uint(e2e.rows);
  json.Key("ok").Bool(e2e.ok);
  json.Key("wall_ms").Double(e2e.wall_ms);
  json.Key("released_rows").Uint(e2e.released_rows);
  json.Key("peak_tracked_bytes").Uint(e2e.peak_tracked_bytes);
  json.Key("peak_rss_bytes").Uint(e2e.peak_rss_bytes);
  json.EndObject();
  json.EndObject();

  std::ofstream out(out_path);
  out << json.TakeString() << "\n";
  PSK_CHECK(out.good());
  std::cout << "wrote " << out_path << "\n";
  return e2e.ok ? 0 : 1;
}

}  // namespace
}  // namespace psk

int main(int argc, char** argv) { return psk::Main(argc, argv); }
