#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// The anonymization pipeline as the benchmark drives it: one workload's
// input, the reference release every op is checked against, the timed op
// (CSV text -> Anonymizer::Ingest loop -> Run -> WriteCsvString), and the
// traced ledger pass that calls each layer's public function in the order
// Anonymizer::RunImpl calls them.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "psk/algorithms/search_common.h"
#include "psk/api/anonymizer.h"
#include "psk/common/result.h"
#include "psk/datagen/synthetic.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/table.h"

namespace perfbench {

/// Privacy requirements and execution knobs of one workload (Samarati).
struct Requirements {
  size_t k = 3;
  size_t p = 2;
  size_t max_suppression = 0;
  size_t threads = 1;
};

/// A workload's input, made during set-up.
struct Input {
  psk::Schema schema;
  /// The generated rows; the reference run reads them directly.
  psk::Table table;
  /// The same rows rendered as CSV; every op parses this text.
  std::string csv;
  psk::HierarchySet hierarchies;
};

/// Adds the input's hierarchies to `anonymizer` and sets its k, p,
/// suppression threshold and threads from `req`.
psk::Anonymizer& Configure(psk::Anonymizer& anonymizer, const Input& input,
                           const Requirements& req);

/// Generates `spec`'s rows from `seed` with SyntheticChunkGenerator,
/// renders them as CSV and builds the generator's hierarchies.
psk::Result<Input> MakeSyntheticInput(const psk::SyntheticSpec& spec,
                                      uint64_t seed);

/// "input <name> seed=<n> rows=<n> csv_bytes=<n> csv_fnv1a=<hex>".
std::string InputLine(const std::string& name, uint64_t seed,
                      const Input& input);

/// What every op must reproduce.
struct Reference {
  psk::LatticeNode node;
  /// psk::TableDigest of the release: FNV-1a of its exported CSV.
  uint64_t release_hash = 0;
  psk::SearchStats stats;
};

/// Computes the reference with one direct Anonymizer::Run over the
/// generated table (not the CSV), so a broken ingest path cannot agree
/// with itself.
psk::Result<Reference> MakeReference(const Input& input,
                                     const Requirements& req);

/// A produced release, as the output check sees it.
struct Release {
  std::optional<psk::LatticeNode> node;
  std::string csv;
  psk::SearchStats stats;
  bool guard_passed = false;
};

/// Empty when the release matches the reference (node, release bytes,
/// SearchStats) and passed the guard; otherwise why it does not.
std::string CheckRelease(const Reference& ref, const Release& release);

/// One timed op: the release plus what the op cost.
struct OpResult {
  double ms = 0;
  Release release;
  /// MemoryBudget high-water of the op (ingest buffers, input table,
  /// encoding, group-by buffers and verdict cache).
  uint64_t peak_tracked_bytes = 0;
};

/// CSV text -> CsvChunkReader -> Anonymizer::Ingest loop -> Run() ->
/// WriteCsvString(report.masked), with tracing off. Only this chain is
/// timed; the caller checks the release afterwards.
psk::Result<OpResult> RunOp(const Input& input, const Requirements& req);

/// The traced pass: times each layer's public call from outside, in the
/// order Anonymizer::RunImpl calls them, on `ledger`:
///   table.ingest        CsvChunkReader::OpenString/NextChunk +
///                       Table::AppendChunk
///   hierarchy.preflight HierarchySet::Create + ValidateHierarchyOverColumn
///   table.encode        EncodedTable::Build
///   algorithms.search   SamaratiSearch (builds its own encoding and
///                       materializes its winning node)
///   generalize.decode   Mask(im, hs, node, k)
///   guard.verify        VerifyRelease with Run()'s default policy
///   metrics.scorecard   AnonymityK, SensitivityP,
///                       CountAttributeDisclosures, MarketerRisk,
///                       DiscernibilityMetric, NormalizedAvgGroupSize
///   table.export        WriteCsvString(release)
/// and records the sizes and search counts as ledger counts.
psk::Result<Release> RunLedgerPass(const Input& input,
                                   const Requirements& req, Ledger* ledger);

/// The jobs and service layers' figures; all zero for workloads that
/// bypass those layers.
struct ServiceLayers {
  double commit_ms = 0;
  size_t commit_samples = 0;
  double queue_wait_p50_ms = 0;
  double queue_wait_p90_ms = 0;
  double run_p50_ms = 0;
  size_t jobs = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  uint64_t degraded = 0;
};

/// The per-layer metric set every workload reports with tracing on.
/// `op_p50_ms` is the median op latency measured in the same traced run;
/// ledger.coverage divides the summed layer medians by it. When the
/// service layers ran, the sum replaces table.export by the median queue
/// wait: a scheduled in-memory job neither exports nor commits its
/// release, so jobs.commit is reported but not summed.
std::vector<Metric> LayerMetrics(const Ledger& ledger, double op_p50_ms,
                                 size_t op_samples,
                                 const ServiceLayers& service);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
