#include "pipeline.h"

#include <algorithm>
#include <memory>

#include "psk/algorithms/samarati.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/anonymizer.h"
#include "psk/common/memory_budget.h"
#include "psk/generalize/generalize.h"
#include "psk/guard/guard.h"
#include "psk/jobs/checkpoint_io.h"
#include "psk/jobs/job.h"
#include "psk/metrics/metrics.h"
#include "psk/metrics/risk.h"
#include "psk/table/csv.h"
#include "psk/table/encoded.h"

namespace perfbench {
namespace {

constexpr size_t kChunkRows = 64 * 1024;

double Kib(size_t bytes) { return static_cast<double>(bytes) / 1024.0; }

}  // namespace

psk::Anonymizer& Configure(psk::Anonymizer& anonymizer, const Input& input,
                           const Requirements& req) {
  for (size_t i = 0; i < input.hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(input.hierarchies.hierarchy_ptr(i));
  }
  return anonymizer.set_k(req.k)
      .set_p(req.p)
      .set_max_suppression(req.max_suppression)
      .set_threads(req.threads);
}

psk::Result<Input> MakeSyntheticInput(const psk::SyntheticSpec& spec,
                                      uint64_t seed) {
  PSK_ASSIGN_OR_RETURN(psk::SyntheticChunkGenerator generator,
                       psk::SyntheticChunkGenerator::Create(spec, seed));
  Input input;
  input.schema = generator.schema();
  input.table = psk::Table(input.schema);
  input.table.ReserveRows(spec.num_rows);
  psk::IngestChunk chunk;
  for (;;) {
    PSK_ASSIGN_OR_RETURN(size_t rows, generator.NextChunk(kChunkRows, &chunk));
    if (rows == 0) break;
    PSK_RETURN_IF_ERROR(input.table.AppendChunk(&chunk));
  }
  input.csv = psk::WriteCsvString(input.table);
  PSK_ASSIGN_OR_RETURN(input.hierarchies, generator.BuildHierarchies());
  return input;
}

std::string InputLine(const std::string& name, uint64_t seed,
                      const Input& input) {
  return "input " + name + " seed=" + std::to_string(seed) +
         " rows=" + std::to_string(input.table.num_rows()) +
         " csv_bytes=" + std::to_string(input.csv.size()) +
         " csv_fnv1a=" + psk::HashToHex(psk::Fnv1aHash(input.csv));
}

psk::Result<Reference> MakeReference(const Input& input,
                                     const Requirements& req) {
  psk::Anonymizer anonymizer(input.table);
  Configure(anonymizer, input, req);
  PSK_ASSIGN_OR_RETURN(psk::AnonymizationReport report, anonymizer.Run());
  if (!report.node.has_value() || !report.guard.passed) {
    return psk::Status::Internal("reference run produced no guarded node");
  }
  Reference ref;
  ref.node = *report.node;
  ref.release_hash = psk::TableDigest(report.masked);
  ref.stats = report.stats;
  return ref;
}

std::string CheckRelease(const Reference& ref, const Release& release) {
  if (!release.guard_passed) return "release did not pass the guard";
  if (!release.node.has_value() || *release.node != ref.node) {
    return "node " +
           (release.node.has_value() ? release.node->ToString() : "none") +
           " != reference " + ref.node.ToString();
  }
  uint64_t hash = psk::Fnv1aHash(release.csv);
  if (hash != ref.release_hash) {
    return "release bytes hash " + psk::HashToHex(hash) + " != reference " +
           psk::HashToHex(ref.release_hash);
  }
  return CompareStats(ref.stats, release.stats);
}

psk::Result<OpResult> RunOp(const Input& input, const Requirements& req) {
  OpResult op;
  auto memory = std::make_shared<psk::MemoryBudget>();
  Clock::time_point start = Clock::now();
  {
    psk::RunBudget budget;
    budget.memory = memory;
    psk::Anonymizer anonymizer(input.schema);
    anonymizer.set_budget(budget);
    psk::CsvOptions options;
    options.ingest_budget = memory;
    PSK_ASSIGN_OR_RETURN(
        psk::CsvChunkReader reader,
        psk::CsvChunkReader::OpenString(input.csv, input.schema, options));
    psk::IngestChunk chunk;
    for (;;) {
      PSK_ASSIGN_OR_RETURN(size_t rows, reader.NextChunk(kChunkRows, &chunk));
      if (rows == 0) break;
      PSK_RETURN_IF_ERROR(anonymizer.Ingest(&chunk));
    }
    Configure(anonymizer, input, req);
    PSK_ASSIGN_OR_RETURN(psk::AnonymizationReport report, anonymizer.Run());
    op.release.csv = psk::WriteCsvString(report.masked);
    op.release.node = report.node;
    op.release.stats = report.stats;
    op.release.guard_passed = report.guard.passed;
  }
  op.ms = MsBetween(start, Clock::now());
  op.peak_tracked_bytes = memory->high_water();
  return op;
}

psk::Result<Release> RunLedgerPass(const Input& input,
                                   const Requirements& req, Ledger* ledger) {
  psk::Table im(input.schema);
  {
    Ledger::Scope layer(ledger, "table.ingest");
    PSK_ASSIGN_OR_RETURN(psk::CsvChunkReader reader,
                         psk::CsvChunkReader::OpenString(input.csv,
                                                         input.schema));
    psk::IngestChunk chunk;
    for (;;) {
      PSK_ASSIGN_OR_RETURN(size_t rows, reader.NextChunk(kChunkRows, &chunk));
      if (rows == 0) break;
      PSK_RETURN_IF_ERROR(im.AppendChunk(&chunk));
    }
    layer.Count("table.input_kb", Kib(im.ApproxBytes()));
  }

  std::vector<size_t> key_indices = input.schema.KeyIndices();
  psk::HierarchySet hierarchies;
  {
    Ledger::Scope layer(ledger, "hierarchy.preflight");
    std::vector<std::shared_ptr<const psk::AttributeHierarchy>> ordered;
    for (size_t i = 0; i < input.hierarchies.size(); ++i) {
      ordered.push_back(input.hierarchies.hierarchy_ptr(i));
    }
    PSK_ASSIGN_OR_RETURN(hierarchies,
                         psk::HierarchySet::Create(input.schema,
                                                   std::move(ordered)));
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      PSK_RETURN_IF_ERROR(psk::ValidateHierarchyOverColumn(
          im, key_indices[i], hierarchies.hierarchy(i)));
    }
  }

  {
    Ledger::Scope layer(ledger, "table.encode");
    PSK_ASSIGN_OR_RETURN(psk::EncodedTable encoded,
                         psk::EncodedTable::Build(im, hierarchies));
    layer.Count("table.encoded_kb", Kib(encoded.ApproxBytes()));
  }

  psk::SearchResult search;
  {
    Ledger::Scope layer(ledger, "algorithms.search");
    psk::SearchOptions options;
    options.k = req.k;
    options.p = req.p;
    options.max_suppression = req.max_suppression;
    options.threads = req.threads;
    PSK_ASSIGN_OR_RETURN(search,
                         psk::SamaratiSearch(im, hierarchies, options));
    layer.Count("algorithms.nodes_generalized",
                search.stats.nodes_generalized);
    layer.Count("algorithms.nodes_cache_hits", search.stats.nodes_cache_hits);
    layer.Count("algorithms.nodes_pruned_condition2",
                search.stats.nodes_pruned_condition2);
    layer.Count("algorithms.heights_probed", search.stats.heights_probed);
  }
  if (!search.found) {
    return psk::Status::FailedPrecondition("search found no node");
  }

  psk::MaskedMicrodata masked;
  {
    Ledger::Scope layer(ledger, "generalize.decode");
    PSK_ASSIGN_OR_RETURN(masked,
                         psk::Mask(im, hierarchies, search.node, req.k));
    layer.Count("generalize.release_kb", Kib(masked.table.ApproxBytes()));
  }
  const psk::Table& release = masked.table;

  psk::GuardReport guard;
  {
    Ledger::Scope layer(ledger, "guard.verify");
    psk::GuardPolicy policy;
    policy.k = req.k;
    policy.p = req.p;
    policy.max_suppression = req.max_suppression;
    if (req.p >= 2) policy.max_attribute_disclosures = 0;
    PSK_ASSIGN_OR_RETURN(guard, psk::VerifyRelease(release, im.num_rows(),
                                                   policy));
  }

  {
    Ledger::Scope layer(ledger, "metrics.scorecard");
    std::vector<size_t> keys = release.schema().KeyIndices();
    std::vector<size_t> confs = release.schema().ConfidentialIndices();
    PSK_RETURN_IF_ERROR(psk::AnonymityK(release, keys).status());
    PSK_RETURN_IF_ERROR(psk::SensitivityP(release, keys, confs).status());
    PSK_RETURN_IF_ERROR(
        psk::CountAttributeDisclosures(release, keys, confs).status());
    PSK_RETURN_IF_ERROR(psk::MarketerRisk(release, keys).status());
    PSK_RETURN_IF_ERROR(psk::DiscernibilityMetric(release, keys,
                                                  masked.suppressed,
                                                  im.num_rows())
                            .status());
    PSK_RETURN_IF_ERROR(
        psk::NormalizedAvgGroupSize(release, keys, req.k).status());
  }

  Release out;
  {
    Ledger::Scope layer(ledger, "table.export");
    out.csv = psk::WriteCsvString(release);
  }
  out.node = search.node;
  out.stats = search.stats;
  out.guard_passed = guard.passed;
  return out;
}

std::vector<Metric> LayerMetrics(const Ledger& ledger, double op_p50_ms,
                                 size_t op_samples,
                                 const ServiceLayers& service) {
  std::vector<Metric> metrics;
  size_t passes = ledger.Samples("algorithms.search");
  auto time = [&](const std::string& layer) {
    metrics.push_back({layer + "_ms", ledger.MedianMs(layer), "ms",
                       ledger.Samples(layer)});
  };
  // Sizes and counts repeat exactly from pass to pass.
  auto count = [&](const std::string& name, const char* unit) {
    metrics.push_back({name, ledger.LastCount(name), unit, passes});
  };
  time("table.ingest");
  count("table.input_kb", "KiB");
  time("hierarchy.preflight");
  time("table.encode");
  count("table.encoded_kb", "KiB");
  time("algorithms.search");
  double search_ms = ledger.MedianMs("algorithms.search");
  double generalized = ledger.LastCount("algorithms.nodes_generalized");
  metrics.push_back({"algorithms.nodes_per_s",
                     search_ms > 0 ? generalized / (search_ms / 1000.0) : 0,
                     "1/s", passes});
  count("algorithms.nodes_generalized", "count");
  count("algorithms.nodes_cache_hits", "count");
  count("algorithms.nodes_pruned_condition2", "count");
  count("algorithms.heights_probed", "count");
  time("generalize.decode");
  count("generalize.release_kb", "KiB");
  time("guard.verify");
  time("metrics.scorecard");
  time("table.export");

  metrics.push_back(
      {"jobs.commit_ms", service.commit_ms, "ms", service.commit_samples});
  metrics.push_back({"service.queue_wait_p50_ms", service.queue_wait_p50_ms,
                     "ms", service.jobs});
  metrics.push_back({"service.queue_wait_p90_ms", service.queue_wait_p90_ms,
                     "ms", service.jobs});
  metrics.push_back(
      {"service.run_p50_ms", service.run_p50_ms, "ms", service.jobs});
  metrics.push_back({"service.shed", static_cast<double>(service.shed),
                     "count", service.jobs});
  metrics.push_back({"service.retries", static_cast<double>(service.retries),
                     "count", service.jobs});
  metrics.push_back({"service.degraded",
                     static_cast<double>(service.degraded), "count",
                     service.jobs});

  double layer_sum = 0;
  for (const char* layer :
       {"table.ingest", "hierarchy.preflight", "table.encode",
        "algorithms.search", "generalize.decode", "guard.verify",
        "metrics.scorecard"}) {
    layer_sum += ledger.MedianMs(layer);
  }
  if (service.jobs > 0) {
    layer_sum += service.queue_wait_p50_ms;
  } else {
    layer_sum += ledger.MedianMs("table.export");
  }
  metrics.push_back({"ledger.search_share",
                     layer_sum > 0 ? search_ms / layer_sum : 0, "ratio",
                     passes});
  metrics.push_back({"ledger.coverage",
                     op_p50_ms > 0 ? layer_sum / op_p50_ms : 0, "ratio",
                     op_samples});
  return metrics;
}

}  // namespace perfbench
