#ifndef PSK_API_ANONYMIZER_H_
#define PSK_API_ANONYMIZER_H_

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/common/result.h"
#include "psk/common/run_budget.h"
#include "psk/guard/guard.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/table/table.h"

namespace psk {

/// Which engine produces the masked microdata.
enum class AnonymizationAlgorithm {
  /// Samarati binary search / the paper's Algorithm 3 (one minimal-height
  /// solution; the default).
  kSamarati = 0,
  /// Incognito-style subset-lattice search; picks the minimal node with
  /// the best precision among all p-k-minimal generalizations.
  kIncognito = 1,
  /// Full-lattice bottom-up BFS; same selection rule as Incognito.
  kBottomUp = 2,
  /// Exhaustive sweep (exact, exponential in the QI count).
  kExhaustive = 3,
  /// Mondrian multidimensional local recoding (no hierarchies required).
  kMondrian = 4,
  /// Greedy p-sensitive k-anonymous clustering (local recoding, no
  /// hierarchies required).
  kGreedyCluster = 5,
  /// OLA: optimal lattice anonymization — among all minimal nodes, picks
  /// the one minimizing the discernibility metric.
  kOla = 6,
  /// Last-resort degradation: generalize every key attribute to the top of
  /// its hierarchy (one QI-group holding the whole table). Maximally
  /// private, minimally useful, and O(n) — it ignores the run budget, so a
  /// fallback chain ending here always produces *some* release.
  kFullSuppression = 7,
};

/// The outcome of one anonymization run: the masked microdata plus the
/// privacy/utility scorecard a data owner reviews before release.
struct AnonymizationReport {
  Table masked;
  /// The lattice node applied (absent for Mondrian's local recoding).
  std::optional<LatticeNode> node;
  size_t suppressed = 0;

  // Privacy scorecard.
  size_t achieved_k = 0;  ///< smallest QI-group size
  size_t achieved_p = 0;  ///< minimum distinct confidential values/group
  size_t attribute_disclosures = 0;
  double reidentification_risk = 0.0;  ///< marketer-model risk

  // Utility scorecard.
  uint64_t discernibility = 0;
  double normalized_avg_group_size = 0.0;
  /// Precision of the applied node; 1.0 (no loss) reported for Mondrian,
  /// whose loss shows up in discernibility instead.
  double precision = 1.0;

  SearchStats stats;

  // Provenance: how the release was produced.
  /// The algorithm that actually produced the release (differs from the
  /// configured one when a fallback stage took over).
  AnonymizationAlgorithm algorithm_used = AnonymizationAlgorithm::kSamarati;
  /// Index into the chain {primary, fallbacks...}: 0 = the configured
  /// algorithm, 1 = first fallback, and so on.
  size_t fallback_stage = 0;
  /// True when the producing stage stopped on an exhausted budget and
  /// released its best-so-far answer (stats.stop_reason says why).
  bool partial = false;
  /// The release guard's independent measurements (populated unless the
  /// guard was disabled).
  GuardReport guard;
};

/// One-stop API over the whole library: configure the dataset, the
/// hierarchies and the privacy requirements, call Run(), and get the
/// masked microdata with its scorecard.
///
///   Anonymizer anonymizer(std::move(table));
///   anonymizer.AddHierarchy(age_hierarchy);
///   anonymizer.AddHierarchy(zip_hierarchy);
///   anonymizer.set_k(3).set_p(2).set_max_suppression(10);
///   PSK_ASSIGN_OR_RETURN(AnonymizationReport report, anonymizer.Run());
///
/// The schema drives everything: attributes marked kIdentifier are
/// dropped, kKey attributes are generalized (each needs a hierarchy unless
/// the algorithm is Mondrian), kConfidential attributes feed the
/// p-sensitivity requirement.
class Anonymizer {
 public:
  explicit Anonymizer(Table initial_microdata)
      : initial_microdata_(std::move(initial_microdata)) {}

  /// Streaming-ingest construction: starts from an empty table over
  /// `schema` and grows it with Ingest() chunks. Call set_budget first if
  /// the ingest should be metered — each Ingest charges the table's
  /// footprint against the budget's MemoryBudget as it grows.
  explicit Anonymizer(Schema schema) : initial_microdata_(std::move(schema)) {}

  /// Capacity hint forwarded to the input table ahead of a chunked ingest
  /// loop (avoids id-column reallocation churn).
  Anonymizer& ReserveRows(size_t additional_rows) {
    initial_microdata_.ReserveRows(additional_rows);
    return *this;
  }

  /// Appends one columnar chunk to the input table (see
  /// Table::AppendChunk for the validation contract; the chunk's buffers
  /// survive for refill). When the run budget carries a MemoryBudget, the
  /// input table's current footprint is (re)charged against it, so a
  /// scheduler sees ingest memory the same way it sees cache and encode
  /// memory — and an over-quota ingest fails here with kResourceExhausted
  /// instead of at Run.
  Status Ingest(IngestChunk* chunk) {
    PSK_RETURN_IF_ERROR(initial_microdata_.AppendChunk(chunk));
    return ChargeInputFootprint();
  }

  /// Rows ingested so far (== num_rows of the table handed to Run).
  size_t num_ingested_rows() const { return initial_microdata_.num_rows(); }

  /// Registers the hierarchy for one key attribute (any order; matched to
  /// schema attributes by name at Run time).
  Anonymizer& AddHierarchy(
      std::shared_ptr<const AttributeHierarchy> hierarchy) {
    hierarchies_.push_back(std::move(hierarchy));
    return *this;
  }

  Anonymizer& set_k(size_t k) {
    k_ = k;
    return *this;
  }
  Anonymizer& set_p(size_t p) {
    p_ = p;
    return *this;
  }
  Anonymizer& set_max_suppression(size_t max_suppression) {
    max_suppression_ = max_suppression;
    return *this;
  }
  Anonymizer& set_algorithm(AnonymizationAlgorithm algorithm) {
    algorithm_ = algorithm;
    return *this;
  }
  /// Disables the Condition 1/2 pruning (for measurement only).
  Anonymizer& set_use_conditions(bool use_conditions) {
    use_conditions_ = use_conditions;
    return *this;
  }
  /// Worker threads for the lattice engines' node sweeps (see
  /// SearchOptions::threads). 1 (the default) runs sequentially; results
  /// and stats are identical for every value.
  Anonymizer& set_threads(size_t threads) {
    threads_ = threads;
    return *this;
  }
  /// Fine-axis threshold for the intra-node row-parallel group-by (see
  /// SearchOptions::min_rows_per_slice). Output is bit-identical at any
  /// value; tests lower it to force slicing on small fixtures.
  Anonymizer& set_min_rows_per_slice(size_t min_rows_per_slice) {
    min_rows_per_slice_ = min_rows_per_slice;
    return *this;
  }
  /// Externally owned verdict cache shared into every lattice stage of
  /// the run (see SearchOptions::verdict_cache). A scheduler uses this to
  /// keep a handle on the job's cache so it can meter bytes_used() and
  /// Shrink() it mid-run; normal callers leave it unset and each search
  /// runs uncached.
  Anonymizer& set_verdict_cache(std::shared_ptr<VerdictCache> cache) {
    verdict_cache_ = std::move(cache);
    return *this;
  }

  /// Enables structured run tracing and writes the trace JSON to `path`
  /// (atomically, on Run exit — whether the run succeeded or not). An
  /// empty path disables the sink. See psk/trace for the span taxonomy and
  /// DESIGN.md for the determinism contract.
  Anonymizer& set_trace_sink(std::string path) {
    trace_sink_path_ = std::move(path);
    return *this;
  }
  /// Enables in-memory tracing without a file sink; read the trace back
  /// via last_trace() after Run.
  Anonymizer& set_trace_enabled(bool enabled) {
    trace_enabled_ = enabled;
    return *this;
  }
  /// The trace recorded by the most recent Run() on this anonymizer, or
  /// null when tracing was disabled. With a trace sink configured the
  /// trace is closed and exported; in-memory-only traces are left open so
  /// the caller may append post-run spans (ToJson / StructureSignature
  /// close on demand).
  std::shared_ptr<RunTrace> last_trace() const { return last_trace_; }

  /// Wall-clock deadline for the whole Run, fallback stages included
  /// (sugar for set_budget with only the deadline set).
  Anonymizer& set_deadline(std::chrono::milliseconds deadline) {
    budget_.deadline = deadline;
    return *this;
  }
  /// Full resource budget (deadline, node and row caps, cancellation) for
  /// the whole Run. Each stage of the fallback chain runs under the time
  /// remaining when it starts; the node/row caps apply per stage.
  Anonymizer& set_budget(RunBudget budget) {
    budget_ = std::move(budget);
    return *this;
  }
  /// Algorithms to try, in order, when the configured one fails to produce
  /// a release (no satisfying node, or budget exhausted empty-handed).
  /// Configuration errors and cancellation abort the chain. A typical
  /// chain degrades from exact search to local recoding to full
  /// suppression:
  ///   anonymizer.set_fallback_chain({
  ///       AnonymizationAlgorithm::kGreedyCluster,
  ///       AnonymizationAlgorithm::kFullSuppression});
  Anonymizer& set_fallback_chain(std::vector<AnonymizationAlgorithm> chain) {
    fallback_chain_ = std::move(chain);
    return *this;
  }
  /// The release guard independently re-checks every release before Run
  /// returns it (on by default). Disable only for measurement runs whose
  /// output is never released.
  Anonymizer& set_guard_enabled(bool enabled) {
    guard_enabled_ = enabled;
    return *this;
  }
  /// Overrides the guard policy. By default the guard enforces the
  /// configured k, p and suppression threshold, plus zero attribute
  /// disclosures when p >= 2 (which p-sensitivity implies).
  Anonymizer& set_guard_policy(GuardPolicy policy) {
    guard_policy_ = std::move(policy);
    return *this;
  }
  /// Post-processing hook applied to the masked table after the algorithm
  /// and before the guard — the guard sees (and vets) the transformed
  /// table, so a transform that breaks the privacy properties is refused.
  Anonymizer& set_release_transform(
      std::function<Result<Table>(Table)> transform) {
    release_transform_ = std::move(transform);
    return *this;
  }

  // Crash-safe checkpoint/resume hooks — normally driven by
  // psk/jobs/JobRunner rather than called directly.
  /// Preloads search state recorded by an interrupted run; the lattice
  /// engines fast-forward through it (see SearchOptions::restore). The
  /// snapshot must outlive Run().
  Anonymizer& set_restore_snapshot(const SearchSnapshot* snapshot) {
    restore_snapshot_ = snapshot;
    return *this;
  }
  /// Receives the accumulated search snapshot every `interval` completed
  /// node evaluations and at engine boundaries, for durable persistence.
  Anonymizer& set_checkpoint_sink(
      std::function<void(const SearchSnapshot&)> sink,
      uint64_t interval = 64) {
    checkpoint_sink_ = std::move(sink);
    checkpoint_interval_ = interval;
    return *this;
  }
  /// Progress heartbeat for the local-recoding engines (Mondrian and
  /// GreedyCluster), invoked at partition/cluster boundaries with the
  /// count completed so far. Those engines re-derive their output
  /// deterministically on resume, so the heartbeat carries liveness, not
  /// state.
  Anonymizer& set_progress_heartbeat(std::function<void(size_t)> heartbeat) {
    progress_heartbeat_ = std::move(heartbeat);
    return *this;
  }

  /// Runs the configured algorithm, then each fallback in turn if it
  /// cannot produce a release, then the release guard. Fails with
  /// FailedPrecondition when no stage satisfies the requirements or the
  /// guard refuses the release (the message says which gate failed),
  /// InvalidArgument for inconsistent configuration, or the budget's own
  /// status (DeadlineExceeded / ResourceExhausted / Cancelled) when the
  /// budget ran out before any stage produced a usable result.
  Result<AnonymizationReport> Run() const;

 private:
  /// The Run body; `trace` is null when tracing is disabled. Run() owns
  /// the trace lifecycle (creation, Close, sink export).
  Result<AnonymizationReport> RunImpl(RunTrace* trace) const;

  /// (Re)charges the input table's footprint against the run budget's
  /// MemoryBudget. No-op without one. The reservation lives as long as
  /// this anonymizer, so the table's bytes stay visible to a scheduler's
  /// quota watchdog for the whole job, not just during Run.
  Status ChargeInputFootprint() const {
    if (budget_.memory == nullptr) return Status::OK();
    if (ingest_reservation_.bytes() == 0) {
      return ingest_reservation_.Reserve(budget_.memory,
                                         initial_microdata_.ApproxBytes());
    }
    return ingest_reservation_.Resize(initial_microdata_.ApproxBytes());
  }

  Table initial_microdata_;
  /// Holds the input table's bytes against budget_.memory across the
  /// ingest loop and Run (see ChargeInputFootprint). Makes Anonymizer
  /// move-only, which every current caller already satisfies. Mutable for
  /// the same reason as last_trace_: Run() is const but must be able to
  /// charge the input footprint when the budget arrived after ingest.
  mutable MemoryReservation ingest_reservation_;
  std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies_;
  size_t k_ = 2;
  size_t p_ = 1;
  size_t max_suppression_ = 0;
  AnonymizationAlgorithm algorithm_ = AnonymizationAlgorithm::kSamarati;
  bool use_conditions_ = true;
  size_t threads_ = 1;
  size_t min_rows_per_slice_ = 1024;
  std::shared_ptr<VerdictCache> verdict_cache_;
  std::string trace_sink_path_;
  bool trace_enabled_ = false;
  /// Mutable: Run() is const but publishes its trace here for readback.
  mutable std::shared_ptr<RunTrace> last_trace_;
  RunBudget budget_;
  std::vector<AnonymizationAlgorithm> fallback_chain_;
  bool guard_enabled_ = true;
  std::optional<GuardPolicy> guard_policy_;
  std::function<Result<Table>(Table)> release_transform_;
  const SearchSnapshot* restore_snapshot_ = nullptr;
  std::function<void(const SearchSnapshot&)> checkpoint_sink_;
  uint64_t checkpoint_interval_ = 64;
  std::function<void(size_t)> progress_heartbeat_;
};

}  // namespace psk

#endif  // PSK_API_ANONYMIZER_H_
