#ifndef PSK_ALGORITHMS_SEARCH_COMMON_H_
#define PSK_ALGORITHMS_SEARCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "psk/anonymity/frequency_stats.h"
#include "psk/anonymity/psensitive.h"
#include "psk/common/result.h"
#include "psk/common/run_budget.h"
#include "psk/trace/trace.h"
#include "psk/generalize/generalize.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/encoded.h"
#include "psk/table/table.h"

namespace psk {

/// Verdict for one lattice node.
struct NodeEvaluation {
  bool satisfied = false;
  CheckStage stage = CheckStage::kPassed;
  /// Tuples that suppression removed (valid when the k-anonymity gate was
  /// reached).
  size_t suppressed = 0;
  /// Number of QI-groups of the masked microdata (post-suppression).
  size_t num_groups = 0;
};

/// Durable search state for crash-safe checkpoint/resume (see psk/jobs).
///
/// `verdicts` holds every completed node evaluation, keyed by
/// SnapshotNodeKey; `facts` holds every completed subset-node verdict
/// (Incognito's subset phases), keyed by SubsetFactKey. A verdict is a
/// pure function of (initial microdata, hierarchies, k, p, TS),
/// independent of which engine asked — so one snapshot stays valid across
/// every lattice engine and every stage of a fallback chain, and a resumed
/// run that replays its deterministic enumeration against the snapshot
/// reaches the exact state the interrupted run was in.
struct SearchSnapshot {
  std::unordered_map<std::string, NodeEvaluation> verdicts;
  std::unordered_map<std::string, bool> facts;

  bool empty() const { return verdicts.empty() && facts.empty(); }
};

/// Snapshot key of a lattice node: its levels joined with ',' ("1,0,2").
std::string SnapshotNodeKey(const LatticeNode& node);

/// Snapshot fact key of a subset node: "s:<slots>|<levels>", e.g.
/// "s:0:1|2,0" for QI slots {0, 1} at levels (2, 0). The "s" prefix keeps
/// it apart from SnapshotNodeKey, so both share one SearchSnapshot.
std::string SubsetFactKey(const std::vector<size_t>& attrs,
                          const std::vector<int>& levels);

/// Thread-safe in-memory verdict cache, owned by the caller and attached
/// to a search only through SearchOptions::verdict_cache (the scheduler
/// gives each job one); every worker of every search it is attached to
/// shares it. A verdict is a pure function of (initial microdata,
/// hierarchies, k, p, TS), so once any search has evaluated a node, no
/// later request through the same cache generalizes the table for it
/// again. No engine asks for one node twice within a search, so hits come
/// from earlier searches against the same cache: a retried job, or a
/// later stage of a fallback chain.
///
/// Unlike the crash-recovery snapshot (whose hits *recount* stats so a
/// resumed run converges on the uninterrupted run's counters), a cache hit
/// is work an earlier search already counted: it increments only
/// SearchStats::nodes_cache_hits and charges no budget.
///
/// Memory governance: the cache is LRU-bounded. With max_bytes() == 0
/// (the default) it grows without limit, exactly like the historical
/// behavior, so a solo run's stats never change. With a cap — or when a
/// scheduler calls Shrink() on an over-quota job — the least-recently
/// touched verdicts are evicted first; an evicted node re-evaluates (and
/// re-counts) on its next request, which trades determinism of the
/// *stats* for bounded memory, never correctness of the verdicts
/// themselves (each one is a pure function of the inputs). Every insert
/// is charged against the attached MemoryBudget (if any); an insert the
/// budget rejects is simply dropped — the search just loses a memoization.
class VerdictCache {
 public:
  VerdictCache() = default;
  ~VerdictCache();

  VerdictCache(const VerdictCache&) = delete;
  VerdictCache& operator=(const VerdictCache&) = delete;

  /// True and fills *out when `key` has a cached verdict; bumps the
  /// entry's recency.
  bool Lookup(const std::string& key, NodeEvaluation* out) const;

  void Insert(const std::string& key, const NodeEvaluation& eval);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

  /// Bytes held by the cached entries (keys + verdicts + bookkeeping
  /// estimate).
  uint64_t bytes_used() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  /// Eviction cap in bytes; 0 = unbounded (the default). Lowering the cap
  /// evicts immediately. Thread-safe — a scheduler watchdog may call this
  /// while the owning job is mid-sweep.
  void set_max_bytes(uint64_t max_bytes);
  uint64_t max_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_bytes_;
  }

  /// Degradation-ladder step: caps the cache at `max_bytes` and evicts
  /// down to it right now (equivalent to set_max_bytes, named for
  /// intent at the call sites).
  void Shrink(uint64_t max_bytes) { set_max_bytes(max_bytes); }

  /// Charges every byte this cache holds (now and in the future) against
  /// `budget`. Call before the search starts; the current contents are
  /// re-charged ex post (best effort — an over-budget re-charge keeps the
  /// entries but the books saturate at the hard limit via eviction on the
  /// next insert).
  void set_memory_budget(std::shared_ptr<MemoryBudget> budget);

  /// Cost model for one entry — exposed so tests can size caps exactly.
  static uint64_t EntryBytes(const std::string& key) {
    // Key stored twice (map key + recency-list back-reference), verdict
    // once, plus node/bucket overhead for the map and list.
    return 2 * key.size() + sizeof(NodeEvaluation) + kEntryOverhead;
  }
  static constexpr uint64_t kEntryOverhead = 96;

 private:
  /// Recency list: front = most recent. The map points into the list.
  using LruList = std::list<std::pair<std::string, NodeEvaluation>>;

  /// Evicts from the back until bytes_ <= max_bytes_ (no-op when
  /// unbounded). Caller holds mu_.
  void EvictToCapLocked();

  mutable std::mutex mu_;
  mutable LruList lru_;
  std::unordered_map<std::string, LruList::iterator> map_;
  uint64_t bytes_ = 0;
  uint64_t max_bytes_ = 0;
  std::shared_ptr<MemoryBudget> memory_;
};

struct SearchStats;

/// Parameters shared by every lattice search.
///
/// p = 1 degenerates to the plain k-anonymity search of Samarati [19]
/// (every group trivially has >= 1 distinct confidential value), so the
/// same code implements the baseline algorithm and the paper's Algorithm 3.
struct SearchOptions {
  size_t k = 2;
  /// Sensitivity requirement; 1 disables the p-sensitivity part.
  size_t p = 1;
  /// Suppression threshold TS: the maximum number of tuples that may be
  /// removed to reach k-anonymity.
  size_t max_suppression = 0;
  /// Apply the paper's two necessary conditions as pruning (Algorithm 3's
  /// additions). Turning this off gives the unpruned baseline used in the
  /// ablation benchmarks.
  bool use_conditions = true;
  /// Worker threads for the lattice engines' node sweeps — exhaustive,
  /// Samarati, OLA, Incognito and bottom-up all shard their per-height /
  /// per-level / per-subset waves over the shared ThreadPool through
  /// NodeSweeper. 1 = sequential. Results are deterministic: the set of
  /// evaluated nodes, the release, and every SearchStats counter are
  /// identical for any thread count (budget-tripped partial results may
  /// differ, since a limit trips at a thread-timing-dependent node).
  /// Parallelism engages only when checkpointing (restore /
  /// checkpoint_sink) is off; checkpointed runs stay sequential to keep
  /// the deterministic-replay guarantee.
  size_t threads = 1;
  /// Fine-axis threshold: the intra-node row-parallel group-by engages
  /// only when the table yields >= 2 slices of at least this many rows
  /// (GroupBySliceCount). The output is bit-identical at any slice count
  /// — this knob only moves the speed/overhead trade-off. Tests lower it
  /// to force slicing on small fixtures.
  size_t min_rows_per_slice = 1024;
  /// Externally owned verdict cache. When set, NodeSweeper shares it
  /// across its workers, so a node some earlier search through the same
  /// cache evaluated is re-served without generalizing the table; it is
  /// also the seam a scheduler uses to read a job's bytes_used() and
  /// Shrink() it mid-run (degradation ladder). The owner decides the
  /// eviction cap and the memory budget. When unset, the search runs
  /// without a cache: no engine asks for one node twice, so it would
  /// never hit.
  std::shared_ptr<VerdictCache> verdict_cache;
  /// Resource limits. When a limit trips mid-search, the search stops and
  /// returns whatever it found so far, with SearchStats::partial set and
  /// SearchStats::stop_reason naming the limit — it never hangs and never
  /// discards a usable best-so-far answer.
  RunBudget budget;

  // Crash-safe checkpoint/resume hooks (see psk/jobs/JobRunner). Both
  // default off, in which case the hot path pays nothing.
  /// Search state recorded by a previous, interrupted run. The search
  /// replays its deterministic enumeration; every preloaded node resolves
  /// from the snapshot — with its stats recounted exactly as a fresh
  /// evaluation would have — instead of re-generalizing the table, so the
  /// run fast-forwards to the crash point and completes with output and
  /// stats byte-identical to an uninterrupted run. Cache hits do not
  /// charge the budget (they cost no real work), so node/row caps meter
  /// only the work actually redone. Must outlive the search.
  const SearchSnapshot* restore = nullptr;
  /// Invoked with the accumulated snapshot every `checkpoint_interval`
  /// completed evaluations — piggybacking on the BudgetEnforcer checkpoint
  /// already charged per node — and at engine-specific boundaries (after a
  /// probed height, a finished subset phase, ...). The sink persists the
  /// snapshot durably; it must not re-enter the search.
  std::function<void(const SearchSnapshot&)> checkpoint_sink;
  /// Completed evaluations between checkpoint_sink invocations.
  uint64_t checkpoint_interval = 64;

  /// Structured run trace (see psk/trace). Engines open phase spans on it
  /// from their control thread; per-node events recorded by sweep workers
  /// land in per-worker buffers and are merged deterministically at span
  /// close. Null (the default) disables tracing at one branch per span.
  /// Must outlive the search.
  RunTrace* trace = nullptr;
};

/// Work counters, used to quantify what the necessary conditions save.
struct SearchStats {
  /// Nodes for which the table was actually generalized.
  size_t nodes_generalized = 0;
  /// Nodes rejected by Condition 2 (group count > maxGroups) before the
  /// detailed per-group scan.
  size_t nodes_pruned_condition2 = 0;
  /// Nodes rejected because more than TS tuples violate k-anonymity.
  size_t nodes_rejected_kanonymity = 0;
  /// Nodes rejected by the detailed per-group distinct-value scan.
  size_t nodes_rejected_detail = 0;
  /// Nodes that satisfied the property.
  size_t nodes_satisfied = 0;
  /// Nodes skipped without generalization (dominance or lower-bound
  /// pruning in the bottom-up search).
  size_t nodes_skipped = 0;
  /// Node requests resolved from the caller's VerdictCache — work an
  /// earlier search through the same cache already counted, re-served for
  /// free (no generalization, no budget charge).
  size_t nodes_cache_hits = 0;
  /// Node requests that consulted the VerdictCache and missed (0 when no
  /// cache is attached). With a cache, hits + misses = requests through it.
  size_t nodes_cache_misses = 0;
  /// Fresh (non-cache) evaluations, all of which run on the
  /// dictionary-encoded core; snapshot replays recount them too.
  size_t nodes_evaluated_encoded = 0;
  /// Nothing increments this any more: the legacy Value evaluator it
  /// counted is gone, so it stays 0. Kept declared for callers that still
  /// name it.
  size_t nodes_evaluated_legacy = 0;
  /// Budget-free fast-forwards (snapshot verdict and subset-fact replays,
  /// cache re-serves) — how much already-known work the run skipped.
  size_t replay_ticks = 0;
  /// Lattice heights probed (binary search).
  size_t heights_probed = 0;
  /// Subset-lattice nodes evaluated (Incognito's phases over proper
  /// quasi-identifier subsets).
  size_t subset_nodes_evaluated = 0;
  /// True when the search stopped early on an exhausted budget and the
  /// result is best-so-far rather than complete.
  bool partial = false;
  /// Why the search stopped early (kDeadlineExceeded / kCancelled /
  /// kResourceExhausted); kOk when it ran to completion.
  StatusCode stop_reason = StatusCode::kOk;

  void Add(const SearchStats& other) {
    nodes_generalized += other.nodes_generalized;
    nodes_pruned_condition2 += other.nodes_pruned_condition2;
    nodes_rejected_kanonymity += other.nodes_rejected_kanonymity;
    nodes_rejected_detail += other.nodes_rejected_detail;
    nodes_satisfied += other.nodes_satisfied;
    nodes_skipped += other.nodes_skipped;
    nodes_cache_hits += other.nodes_cache_hits;
    nodes_cache_misses += other.nodes_cache_misses;
    nodes_evaluated_encoded += other.nodes_evaluated_encoded;
    replay_ticks += other.replay_ticks;
    heights_probed += other.heights_probed;
    subset_nodes_evaluated += other.subset_nodes_evaluated;
    if (other.partial && !partial) {
      partial = true;
      stop_reason = other.stop_reason;
    }
  }
};

/// If `status` is a budget stop (IsBudgetExhausted), records it in `stats`
/// as a partial result and returns true so the search can unwind with its
/// best-so-far answer; returns false for every other (hard) error, which
/// the search must propagate.
bool AbsorbBudgetStop(const Status& status, SearchStats* stats);

/// Stable lowercase name of a CheckStage ("passed", "condition2", ...),
/// used as the trace events' stage attribute.
const char* CheckStageName(CheckStage stage);

/// Records every SearchStats field but the retired nodes_evaluated_legacy
/// as a structural counter (and partial/stop_reason as attributes) on the
/// innermost open span of `trace`. No-op when trace is null.
void RecordStatsCounters(RunTrace* trace, const SearchStats& stats);

/// Evaluates lattice nodes against a fixed initial microdata: generalize,
/// suppress up to TS, then test p-sensitive k-anonymity, with Condition 1
/// checked once up front and Condition 2 applied per node (Theorems 1-2
/// justify computing both bounds on the initial microdata only).
/// EvaluateSubset answers the TS gate for Incognito's nodes over a subset
/// of the quasi-identifier.
///
/// All searches in this library share this component so that their work
/// counters are comparable. Every lattice engine evaluates only through a
/// NodeSweeper, which owns one evaluator per worker; a standalone
/// evaluator is for tests and benchmarks of one node at a time.
class NodeEvaluator {
 public:
  /// `initial_microdata` and `hierarchies` must outlive the evaluator.
  NodeEvaluator(const Table& initial_microdata,
                const HierarchySet& hierarchies, SearchOptions options);

  /// Encodes the initial microdata (unless set_encoded_table supplied the
  /// encoding) and computes the Condition 1/2 bounds from it. Must be
  /// called before Evaluate. Fails when the schema lacks key or
  /// confidential attributes (confidential required only when p >= 2), and
  /// with EncodedTable::Build's own status — e.g. the hierarchy's
  /// Generalize error for a value it cannot generalize — before any node
  /// is evaluated.
  Status Init();

  /// Shares a budget accountant across evaluators (the threaded exhaustive
  /// sweep gives all shards one enforcer so every limit is global). Must
  /// be called before Init; when absent, Init creates a private enforcer
  /// from options().budget.
  void set_enforcer(std::shared_ptr<BudgetEnforcer> enforcer) {
    enforcer_ = std::move(enforcer);
  }
  const std::shared_ptr<BudgetEnforcer>& enforcer() const {
    return enforcer_;
  }

  /// Attaches a caller-owned verdict cache (NodeSweeper passes
  /// SearchOptions::verdict_cache to every worker). May be set any time
  /// before the first Evaluate. A cached node is re-served without
  /// generalizing the table, without charging the budget, counting only
  /// SearchStats::nodes_cache_hits.
  void set_verdict_cache(std::shared_ptr<VerdictCache> cache) {
    cache_ = std::move(cache);
  }

  /// Shares a prebuilt encoded table across evaluators (NodeSweeper
  /// encodes once and hands the same immutable EncodedTable to every
  /// worker). Must be called before Init; when unset, Init builds a
  /// private encoding.
  void set_encoded_table(std::shared_ptr<const EncodedTable> encoded) {
    encoded_ = std::move(encoded);
  }
  /// The encoded core this evaluator runs on (non-null after Init).
  const std::shared_ptr<const EncodedTable>& encoded_table() const {
    return encoded_;
  }

  /// Attaches run tracing: every completed Evaluate records one TraceEvent
  /// (node key, how it was resolved, verdict stage) into `buffer`, and
  /// checkpoint flushes open "checkpoint_io" spans on `trace`. The buffer is
  /// per-worker and written without locks — its owner merges it into
  /// `trace` at span boundaries (NodeSweeper, at the end of each sweep).
  /// Both pointers must outlive the evaluator; pass nullptrs (the default
  /// state) to disable.
  void set_trace(RunTrace* trace, TraceEventBuffer* buffer) {
    trace_ = trace;
    trace_buffer_ = buffer;
  }
  RunTrace* trace() const { return trace_; }

  /// Caps the intra-node row parallelism (fine decomposition axis) of
  /// encoded evaluations: each group-by may fan out over up to `cap` pool
  /// lanes via GroupByCodesSliced, subject to the fair share at call time
  /// and options().min_rows_per_slice. MUST stay 1 (the default) on any
  /// evaluator whose Evaluate runs inside a ThreadPool task — a nested
  /// ParallelFor can deadlock the pool — so only NodeSweeper sets it: the
  /// primary gets a cap on the sweeper's sequential branch and 1 on its
  /// pooled branch. Verdicts and stats are identical at any cap.
  void set_row_workers(size_t cap) { row_worker_cap_ = cap; }

  /// True iff Condition 1 admits the requested p. When false, no node can
  /// ever satisfy the property and searches should report failure
  /// immediately.
  bool Condition1Holds() const { return condition1_holds_; }

  /// Evaluates one node, updating stats(). When checkpointing is active
  /// (options().restore or options().checkpoint_sink set), a node already
  /// present in the snapshot is resolved from it — its counters recounted
  /// identically, the budget not charged — and fresh verdicts are recorded
  /// into the snapshot for the next checkpoint.
  Result<NodeEvaluation> Evaluate(const LatticeNode& node);

  /// Evaluates one Incognito subset node — QI slots `attrs` generalized to
  /// `levels` — counting SearchStats::subset_nodes_evaluated: true when
  /// suppressing every group smaller than k removes at most TS rows and,
  /// with `prune_p`, every group also holds p distinct values of each
  /// confidential attribute. The budget and the memory budget are charged
  /// as for Evaluate. When checkpointing, a subset node already in the
  /// snapshot's facts replays from it, and fresh verdicts are recorded
  /// there under SubsetFactKey.
  Result<bool> EvaluateSubset(const std::vector<size_t>& attrs,
                              const std::vector<int>& levels, bool prune_p);

  /// Snapshot replays between budget polls (see TickReplay). Small enough
  /// that even a replay cancelled immediately does at most this many map
  /// lookups past the request.
  static constexpr uint64_t kReplayCheckInterval = 32;

  /// Invokes the sink immediately (engines call this at coarse boundaries
  /// — after a probed height, a finished subset, a final-phase height — so
  /// a crash loses at most one boundary's work).
  void FlushCheckpoint();

  /// Produces the masked microdata (generalized + suppressed) for a node —
  /// used to materialize the winning node once a search finishes.
  Result<MaskedMicrodata> Materialize(const LatticeNode& node) const;

  const SearchStats& stats() const { return stats_; }
  SearchStats* mutable_stats() { return &stats_; }

  const SearchOptions& options() const { return options_; }

 private:
  /// The charged evaluation body behind Evaluate (cache/checkpoint
  /// handling lives in Evaluate itself).
  Result<NodeEvaluation> EvaluateEncoded(const LatticeNode& node);

  /// Charges the budget for one group-by over the whole table and grants
  /// it its row workers; the caller then groups into ws_.
  Status BeginGroupBy();

  /// Counts one budget-free fast-forward (a snapshot replay or a
  /// VerdictCache hit) and polls BudgetEnforcer::Check() every
  /// kReplayCheckInterval of them — without charging node/row budget — so
  /// a resume replaying a large snapshot still honors its deadline and can
  /// be cancelled before the first uncached node. A non-OK status is a
  /// budget stop to absorb (or a hard enforcer error to propagate).
  Status TickReplay();

  /// Counts one completed evaluation toward the checkpoint cadence,
  /// invoking options().checkpoint_sink when due.
  void TickCheckpoint();

  /// Records one per-node trace event into trace_buffer_ (caller checked
  /// it is non-null). `path` is "encoded"/"cache"/"replay".
  void RecordEvalEvent(const std::string& key, const char* path,
                       const NodeEvaluation& eval, int64_t start_ns);

  const Table& im_;
  const HierarchySet& hierarchies_;
  SearchOptions options_;
  std::shared_ptr<BudgetEnforcer> enforcer_;
  std::shared_ptr<VerdictCache> cache_;
  std::shared_ptr<const EncodedTable> encoded_;
  /// Per-evaluator scratch for the encoded path (never shared).
  EncodedWorkspace ws_;
  EncodedDistinctScratch distinct_scratch_;
  /// Upper bound on row workers per group-by; resolved to the pool's fair
  /// share at each evaluation. 1 = sequential (required off the control
  /// thread).
  size_t row_worker_cap_ = 1;
  /// Memory-budget charges: the self-built encoding (only when this
  /// evaluator built its own — an external one is charged by its owner)
  /// and the scratch buffers, delta-resized after every group-by. No-ops
  /// when options().budget.memory is unset.
  MemoryReservation encoded_reservation_;
  MemoryReservation scratch_reservation_;
  bool initialized_ = false;
  bool condition1_holds_ = true;
  uint64_t max_groups_ = 0;
  SearchStats stats_;
  /// True when a restore snapshot or a checkpoint sink is configured.
  bool checkpointing_ = false;
  SearchSnapshot snapshot_;
  uint64_t ticks_since_checkpoint_ = 0;
  uint64_t replay_hits_since_check_ = 0;
  RunTrace* trace_ = nullptr;
  TraceEventBuffer* trace_buffer_ = nullptr;
};

/// Parallel (or sequential) evaluator over batches of independent lattice
/// nodes — the only executor of lattice work in all five lattice engines
/// (Samarati, exhaustive, OLA, Incognito, bottom-up). Sweep runs full
/// lattice nodes (NodeEvaluator::Evaluate); SweepSubsets runs one height
/// of an Incognito subset lattice (NodeEvaluator::EvaluateSubset). Both
/// run through the same private Drive loop and record one "sweep" trace
/// span each.
///
/// A sweeper owns one NodeEvaluator per worker. Worker 0 ("primary") holds
/// the checkpointing state and is the evaluator engines use for
/// engine-level bookkeeping (heights_probed, nodes_skipped, checkpoint
/// flushes, Materialize). All workers share the primary's BudgetEnforcer
/// (limits stay global) and, when the caller owns one,
/// SearchOptions::verdict_cache; without it the sweep runs uncached.
///
/// Determinism contract: a sweep evaluates *every* item it is given (no
/// early exit), so the set of evaluated nodes — and therefore the merged
/// SearchStats and the engine's release — is identical for every thread
/// count. Engines that want early exit batch their nodes into fixed-size
/// chunks (independent of the thread count) and stop between chunks.
/// Checkpointed runs (restore / checkpoint_sink set) get exactly one
/// worker, preserving the sequential deterministic-replay guarantee.
///
/// Work decomposition (two axes, chosen per sweep): normally items are
/// grouped into per-task batches sized by measured throughput (coarse
/// axis, >= ~10ms of work per pool task so dispatch amortizes); when a
/// sweep can use only one lane (a single item, one worker, or a pool whose
/// fair share is down to one lane), the sweep instead runs its items on
/// the primary and parallelizes *inside* each group-by by row range (fine
/// axis, see GroupByCodesSliced). Both axes preserve the contract — batch
/// size and slice count never change any verdict or merged counter.
class NodeSweeper {
 public:
  /// `initial_microdata` and `hierarchies` must outlive the sweeper.
  NodeSweeper(const Table& initial_microdata, const HierarchySet& hierarchies,
              SearchOptions options);

  /// Builds and initializes the workers. Fails like NodeEvaluator::Init.
  Status Init();

  /// Worker 0 — the evaluator carrying checkpoint state and engine-level
  /// counters. Valid after Init.
  NodeEvaluator& primary() { return *workers_.front(); }

  /// Evaluates every node, writing per-node verdicts into (*evals)[i]
  /// (nullopt = not evaluated because the sweep stopped early). Returns:
  ///  - OK when every node was evaluated;
  ///  - the budget-stop status when a shared limit tripped mid-sweep (the
  ///    caller decides whether to absorb it via AbsorbBudgetStop);
  ///  - otherwise the first hard error by worker order. Worker stats are
  ///    never lost on any path: they stay in the worker evaluators and are
  ///    all merged by MergedStats.
  Status Sweep(const std::vector<LatticeNode>& nodes,
               std::vector<std::optional<NodeEvaluation>>* evals);

  /// Evaluates every subset node — QI slots `attrs` at each level vector
  /// of `levels` — through NodeEvaluator::EvaluateSubset, writing
  /// (*passed)[i] (nullopt = not evaluated because the sweep stopped
  /// early). Returns like Sweep.
  Status SweepSubsets(const std::vector<size_t>& attrs,
                      const std::vector<std::vector<int>>& levels,
                      bool prune_p, std::vector<std::optional<bool>>* passed);

  /// Work counters summed over every worker (deterministic: per-counter
  /// sums are order-independent; partial/stop_reason are first-wins in
  /// worker order).
  SearchStats MergedStats() const;

 private:
  /// Evaluates one item of a sweep on `worker`; called once per index.
  using ItemFn = std::function<Status(NodeEvaluator& worker, size_t index)>;

  /// The loop behind Sweep and SweepSubsets: runs `evaluate` for every
  /// index in [0, count) inside one "sweep" trace span, on one of the two
  /// decomposition axes, and returns as Sweep documents.
  Status Drive(size_t count, const ItemFn& evaluate);

  /// Merges every pending per-worker trace event into the innermost open
  /// span of options().trace, sorted by node key (no-op without tracing).
  void FlushTraceEvents();

  /// Nodes per pool task for a sweep of `count` nodes over `active`
  /// workers (coarse decomposition axis): sized from the measured
  /// node-evaluation throughput so one task carries >= ~kTargetBatchNs of
  /// work, but never so large that fewer than `active` tasks exist.
  /// Purely a scheduling choice — the set of evaluated nodes and all
  /// merged stats are batch-size-invariant.
  size_t BatchSize(size_t count, size_t active) const;

  /// Target work per pool task. Well above the dispatch cost of one task
  /// (~microseconds), well below a sweep's runtime, so batches amortize
  /// dispatch without starving the dynamic load balance.
  static constexpr double kTargetBatchNs = 10e6;

  const Table& im_;
  const HierarchySet& hierarchies_;
  SearchOptions options_;
  std::vector<std::unique_ptr<NodeEvaluator>> workers_;
  /// EWMA of observed per-worker node-evaluation throughput (nodes/sec),
  /// fed back into BatchSize after every sweep. Control-thread state: read
  /// and written only between sweeps, never by workers. 0 until the first
  /// sweep completes (first batch defaults to 1 node — per-node dispatch —
  /// and the measurement corrects from there).
  double nodes_per_sec_ = 0;
  /// Charge for the shared encoded table (EncodedTable::Build seam);
  /// released when the sweeper dies. No-op without a memory budget.
  MemoryReservation encoded_reservation_;
  /// One lock-free event buffer per worker; stable addresses (sized once
  /// in Init, before the workers capture pointers into it).
  std::vector<TraceEventBuffer> trace_buffers_;
};

/// Outcome of a single-solution lattice search (Samarati binary search).
struct SearchResult {
  /// False when no node satisfies the property (or Condition 1 rules the
  /// requested p out entirely — see condition1_failed).
  bool found = false;
  bool condition1_failed = false;
  LatticeNode node;
  /// The masked microdata at `node` (valid when found).
  Table masked;
  size_t suppressed = 0;
  SearchStats stats;
};

/// Outcome of a search that enumerates all minimal satisfying nodes
/// (exhaustive sweep and bottom-up BFS).
struct MinimalSetResult {
  bool condition1_failed = false;
  /// All p-k-minimal generalizations (Definition 3), sorted.
  std::vector<LatticeNode> minimal_nodes;
  /// Every satisfying node encountered (exhaustive search only).
  std::vector<LatticeNode> satisfying_nodes;
  SearchStats stats;
};

}  // namespace psk

#endif  // PSK_ALGORITHMS_SEARCH_COMMON_H_
