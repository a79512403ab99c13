#ifndef PSK_ALGORITHMS_SEARCH_COMMON_H_
#define PSK_ALGORITHMS_SEARCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
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

/// A run's verdict memo (SearchOptions::memo), and the durable search
/// state its checkpoints persist for crash-safe resume (see psk/jobs).
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
  /// NodeSweeper. Each node is evaluated on one thread, so a one-node
  /// wave runs sequentially whatever this says. 1 = sequential. Results
  /// are deterministic: the set of evaluated nodes, the release, every
  /// SearchStats counter and the snapshots handed to checkpoint_sink are
  /// identical for any thread count (budget-tripped partial results may
  /// differ, since a limit trips at a thread-timing-dependent node).
  size_t threads = 1;
  /// Resource limits. When a limit trips mid-search, the search stops and
  /// returns whatever it found so far, with SearchStats::partial set and
  /// SearchStats::stop_reason naming the limit — it never hangs and never
  /// discards a usable best-so-far answer.
  RunBudget budget;

  // Verdict memo and crash-safe checkpoint hooks (see psk/jobs/JobRunner).
  /// The run's verdict memo. Sweep lanes look every node and subset
  /// fact up in it, without locks; a node found there is replayed — its
  /// stats recounted exactly as a fresh evaluation would have counted
  /// them — instead of re-generalizing the table. Replays do not charge
  /// the node/row budget (they cost no real work), so those caps meter
  /// only fresh work; deadline and cancellation are still polled. After
  /// every sweep, on the control thread, the sweeper merges the sweep's
  /// fresh verdicts into it, so a later stage of a fallback chain sharing
  /// the memo replays what an earlier stage decided. Seeded with an
  /// interrupted run's snapshot, the search fast-forwards to the crash
  /// point and completes with output and stats byte-identical to an
  /// uninterrupted run. Null: the sweeper keeps a memo of its own. Must
  /// outlive the search, and nothing else may touch it during the search.
  SearchSnapshot* memo = nullptr;
  /// Invoked on the control thread with the memo at the end of a sweep
  /// once `checkpoint_interval` fresh verdicts have built up, and at
  /// engine-specific boundaries (after a probed height, a finished subset
  /// phase, ...). The sink persists the snapshot durably; it must not
  /// re-enter the search.
  std::function<void(const SearchSnapshot&)> checkpoint_sink;
  /// Fresh verdicts and subset facts between checkpoint_sink invocations.
  uint64_t checkpoint_interval = 64;

  /// Structured run trace (see psk/trace). Engines open phase spans on it
  /// from their control thread; per-node events recorded by sweep lanes
  /// land in per-lane buffers and are merged deterministically at span
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
  /// Nothing increments these two any more: the verdict cache whose hits
  /// and misses they counted is gone (a memo replay recounts the node's
  /// own counters instead), so they stay 0. Kept declared for callers that
  /// still name them.
  size_t nodes_cache_hits = 0;
  size_t nodes_cache_misses = 0;
  /// Node evaluations, all of which run on the dictionary-encoded core;
  /// memo replays recount them too.
  size_t nodes_evaluated_encoded = 0;
  /// Nothing increments this any more: the legacy Value evaluator it
  /// counted is gone, so it stays 0. Kept declared for callers that still
  /// name it.
  size_t nodes_evaluated_legacy = 0;
  /// Budget-free fast-forwards (memo verdict and subset-fact replays) —
  /// how much already-known work the run skipped.
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
/// innermost open span of `trace`; the retired cache counters stay
/// recorded, as 0, so the trace structure does not move. No-op when trace
/// is null.
void RecordStatsCounters(RunTrace* trace, const SearchStats& stats);

/// One lane of a NodeSweeper: evaluates lattice nodes against the
/// sweeper's encoding of the initial microdata — generalize, suppress up
/// to TS, then test p-sensitive k-anonymity, with Condition 2 applied per
/// node against the sweeper's maxGroups (Theorems 1-2 justify computing
/// the Condition 1/2 bounds once, on the initial microdata).
/// EvaluateSubset answers the TS gate for Incognito's nodes over a subset
/// of the quasi-identifier.
///
/// Only NodeSweeper::Init builds one and only its sweeps evaluate
/// through one, so every search's work counters stay comparable. A lane
/// owns only per-lane state: group-by scratch, its memory charge, its
/// stats, and the trace events and fresh verdicts the sweeper drains
/// after every sweep. The encoding, the enforcer and the bounds are the
/// sweeper's; engines read a lane's stats only.
class NodeEvaluator {
 public:
  /// Memo replays between budget polls (see TickReplay). Small enough
  /// that even a replay cancelled immediately does at most this many map
  /// lookups past the request.
  static constexpr uint64_t kReplayCheckInterval = 32;

  const SearchStats& stats() const { return stats_; }
  SearchStats* mutable_stats() { return &stats_; }

 private:
  friend class NodeSweeper;

  /// `options`, `encoded` and `enforcer` are the sweeper's and outlive
  /// the lane; `max_groups` is Theorem 2's bound (0 when p < 2).
  NodeEvaluator(const SearchOptions& options, const EncodedTable& encoded,
                BudgetEnforcer& enforcer, uint64_t max_groups);

  /// Evaluates one node, updating stats(). A node present in the run's
  /// memo is replayed from it — its counters recounted identically, the
  /// budget not charged. A fresh verdict is recorded into fresh_.
  Result<NodeEvaluation> Evaluate(const LatticeNode& node);

  /// Evaluates one Incognito subset node — QI slots `attrs` generalized to
  /// `levels` — counting SearchStats::subset_nodes_evaluated: true when
  /// suppressing every group smaller than k removes at most TS rows and,
  /// with `prune_p`, every group also holds p distinct values of each
  /// confidential attribute. The budget and the memory budget are charged
  /// as for Evaluate. A subset node in the memo's facts replays from it;
  /// a fresh verdict is recorded into fresh_ under SubsetFactKey.
  Result<bool> EvaluateSubset(const std::vector<size_t>& attrs,
                              const std::vector<int>& levels, bool prune_p);

  /// The charged evaluation body behind Evaluate (memo replays live in
  /// Evaluate itself).
  Result<NodeEvaluation> EvaluateEncoded(const LatticeNode& node);

  /// Charges the budget for one group-by over the whole table; the caller
  /// then groups into ws_.
  Status BeginGroupBy();

  /// Counts one budget-free fast-forward (a memo replay) and polls
  /// BudgetEnforcer::Check() every kReplayCheckInterval of them — without
  /// charging node/row budget — so a resume replaying a large snapshot
  /// still honors its deadline and can be cancelled before the first fresh
  /// node. A non-OK status is a
  /// budget stop to absorb (or a hard enforcer error to propagate).
  Status TickReplay();

  /// Records one per-node trace event into trace_buffer_ (caller checked
  /// that tracing is on). `path` is "encoded" or "replay".
  void RecordEvalEvent(const std::string& key, const char* path,
                       const NodeEvaluation& eval, int64_t start_ns);

  const SearchOptions& options_;
  const EncodedTable& encoded_;
  BudgetEnforcer& enforcer_;
  const uint64_t max_groups_;
  /// Per-lane scratch for the encoded path (never shared).
  EncodedWorkspace ws_;
  EncodedDistinctScratch distinct_scratch_;
  /// Memory-budget charge for the scratch buffers, delta-resized after
  /// every group-by. No-op without a memory budget.
  MemoryReservation scratch_reservation_;
  SearchStats stats_;
  uint64_t replay_hits_since_check_ = 0;
  /// Written only by the thread holding this lane; the sweeper drains
  /// both on the control thread after every sweep.
  TraceEventBuffer trace_buffer_;
  SearchSnapshot fresh_;
};

/// Parallel (or sequential) evaluator of independent lattice nodes — the
/// only executor of lattice work in all five lattice engines (Samarati,
/// exhaustive, OLA, Incognito, bottom-up). Sweep runs full lattice nodes
/// (NodeEvaluator::Evaluate); SweepSubsets runs one height of an
/// Incognito subset lattice (NodeEvaluator::EvaluateSubset). Both run
/// through the same private Drive loop and record one "sweep" trace span
/// each.
///
/// Init encodes the initial microdata once, computes the Condition 1/2
/// bounds once, creates the run's BudgetEnforcer and builds one
/// NodeEvaluator per lane over that shared, immutable state. Lane 0
/// ("primary") also carries engine-level counters (heights_probed,
/// nodes_skipped, absorbed budget stops). All lanes share the enforcer
/// (limits stay global) and read the run's memo (SearchOptions::memo, or
/// the sweeper's own when that is null) without locks: during a sweep
/// nothing writes it.
///
/// Determinism contract: a sweep evaluates *every* item it is given (no
/// early exit), so the set of evaluated nodes — and therefore the merged
/// SearchStats and the engine's release — is identical for every thread
/// count. Engines that want early exit batch their nodes into fixed-size
/// chunks (independent of the thread count) and stop between chunks.
/// Each lane records its fresh verdicts in its own buffer, which the
/// control thread merges into the memo after every sweep, so the memo and
/// the snapshots the sink sees are the same at every thread count.
///
/// Work decomposition: parallelism is across lattice nodes only, one node
/// per ThreadPool::ParallelFor index; a sweep that can use only one lane
/// (a single item, one lane, or a pool whose fair share is down to one
/// lane) runs its items on the primary, on the calling thread. The lane
/// count never changes any verdict or merged counter, so a running search
/// can drop to one lane between two sweeps (MemoryBudget::LimitToOneLane
/// on options().budget.memory).
class NodeSweeper {
 public:
  /// `initial_microdata` and `hierarchies` must outlive the sweeper.
  NodeSweeper(const Table& initial_microdata, const HierarchySet& hierarchies,
              SearchOptions options);
  /// Pinned: the lanes point at its options, encoding and enforcer.
  NodeSweeper(NodeSweeper&&) = delete;

  /// Encodes the initial microdata, computes the Condition 1/2 bounds and
  /// builds the lanes. Fails when the parameters are invalid (k < 1,
  /// p < 1, p > k) or the schema lacks key or confidential attributes
  /// (confidential required only when p >= 2), and with
  /// EncodedTable::Build's own status — e.g. the hierarchy's Generalize
  /// error for a value it cannot generalize — before any node is
  /// evaluated.
  Status Init();

  /// True iff Condition 1 admits the requested p. When false, no node can
  /// ever satisfy the property: searches report failure immediately, and
  /// Sweep fails with kFailedPrecondition. Valid after Init.
  bool Condition1Holds() const { return condition1_holds_; }

  /// The dictionary-encoded initial microdata every lane evaluates on.
  /// Valid after Init.
  const EncodedTable& encoded() const { return encoded_; }

  /// Lane 0, which carries engine-level counters. Valid after Init.
  NodeEvaluator& primary() { return *lanes_.front(); }

  /// Evaluates every node, writing per-node verdicts into (*evals)[i]
  /// (nullopt = not evaluated because the sweep stopped early). Returns:
  ///  - OK when every node was evaluated;
  ///  - the budget-stop status when a shared limit tripped mid-sweep (the
  ///    caller decides whether to absorb it via AbsorbBudgetStop);
  ///  - otherwise the first hard error by lane order. Lane stats are
  ///    never lost on any path: they stay in the lanes and are all merged
  ///    by MergedStats.
  Status Sweep(const std::vector<LatticeNode>& nodes,
               std::vector<std::optional<NodeEvaluation>>* evals);

  /// Evaluates every subset node — QI slots `attrs` at each level vector
  /// of `levels` — through NodeEvaluator::EvaluateSubset, writing
  /// (*passed)[i] (nullopt = not evaluated because the sweep stopped
  /// early). Returns like Sweep.
  Status SweepSubsets(const std::vector<size_t>& attrs,
                      const std::vector<std::vector<int>>& levels,
                      bool prune_p, std::vector<std::optional<bool>>* passed);

  /// Work counters summed over every lane (deterministic: per-counter
  /// sums are order-independent; partial/stop_reason are first-wins in
  /// lane order).
  SearchStats MergedStats() const;

  /// Hands the memo to options().checkpoint_sink now (engines call this
  /// at coarse boundaries — after a probed height, a finished subset, a
  /// final-phase height — so a crash loses at most one boundary's work).
  void FlushCheckpoint();

 private:
  /// Evaluates item `index` of a sweep on `lane`; called once per index.
  using ItemFn = std::function<Status(NodeEvaluator& lane, size_t index)>;

  /// The loop behind Sweep and SweepSubsets: runs `evaluate` for every
  /// index in [0, count) inside one "sweep" trace span, and returns as
  /// Sweep documents.
  Status Drive(size_t count, const ItemFn& evaluate);

  /// Merges every pending per-lane trace event into the innermost open
  /// span of options().trace, sorted by node key (no-op without tracing).
  void FlushTraceEvents();

  /// Moves the lanes' fresh buffers into the memo and, with a sink,
  /// flushes once checkpoint_interval entries have built up since the
  /// last flush.
  void MergeCheckpoint();

  const Table& im_;
  const HierarchySet& hierarchies_;
  SearchOptions options_;
  EncodedTable encoded_;
  /// Charge for encoded_ (EncodedTable::Build seam); released when the
  /// sweeper dies. No-op without a memory budget.
  MemoryReservation encoded_reservation_;
  bool condition1_holds_ = true;
  /// Created in Init, after the encode, so a deadline counts from there.
  std::unique_ptr<BudgetEnforcer> enforcer_;
  std::vector<std::unique_ptr<NodeEvaluator>> lanes_;
  /// The memo when the caller gave none (options_.memo then points here).
  SearchSnapshot own_memo_;
  uint64_t fresh_since_flush_ = 0;
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
