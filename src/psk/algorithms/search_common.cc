#include "psk/algorithms/search_common.h"

#include <algorithm>
#include <atomic>
#include <iterator>

#include "psk/common/thread_pool.h"
#include "psk/table/group_by.h"

namespace psk {

std::string SnapshotNodeKey(const LatticeNode& node) {
  std::string key;
  for (size_t i = 0; i < node.levels.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += std::to_string(node.levels[i]);
  }
  return key;
}

std::string SubsetFactKey(const std::vector<size_t>& attrs,
                          const std::vector<int>& levels) {
  std::string key = "s";
  for (size_t a : attrs) {
    key.push_back(':');
    key += std::to_string(a);
  }
  key.push_back('|');
  for (size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += std::to_string(levels[i]);
  }
  return key;
}

bool AbsorbBudgetStop(const Status& status, SearchStats* stats) {
  if (!IsBudgetExhausted(status)) return false;
  if (!stats->partial) {
    stats->partial = true;
    stats->stop_reason = status.code();
  }
  return true;
}

const char* CheckStageName(CheckStage stage) {
  switch (stage) {
    case CheckStage::kPassed:
      return "passed";
    case CheckStage::kCondition1:
      return "condition1";
    case CheckStage::kCondition2:
      return "condition2";
    case CheckStage::kKAnonymity:
      return "kanonymity";
    case CheckStage::kGroupDetail:
      return "group_detail";
  }
  return "unknown";
}

void RecordStatsCounters(RunTrace* trace, const SearchStats& stats) {
  if (trace == nullptr) return;
  trace->Counter("nodes_generalized", stats.nodes_generalized);
  trace->Counter("nodes_pruned_condition2", stats.nodes_pruned_condition2);
  trace->Counter("nodes_rejected_kanonymity",
                 stats.nodes_rejected_kanonymity);
  trace->Counter("nodes_rejected_detail", stats.nodes_rejected_detail);
  trace->Counter("nodes_satisfied", stats.nodes_satisfied);
  trace->Counter("nodes_skipped", stats.nodes_skipped);
  trace->Counter("nodes_cache_hits", stats.nodes_cache_hits);
  trace->Counter("nodes_cache_misses", stats.nodes_cache_misses);
  trace->Counter("nodes_evaluated_encoded", stats.nodes_evaluated_encoded);
  trace->Counter("replay_ticks", stats.replay_ticks);
  trace->Counter("heights_probed", stats.heights_probed);
  trace->Counter("subset_nodes_evaluated", stats.subset_nodes_evaluated);
  trace->Attr("partial", stats.partial ? "true" : "false");
  trace->Attr("stop_reason", StatusCodeToString(stats.stop_reason));
}

NodeEvaluator::NodeEvaluator(const SearchOptions& options,
                             const EncodedTable& encoded,
                             BudgetEnforcer& enforcer, uint64_t max_groups)
    : options_(options),
      encoded_(encoded),
      enforcer_(enforcer),
      max_groups_(max_groups) {
  // Attaches the scratch-growth accountant (no-op without a memory
  // budget); a zero-byte charge cannot fail. EvaluateEncoded
  // delta-resizes it as the group-by buffers grow.
  (void)scratch_reservation_.Reserve(options_.budget.memory, 0);
}

Status NodeEvaluator::TickReplay() {
  ++stats_.replay_ticks;
  if (++replay_hits_since_check_ < kReplayCheckInterval) return Status::OK();
  replay_hits_since_check_ = 0;
  // Deadline/cancellation only — a fast-forward costs no real work, so the
  // node/row budget is not charged.
  return enforcer_.Check();
}

void NodeEvaluator::RecordEvalEvent(const std::string& key, const char* path,
                                    const NodeEvaluation& eval,
                                    int64_t start_ns) {
  TraceEvent event;
  event.name = "eval";
  event.order_key = key;
  event.start_ns = start_ns;
  event.duration_ns = options_.trace->NowNs() - start_ns;
  event.attrs.emplace_back("node", key);
  event.attrs.emplace_back("path", path);
  event.attrs.emplace_back("stage", CheckStageName(eval.stage));
  trace_buffer_.Record(std::move(event));
}

Result<NodeEvaluation> NodeEvaluator::Evaluate(const LatticeNode& node) {
  RunTrace* trace = options_.trace;
  std::string key = SnapshotNodeKey(node);
  int64_t trace_start = trace != nullptr ? trace->NowNs() : 0;
  auto known = options_.memo->verdicts.find(key);
  if (known != options_.memo->verdicts.end()) {
    // Memo replay: recount the stored verdict into the stats exactly as
    // the original evaluation did, so a resumed run (or a later stage
    // replaying an earlier one) finishes with the same counters as an
    // uninterrupted one. No budget charge — no table was generalized —
    // but deadline and cancellation are still polled so a replay of a
    // large memo can be stopped.
    PSK_RETURN_IF_ERROR(TickReplay());
    const NodeEvaluation& eval = known->second;
    ++stats_.nodes_generalized;
    ++stats_.nodes_evaluated_encoded;
    switch (eval.stage) {
      case CheckStage::kKAnonymity:
        ++stats_.nodes_rejected_kanonymity;
        break;
      case CheckStage::kCondition2:
        ++stats_.nodes_pruned_condition2;
        break;
      case CheckStage::kGroupDetail:
        ++stats_.nodes_rejected_detail;
        break;
      default:
        break;
    }
    if (eval.satisfied) ++stats_.nodes_satisfied;
    if (trace != nullptr) RecordEvalEvent(key, "replay", eval, trace_start);
    return eval;
  }
  Result<NodeEvaluation> body = EvaluateEncoded(node);
  if (!body.ok()) return body.status();
  // Completed verdicts enter the memo (and so the next checkpoint) through
  // fresh_; a budget stop inside the body never reaches here, keeping the
  // memo free of half-finished evaluations.
  NodeEvaluation eval = *body;
  if (trace != nullptr) RecordEvalEvent(key, "encoded", eval, trace_start);
  fresh_.verdicts.emplace(std::move(key), eval);
  return eval;
}

Status NodeEvaluator::BeginGroupBy() {
  // Budget checkpoint: every evaluation groups the whole table, so this is
  // the natural unit of work to account. It is charged in rows whichever
  // layout the encoding took, so max_rows_materialized trips at the same
  // node on both.
  return enforcer_.Charge(1, encoded_.num_rows());
}

Result<bool> NodeEvaluator::EvaluateSubset(const std::vector<size_t>& attrs,
                                           const std::vector<int>& levels,
                                           bool prune_p) {
  std::string key = SubsetFactKey(attrs, levels);
  auto fact = options_.memo->facts.find(key);
  if (fact != options_.memo->facts.end()) {
    // Memo replay: this run (or the interrupted run it resumes) already
    // decided this subset node, so reuse its verdict without scanning the
    // table or charging the budget (deadline and cancellation are still
    // polled).
    PSK_RETURN_IF_ERROR(TickReplay());
    ++stats_.subset_nodes_evaluated;
    return fact->second;
  }
  PSK_RETURN_IF_ERROR(BeginGroupBy());
  ++stats_.subset_nodes_evaluated;
  encoded_.GroupBySubset(attrs, levels, &ws_);
  PSK_RETURN_IF_ERROR(scratch_reservation_.Resize(ws_.ApproxBytes()));
  bool ok = ws_.groups.RowsInGroupsSmallerThan(options_.k) <=
            options_.max_suppression;
  // The subset p-prune is sound only without suppression; the caller
  // decides (see the soundness note on IncognitoSearch).
  if (ok && prune_p) {
    ok = IsPSensitiveEncoded(ws_.groups, encoded_, options_.p,
                             /*min_group_size=*/1, &distinct_scratch_);
  }
  fresh_.facts.emplace(std::move(key), ok);
  return ok;
}

Result<NodeEvaluation> NodeEvaluator::EvaluateEncoded(
    const LatticeNode& node) {
  PSK_RETURN_IF_ERROR(BeginGroupBy());
  ++stats_.nodes_generalized;
  ++stats_.nodes_evaluated_encoded;
  PSK_RETURN_IF_ERROR(encoded_.GroupByNode(node, &ws_));
  // GroupByCodes scratch memory seam: charge only growth (the buffers are
  // reused across evaluations, so this settles after warm-up). Exceeding
  // the hard limit here surfaces as kResourceExhausted — a budget stop
  // the sweep absorbs into a best-so-far partial result.
  PSK_RETURN_IF_ERROR(scratch_reservation_.Resize(ws_.ApproxBytes()));
  const EncodedGroups& groups = ws_.groups;

  NodeEvaluation eval;
  // k-anonymity gate: suppression may remove at most TS tuples.
  size_t violating = groups.RowsInGroupsSmallerThan(options_.k);
  eval.suppressed = violating;
  if (violating > options_.max_suppression) {
    eval.stage = CheckStage::kKAnonymity;
    ++stats_.nodes_rejected_kanonymity;
    return eval;
  }

  // Surviving groups form the masked microdata.
  size_t num_groups = groups.GroupsAtLeast(options_.k);
  eval.num_groups = num_groups;

  if (options_.p >= 2) {
    // Condition 2 on the *post-suppression* group count. (Algorithm 3 as
    // printed counts groups before suppression; suppression can only
    // remove whole groups, so the post-suppression count is tighter and
    // still sound against the IM-level maxGroups bound of Theorem 2.)
    if (options_.use_conditions &&
        static_cast<uint64_t>(num_groups) > max_groups_) {
      eval.stage = CheckStage::kCondition2;
      ++stats_.nodes_pruned_condition2;
      return eval;
    }
    // Counting-sort distinct scan over surviving groups, exiting early
    // once a group reaches p distinct values.
    if (!IsPSensitiveEncoded(groups, encoded_, options_.p, options_.k,
                             &distinct_scratch_)) {
      eval.stage = CheckStage::kGroupDetail;
      ++stats_.nodes_rejected_detail;
      return eval;
    }
  }

  eval.satisfied = true;
  eval.stage = CheckStage::kPassed;
  ++stats_.nodes_satisfied;
  return eval;
}

NodeSweeper::NodeSweeper(const Table& initial_microdata,
                         const HierarchySet& hierarchies,
                         SearchOptions options)
    : im_(initial_microdata),
      hierarchies_(hierarchies),
      options_(std::move(options)) {
  if (options_.memo == nullptr) options_.memo = &own_memo_;
}

Status NodeSweeper::Init() {
  // Encode the table once and share it across lanes — the encoding is
  // immutable after Build, so concurrent GroupByNode calls (each with a
  // per-lane workspace) are race-free. A failed build (e.g. a value some
  // hierarchy cannot generalize) fails Init with Build's own status.
  {
    TraceSpan span(options_.trace, "encode");
    span.Counter("rows", im_.num_rows());
    PSK_ASSIGN_OR_RETURN(encoded_, EncodedTable::Build(im_, hierarchies_));
    // What every node's group-by runs over: the distinct ground QI tuples
    // on the entry layout, the rows on the row layout.
    span.Counter("entries", encoded_.num_entries());
  }
  // EncodedTable::Build memory seam: one charge for the whole search
  // (every lane shares the same immutable encoding). A rejected charge
  // fails Init with kResourceExhausted before any node is evaluated — the
  // fallback chain decides what runs instead.
  PSK_RETURN_IF_ERROR(encoded_reservation_.Reserve(options_.budget.memory,
                                                   encoded_.ApproxBytes()));
  if (options_.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (options_.p < 1) return Status::InvalidArgument("p must be >= 1");
  if (options_.p > options_.k) {
    return Status::InvalidArgument("p must be <= k");
  }
  if (im_.schema().KeyIndices().empty()) {
    return Status::FailedPrecondition(
        "the schema declares no key (quasi-identifier) attributes");
  }
  uint64_t max_groups = 0;
  if (options_.p >= 2) {
    if (im_.schema().ConfidentialIndices().empty()) {
      return Status::FailedPrecondition(
          "p >= 2 requires at least one confidential attribute");
    }
    // Theorems 1 and 2: bounds computed on the initial microdata are valid
    // for every masked microdata derived by generalization + suppression.
    PSK_ASSIGN_OR_RETURN(FrequencyStats stats,
                         FrequencyStats::Compute(encoded_));
    condition1_holds_ = options_.p <= stats.MaxP();
    if (condition1_holds_) {
      PSK_ASSIGN_OR_RETURN(max_groups, stats.MaxGroups(options_.p));
    }
  }
  enforcer_ = std::make_unique<BudgetEnforcer>(options_.budget);
  size_t num_lanes = std::max<size_t>(options_.threads, 1);
  lanes_.clear();
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    lanes_.push_back(std::unique_ptr<NodeEvaluator>(
        new NodeEvaluator(options_, encoded_, *enforcer_, max_groups)));
  }
  return Status::OK();
}

Status NodeSweeper::Sweep(const std::vector<LatticeNode>& nodes,
                          std::vector<std::optional<NodeEvaluation>>* evals) {
  evals->assign(nodes.size(), std::nullopt);
  if (!condition1_holds_) {
    return Status::FailedPrecondition(
        "Condition 1 fails for the requested p; no node can satisfy it");
  }
  return Drive(nodes.size(), [&](NodeEvaluator& lane, size_t index) {
    Result<NodeEvaluation> eval = lane.Evaluate(nodes[index]);
    if (!eval.ok()) return eval.status();
    (*evals)[index] = *eval;
    return Status::OK();
  });
}

Status NodeSweeper::SweepSubsets(const std::vector<size_t>& attrs,
                                 const std::vector<std::vector<int>>& levels,
                                 bool prune_p,
                                 std::vector<std::optional<bool>>* passed) {
  passed->assign(levels.size(), std::nullopt);
  return Drive(levels.size(), [&](NodeEvaluator& lane, size_t index) {
    Result<bool> ok = lane.EvaluateSubset(attrs, levels[index], prune_p);
    if (!ok.ok()) return ok.status();
    (*passed)[index] = *ok;
    return Status::OK();
  });
}

Status NodeSweeper::Drive(size_t count, const ItemFn& evaluate) {
  // Scheduler rung 1 (MemoryBudget::LimitToOneLane): fold the secondary
  // lanes' counters into the primary and drop them, returning their
  // scratch to the budget. Their trace and fresh buffers were drained at
  // the end of the previous sweep. Any lane count evaluates the same
  // items.
  const MemoryBudget* memory = options_.budget.memory.get();
  if (lanes_.size() > 1 && memory != nullptr && memory->one_lane()) {
    for (size_t lane = 1; lane < lanes_.size(); ++lane) {
      lanes_.front()->mutable_stats()->Add(lanes_[lane]->stats());
    }
    lanes_.resize(1);
  }
  RunTrace* trace = options_.trace;
  TraceSpan span(trace, "sweep");
  span.Counter("nodes", count);
  size_t active = std::min(lanes_.size(), count);
  // Fair-share: when other sweeps are on the pool, take only an equal
  // split of it. Safe for correctness by the determinism contract (the
  // release and stats are identical for any lane count).
  if (active > 1) {
    active = ThreadPool::Shared().FairShareWorkers(active);
  }
  Status status = Status::OK();

  if (active <= 1) {
    // Too narrow to shard (one item, one lane, or the pool's fair share
    // is down to one lane right now): sequential over items, on the
    // calling thread.
    NodeEvaluator& primary = *lanes_.front();
    for (size_t index = 0; index < count && status.ok(); ++index) {
      status = evaluate(primary, index);
    }
  } else {
    // One node per pool index: ParallelFor hands out each index with one
    // relaxed fetch_add, so a lane that finishes early takes the next node
    // at once. Dynamic scheduling is safe for determinism because every
    // item is evaluated whichever lane draws it; results land in
    // per-index slots and counter sums are order-independent.
    std::atomic<bool> stop{false};
    std::vector<Status> lane_status(active, Status::OK());
    // Per-lane busy time; written only by the thread holding the lane.
    std::vector<int64_t> busy_ns(trace != nullptr ? active : 0, 0);
    if (trace != nullptr) {
      // Scheduling observations are Timings (non-structural): the lane
      // count and the queue depth depend on pool load, and must never
      // enter the StructureSignature.
      trace->Timing("workers", active);
      trace->Timing("queue_depth", ThreadPool::Shared().ApproxQueueDepth());
    }
    // Items carry the owning job's CancelToken: a pool worker that draws
    // an item of a cancelled job observes the token before doing any work
    // and drains the rest immediately, so one dead job's queued work can
    // never stall a neighbor sharing the pool.
    const CancelToken* cancel = options_.budget.cancel.get();
    ThreadPool::Shared().ParallelFor(
        count, active, [&](size_t lane, size_t index) {
          if (stop.load(std::memory_order_relaxed)) return;  // drain fast
          int64_t begin_ns = trace != nullptr ? trace->NowNs() : 0;
          Status item = cancel != nullptr && cancel->cancelled()
                            ? Status::Cancelled("run cancelled by caller")
                            : evaluate(*lanes_[lane], index);
          if (trace != nullptr) busy_ns[lane] += trace->NowNs() - begin_ns;
          if (!item.ok()) {
            if (lane_status[lane].ok()) lane_status[lane] = item;
            // A tripped enforcer poisons every later Charge anyway; the
            // flag just skips the pointless evaluations in between.
            stop.store(true, std::memory_order_relaxed);
          }
        });
    for (size_t lane = 0; lane < busy_ns.size(); ++lane) {
      trace->Timing("w" + std::to_string(lane) + "_busy_ns",
                    static_cast<uint64_t>(busy_ns[lane]));
    }
    // Hard errors (first by lane order) outrank budget stops: they must
    // propagate, while a budget stop is a valid partial result.
    for (const Status& lane_stop : lane_status) {
      if (lane_stop.ok()) continue;
      if (!IsBudgetExhausted(lane_stop)) {
        status = lane_stop;
        break;
      }
      if (status.ok()) status = lane_stop;
    }
  }
  FlushTraceEvents();
  MergeCheckpoint();
  return status;
}

void NodeSweeper::FlushTraceEvents() {
  if (options_.trace == nullptr) return;
  std::vector<TraceEvent> events;
  for (const auto& lane : lanes_) {
    if (lane->trace_buffer_.empty()) continue;
    std::vector<TraceEvent> drained = lane->trace_buffer_.Take();
    events.insert(events.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
  }
  if (!events.empty()) options_.trace->MergeEvents(std::move(events));
}

void NodeSweeper::MergeCheckpoint() {
  SearchSnapshot& memo = *options_.memo;
  for (const auto& lane : lanes_) {
    SearchSnapshot& fresh = lane->fresh_;
    fresh_since_flush_ += fresh.verdicts.size() + fresh.facts.size();
    memo.verdicts.merge(fresh.verdicts);
    memo.facts.merge(fresh.facts);
    fresh = {};
  }
  if (fresh_since_flush_ >=
      std::max<uint64_t>(options_.checkpoint_interval, 1)) {
    FlushCheckpoint();
  }
}

void NodeSweeper::FlushCheckpoint() {
  if (options_.checkpoint_sink == nullptr) return;
  fresh_since_flush_ = 0;
  TraceSpan span(options_.trace, "checkpoint_io");
  span.Counter("verdicts", options_.memo->verdicts.size());
  span.Counter("facts", options_.memo->facts.size());
  options_.checkpoint_sink(*options_.memo);
}

SearchStats NodeSweeper::MergedStats() const {
  SearchStats merged;
  for (const auto& lane : lanes_) merged.Add(lane->stats());
  return merged;
}

Status ReleaseNode(const NodeSweeper& sweeper, const LatticeNode& node,
                   size_t k, SearchResult* result) {
  EncodedWorkspace ws;
  PSK_ASSIGN_OR_RETURN(MaskedMicrodata mm,
                       DecodeMasked(sweeper.encoded(), node, k, &ws));
  result->found = true;
  result->node = node;
  result->masked = std::move(mm.table);
  result->suppressed = mm.suppressed;
  return Status::OK();
}

namespace {

// Among a set of minimal nodes, prefer the lowest height, then
// lexicographic order (deterministic).
const LatticeNode* PickNode(const std::vector<LatticeNode>& nodes) {
  const LatticeNode* best = nullptr;
  for (const LatticeNode& node : nodes) {
    if (best == nullptr || node.Height() < best->Height() ||
        (node.Height() == best->Height() && node < *best)) {
      best = &node;
    }
  }
  return best;
}

}  // namespace

Status ReleaseLowestMinimalNode(const NodeSweeper& sweeper,
                                const SearchOptions& options,
                                SearchResult* result) {
  const LatticeNode* best = PickNode(result->minimal_nodes);
  if (best == nullptr) return Status::OK();
  TraceSpan span(options.trace, "materialize");
  return ReleaseNode(sweeper, *best, options.k, result);
}

}  // namespace psk
