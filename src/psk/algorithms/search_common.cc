#include "psk/algorithms/search_common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>

#include "psk/common/thread_pool.h"
#include "psk/table/group_by.h"

namespace psk {

VerdictCache::~VerdictCache() {
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_ != nullptr) memory_->Release(bytes_);
}

bool VerdictCache::Lookup(const std::string& key, NodeEvaluation* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  // Bump recency: splice moves the node to the front without invalidating
  // the iterators the map holds.
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  return true;
}

void VerdictCache::Insert(const std::string& key, const NodeEvaluation& eval) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.find(key) != map_.end()) return;  // first verdict wins
  uint64_t cost = EntryBytes(key);
  if (max_bytes_ != 0 && cost > max_bytes_) return;  // could never fit
  if (memory_ != nullptr) {
    Status charged = memory_->Charge(cost);
    if (!charged.ok()) {
      // The job is at its hard memory limit: losing a memoization is the
      // cheapest possible degradation, so drop the insert rather than
      // failing the evaluation that produced it.
      return;
    }
  }
  lru_.emplace_front(key, eval);
  map_.emplace(key, lru_.begin());
  bytes_ += cost;
  EvictToCapLocked();
}

void VerdictCache::set_max_bytes(uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = max_bytes;
  EvictToCapLocked();
}

void VerdictCache::set_memory_budget(std::shared_ptr<MemoryBudget> budget) {
  std::lock_guard<std::mutex> lock(mu_);
  if (memory_ != nullptr) memory_->Release(bytes_);
  memory_ = std::move(budget);
  if (memory_ != nullptr && bytes_ > 0) {
    // Re-charge existing contents best effort: if the budget rejects
    // them, keep the entries (they exist either way) — the next insert's
    // eviction pressure will shrink the books back into line.
    memory_->Charge(bytes_).ok();
  }
}

void VerdictCache::EvictToCapLocked() {
  if (max_bytes_ == 0) return;
  while (bytes_ > max_bytes_ && !lru_.empty()) {
    auto& victim = lru_.back();
    uint64_t cost = EntryBytes(victim.first);
    map_.erase(victim.first);
    lru_.pop_back();
    bytes_ = bytes_ > cost ? bytes_ - cost : 0;
    if (memory_ != nullptr) memory_->Release(cost);
  }
}

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

NodeEvaluator::NodeEvaluator(const Table& initial_microdata,
                             const HierarchySet& hierarchies,
                             SearchOptions options)
    : im_(initial_microdata),
      hierarchies_(hierarchies),
      options_(options) {}

Status NodeEvaluator::Init() {
  if (options_.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (options_.p < 1) return Status::InvalidArgument("p must be >= 1");
  if (options_.p > options_.k) {
    return Status::InvalidArgument("p must be <= k");
  }
  if (im_.schema().KeyIndices().empty()) {
    return Status::FailedPrecondition(
        "the schema declares no key (quasi-identifier) attributes");
  }
  // Build the dictionary-encoded evaluation core unless the owner shared
  // one. A failed build (e.g. a value some hierarchy cannot generalize)
  // fails Init with the hierarchy's own status, before any node runs.
  if (encoded_ == nullptr) {
    PSK_ASSIGN_OR_RETURN(EncodedTable built,
                         EncodedTable::Build(im_, hierarchies_));
    encoded_ = std::make_shared<const EncodedTable>(std::move(built));
    // EncodedTable::Build memory seam (self-built path; an external table
    // is charged by its owner, the NodeSweeper). A rejected charge fails
    // Init with kResourceExhausted, which the fallback chain treats like
    // any other exhausted budget.
    PSK_RETURN_IF_ERROR(encoded_reservation_.Reserve(
        options_.budget.memory, encoded_->ApproxBytes()));
  }
  // Attach the scratch-growth accountant (no-op without a memory budget);
  // EvaluateEncoded delta-resizes it as the group-by buffers grow.
  PSK_RETURN_IF_ERROR(scratch_reservation_.Reserve(options_.budget.memory, 0));
  if (options_.p >= 2) {
    if (im_.schema().ConfidentialIndices().empty()) {
      return Status::FailedPrecondition(
          "p >= 2 requires at least one confidential attribute");
    }
    // Theorems 1 and 2: bounds computed on the initial microdata are valid
    // for every masked microdata derived by generalization + suppression.
    PSK_ASSIGN_OR_RETURN(FrequencyStats stats,
                         FrequencyStats::Compute(*encoded_));
    condition1_holds_ = options_.p <= stats.MaxP();
    if (condition1_holds_) {
      PSK_ASSIGN_OR_RETURN(max_groups_, stats.MaxGroups(options_.p));
    }
  }
  if (enforcer_ == nullptr) {
    enforcer_ = std::make_shared<BudgetEnforcer>(options_.budget);
  }
  checkpointing_ =
      options_.restore != nullptr || options_.checkpoint_sink != nullptr;
  if (options_.restore != nullptr) snapshot_ = *options_.restore;
  initialized_ = true;
  return Status::OK();
}

Status NodeEvaluator::TickReplay() {
  ++stats_.replay_ticks;
  if (++replay_hits_since_check_ < kReplayCheckInterval) return Status::OK();
  replay_hits_since_check_ = 0;
  // Deadline/cancellation only — a fast-forward costs no real work, so the
  // node/row budget is not charged.
  return enforcer_->Check();
}

void NodeEvaluator::TickCheckpoint() {
  if (options_.checkpoint_sink == nullptr) return;
  if (++ticks_since_checkpoint_ < std::max<uint64_t>(
          options_.checkpoint_interval, 1)) {
    return;
  }
  FlushCheckpoint();
}

void NodeEvaluator::FlushCheckpoint() {
  if (options_.checkpoint_sink == nullptr) return;
  ticks_since_checkpoint_ = 0;
  // Checkpointing forces a single sequential worker, so this always runs
  // on the control thread and may open spans on the trace directly.
  TraceSpan span(trace_, "checkpoint_io");
  span.Counter("verdicts", snapshot_.verdicts.size());
  span.Counter("facts", snapshot_.facts.size());
  options_.checkpoint_sink(snapshot_);
}

void NodeEvaluator::RecordEvalEvent(const std::string& key, const char* path,
                                    const NodeEvaluation& eval,
                                    int64_t start_ns) {
  TraceEvent event;
  event.name = "eval";
  event.order_key = key;
  event.start_ns = start_ns;
  event.duration_ns = trace_->NowNs() - start_ns;
  event.attrs.emplace_back("node", key);
  event.attrs.emplace_back("path", path);
  event.attrs.emplace_back("stage", CheckStageName(eval.stage));
  trace_buffer_->Record(std::move(event));
}

Result<NodeEvaluation> NodeEvaluator::Evaluate(const LatticeNode& node) {
  if (!initialized_) {
    return Status::FailedPrecondition("NodeEvaluator::Init was not called");
  }
  if (!condition1_holds_) {
    return Status::FailedPrecondition(
        "Condition 1 fails for the requested p; no node can satisfy it");
  }
  std::string key;
  if (checkpointing_ || cache_ != nullptr || trace_buffer_ != nullptr) {
    key = SnapshotNodeKey(node);
  }
  int64_t trace_start = trace_buffer_ != nullptr ? trace_->NowNs() : 0;
  if (checkpointing_) {
    auto cached = snapshot_.verdicts.find(key);
    if (cached != snapshot_.verdicts.end()) {
      // Resume fast-forward: recount the stored verdict into the stats
      // exactly as the original evaluation did, so a resumed run finishes
      // with the same counters as an uninterrupted one. No budget charge —
      // no table was generalized — but deadline and cancellation are still
      // polled so a replay of a large snapshot can be stopped.
      PSK_RETURN_IF_ERROR(TickReplay());
      const NodeEvaluation& eval = cached->second;
      ++stats_.nodes_generalized;
      // Recount the cache and evaluation counters the way the original
      // evaluation did, so the resumed run's totals converge on the
      // uninterrupted run's.
      if (cache_ != nullptr) ++stats_.nodes_cache_misses;
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
      // A re-request in this run would hit the snapshot again (it is
      // looked up first) and recount; the insert is for a later search
      // that shares an external cache, as a fresh verdict's is.
      if (cache_ != nullptr) cache_->Insert(key, eval);
      if (trace_buffer_ != nullptr) {
        RecordEvalEvent(key, "replay", eval, trace_start);
      }
      TickCheckpoint();
      return eval;
    }
  }
  if (cache_ != nullptr) {
    NodeEvaluation hit;
    if (cache_->Lookup(key, &hit)) {
      // Already evaluated (and counted) by an earlier search through this
      // cache — re-serve the verdict for free, still honoring
      // deadline/cancellation.
      PSK_RETURN_IF_ERROR(TickReplay());
      ++stats_.nodes_cache_hits;
      if (trace_buffer_ != nullptr) {
        RecordEvalEvent(key, "cache", hit, trace_start);
      }
      return hit;
    }
    ++stats_.nodes_cache_misses;
  }
  Result<NodeEvaluation> body = EvaluateEncoded(node);
  if (!body.ok()) return body.status();
  // Completed verdicts enter the snapshot so the next checkpoint persists
  // them; a budget stop inside the body never reaches here, keeping the
  // snapshot free of half-finished evaluations.
  NodeEvaluation eval = *body;
  if (cache_ != nullptr) cache_->Insert(key, eval);
  if (trace_buffer_ != nullptr) {
    RecordEvalEvent(key, "encoded", eval, trace_start);
  }
  if (checkpointing_) snapshot_.verdicts.emplace(std::move(key), eval);
  TickCheckpoint();
  return eval;
}

Status NodeEvaluator::BeginGroupBy() {
  // Budget checkpoint: every evaluation groups the whole table, so this is
  // the natural unit of work to account.
  PSK_RETURN_IF_ERROR(enforcer_->Charge(1, im_.num_rows()));
  // Fine decomposition axis: grant the group-by its row workers, resolved
  // against the pool's current fair share so a saturated pool degrades to
  // the sequential path instead of queueing. Verdicts are identical at
  // any lane count (GroupByCodesSliced is bit-identical to sequential).
  ws_.min_rows_per_slice = options_.min_rows_per_slice;
  ws_.row_workers =
      row_worker_cap_ <= 1
          ? 1
          : ThreadPool::Shared().FairShareWorkers(row_worker_cap_);
  return Status::OK();
}

Result<bool> NodeEvaluator::EvaluateSubset(const std::vector<size_t>& attrs,
                                           const std::vector<int>& levels,
                                           bool prune_p) {
  if (!initialized_) {
    return Status::FailedPrecondition("NodeEvaluator::Init was not called");
  }
  std::string key;
  if (checkpointing_) {
    key = SubsetFactKey(attrs, levels);
    auto fact = snapshot_.facts.find(key);
    if (fact != snapshot_.facts.end()) {
      // Resume fast-forward: the interrupted run decided this subset node,
      // so reuse its verdict without scanning the table or charging the
      // budget (deadline and cancellation are still polled).
      PSK_RETURN_IF_ERROR(TickReplay());
      ++stats_.subset_nodes_evaluated;
      TickCheckpoint();
      return fact->second;
    }
  }
  PSK_RETURN_IF_ERROR(BeginGroupBy());
  ++stats_.subset_nodes_evaluated;
  encoded_->GroupBySubset(attrs, levels, &ws_);
  PSK_RETURN_IF_ERROR(scratch_reservation_.Resize(ws_.ApproxBytes()));
  bool ok = ws_.groups.RowsInGroupsSmallerThan(options_.k) <=
            options_.max_suppression;
  // The subset p-prune is sound only without suppression; the caller
  // decides (see IncognitoOptions::prune_p_on_subsets).
  if (ok && prune_p) {
    ok = IsPSensitiveEncoded(ws_.groups, *encoded_, options_.p,
                             /*min_group_size=*/1, &distinct_scratch_);
  }
  if (checkpointing_) snapshot_.facts.emplace(std::move(key), ok);
  TickCheckpoint();
  return ok;
}

Result<NodeEvaluation> NodeEvaluator::EvaluateEncoded(
    const LatticeNode& node) {
  PSK_RETURN_IF_ERROR(BeginGroupBy());
  ++stats_.nodes_generalized;
  ++stats_.nodes_evaluated_encoded;
  PSK_RETURN_IF_ERROR(encoded_->GroupByNode(node, &ws_));
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
    if (!IsPSensitiveEncoded(groups, *encoded_, options_.p, options_.k,
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

Result<MaskedMicrodata> NodeEvaluator::Materialize(
    const LatticeNode& node) const {
  // Decode exactly once from the code vectors.
  EncodedWorkspace ws;
  return DecodeMasked(*encoded_, node, options_.k, &ws);
}

NodeSweeper::NodeSweeper(const Table& initial_microdata,
                         const HierarchySet& hierarchies,
                         SearchOptions options)
    : im_(initial_microdata),
      hierarchies_(hierarchies),
      options_(std::move(options)) {}

Status NodeSweeper::Init() {
  // Checkpointed runs stay sequential: the snapshot is accumulated by one
  // evaluator, and resume's deterministic-replay guarantee forbids
  // non-deterministic shard interleaving.
  bool checkpointed = options_.restore != nullptr ||
                      options_.checkpoint_sink != nullptr;
  size_t num_workers =
      (checkpointed || options_.threads <= 1) ? 1 : options_.threads;

  workers_.clear();
  workers_.reserve(num_workers);
  // Sized once up front: workers capture pointers into this vector, so it
  // must never reallocate after the first set_trace.
  trace_buffers_.clear();
  if (options_.trace != nullptr) trace_buffers_.resize(num_workers);

  // Encode the table once and share it across workers — the encoding is
  // immutable after Build, so concurrent GroupByNode calls (each with a
  // per-worker workspace) are race-free. A failed build fails Init with
  // Build's own status (see NodeEvaluator::Init).
  std::shared_ptr<const EncodedTable> encoded;
  {
    TraceSpan span(options_.trace, "encode");
    span.Counter("rows", im_.num_rows());
    PSK_ASSIGN_OR_RETURN(EncodedTable built,
                         EncodedTable::Build(im_, hierarchies_));
    encoded = std::make_shared<const EncodedTable>(std::move(built));
  }
  // EncodedTable::Build memory seam: one charge for the whole sweep (every
  // worker shares the same immutable encoding). A rejected charge fails
  // Init with kResourceExhausted before any node is evaluated — the
  // fallback chain decides what runs instead.
  PSK_RETURN_IF_ERROR(encoded_reservation_.Reserve(options_.budget.memory,
                                                   encoded->ApproxBytes()));

  workers_.push_back(
      std::make_unique<NodeEvaluator>(im_, hierarchies_, options_));
  workers_.front()->set_verdict_cache(options_.verdict_cache);
  workers_.front()->set_encoded_table(encoded);
  if (options_.trace != nullptr) {
    workers_.front()->set_trace(options_.trace, &trace_buffers_[0]);
  }
  PSK_RETURN_IF_ERROR(workers_.front()->Init());

  // Secondary workers share the primary's enforcer (limits stay global)
  // and the caller's cache, if any; they never checkpoint (num_workers > 1
  // implies checkpointing is off, but clear the hooks anyway for belt and
  // braces).
  SearchOptions worker_options = options_;
  worker_options.restore = nullptr;
  worker_options.checkpoint_sink = nullptr;
  for (size_t w = 1; w < num_workers; ++w) {
    workers_.push_back(
        std::make_unique<NodeEvaluator>(im_, hierarchies_, worker_options));
    workers_.back()->set_enforcer(workers_.front()->enforcer());
    workers_.back()->set_verdict_cache(options_.verdict_cache);
    workers_.back()->set_encoded_table(encoded);
    if (options_.trace != nullptr) {
      workers_.back()->set_trace(options_.trace, &trace_buffers_[w]);
    }
    PSK_RETURN_IF_ERROR(workers_.back()->Init());
  }
  return Status::OK();
}

Status NodeSweeper::Sweep(const std::vector<LatticeNode>& nodes,
                          std::vector<std::optional<NodeEvaluation>>* evals) {
  evals->assign(nodes.size(), std::nullopt);
  return Drive(nodes.size(), [&](NodeEvaluator& worker, size_t index) {
    Result<NodeEvaluation> eval = worker.Evaluate(nodes[index]);
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
  return Drive(levels.size(), [&](NodeEvaluator& worker, size_t index) {
    Result<bool> ok = worker.EvaluateSubset(attrs, levels[index], prune_p);
    if (!ok.ok()) return ok.status();
    (*passed)[index] = *ok;
    return Status::OK();
  });
}

size_t NodeSweeper::BatchSize(size_t count, size_t active) const {
  if (active <= 1 || count == 0) return count == 0 ? 1 : count;
  // Nodes per task carrying ~kTargetBatchNs of measured work. Before the
  // first measurement, one node per task — the historical behavior — and
  // the first sweep's throughput sample corrects it from there.
  size_t by_time = 1;
  if (nodes_per_sec_ > 0) {
    by_time = static_cast<size_t>(nodes_per_sec_ * (kTargetBatchNs / 1e9));
    if (by_time < 1) by_time = 1;
  }
  // Never fewer tasks than workers, or lanes sit idle from the start.
  size_t max_batch = (count + active - 1) / active;
  return std::min(by_time, max_batch);
}

namespace {

/// Folds one sweep's measured per-lane throughput sample into the EWMA.
void UpdateThroughput(size_t evaluated, size_t lanes,
                      std::chrono::steady_clock::time_point begin,
                      double* nodes_per_sec) {
  if (evaluated == 0 || lanes == 0) return;
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
  if (secs <= 0) return;
  double sample = static_cast<double>(evaluated) / secs /
                  static_cast<double>(lanes);
  *nodes_per_sec =
      *nodes_per_sec > 0 ? 0.5 * (*nodes_per_sec + sample) : sample;
}

}  // namespace

Status NodeSweeper::Drive(size_t count, const ItemFn& evaluate) {
  RunTrace* trace = options_.trace;
  TraceSpan span(trace, "sweep");
  span.Counter("nodes", count);
  const auto sweep_begin = std::chrono::steady_clock::now();
  size_t active = std::min(workers_.size(), count);
  // Fair-share: when other sweeps are on the pool, take only an equal
  // split of it. Safe for correctness by the determinism contract (the
  // release and stats are identical for any worker count).
  if (active > 1) {
    active = ThreadPool::Shared().FairShareWorkers(active);
  }
  Status status = Status::OK();
  // Items completed per lane; each slot is written only by its lane.
  std::vector<size_t> evaluated(std::max<size_t>(active, 1), 0);

  if (active <= 1) {
    // Sequential over items, on the control thread — so the fine axis may
    // engage: when parallelism was requested but this sweep is too narrow
    // to shard (one item, or the pool's fair share is down to one lane
    // right now), spend the lanes *inside* each group-by instead. The cap
    // is resolved against the live fair share per evaluation; only a
    // control thread may do this (a nested ParallelFor from a pool task
    // can deadlock).
    NodeEvaluator& primary = *workers_.front();
    primary.set_row_workers(workers_.size());
    if (trace != nullptr && workers_.size() > 1) {
      trace->Timing("row_workers", workers_.size());
    }
    for (size_t index = 0; index < count && status.ok(); ++index) {
      status = evaluate(primary, index);
      if (status.ok()) ++evaluated[0];
    }
  } else {
    // Coarse axis: items grouped into per-task batches (BatchSize) so one
    // pool dispatch amortizes over >= ~10ms of work. Dynamic scheduling is
    // safe for determinism because every item is evaluated regardless of
    // which worker draws which batch; results land in per-index slots and
    // counter sums are order-independent. The primary evaluates inside the
    // pool region here, so its row-worker cap must be 1.
    workers_.front()->set_row_workers(1);
    const size_t batch = BatchSize(count, active);
    const size_t num_batches = (count + batch - 1) / batch;
    std::atomic<bool> stop{false};
    std::vector<Status> worker_status(active, Status::OK());
    // Per-worker busy time; written only by the worker owning the slot.
    // Measured once per *batch*, so per-task dispatch overhead is counted
    // exactly once per batch rather than accumulating per item.
    std::vector<int64_t> busy_ns(trace != nullptr ? active : 0, 0);
    if (trace != nullptr) {
      // Scheduling observations are Timings (non-structural): batch size
      // and lane count depend on measured throughput and pool load, and
      // must never enter the StructureSignature.
      trace->Timing("workers", active);
      trace->Timing("queue_depth", ThreadPool::Shared().ApproxQueueDepth());
      trace->Timing("batch_size", batch);
      trace->Timing("batches", num_batches);
    }
    // Shards carry the owning job's CancelToken: a pool worker that draws
    // a shard of a cancelled job observes the token before doing any work
    // and drains it immediately, so one dead job's queued shards can never
    // stall a neighbor sharing the pool.
    const CancelToken* cancel = options_.budget.cancel.get();
    ThreadPool::Shared().ParallelFor(
        num_batches, active, [&](size_t worker, size_t b) {
          if (stop.load(std::memory_order_relaxed)) return;  // drain fast
          const size_t begin = b * batch;
          const size_t end = std::min(begin + batch, count);
          int64_t begin_ns = trace != nullptr ? trace->NowNs() : 0;
          for (size_t index = begin; index < end; ++index) {
            // Re-check between items so a long batch drains mid-flight —
            // batching must not widen cancellation latency past one item.
            if (stop.load(std::memory_order_relaxed)) break;
            Status item = cancel != nullptr && cancel->cancelled()
                              ? Status::Cancelled("run cancelled by caller")
                              : evaluate(*workers_[worker], index);
            if (!item.ok()) {
              if (worker_status[worker].ok()) worker_status[worker] = item;
              // A tripped enforcer poisons every later Charge anyway; the
              // flag just skips the pointless evaluations in between.
              stop.store(true, std::memory_order_relaxed);
              break;
            }
            ++evaluated[worker];
          }
          if (trace != nullptr) {
            busy_ns[worker] += trace->NowNs() - begin_ns;
          }
        });
    for (size_t w = 0; w < busy_ns.size(); ++w) {
      trace->Timing("w" + std::to_string(w) + "_busy_ns",
                    static_cast<uint64_t>(busy_ns[w]));
    }
    // Hard errors (first by worker order) outrank budget stops: they must
    // propagate, while a budget stop is a valid partial result.
    for (const Status& worker_stop : worker_status) {
      if (worker_stop.ok()) continue;
      if (!IsBudgetExhausted(worker_stop)) {
        status = worker_stop;
        break;
      }
      if (status.ok()) status = worker_stop;
    }
  }
  size_t total = 0;
  for (size_t done : evaluated) total += done;
  UpdateThroughput(total, active, sweep_begin, &nodes_per_sec_);
  FlushTraceEvents();
  return status;
}

void NodeSweeper::FlushTraceEvents() {
  if (options_.trace == nullptr) return;
  std::vector<TraceEvent> events;
  for (TraceEventBuffer& buffer : trace_buffers_) {
    if (buffer.empty()) continue;
    std::vector<TraceEvent> drained = buffer.Take();
    events.insert(events.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
  }
  if (!events.empty()) options_.trace->MergeEvents(std::move(events));
}

SearchStats NodeSweeper::MergedStats() const {
  SearchStats merged;
  for (const auto& worker : workers_) merged.Add(worker->stats());
  return merged;
}

}  // namespace psk
