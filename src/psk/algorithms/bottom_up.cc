#include "psk/algorithms/bottom_up.h"

#include <algorithm>

#include "psk/table/encoded.h"

namespace psk {

Result<MinimalSetResult> BottomUpSearch(const Table& initial_microdata,
                                        const HierarchySet& hierarchies,
                                        const SearchOptions& options,
                                        const BottomUpOptions& bu_options) {
  NodeEvaluator evaluator(initial_microdata, hierarchies, options);
  // Sequential engine with a bare evaluator: one local event buffer stands
  // in for the sweeper's per-worker set, drained at each span close.
  RunTrace* trace = options.trace;
  TraceEventBuffer trace_buffer;
  if (trace != nullptr) evaluator.set_trace(trace, &trace_buffer);
  auto flush_events = [&] {
    if (trace != nullptr && !trace_buffer.empty()) {
      trace->MergeEvents(trace_buffer.Take());
    }
  };
  PSK_RETURN_IF_ERROR(evaluator.Init());
  // This engine walks nodes sequentially on the control thread, so any
  // requested parallelism goes entirely to the fine axis: row-sliced
  // group-bys inside each evaluation (bit-identical output). Checkpointed
  // runs stay fully sequential, like the sweeper-based engines.
  if (options.threads > 1 && options.restore == nullptr &&
      options.checkpoint_sink == nullptr) {
    evaluator.set_row_workers(options.threads);
  }

  MinimalSetResult result;
  if (!evaluator.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = evaluator.stats();
    return result;
  }

  GeneralizationLattice lattice(hierarchies);

  // Per-attribute level lower bounds from the subset/rollup property: if
  // {A_i} at level l already forces more than TS suppressions, so does any
  // full node with levels[i] == l. The per-attribute grouping is a
  // single-column code pass over the encoded core.
  std::vector<int> lower_bounds(hierarchies.size(), 0);
  if (bu_options.use_subset_lower_bounds) {
    TraceSpan span(trace, "lower_bounds");
    span.Counter("attributes", hierarchies.size());
    const EncodedTable& encoded = *evaluator.encoded_table();
    EncodedWorkspace ws;
    // Control-thread loop: the single-attribute group-bys may row-slice
    // with the same cap as the main walk.
    ws.row_workers = evaluator.row_workers();
    ws.min_rows_per_slice = options.min_rows_per_slice;
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      int level = 0;
      while (level < hierarchies.hierarchy(i).num_levels() - 1) {
        encoded.GroupBySubset({i}, {level}, &ws);
        if (ws.groups.RowsInGroupsSmallerThan(options.k) <=
            options.max_suppression) {
          break;
        }
        ++level;
      }
      lower_bounds[i] = level;
    }
  }

  bool stopped = false;
  for (int h = 0; h <= lattice.height() && !stopped; ++h) {
    TraceSpan span(trace, "height");
    span.Attr("height", std::to_string(h));
    for (const LatticeNode& node : lattice.NodesAtHeight(h)) {
      bool below_bound = false;
      for (size_t i = 0; i < lower_bounds.size(); ++i) {
        if (node.levels[i] < lower_bounds[i]) {
          below_bound = true;
          break;
        }
      }
      if (below_bound) {
        ++evaluator.mutable_stats()->nodes_skipped;
        continue;
      }
      // Dominance pruning: a generalization of a known minimal node
      // satisfies the property (monotonicity) but cannot be minimal.
      bool dominated = false;
      for (const LatticeNode& minimal : result.minimal_nodes) {
        if (GeneralizationLattice::IsGeneralizationOf(node, minimal)) {
          dominated = true;
          break;
        }
      }
      if (dominated) {
        ++evaluator.mutable_stats()->nodes_skipped;
        continue;
      }
      Result<NodeEvaluation> eval = evaluator.Evaluate(node);
      if (!eval.ok()) {
        // Budget stop: the minimal nodes collected so far stay valid (every
        // one was fully evaluated); anything else propagates.
        if (!AbsorbBudgetStop(eval.status(), evaluator.mutable_stats())) {
          return eval.status();
        }
        stopped = true;
        break;
      }
      if (eval->satisfied) {
        result.minimal_nodes.push_back(node);
        result.satisfying_nodes.push_back(node);
      }
    }
    // A completed height is the BFS's crash-recovery boundary.
    flush_events();
    evaluator.FlushCheckpoint();
  }
  std::sort(result.minimal_nodes.begin(), result.minimal_nodes.end());
  result.stats = evaluator.stats();
  return result;
}

}  // namespace psk
