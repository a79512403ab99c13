#include "psk/algorithms/bottom_up.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "psk/table/encoded.h"

namespace psk {

Result<SearchResult> BottomUpSearch(const Table& initial_microdata,
                                    const HierarchySet& hierarchies,
                                    const SearchOptions& options) {
  NodeSweeper sweeper(initial_microdata, hierarchies, options);
  PSK_RETURN_IF_ERROR(sweeper.Init());
  NodeEvaluator& primary = sweeper.primary();

  SearchResult result;
  if (!sweeper.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = sweeper.MergedStats();
    return result;
  }

  GeneralizationLattice lattice(hierarchies);

  // Per-attribute level lower bounds from the subset/rollup property: if
  // {A_i} at level l already forces more than TS suppressions, so does any
  // full node with levels[i] == l. The per-attribute grouping is a
  // single-column code pass over the encoded core, run sequentially in a
  // local workspace.
  std::vector<int> lower_bounds(hierarchies.size(), 0);
  {
    TraceSpan span(options.trace, "lower_bounds");
    span.Counter("attributes", hierarchies.size());
    const EncodedTable& encoded = sweeper.encoded();
    EncodedWorkspace ws;
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

  auto below_bound = [&](const LatticeNode& node) {
    for (size_t i = 0; i < lower_bounds.size(); ++i) {
      if (node.levels[i] < lower_bounds[i]) return true;
    }
    return false;
  };
  // Dominance pruning: a generalization of a known minimal node satisfies
  // the property (monotonicity) but cannot be minimal.
  auto dominated = [&](const LatticeNode& node) {
    return std::any_of(result.minimal_nodes.begin(),
                       result.minimal_nodes.end(),
                       [&](const LatticeNode& minimal) {
                         return GeneralizationLattice::IsGeneralizationOf(
                             node, minimal);
                       });
  };

  // One wave per height: filter sequentially, then sweep the survivors.
  // Dominance only ever reaches down to strictly lower heights (nodes of
  // equal height are incomparable), so the evaluated set, every counter
  // and the release match a node-at-a-time walk at any thread count.
  bool stopped = false;
  for (int h = 0; h <= lattice.height() && !stopped; ++h) {
    TraceSpan span(options.trace, "height");
    span.Attr("height", std::to_string(h));
    std::vector<LatticeNode> pending;
    for (const LatticeNode& node : lattice.NodesAtHeight(h)) {
      if (below_bound(node) || dominated(node)) {
        ++primary.mutable_stats()->nodes_skipped;
      } else {
        pending.push_back(node);
      }
    }
    if (!pending.empty()) {
      std::vector<std::optional<NodeEvaluation>> evals;
      Status swept = sweeper.Sweep(pending, &evals);
      if (!swept.ok()) {
        // Budget stop: the minimal nodes collected so far stay valid (every
        // one was fully evaluated); anything else propagates.
        if (!AbsorbBudgetStop(swept, primary.mutable_stats())) return swept;
        stopped = true;
      }
      for (size_t i = 0; i < pending.size(); ++i) {
        if (evals[i].has_value() && evals[i]->satisfied) {
          result.minimal_nodes.push_back(pending[i]);
          result.satisfying_nodes.push_back(pending[i]);
        }
      }
    }
    // A completed height is the BFS's crash-recovery boundary.
    sweeper.FlushCheckpoint();
  }
  std::sort(result.minimal_nodes.begin(), result.minimal_nodes.end());
  result.stats = sweeper.MergedStats();
  PSK_RETURN_IF_ERROR(ReleaseLowestMinimalNode(sweeper, options, &result));
  return result;
}

}  // namespace psk
