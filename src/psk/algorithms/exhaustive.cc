#include "psk/algorithms/exhaustive.h"

#include <optional>
#include <vector>

namespace psk {

Result<MinimalSetResult> ExhaustiveSearch(const Table& initial_microdata,
                                          const HierarchySet& hierarchies,
                                          const SearchOptions& options) {
  NodeSweeper sweeper(initial_microdata, hierarchies, options);
  PSK_RETURN_IF_ERROR(sweeper.Init());

  MinimalSetResult result;
  if (!sweeper.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = sweeper.MergedStats();
    return result;
  }

  GeneralizationLattice lattice(hierarchies);

  // One sweep per lattice height, enumerated lazily: a budget that trips
  // early never pays for materializing the rest of an exponential lattice.
  // The sweeper evaluates every node of a wave whatever the thread count,
  // verdicts land in height-major node order, and lane stats survive
  // every outcome, a hard error on one lane included.
  for (int h = 0; h <= lattice.height(); ++h) {
    TraceSpan span(options.trace, "height");
    span.Attr("height", std::to_string(h));
    std::vector<LatticeNode> nodes = lattice.NodesAtHeight(h);
    std::vector<std::optional<NodeEvaluation>> evals;
    Status swept = sweeper.Sweep(nodes, &evals);
    if (!swept.ok()) {
      if (!AbsorbBudgetStop(swept, sweeper.primary().mutable_stats())) {
        return swept;
      }
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (evals[i].has_value() && evals[i]->satisfied) {
          result.satisfying_nodes.push_back(nodes[i]);
        }
      }
      break;
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (evals[i]->satisfied) result.satisfying_nodes.push_back(nodes[i]);
    }
  }
  sweeper.FlushCheckpoint();
  result.stats = sweeper.MergedStats();
  result.minimal_nodes = MinimalNodes(result.satisfying_nodes);
  return result;
}

}  // namespace psk
