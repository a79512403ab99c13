#include "psk/algorithms/samarati.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace psk {
namespace {

// Nodes per probe batch. Fixed — independent of the thread count — so the
// set of evaluated nodes (and with it every stats counter) is identical
// for sequential and parallel runs: a probe scans whole chunks and stops
// after the first chunk containing a satisfying node, instead of the
// first satisfying node. The over-evaluation per successful probe is
// bounded by one chunk.
constexpr size_t kProbeChunk = 64;

// Evaluates `nodes` (every node at height h, in lexicographic order) chunk
// by chunk until a chunk contains a satisfying node; returns the
// lexicographically first one (the same witness a node-at-a-time scan
// produces). A probed height is a natural crash-recovery boundary: its
// verdicts decide one whole step of the search, so they are flushed
// together. The span's `hit` attribute records the verdict ("1" or "0");
// a probe cut short by an error or a budget stop carries none.
Result<std::optional<LatticeNode>> ProbeHeight(
    NodeSweeper& sweeper, RunTrace* trace, int h,
    const std::vector<LatticeNode>& nodes) {
  TraceSpan span(trace, "probe_height");
  span.Attr("height", std::to_string(h));
  ++sweeper.primary().mutable_stats()->heights_probed;
  std::vector<std::optional<NodeEvaluation>> evals;
  for (size_t begin = 0; begin < nodes.size(); begin += kProbeChunk) {
    size_t end = std::min(begin + kProbeChunk, nodes.size());
    std::vector<LatticeNode> chunk(nodes.begin() + begin,
                                   nodes.begin() + end);
    PSK_RETURN_IF_ERROR(sweeper.Sweep(chunk, &evals));
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (evals[i].has_value() && evals[i]->satisfied) {
        span.Attr("hit", "1");
        sweeper.FlushCheckpoint();
        return std::optional<LatticeNode>(chunk[i]);
      }
    }
  }
  span.Attr("hit", "0");
  sweeper.FlushCheckpoint();
  return std::optional<LatticeNode>(std::nullopt);
}

// Picks the next height to probe in [low, high) and enumerates its nodes
// into `nodes`. A refuted probe costs its whole height, a successful one
// at most one chunk past its witness, and only the refutation of high - 1
// proves a hit at `high` minimal. So once a probe has hit (`hit_seen`, with
// the best hit at `high`), the search descends to high - 1 while that
// height is wider than a chunk; otherwise it bisects.
int NextProbe(const GeneralizationLattice& lattice, int low, int high,
              bool hit_seen, std::vector<LatticeNode>* nodes) {
  int mid = (low + high) / 2;
  if (hit_seen) {
    *nodes = lattice.NodesAtHeight(high - 1);
    if (nodes->size() > kProbeChunk || mid == high - 1) return high - 1;
  }
  *nodes = lattice.NodesAtHeight(mid);
  return mid;
}

}  // namespace

Result<SearchResult> SamaratiSearch(const Table& initial_microdata,
                                    const HierarchySet& hierarchies,
                                    const SearchOptions& options) {
  NodeSweeper sweeper(initial_microdata, hierarchies, options);
  PSK_RETURN_IF_ERROR(sweeper.Init());
  SearchStats* stats = sweeper.primary().mutable_stats();

  SearchResult result;
  if (!sweeper.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = sweeper.MergedStats();
    return result;
  }

  GeneralizationLattice lattice(hierarchies);
  int low = 0;
  int high = lattice.height();
  std::optional<LatticeNode> best;
  bool stopped = false;

  {
    TraceSpan phase(options.trace, "binary_search");
    std::vector<LatticeNode> nodes;
    while (low < high) {
      int h = NextProbe(lattice, low, high, best.has_value(), &nodes);
      Result<std::optional<LatticeNode>> hit =
          ProbeHeight(sweeper, options.trace, h, nodes);
      if (!hit.ok()) {
        // A budget stop keeps the best satisfying node seen so far (it is a
        // valid, if possibly non-minimal, solution); hard errors propagate.
        if (!AbsorbBudgetStop(hit.status(), stats)) {
          return hit.status();
        }
        stopped = true;
        break;
      }
      if (hit->has_value()) {
        best = *hit;
        high = h;
      } else {
        low = h + 1;
      }
    }
  }

  // Every probed height lies below `high`, and a successful probe lowers
  // `high` to its own height, so if any probe succeeded `best` is already
  // a witness at `low`. Otherwise `low` is height(GL), a height no probe
  // reached: probe the lattice top.
  if (!stopped && !best.has_value()) {
    TraceSpan phase(options.trace, "confirm");
    Result<std::optional<LatticeNode>> hit =
        ProbeHeight(sweeper, options.trace, lattice.height(),
                    lattice.NodesAtHeight(lattice.height()));
    if (hit.ok()) {
      best = *hit;
    } else if (!AbsorbBudgetStop(hit.status(), stats)) {
      return hit.status();
    }
  }

  if (best.has_value()) {
    TraceSpan phase(options.trace, "materialize");
    EncodedWorkspace ws;
    Result<MaskedMicrodata> mm =
        DecodeMasked(sweeper.encoded(), *best, options.k, &ws);
    if (!mm.ok()) return mm.status();
    result.found = true;
    result.node = *best;
    result.masked = std::move(mm->table);
    result.suppressed = mm->suppressed;
  }
  result.stats = sweeper.MergedStats();
  return result;
}

}  // namespace psk
