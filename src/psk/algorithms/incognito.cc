#include "psk/algorithms/incognito.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

namespace psk {
namespace {

// Enumerates the nodes of the sub-lattice spanned by `attrs` in
// height-major order.
std::vector<std::vector<int>> SubLatticeNodes(
    const std::vector<size_t>& attrs, const std::vector<int>& max_levels) {
  std::vector<int> dims;
  dims.reserve(attrs.size());
  for (size_t a : attrs) dims.push_back(max_levels[a]);
  GeneralizationLattice sub(dims);
  std::vector<std::vector<int>> nodes;
  for (const LatticeNode& node : sub.AllNodes()) {
    nodes.push_back(node.levels);
  }
  return nodes;
}

// All subsets of {0..m-1} of the given size, each sorted ascending.
void Subsets(size_t m, size_t size, std::vector<std::vector<size_t>>* out) {
  std::vector<size_t> current;
  // Iterative combination enumeration.
  std::vector<size_t> idx(size);
  for (size_t i = 0; i < size; ++i) idx[i] = i;
  while (true) {
    out->push_back(idx);
    // Advance.
    size_t i = size;
    while (i > 0) {
      --i;
      if (idx[i] != i + m - size) {
        ++idx[i];
        for (size_t j = i + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (size == 0) return;
  }
}

}  // namespace

Result<MinimalSetResult> IncognitoSearch(
    const Table& initial_microdata, const HierarchySet& hierarchies,
    const SearchOptions& options,
    const IncognitoOptions& incognito_options) {
  NodeSweeper sweeper(initial_microdata, hierarchies, options);
  PSK_RETURN_IF_ERROR(sweeper.Init());

  MinimalSetResult result;
  if (!sweeper.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = sweeper.MergedStats();
    return result;
  }

  std::vector<int> max_levels = hierarchies.MaxLevels();
  size_t m = max_levels.size();
  SearchStats* stats = sweeper.primary().mutable_stats();
  // The subset p-prune is sound only without suppression — see
  // IncognitoOptions::prune_p_on_subsets.
  const bool prune_p = incognito_options.prune_p_on_subsets &&
                       options.p >= 2 && options.max_suppression == 0;

  // sat[subset] = level vectors (over that subset) that are k-anonymous
  // within the suppression budget.
  std::map<std::vector<size_t>, std::set<std::vector<int>>> sat;
  bool stopped = false;

  auto level_height = [](const std::vector<int>& levels) {
    int h = 0;
    for (int level : levels) h += level;
    return h;
  };

  // Explicit Begin/End (not RAII) so the subset span closes before the
  // final phase opens its sibling; a hard error may leave it open, which
  // RunTrace::Close() repairs at export time.
  RunTrace* trace = options.trace;
  if (trace != nullptr) trace->Begin("subset_phase");
  for (size_t size = 1; size <= m && !stopped; ++size) {
    std::vector<std::vector<size_t>> subsets;
    Subsets(m, size, &subsets);
    if (trace != nullptr) trace->Counter("subset_count", subsets.size());
    for (const std::vector<size_t>& attrs : subsets) {
      if (stopped) break;
      std::set<std::vector<int>>& satisfied = sat[attrs];
      std::vector<std::vector<int>> nodes =
          SubLatticeNodes(attrs, max_levels);
      // The sublattice is enumerated height-major; nodes at one height are
      // independent (apriori consults finished subsets, rollup consults
      // strictly lower heights), so each height segment is filtered
      // sequentially and the surviving nodes are swept as one wave. The
      // evaluated set is identical for every thread count.
      size_t seg_begin = 0;
      while (seg_begin < nodes.size() && !stopped) {
        int height = level_height(nodes[seg_begin]);
        size_t seg_end = seg_begin;
        while (seg_end < nodes.size() &&
               level_height(nodes[seg_end]) == height) {
          ++seg_end;
        }
        std::vector<std::vector<int>> pending;
        for (size_t n = seg_begin; n < seg_end; ++n) {
          const std::vector<int>& levels = nodes[n];
          // Apriori: every (size-1)-subset projection must have satisfied.
          bool pruned = false;
          if (size > 1) {
            for (size_t drop = 0; drop < size && !pruned; ++drop) {
              std::vector<size_t> parent_attrs;
              std::vector<int> parent_levels;
              for (size_t i = 0; i < size; ++i) {
                if (i == drop) continue;
                parent_attrs.push_back(attrs[i]);
                parent_levels.push_back(levels[i]);
              }
              if (sat[parent_attrs].count(parent_levels) == 0) pruned = true;
            }
          }
          if (pruned) {
            ++stats->nodes_skipped;
            continue;
          }
          // Rollup: a direct predecessor (one level lower in one
          // attribute) that satisfied implies this node satisfies.
          bool rolled_up = false;
          for (size_t i = 0; i < size && !rolled_up; ++i) {
            if (levels[i] == 0) continue;
            std::vector<int> pred = levels;
            --pred[i];
            if (satisfied.count(pred) > 0) rolled_up = true;
          }
          if (rolled_up) {
            satisfied.insert(levels);
            ++stats->nodes_skipped;
            continue;
          }
          pending.push_back(levels);
        }
        if (!pending.empty()) {
          std::vector<std::optional<bool>> passed;
          Status swept =
              sweeper.SweepSubsets(attrs, pending, prune_p, &passed);
          // Merge before absorbing a budget stop: every verdict in `sat`
          // was fully verified, so the final phase can still mine them
          // for (possibly incomplete) minimal nodes.
          for (size_t i = 0; i < pending.size(); ++i) {
            if (passed[i].value_or(false)) satisfied.insert(pending[i]);
          }
          if (!swept.ok()) {
            if (!AbsorbBudgetStop(swept, stats)) {
              return swept;
            }
            stopped = true;
          }
        }
        seg_begin = seg_end;
      }
      // A finished subset is Incognito's crash-recovery boundary.
      sweeper.FlushCheckpoint();
    }
  }
  if (trace != nullptr) trace->End();

  // Final phase: the full-QI survivors, in height order. For p = 1 the
  // subset machinery has already decided k-anonymity; minimality still
  // requires the dominance filter. For p >= 2 each candidate runs the full
  // evaluation (Conditions + per-group scan).
  std::vector<size_t> full(m);
  for (size_t i = 0; i < m; ++i) full[i] = i;
  std::vector<LatticeNode> candidates;
  for (const std::vector<int>& levels : sat[full]) {
    candidates.push_back(LatticeNode{levels});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const LatticeNode& a, const LatticeNode& b) {
              int ha = a.Height();
              int hb = b.Height();
              return ha != hb ? ha < hb : a < b;
            });

  // Dominance against accepted minimal nodes only ever reaches down to
  // strictly lower heights (equal-height nodes are incomparable), so the
  // candidates are processed in per-height waves: filter sequentially,
  // then evaluate the survivors of one height as a single parallel sweep.
  // The evaluated set matches the sequential node-at-a-time scan exactly.
  TraceSpan final_span(trace, "final_phase");
  final_span.Counter("candidates", candidates.size());
  size_t wave_begin = 0;
  bool final_stopped = false;
  while (wave_begin < candidates.size() && !final_stopped) {
    int height = candidates[wave_begin].Height();
    size_t wave_end = wave_begin;
    while (wave_end < candidates.size() &&
           candidates[wave_end].Height() == height) {
      ++wave_end;
    }
    std::vector<LatticeNode> pending;
    for (size_t i = wave_begin; i < wave_end; ++i) {
      const LatticeNode& node = candidates[i];
      bool dominated = false;
      for (const LatticeNode& minimal : result.minimal_nodes) {
        if (GeneralizationLattice::IsGeneralizationOf(node, minimal)) {
          dominated = true;
          break;
        }
      }
      if (dominated) {
        ++stats->nodes_skipped;
        if (options.p < 2) result.satisfying_nodes.push_back(node);
        continue;
      }
      if (options.p < 2) {
        // Already known k-anonymous within budget.
        result.minimal_nodes.push_back(node);
        result.satisfying_nodes.push_back(node);
        continue;
      }
      pending.push_back(node);
    }
    if (!pending.empty()) {
      std::vector<std::optional<NodeEvaluation>> evals;
      Status swept = sweeper.Sweep(pending, &evals);
      // A finished height is the final phase's crash-recovery boundary, so
      // a complete run's last snapshot holds every verdict.
      sweeper.FlushCheckpoint();
      if (!swept.ok()) {
        if (!AbsorbBudgetStop(swept, stats)) {
          return swept;
        }
        final_stopped = true;
      }
      for (size_t i = 0; i < pending.size(); ++i) {
        if (evals[i].has_value() && evals[i]->satisfied) {
          result.minimal_nodes.push_back(pending[i]);
          result.satisfying_nodes.push_back(pending[i]);
        }
      }
    }
    wave_begin = wave_end;
  }
  std::sort(result.minimal_nodes.begin(), result.minimal_nodes.end());
  std::sort(result.satisfying_nodes.begin(), result.satisfying_nodes.end());
  result.stats = sweeper.MergedStats();
  return result;
}

}  // namespace psk
