#include "psk/algorithms/ola.h"

#include <algorithm>
#include <unordered_map>

#include "psk/metrics/metrics.h"

namespace psk {
namespace {

// Predictive tagging store: known satisfying / failing nodes, with
// monotone closure applied at lookup time.
class TagStore {
 public:
  enum class Tag { kUnknown, kSatisfied, kFailed };

  Tag Lookup(const LatticeNode& node) const {
    auto it = exact_.find(node);
    if (it != exact_.end()) return it->second ? Tag::kSatisfied : Tag::kFailed;
    for (const LatticeNode& s : satisfied_) {
      if (GeneralizationLattice::IsGeneralizationOf(node, s)) {
        return Tag::kSatisfied;
      }
    }
    for (const LatticeNode& f : failed_) {
      if (GeneralizationLattice::IsGeneralizationOf(f, node)) {
        return Tag::kFailed;
      }
    }
    return Tag::kUnknown;
  }

  void Record(const LatticeNode& node, bool satisfied) {
    exact_[node] = satisfied;
    if (satisfied) {
      satisfied_.push_back(node);
    } else {
      failed_.push_back(node);
    }
  }

 private:
  std::unordered_map<LatticeNode, bool, LatticeNodeHash> exact_;
  std::vector<LatticeNode> satisfied_;
  std::vector<LatticeNode> failed_;
};

// Enumerates nodes of the sub-lattice [bottom, top] whose height equals h.
void EnumerateInterval(const LatticeNode& bottom, const LatticeNode& top,
                       int h, size_t attr, LatticeNode* partial,
                       std::vector<LatticeNode>* out) {
  if (attr == bottom.levels.size()) {
    if (h == 0) out->push_back(*partial);
    return;
  }
  int remaining_max = 0;
  for (size_t i = attr + 1; i < bottom.levels.size(); ++i) {
    remaining_max += top.levels[i] - bottom.levels[i];
  }
  for (int level = bottom.levels[attr]; level <= top.levels[attr]; ++level) {
    int used = level - bottom.levels[attr];
    if (used > h) break;
    if (h - used > remaining_max) continue;
    partial->levels[attr] = level;
    EnumerateInterval(bottom, top, h - used, attr + 1, partial, out);
  }
  partial->levels[attr] = bottom.levels[attr];
}

// Discernibility of the release that suppresses every group smaller than
// k, read off the node's partition: sum of |G|^2 over the groups of at
// least k rows, plus `total_rows` for each suppressed row. Equals
// DiscernibilityMetric over the decoded release (k == 0 suppresses
// nothing, as in DecodeMasked).
uint64_t SuppressedDiscernibility(const EncodedGroups& groups, size_t k,
                                  size_t total_rows) {
  uint64_t dm = 0;
  for (uint32_t size : groups.group_sizes) {
    if (size >= k) dm += static_cast<uint64_t>(size) * size;
  }
  return dm + static_cast<uint64_t>(groups.RowsInGroupsSmallerThan(k)) *
                  total_rows;
}

std::vector<LatticeNode> NodesAtIntervalHeight(const LatticeNode& bottom,
                                               const LatticeNode& top,
                                               int h) {
  std::vector<LatticeNode> out;
  LatticeNode partial = bottom;
  EnumerateInterval(bottom, top, h, 0, &partial, &out);
  return out;
}

class OlaDriver {
 public:
  OlaDriver(NodeSweeper& sweeper, TagStore& tags)
      : sweeper_(sweeper), tags_(tags) {}

  Result<bool> Satisfies(const LatticeNode& node) {
    TagStore::Tag tag = tags_.Lookup(node);
    if (tag != TagStore::Tag::kUnknown) {
      ++sweeper_.primary().mutable_stats()->nodes_skipped;
      return tag == TagStore::Tag::kSatisfied;
    }
    std::vector<std::optional<NodeEvaluation>> evals;
    PSK_RETURN_IF_ERROR(sweeper_.Sweep({node}, &evals));
    tags_.Record(node, evals[0]->satisfied);
    return evals[0]->satisfied;
  }

  // Recursive bisection of the sub-lattice [bottom, top]; `bottom` is
  // assumed failing (or is the global bottom, checked by the caller) and
  // `top` satisfying.
  //
  // Each recursion level resolves its whole mid-height in two passes:
  // predictive tags first (monotone closure, free), then ONE sweep over
  // the remaining unknown nodes — the engine's parallel unit. Nodes at one
  // interval height are pairwise incomparable, so no sibling's verdict can
  // tag another sibling; resolving them together is semantically clean and
  // makes the evaluated set independent of the thread count.
  Status Bisect(const LatticeNode& bottom, const LatticeNode& top,
                std::vector<LatticeNode>* candidates) {
    int height = top.Height() - bottom.Height();
    if (height <= 1) {
      candidates->push_back(top);
      return Status::OK();
    }
    int mid = height / 2;
    std::vector<LatticeNode> nodes = NodesAtIntervalHeight(bottom, top, mid);
    std::vector<char> satisfies(nodes.size(), 0);
    std::vector<size_t> unknown;
    for (size_t i = 0; i < nodes.size(); ++i) {
      TagStore::Tag tag = tags_.Lookup(nodes[i]);
      if (tag == TagStore::Tag::kUnknown) {
        unknown.push_back(i);
      } else {
        ++sweeper_.primary().mutable_stats()->nodes_skipped;
        satisfies[i] = tag == TagStore::Tag::kSatisfied ? 1 : 0;
      }
    }
    if (!unknown.empty()) {
      std::vector<LatticeNode> pending;
      pending.reserve(unknown.size());
      for (size_t i : unknown) pending.push_back(nodes[i]);
      std::vector<std::optional<NodeEvaluation>> evals;
      PSK_RETURN_IF_ERROR(sweeper_.Sweep(pending, &evals));
      for (size_t j = 0; j < unknown.size(); ++j) {
        tags_.Record(pending[j], evals[j]->satisfied);
        satisfies[unknown[j]] = evals[j]->satisfied ? 1 : 0;
      }
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (satisfies[i] != 0) {
        PSK_RETURN_IF_ERROR(Bisect(bottom, nodes[i], candidates));
      } else {
        PSK_RETURN_IF_ERROR(Bisect(nodes[i], top, candidates));
      }
    }
    return Status::OK();
  }

 private:
  NodeSweeper& sweeper_;
  TagStore& tags_;
};

}  // namespace

Result<OlaResult> OlaSearch(const Table& initial_microdata,
                            const HierarchySet& hierarchies,
                            const OlaOptions& options) {
  NodeSweeper sweeper(initial_microdata, hierarchies, options.search);
  PSK_RETURN_IF_ERROR(sweeper.Init());
  SearchStats* stats = sweeper.primary().mutable_stats();

  OlaResult result;
  if (!sweeper.Condition1Holds()) {
    result.condition1_failed = true;
    result.stats = sweeper.MergedStats();
    return result;
  }

  GeneralizationLattice lattice(hierarchies);
  TagStore tags;
  OlaDriver driver(sweeper, tags);

  LatticeNode bottom = lattice.Bottom();
  LatticeNode top = lattice.Top();
  RunTrace* trace = options.search.trace;
  Result<bool> top_ok = [&] {
    TraceSpan span(trace, "check_top");
    Result<bool> ok = driver.Satisfies(top);
    return ok;
  }();
  if (!top_ok.ok()) {
    // Budget spent before even the lattice top was checked: nothing usable.
    if (!AbsorbBudgetStop(top_ok.status(), stats)) {
      return top_ok.status();
    }
    result.stats = sweeper.MergedStats();
    return result;
  }
  if (!*top_ok) {
    result.stats = sweeper.MergedStats();
    return result;  // nothing satisfies
  }
  std::vector<LatticeNode> candidates;
  Result<bool> bottom_ok = [&] {
    TraceSpan span(trace, "check_bottom");
    Result<bool> ok = driver.Satisfies(bottom);
    return ok;
  }();
  if (!bottom_ok.ok()) {
    if (!AbsorbBudgetStop(bottom_ok.status(), stats)) {
      return bottom_ok.status();
    }
    // The top satisfies and is the only verified node; fall through so the
    // metric phase can still materialize it.
    candidates.push_back(top);
  } else if (*bottom_ok) {
    candidates.push_back(bottom);
  } else {
    Status bisected = [&] {
      TraceSpan span(trace, "bisect");
      Status status = driver.Bisect(bottom, top, &candidates);
      return status;
    }();
    // Bisection is the bulk of OLA's work; make its verdicts durable
    // before the verification and metric phases re-consume them.
    sweeper.FlushCheckpoint();
    if (!bisected.ok()) {
      if (!AbsorbBudgetStop(bisected, stats)) {
        return bisected;
      }
      // Candidates collected before the stop are sub-lattice tops already
      // known to satisfy; the top of the lattice always qualifies.
      candidates.push_back(top);
    }
  }

  // Deduplicate, verify each candidate actually satisfies (bisection can
  // surface sub-lattice tops that were never directly evaluated), then
  // keep the dominance-minimal ones.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<LatticeNode> verified;
  {
    TraceSpan span(trace, "verify");
    span.Counter("candidates", candidates.size());
    for (const LatticeNode& node : candidates) {
      Result<bool> ok = driver.Satisfies(node);
      if (!ok.ok()) {
        if (!AbsorbBudgetStop(ok.status(), stats)) {
          return ok.status();
        }
        // Unverifiable under the exhausted budget; tag-known candidates are
        // still resolved without charging, so keep scanning.
        continue;
      }
      if (*ok) verified.push_back(node);
    }
  }
  result.minimal_nodes = MinimalNodes(verified);
  if (result.minimal_nodes.empty()) {
    result.stats = sweeper.MergedStats();
    return result;
  }

  // Metric-optimal node among the minimal ones, ties to the first. Each
  // node is scored from its encoded partition; only the winner is decoded.
  TraceSpan metric_span(trace, "metrics");
  metric_span.Counter("minimal_nodes", result.minimal_nodes.size());
  EncodedWorkspace ws;
  const LatticeNode* best = nullptr;
  for (const LatticeNode& node : result.minimal_nodes) {
    double metric;
    switch (options.metric) {
      case OlaMetric::kDiscernibility:
        PSK_RETURN_IF_ERROR(sweeper.encoded().GroupByNode(node, &ws));
        metric = static_cast<double>(SuppressedDiscernibility(
            ws.groups, options.search.k, initial_microdata.num_rows()));
        break;
      case OlaMetric::kPrecision:
        // Negate so smaller-is-better uniformly.
        metric = -Precision(node, hierarchies);
        break;
      default:
        return Status::Internal("unhandled OLA metric");
    }
    if (best == nullptr || metric < result.optimal_metric) {
      best = &node;
      result.optimal_metric = metric;
    }
  }
  PSK_ASSIGN_OR_RETURN(
      MaskedMicrodata mm,
      DecodeMasked(sweeper.encoded(), *best, options.search.k, &ws));
  result.optimal = *best;
  result.masked = std::move(mm.table);
  result.suppressed = mm.suppressed;
  result.found = true;
  result.stats = sweeper.MergedStats();
  return result;
}

}  // namespace psk
