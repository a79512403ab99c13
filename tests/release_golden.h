#ifndef PSK_TESTS_RELEASE_GOLDEN_H_
#define PSK_TESTS_RELEASE_GOLDEN_H_

// Goldens for the release-equivalence suites: what one run produced,
// recorded as plain values — release digest, node, suppression count, every
// SearchStats work counter, the guard verdict, the scorecard — so a suite
// can pin a run without keeping a second implementation around to
// re-derive it. The values in the suites were captured from the Value-path
// evaluator and the eager CSV parser before those were retired; the
// encoded core and the streaming reader matched them exactly then, and
// must keep matching. The scorecard's attribute disclosures, marketer
// risk and C_AVG were captured later, while each scorecard quantity still
// ran its own group-by, before they all became reads of one release
// profile.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/api/anonymizer.h"
#include "psk/jobs/checkpoint_io.h"
#include "psk/jobs/job.h"

namespace psk {

/// Every SearchStats work counter except nodes_evaluated_encoded (the
/// count of fresh evaluations, which only the path split ever varied).
/// Golden runs are complete: partial is false and stop_reason kOk.
struct StatsGolden {
  size_t generalized;
  size_t pruned_condition2;
  size_t rejected_kanonymity;
  size_t rejected_detail;
  size_t satisfied;
  size_t skipped;
  size_t cache_hits;
  size_t cache_misses;
  size_t replay_ticks;
  size_t heights_probed;
  size_t subset_nodes_evaluated;
};

inline void ExpectStatsMatch(const SearchStats& got, const StatsGolden& want,
                             const std::string& what) {
  EXPECT_EQ(got.nodes_generalized, want.generalized) << what;
  EXPECT_EQ(got.nodes_pruned_condition2, want.pruned_condition2) << what;
  EXPECT_EQ(got.nodes_rejected_kanonymity, want.rejected_kanonymity) << what;
  EXPECT_EQ(got.nodes_rejected_detail, want.rejected_detail) << what;
  EXPECT_EQ(got.nodes_satisfied, want.satisfied) << what;
  EXPECT_EQ(got.nodes_skipped, want.skipped) << what;
  EXPECT_EQ(got.nodes_cache_hits, want.cache_hits) << what;
  EXPECT_EQ(got.nodes_cache_misses, want.cache_misses) << what;
  EXPECT_EQ(got.replay_ticks, want.replay_ticks) << what;
  EXPECT_EQ(got.heights_probed, want.heights_probed) << what;
  EXPECT_EQ(got.subset_nodes_evaluated, want.subset_nodes_evaluated) << what;
  EXPECT_FALSE(got.partial) << what;
  EXPECT_EQ(got.stop_reason, StatusCode::kOk) << what;
}

/// FNV-1a over the nodes' snapshot keys, each followed by ';' — a compact
/// golden for long node lists (e.g. every satisfying node of a lattice).
inline uint64_t NodeListDigest(const std::vector<LatticeNode>& nodes) {
  std::string text;
  for (const LatticeNode& node : nodes) {
    text += SnapshotNodeKey(node);
    text += ';';
  }
  return Fnv1aHash(text);
}

inline std::vector<LatticeNode> ToNodes(
    const std::vector<std::vector<int>>& levels) {
  std::vector<LatticeNode> nodes;
  for (const std::vector<int>& l : levels) nodes.push_back(LatticeNode{l});
  return nodes;
}

/// One lattice search. Single-answer goldens (Samarati, OLA) pin `node`,
/// `release_digest` (TableDigest of the masked table) and `suppressed`;
/// set goldens (exhaustive, Incognito, bottom-up) leave them empty/0 and
/// record every satisfying node by count and NodeListDigest. OLA records
/// its minimal nodes too.
struct SearchGolden {
  std::vector<int> node;
  uint64_t release_digest;
  size_t suppressed;
  std::vector<std::vector<int>> minimal_nodes;
  size_t satisfying_count;
  uint64_t satisfying_digest;
  StatsGolden stats;
};

inline void ExpectSearchMatches(const SearchResult& got,
                                const SearchGolden& want,
                                const std::string& what) {
  EXPECT_FALSE(got.condition1_failed) << what;
  ASSERT_TRUE(got.found) << what;
  if (!want.node.empty()) {
    EXPECT_EQ(got.node.levels, want.node) << what;
    EXPECT_EQ(TableDigest(got.masked), want.release_digest) << what;
    EXPECT_EQ(got.suppressed, want.suppressed) << what;
  }
  EXPECT_EQ(got.minimal_nodes, ToNodes(want.minimal_nodes)) << what;
  EXPECT_EQ(got.satisfying_nodes.size(), want.satisfying_count) << what;
  if (want.satisfying_count > 0) {
    EXPECT_EQ(NodeListDigest(got.satisfying_nodes), want.satisfying_digest)
        << what;
  }
  ExpectStatsMatch(got.stats, want.stats, what);
}

/// The guard's independent verdict on a release.
struct GuardGolden {
  bool passed;
  size_t observed_k;
  size_t observed_p;
  size_t suppressed;
  size_t attribute_disclosures;
  size_t violations;
};

/// One Anonymizer::Run. `node` is empty for local-recoding engines, which
/// release no lattice node. The scorecard fields are compared exactly,
/// doubles included.
struct ReportGolden {
  AnonymizationAlgorithm algorithm;
  uint64_t release_digest;
  std::vector<int> node;
  size_t suppressed;
  size_t achieved_k;
  size_t achieved_p;
  double precision;
  uint64_t discernibility;
  size_t attribute_disclosures;
  double reidentification_risk;
  double normalized_avg_group_size;
  AnonymizationAlgorithm algorithm_used;
  GuardGolden guard;
  StatsGolden stats;
};

inline void ExpectReportMatches(const AnonymizationReport& got,
                                const ReportGolden& want,
                                const std::string& what) {
  EXPECT_EQ(TableDigest(got.masked), want.release_digest) << what;
  if (want.node.empty()) {
    EXPECT_FALSE(got.node.has_value()) << what;
  } else {
    ASSERT_TRUE(got.node.has_value()) << what;
    EXPECT_EQ(got.node->levels, want.node) << what;
  }
  EXPECT_EQ(got.suppressed, want.suppressed) << what;
  EXPECT_EQ(got.achieved_k, want.achieved_k) << what;
  EXPECT_EQ(got.achieved_p, want.achieved_p) << what;
  EXPECT_EQ(got.precision, want.precision) << what;
  EXPECT_EQ(got.discernibility, want.discernibility) << what;
  EXPECT_EQ(got.attribute_disclosures, want.attribute_disclosures) << what;
  EXPECT_EQ(got.reidentification_risk, want.reidentification_risk) << what;
  EXPECT_EQ(got.normalized_avg_group_size, want.normalized_avg_group_size)
      << what;
  EXPECT_EQ(got.algorithm_used, want.algorithm_used) << what;
  EXPECT_EQ(got.guard.passed, want.guard.passed) << what;
  EXPECT_EQ(got.guard.observed_k, want.guard.observed_k) << what;
  EXPECT_EQ(got.guard.observed_p, want.guard.observed_p) << what;
  EXPECT_EQ(got.guard.suppressed, want.guard.suppressed) << what;
  EXPECT_EQ(got.guard.attribute_disclosures, want.guard.attribute_disclosures)
      << what;
  EXPECT_EQ(got.guard.violations.size(), want.guard.violations) << what;
  ExpectStatsMatch(got.stats, want.stats, what);
}

}  // namespace psk

#endif  // PSK_TESTS_RELEASE_GOLDEN_H_
