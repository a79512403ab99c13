// Differential testing of the core property checkers against independent,
// deliberately naive re-implementations (nested std::map, no early exit,
// no hashing) — catching any bug the two shared code paths might have in
// common. The node oracle transcribes the paper's per-node decision
// (Algorithm 3 over Definition 2) literally; it runs every node of small
// random lattices only, since the search problem itself is NP-hard.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "psk/algorithms/search_common.h"
#include "psk/anonymity/frequency_stats.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/datagen/synthetic.h"
#include "psk/generalize/generalize.h"
#include "psk/lattice/lattice.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

// String key for a row's projection onto `cols`.
std::string OracleKey(const Table& t, size_t row,
                      const std::vector<size_t>& cols) {
  std::string key;
  for (size_t c : cols) {
    key += t.Get(row, c).ToString();
    key += '\x1f';
  }
  return key;
}

bool OracleIsKAnonymous(const Table& t, const std::vector<size_t>& keys,
                        size_t k) {
  std::map<std::string, size_t> counts;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    ++counts[OracleKey(t, r, keys)];
  }
  for (const auto& [key, count] : counts) {
    if (count < k) return false;
  }
  return true;
}

bool OracleIsPSensitive(const Table& t, const std::vector<size_t>& keys,
                        const std::vector<size_t>& confs, size_t p) {
  // group -> conf col -> distinct values
  std::map<std::string, std::map<size_t, std::set<std::string>>> groups;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string key = OracleKey(t, r, keys);
    for (size_t c : confs) {
      groups[key][c].insert(t.Get(r, c).ToString());
    }
  }
  for (const auto& [key, per_conf] : groups) {
    for (size_t c : confs) {
      auto it = per_conf.find(c);
      size_t distinct = it == per_conf.end() ? 0 : it->second.size();
      if (distinct < p) return false;
    }
  }
  return true;
}

uint64_t OracleMaxGroups(const Table& t, const std::vector<size_t>& confs,
                         size_t p) {
  // Literal transcription of Condition 2.
  size_t n = t.num_rows();
  std::vector<std::vector<size_t>> freqs;
  for (size_t c : confs) {
    std::map<std::string, size_t> counts;
    for (size_t r = 0; r < n; ++r) ++counts[t.Get(r, c).ToString()];
    std::vector<size_t> f;
    for (const auto& [v, count] : counts) f.push_back(count);
    std::sort(f.rbegin(), f.rend());
    freqs.push_back(std::move(f));
  }
  auto cf = [&](size_t i) {  // 1-based cf_i = max_j cf_i^j
    size_t best = 0;
    for (const auto& f : freqs) {
      size_t acc = 0;
      for (size_t x = 0; x < i && x < f.size(); ++x) acc += f[x];
      best = std::max(best, acc);
    }
    return best;
  };
  uint64_t best = UINT64_MAX;
  for (size_t i = 1; i <= p - 1; ++i) {
    best = std::min<uint64_t>(best, (n - cf(p - i)) / i);
  }
  return best;
}

// Algorithm 3's decision for one node, written out from the paper:
// generalize the initial microdata to `node`, group the tuples by their
// generalized key values, suppress every group smaller than k (at most TS
// tuples), prune by Condition 2 against the bound of the initial
// microdata, then test Definition 2 on every surviving group. Requires
// Condition 1 to hold for p (the evaluator refuses every node otherwise).
NodeEvaluation OracleEvaluateNode(const Table& im,
                                  const HierarchySet& hierarchies,
                                  const LatticeNode& node,
                                  const SearchOptions& options) {
  Table generalized = UnwrapOk(ApplyGeneralization(im, hierarchies, node));
  std::vector<size_t> keys = generalized.schema().KeyIndices();
  std::vector<size_t> confs = generalized.schema().ConfidentialIndices();
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t r = 0; r < generalized.num_rows(); ++r) {
    groups[OracleKey(generalized, r, keys)].push_back(r);
  }
  NodeEvaluation eval;
  size_t surviving = 0;
  for (const auto& [key, rows] : groups) {
    if (rows.size() < options.k) {
      eval.suppressed += rows.size();
    } else {
      ++surviving;
    }
  }
  if (eval.suppressed > options.max_suppression) {
    eval.stage = CheckStage::kKAnonymity;
    return eval;
  }
  eval.num_groups = surviving;
  if (options.p >= 2) {
    if (options.use_conditions &&
        surviving > OracleMaxGroups(im, im.schema().ConfidentialIndices(),
                                    options.p)) {
      eval.stage = CheckStage::kCondition2;
      return eval;
    }
    for (const auto& [key, rows] : groups) {
      if (rows.size() < options.k) continue;  // suppressed
      for (size_t c : confs) {
        std::set<std::string> distinct;
        for (size_t r : rows) distinct.insert(generalized.Get(r, c).ToString());
        if (distinct.size() < options.p) {
          eval.stage = CheckStage::kGroupDetail;
          return eval;
        }
      }
    }
  }
  eval.satisfied = true;
  eval.stage = CheckStage::kPassed;
  return eval;
}

// Condition 1, literally: every confidential attribute has >= p distinct
// values in the initial microdata.
bool OracleCondition1(const Table& im, size_t p) {
  for (size_t c : im.schema().ConfidentialIndices()) {
    std::set<std::string> distinct;
    for (size_t r = 0; r < im.num_rows(); ++r) {
      distinct.insert(im.Get(r, c).ToString());
    }
    if (distinct.size() < p) return false;
  }
  return true;
}

TEST(OracleTest, NodeEvaluatorAgreesOnEveryNodeOfRandomLattices) {
  size_t nodes_checked = 0;
  size_t stages_seen[5] = {0, 0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Half the seeds draw a heavily skewed confidential attribute, whose
    // dominant value makes Condition 2's bound bite.
    SyntheticSpec spec =
        MakeUniformSpec(80, 3, 5, 2, 4, seed <= 3 ? 0.8 : 2.0);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    std::vector<LatticeNode> nodes =
        GeneralizationLattice(data.hierarchies).AllNodes();
    for (size_t k : {size_t{2}, size_t{3}, size_t{5}}) {
      for (size_t p : {size_t{1}, size_t{2}, size_t{3}}) {
        if (p > k) continue;  // rejected by Init (p must be <= k)
        for (size_t ts : {size_t{0}, size_t{6}, size_t{25}}) {
          for (bool use_conditions : {true, false}) {
            SearchOptions options;
            options.k = k;
            options.p = p;
            options.max_suppression = ts;
            options.use_conditions = use_conditions;
            NodeEvaluator evaluator(data.table, data.hierarchies, options);
            PSK_ASSERT_OK(evaluator.Init());
            bool condition1 = p < 2 || OracleCondition1(data.table, p);
            ASSERT_EQ(evaluator.Condition1Holds(), condition1)
                << "seed=" << seed << " p=" << p;
            if (!condition1) continue;
            for (const LatticeNode& node : nodes) {
              std::string what = "seed=" + std::to_string(seed) +
                                 " k=" + std::to_string(k) +
                                 " p=" + std::to_string(p) +
                                 " ts=" + std::to_string(ts) +
                                 " conditions=" +
                                 std::to_string(use_conditions) +
                                 " node=" + SnapshotNodeKey(node);
              NodeEvaluation got = UnwrapOk(evaluator.Evaluate(node));
              NodeEvaluation want = OracleEvaluateNode(
                  data.table, data.hierarchies, node, options);
              EXPECT_EQ(got.satisfied, want.satisfied) << what;
              EXPECT_EQ(got.stage, want.stage) << what;
              EXPECT_EQ(got.suppressed, want.suppressed) << what;
              EXPECT_EQ(got.num_groups, want.num_groups) << what;
              ++stages_seen[static_cast<size_t>(want.stage)];
              ++nodes_checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(nodes_checked, 1000u);
  // The inputs reach every verdict the evaluator can return per node.
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kPassed)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kKAnonymity)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kCondition2)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kGroupDetail)], 0u);
}

TEST(OracleTest, MaskMatchesValuePathOnEveryNodeOfRandomLattices) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(80, 3, 5, 2, 4, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (const LatticeNode& node :
         GeneralizationLattice(data.hierarchies).AllNodes()) {
      Table generalized =
          UnwrapOk(ApplyGeneralization(data.table, data.hierarchies, node));
      for (size_t k : {size_t{0}, size_t{2}, size_t{4}}) {
        std::string what = "seed=" + std::to_string(seed) +
                           " k=" + std::to_string(k) +
                           " node=" + SnapshotNodeKey(node);
        size_t suppressed = 0;
        Table want =
            k == 0 ? generalized
                   : UnwrapOk(SuppressUndersizedGroups(
                         generalized, generalized.schema().KeyIndices(), k,
                         &suppressed));
        MaskedMicrodata got =
            UnwrapOk(Mask(data.table, data.hierarchies, node, k));
        EXPECT_EQ(got.node, node) << what;
        EXPECT_EQ(got.suppressed, suppressed) << what;
        EXPECT_EQ(WriteCsvString(got.table), WriteCsvString(want)) << what;
      }
    }
  }
}

TEST(OracleTest, KAnonymityAgreesOnRandomTables) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(90, 2, 4, 1, 3, 0.6);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    auto keys = data.table.schema().KeyIndices();
    for (size_t k = 1; k <= 6; ++k) {
      EXPECT_EQ(UnwrapOk(IsKAnonymous(data.table, keys, k)),
                OracleIsKAnonymous(data.table, keys, k))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(OracleTest, PSensitivityAgreesOnRandomTables) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(90, 2, 3, 2, 4, 0.9);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    auto keys = data.table.schema().KeyIndices();
    auto confs = data.table.schema().ConfidentialIndices();
    for (size_t p = 1; p <= 4; ++p) {
      EXPECT_EQ(UnwrapOk(IsPSensitive(data.table, keys, confs, p)),
                OracleIsPSensitive(data.table, keys, confs, p))
          << "seed=" << seed << " p=" << p;
    }
  }
}

TEST(OracleTest, MaxGroupsAgreesOnRandomTables) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(200, 1, 3, 3, 6, 1.2);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    auto confs = data.table.schema().ConfidentialIndices();
    FrequencyStats stats =
        UnwrapOk(FrequencyStats::Compute(data.table, confs));
    for (size_t p = 2; p <= stats.MaxP(); ++p) {
      EXPECT_EQ(UnwrapOk(stats.MaxGroups(p)),
                OracleMaxGroups(data.table, confs, p))
          << "seed=" << seed << " p=" << p;
    }
  }
}

TEST(OracleTest, SensitivityPAgreesWithOracleScan) {
  for (uint64_t seed = 20; seed <= 28; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(70, 2, 3, 1, 5, 0.4);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    auto keys = data.table.schema().KeyIndices();
    auto confs = data.table.schema().ConfidentialIndices();
    size_t fast = UnwrapOk(SensitivityP(data.table, keys, confs));
    // Oracle: largest p accepted by the naive checker.
    size_t slow = 0;
    while (OracleIsPSensitive(data.table, keys, confs, slow + 1)) ++slow;
    EXPECT_EQ(fast, slow) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace psk
