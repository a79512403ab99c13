// Differential testing of the core property checkers against independent,
// deliberately naive re-implementations (nested std::map, no early exit,
// no hashing) — catching any bug the two shared code paths might have in
// common. The node oracle transcribes the paper's per-node decision
// (Algorithm 3 over Definition 2) literally; it runs every node of small
// random lattices only, since the search problem itself is NP-hard. The
// release oracle states each quantity the guard and the scorecard read
// off a release profile as a predicate over the QI-partition and the
// distinct confidential values of each group.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/anonymity/frequency_stats.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/datagen/synthetic.h"
#include "psk/common/random.h"
#include "psk/generalize/generalize.h"
#include "psk/guard/guard.h"
#include "psk/lattice/lattice.h"
#include "psk/metrics/metrics.h"
#include "psk/metrics/risk.h"
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

// The QI-groups of a table, naively: group key -> {size, confidential
// column -> its distinct values in the group}.
struct OracleGroup {
  size_t size = 0;
  std::map<size_t, std::set<std::string>> values;
};

std::map<std::string, OracleGroup> OracleGroups(
    const Table& t, const std::vector<size_t>& keys,
    const std::vector<size_t>& confs) {
  std::map<std::string, OracleGroup> groups;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    OracleGroup& group = groups[OracleKey(t, r, keys)];
    ++group.size;
    for (size_t c : confs) group.values[c].insert(t.Get(r, c).ToString());
  }
  return groups;
}

size_t OracleAnonymityK(const Table& t, const std::vector<size_t>& keys) {
  size_t k = 0;
  for (const auto& [key, group] : OracleGroups(t, keys, {})) {
    if (k == 0 || group.size < k) k = group.size;
  }
  return k;
}

size_t OracleSensitivityP(const Table& t, const std::vector<size_t>& keys,
                          const std::vector<size_t>& confs) {
  size_t p = 0;
  for (const auto& [key, group] : OracleGroups(t, keys, confs)) {
    for (const auto& [c, distinct] : group.values) {
      if (p == 0 || distinct.size() < p) p = distinct.size();
    }
  }
  return p;
}

size_t OracleDisclosures(const Table& t, const std::vector<size_t>& keys,
                         const std::vector<size_t>& confs) {
  size_t disclosures = 0;
  for (const auto& [key, group] : OracleGroups(t, keys, confs)) {
    for (const auto& [c, distinct] : group.values) {
      if (distinct.size() == 1) ++disclosures;
    }
  }
  return disclosures;
}

double OracleDisclosedRowFraction(const Table& t,
                                  const std::vector<size_t>& keys,
                                  const std::vector<size_t>& confs) {
  if (t.num_rows() == 0) return 0.0;
  size_t rows = 0;
  for (const auto& [key, group] : OracleGroups(t, keys, confs)) {
    bool disclosed = false;
    for (const auto& [c, distinct] : group.values) {
      if (distinct.size() == 1) disclosed = true;
    }
    if (disclosed) rows += group.size;
  }
  return static_cast<double>(rows) / static_cast<double>(t.num_rows());
}

uint64_t OracleDiscernibility(const Table& t, const std::vector<size_t>& keys,
                              size_t suppressed, size_t total_rows) {
  uint64_t dm = static_cast<uint64_t>(suppressed) * total_rows;
  for (const auto& [key, group] : OracleGroups(t, keys, {})) {
    dm += static_cast<uint64_t>(group.size) * group.size;
  }
  return dm;
}

// Marketer risk as its definition states it: the mean over tuples of
// 1/|G(t)|.
double OracleMarketerRisk(const Table& t, const std::vector<size_t>& keys) {
  if (t.num_rows() == 0) return 0.0;
  std::map<std::string, OracleGroup> groups = OracleGroups(t, keys, {});
  double total = 0.0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    total += 1.0 / static_cast<double>(groups[OracleKey(t, r, keys)].size);
  }
  return total / static_cast<double>(t.num_rows());
}

RiskSummary OracleProsecutorRisk(const Table& t,
                                 const std::vector<size_t>& keys,
                                 double threshold) {
  RiskSummary summary;
  if (t.num_rows() == 0) return summary;
  std::map<std::string, OracleGroup> groups = OracleGroups(t, keys, {});
  size_t at_risk = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double risk =
        1.0 / static_cast<double>(groups[OracleKey(t, r, keys)].size);
    summary.max_risk = std::max(summary.max_risk, risk);
    summary.avg_risk += risk / static_cast<double>(t.num_rows());
    if (risk > threshold) ++at_risk;
  }
  summary.fraction_at_risk =
      static_cast<double>(at_risk) / static_cast<double>(t.num_rows());
  return summary;
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

// The random inputs of the per-node oracle tests. Seeds 1-6 draw key
// cardinality 5, whose QI tuples barely repeat in 80 rows, so EncodedTable
// keeps its row layout; seeds 7-10 draw cardinality 2 or 3, whose tuples
// repeat, so it groups entries. `theta` skews the confidential attribute.
SyntheticSpec OracleNodeSpec(uint64_t seed, double theta) {
  const size_t key_cardinality = seed <= 6 ? 5 : (seed <= 8 ? 2 : 3);
  return MakeUniformSpec(80, 3, key_cardinality, 2, 4, theta);
}
constexpr uint64_t kOracleNodeSeeds = 10;
// Sweep widths the node verdicts are checked at.
constexpr size_t kOracleLanes[] = {1, 4};

// Counts which layout EncodedTable::Build takes for `data`, so a test can
// assert that it covered both.
void CountLayout(const SyntheticData& data, size_t* entry_layouts,
                 size_t* row_layouts) {
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(data.table, data.hierarchies));
  ++*(encoded.num_entries() < encoded.num_rows() ? entry_layouts
                                                 : row_layouts);
}

// Every node is swept at once, by one lane and by four, so a multi-lane
// sweep's per-node verdicts are checked against the definitions too.
TEST(OracleTest, NodeEvaluatorAgreesOnEveryNodeOfRandomLattices) {
  size_t nodes_checked = 0;
  size_t stages_seen[5] = {0, 0, 0, 0, 0};
  size_t entry_layouts = 0;
  size_t row_layouts = 0;
  for (uint64_t seed = 1; seed <= kOracleNodeSeeds; ++seed) {
    // Half the seeds draw a heavily skewed confidential attribute, whose
    // dominant value makes Condition 2's bound bite.
    const bool skewed = seed <= 6 ? seed > 3 : seed % 2 == 1;
    SyntheticSpec spec = OracleNodeSpec(seed, skewed ? 2.0 : 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    CountLayout(data, &entry_layouts, &row_layouts);
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
            bool condition1 = p < 2 || OracleCondition1(data.table, p);
            // swept[w]: every node's verdict from one sweep of
            // kOracleLanes[w] lanes.
            std::vector<std::vector<std::optional<NodeEvaluation>>> swept(
                std::size(kOracleLanes));
            for (size_t w = 0; w < swept.size(); ++w) {
              SearchOptions sweep_options = options;
              sweep_options.threads = kOracleLanes[w];
              NodeSweeper sweeper(data.table, data.hierarchies,
                                  sweep_options);
              PSK_ASSERT_OK(sweeper.Init());
              ASSERT_EQ(sweeper.Condition1Holds(), condition1)
                  << "seed=" << seed << " p=" << p;
              if (condition1) PSK_ASSERT_OK(sweeper.Sweep(nodes, &swept[w]));
            }
            if (!condition1) continue;
            for (size_t i = 0; i < nodes.size(); ++i) {
              const LatticeNode& node = nodes[i];
              NodeEvaluation want = OracleEvaluateNode(
                  data.table, data.hierarchies, node, options);
              for (size_t w = 0; w < swept.size(); ++w) {
                std::string what = "seed=" + std::to_string(seed) +
                                   " k=" + std::to_string(k) +
                                   " p=" + std::to_string(p) +
                                   " ts=" + std::to_string(ts) +
                                   " conditions=" +
                                   std::to_string(use_conditions) +
                                   " threads=" +
                                   std::to_string(kOracleLanes[w]) +
                                   " node=" + SnapshotNodeKey(node);
                ASSERT_TRUE(swept[w][i].has_value()) << what;
                const NodeEvaluation& got = *swept[w][i];
                EXPECT_EQ(got.satisfied, want.satisfied) << what;
                EXPECT_EQ(got.stage, want.stage) << what;
                EXPECT_EQ(got.suppressed, want.suppressed) << what;
                EXPECT_EQ(got.num_groups, want.num_groups) << what;
              }
              ++stages_seen[static_cast<size_t>(want.stage)];
              ++nodes_checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(nodes_checked, 1000u);
  EXPECT_GT(entry_layouts, 0u);
  EXPECT_GT(row_layouts, 0u);
  // The inputs reach every verdict the evaluator can return per node.
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kPassed)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kKAnonymity)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kCondition2)], 0u);
  EXPECT_GT(stages_seen[static_cast<size_t>(CheckStage::kGroupDetail)], 0u);
}

TEST(OracleTest, MaskMatchesValuePathOnEveryNodeOfRandomLattices) {
  size_t entry_layouts = 0;
  size_t row_layouts = 0;
  for (uint64_t seed = 1; seed <= kOracleNodeSeeds; ++seed) {
    SyntheticSpec spec = OracleNodeSpec(seed, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    CountLayout(data, &entry_layouts, &row_layouts);
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
  EXPECT_GT(entry_layouts, 0u);
  EXPECT_GT(row_layouts, 0u);
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

// A random small release: `num_keys` key columns (int64 and string) and
// `num_confs` confidential columns over tiny domains, so groups of every
// size and constant confidential values both occur; `null_rate` of the
// cells are null.
Table RandomRelease(Rng& rng, size_t rows, size_t num_keys, size_t num_confs,
                    double null_rate) {
  std::vector<Attribute> attrs;
  for (size_t i = 0; i < num_keys; ++i) {
    attrs.push_back({"K" + std::to_string(i),
                     i % 2 == 0 ? ValueType::kInt64 : ValueType::kString,
                     AttributeRole::kKey});
  }
  for (size_t j = 0; j < num_confs; ++j) {
    attrs.push_back({"S" + std::to_string(j),
                     j % 2 == 0 ? ValueType::kString : ValueType::kInt64,
                     AttributeRole::kConfidential});
  }
  Table table(UnwrapOk(Schema::Create(attrs)));
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (const Attribute& attr : attrs) {
      int64_t draw = rng.UniformInt(0, attr.role == AttributeRole::kKey ? 3
                                                                        : 2);
      if (rng.Bernoulli(null_rate)) {
        row.emplace_back();
      } else if (attr.type == ValueType::kInt64) {
        row.emplace_back(draw);
      } else {
        row.emplace_back("v" + std::to_string(draw));
      }
    }
    PSK_EXPECT_OK(table.AppendRow(std::move(row)));
  }
  return table;
}

TEST(OracleTest, ReleaseQuantitiesAgreeOnRandomTables) {
  Rng rng(2006);
  size_t disclosing = 0;
  for (int trial = 0; trial < 200; ++trial) {
    size_t rows = trial % 10 == 0 ? 0 : rng.Uniform(40) + 1;
    size_t num_keys = rng.Uniform(2) + 1;
    size_t num_confs = rng.Uniform(3) + 1;
    double null_rate = trial % 3 == 0 ? 0.0 : 0.15;
    Table t = RandomRelease(rng, rows, num_keys, num_confs, null_rate);
    auto keys = t.schema().KeyIndices();
    auto confs = t.schema().ConfidentialIndices();
    std::string what = "trial=" + std::to_string(trial) +
                       " rows=" + std::to_string(rows) +
                       " keys=" + std::to_string(num_keys) +
                       " confs=" + std::to_string(num_confs);

    size_t k = OracleAnonymityK(t, keys);
    size_t p = OracleSensitivityP(t, keys, confs);
    size_t disclosures = OracleDisclosures(t, keys, confs);
    if (disclosures > 0) ++disclosing;
    EXPECT_EQ(UnwrapOk(AnonymityK(t, keys)), k) << what;
    EXPECT_EQ(UnwrapOk(SensitivityP(t, keys, confs)), p) << what;
    EXPECT_EQ(UnwrapOk(CountAttributeDisclosures(t, keys, confs)),
              disclosures)
        << what;
    for (size_t bound = 1; bound <= 4; ++bound) {
      EXPECT_EQ(UnwrapOk(IsKAnonymous(t, keys, bound)),
                OracleIsKAnonymous(t, keys, bound))
          << what << " k=" << bound;
      EXPECT_EQ(UnwrapOk(IsPSensitive(t, keys, confs, bound)),
                OracleIsPSensitive(t, keys, confs, bound))
          << what << " p=" << bound;
    }
    EXPECT_DOUBLE_EQ(UnwrapOk(DisclosureRiskTupleFraction(t, keys, confs)),
                     OracleDisclosedRowFraction(t, keys, confs))
        << what;
    size_t suppressed = rng.Uniform(5);
    EXPECT_EQ(UnwrapOk(DiscernibilityMetric(t, keys, suppressed,
                                            rows + suppressed)),
              OracleDiscernibility(t, keys, suppressed, rows + suppressed))
        << what;
    EXPECT_NEAR(UnwrapOk(MarketerRisk(t, keys)), OracleMarketerRisk(t, keys),
                1e-12)
        << what;
    for (double threshold : {0.2, 0.5}) {
      RiskSummary got = UnwrapOk(ProsecutorRisk(t, keys, threshold));
      RiskSummary want = OracleProsecutorRisk(t, keys, threshold);
      EXPECT_DOUBLE_EQ(got.max_risk, want.max_risk) << what;
      EXPECT_NEAR(got.avg_risk, want.avg_risk, 1e-12) << what;
      EXPECT_DOUBLE_EQ(got.fraction_at_risk, want.fraction_at_risk) << what;
    }

    // The guard measures the same three properties from its own profile
    // (an empty release is vacuously anonymous: nothing is measured).
    GuardPolicy policy;
    policy.k = 1;
    policy.p = 2;
    policy.max_attribute_disclosures = 0;
    GuardReport guard =
        UnwrapOk(VerifyRelease(t, rows + suppressed, policy));
    EXPECT_EQ(guard.observed_k, k) << what;
    EXPECT_EQ(guard.observed_p, p) << what;
    EXPECT_EQ(guard.attribute_disclosures, disclosures) << what;
    EXPECT_EQ(guard.passed, rows == 0 || (p >= 2 && disclosures == 0))
        << what;
  }
  // The random releases reach both verdicts of Table 8's count.
  EXPECT_GT(disclosing, 20u);
  EXPECT_LT(disclosing, 180u);
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
