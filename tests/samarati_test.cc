#include "psk/algorithms/samarati.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "psk/algorithms/exhaustive.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "psk/generalize/generalize.h"
#include "psk/trace/trace.h"
#include "test_util.h"

namespace psk {
namespace {

struct Fig3Fixture {
  Table table;
  HierarchySet hierarchies;

  Fig3Fixture()
      : table(UnwrapOk(Figure3Table())),
        hierarchies(UnwrapOk(Figure3Hierarchies(table.schema()))) {}
};

// Synthetic microdata over 5 QIs whose key hierarchies have `levels[i]`
// levels each. With 4 levels apiece the lattice holds 4^5 = 1,024 nodes,
// and its middle heights (4-11 at cardinality 8) are wider than one
// 64-node probe chunk.
SyntheticData WideLatticeData(size_t rows, size_t key_card, uint64_t seed,
                              const std::vector<int>& levels) {
  SyntheticSpec spec = MakeUniformSpec(rows, levels.size(), key_card, 1, 6,
                                       0.6);
  for (size_t i = 0; i < levels.size(); ++i) {
    spec.attributes[i].hierarchy_levels = levels[i];
  }
  return UnwrapOk(SyntheticGenerate(spec, seed));
}

// The (height, hit) pair of every probe_height span in a Samarati trace, in
// probe order.
std::vector<std::pair<int, bool>> ProbeSequence(const std::string& signature) {
  const std::string key = "probe_height[height=";
  std::vector<std::pair<int, bool>> probes;
  for (size_t pos = signature.find(key); pos != std::string::npos;
       pos = signature.find(key, pos + key.size())) {
    size_t begin = pos + key.size();
    std::string attrs =
        signature.substr(begin, signature.find(']', pos) - begin);
    EXPECT_TRUE(attrs.ends_with(",hit=1") || attrs.ends_with(",hit=0"))
        << attrs;
    probes.emplace_back(std::stoi(attrs), attrs.ends_with(",hit=1"));
  }
  return probes;
}

// True when some probe is not the one plain bisection over [0, height]
// would make next, given the verdicts before it.
bool DepartsFromBisection(const std::vector<std::pair<int, bool>>& probes,
                          int height) {
  int low = 0;
  int high = height;
  for (const auto& [h, hit] : probes) {
    if (low >= high) break;  // the confirmation probe of the lattice top
    if (h != (low + high) / 2) return true;
    if (hit) {
      high = h;
    } else {
      low = h + 1;
    }
  }
  return false;
}

// --------------------------------------------------------------------------
// Figure 3: tuples violating 3-anonymity at every lattice node.

TEST(Figure3Test, ViolationCountsMatchPaper) {
  Fig3Fixture f;
  struct Expectation {
    LatticeNode node;
    size_t violations;
  };
  const Expectation expectations[] = {
      {LatticeNode{{0, 0}}, 10},  // <S0, Z0>(10)
      {LatticeNode{{1, 0}}, 7},   // <S1, Z0>(7)
      {LatticeNode{{0, 1}}, 7},   // <S0, Z1>(7)
      {LatticeNode{{1, 1}}, 2},   // <S1, Z1>(2)
      {LatticeNode{{0, 2}}, 0},   // <S0, Z2>(0)
      {LatticeNode{{1, 2}}, 0},   // <S1, Z2>(0)
  };
  for (const Expectation& e : expectations) {
    Table generalized =
        UnwrapOk(ApplyGeneralization(f.table, f.hierarchies, e.node));
    EXPECT_EQ(UnwrapOk(CountTuplesViolatingK(
                  generalized, generalized.schema().KeyIndices(), 3)),
              e.violations)
        << e.node.ToString();
  }
}

TEST(Figure3Test, ViolationsDecreaseUpwardOnEveryPath) {
  // §3: "on every path this number increases as we traverse from the upper
  // level node to the bottom".
  Fig3Fixture f;
  GeneralizationLattice lattice(f.hierarchies);
  auto violations = [&](const LatticeNode& node) {
    Table g = UnwrapOk(ApplyGeneralization(f.table, f.hierarchies, node));
    return UnwrapOk(CountTuplesViolatingK(g, g.schema().KeyIndices(), 3));
  };
  for (const LatticeNode& node : lattice.AllNodes()) {
    for (const LatticeNode& succ : lattice.Successors(node)) {
      EXPECT_GE(violations(node), violations(succ))
          << node.ToString() << " -> " << succ.ToString();
    }
  }
}

// --------------------------------------------------------------------------
// Table 4: 3-minimal generalizations per suppression threshold TS.

struct Table4Row {
  size_t ts;
  std::vector<LatticeNode> minimal;
};

class Table4Sweep : public ::testing::TestWithParam<Table4Row> {};

TEST_P(Table4Sweep, MinimalGeneralizationsMatchPaper) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 3;
  options.p = 1;  // plain k-anonymity, as in Table 4
  options.max_suppression = GetParam().ts;
  MinimalSetResult result =
      UnwrapOk(ExhaustiveSearch(f.table, f.hierarchies, options));
  EXPECT_EQ(result.minimal_nodes, GetParam().minimal) << "TS=" << GetParam().ts;
}

INSTANTIATE_TEST_SUITE_P(
    AllThresholds, Table4Sweep,
    ::testing::Values(
        // TS 0, 1 -> <S0, Z2>
        Table4Row{0, {LatticeNode{{0, 2}}}},
        Table4Row{1, {LatticeNode{{0, 2}}}},
        // TS 2..6 -> <S0, Z2> and <S1, Z1>
        Table4Row{2, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
        Table4Row{4, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
        Table4Row{6, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
        // TS 7..9 -> <S1, Z0> and <S0, Z1>
        Table4Row{7, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
        Table4Row{8, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
        Table4Row{9, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
        // TS 10 -> <S0, Z0>
        Table4Row{10, {LatticeNode{{0, 0}}}}),
    [](const ::testing::TestParamInfo<Table4Row>& info) {
      return "TS" + std::to_string(info.param.ts);
    });

// --------------------------------------------------------------------------
// SamaratiSearch behavior

TEST(SamaratiSearchTest, FindsMinimalHeightOnFig3) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 0;
  SearchResult result =
      UnwrapOk(SamaratiSearch(f.table, f.hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.node, (LatticeNode{{0, 2}}));
  EXPECT_EQ(result.suppressed, 0u);
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(result.masked, 3)));
}

TEST(SamaratiSearchTest, SuppressionLowersTheNode) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 7;
  SearchResult result =
      UnwrapOk(SamaratiSearch(f.table, f.hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.node.Height(), 1);  // <S1,Z0> or <S0,Z1>
  EXPECT_LE(result.suppressed, 7u);
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(result.masked, 3)));
}

TEST(SamaratiSearchTest, BottomWinsWithFullSuppressionBudget) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 10;
  SearchResult result =
      UnwrapOk(SamaratiSearch(f.table, f.hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.node, (LatticeNode{{0, 0}}));
}

TEST(SamaratiSearchTest, HeightMatchesExhaustiveMinimum) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(100, 2, 4, 1, 4, 0.6);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (size_t k : {2, 3}) {
      SearchOptions options;
      options.k = k;
      options.p = 1;
      options.max_suppression = 3;
      SearchResult binary =
          UnwrapOk(SamaratiSearch(data.table, data.hierarchies, options));
      MinimalSetResult sweep =
          UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
      ASSERT_EQ(binary.found, !sweep.minimal_nodes.empty())
          << "seed=" << seed << " k=" << k;
      if (binary.found) {
        int min_height = sweep.minimal_nodes[0].Height();
        for (const LatticeNode& node : sweep.minimal_nodes) {
          min_height = std::min(min_height, node.Height());
        }
        EXPECT_EQ(binary.node.Height(), min_height)
            << "seed=" << seed << " k=" << k;
      }
    }
  }
}

TEST(SamaratiSearchTest, WideLatticeHeightMatchesExhaustiveMinimum) {
  // Heights wider than one probe chunk send the search down one height at
  // a time below its best hit. Whenever the property is monotone (p = 1,
  // or TS = 0) the answer must still be a p-k-minimal node at the minimal
  // height; otherwise it must at least satisfy the property.
  size_t descended = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<int> levels = seed == 4
                                        ? std::vector<int>{3, 5, 4, 4, 4}
                                        : std::vector<int>{4, 4, 4, 4, 4};
    SyntheticData data = WideLatticeData(300, 8, seed, levels);
    GeneralizationLattice lattice(data.hierarchies);
    for (size_t k : {2, 3, 5}) {
      for (size_t p : {1, 2}) {
        for (size_t ts : {0, 10}) {
          const std::string what = "seed=" + std::to_string(seed) +
                                   " k=" + std::to_string(k) +
                                   " p=" + std::to_string(p) +
                                   " ts=" + std::to_string(ts);
          SearchOptions options;
          options.k = k;
          options.p = p;
          options.max_suppression = ts;
          RunTrace trace;
          SearchOptions traced = options;
          traced.trace = &trace;
          SearchResult binary =
              UnwrapOk(SamaratiSearch(data.table, data.hierarchies, traced));
          MinimalSetResult sweep = UnwrapOk(
              ExhaustiveSearch(data.table, data.hierarchies, options));
          if (p == 1 || ts == 0) {
            ASSERT_EQ(binary.found, !sweep.minimal_nodes.empty()) << what;
            if (!binary.found) continue;
            int min_height = binary.node.Height();
            for (const LatticeNode& node : sweep.minimal_nodes) {
              min_height = std::min(min_height, node.Height());
            }
            EXPECT_EQ(binary.node.Height(), min_height) << what;
            EXPECT_NE(std::find(sweep.minimal_nodes.begin(),
                                sweep.minimal_nodes.end(), binary.node),
                      sweep.minimal_nodes.end())
                << what << " node=" << binary.node.ToString();
          } else {
            if (!binary.found) continue;
            NodeSweeper sweeper(data.table, data.hierarchies, options);
            PSK_ASSERT_OK(sweeper.Init());
            std::vector<std::optional<NodeEvaluation>> evals;
            PSK_ASSERT_OK(sweeper.Sweep({binary.node}, &evals));
            EXPECT_TRUE(evals[0]->satisfied)
                << what << " node=" << binary.node.ToString();
          }
          const int h = binary.node.Height();
          if (h > 0 && lattice.NodesAtHeight(h - 1).size() > 64 &&
              DepartsFromBisection(ProbeSequence(trace.StructureSignature()),
                                   lattice.height())) {
            ++descended;
          }
        }
      }
    }
  }
  // The descent branch ran: some answer has a height below it wider than
  // a chunk, reached by a probe bisection would not have made.
  EXPECT_GT(descended, 0u);
}

TEST(SamaratiSearchTest, ProbeOrderDescendsBelowAWideHit) {
  // Bisection probes 7 (hit), 3, 5 and 6 (335 nodes); the refutation of
  // height 6 alone proves the hit at 7 minimal.
  SyntheticData data = WideLatticeData(1000, 6, 1, {4, 4, 4, 4, 4});
  RunTrace trace;
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 0;
  options.trace = &trace;
  SearchResult result =
      UnwrapOk(SamaratiSearch(data.table, data.hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(ProbeSequence(trace.StructureSignature()),
            (std::vector<std::pair<int, bool>>{{7, true}, {6, false}}));
  EXPECT_EQ(result.stats.heights_probed, 2u);
  EXPECT_EQ(result.stats.nodes_generalized, 199u);
}

TEST(SamaratiSearchTest, ProbeOrderBisectsNarrowLattices) {
  // Every height of the 96-node Adult lattice fits in one probe chunk, so
  // the search bisects (the kAnonymizer800 golden's run).
  Table table = UnwrapOk(AdultGenerate(800, 7));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(table.schema()));
  RunTrace trace;
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 8;
  options.trace = &trace;
  SearchResult result = UnwrapOk(SamaratiSearch(table, hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(ProbeSequence(trace.StructureSignature()),
            (std::vector<std::pair<int, bool>>{
                {4, false}, {7, true}, {6, false}}));
  EXPECT_EQ(result.stats.nodes_generalized, 43u);
}

TEST(SamaratiSearchTest, PSensitiveSearchOnPaperExample) {
  // Algorithm 3 on the Fig. 3 data extended with a confidential column.
  Schema schema = UnwrapOk(Schema::Create(
      {{"Sex", ValueType::kString, AttributeRole::kKey},
       {"ZipCode", ValueType::kString, AttributeRole::kKey},
       {"Illness", ValueType::kString, AttributeRole::kConfidential}}));
  Table im(schema);
  const char* sexes[] = {"M", "F", "M", "M", "F", "M", "M", "F", "M", "M"};
  const char* zips[] = {"41076", "41099", "41099", "41076", "43102",
                        "43102", "43102", "43103", "48202", "48201"};
  const char* ills[] = {"Flu", "HIV", "Flu", "Cold", "HIV",
                        "Cold", "Flu", "Flu", "Cold", "HIV"};
  for (int i = 0; i < 10; ++i) {
    PSK_ASSERT_OK(im.AppendRow({Value(sexes[i]), Value(zips[i]),
                                Value(ills[i])}));
  }
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(schema));

  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 0;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(result.masked, 3)));
  EXPECT_TRUE(UnwrapOk(IsPSensitive(result.masked,
                                    result.masked.schema().KeyIndices(),
                                    result.masked.schema()
                                        .ConfidentialIndices(),
                                    2)));
  // A p-sensitive solution can never sit below the k-anonymity-only one.
  SearchOptions k_only = options;
  k_only.p = 1;
  SearchResult k_result = UnwrapOk(SamaratiSearch(im, hierarchies, k_only));
  ASSERT_TRUE(k_result.found);
  EXPECT_GE(result.node.Height(), k_result.node.Height());
}

TEST(SamaratiSearchTest, Condition1FailureShortCircuits) {
  Table t3 = UnwrapOk(PatientTable3());
  Schema schema = t3.schema();
  auto age = UnwrapOk(IntervalHierarchy::Create(
      "Age", {IntervalHierarchy::Level::Top()}));
  auto zip = UnwrapOk(PrefixHierarchy::Create("ZipCode", {0, 5}));
  auto sex = std::make_shared<SuppressionHierarchy>("Sex");
  HierarchySet hierarchies =
      UnwrapOk(HierarchySet::Create(schema, {age, zip, sex}));
  SearchOptions options;
  options.k = 7;
  options.p = 5;  // Illness has 3 distinct values, Income 3 -> maxP = 3
  SearchResult result = UnwrapOk(SamaratiSearch(t3, hierarchies, options));
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.condition1_failed);
  EXPECT_EQ(result.stats.nodes_generalized, 0u);
}

TEST(SamaratiSearchTest, UnsatisfiableKReportsNotFound) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 11;  // more than the table's 10 rows
  options.max_suppression = 0;
  SearchResult result =
      UnwrapOk(SamaratiSearch(f.table, f.hierarchies, options));
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.condition1_failed);
}

TEST(SamaratiSearchTest, InvalidOptionsRejected) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 0;
  EXPECT_FALSE(SamaratiSearch(f.table, f.hierarchies, options).ok());
  options.k = 2;
  options.p = 3;  // p > k
  EXPECT_FALSE(SamaratiSearch(f.table, f.hierarchies, options).ok());
}

TEST(SamaratiSearchTest, StatsAreAccounted) {
  Fig3Fixture f;
  SearchOptions options;
  options.k = 3;
  SearchResult result =
      UnwrapOk(SamaratiSearch(f.table, f.hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_GT(result.stats.nodes_generalized, 0u);
  EXPECT_GT(result.stats.heights_probed, 0u);
  EXPECT_EQ(result.stats.nodes_generalized,
            result.stats.nodes_rejected_kanonymity +
                result.stats.nodes_rejected_detail +
                result.stats.nodes_pruned_condition2 +
                result.stats.nodes_satisfied);
}

}  // namespace
}  // namespace psk
