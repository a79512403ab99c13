#include "psk/algorithms/ola.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "psk/algorithms/exhaustive.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "psk/metrics/metrics.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(OlaTest, ReproducesTable4MinimalSets) {
  Table im = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(im.schema()));
  struct Row {
    size_t ts;
    std::vector<LatticeNode> minimal;
  };
  const Row rows[] = {
      {0, {LatticeNode{{0, 2}}}},
      {4, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
      {8, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
      {10, {LatticeNode{{0, 0}}}},
  };
  for (const Row& row : rows) {
    SearchOptions options;
    options.k = 3;
    options.max_suppression = row.ts;
    SearchResult result = UnwrapOk(OlaSearch(im, hierarchies, options));
    ASSERT_TRUE(result.found) << "TS=" << row.ts;
    EXPECT_EQ(result.minimal_nodes, row.minimal) << "TS=" << row.ts;
  }
}

TEST(OlaTest, MinimalSetMatchesExhaustiveOnKAnonymity) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(120, 3, 4, 1, 4, 0.5);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (size_t ts : {0, 5}) {
      SearchOptions options;
      options.k = 3;
      options.max_suppression = ts;
      SearchResult ola = UnwrapOk(OlaSearch(data.table, data.hierarchies,
                                         options));
      SearchResult sweep = UnwrapOk(
          ExhaustiveSearch(data.table, data.hierarchies, options));
      ASSERT_EQ(ola.found, !sweep.minimal_nodes.empty())
          << "seed=" << seed << " ts=" << ts;
      if (ola.found) {
        EXPECT_EQ(ola.minimal_nodes, sweep.minimal_nodes)
            << "seed=" << seed << " ts=" << ts;
      }
    }
  }
}

TEST(OlaTest, MinimalSetMatchesExhaustivePSensitiveNoSuppression) {
  for (uint64_t seed = 20; seed <= 25; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 2, 5, 2, 4, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions options;
    options.k = 3;
    options.p = 2;
    SearchResult ola =
        UnwrapOk(OlaSearch(data.table, data.hierarchies, options));
    SearchResult sweep = UnwrapOk(
        ExhaustiveSearch(data.table, data.hierarchies, options));
    ASSERT_EQ(ola.found, !sweep.minimal_nodes.empty()) << "seed=" << seed;
    if (ola.found) {
      EXPECT_EQ(ola.minimal_nodes, sweep.minimal_nodes) << "seed=" << seed;
    }
  }
}

TEST(OlaTest, OptimalBeatsEveryOtherMinimalNodeOnMetric) {
  Table im = UnwrapOk(AdultGenerate(500, /*seed=*/3));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 5;
  SearchResult result = UnwrapOk(OlaSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);
  // The release is one of the minimal nodes, and no other minimal node's
  // release has a lower discernibility.
  EXPECT_NE(std::find(result.minimal_nodes.begin(), result.minimal_nodes.end(),
                      result.node),
            result.minimal_nodes.end());
  uint64_t release_dm = UnwrapOk(DiscernibilityMetric(
      result.masked, result.masked.schema().KeyIndices(), result.suppressed,
      im.num_rows()));
  for (const LatticeNode& node : result.minimal_nodes) {
    MaskedMicrodata mm = UnwrapOk(Mask(im, hierarchies, node, 3));
    uint64_t dm = UnwrapOk(DiscernibilityMetric(
        mm.table, mm.table.schema().KeyIndices(), mm.suppressed,
        im.num_rows()));
    EXPECT_GE(dm, release_dm) << node.ToString();
  }
}

TEST(OlaTest, MaskedOutputSatisfiesProperty) {
  Table im = UnwrapOk(AdultGenerate(400, /*seed=*/5));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 4;
  SearchResult result = UnwrapOk(OlaSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(result.masked, 3)));
  EXPECT_TRUE(UnwrapOk(
      IsPSensitive(result.masked, result.masked.schema().KeyIndices(),
                   result.masked.schema().ConfidentialIndices(), 2)));
}

TEST(OlaTest, PredictiveTaggingSavesEvaluations) {
  Table im = UnwrapOk(AdultGenerate(400, /*seed=*/6));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 4;
  SearchResult ola = UnwrapOk(OlaSearch(im, hierarchies, options));
  SearchResult sweep =
      UnwrapOk(ExhaustiveSearch(im, hierarchies, options));
  ASSERT_TRUE(ola.found);
  // OLA must touch (generalize) strictly fewer nodes than the 96-node
  // sweep, and its tag lookups must have fired.
  EXPECT_LT(ola.stats.nodes_generalized, sweep.stats.nodes_generalized);
  EXPECT_GT(ola.stats.nodes_skipped, 0u);
}

TEST(OlaTest, NonMonotoneCounterexampleStaysCorrect) {
  // The monotonicity_test counterexample: satisfying nodes are heights 0
  // and 2 but not 1. OLA's predictive tagging assumes monotonicity; it
  // must still return only genuinely satisfying nodes.
  Schema schema = UnwrapOk(Schema::Create(
      {{"Z", ValueType::kString, AttributeRole::kKey},
       {"S", ValueType::kString, AttributeRole::kConfidential}}));
  Table im(schema);
  const char* rows[][2] = {{"11", "a"}, {"12", "a"}, {"21", "b"},
                           {"21", "c"}, {"22", "b"}, {"22", "c"}};
  for (const auto& row : rows) {
    PSK_ASSERT_OK(im.AppendRow({Value(row[0]), Value(row[1])}));
  }
  auto z = UnwrapOk(PrefixHierarchy::Create("Z", {0, 1, 2}));
  HierarchySet hierarchies = UnwrapOk(HierarchySet::Create(schema, {z}));
  SearchOptions options;
  options.k = 2;
  options.p = 2;
  options.max_suppression = 2;
  SearchResult result = UnwrapOk(OlaSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);
  for (const LatticeNode& node : result.minimal_nodes) {
    MaskedMicrodata mm = UnwrapOk(Mask(im, hierarchies, node, 2));
    EXPECT_LE(mm.suppressed, 2u) << node.ToString();
    EXPECT_TRUE(UnwrapOk(
        IsPSensitive(mm.table, mm.table.schema().KeyIndices(),
                     mm.table.schema().ConfidentialIndices(), 2)))
        << node.ToString();
  }
}

TEST(OlaTest, UnsatisfiableReportsNotFound) {
  Table im = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(im.schema()));
  SearchOptions options;
  options.k = 11;
  SearchResult result = UnwrapOk(OlaSearch(im, hierarchies, options));
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.condition1_failed);
}

TEST(OlaTest, Condition1ShortCircuits) {
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
  options.p = 7;
  SearchResult result = UnwrapOk(OlaSearch(t3, hierarchies, options));
  EXPECT_TRUE(result.condition1_failed);
  EXPECT_EQ(result.stats.nodes_generalized, 0u);
}

}  // namespace
}  // namespace psk
