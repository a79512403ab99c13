#include "psk/algorithms/bottom_up.h"

#include <gtest/gtest.h>

#include "psk/algorithms/exhaustive.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
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

TEST(BottomUpTest, ReproducesTable4MinimalSets) {
  Fig3Fixture f;
  struct Row {
    size_t ts;
    std::vector<LatticeNode> minimal;
  };
  const Row rows[] = {
      {0, {LatticeNode{{0, 2}}}},
      {3, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
      {8, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
      {10, {LatticeNode{{0, 0}}}},
  };
  for (const Row& row : rows) {
    SearchOptions options;
    options.k = 3;
    options.max_suppression = row.ts;
    SearchResult result =
        UnwrapOk(BottomUpSearch(f.table, f.hierarchies, options));
    EXPECT_EQ(result.minimal_nodes, row.minimal) << "TS=" << row.ts;
  }
}

TEST(BottomUpTest, AgreesWithExhaustiveOnKAnonymity) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(120, 3, 4, 1, 4, 0.5);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (size_t ts : {0, 5}) {
      SearchOptions options;
      options.k = 3;
      options.p = 1;
      options.max_suppression = ts;
      SearchResult bottom_up =
          UnwrapOk(BottomUpSearch(data.table, data.hierarchies, options));
      SearchResult exhaustive =
          UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
      EXPECT_EQ(bottom_up.minimal_nodes, exhaustive.minimal_nodes)
          << "seed=" << seed << " ts=" << ts;
    }
  }
  for (uint64_t seed = 3; seed <= 5; ++seed) {
    // High-cardinality keys force real generalization, making the
    // single-attribute lower bounds bite.
    SyntheticSpec spec = MakeUniformSpec(60, 2, 30, 1, 4, 0.5);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions options;
    options.k = 3;
    SearchResult bottom_up =
        UnwrapOk(BottomUpSearch(data.table, data.hierarchies, options));
    SearchResult exhaustive =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
    // Same answer, no more work.
    EXPECT_EQ(bottom_up.minimal_nodes, exhaustive.minimal_nodes)
        << "seed=" << seed;
    EXPECT_LE(bottom_up.stats.nodes_generalized,
              exhaustive.stats.nodes_generalized)
        << "seed=" << seed;
  }
}

TEST(BottomUpTest, AgreesWithExhaustiveOnPSensitivityNoSuppression) {
  // Without suppression, p-sensitive k-anonymity is monotone along
  // generalization paths, so the dominance pruning is exact.
  for (uint64_t seed = 20; seed <= 26; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 2, 5, 2, 4, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions options;
    options.k = 3;
    options.p = 2;
    options.max_suppression = 0;
    SearchResult bottom_up =
        UnwrapOk(BottomUpSearch(data.table, data.hierarchies, options));
    SearchResult exhaustive =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
    EXPECT_EQ(bottom_up.minimal_nodes, exhaustive.minimal_nodes)
        << "seed=" << seed;
  }
}

TEST(BottomUpTest, Condition1ShortCircuits) {
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
  SearchResult result = UnwrapOk(BottomUpSearch(t3, hierarchies, options));
  EXPECT_TRUE(result.condition1_failed);
  EXPECT_TRUE(result.minimal_nodes.empty());
  EXPECT_EQ(result.stats.nodes_generalized, 0u);
}

TEST(BottomUpTest, MinimalNodesAreMutuallyIncomparable) {
  for (uint64_t seed = 40; seed <= 44; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(100, 3, 5, 1, 3, 0.4);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions options;
    options.k = 2;
    options.max_suppression = 2;
    SearchResult result =
        UnwrapOk(BottomUpSearch(data.table, data.hierarchies, options));
    for (const LatticeNode& a : result.minimal_nodes) {
      for (const LatticeNode& b : result.minimal_nodes) {
        if (a != b) {
          EXPECT_FALSE(GeneralizationLattice::IsGeneralizationOf(a, b))
              << a.ToString() << " dominates " << b.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace psk
