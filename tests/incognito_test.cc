#include "psk/algorithms/incognito.h"

#include <gtest/gtest.h>

#include "psk/algorithms/exhaustive.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "psk/table/encoded.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(IncognitoTest, ReproducesTable4MinimalSets) {
  Table im = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(im.schema()));
  struct Row {
    size_t ts;
    std::vector<LatticeNode> minimal;
  };
  const Row rows[] = {
      {0, {LatticeNode{{0, 2}}}},
      {4, {LatticeNode{{0, 2}}, LatticeNode{{1, 1}}}},
      {7, {LatticeNode{{0, 1}}, LatticeNode{{1, 0}}}},
      {10, {LatticeNode{{0, 0}}}},
  };
  for (const Row& row : rows) {
    SearchOptions options;
    options.k = 3;
    options.max_suppression = row.ts;
    SearchResult result =
        UnwrapOk(IncognitoSearch(im, hierarchies, options));
    EXPECT_EQ(result.minimal_nodes, row.minimal) << "TS=" << row.ts;
  }
}

TEST(IncognitoTest, AgreesWithExhaustiveKAnonymity) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(120, 3, 4, 1, 4, 0.5);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (size_t ts : {0, 5}) {
      SearchOptions options;
      options.k = 3;
      options.p = 1;
      options.max_suppression = ts;
      SearchResult incognito =
          UnwrapOk(IncognitoSearch(data.table, data.hierarchies, options));
      SearchResult exhaustive =
          UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
      EXPECT_EQ(incognito.minimal_nodes, exhaustive.minimal_nodes)
          << "seed=" << seed << " ts=" << ts;
      // Incognito also enumerates the full satisfying set for p = 1
      // (orders differ: lexicographic vs. height-major).
      std::vector<LatticeNode> a = incognito.satisfying_nodes;
      std::vector<LatticeNode> b = exhaustive.satisfying_nodes;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "seed=" << seed << " ts=" << ts;
    }
  }
}

TEST(IncognitoTest, AgreesWithExhaustivePSensitive) {
  for (uint64_t seed = 10; seed <= 16; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 2, 5, 2, 4, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    for (size_t ts : {0, 3}) {
      SearchOptions options;
      options.k = 3;
      options.p = 2;
      options.max_suppression = ts;
      SearchResult incognito =
          UnwrapOk(IncognitoSearch(data.table, data.hierarchies, options));
      SearchResult exhaustive =
          UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
      EXPECT_EQ(incognito.minimal_nodes, exhaustive.minimal_nodes)
          << "seed=" << seed << " ts=" << ts;
    }
  }
}

TEST(IncognitoTest, SubsetPruningSavesFullEvaluations) {
  // High-cardinality keys: most low nodes fail already on single
  // attributes, so the full-QI phase sees few candidates.
  SyntheticSpec spec = MakeUniformSpec(80, 3, 20, 1, 4, 0.5);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 3));
  SearchOptions options;
  options.k = 4;
  SearchResult incognito =
      UnwrapOk(IncognitoSearch(data.table, data.hierarchies, options));
  SearchResult exhaustive =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
  EXPECT_EQ(incognito.minimal_nodes, exhaustive.minimal_nodes);
  // The exhaustive sweep generalizes the full table once per node; the
  // Incognito run should do strictly less full-table work.
  EXPECT_LT(incognito.stats.nodes_generalized,
            exhaustive.stats.nodes_generalized);
  EXPECT_GT(incognito.stats.subset_nodes_evaluated, 0u);
}

TEST(IncognitoTest, AdultWorkloadMatchesBottomLine) {
  Table im = UnwrapOk(AdultGenerate(400, /*seed=*/1));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 2;
  options.p = 2;
  options.max_suppression = 4;
  SearchResult incognito =
      UnwrapOk(IncognitoSearch(im, hierarchies, options));
  SearchResult exhaustive =
      UnwrapOk(ExhaustiveSearch(im, hierarchies, options));
  EXPECT_EQ(incognito.minimal_nodes, exhaustive.minimal_nodes);
  EXPECT_FALSE(incognito.minimal_nodes.empty());
}

TEST(IncognitoTest, Condition1ShortCircuits) {
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
  SearchResult result =
      UnwrapOk(IncognitoSearch(t3, hierarchies, options));
  EXPECT_TRUE(result.condition1_failed);
  EXPECT_TRUE(result.minimal_nodes.empty());
}

TEST(IncognitoTest, SingleAttributeQuasiIdentifier) {
  // Degenerate subset structure: one key attribute.
  Schema schema = UnwrapOk(Schema::Create(
      {{"Zip", ValueType::kString, AttributeRole::kKey},
       {"S", ValueType::kString, AttributeRole::kConfidential}}));
  Table im(schema);
  const char* zips[] = {"41076", "41076", "41099", "41099", "48201"};
  const char* s[] = {"a", "b", "a", "b", "a"};
  for (int i = 0; i < 5; ++i) {
    PSK_ASSERT_OK(im.AppendRow({Value(zips[i]), Value(s[i])}));
  }
  auto zip = UnwrapOk(PrefixHierarchy::Create("Zip", {0, 2, 5}));
  HierarchySet hierarchies = UnwrapOk(HierarchySet::Create(schema, {zip}));
  SearchOptions options;
  options.k = 2;
  options.max_suppression = 1;
  SearchResult result =
      UnwrapOk(IncognitoSearch(im, hierarchies, options));
  // At level 0, group 48201 has 1 row -> suppressible within budget.
  EXPECT_EQ(result.minimal_nodes,
            (std::vector<LatticeNode>{LatticeNode{{0}}}));
}

// The subset phases group through the sweeper's evaluators, so their
// scratch is charged to the job's MemoryBudget. At p = 1 the final phase
// evaluates no full node, so only subset scratch can lift the high-water
// mark above the shared encoding's charge.
TEST(IncognitoTest, SubsetScratchIsChargedToTheMemoryBudget) {
  Table im = UnwrapOk(AdultGenerate(1500, /*seed=*/2));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.p = 1;
  options.max_suppression = 40;
  auto memory = std::make_shared<MemoryBudget>();
  options.budget.memory = memory;
  SearchResult result =
      UnwrapOk(IncognitoSearch(im, hierarchies, options));
  ASSERT_FALSE(result.minimal_nodes.empty());
  ASSERT_GT(result.stats.subset_nodes_evaluated, 0u);
  EXPECT_EQ(result.stats.nodes_generalized, 0u);
  EncodedTable encoded = UnwrapOk(EncodedTable::Build(im, hierarchies));
  EXPECT_GT(memory->high_water(), encoded.ApproxBytes());
}

}  // namespace
}  // namespace psk
