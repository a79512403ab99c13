// End-to-end pipelines across modules: data generation -> lattice search ->
// masking -> property verification -> metrics -> CSV round trip.

#include <gtest/gtest.h>

#include <string>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/mondrian.h"
#include "psk/algorithms/samarati.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/metrics/metrics.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(IntegrationTest, AdultEndToEndPKSearch) {
  Table im = UnwrapOk(AdultGenerate(800, /*seed=*/101));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  SearchOptions options;
  options.k = 4;
  options.p = 2;
  options.max_suppression = 8;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);

  const Table& mm = result.masked;
  // Identifiers gone, roles preserved.
  EXPECT_EQ(mm.schema().KeyIndices().size(), 4u);
  EXPECT_EQ(mm.schema().ConfidentialIndices().size(), 4u);
  // The found masked microdata really has the property.
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(mm, options.k)));
  EXPECT_TRUE(UnwrapOk(IsPSensitive(mm, mm.schema().KeyIndices(),
                                    mm.schema().ConfidentialIndices(),
                                    options.p)));
  EXPECT_LE(result.suppressed, options.max_suppression);
  EXPECT_EQ(mm.num_rows() + result.suppressed, im.num_rows());
  // No attribute disclosure survives a p >= 2 masking.
  EXPECT_EQ(UnwrapOk(CountAttributeDisclosures(
                mm, mm.schema().KeyIndices(),
                mm.schema().ConfidentialIndices())),
            0u);
}

TEST(IntegrationTest, MaskedMicrodataSurvivesCsvRoundTrip) {
  Table im = UnwrapOk(AdultGenerate(300, /*seed=*/7));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.max_suppression = 3;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);

  std::string csv = WriteCsvString(result.masked);
  Table reread = UnwrapOk(ReadCsvString(csv, result.masked.schema()));
  ASSERT_EQ(reread.num_rows(), result.masked.num_rows());
  for (size_t r = 0; r < reread.num_rows(); ++r) {
    for (size_t c = 0; c < reread.num_columns(); ++c) {
      EXPECT_EQ(reread.Get(r, c), result.masked.Get(r, c));
    }
  }
  // The property is intact after the round trip.
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(reread, options.k)));
}

// Samarati with and without Conditions 1-2 on one input: the same node
// and the same release bytes.
void ExpectSamaratiIgnoresConditions(const Table& im,
                                     const HierarchySet& hierarchies,
                                     SearchOptions with,
                                     const std::string& what) {
  with.use_conditions = true;
  SearchOptions without = with;
  without.use_conditions = false;
  SearchResult a = UnwrapOk(SamaratiSearch(im, hierarchies, with));
  SearchResult b = UnwrapOk(SamaratiSearch(im, hierarchies, without));
  ASSERT_TRUE(a.found) << what;
  ASSERT_TRUE(b.found) << what;
  EXPECT_EQ(a.node, b.node) << what;
  EXPECT_EQ(a.suppressed, b.suppressed) << what;
  EXPECT_EQ(WriteCsvString(a.masked), WriteCsvString(b.masked)) << what;
}

TEST(IntegrationTest, ConditionPruningNeverChangesTheAnswer) {
  // Ablation invariant: Conditions 1-2 are *necessary* conditions, so
  // disabling them must not change which nodes satisfy the property.
  for (uint64_t seed = 60; seed < 66; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 2, 5, 2, 4, 1.0);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions with;
    with.k = 3;
    with.p = 2;
    with.max_suppression = 2;
    with.use_conditions = true;
    SearchOptions without = with;
    without.use_conditions = false;

    SearchResult a =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, with));
    SearchResult b =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, without));
    EXPECT_EQ(a.satisfying_nodes, b.satisfying_nodes) << "seed=" << seed;
    EXPECT_EQ(a.minimal_nodes, b.minimal_nodes) << "seed=" << seed;
    // And pruning never *adds* detailed scans.
    EXPECT_LE(a.stats.nodes_rejected_detail, b.stats.nodes_rejected_detail);

    ExpectSamaratiIgnoresConditions(data.table, data.hierarchies, with,
                                    "samarati seed=" + std::to_string(seed));
  }
  // Adult, 400 rows: Samarati releases the same node and bytes either way.
  Table im = UnwrapOk(AdultGenerate(400, /*seed=*/13));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions adult;
  adult.k = 3;
  adult.p = 2;
  adult.max_suppression = 4;
  ExpectSamaratiIgnoresConditions(im, hierarchies, adult, "samarati adult");
}

TEST(IntegrationTest, MondrianBeatsFullDomainOnDiscernibility) {
  // The local-recoding baseline should (almost always) produce finer
  // groups than single-dimensional full-domain generalization.
  Table im = UnwrapOk(AdultGenerate(1000, /*seed=*/55));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  SearchOptions options;
  options.k = 5;
  options.max_suppression = 10;
  SearchResult full_domain =
      UnwrapOk(SamaratiSearch(im, hierarchies, options));
  ASSERT_TRUE(full_domain.found);
  uint64_t dm_full = UnwrapOk(DiscernibilityMetric(
      full_domain.masked, full_domain.masked.schema().KeyIndices(),
      full_domain.suppressed, im.num_rows()));

  MondrianOptions mondrian_options;
  mondrian_options.k = 5;
  MondrianResult mondrian = UnwrapOk(MondrianAnonymize(im, mondrian_options));
  uint64_t dm_mondrian = UnwrapOk(DiscernibilityMetric(
      mondrian.masked, mondrian.masked.schema().KeyIndices(), 0,
      im.num_rows()));

  EXPECT_LT(dm_mondrian, dm_full);
}

TEST(IntegrationTest, SearchersAgreeOnFeasibility) {
  for (uint64_t seed = 70; seed < 75; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(100, 2, 6, 1, 3, 0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions options;
    options.k = 3;
    options.p = 2;
    options.max_suppression = 0;
    SearchResult binary =
        UnwrapOk(SamaratiSearch(data.table, data.hierarchies, options));
    SearchResult bfs =
        UnwrapOk(BottomUpSearch(data.table, data.hierarchies, options));
    SearchResult sweep =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
    EXPECT_EQ(binary.found, !sweep.minimal_nodes.empty()) << "seed=" << seed;
    EXPECT_EQ(bfs.minimal_nodes, sweep.minimal_nodes) << "seed=" << seed;
  }
}

TEST(IntegrationTest, MetricsOrderSolutionsSensibly) {
  Table im = UnwrapOk(AdultGenerate(500, /*seed=*/77));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  GeneralizationLattice lattice(hierarchies);

  SearchOptions options;
  options.k = 3;
  options.max_suppression = 5;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  ASSERT_TRUE(result.found);

  // The solution is cheaper than the lattice top on every utility metric.
  MaskedMicrodata top = UnwrapOk(Mask(im, hierarchies, lattice.Top(), 3));
  uint64_t dm_solution = UnwrapOk(DiscernibilityMetric(
      result.masked, result.masked.schema().KeyIndices(), result.suppressed,
      im.num_rows()));
  uint64_t dm_top = UnwrapOk(DiscernibilityMetric(
      top.table, top.table.schema().KeyIndices(), top.suppressed,
      im.num_rows()));
  EXPECT_LT(dm_solution, dm_top);
  EXPECT_GT(Precision(result.node, hierarchies),
            Precision(lattice.Top(), hierarchies));
  EXPECT_LT(NormalizedHeight(result.node, lattice), 1.0);
}

}  // namespace
}  // namespace psk
