#include "psk/metrics/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "psk/datagen/paper_tables.h"
#include "psk/generalize/generalize.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(DiscernibilityTest, PatientTable1) {
  Table t = UnwrapOk(PatientTable1());
  // Three groups of 2: DM = 3 * 4 = 12, no suppression.
  EXPECT_EQ(UnwrapOk(DiscernibilityMetric(t, t.schema().KeyIndices(), 0,
                                          t.num_rows())),
            12u);
}

TEST(DiscernibilityTest, SuppressionPenalty) {
  Table t = UnwrapOk(PatientTable1());
  // 2 suppressed tuples out of an initial 8: penalty 2 * 8 = 16.
  EXPECT_EQ(UnwrapOk(DiscernibilityMetric(t, t.schema().KeyIndices(), 2, 8)),
            12u + 16u);
}

TEST(DiscernibilityTest, FullyGeneralizedIsWorstCase) {
  Table t = UnwrapOk(PatientTable1());
  // Group by nothing = one group of n: DM = n^2.
  EXPECT_EQ(UnwrapOk(DiscernibilityMetric(t, {}, 0, t.num_rows())), 36u);
}

TEST(AvgGroupSizeTest, IdealWhenEveryGroupIsK) {
  Table t = UnwrapOk(PatientTable1());
  // 6 rows, 3 groups, k = 2 -> (6/3)/2 = 1.0.
  EXPECT_DOUBLE_EQ(
      UnwrapOk(NormalizedAvgGroupSize(t, t.schema().KeyIndices(), 2)), 1.0);
  // Same grouping judged against k = 1 is 2.0 (coarser than necessary).
  EXPECT_DOUBLE_EQ(
      UnwrapOk(NormalizedAvgGroupSize(t, t.schema().KeyIndices(), 1)), 2.0);
}

TEST(AvgGroupSizeTest, EmptyTableIsZero) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"A", ValueType::kInt64, AttributeRole::kKey}}));
  Table t(schema);
  EXPECT_DOUBLE_EQ(UnwrapOk(NormalizedAvgGroupSize(t, {0}, 2)), 0.0);
}

TEST(HeightMetricTest, NormalizedHeights) {
  GeneralizationLattice lattice(std::vector<int>{3, 2, 3, 1});
  EXPECT_DOUBLE_EQ(NormalizedHeight(lattice.Bottom(), lattice), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedHeight(lattice.Top(), lattice), 1.0);
  EXPECT_NEAR(NormalizedHeight(LatticeNode{{1, 1, 1, 0}}, lattice), 3.0 / 9,
              1e-12);
}

TEST(PrecisionTest, Extremes) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  EXPECT_DOUBLE_EQ(Precision(LatticeNode{{0, 0}}, hierarchies), 1.0);
  EXPECT_DOUBLE_EQ(Precision(LatticeNode{{1, 2}}, hierarchies), 0.0);
  // Sex fully generalized (1/1), Zip at 1 of 2: 1 - (1 + 0.5)/2 = 0.25.
  EXPECT_DOUBLE_EQ(Precision(LatticeNode{{1, 1}}, hierarchies), 0.25);
}

TEST(SuppressionRatioTest, Basic) {
  EXPECT_DOUBLE_EQ(SuppressionRatio(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(SuppressionRatio(25, 100), 0.25);
  EXPECT_DOUBLE_EQ(SuppressionRatio(0, 0), 0.0);
}

TEST(DisclosureRiskTest, PatientTable1) {
  Table t = UnwrapOk(PatientTable1());
  // One group of 2 (Diabetes) out of 6 tuples is at risk: 2/6.
  EXPECT_NEAR(UnwrapOk(DisclosureRiskTupleFraction(
                  t, t.schema().KeyIndices(),
                  t.schema().ConfidentialIndices())),
              2.0 / 6, 1e-12);
}

TEST(DisclosureRiskTest, OutOfRangeConfidentialIndexIsRejectedEvenWhenEmpty) {
  Table full = UnwrapOk(PatientTable1());
  Table empty(full.schema());
  for (const Table* t : {&full, &empty}) {
    EXPECT_EQ(DisclosureRiskTupleFraction(*t, t->schema().KeyIndices(), {99})
                  .status()
                  .code(),
              StatusCode::kOutOfRange)
        << "rows=" << t->num_rows();
  }
}

TEST(DisclosureRiskTest, Table3FixedHasNoRisk) {
  Table t = UnwrapOk(PatientTable3Fixed());
  EXPECT_DOUBLE_EQ(UnwrapOk(DisclosureRiskTupleFraction(
                       t, t.schema().KeyIndices(),
                       t.schema().ConfidentialIndices())),
                   0.0);
}

TEST(NonUniformEntropyTest, ZeroAtBottomMonotoneUpward) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  GeneralizationLattice lattice(hierarchies);
  auto loss_at = [&](const LatticeNode& node) {
    Table masked = UnwrapOk(ApplyGeneralization(fig3, hierarchies, node));
    return UnwrapOk(NonUniformEntropyLoss(fig3, masked, hierarchies, node));
  };
  EXPECT_DOUBLE_EQ(loss_at(lattice.Bottom()), 0.0);
  // Loss is monotone along every edge of the lattice.
  for (const LatticeNode& node : lattice.AllNodes()) {
    for (const LatticeNode& succ : lattice.Successors(node)) {
      EXPECT_LE(loss_at(node), loss_at(succ) + 1e-9)
          << node.ToString() << " -> " << succ.ToString();
    }
  }
}

TEST(NonUniformEntropyTest, HandComputedValue) {
  // Fig. 3 ZipCode at level 1: bucket 410** covers {41076 x2, 41099 x2}
  // (each -log2(2/4) = 1), 431** covers {43102 x3, 43103 x1}
  // (3 * -log2(3/4) + 1 * -log2(1/4)), 482** covers {48202, 48201}
  // (each -log2(1/2) = 1).
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  LatticeNode node{{0, 1}};
  Table masked = UnwrapOk(ApplyGeneralization(fig3, hierarchies, node));
  double expected = 4 * 1.0 + 3 * (-std::log2(3.0 / 4)) +
                    (-std::log2(1.0 / 4)) + 2 * 1.0;
  EXPECT_NEAR(
      UnwrapOk(NonUniformEntropyLoss(fig3, masked, hierarchies, node)),
      expected, 1e-9);
}

TEST(NonUniformEntropyTest, MisalignedTablesRejected) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  LatticeNode node{{0, 1}};
  Table masked = UnwrapOk(ApplyGeneralization(fig3, hierarchies, node));
  Table truncated = UnwrapOk(masked.FilterRows({0, 1, 2}));
  EXPECT_FALSE(
      NonUniformEntropyLoss(fig3, truncated, hierarchies, node).ok());
  EXPECT_FALSE(
      NonUniformEntropyLoss(fig3, masked, hierarchies, LatticeNode{{1}})
          .ok());
}

TEST(MetricsTest, ErrorsPropagate) {
  Table t = UnwrapOk(PatientTable1());
  EXPECT_FALSE(NormalizedAvgGroupSize(t, t.schema().KeyIndices(), 0).ok());
  EXPECT_FALSE(DisclosureRiskTupleFraction(t, t.schema().KeyIndices(), {})
                   .ok());
  EXPECT_FALSE(DiscernibilityMetric(t, {99}, 0, 6).ok());
}

}  // namespace
}  // namespace psk
