#include "psk/metrics/risk.h"

#include <gtest/gtest.h>

#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/generalize/generalize.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(ProsecutorRiskTest, PatientTable1) {
  Table t = UnwrapOk(PatientTable1());
  RiskSummary risk =
      UnwrapOk(ProsecutorRisk(t, t.schema().KeyIndices(), /*threshold=*/0.4));
  // Three groups of 2: every record has risk 1/2.
  EXPECT_DOUBLE_EQ(risk.max_risk, 0.5);
  EXPECT_DOUBLE_EQ(risk.avg_risk, 0.5);
  EXPECT_DOUBLE_EQ(risk.fraction_at_risk, 1.0);  // 0.5 > 0.4
  RiskSummary lenient =
      UnwrapOk(ProsecutorRisk(t, t.schema().KeyIndices(), /*threshold=*/0.5));
  EXPECT_DOUBLE_EQ(lenient.fraction_at_risk, 0.0);  // 0.5 is not > 0.5
}

TEST(ProsecutorRiskTest, SingletonGroupIsMaxRisk) {
  Table t = UnwrapOk(Figure3Table());
  RiskSummary risk = UnwrapOk(ProsecutorRisk(t, t.schema().KeyIndices()));
  EXPECT_DOUBLE_EQ(risk.max_risk, 1.0);  // zip 43103 etc. are singletons
}

TEST(ProsecutorRiskTest, EmptyTable) {
  Schema schema = UnwrapOk(
      Schema::Create({{"A", ValueType::kInt64, AttributeRole::kKey}}));
  Table t(schema);
  RiskSummary risk = UnwrapOk(ProsecutorRisk(t, {0}));
  EXPECT_DOUBLE_EQ(risk.max_risk, 0.0);
  EXPECT_DOUBLE_EQ(risk.avg_risk, 0.0);
}

TEST(ProsecutorRiskTest, GeneralizationReducesRisk) {
  Table im = UnwrapOk(AdultGenerate(500, /*seed=*/1));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  GeneralizationLattice lattice(hierarchies);
  double previous = 1.1;
  // Walk one chain bottom-to-top; avg risk must not increase.
  LatticeNode node = lattice.Bottom();
  while (true) {
    Table masked = UnwrapOk(ApplyGeneralization(im, hierarchies, node));
    RiskSummary risk =
        UnwrapOk(ProsecutorRisk(masked, masked.schema().KeyIndices()));
    EXPECT_LE(risk.avg_risk, previous + 1e-12) << node.ToString();
    previous = risk.avg_risk;
    auto successors = lattice.Successors(node);
    if (successors.empty()) break;
    node = successors[0];
  }
}

TEST(JournalistRiskTest, SampleVsPopulation) {
  // Population: the full Fig. 3 table; sample: its first five rows.
  Table population = UnwrapOk(Figure3Table());
  Table sample = UnwrapOk(population.FilterRows({0, 1, 2, 3, 4}));
  auto keys = population.schema().KeyIndices();
  RiskSummary journalist = UnwrapOk(
      JournalistRisk(sample, keys, population, keys, /*threshold=*/0.6));
  RiskSummary prosecutor = UnwrapOk(ProsecutorRisk(sample, keys, 0.6));
  // The journalist denominator counts population groups, which are at
  // least as large as the sample groups -> risk no higher.
  EXPECT_LE(journalist.max_risk, prosecutor.max_risk);
  EXPECT_LE(journalist.avg_risk, prosecutor.avg_risk);
  // Row 4 is (F, 43102): unique in the sample AND in the population.
  EXPECT_DOUBLE_EQ(journalist.max_risk, 1.0);
}

TEST(JournalistRiskTest, UnmatchedKeysGetZeroRisk) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"Z", ValueType::kString, AttributeRole::kKey}}));
  Table sample(schema);
  PSK_ASSERT_OK(sample.AppendRow({Value("unseen")}));
  Table population(schema);
  PSK_ASSERT_OK(population.AppendRow({Value("other")}));
  RiskSummary risk =
      UnwrapOk(JournalistRisk(sample, {0}, population, {0}));
  EXPECT_DOUBLE_EQ(risk.max_risk, 0.0);
}

TEST(JournalistRiskTest, MismatchedKeyArityRejected) {
  Table t = UnwrapOk(Figure3Table());
  EXPECT_FALSE(JournalistRisk(t, {0, 1}, t, {0}).ok());
}

TEST(MarketerRiskTest, MatchesGroupDensity) {
  Table t = UnwrapOk(PatientTable1());
  // 3 groups / 6 rows.
  EXPECT_DOUBLE_EQ(UnwrapOk(MarketerRisk(t, t.schema().KeyIndices())), 0.5);
}

TEST(MarketerRiskTest, UniformGroups) {
  Table t = UnwrapOk(PatientTable1());
  // 3 groups of 2 -> mean 1/|G| = 1/2 = 3/6.
  EXPECT_NEAR(UnwrapOk(MarketerRisk(t, t.schema().KeyIndices())), 0.5,
              1e-12);
}

TEST(MarketerRiskTest, DropsWithGeneralization) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  Table bottom = UnwrapOk(
      ApplyGeneralization(fig3, hierarchies, LatticeNode{{0, 0}}));
  Table top = UnwrapOk(
      ApplyGeneralization(fig3, hierarchies, LatticeNode{{1, 2}}));
  double risk_bottom =
      UnwrapOk(MarketerRisk(bottom, bottom.schema().KeyIndices()));
  double risk_top = UnwrapOk(MarketerRisk(top, top.schema().KeyIndices()));
  EXPECT_GT(risk_bottom, risk_top);
  EXPECT_DOUBLE_EQ(risk_top, 0.1);  // one group of 10
}

TEST(MarketerRiskTest, BoundsProsecutorAvg) {
  // Marketer risk equals the prosecutor average risk by definition here;
  // sanity-check on a real workload.
  Table im = UnwrapOk(AdultGenerate(300, /*seed=*/3));
  auto keys = im.schema().KeyIndices();
  double marketer = UnwrapOk(MarketerRisk(im, keys));
  RiskSummary prosecutor = UnwrapOk(ProsecutorRisk(im, keys));
  EXPECT_NEAR(marketer, prosecutor.avg_risk, 1e-12);
}

}  // namespace
}  // namespace psk
