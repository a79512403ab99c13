#include "psk/anonymity/psensitive.h"

#include <gtest/gtest.h>

#include "psk/common/random.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "test_util.h"

namespace psk {
namespace {

std::vector<size_t> Keys(const Table& t) { return t.schema().KeyIndices(); }
std::vector<size_t> Confs(const Table& t) {
  return t.schema().ConfidentialIndices();
}

// --------------------------------------------------------------------------
// Paper examples

TEST(PSensitiveTest, PatientTable1IsOnly1Sensitive) {
  // §2: both (20, 43102, M) tuples have Diabetes -> attribute disclosure.
  Table t = UnwrapOk(PatientTable1());
  EXPECT_EQ(UnwrapOk(SensitivityP(t, Keys(t), Confs(t))), 1u);
  EXPECT_TRUE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), 1)));
  EXPECT_FALSE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), 2)));
}

TEST(PSensitiveTest, PatientTable3IsOnly1Sensitive) {
  // §2: "This masked microdata satisfies 1-sensitive 3-anonymity" (first
  // group has two illnesses but a single income).
  Table t = UnwrapOk(PatientTable3());
  EXPECT_EQ(UnwrapOk(SensitivityP(t, Keys(t), Confs(t))), 1u);
}

TEST(PSensitiveTest, PatientTable3FixedIs2Sensitive) {
  // §2: changing one income to 40,000 gives both groups two distinct
  // illnesses and incomes -> p = 2.
  Table t = UnwrapOk(PatientTable3Fixed());
  EXPECT_EQ(UnwrapOk(SensitivityP(t, Keys(t), Confs(t))), 2u);
  EXPECT_TRUE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), 2)));
  EXPECT_FALSE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), 3)));
}

TEST(AlgorithmsTest, BasicOnPaperTables) {
  Table t1 = UnwrapOk(PatientTable1());
  CheckOutcome basic = UnwrapOk(CheckBasic(t1, 2, 2));
  EXPECT_FALSE(basic.satisfied);
  EXPECT_EQ(basic.stage, CheckStage::kGroupDetail);

  Table t3f = UnwrapOk(PatientTable3Fixed());
  CheckOutcome ok = UnwrapOk(CheckBasic(t3f, 2, 3));
  EXPECT_TRUE(ok.satisfied);
  EXPECT_EQ(ok.stage, CheckStage::kPassed);
  EXPECT_EQ(ok.groups_examined, 2u);
}

TEST(AlgorithmsTest, BasicRejectsNonKAnonymousFirst) {
  Table fig3 = UnwrapOk(Figure3Table());
  // Figure 3 data has no confidential attribute; use Table 1 with k = 3
  // (not 3-anonymous).
  Table t1 = UnwrapOk(PatientTable1());
  CheckOutcome outcome = UnwrapOk(CheckBasic(t1, 2, 3));
  EXPECT_FALSE(outcome.satisfied);
  EXPECT_EQ(outcome.stage, CheckStage::kKAnonymity);
  EXPECT_EQ(outcome.groups_examined, 0u);
  (void)fig3;
}

TEST(AlgorithmsTest, ImprovedCondition1Gate) {
  // Table 1 has 5 distinct illnesses but groups of 2; asking for p = 6 > 5
  // must be rejected by Condition 1 with zero group work.
  Table t1 = UnwrapOk(PatientTable1());
  CheckOutcome outcome = UnwrapOk(CheckImproved(t1, 6, 6));
  EXPECT_FALSE(outcome.satisfied);
  EXPECT_EQ(outcome.stage, CheckStage::kCondition1);
  EXPECT_EQ(outcome.groups_examined, 0u);
}

TEST(AlgorithmsTest, ImprovedCondition2Gate) {
  // Build a table where Condition 2 fires: n = 8, S frequencies 7,1 ->
  // maxGroups(2) = 1, but there are 4 groups, all of size 2.
  Schema schema = UnwrapOk(Schema::Create(
      {{"K", ValueType::kInt64, AttributeRole::kKey},
       {"S", ValueType::kString, AttributeRole::kConfidential}}));
  Table table(schema);
  for (int64_t g = 0; g < 4; ++g) {
    PSK_ASSERT_OK(table.AppendRow({Value(g), Value("common")}));
    PSK_ASSERT_OK(table.AppendRow(
        {Value(g), Value(g == 0 ? "rare" : "common")}));
  }
  CheckOutcome outcome = UnwrapOk(CheckImproved(table, 2, 2));
  EXPECT_FALSE(outcome.satisfied);
  EXPECT_EQ(outcome.stage, CheckStage::kCondition2);
  EXPECT_EQ(outcome.groups_examined, 0u);
}

TEST(AlgorithmsTest, ImprovedAcceptsSatisfyingTable) {
  Table t3f = UnwrapOk(PatientTable3Fixed());
  CheckOutcome outcome = UnwrapOk(CheckImproved(t3f, 2, 3));
  EXPECT_TRUE(outcome.satisfied);
}

TEST(AlgorithmsTest, ExplicitBoundsAreUsed) {
  Table t3f = UnwrapOk(PatientTable3Fixed());
  // Supply deliberately hostile bounds and observe the gates fire, proving
  // the caller-provided bounds are honored (the Theorem 1-2 reuse path).
  ConditionBounds tight{/*max_p=*/1, /*max_groups=*/0};
  CheckOutcome c1 = UnwrapOk(
      CheckImproved(t3f, Keys(t3f), Confs(t3f), 2, 3, tight));
  EXPECT_EQ(c1.stage, CheckStage::kCondition1);

  ConditionBounds groups_only{/*max_p=*/5, /*max_groups=*/1};
  CheckOutcome c2 = UnwrapOk(
      CheckImproved(t3f, Keys(t3f), Confs(t3f), 2, 3, groups_only));
  EXPECT_EQ(c2.stage, CheckStage::kCondition2);
}

TEST(AlgorithmsTest, InvalidParametersRejected) {
  Table t1 = UnwrapOk(PatientTable1());
  EXPECT_FALSE(CheckBasic(t1, 0, 2).ok());
  EXPECT_FALSE(CheckBasic(t1, 2, 0).ok());
  EXPECT_FALSE(CheckBasic(t1, 3, 2).ok());  // p > k
  EXPECT_FALSE(CheckImproved(t1, 3, 2).ok());
}

TEST(AlgorithmsTest, NoConfidentialAttributesRejected) {
  Table fig3 = UnwrapOk(Figure3Table());
  EXPECT_FALSE(CheckBasic(fig3, 2, 2).ok());
}

TEST(PSensitiveTest, EmptyTableVacuouslySensitive) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"K", ValueType::kInt64, AttributeRole::kKey},
       {"S", ValueType::kString, AttributeRole::kConfidential}}));
  Table table(schema);
  EXPECT_TRUE(UnwrapOk(IsPSensitive(table, {0}, {1}, 3)));
  EXPECT_EQ(UnwrapOk(SensitivityP(table, {0}, {1})), 0u);
}

TEST(PSensitiveTest, OutOfRangeConfidentialIndexIsRejectedEvenWhenEmpty) {
  Table full = UnwrapOk(PatientTable1());
  Table empty(full.schema());
  for (const Table* t : {&full, &empty}) {
    std::string what = "rows=" + std::to_string(t->num_rows());
    EXPECT_EQ(IsPSensitive(*t, Keys(*t), {99}, 2).status().code(),
              StatusCode::kOutOfRange)
        << what;
    EXPECT_EQ(SensitivityP(*t, Keys(*t), {99}).status().code(),
              StatusCode::kOutOfRange)
        << what;
    EXPECT_EQ(CountAttributeDisclosures(*t, Keys(*t), {99}).status().code(),
              StatusCode::kOutOfRange)
        << what;
  }
}

// --------------------------------------------------------------------------
// Attribute disclosures

TEST(DisclosureTest, PatientTable1HasOneDisclosure) {
  Table t = UnwrapOk(PatientTable1());
  // Only the Diabetes group has a constant Illness.
  EXPECT_EQ(UnwrapOk(CountAttributeDisclosures(t, Keys(t), Confs(t))), 1u);
}

TEST(DisclosureTest, Table3CountsPerAttributePair) {
  Table t = UnwrapOk(PatientTable3());
  // Group 1 (age 20): Illness {AIDS, Diabetes} fine; Income {50000} ->
  // one disclosure. Group 2: both attributes have 2 distinct values.
  EXPECT_EQ(UnwrapOk(CountAttributeDisclosures(t, Keys(t), Confs(t))), 1u);
  Table fixed = UnwrapOk(PatientTable3Fixed());
  EXPECT_EQ(
      UnwrapOk(CountAttributeDisclosures(fixed, Keys(fixed), Confs(fixed))),
      0u);
}

// --------------------------------------------------------------------------
// Properties: Algorithm 1 and Algorithm 2 agree on satisfaction for every
// (p, k) over randomized microdata.

struct SweepParam {
  size_t p;
  size_t k;
};

class AlgorithmAgreement : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgorithmAgreement, BasicAndImprovedAgree) {
  const auto [p, k] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SyntheticSpec spec =
        MakeUniformSpec(/*num_rows=*/120, /*num_key=*/2, /*key_card=*/4,
                        /*num_conf=*/2, /*conf_card=*/5, /*conf_theta=*/0.8);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    CheckOutcome basic = UnwrapOk(CheckBasic(data.table, p, k));
    CheckOutcome improved = UnwrapOk(CheckImproved(data.table, p, k));
    EXPECT_EQ(basic.satisfied, improved.satisfied)
        << "p=" << p << " k=" << k << " seed=" << seed;
    // The improved algorithm never inspects more groups than the basic.
    EXPECT_LE(improved.groups_examined, basic.groups_examined + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PkSweep, AlgorithmAgreement,
    ::testing::Values(SweepParam{1, 1}, SweepParam{1, 2}, SweepParam{2, 2},
                      SweepParam{2, 3}, SweepParam{3, 3}, SweepParam{3, 5},
                      SweepParam{4, 4}, SweepParam{5, 8}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "p" + std::to_string(info.param.p) + "k" +
             std::to_string(info.param.k);
    });

// Consistency: SensitivityP is exactly the largest p accepted by
// IsPSensitive.
TEST(PSensitiveProperty, SensitivityPIsTightBound) {
  for (uint64_t seed = 10; seed < 16; ++seed) {
    SyntheticSpec spec =
        MakeUniformSpec(80, 2, 3, 1, 4, /*conf_theta=*/0.3);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    const Table& t = data.table;
    size_t p_star = UnwrapOk(SensitivityP(t, Keys(t), Confs(t)));
    ASSERT_GE(p_star, 1u);
    EXPECT_TRUE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), p_star)));
    EXPECT_FALSE(UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), p_star + 1)));
  }
}

// Disclosures and 2-sensitivity are two views of the same fact.
TEST(PSensitiveProperty, DisclosureIffNot2Sensitive) {
  for (uint64_t seed = 30; seed < 40; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(60, 2, 3, 2, 3, 0.9);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    const Table& t = data.table;
    size_t disclosures =
        UnwrapOk(CountAttributeDisclosures(t, Keys(t), Confs(t)));
    bool two_sensitive = UnwrapOk(IsPSensitive(t, Keys(t), Confs(t), 2));
    EXPECT_EQ(disclosures == 0, two_sensitive) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace psk
