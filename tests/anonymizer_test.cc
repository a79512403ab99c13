#include "psk/api/anonymizer.h"

#include <gtest/gtest.h>

#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/spec_parser.h"
#include "psk/common/failpoint.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/generalize/generalize.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

struct AdultFixture {
  Table table;
  HierarchySet hierarchies;

  explicit AdultFixture(size_t n = 600, uint64_t seed = 1)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))) {}

  Anonymizer MakeAnonymizer() const {
    Anonymizer anonymizer(table);
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
    }
    return anonymizer;
  }

  static std::shared_ptr<const AttributeHierarchy> AdultHierarchy(size_t i) {
    Schema schema = UnwrapOk(AdultSchema());
    HierarchySet set = UnwrapOk(AdultHierarchies(schema));
    return set.hierarchy_ptr(i);
  }
};

TEST(AnonymizerTest, SamaratiEndToEnd) {
  AdultFixture fixture;
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  ASSERT_TRUE(report.node.has_value());
  EXPECT_GE(report.achieved_k, 3u);
  EXPECT_GE(report.achieved_p, 2u);
  EXPECT_EQ(report.attribute_disclosures, 0u);
  EXPECT_LE(report.suppressed, 6u);
  EXPECT_GT(report.precision, 0.0);
  EXPECT_LT(report.precision, 1.0);
  EXPECT_GT(report.discernibility, 0u);
  EXPECT_TRUE(UnwrapOk(IsKAnonymous(report.masked, 3)));
}

TEST(AnonymizerTest, AllLatticeAlgorithmsAgreeOnHeight) {
  AdultFixture fixture(400, 7);
  int samarati_height = -1;
  for (auto algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kIncognito,
        AnonymizationAlgorithm::kBottomUp,
        AnonymizationAlgorithm::kExhaustive}) {
    Anonymizer anonymizer = fixture.MakeAnonymizer();
    anonymizer.set_k(2).set_p(2).set_max_suppression(4).set_algorithm(
        algorithm);
    AnonymizationReport report = UnwrapOk(anonymizer.Run());
    ASSERT_TRUE(report.node.has_value());
    if (samarati_height < 0) {
      samarati_height = report.node->Height();
    } else {
      EXPECT_EQ(report.node->Height(), samarati_height)
          << "algorithm " << static_cast<int>(algorithm);
    }
    EXPECT_GE(report.achieved_p, 2u);
  }
}

TEST(AnonymizerTest, MondrianNeedsNoHierarchies) {
  AdultFixture fixture;
  Anonymizer anonymizer(fixture.table);
  anonymizer.set_k(5).set_p(2).set_algorithm(
      AnonymizationAlgorithm::kMondrian);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_FALSE(report.node.has_value());
  EXPECT_GE(report.achieved_k, 5u);
  EXPECT_GE(report.achieved_p, 2u);
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_DOUBLE_EQ(report.precision, 1.0);
}

TEST(AnonymizerTest, GreedyClusterNeedsNoHierarchies) {
  AdultFixture fixture;
  Anonymizer anonymizer(fixture.table);
  anonymizer.set_k(4).set_p(2).set_algorithm(
      AnonymizationAlgorithm::kGreedyCluster);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_FALSE(report.node.has_value());
  EXPECT_GE(report.achieved_k, 4u);
  EXPECT_GE(report.achieved_p, 2u);
  EXPECT_EQ(report.attribute_disclosures, 0u);
}

TEST(AnonymizerTest, OlaReturnsBestMinimalNode) {
  AdultFixture fixture(400, 9);
  Anonymizer samarati = fixture.MakeAnonymizer();
  samarati.set_k(3).set_max_suppression(4);
  AnonymizationReport s_report = UnwrapOk(samarati.Run());

  Anonymizer ola = fixture.MakeAnonymizer();
  ola.set_k(3).set_max_suppression(4).set_algorithm(
      AnonymizationAlgorithm::kOla);
  AnonymizationReport o_report = UnwrapOk(ola.Run());

  ASSERT_TRUE(o_report.node.has_value());
  EXPECT_GE(o_report.achieved_k, 3u);
  // OLA optimizes discernibility over ALL minimal nodes, so it can only
  // match or beat the binary search's pick.
  EXPECT_LE(o_report.discernibility, s_report.discernibility);
}

TEST(AnonymizerTest, EveryLatticeRunEncodesTheTableOnce) {
  // Every lattice engine decodes its release from the encoding its sweeps
  // ran on before it returns, so Run() releases that decode instead of
  // masking the table a second time.
  AdultFixture fixture;
  for (AnonymizationAlgorithm algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kOla,
        AnonymizationAlgorithm::kExhaustive,
        AnonymizationAlgorithm::kBottomUp,
        AnonymizationAlgorithm::kIncognito}) {
    FailPoints::DisarmAll();
    FailPoints::SetTracing(true);
    Anonymizer anonymizer = fixture.MakeAnonymizer();
    anonymizer.set_k(3).set_p(2).set_max_suppression(6).set_algorithm(
        algorithm);
    AnonymizationReport report = UnwrapOk(anonymizer.Run());
    const uint64_t builds = FailPoints::Hits("table.encoded.build");
    FailPoints::DisarmAll();
    const std::string name(AlgorithmName(algorithm));
    EXPECT_EQ(builds, 1u) << name;
    ASSERT_TRUE(report.node.has_value()) << name;
    MaskedMicrodata masked =
        UnwrapOk(Mask(fixture.table, fixture.hierarchies, *report.node, 3));
    EXPECT_EQ(report.suppressed, masked.suppressed) << name;
    EXPECT_EQ(WriteCsvString(report.masked), WriteCsvString(masked.table))
        << name;
  }
}

TEST(AnonymizerTest, MissingHierarchyRejected) {
  AdultFixture fixture;
  Anonymizer anonymizer(fixture.table);  // no hierarchies registered
  anonymizer.set_k(2);
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("hierarchy"), std::string::npos);
}

TEST(AnonymizerTest, DuplicateHierarchyRejected) {
  AdultFixture fixture;
  Anonymizer anonymizer(fixture.table);
  anonymizer.AddHierarchy(AdultFixture::AdultHierarchy(0));
  anonymizer.AddHierarchy(AdultFixture::AdultHierarchy(0));
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);
}

TEST(AnonymizerTest, InfeasibleRequirementsFailWithContext) {
  Table t1 = UnwrapOk(PatientTable1());
  Anonymizer anonymizer(t1);
  auto age = UnwrapOk(IntervalHierarchy::Create(
      "Age", {IntervalHierarchy::Level::Top()}));
  auto zip = UnwrapOk(PrefixHierarchy::Create("ZipCode", {0, 5}));
  auto sex = std::make_shared<SuppressionHierarchy>("Sex");
  anonymizer.AddHierarchy(age).AddHierarchy(zip).AddHierarchy(sex);
  // Illness has 5 distinct values; p = 6 trips Condition 1.
  anonymizer.set_k(6).set_p(6);
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("Condition 1"),
            std::string::npos);
}

TEST(AnonymizerTest, UnsatisfiableBudgetFails) {
  Table fig3 = UnwrapOk(Figure3Table());
  Anonymizer anonymizer(fig3);
  auto sex = std::make_shared<SuppressionHierarchy>("Sex");
  auto zip = UnwrapOk(PrefixHierarchy::Create("ZipCode", {0, 2, 5}));
  anonymizer.AddHierarchy(sex).AddHierarchy(zip);
  anonymizer.set_k(11);  // more than 10 rows
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AnonymizerTest, ReportFieldsAreCoherent) {
  AdultFixture fixture(500, 11);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(4).set_p(2).set_max_suppression(5);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  // Normalized average group size: (rows / groups) / k >= 1 when the
  // property holds (every group has >= k members).
  EXPECT_GE(report.normalized_avg_group_size, 1.0);
  // Marketer risk equals groups/rows = 1 / (avg group size).
  EXPECT_NEAR(report.reidentification_risk *
                  report.normalized_avg_group_size * 4.0,
              1.0, 1e-9);
  // The search actually did work and recorded it.
  EXPECT_GT(report.stats.nodes_generalized, 0u);
  // Rows are conserved.
  EXPECT_EQ(report.masked.num_rows() + report.suppressed,
            fixture.table.num_rows());
}

TEST(AnonymizerTest, HierarchyOrderIrrelevant) {
  Table fig3 = UnwrapOk(Figure3Table());
  auto sex = std::make_shared<SuppressionHierarchy>("Sex");
  auto zip = UnwrapOk(PrefixHierarchy::Create("ZipCode", {0, 2, 5}));
  // Register in reverse schema order.
  Anonymizer anonymizer(fig3);
  anonymizer.AddHierarchy(zip).AddHierarchy(sex);
  anonymizer.set_k(3);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  ASSERT_TRUE(report.node.has_value());
  EXPECT_EQ(*report.node, (LatticeNode{{0, 2}}));  // Table 4, TS = 0
}

TEST(AnonymizerTest, KExceedingRowCountNamesTheGate) {
  AdultFixture fixture(50, 3);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(51);
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("exceeds the number of rows"),
            std::string::npos);
}

TEST(AnonymizerTest, MissingHierarchyNamesTheAttribute) {
  AdultFixture fixture;
  Anonymizer anonymizer(fixture.table);
  anonymizer.AddHierarchy(AdultFixture::AdultHierarchy(0));  // Age only
  anonymizer.set_k(2);
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("MaritalStatus"),
            std::string::npos);
}

TEST(AnonymizerTest, ProvenanceFieldsOnDirectSuccess) {
  AdultFixture fixture(300, 5);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_EQ(report.algorithm_used, AnonymizationAlgorithm::kSamarati);
  EXPECT_EQ(report.fallback_stage, 0u);
  EXPECT_FALSE(report.partial);
  EXPECT_TRUE(report.guard.passed) << report.guard.Summary();
  EXPECT_EQ(report.guard.observed_k, report.achieved_k);
  EXPECT_EQ(report.guard.observed_p, report.achieved_p);
}

TEST(AnonymizerTest, FallbackStageRecordedWhenPrimaryRunsOutOfBudget) {
  AdultFixture fixture(60, 3);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  RunBudget budget;
  budget.max_nodes_expanded = 1;  // exhaustive trips before finding anything
  anonymizer.set_k(4).set_p(2).set_max_suppression(6);
  anonymizer.set_algorithm(AnonymizationAlgorithm::kExhaustive);
  anonymizer.set_budget(budget);
  anonymizer.set_fallback_chain({AnonymizationAlgorithm::kFullSuppression});
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_EQ(report.algorithm_used, AnonymizationAlgorithm::kFullSuppression);
  EXPECT_EQ(report.fallback_stage, 1u);
  EXPECT_TRUE(report.guard.passed) << report.guard.Summary();
}

TEST(AnonymizerTest, GuardRefusesReleaseTamperedBelowK) {
  AdultFixture fixture(200, 5);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  // Keep only the first row of the masked table: a lone QI-group of size
  // 1 can never be 3-anonymous. The guard must catch it even though the
  // algorithm's own answer was fine.
  anonymizer.set_release_transform([](Table masked) -> Result<Table> {
    Table out(masked.schema());
    std::vector<Value> row;
    for (size_t c = 0; c < masked.schema().num_attributes(); ++c) {
      row.push_back(masked.Get(0, c));
    }
    PSK_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    return out;
  });
  GuardPolicy policy;
  policy.k = 3;
  policy.p = 1;  // isolate the k gate
  anonymizer.set_guard_policy(policy);
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("release guard"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("k-anonymity"),
            std::string::npos);
}

TEST(AnonymizerTest, GuardRefusesReleaseTamperedBelowP) {
  AdultFixture fixture(200, 5);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  // Flatten one confidential attribute to a constant: every QI-group drops
  // to one distinct Pay value, violating p = 2 without changing any group
  // size or the row count.
  anonymizer.set_release_transform([](Table masked) -> Result<Table> {
    PSK_ASSIGN_OR_RETURN(size_t pay, masked.schema().IndexOf("Pay"));
    Table out(masked.schema());
    for (size_t r = 0; r < masked.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < masked.schema().num_attributes(); ++c) {
        row.push_back(c == pay ? Value("Same") : masked.Get(r, c));
      }
      PSK_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
    return out;
  });
  auto result = anonymizer.Run();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("p-sensitivity"),
            std::string::npos);
}

TEST(AnonymizerTest, DisabledGuardReleasesEvenTamperedOutput) {
  // Documented footgun: with the guard off, the tampered release from the
  // previous test sails through — set_guard_enabled(false) really does
  // remove the safety net.
  AdultFixture fixture(200, 5);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  anonymizer.set_release_transform([](Table masked) -> Result<Table> {
    PSK_ASSIGN_OR_RETURN(size_t pay, masked.schema().IndexOf("Pay"));
    Table out(masked.schema());
    for (size_t r = 0; r < masked.num_rows(); ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < masked.schema().num_attributes(); ++c) {
        row.push_back(c == pay ? Value("Same") : masked.Get(r, c));
      }
      PSK_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
    }
    return out;
  });
  anonymizer.set_guard_enabled(false);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_EQ(report.achieved_p, 1u);  // the scorecard still tells the truth
}

}  // namespace
}  // namespace psk
