// Fault-injection suite: malformed inputs, exhausted budgets and hostile
// post-processing must all surface as clean Status errors (or partial
// results) — never a crash, hang or silent bad release.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/greedy_cluster.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/mondrian.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/api/anonymizer.h"
#include "psk/common/failpoint.h"
#include "psk/datagen/adult.h"
#include "psk/guard/guard.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/hierarchy/hierarchy_io.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

// ---------------------------------------------------------------------------
// Malformed hierarchy files.

TEST(HierarchyFaultTest, CycleInGeneralizationChainRejected) {
  // "A" reappears at level 2 after level 0: generalizing A eventually
  // yields A again.
  auto h = LoadTaxonomyCsv("A;B;A;*\nC;B;A;*", "Attr");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("cycle"), std::string::npos);
}

TEST(HierarchyFaultTest, ConflictingAncestorsRejected) {
  // "X" at level 1 maps to P in one chain and Q in another, so the domain
  // chain is not a function.
  auto h = LoadTaxonomyCsv("A;X;P;*\nB;X;Q;*", "Attr");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("conflicting"), std::string::npos);
}

TEST(HierarchyFaultTest, MissingSingleRootRejected) {
  auto h = LoadTaxonomyCsv("A;X\nB;Y", "Attr");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("root"), std::string::npos);
}

TEST(HierarchyFaultTest, RaggedLevelsRejectedWithLineNumber) {
  auto h = LoadTaxonomyCsv("A;X;*\nB;*", "Attr");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.status().message().find("line 2"), std::string::npos);
}

TEST(HierarchyFaultTest, EmptyFileRejected) {
  auto h = LoadTaxonomyCsv("\n  \n", "Attr");
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyFaultTest, SelfGeneralizationAtTopIsLegal) {
  // A value that is its own ancestor on *consecutive* levels is the normal
  // ARX idiom for "already general enough" — it must not be read as a
  // cycle.
  auto h = LoadTaxonomyCsv("White;White;*\nBlack;Black;*\nOther;Other;*",
                           "Race");
  PSK_ASSERT_OK(h);
  EXPECT_EQ(h.value()->num_levels(), 3);
}

// ---------------------------------------------------------------------------
// Truncated / garbage CSV microdata.

Schema TwoColumnSchema() {
  return UnwrapOk(Schema::Create(
      {{"Zip", ValueType::kString, AttributeRole::kKey},
       {"Illness", ValueType::kString, AttributeRole::kConfidential}}));
}

TEST(CsvFaultTest, DuplicateHeaderColumnRejected) {
  auto t = ReadCsvString("Zip,Zip\nA,B\n", TwoColumnSchema(), {});
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("duplicate column 'Zip'"),
            std::string::npos);
  EXPECT_NE(t.status().message().find("line 1"), std::string::npos);
}

TEST(CsvFaultTest, UnknownHeaderColumnNamedInError) {
  auto t = ReadCsvString("Zip,Bogus\n", TwoColumnSchema(), {});
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("CSV header (line 1)"),
            std::string::npos);
  EXPECT_NE(t.status().message().find("Bogus"), std::string::npos);
}

TEST(CsvFaultTest, RaggedRowAfterEmbeddedNewlineKeepsLineNumbers) {
  // The quoted field on line 2 spans lines 2-3, so the ragged record is on
  // physical line 4 — the error must say so.
  auto t = ReadCsvString("Zip,Illness\n\"A\nB\",Flu\nonly-one-field\n",
                         TwoColumnSchema(), {});
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("CSV line 4"), std::string::npos);
}

TEST(CsvFaultTest, UnterminatedQuoteReportsStartingLine) {
  auto t = ReadCsvString("Zip,Illness\nA,\"Flu", TwoColumnSchema(), {});
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("unterminated quoted field"),
            std::string::npos);
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos);
}

TEST(CsvFaultTest, TruncatedFileYieldsEmptyTableAndRunRefusesCleanly) {
  // A file cut off after its header parses to zero rows; the Anonymizer
  // then refuses because k can never be met, instead of crashing.
  Table table = UnwrapOk(ReadCsvString("Zip,Illness\n", TwoColumnSchema(), {}));
  ASSERT_EQ(table.num_rows(), 0u);
  Anonymizer anonymizer(std::move(table));
  anonymizer.AddHierarchy(
      UnwrapOk(PrefixHierarchy::Create("Zip", {0, 1})));
  anonymizer.set_k(2);
  auto report = anonymizer.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("exceeds the number of rows"),
            std::string::npos);
}

TEST(CsvFaultTest, GarbageValueNamesLineAndColumn) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"Age", ValueType::kInt64, AttributeRole::kKey},
       {"Illness", ValueType::kString, AttributeRole::kConfidential}}));
  auto t = ReadCsvString("Age,Illness\n34,Flu\nnot-a-number,Cold\n", schema,
                         {});
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("CSV line 3"), std::string::npos);
  EXPECT_NE(t.status().message().find("'Age'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Budget exhaustion, one test per engine. Every search must stop cleanly
// with a partial result (or the budget's own status), never hang or abort.

struct AdultData {
  Table table;
  HierarchySet hierarchies;
};

AdultData MakeAdult(size_t rows) {
  Table table = UnwrapOk(AdultGenerate(rows, /*seed=*/7));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(table.schema()));
  return {std::move(table), std::move(hierarchies)};
}

SearchOptions CappedOptions(uint64_t max_nodes) {
  SearchOptions options;
  options.k = 4;
  options.p = 2;
  options.max_suppression = 10;
  options.budget.max_nodes_expanded = max_nodes;
  return options;
}

TEST(BudgetFaultTest, SamaratiStopsOnNodeCap) {
  AdultData data = MakeAdult(120);
  SearchResult result = UnwrapOk(
      SamaratiSearch(data.table, data.hierarchies, CappedOptions(2)));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
  EXPECT_LE(result.stats.nodes_generalized, 2u);
}

TEST(BudgetFaultTest, BottomUpStopsOnNodeCap) {
  AdultData data = MakeAdult(120);
  SearchResult result = UnwrapOk(
      BottomUpSearch(data.table, data.hierarchies, CappedOptions(2)));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
}

TEST(BudgetFaultTest, IncognitoStopsOnNodeCap) {
  AdultData data = MakeAdult(120);
  SearchResult result = UnwrapOk(
      IncognitoSearch(data.table, data.hierarchies, CappedOptions(2)));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
}

TEST(BudgetFaultTest, ExhaustiveStopsOnNodeCapSequentially) {
  AdultData data = MakeAdult(120);
  SearchResult result = UnwrapOk(
      ExhaustiveSearch(data.table, data.hierarchies, CappedOptions(3)));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
  EXPECT_LE(result.stats.nodes_generalized, 3u);
}

TEST(BudgetFaultTest, ExhaustiveShardsShareOneBudget) {
  AdultData data = MakeAdult(120);
  SearchOptions options = CappedOptions(10);
  options.threads = 4;
  SearchResult result =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
  // The cap is global across shards, not per shard.
  EXPECT_LE(result.stats.nodes_generalized, 10u);
  // Whatever was collected is internally consistent: every minimal node is
  // also a satisfying node.
  for (const LatticeNode& node : result.minimal_nodes) {
    bool present = false;
    for (const LatticeNode& sat : result.satisfying_nodes) {
      present = present || sat == node;
    }
    EXPECT_TRUE(present) << node.ToString();
  }
}

TEST(BudgetFaultTest, OlaStopsOnNodeCap) {
  AdultData data = MakeAdult(120);
  SearchResult result =
      UnwrapOk(OlaSearch(data.table, data.hierarchies, CappedOptions(2)));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
}

TEST(BudgetFaultTest, MondrianLeavesStayValidWhenBudgetTrips) {
  AdultData data = MakeAdult(120);
  MondrianOptions options;
  options.k = 4;
  options.p = 2;
  options.budget.max_nodes_expanded = 1;
  MondrianResult result = UnwrapOk(MondrianAnonymize(data.table, options));
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StatusCode::kResourceExhausted);
  // Un-split partitions are coarser but still satisfy k and p — the
  // release guard agrees.
  GuardPolicy policy;
  policy.k = 4;
  policy.p = 2;
  GuardReport report = UnwrapOk(
      VerifyRelease(result.masked, data.table.num_rows(), policy));
  EXPECT_TRUE(report.passed) << report.Summary();
}

TEST(BudgetFaultTest, GreedyClusterFailsCleanlyWhenNoClusterCompletes) {
  AdultData data = MakeAdult(120);
  GreedyClusterOptions options;
  options.k = 4;
  options.p = 2;
  options.budget.max_nodes_expanded = 1;
  auto result = GreedyClusterAnonymize(data.table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetFaultTest, GreedyClusterZeroDeadlineFailsCleanly) {
  AdultData data = MakeAdult(120);
  GreedyClusterOptions options;
  options.k = 4;
  options.p = 2;
  options.budget.deadline = std::chrono::milliseconds(0);
  auto result = GreedyClusterAnonymize(data.table, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetFaultTest, PreCancelledTokenStopsSearchImmediately) {
  AdultData data = MakeAdult(120);
  SearchOptions options = CappedOptions(2);
  options.budget.max_nodes_expanded.reset();
  options.budget.cancel = std::make_shared<CancelToken>();
  options.budget.cancel->Cancel();
  SearchResult result =
      UnwrapOk(SamaratiSearch(data.table, data.hierarchies, options));
  EXPECT_FALSE(result.found);
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// The headline robustness guarantee: a lattice of a million nodes under a
// 100 ms deadline answers in well under a second instead of grinding
// through the full sweep (which would take minutes).

TEST(BudgetFaultTest, MillionNodeLatticeRespectsDeadline) {
  // 6 key attributes, each with a 10-level prefix hierarchy over 9-char
  // codes: 10^6 lattice nodes.
  std::vector<Attribute> specs;
  for (int a = 0; a < 6; ++a) {
    specs.push_back({"K" + std::to_string(a), ValueType::kString,
                     AttributeRole::kKey});
  }
  specs.push_back({"Illness", ValueType::kString,
                   AttributeRole::kConfidential});
  Schema schema = UnwrapOk(Schema::Create(specs));
  Table table(schema);
  for (int row = 0; row < 12; ++row) {
    std::vector<Value> values;
    for (int a = 0; a < 6; ++a) {
      values.emplace_back(std::string(1, 'A' + (row + a) % 4) + "00000000");
    }
    values.emplace_back(row % 2 == 0 ? "Flu" : "Cold");
    EXPECT_TRUE(table.AppendRow(std::move(values)).ok());
  }
  std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies;
  for (int a = 0; a < 6; ++a) {
    hierarchies.push_back(UnwrapOk(PrefixHierarchy::Create(
        "K" + std::to_string(a), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9})));
  }
  HierarchySet set = UnwrapOk(HierarchySet::Create(schema, hierarchies));

  SearchOptions options;
  options.k = 6;
  options.p = 1;
  options.budget.deadline = std::chrono::milliseconds(100);
  auto start = std::chrono::steady_clock::now();
  SearchResult result =
      UnwrapOk(ExhaustiveSearch(table, set, options));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed.count(), 1000) << "search overran its deadline";
}

// ---------------------------------------------------------------------------
// Fallback-chain degradation through the public API.

TEST(FallbackFaultTest, ChainDegradesToFullSuppressionUnderZeroDeadline) {
  AdultData data = MakeAdult(60);
  Anonymizer anonymizer(std::move(data.table));
  for (size_t i = 0; i < data.hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(data.hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(4).set_p(2).set_deadline(std::chrono::milliseconds(0));
  anonymizer.set_fallback_chain({AnonymizationAlgorithm::kGreedyCluster,
                                 AnonymizationAlgorithm::kFullSuppression});
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_EQ(report.algorithm_used, AnonymizationAlgorithm::kFullSuppression);
  EXPECT_EQ(report.fallback_stage, 2u);
  EXPECT_TRUE(report.guard.passed) << report.guard.Summary();
  // One QI-group holding the whole table.
  EXPECT_EQ(report.achieved_k, 60u);
}

TEST(FallbackFaultTest, NoFallbackMeansBudgetStatusSurfaces) {
  AdultData data = MakeAdult(60);
  Anonymizer anonymizer(std::move(data.table));
  for (size_t i = 0; i < data.hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(data.hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(4).set_p(2).set_deadline(std::chrono::milliseconds(0));
  auto report = anonymizer.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Armed failpoints through the public API: every engine must finish with
// a clean Status under each injected return-error class — a successful
// release (possibly via the full-suppression fallback) or the injected
// error itself, never a crash or hang.

Anonymizer MakeArmedAnonymizer(AnonymizationAlgorithm algorithm,
                               AdultData* data) {
  Anonymizer anonymizer(std::move(data->table));
  for (size_t i = 0; i < data->hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(data->hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  anonymizer.set_algorithm(algorithm);
  anonymizer.set_fallback_chain({AnonymizationAlgorithm::kFullSuppression});
  return anonymizer;
}

void EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm algorithm) {
  // Reference run, no faults: the bytes an engine that never encodes must
  // keep releasing under the encoded-build class.
  const bool lattice_engine =
      algorithm != AnonymizationAlgorithm::kMondrian &&
      algorithm != AnonymizationAlgorithm::kGreedyCluster;
  FailPoints::DisarmAll();
  AdultData clean = MakeAdult(120);
  AnonymizationReport unfaulted =
      UnwrapOk(MakeArmedAnonymizer(algorithm, &clean).Run());

  // Class 1: a stage-level error. The primary stage fails with the
  // injected (continuable) error; the full-suppression fallback releases.
  {
    SCOPED_TRACE("api.stage");
    FailPoints::DisarmAll();
    PSK_ASSERT_OK(
        FailPoints::ArmFromSpec("api.stage=error(ResourceExhausted)x1"));
    AdultData data = MakeAdult(120);
    AnonymizationReport report =
        UnwrapOk(MakeArmedAnonymizer(algorithm, &data).Run());
    EXPECT_EQ(report.algorithm_used,
              AnonymizationAlgorithm::kFullSuppression);
    EXPECT_EQ(report.fallback_stage, 1u);
    EXPECT_TRUE(report.guard.passed) << report.guard.Summary();
  }

  // Class 2: guard verification fails. Guard refusal is final — the
  // injected error surfaces as the run's own clean failure, because a
  // release the guard could not verify must never escape.
  {
    SCOPED_TRACE("guard.verify");
    FailPoints::DisarmAll();
    PSK_ASSERT_OK(FailPoints::ArmFromSpec("guard.verify=error(DataLoss)"));
    AdultData data = MakeAdult(120);
    auto report = MakeArmedAnonymizer(algorithm, &data).Run();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(report.status().message().find("guard.verify"),
              std::string::npos);
  }

  // Class 3: the dictionary-encoded core refuses to build. A lattice
  // engine's Init fails its stage with the injected (continuable) error
  // before any node runs, and the full-suppression fallback — whose Mask
  // encodes again, now successfully — releases. Engines that never build
  // an encoded table are untouched.
  {
    SCOPED_TRACE("table.encoded.build x1");
    FailPoints::DisarmAll();
    PSK_ASSERT_OK(FailPoints::ArmFromSpec(
        "table.encoded.build=error(ResourceExhausted)x1"));
    AdultData data = MakeAdult(120);
    AnonymizationReport report =
        UnwrapOk(MakeArmedAnonymizer(algorithm, &data).Run());
    EXPECT_TRUE(report.guard.passed) << report.guard.Summary();
    if (lattice_engine) {
      EXPECT_EQ(report.algorithm_used,
                AnonymizationAlgorithm::kFullSuppression);
      EXPECT_EQ(report.fallback_stage, 1u);
    } else {
      EXPECT_EQ(report.algorithm_used, algorithm);
      EXPECT_EQ(WriteCsvString(report.masked),
                WriteCsvString(unfaulted.masked));
    }
  }
  // Armed without a count, the fallback's Mask fails as well: the run
  // fails cleanly with the injected code, and the message names the site.
  {
    SCOPED_TRACE("table.encoded.build");
    FailPoints::DisarmAll();
    PSK_ASSERT_OK(FailPoints::ArmFromSpec(
        "table.encoded.build=error(ResourceExhausted)"));
    AdultData data = MakeAdult(120);
    auto report = MakeArmedAnonymizer(algorithm, &data).Run();
    if (lattice_engine) {
      ASSERT_FALSE(report.ok());
      EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
      EXPECT_NE(report.status().message().find("table.encoded.build"),
                std::string::npos)
          << report.status().message();
    } else {
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(WriteCsvString(report->masked),
                WriteCsvString(unfaulted.masked));
    }
  }
  FailPoints::DisarmAll();
}

TEST(ArmedEngineTest, SamaratiRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kSamarati);
}

TEST(ArmedEngineTest, IncognitoRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kIncognito);
}

TEST(ArmedEngineTest, BottomUpRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kBottomUp);
}

TEST(ArmedEngineTest, ExhaustiveRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kExhaustive);
}

TEST(ArmedEngineTest, OlaRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kOla);
}

TEST(ArmedEngineTest, MondrianRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kMondrian);
}

TEST(ArmedEngineTest, GreedyClusterRunsCleanUnderInjectedErrors) {
  EngineRunsCleanUnderInjectedErrors(AnonymizationAlgorithm::kGreedyCluster);
}

TEST(ArmedEngineTest, FallbackChainPreservesTheRootCause) {
  // Every stage fails (unlimited injection): the final status must carry
  // the *primary* stage's error first, with each fallback stage's failure
  // appended as context — so post-mortems see the root cause, not the
  // last fallback's symptom.
  FailPoints::DisarmAll();
  PSK_ASSERT_OK(
      FailPoints::ArmFromSpec("api.stage=error(ResourceExhausted)"));
  AdultData data = MakeAdult(60);
  Anonymizer anonymizer = MakeArmedAnonymizer(
      AnonymizationAlgorithm::kSamarati, &data);
  auto report = anonymizer.Run();
  FailPoints::DisarmAll();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  const Status status = report.status();
  const std::string& message = status.message();
  size_t root = message.find("failpoint 'api.stage' injected");
  size_t context = message.find("fallback fullsuppression (stage 1) failed");
  ASSERT_NE(root, std::string::npos) << message;
  ASSERT_NE(context, std::string::npos) << message;
  EXPECT_LT(root, context) << "root cause must lead: " << message;
}

TEST(FallbackFaultTest, CancellationAbortsTheWholeChain) {
  AdultData data = MakeAdult(60);
  Anonymizer anonymizer(std::move(data.table));
  for (size_t i = 0; i < data.hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(data.hierarchies.hierarchy_ptr(i));
  }
  RunBudget budget;
  budget.cancel = std::make_shared<CancelToken>();
  budget.cancel->Cancel();
  anonymizer.set_k(4).set_p(2).set_budget(budget);
  anonymizer.set_fallback_chain({AnonymizationAlgorithm::kFullSuppression});
  auto report = anonymizer.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace psk
