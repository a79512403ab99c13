// Golden suite for the dictionary-encoded evaluation core: every lattice
// engine (and the full Anonymizer chain) must reproduce the releases,
// SearchStats, suppression counts and guard verdicts the Value-path
// evaluator produced on the same inputs (see release_golden.h) — at every
// thread count, with and without intra-node row slicing. The decode is
// checked byte for byte against ApplyGeneralization +
// SuppressUndersizedGroups, which stay public as the Value-path reference.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/anonymity/diversity.h"
#include "psk/anonymity/frequency_stats.h"
#include "psk/anonymity/kanonymity.h"
#include "psk/anonymity/psensitive.h"
#include "psk/api/anonymizer.h"
#include "psk/api/spec_parser.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "psk/generalize/generalize.h"
#include "psk/table/csv.h"
#include "psk/table/encoded.h"
#include "release_golden.h"
#include "test_util.h"

namespace psk {
namespace {

struct AdultFixture {
  Table table;
  HierarchySet hierarchies;

  explicit AdultFixture(size_t n = 4000, uint64_t seed = 1)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))) {}
};

SearchOptions BaseOptions(size_t threads) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 40;
  options.threads = threads;
  return options;
}

const size_t kThreadCounts[] = {1, 2, 8};

// The Value-path reference for one masked microdata: generalize, then (for
// k > 0) suppress undersized groups.
MaskedMicrodata ValuePathMask(const Table& im, const HierarchySet& hierarchies,
                              const LatticeNode& node, size_t k) {
  MaskedMicrodata mm{UnwrapOk(ApplyGeneralization(im, hierarchies, node)),
                     node, 0};
  if (k > 0) {
    mm.table = UnwrapOk(SuppressUndersizedGroups(
        mm.table, mm.table.schema().KeyIndices(), k, &mm.suppressed));
  }
  return mm;
}

// ---------------------------------------------------------------------------
// Goldens (Value-path evaluator, k=3 p=2 TS=40 unless noted; node lists in
// lattice order, stats in StatsGolden field order).

// Adult 4000 rows, seed 1.
const SearchGolden kSamarati4000 = {
    {2, 1, 1, 1}, 0x1d4d174754f6b9d0ULL, 0, {}, 0, 0,
    {62, 0, 5, 37, 20, 0, 0, 0, 0, 4, 0}};
const SearchGolden kOla4000 = {
    {2, 1, 2, 0}, 0x4e5e0e06e9beb0d5ULL, 0,
    {{2, 0, 3, 1}, {2, 1, 1, 1}, {2, 1, 2, 0}, {2, 2, 1, 0}, {3, 1, 1, 0}},
    0, 0, {39, 0, 6, 20, 13, 262, 0, 0, 0, 0, 0}};

// Adult 1500 rows, seed 2 (every engine: the intra-node matrix runs them all
// on this fixture).
const std::vector<std::vector<int>> kMinimal1500Seed2 = {
    {2, 1, 2, 1}, {2, 1, 3, 0}, {2, 2, 1, 1}, {2, 2, 2, 0},
    {3, 0, 3, 1}, {3, 1, 1, 1}, {3, 1, 2, 0}, {3, 2, 1, 0}};
const SearchGolden kExhaustive1500 = {
    {}, 0, 0, kMinimal1500Seed2, 20, 0x301a4aaf2fe3cf04ULL,
    {96, 2, 28, 46, 20, 0, 0, 0, 0, 0, 0}};
const SearchGolden kSamarati1500 = {
    {2, 1, 2, 1}, 0x27caf3f3a8ced3e5ULL, 0, {}, 0, 0,
    {62, 2, 7, 38, 15, 0, 0, 0, 0, 4, 0}};
const SearchGolden kOla1500 = {
    {2, 1, 3, 0}, 0x2635971dc58c0cf1ULL, 0, kMinimal1500Seed2, 0, 0,
    {42, 1, 6, 24, 11, 256, 0, 0, 0, 0, 0}};
const SearchGolden kIncognito1500 = {
    {}, 0, 0, kMinimal1500Seed2, 8, 0x2a53dfd2fc4ff772ULL,
    {56, 2, 0, 46, 8, 273, 0, 0, 0, 0, 38}};
const SearchGolden kBottomUp1500 = {
    {}, 0, 0, kMinimal1500Seed2, 8, 0x441c43b5b2bf8f8eULL,
    {84, 2, 28, 46, 8, 12, 0, 0, 0, 0, 0}};

// Adult 1500 rows, seed 3 (bottom-up) and seed 4 (Incognito).
const SearchGolden kBottomUp1500Seed3 = {
    {}, 0, 0,
    {{2, 1, 2, 1}, {2, 1, 3, 0}, {2, 2, 1, 1}, {3, 1, 1, 1}, {3, 1, 2, 0},
     {3, 2, 1, 0}},
    6, 0x9c191e71de46dd85ULL, {84, 0, 28, 50, 6, 12, 0, 0, 0, 0, 0}};
const SearchGolden kIncognito1500Seed4 = {
    {}, 0, 0,
    {{1, 2, 3, 1}, {2, 1, 3, 0}, {2, 2, 1, 1}, {3, 0, 3, 1}, {3, 1, 1, 1},
     {3, 1, 2, 0}, {3, 2, 1, 0}},
    7, 0x20ddca51bae22694ULL, {54, 0, 0, 47, 7, 268, 0, 0, 0, 0, 43}};

// Anonymizer over Adult 800 rows, seed 7, k=3 p=2 TS=8, one per engine.
const ReportGolden kAnonymizer800[] = {
    {AnonymizationAlgorithm::kSamarati, 0xdc16c53555b4c120ULL, {2, 1, 3, 1},
     0, 87, 3, 0.20833333333333337, 204854, 0, 0.0050000000000000001,
     66.666666666666671, AnonymizationAlgorithm::kSamarati,
     {true, 87, 3, 0, 0, 0}, {43, 0, 16, 23, 4, 0, 0, 0, 0, 3, 0}},
    {AnonymizationAlgorithm::kIncognito, 0xdc16c53555b4c120ULL, {2, 1, 3, 1},
     0, 87, 3, 0.20833333333333337, 204854, 0, 0.0050000000000000001,
     66.666666666666671, AnonymizationAlgorithm::kIncognito,
     {true, 87, 3, 0, 0, 0}, {42, 0, 0, 38, 4, 257, 0, 0, 0, 0, 47}},
    {AnonymizationAlgorithm::kBottomUp, 0xdc16c53555b4c120ULL, {2, 1, 3, 1},
     0, 87, 3, 0.20833333333333337, 204854, 0, 0.0050000000000000001,
     66.666666666666671, AnonymizationAlgorithm::kBottomUp,
     {true, 87, 3, 0, 0, 0}, {67, 0, 25, 38, 4, 29, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kExhaustive, 0xdc16c53555b4c120ULL, {2, 1, 3, 1},
     0, 87, 3, 0.20833333333333337, 204854, 0, 0.0050000000000000001,
     66.666666666666671, AnonymizationAlgorithm::kExhaustive,
     {true, 87, 3, 0, 0, 0}, {96, 0, 49, 38, 9, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kMondrian, 0x46f4b081449f5d7aULL, {}, 0, 9, 2, 1,
     43064, 0, 0.028750000000000001, 11.594202898550725,
     AnonymizationAlgorithm::kMondrian, {true, 9, 2, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kGreedyCluster, 0x6204484754f467bbULL, {}, 0, 4,
     2, 1, 82960, 0, 0.03875, 8.6021505376344081,
     AnonymizationAlgorithm::kGreedyCluster, {true, 4, 2, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {AnonymizationAlgorithm::kOla, 0x78053461816ed281ULL, {3, 1, 3, 0}, 0,
     120, 4, 0.375, 181614, 0, 0.0050000000000000001, 66.666666666666671,
     AnonymizationAlgorithm::kOla, {true, 120, 4, 0, 0, 0},
     {38, 0, 17, 15, 6, 411, 0, 0, 0, 0, 0}},
};

// Paper microdata (exhaustive search): Figure 3 at k=3, and Patient Tables
// 1 and 3 at k=2 p=2 over suppression hierarchies.
const SearchGolden kFigure3 = {
    {}, 0, 0, {{0, 2}}, 2, 0x97ff1edfead17dbeULL,
    {6, 0, 4, 0, 2, 0, 0, 0, 0, 0, 0}};
const SearchGolden kPatientTable1 = {
    {}, 0, 0, {{1, 0, 0}}, 4, 0x5cc9ca7d2e7d9dc3ULL,
    {8, 0, 0, 4, 4, 0, 0, 0, 0, 0, 0}};
const SearchGolden kPatientTable3 = {
    {}, 0, 0, {{1, 0, 1}}, 2, 0x24b0bcd3638da80aULL,
    {8, 0, 0, 6, 2, 0, 0, 0, 0, 0, 0}};

Anonymizer MakeAnonymizer(const AdultFixture& fixture,
                          AnonymizationAlgorithm algorithm) {
  Anonymizer anonymizer(fixture.table);
  for (size_t i = 0; i < fixture.hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(fixture.hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(3).set_p(2).set_max_suppression(8).set_algorithm(
      algorithm);
  return anonymizer;
}

// ---------------------------------------------------------------------------
// Decode byte-identity: the one-shot decode of the winning node (which Mask
// runs too) must equal the Value-path ApplyGeneralization + suppression
// pipeline byte for byte.

TEST(EncodedDecodeTest, DecodeMatchesLegacyMaskOnAdult) {
  AdultFixture fixture(1500, 5);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  // Ground node, a mixed mid-lattice node, and the top.
  std::vector<LatticeNode> nodes = {LatticeNode{{0, 0, 0, 0}},
                                    LatticeNode{{1, 0, 2, 1}},
                                    LatticeNode{{2, 1, 0, 0}},
                                    LatticeNode{{3, 2, 3, 1}}};
  for (const LatticeNode& node : nodes) {
    for (size_t k : {size_t{0}, size_t{3}}) {
      MaskedMicrodata legacy =
          ValuePathMask(fixture.table, fixture.hierarchies, node, k);
      MaskedMicrodata fast = UnwrapOk(DecodeMasked(encoded, node, k, &ws));
      EXPECT_EQ(fast.suppressed, legacy.suppressed)
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
      EXPECT_EQ(WriteCsvString(fast.table), WriteCsvString(legacy.table))
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
    }
  }
}

TEST(EncodedDecodeTest, InvalidNodesRejectedLikeLegacy) {
  AdultFixture fixture(200, 6);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  // Wrong level count: byte-identical message to ApplyGeneralization.
  LatticeNode short_node{{1, 0}};
  Status enc_status = encoded.GroupByNode(short_node, &ws);
  Result<Table> legacy =
      ApplyGeneralization(fixture.table, fixture.hierarchies, short_node);
  ASSERT_FALSE(enc_status.ok());
  ASSERT_FALSE(legacy.ok());
  EXPECT_EQ(enc_status.code(), legacy.status().code());
  EXPECT_EQ(enc_status.message(), legacy.status().message());
  // Out-of-range level.
  LatticeNode tall_node{{9, 0, 0, 0}};
  EXPECT_FALSE(encoded.GroupByNode(tall_node, &ws).ok());
}

// ---------------------------------------------------------------------------
// Anonymity-check overloads: the code-path predicates agree with the
// Value-path predicates on the same partitions.

TEST(EncodedChecksTest, OverloadsAgreeWithLegacyChecks) {
  AdultFixture fixture(1200, 9);
  EncodedTable encoded =
      UnwrapOk(EncodedTable::Build(fixture.table, fixture.hierarchies));
  EncodedWorkspace ws;
  EncodedDistinctScratch scratch;

  FrequencyStats legacy_stats = UnwrapOk(FrequencyStats::Compute(fixture.table));
  FrequencyStats enc_stats = UnwrapOk(FrequencyStats::Compute(encoded));
  ASSERT_EQ(enc_stats.n(), legacy_stats.n());
  ASSERT_EQ(enc_stats.q(), legacy_stats.q());
  for (size_t j = 0; j < enc_stats.q(); ++j) {
    ASSERT_EQ(enc_stats.s(j), legacy_stats.s(j)) << "j=" << j;
    for (size_t i = 0; i < enc_stats.s(j); ++i) {
      EXPECT_EQ(enc_stats.f(j, i), legacy_stats.f(j, i));
      EXPECT_EQ(enc_stats.cf(j, i), legacy_stats.cf(j, i));
    }
  }
  EXPECT_EQ(enc_stats.MaxP(), legacy_stats.MaxP());
  for (size_t p = 2; p <= enc_stats.MaxP() && p <= 4; ++p) {
    EXPECT_EQ(UnwrapOk(enc_stats.MaxGroups(p)),
              UnwrapOk(legacy_stats.MaxGroups(p)));
  }

  for (const LatticeNode& node :
       {LatticeNode{{1, 1, 1, 0}}, LatticeNode{{2, 1, 2, 1}},
        LatticeNode{{3, 2, 3, 1}}}) {
    PSK_ASSERT_OK(encoded.GroupByNode(node, &ws));
    Table generalized = UnwrapOk(
        ApplyGeneralization(fixture.table, fixture.hierarchies, node));
    std::vector<size_t> keys = generalized.schema().KeyIndices();
    std::vector<size_t> confs = generalized.schema().ConfidentialIndices();
    for (size_t k : {size_t{2}, size_t{5}}) {
      EXPECT_EQ(UnwrapOk(IsKAnonymousEncoded(ws.groups, k)),
                UnwrapOk(IsKAnonymous(generalized, keys, k)))
          << "node=" << SnapshotNodeKey(node) << " k=" << k;
    }
    for (size_t p : {size_t{2}, size_t{3}}) {
      EXPECT_EQ(
          IsPSensitiveEncoded(ws.groups, encoded, p, /*min_group_size=*/1,
                              &scratch),
          UnwrapOk(IsPSensitive(generalized, keys, confs, p)))
          << "node=" << SnapshotNodeKey(node) << " p=" << p;
      EXPECT_EQ(IsDistinctLDiverseEncoded(ws.groups, encoded, p, &scratch),
                UnwrapOk(IsDistinctLDiverse(generalized, keys, confs, p)))
          << "node=" << SnapshotNodeKey(node) << " l=" << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level goldens on Adult, across thread counts.

TEST(EncodedEquivalenceTest, SamaratiMatchesLegacy) {
  AdultFixture fixture;
  for (size_t threads : kThreadCounts) {
    ExpectSearchMatches(UnwrapOk(SamaratiSearch(fixture.table,
                                                fixture.hierarchies,
                                                BaseOptions(threads))),
                        kSamarati4000,
                        "samarati threads=" + std::to_string(threads));
  }
}

TEST(EncodedEquivalenceTest, OlaMatchesLegacy) {
  AdultFixture fixture;
  for (size_t threads : kThreadCounts) {
    OlaOptions options;
    options.search = BaseOptions(threads);
    ExpectSearchMatches(
        UnwrapOk(OlaSearch(fixture.table, fixture.hierarchies, options)),
        kOla4000, "ola threads=" + std::to_string(threads));
  }
}

TEST(EncodedEquivalenceTest, ExhaustiveMatchesLegacy) {
  AdultFixture fixture(1500, 2);
  for (size_t threads : kThreadCounts) {
    ExpectSearchMatches(UnwrapOk(ExhaustiveSearch(fixture.table,
                                                  fixture.hierarchies,
                                                  BaseOptions(threads))),
                        kExhaustive1500,
                        "exhaustive threads=" + std::to_string(threads));
  }
}

TEST(EncodedEquivalenceTest, BottomUpMatchesLegacy) {
  AdultFixture fixture(1500, 3);
  for (size_t threads : kThreadCounts) {
    ExpectSearchMatches(UnwrapOk(BottomUpSearch(fixture.table,
                                                fixture.hierarchies,
                                                BaseOptions(threads))),
                        kBottomUp1500Seed3,
                        "bottom-up threads=" + std::to_string(threads));
  }
}

TEST(EncodedEquivalenceTest, IncognitoMatchesLegacy) {
  AdultFixture fixture(1500, 4);
  for (size_t threads : kThreadCounts) {
    ExpectSearchMatches(UnwrapOk(IncognitoSearch(fixture.table,
                                                 fixture.hierarchies,
                                                 BaseOptions(threads))),
                        kIncognito1500Seed4,
                        "incognito threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Full API chain: all seven engines through Anonymizer — the release, the
// scorecard and the guard's independent verdict.

TEST(EncodedEquivalenceTest, AnonymizerAllAlgorithmsMatchLegacy) {
  AdultFixture fixture(800, 7);
  for (const ReportGolden& want : kAnonymizer800) {
    ExpectReportMatches(
        UnwrapOk(MakeAnonymizer(fixture, want.algorithm).Run()), want,
        "algorithm=" + std::string(AlgorithmName(want.algorithm)));
  }
}

// ---------------------------------------------------------------------------
// Paper microdata: the tiny tables of Section 1 (Tables 1-3) and the
// Figure 3 example ride through both paths identically.

TEST(EncodedEquivalenceTest, Figure3MicrodataMatchesLegacy) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  SearchOptions options;
  options.k = 3;
  ExpectSearchMatches(UnwrapOk(ExhaustiveSearch(fig3, hierarchies, options)),
                      kFigure3, "figure 3");
}

TEST(EncodedEquivalenceTest, PatientTablesMatchLegacy) {
  for (int which : {1, 3}) {
    Table table =
        which == 1 ? UnwrapOk(PatientTable1()) : UnwrapOk(PatientTable3());
    // One suppression hierarchy per QI (Age, ZipCode, Sex) — enough to
    // exercise the int64 -> "*" re-typing path on Age.
    std::vector<std::shared_ptr<const AttributeHierarchy>> hs;
    for (size_t i : table.schema().KeyIndices()) {
      hs.push_back(std::make_shared<SuppressionHierarchy>(
          table.schema().attribute(i).name));
    }
    HierarchySet hierarchies =
        UnwrapOk(HierarchySet::Create(table.schema(), hs));
    SearchOptions options;
    options.k = 2;
    options.p = 2;
    MinimalSetResult got =
        UnwrapOk(ExhaustiveSearch(table, hierarchies, options));
    std::string what = "table " + std::to_string(which);
    ExpectSearchMatches(got, which == 1 ? kPatientTable1 : kPatientTable3,
                        what);
    // Materialize every satisfying node through the decode and the
    // Value-path reference.
    EncodedTable encoded = UnwrapOk(EncodedTable::Build(table, hierarchies));
    EncodedWorkspace ws;
    for (const LatticeNode& node : got.satisfying_nodes) {
      MaskedMicrodata legacy_mm =
          ValuePathMask(table, hierarchies, node, options.k);
      MaskedMicrodata fast_mm =
          UnwrapOk(DecodeMasked(encoded, node, options.k, &ws));
      EXPECT_EQ(WriteCsvString(fast_mm.table), WriteCsvString(legacy_mm.table))
          << what << " node=" << SnapshotNodeKey(node);
      EXPECT_EQ(fast_mm.suppressed, legacy_mm.suppressed) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Intra-node parallelism (fine axis): min_rows_per_slice = 1 forces the
// row-sliced group-by wherever the engines engage it (underfilled sweeps,
// OLA's direct probes, Incognito's narrow subset waves, bottom-up's
// sequential walk). Releases and stats must still match the goldens at
// every thread count.

TEST(EncodedEquivalenceTest, SweeperEnginesMatchWithIntraNodeParallelism) {
  AdultFixture fixture(1500, 2);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    SearchOptions sliced = BaseOptions(threads);
    sliced.min_rows_per_slice = 1;
    std::string what = " sliced threads=" + std::to_string(threads);
    ExpectSearchMatches(
        UnwrapOk(ExhaustiveSearch(fixture.table, fixture.hierarchies, sliced)),
        kExhaustive1500, "exhaustive" + what);
    ExpectSearchMatches(
        UnwrapOk(SamaratiSearch(fixture.table, fixture.hierarchies, sliced)),
        kSamarati1500, "samarati" + what);
    OlaOptions ola_options;
    ola_options.search = sliced;
    ExpectSearchMatches(
        UnwrapOk(OlaSearch(fixture.table, fixture.hierarchies, ola_options)),
        kOla1500, "ola" + what);
    ExpectSearchMatches(
        UnwrapOk(IncognitoSearch(fixture.table, fixture.hierarchies, sliced)),
        kIncognito1500, "incognito" + what);
    ExpectSearchMatches(
        UnwrapOk(BottomUpSearch(fixture.table, fixture.hierarchies, sliced)),
        kBottomUp1500, "bottom-up" + what);
  }
}

TEST(EncodedEquivalenceTest, AnonymizerAllAlgorithmsIntraNodeParallel) {
  AdultFixture fixture(800, 7);
  for (const ReportGolden& want : kAnonymizer800) {
    Anonymizer anonymizer = MakeAnonymizer(fixture, want.algorithm);
    anonymizer.set_threads(4).set_min_rows_per_slice(1);
    ExpectReportMatches(
        UnwrapOk(anonymizer.Run()), want,
        "sliced algorithm=" + std::string(AlgorithmName(want.algorithm)));
  }
}

}  // namespace
}  // namespace psk
