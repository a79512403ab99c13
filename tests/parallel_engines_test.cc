#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/table/csv.h"
#include "test_util.h"

namespace psk {
namespace {

// Full-field stats comparison: the determinism contract promises every
// counter — not just the result nodes — is independent of the thread
// count. replay_ticks is left out: it counts snapshot fast-forwards, which
// only a resumed run makes.
void ExpectStatsEq(const SearchStats& a, const SearchStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.nodes_generalized, b.nodes_generalized) << what;
  EXPECT_EQ(a.nodes_pruned_condition2, b.nodes_pruned_condition2) << what;
  EXPECT_EQ(a.nodes_rejected_kanonymity, b.nodes_rejected_kanonymity)
      << what;
  EXPECT_EQ(a.nodes_rejected_detail, b.nodes_rejected_detail) << what;
  EXPECT_EQ(a.nodes_satisfied, b.nodes_satisfied) << what;
  EXPECT_EQ(a.nodes_skipped, b.nodes_skipped) << what;
  EXPECT_EQ(a.nodes_cache_hits, b.nodes_cache_hits) << what;
  EXPECT_EQ(a.nodes_cache_misses, b.nodes_cache_misses) << what;
  EXPECT_EQ(a.nodes_evaluated_encoded, b.nodes_evaluated_encoded) << what;
  EXPECT_EQ(a.nodes_evaluated_legacy, b.nodes_evaluated_legacy) << what;
  EXPECT_EQ(a.heights_probed, b.heights_probed) << what;
  EXPECT_EQ(a.subset_nodes_evaluated, b.subset_nodes_evaluated) << what;
  EXPECT_EQ(a.partial, b.partial) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
}

SearchOptions AdultOptions(size_t threads) {
  SearchOptions options;
  options.k = 4;
  options.p = 2;
  options.max_suppression = 10;
  options.threads = threads;
  return options;
}

// The ISSUE acceptance workload: Adult at 4000 rows, release at threads=8
// byte-identical to threads=1.
TEST(ParallelEnginesTest, SamaratiByteIdenticalAcrossThreads) {
  Table im = UnwrapOk(AdultGenerate(4000, /*seed=*/11));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  SearchResult base =
      UnwrapOk(SamaratiSearch(im, hierarchies, AdultOptions(1)));
  ASSERT_TRUE(base.found);
  std::string base_csv = WriteCsvString(base.masked);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    SearchResult got =
        UnwrapOk(SamaratiSearch(im, hierarchies, AdultOptions(threads)));
    ASSERT_TRUE(got.found) << "threads=" << threads;
    EXPECT_EQ(got.node, base.node) << "threads=" << threads;
    EXPECT_EQ(got.suppressed, base.suppressed) << "threads=" << threads;
    EXPECT_EQ(WriteCsvString(got.masked), base_csv)
        << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "samarati threads=" + std::to_string(threads));
  }
}

TEST(ParallelEnginesTest, OlaByteIdenticalAcrossThreads) {
  Table im = UnwrapOk(AdultGenerate(4000, /*seed=*/12));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  OlaOptions base_options;
  base_options.search = AdultOptions(1);
  OlaResult base = UnwrapOk(OlaSearch(im, hierarchies, base_options));
  ASSERT_TRUE(base.found);
  std::string base_csv = WriteCsvString(base.masked);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    OlaOptions options;
    options.search = AdultOptions(threads);
    OlaResult got = UnwrapOk(OlaSearch(im, hierarchies, options));
    ASSERT_TRUE(got.found) << "threads=" << threads;
    EXPECT_EQ(got.optimal, base.optimal) << "threads=" << threads;
    EXPECT_EQ(got.minimal_nodes, base.minimal_nodes)
        << "threads=" << threads;
    EXPECT_EQ(got.optimal_metric, base.optimal_metric)
        << "threads=" << threads;
    EXPECT_EQ(WriteCsvString(got.masked), base_csv)
        << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "ola threads=" + std::to_string(threads));
  }
}

TEST(ParallelEnginesTest, IncognitoDeterministicAcrossThreads) {
  Table im = UnwrapOk(AdultGenerate(1000, /*seed=*/13));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  MinimalSetResult base =
      UnwrapOk(IncognitoSearch(im, hierarchies, AdultOptions(1)));
  for (size_t threads : {size_t{2}, size_t{8}}) {
    MinimalSetResult got =
        UnwrapOk(IncognitoSearch(im, hierarchies, AdultOptions(threads)));
    EXPECT_EQ(got.minimal_nodes, base.minimal_nodes)
        << "threads=" << threads;
    EXPECT_EQ(got.satisfying_nodes, base.satisfying_nodes)
        << "threads=" << threads;
    ExpectStatsEq(got.stats, base.stats,
                  "incognito threads=" + std::to_string(threads));
  }
}

// Cross-engine determinism over several synthetic seeds, small enough to
// keep the suite fast while still exercising the parallel sweep paths.
TEST(ParallelEnginesTest, SyntheticSeedsDeterministic) {
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 3, 5, 2, 4, 0.7);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions seq;
    seq.k = 3;
    seq.p = 2;
    seq.max_suppression = 2;
    SearchOptions par = seq;
    par.threads = 8;

    SearchResult sam_a =
        UnwrapOk(SamaratiSearch(data.table, data.hierarchies, seq));
    SearchResult sam_b =
        UnwrapOk(SamaratiSearch(data.table, data.hierarchies, par));
    EXPECT_EQ(sam_a.found, sam_b.found) << "seed=" << seed;
    if (sam_a.found) {
      EXPECT_EQ(sam_a.node, sam_b.node) << "seed=" << seed;
      EXPECT_EQ(WriteCsvString(sam_a.masked), WriteCsvString(sam_b.masked))
          << "seed=" << seed;
    }
    ExpectStatsEq(sam_a.stats, sam_b.stats, "samarati synthetic");

    MinimalSetResult inc_a =
        UnwrapOk(IncognitoSearch(data.table, data.hierarchies, seq));
    MinimalSetResult inc_b =
        UnwrapOk(IncognitoSearch(data.table, data.hierarchies, par));
    EXPECT_EQ(inc_a.minimal_nodes, inc_b.minimal_nodes) << "seed=" << seed;
    ExpectStatsEq(inc_a.stats, inc_b.stats, "incognito synthetic");
  }
}

// --------------------------------------------------------------------------
// Satellite 2 regression: cancellation during snapshot replay.

// A resumed run whose snapshot covers the whole lattice used to
// fast-forward through every cached verdict without ever consulting the
// budget — an already-cancelled job would run to completion. TickReplay
// now polls BudgetEnforcer::Check() every kReplayCheckInterval cache hits,
// so the replay itself is cancellable.
TEST(CancelDuringReplayTest, ReplayHonorsCancellation) {
  // 4 key attributes x 3 hierarchy levels = 81 lattice nodes, comfortably
  // past the replay poll interval (32).
  SyntheticSpec spec = MakeUniformSpec(150, 4, 4, 1, 3, 0.6);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 31));

  SearchOptions record;
  record.k = 2;
  SearchSnapshot snapshot;
  record.checkpoint_sink = [&snapshot](const SearchSnapshot& s) {
    snapshot = s;
  };
  MinimalSetResult full =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, record));
  ASSERT_FALSE(full.stats.partial);
  ASSERT_GT(snapshot.verdicts.size(), NodeEvaluator::kReplayCheckInterval);

  auto cancel = std::make_shared<CancelToken>();
  cancel->Cancel();  // cancelled before the resume even starts
  SearchOptions resume;
  resume.k = 2;
  resume.restore = &snapshot;
  resume.budget.cancel = cancel;
  MinimalSetResult resumed =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, resume));
  EXPECT_TRUE(resumed.stats.partial);
  EXPECT_EQ(resumed.stats.stop_reason, StatusCode::kCancelled);
  // The replay stopped mid-snapshot instead of delivering the full result.
  EXPECT_LT(resumed.stats.nodes_generalized, full.stats.nodes_generalized);
  EXPECT_LT(resumed.satisfying_nodes.size(), full.satisfying_nodes.size());
}

// --------------------------------------------------------------------------
// The last snapshot a complete run hands its checkpoint sink holds every
// verdict the run reached, in every lattice engine: a resume from it with
// no node budget at all replays the whole search and finishes complete,
// with the uninterrupted run's result and counters.

class CompleteSnapshotTest : public ::testing::Test {
 protected:
  CompleteSnapshotTest()
      : im_(UnwrapOk(AdultGenerate(1500, /*seed=*/2))),
        hierarchies_(UnwrapOk(AdultHierarchies(im_.schema()))) {
    options_.k = 3;
    options_.p = 2;
    options_.max_suppression = 40;
  }

  // Runs `search` uninterrupted, recording its last snapshot, then
  // resumes from that snapshot with max_nodes_expanded = 0 and checks the
  // resumed run is complete with equal counters.
  template <typename Search>
  auto RunAndResume(Search search) {
    SearchSnapshot last;
    SearchOptions record = options_;
    record.checkpoint_sink = [&last](const SearchSnapshot& snapshot) {
      last = snapshot;
    };
    auto full = UnwrapOk(search(record));
    SearchOptions resume = options_;
    resume.restore = &last;
    resume.budget.max_nodes_expanded = 0;
    auto resumed = UnwrapOk(search(resume));
    EXPECT_FALSE(full.stats.partial);
    EXPECT_FALSE(resumed.stats.partial);
    EXPECT_EQ(resumed.stats.stop_reason, StatusCode::kOk);
    ExpectStatsEq(resumed.stats, full.stats, "resumed");
    return std::make_pair(std::move(full), std::move(resumed));
  }

  Table im_;
  HierarchySet hierarchies_;
  SearchOptions options_;
};

TEST_F(CompleteSnapshotTest, Samarati) {
  auto [full, resumed] = RunAndResume([&](const SearchOptions& options) {
    return SamaratiSearch(im_, hierarchies_, options);
  });
  ASSERT_TRUE(full.found);
  EXPECT_TRUE(resumed.found);
  EXPECT_EQ(resumed.node, full.node);
}

TEST_F(CompleteSnapshotTest, Exhaustive) {
  auto [full, resumed] = RunAndResume([&](const SearchOptions& options) {
    return ExhaustiveSearch(im_, hierarchies_, options);
  });
  ASSERT_FALSE(full.minimal_nodes.empty());
  EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes);
  EXPECT_EQ(resumed.satisfying_nodes, full.satisfying_nodes);
}

TEST_F(CompleteSnapshotTest, BottomUp) {
  auto [full, resumed] = RunAndResume([&](const SearchOptions& options) {
    return BottomUpSearch(im_, hierarchies_, options);
  });
  ASSERT_FALSE(full.minimal_nodes.empty());
  EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes);
  EXPECT_EQ(resumed.satisfying_nodes, full.satisfying_nodes);
}

TEST_F(CompleteSnapshotTest, Ola) {
  auto [full, resumed] = RunAndResume([&](const SearchOptions& options) {
    OlaOptions ola;
    ola.search = options;
    return OlaSearch(im_, hierarchies_, ola);
  });
  ASSERT_TRUE(full.found);
  EXPECT_TRUE(resumed.found);
  EXPECT_EQ(resumed.optimal, full.optimal);
  EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes);
}

TEST_F(CompleteSnapshotTest, Incognito) {
  auto [full, resumed] = RunAndResume([&](const SearchOptions& options) {
    return IncognitoSearch(im_, hierarchies_, options);
  });
  ASSERT_FALSE(full.minimal_nodes.empty());
  EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes);
  EXPECT_EQ(resumed.satisfying_nodes, full.satisfying_nodes);
}

// --------------------------------------------------------------------------
// A caller-owned verdict cache outlives one search: in every lattice
// engine, a second search through the same cache re-serves every node the
// first one generalized, and releases the same result.

class SharedVerdictCacheTest : public ::testing::Test {
 protected:
  SharedVerdictCacheTest()
      : im_(UnwrapOk(AdultGenerate(1500, /*seed=*/2))),
        hierarchies_(UnwrapOk(AdultHierarchies(im_.schema()))) {}

  // Runs `search` twice at 1 and at 4 threads, both runs of a thread count
  // sharing one fresh cache, and hands both results to `expect_same`.
  template <typename Search, typename ExpectSame>
  void RunTwice(Search search, ExpectSame expect_same) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SearchOptions options;
      options.k = 3;
      options.p = 2;
      options.max_suppression = 40;
      options.threads = threads;
      options.verdict_cache = std::make_shared<VerdictCache>();
      auto first = UnwrapOk(search(options));
      auto second = UnwrapOk(search(options));
      const std::string what = "threads=" + std::to_string(threads);
      ASSERT_GT(first.stats.nodes_generalized, 0u) << what;
      EXPECT_EQ(options.verdict_cache->size(), first.stats.nodes_generalized)
          << what;
      EXPECT_EQ(second.stats.nodes_generalized, 0u) << what;
      EXPECT_EQ(second.stats.nodes_cache_hits, first.stats.nodes_generalized)
          << what;
      expect_same(first, second, what);
    }
  }

  static void ExpectSameNodeSets(const MinimalSetResult& first,
                                 const MinimalSetResult& second,
                                 const std::string& what) {
    EXPECT_EQ(second.minimal_nodes, first.minimal_nodes) << what;
    EXPECT_EQ(second.satisfying_nodes, first.satisfying_nodes) << what;
  }

  Table im_;
  HierarchySet hierarchies_;
};

TEST_F(SharedVerdictCacheTest, Samarati) {
  RunTwice(
      [&](const SearchOptions& options) {
        return SamaratiSearch(im_, hierarchies_, options);
      },
      [](const SearchResult& first, const SearchResult& second,
         const std::string& what) {
        ASSERT_TRUE(first.found) << what;
        ASSERT_TRUE(second.found) << what;
        EXPECT_EQ(second.node, first.node) << what;
        EXPECT_EQ(WriteCsvString(second.masked), WriteCsvString(first.masked))
            << what;
      });
}

TEST_F(SharedVerdictCacheTest, Exhaustive) {
  RunTwice(
      [&](const SearchOptions& options) {
        return ExhaustiveSearch(im_, hierarchies_, options);
      },
      ExpectSameNodeSets);
}

TEST_F(SharedVerdictCacheTest, BottomUp) {
  RunTwice(
      [&](const SearchOptions& options) {
        return BottomUpSearch(im_, hierarchies_, options);
      },
      ExpectSameNodeSets);
}

TEST_F(SharedVerdictCacheTest, Ola) {
  RunTwice(
      [&](const SearchOptions& options) {
        OlaOptions ola;
        ola.search = options;
        return OlaSearch(im_, hierarchies_, ola);
      },
      [](const OlaResult& first, const OlaResult& second,
         const std::string& what) {
        ASSERT_TRUE(first.found) << what;
        ASSERT_TRUE(second.found) << what;
        EXPECT_EQ(second.optimal, first.optimal) << what;
        EXPECT_EQ(second.minimal_nodes, first.minimal_nodes) << what;
        EXPECT_EQ(WriteCsvString(second.masked), WriteCsvString(first.masked))
            << what;
      });
}

TEST_F(SharedVerdictCacheTest, Incognito) {
  RunTwice(
      [&](const SearchOptions& options) {
        return IncognitoSearch(im_, hierarchies_, options);
      },
      ExpectSameNodeSets);
}

// --------------------------------------------------------------------------
// Satellite 3 regression: no node is ever generalized twice in one search.

TEST(VerdictCacheTest, SecondEvaluateIsACacheHit) {
  SyntheticSpec spec = MakeUniformSpec(100, 2, 4, 1, 3, 0.5);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 41));

  SearchOptions options;
  options.k = 2;
  NodeEvaluator evaluator(data.table, data.hierarchies, options);
  evaluator.set_verdict_cache(std::make_shared<VerdictCache>());
  PSK_ASSERT_OK(evaluator.Init());

  GeneralizationLattice lattice(data.hierarchies);
  LatticeNode node = lattice.Top();
  NodeEvaluation first = UnwrapOk(evaluator.Evaluate(node));
  NodeEvaluation second = UnwrapOk(evaluator.Evaluate(node));
  EXPECT_EQ(first.satisfied, second.satisfied);
  // Exactly one generalization; the repeat is re-served from the cache.
  EXPECT_EQ(evaluator.stats().nodes_generalized, 1u);
  EXPECT_EQ(evaluator.stats().nodes_cache_hits, 1u);
}

TEST(SamaratiNoReevaluationTest, ConfirmationScanUsesCache) {
  Table im = UnwrapOk(AdultGenerate(800, /*seed=*/17));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  GeneralizationLattice lattice(hierarchies);

  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 4;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  // Each lattice node is generalized at most once: the confirmation step
  // probes only the lattice top, a height the binary search never reaches.
  EXPECT_LE(result.stats.nodes_generalized, lattice.NumNodes());
  // And each height is probed at most once.
  EXPECT_LE(result.stats.heights_probed,
            static_cast<size_t>(lattice.height()) + 1);
}

// --------------------------------------------------------------------------
// Satellite 4: shared budget tripping mid-parallel-sweep still merges the
// partial result and the counters of every shard.

TEST(SharedBudgetTest, TripMidParallelSweepMergesPartialResult) {
  SyntheticSpec spec = MakeUniformSpec(150, 4, 4, 1, 3, 0.6);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 51));

  SearchOptions unlimited;
  unlimited.k = 2;
  MinimalSetResult full =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, unlimited));
  ASSERT_GT(full.stats.nodes_generalized, 25u);

  SearchOptions capped;
  capped.k = 2;
  capped.threads = 4;
  capped.budget.max_nodes_expanded = 25;
  MinimalSetResult partial =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, capped));
  EXPECT_TRUE(partial.stats.partial);
  EXPECT_EQ(partial.stats.stop_reason, StatusCode::kResourceExhausted);
  // The budget is global across shards, not per-shard.
  EXPECT_LE(partial.stats.nodes_generalized, 25u);
  EXPECT_GT(partial.stats.nodes_generalized, 0u);
  // Whatever the shards found before the trip is merged and reported.
  for (const LatticeNode& node : partial.satisfying_nodes) {
    EXPECT_NE(std::find(full.satisfying_nodes.begin(),
                        full.satisfying_nodes.end(), node),
              full.satisfying_nodes.end());
  }
}

TEST(SharedBudgetTest, SamaratiKeepsBestSoFarOnParallelTrip) {
  Table im = UnwrapOk(AdultGenerate(600, /*seed=*/19));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));

  SearchOptions options;
  options.k = 3;
  options.threads = 8;
  // Small enough that the very first probed height trips the cap while
  // several workers are mid-sweep.
  options.budget.max_nodes_expanded = 10;
  SearchResult result = UnwrapOk(SamaratiSearch(im, hierarchies, options));
  EXPECT_TRUE(result.stats.partial);
  EXPECT_EQ(result.stats.stop_reason, StatusCode::kResourceExhausted);
  EXPECT_LE(result.stats.nodes_generalized, 10u);
}

}  // namespace
}  // namespace psk
