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
#include "psk/common/memory_budget.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/jobs/checkpoint_io.h"
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

  SearchResult base = UnwrapOk(OlaSearch(im, hierarchies, AdultOptions(1)));
  ASSERT_TRUE(base.found);
  std::string base_csv = WriteCsvString(base.masked);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    SearchResult got =
        UnwrapOk(OlaSearch(im, hierarchies, AdultOptions(threads)));
    ASSERT_TRUE(got.found) << "threads=" << threads;
    EXPECT_EQ(got.node, base.node) << "threads=" << threads;
    EXPECT_EQ(got.minimal_nodes, base.minimal_nodes)
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

  SearchResult base =
      UnwrapOk(IncognitoSearch(im, hierarchies, AdultOptions(1)));
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SearchResult got =
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

    SearchResult inc_a =
        UnwrapOk(IncognitoSearch(data.table, data.hierarchies, seq));
    SearchResult inc_b =
        UnwrapOk(IncognitoSearch(data.table, data.hierarchies, par));
    EXPECT_EQ(inc_a.minimal_nodes, inc_b.minimal_nodes) << "seed=" << seed;
    ExpectStatsEq(inc_a.stats, inc_b.stats, "incognito synthetic");
  }
}

// --------------------------------------------------------------------------
// Satellite 2 regression: cancellation during snapshot replay.

// A resumed run whose snapshot covers the whole lattice used to
// fast-forward through every stored verdict without ever consulting the
// budget — an already-cancelled job would run to completion. TickReplay
// now polls BudgetEnforcer::Check() every kReplayCheckInterval replays,
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
  SearchResult full =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, record));
  ASSERT_FALSE(full.stats.partial);
  ASSERT_GT(snapshot.verdicts.size(), NodeEvaluator::kReplayCheckInterval);

  auto cancel = std::make_shared<CancelToken>();
  cancel->Cancel();  // cancelled before the resume even starts
  SearchOptions resume;
  resume.k = 2;
  resume.memo = &snapshot;
  resume.budget.cancel = cancel;
  SearchResult resumed =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, resume));
  EXPECT_TRUE(resumed.stats.partial);
  EXPECT_EQ(resumed.stats.stop_reason, StatusCode::kCancelled);
  // The replay stopped mid-snapshot instead of delivering the full result.
  EXPECT_LT(resumed.stats.nodes_generalized, full.stats.nodes_generalized);
  EXPECT_LT(resumed.satisfying_nodes.size(), full.satisfying_nodes.size());
}

// --------------------------------------------------------------------------
// The last snapshot a complete run hands its checkpoint sink holds every
// verdict the run reached, in every lattice engine and at every thread
// count: a resume from it with no node budget at all, at 1 or 4 threads,
// replays the whole search and finishes complete, with the uninterrupted
// run's result and counters. The sink sees the same snapshots at every
// thread count.

class CompleteSnapshotTest : public ::testing::Test {
 protected:
  CompleteSnapshotTest()
      : im_(UnwrapOk(AdultGenerate(1500, /*seed=*/2))),
        hierarchies_(UnwrapOk(AdultHierarchies(im_.schema()))) {
    options_.k = 3;
    options_.p = 2;
    options_.max_suppression = 40;
  }

  // Every lattice engine has this signature.
  using Engine = Result<SearchResult> (*)(const Table&, const HierarchySet&,
                                          const SearchOptions&);
  using ExpectSame = void (*)(const SearchResult& full,
                              const SearchResult& resumed,
                              const std::string& what);

  // Runs `engine` uninterrupted at 1 and at 4 threads, recording its last
  // snapshot, then resumes from that snapshot at 1 and at 4 threads with
  // max_nodes_expanded = 0, checks each resumed run is complete with
  // equal counters, and hands both results to `expect_same`.
  void RunAndResume(Engine engine, ExpectSame expect_same) {
    for (size_t record_threads : {size_t{1}, size_t{4}}) {
      SearchSnapshot last;
      SearchOptions record = options_;
      record.threads = record_threads;
      record.checkpoint_sink = [&last](const SearchSnapshot& snapshot) {
        last = snapshot;
      };
      SearchResult full = UnwrapOk(engine(im_, hierarchies_, record));
      EXPECT_FALSE(full.stats.partial);
      for (size_t resume_threads : {size_t{1}, size_t{4}}) {
        const std::string what =
            "recorded at threads=" + std::to_string(record_threads) +
            ", resumed at threads=" + std::to_string(resume_threads);
        // A copy: the memo is extended in place.
        SearchSnapshot memo = last;
        SearchOptions resume = options_;
        resume.threads = resume_threads;
        resume.memo = &memo;
        resume.budget.max_nodes_expanded = 0;
        SearchResult resumed = UnwrapOk(engine(im_, hierarchies_, resume));
        EXPECT_FALSE(resumed.stats.partial) << what;
        EXPECT_EQ(resumed.stats.stop_reason, StatusCode::kOk) << what;
        ExpectStatsEq(resumed.stats, full.stats, what);
        expect_same(full, resumed, what);
      }
    }
  }

  // Every snapshot `engine` hands its sink at `threads`, serialized, with
  // the run's stats in *stats and its SweepLog in *log. With `narrow_at`
  // > 0, the sink asks the run's MemoryBudget for one lane at its
  // narrow_at-th flush, as the scheduler's degradation ladder does to a
  // running job.
  std::vector<std::string> SinkSequence(Engine engine, size_t threads,
                                        SearchStats* stats, std::string* log,
                                        size_t narrow_at = 0) {
    std::vector<std::string> sequence;
    RunTrace trace;
    SearchOptions options = options_;
    options.threads = threads;
    options.trace = &trace;
    if (narrow_at > 0) options.budget.memory = std::make_shared<MemoryBudget>();
    options.checkpoint_interval = 4;
    options.checkpoint_sink = [&sequence, narrow_at,
                               memory = options.budget.memory](
                                  const SearchSnapshot& snapshot) {
      sequence.push_back(SerializeSnapshot(snapshot, 0, 0));
      if (sequence.size() == narrow_at) memory->LimitToOneLane();
    };
    *stats = UnwrapOk(engine(im_, hierarchies_, options)).stats;
    *log = SweepLog(trace.ToJson());
    return sequence;
  }

  // A run's sweeps and flushes in order, read off its trace JSON: 'S' for
  // a sweep that ran on more than one worker (only the sharded branch
  // records its lane count, as a "workers" timing), 's' for a one-lane
  // sweep and 'F' for a checkpoint flush.
  static std::string SweepLog(const std::string& json) {
    const std::string name_key = "\"name\":\"";
    std::string log;
    size_t at = json.find(name_key);
    while (at != std::string::npos) {
      size_t begin = at + name_key.size();
      size_t next = json.find(name_key, begin);
      std::string name = json.substr(begin, json.find('"', begin) - begin);
      if (name == "sweep") {
        bool sharded = json.substr(begin, next - begin).find(
                           "\"workers\":") != std::string::npos;
        log += sharded ? 'S' : 's';
      } else if (name == "checkpoint_io") {
        log += 'F';
      }
      at = next;
    }
    return log;
  }

  // Position of the n-th (1-based) flush in a SweepLog; npos if none.
  static size_t NthFlush(const std::string& log, size_t n) {
    for (size_t at = 0; at < log.size(); ++at) {
      if (log[at] == 'F' && --n == 0) return at;
    }
    return std::string::npos;
  }

  static void ExpectSameNodeSets(const SearchResult& full,
                                 const SearchResult& resumed,
                                 const std::string& what) {
    ASSERT_FALSE(full.minimal_nodes.empty()) << what;
    EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes) << what;
    EXPECT_EQ(resumed.satisfying_nodes, full.satisfying_nodes) << what;
  }

  Table im_;
  HierarchySet hierarchies_;
  SearchOptions options_;
};

TEST_F(CompleteSnapshotTest, Samarati) {
  RunAndResume(SamaratiSearch,
               [](const SearchResult& full, const SearchResult& resumed,
                  const std::string& what) {
                 ASSERT_TRUE(full.found) << what;
                 EXPECT_TRUE(resumed.found) << what;
                 EXPECT_EQ(resumed.node, full.node) << what;
               });
}

TEST_F(CompleteSnapshotTest, Exhaustive) {
  RunAndResume(ExhaustiveSearch, ExpectSameNodeSets);
}

TEST_F(CompleteSnapshotTest, BottomUp) {
  RunAndResume(BottomUpSearch, ExpectSameNodeSets);
}

TEST_F(CompleteSnapshotTest, Ola) {
  RunAndResume(OlaSearch,
               [](const SearchResult& full, const SearchResult& resumed,
                  const std::string& what) {
                 ASSERT_TRUE(full.found) << what;
                 EXPECT_TRUE(resumed.found) << what;
                 EXPECT_EQ(resumed.node, full.node) << what;
                 EXPECT_EQ(resumed.minimal_nodes, full.minimal_nodes) << what;
               });
}

TEST_F(CompleteSnapshotTest, Incognito) {
  RunAndResume(IncognitoSearch, ExpectSameNodeSets);
}

// A checkpointed run shards its sweeps like any other, and its sink sees
// the same snapshots, in the same order, at 1 and at 4 threads, and when
// a 4-thread run drops to one lane partway through.
TEST_F(CompleteSnapshotTest, SinkSeesTheSameSnapshotsAtEveryThreadCount) {
  auto expect_same = [&](Engine search, const char* engine) {
    SearchStats sequential_stats;
    SearchStats stats;
    std::string log;
    std::vector<std::string> sequential =
        SinkSequence(search, 1, &sequential_stats, &log);
    ASSERT_GT(sequential.size(), 1u) << engine;
    EXPECT_EQ(log.find('S'), std::string::npos) << engine;
    EXPECT_EQ(SinkSequence(search, 4, &stats, &log), sequential) << engine;
    ExpectStatsEq(stats, sequential_stats, engine);

    // Narrow at the first flush that follows a sharded sweep, with
    // sharded sweeps still to come. (Bottom-up and Incognito flush before
    // any sweep shards, so the first flush would not do.)
    size_t first_sharded = log.find('S');
    ASSERT_NE(first_sharded, std::string::npos) << engine;
    size_t flush = log.find('F', first_sharded);
    ASSERT_NE(flush, std::string::npos) << engine;
    ASSERT_NE(log.find('S', flush), std::string::npos) << engine;
    size_t narrow_at = static_cast<size_t>(
        std::count(log.begin(), log.begin() + flush + 1, 'F'));
    EXPECT_EQ(SinkSequence(search, 4, &stats, &log, narrow_at), sequential)
        << engine;
    ExpectStatsEq(stats, sequential_stats, engine);
    // Sharded before the signal, one lane after it.
    flush = NthFlush(log, narrow_at);
    ASSERT_NE(flush, std::string::npos) << engine;
    EXPECT_LT(log.find('S'), flush) << engine << " " << log;
    EXPECT_EQ(log.find('S', flush), std::string::npos) << engine << " " << log;
  };
  expect_same(SamaratiSearch, "samarati");
  expect_same(ExhaustiveSearch, "exhaustive");
  expect_same(BottomUpSearch, "bottom-up");
  expect_same(OlaSearch, "ola");
  expect_same(IncognitoSearch, "incognito");
}

// --------------------------------------------------------------------------
// Satellite 3 regression: no node is ever generalized twice in one search.

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
  SearchResult full =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, unlimited));
  ASSERT_GT(full.stats.nodes_generalized, 25u);

  SearchOptions capped;
  capped.k = 2;
  capped.threads = 4;
  capped.budget.max_nodes_expanded = 25;
  SearchResult partial =
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
