// Tests for the structured run-trace layer (psk/trace) and its wiring
// through the Anonymizer, the engines, the guard and the job runner.
//
// The load-bearing property is the determinism contract (DESIGN.md): the
// *structure* of a trace — span names, nesting, order, counters, attrs —
// is a pure function of the run configuration, identical for every thread
// count; only timings may differ. StructureSignature() renders exactly
// that invariant part, so most assertions here are string comparisons.

#include "psk/trace/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/api/spec_parser.h"
#include "psk/common/durable_file.h"
#include "psk/datagen/adult.h"
#include "psk/jobs/job.h"
#include "test_util.h"

namespace psk {
namespace {

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// RunTrace unit tests.

TEST(RunTraceTest, NestedSpansRenderInOrder) {
  RunTrace trace("run");
  trace.Begin("outer");
  trace.Counter("items", 2);
  trace.Begin("inner");
  trace.Attr("kind", "a");
  trace.End();
  trace.Begin("inner");
  trace.Attr("kind", "b");
  trace.End();
  trace.End();
  EXPECT_EQ(trace.StructureSignature(),
            "run(outer{items=2}(inner[kind=a] inner[kind=b]))");
}

TEST(RunTraceTest, CountersSumAndAttrsOverwrite) {
  RunTrace trace;
  trace.Begin("span");
  trace.Counter("n", 3);
  trace.Counter("n", 4);
  trace.Attr("state", "first");
  trace.Attr("state", "second");
  trace.End();
  EXPECT_EQ(trace.StructureSignature(), "run(span[state=second]{n=7})");
}

TEST(RunTraceTest, TimingsAreNotStructural) {
  RunTrace a;
  a.Begin("work");
  a.Timing("busy_ns", 123);
  a.End();
  RunTrace b;
  b.Begin("work");
  b.Timing("busy_ns", 456789);
  b.End();
  EXPECT_EQ(a.StructureSignature(), b.StructureSignature());
  // ...but they do show up in the JSON export.
  EXPECT_NE(a.ToJson().find("\"timings\""), std::string::npos);
}

TEST(RunTraceTest, MergeEventsSortsByOrderKeyNotArrival) {
  RunTrace trace;
  trace.Begin("sweep");
  std::vector<TraceEvent> events;
  for (const char* key : {"b", "c", "a"}) {
    TraceEvent event;
    event.name = "eval";
    event.order_key = key;
    event.attrs.emplace_back("node", key);
    events.push_back(std::move(event));
  }
  trace.MergeEvents(std::move(events));
  trace.End();
  EXPECT_EQ(trace.StructureSignature(),
            "run(sweep(eval[node=a] eval[node=b] eval[node=c]))");
}

TEST(RunTraceTest, CloseIsIdempotentAndRepairsOpenSpans) {
  RunTrace trace;
  trace.Begin("stage");
  trace.Begin("sweep");
  // A hard error unwound past the Ends; export must still work.
  trace.Close();
  trace.Close();
  EXPECT_EQ(trace.StructureSignature(), "run(stage(sweep))");
}

TEST(RunTraceTest, TotalCounterSumsOverTheWholeTree) {
  RunTrace trace;
  trace.Counter("rows", 10);
  trace.Begin("stage");
  trace.Counter("rows", 5);
  trace.End();
  EXPECT_EQ(trace.TotalCounter("rows"), 15u);
  EXPECT_EQ(trace.TotalCounter("absent"), 0u);
}

TEST(RunTraceTest, NullTraceSpanIsSafe) {
  TraceSpan span(nullptr, "anything");
  span.Counter("n", 1);
  span.Attr("a", "b");
  span.Timing("t", 2);
  EXPECT_EQ(span.trace(), nullptr);
}

TEST(RunTraceTest, WriteJsonFileIsAtomicAndNewlineTerminated) {
  RunTrace trace;
  trace.Begin("stage");
  trace.End();
  const std::string path = ::testing::TempDir() + "psk_trace_unit.json";
  std::remove(path.c_str());
  PSK_ASSERT_OK(trace.WriteJsonFile(path));
  std::string contents = UnwrapOk(ReadFileToString(path));
  EXPECT_EQ(contents, trace.ToJson() + "\n");
  EXPECT_EQ(contents.rfind("{\"psk_trace_version\":1,\"root\":", 0), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Anonymizer integration.

struct AdultFixture {
  Table table;
  HierarchySet hierarchies;

  explicit AdultFixture(size_t n = 300, uint64_t seed = 11)
      : table(UnwrapOk(AdultGenerate(n, seed))),
        hierarchies(UnwrapOk(AdultHierarchies(table.schema()))) {}

  Anonymizer MakeAnonymizer() const {
    Anonymizer anonymizer(table);
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
    }
    return anonymizer;
  }
};

TEST(TraceIntegrationTest, DisabledByDefault) {
  AdultFixture fixture;
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  UnwrapOk(anonymizer.Run());
  EXPECT_EQ(anonymizer.last_trace(), nullptr);
}

TEST(TraceIntegrationTest, StructureIdenticalAcrossThreadCounts) {
  AdultFixture fixture;
  // Every lattice engine runs its waves as sweeps — Incognito's subset
  // waves, OLA's single-node probes and bottom-up's filtered heights
  // included — so every trace must be thread-count invariant.
  for (AnonymizationAlgorithm algorithm :
       {AnonymizationAlgorithm::kSamarati, AnonymizationAlgorithm::kIncognito,
        AnonymizationAlgorithm::kOla, AnonymizationAlgorithm::kBottomUp,
        AnonymizationAlgorithm::kExhaustive}) {
    const std::string name(AlgorithmName(algorithm));
    std::string baseline;
    for (size_t threads : {1, 2, 8}) {
      Anonymizer anonymizer = fixture.MakeAnonymizer();
      anonymizer.set_k(3).set_p(2).set_max_suppression(6).set_threads(
          threads);
      anonymizer.set_algorithm(algorithm);
      anonymizer.set_trace_enabled(true);
      AnonymizationReport report = UnwrapOk(anonymizer.Run());
      ASSERT_TRUE(report.node.has_value()) << name;
      std::shared_ptr<RunTrace> trace = anonymizer.last_trace();
      ASSERT_NE(trace, nullptr);
      std::string signature = trace->StructureSignature();
      if (baseline.empty()) {
        baseline = signature;
      } else {
        EXPECT_EQ(signature, baseline) << name << " threads=" << threads;
      }
    }
    EXPECT_NE(baseline.find("sweep"), std::string::npos) << name;
    if (algorithm != AnonymizationAlgorithm::kSamarati) continue;
    // The span tree covers the whole run: encode, the sweeps with their
    // per-node eval events, the binary-search phases, materialization, the
    // guard's checks and the scorecard.
    for (const char* span :
         {"encode", "sweep", "eval[", "probe_height", "binary_search",
          "materialize", "guard(", "check_kanonymity", "check_psensitivity",
          "check_suppression", "scorecard", "outcome=released"}) {
      EXPECT_NE(baseline.find(span), std::string::npos)
          << "missing span: " << span << "\n" << baseline;
    }
  }
}

TEST(TraceIntegrationTest, StageCountersEqualSearchStats) {
  AdultFixture fixture;
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6).set_threads(2);
  anonymizer.set_trace_enabled(true);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  std::shared_ptr<RunTrace> trace = anonymizer.last_trace();
  ASSERT_NE(trace, nullptr);
  const SearchStats& stats = report.stats;
  EXPECT_EQ(trace->TotalCounter("nodes_generalized"),
            stats.nodes_generalized);
  EXPECT_EQ(trace->TotalCounter("nodes_pruned_condition2"),
            stats.nodes_pruned_condition2);
  EXPECT_EQ(trace->TotalCounter("nodes_rejected_kanonymity"),
            stats.nodes_rejected_kanonymity);
  EXPECT_EQ(trace->TotalCounter("nodes_rejected_detail"),
            stats.nodes_rejected_detail);
  EXPECT_EQ(trace->TotalCounter("nodes_satisfied"), stats.nodes_satisfied);
  EXPECT_EQ(trace->TotalCounter("nodes_skipped"), stats.nodes_skipped);
  EXPECT_EQ(trace->TotalCounter("nodes_cache_hits"),
            stats.nodes_cache_hits);
  EXPECT_EQ(trace->TotalCounter("nodes_cache_misses"),
            stats.nodes_cache_misses);
  EXPECT_EQ(trace->TotalCounter("nodes_evaluated_encoded"),
            stats.nodes_evaluated_encoded);
  EXPECT_EQ(trace->TotalCounter("replay_ticks"), stats.replay_ticks);
  EXPECT_EQ(trace->TotalCounter("heights_probed"), stats.heights_probed);
  EXPECT_EQ(trace->TotalCounter("subset_nodes_evaluated"),
            stats.subset_nodes_evaluated);
  // One eval event per node the evaluators resolved: generalized, or
  // served from a verdict cache.
  std::string signature = trace->StructureSignature();
  EXPECT_EQ(CountOccurrences(signature, "eval["),
            stats.nodes_generalized + stats.nodes_cache_hits);
}

TEST(TraceIntegrationTest, EveryEngineEmitsItsPhaseSpans) {
  struct Case {
    AnonymizationAlgorithm algorithm;
    std::vector<const char*> spans;
  };
  const std::vector<Case> cases = {
      {AnonymizationAlgorithm::kSamarati,
       {"algorithm=samarati", "probe_height", "binary_search",
        "materialize"}},
      {AnonymizationAlgorithm::kIncognito,
       {"algorithm=incognito", "subset_phase", "final_phase"}},
      {AnonymizationAlgorithm::kBottomUp,
       {"algorithm=bottomup", "lower_bounds", "height["}},
      {AnonymizationAlgorithm::kExhaustive,
       {"algorithm=exhaustive", "height["}},
      {AnonymizationAlgorithm::kOla,
       {"algorithm=ola", "check_top", "check_bottom", "bisect", "verify",
        "metrics"}},
      {AnonymizationAlgorithm::kMondrian,
       {"algorithm=mondrian", "partition", "recode"}},
      {AnonymizationAlgorithm::kGreedyCluster,
       {"algorithm=cluster", "cluster{", "recode"}},
  };
  AdultFixture fixture(200, 5);
  for (const Case& test_case : cases) {
    Anonymizer anonymizer = fixture.MakeAnonymizer();
    anonymizer.set_k(2).set_p(2).set_max_suppression(4).set_algorithm(
        test_case.algorithm);
    anonymizer.set_trace_enabled(true);
    UnwrapOk(anonymizer.Run());
    ASSERT_NE(anonymizer.last_trace(), nullptr);
    std::string signature = anonymizer.last_trace()->StructureSignature();
    for (const char* span : test_case.spans) {
      EXPECT_NE(signature.find(span), std::string::npos)
          << "algorithm " << static_cast<int>(test_case.algorithm)
          << " missing " << span << "\n" << signature;
    }
  }
}

TEST(TraceIntegrationTest, FallbackChainRecordsEveryStageOutcome) {
  AdultFixture fixture(60, 3);
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  // A zero deadline kills the lattice stage before it can evaluate a
  // single node; full suppression ignores the budget and takes over.
  anonymizer.set_k(3).set_p(1).set_max_suppression(0);
  anonymizer.set_deadline(std::chrono::milliseconds(0));
  anonymizer.set_fallback_chain({AnonymizationAlgorithm::kFullSuppression});
  anonymizer.set_trace_enabled(true);
  AnonymizationReport report = UnwrapOk(anonymizer.Run());
  EXPECT_EQ(report.fallback_stage, 1u);
  std::string signature = anonymizer.last_trace()->StructureSignature();
  EXPECT_NE(signature.find("outcome=DeadlineExceeded"), std::string::npos)
      << signature;
  EXPECT_NE(signature.find("algorithm=fullsuppression"), std::string::npos);
  EXPECT_NE(signature.find("outcome=released"), std::string::npos);
}

TEST(TraceIntegrationTest, SinkExportsValidLookingJson) {
  AdultFixture fixture;
  const std::string path = ::testing::TempDir() + "psk_trace_sink.json";
  std::remove(path.c_str());
  Anonymizer anonymizer = fixture.MakeAnonymizer();
  anonymizer.set_k(3).set_p(2).set_max_suppression(6);
  anonymizer.set_trace_sink(path);
  UnwrapOk(anonymizer.Run());
  std::string contents = UnwrapOk(ReadFileToString(path));
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.rfind("{\"psk_trace_version\":1,\"root\":", 0), 0u);
  EXPECT_EQ(contents.back(), '\n');
  // The sink closes the trace, so the export and the accessor agree.
  std::shared_ptr<RunTrace> trace = anonymizer.last_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(contents, trace->ToJson() + "\n");
  // Root provenance makes a trace self-describing.
  for (const char* field :
       {"\"algorithm\":\"samarati\"", "\"rows\":300", "\"k\":3", "\"p\":2"}) {
    EXPECT_NE(contents.find(field), std::string::npos) << field;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Job-runner integration: the commit protocol shows up as spans and the
// trace is exported to JobSpec::trace_path.

TEST(TraceIntegrationTest, JobRunnerExportsTraceWithCommitSpans) {
  const std::string dir = ::testing::TempDir() + "psk_trace_job";
  PSK_ASSERT_OK(EnsureDirectory(dir));
  JobSpec spec;
  spec.input = UnwrapOk(AdultGenerate(120, 3));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(spec.input.schema()));
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    spec.hierarchies.push_back(hierarchies.hierarchy_ptr(i));
  }
  spec.k = 3;
  spec.p = 2;
  spec.max_suppression = 6;
  spec.trace_path = dir + "/trace.json";
  std::remove(spec.trace_path.c_str());
  JobRunner runner(dir);
  JobOutcome outcome = UnwrapOk(runner.Run(spec));
  ASSERT_TRUE(outcome.report.guard.passed);
  std::string contents = UnwrapOk(ReadFileToString(spec.trace_path));
  for (const char* span :
       {"commit_release", "commit_report", "commit_journal", "\"guard\"",
        "\"sweep\""}) {
    EXPECT_NE(contents.find(span), std::string::npos) << span;
  }
}

}  // namespace
}  // namespace psk
