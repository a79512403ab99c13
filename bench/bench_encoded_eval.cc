// Node-evaluation throughput of the dictionary-encoded core: every node of
// the Adult lattice evaluated through NodeEvaluator. Emits wall time and
// nodes/s as BENCH_encoded.json.
//
//   bench_encoded_eval [--trace] [rows] [rounds] [out.json]
//
// Defaults: 4000 rows, 5 rounds, ./BENCH_encoded.json. With --trace, one
// additional (untimed) pass runs under a RunTrace and the span tree is
// written next to the results as <out>.trace.json — the timed rounds
// always run untraced, so the perf numbers never include tracing.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "psk/algorithms/search_common.h"
#include "psk/common/check.h"
#include "psk/common/json_writer.h"
#include "psk/datagen/adult.h"
#include "psk/lattice/lattice.h"
#include "psk/trace/trace.h"

namespace psk {
namespace {

struct RunResult {
  double wall_ms = 0.0;
  size_t nodes_evaluated = 0;
  size_t nodes_satisfied = 0;
};

SearchOptions BenchOptions(size_t rows) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = rows / 100;
  return options;
}

RunResult Measure(const Table& im, const HierarchySet& hs,
                  const std::vector<LatticeNode>& nodes, size_t rows,
                  size_t rounds) {
  SearchOptions options = BenchOptions(rows);
  RunResult r;
  auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    // A fresh evaluator per round so every round pays the same setup
    // (including the one-time dictionary encode).
    NodeEvaluator evaluator(im, hs, options);
    PSK_CHECK(evaluator.Init().ok());
    for (const LatticeNode& node : nodes) {
      auto eval = evaluator.Evaluate(node);
      PSK_CHECK(eval.ok());
      ++r.nodes_evaluated;
      if (eval->satisfied) ++r.nodes_satisfied;
    }
  }
  auto end = std::chrono::steady_clock::now();
  r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return r;
}

// One untimed pass over every node with tracing on, so the archived trace
// shows the per-node eval events without contaminating the measured
// rounds.
void WriteTrace(const Table& im, const HierarchySet& hs,
                const std::vector<LatticeNode>& nodes, size_t rows,
                const std::string& trace_path) {
  RunTrace trace("bench_encoded_eval");
  trace.Counter("rows", rows);
  trace.Counter("lattice_nodes", nodes.size());
  TraceEventBuffer buffer;
  SearchOptions options = BenchOptions(rows);
  options.trace = &trace;
  trace.Begin("encoded_pass");
  NodeEvaluator evaluator(im, hs, options);
  evaluator.set_trace(&trace, &buffer);
  PSK_CHECK(evaluator.Init().ok());
  for (const LatticeNode& node : nodes) {
    PSK_CHECK(evaluator.Evaluate(node).ok());
  }
  if (!buffer.empty()) trace.MergeEvents(buffer.Take());
  RecordStatsCounters(&trace, evaluator.stats());
  trace.End();
  Status written = trace.WriteJsonFile(trace_path);
  PSK_CHECK(written.ok());
  std::cout << "wrote " << trace_path << "\n";
}

int Main(int argc, char** argv) {
  bool with_trace = false;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--trace") {
      with_trace = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  size_t rows = positional.size() > 0
                    ? static_cast<size_t>(std::atoll(positional[0]))
                    : 4000;
  size_t rounds = positional.size() > 1
                      ? static_cast<size_t>(std::atoll(positional[1]))
                      : 5;
  std::string out_path =
      positional.size() > 2 ? positional[2] : "BENCH_encoded.json";

  auto table = AdultGenerate(rows, /*seed=*/1);
  PSK_CHECK(table.ok());
  auto hierarchies = AdultHierarchies(table->schema());
  PSK_CHECK(hierarchies.ok());
  const Table& im = *table;
  const HierarchySet& hs = *hierarchies;

  GeneralizationLattice lattice(hs);
  std::vector<LatticeNode> nodes = lattice.AllNodes();

  RunResult r = Measure(im, hs, nodes, rows, rounds);
  double secs = r.wall_ms / 1000.0;

  JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("encoded_eval");
  json.Key("workload").String("adult");
  json.Key("rows").Uint(rows);
  json.Key("rounds").Uint(rounds);
  json.Key("lattice_nodes").Uint(nodes.size());
  json.Key("k").Uint(3);
  json.Key("p").Uint(2);
  json.Key("wall_ms").Double(r.wall_ms);
  json.Key("nodes_evaluated").Uint(r.nodes_evaluated);
  json.Key("nodes_satisfied").Uint(r.nodes_satisfied);
  json.Key("nodes_per_sec")
      .Double(secs > 0 ? static_cast<double>(r.nodes_evaluated) / secs : 0.0);
  json.EndObject();
  std::cout << "wall_ms=" << r.wall_ms << " nodes=" << r.nodes_evaluated
            << " satisfied=" << r.nodes_satisfied << "\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << json.TakeString() << "\n";
  std::cout << "wrote " << out_path << "\n";

  if (with_trace) {
    std::string trace_path = out_path;
    const std::string suffix = ".json";
    if (trace_path.size() >= suffix.size() &&
        trace_path.compare(trace_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
      trace_path.resize(trace_path.size() - suffix.size());
    }
    trace_path += ".trace.json";
    WriteTrace(im, hs, nodes, rows, trace_path);
  }
  return 0;
}

}  // namespace
}  // namespace psk

int main(int argc, char** argv) { return psk::Main(argc, argv); }
