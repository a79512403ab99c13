// Parallel-sweep scaling: every lattice engine at 1/2/4/8 worker threads
// on the Adult workload. Emits machine-readable results (wall time,
// nodes/s, speedup vs sequential) as BENCH_parallel.json for the CI
// scaling gate.
//
//   bench_parallel_scaling [--trace] [--threads=1,2,4,8] [rows] [out.json]
//
// Defaults: 100000 rows, ./BENCH_parallel.json, threads 1/2/4/8. With
// --trace, one extra (untimed) traced run per engine at the highest
// thread count writes the merged span trees to <out>.trace.json; the
// timed runs stay untraced.
//
// Every result row records the machine's hardware_concurrency and an
// `oversubscribed` flag (threads > hardware cores): on a small box the
// speedup_vs_1 of an oversubscribed row measures scheduler thrash, not
// scaling, so the CI gate must skip those rows rather than gate on noise.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/common/check.h"
#include "psk/common/json_writer.h"
#include "psk/datagen/adult.h"
#include "psk/trace/trace.h"

namespace psk {
namespace {

struct RunResult {
  std::string engine;
  size_t threads = 0;
  double wall_ms = 0.0;
  size_t nodes_generalized = 0;
};

SearchOptions MakeOptions(size_t rows, size_t threads) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = rows / 100;
  options.threads = threads;
  return options;
}

template <typename Fn>
RunResult Measure(const std::string& engine, size_t threads, Fn&& fn) {
  auto start = std::chrono::steady_clock::now();
  SearchStats stats = fn();
  auto end = std::chrono::steady_clock::now();
  RunResult r;
  r.engine = engine;
  r.threads = threads;
  r.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  r.nodes_generalized = stats.nodes_generalized;
  return r;
}

// One traced run per engine at `threads` workers, all merged into a
// single trace document (each engine's spans under its own child span).
void WriteTrace(const Table& im, const HierarchySet& hs, size_t rows,
                size_t threads, const std::string& trace_path) {
  RunTrace trace("bench_parallel_scaling");
  trace.Counter("rows", rows);
  trace.Timing("threads", threads);
  SearchOptions options = MakeOptions(rows, threads);
  options.trace = &trace;
  trace.Begin("exhaustive");
  PSK_CHECK(ExhaustiveSearch(im, hs, options).ok());
  trace.End();
  trace.Begin("samarati");
  PSK_CHECK(SamaratiSearch(im, hs, options).ok());
  trace.End();
  trace.Begin("ola");
  OlaOptions ola;
  ola.search = options;
  PSK_CHECK(OlaSearch(im, hs, ola).ok());
  trace.End();
  trace.Begin("incognito");
  PSK_CHECK(IncognitoSearch(im, hs, options).ok());
  trace.End();
  trace.Begin("bottomup");
  PSK_CHECK(BottomUpSearch(im, hs, options).ok());
  trace.End();
  Status written = trace.WriteJsonFile(trace_path);
  PSK_CHECK(written.ok());
  std::cout << "wrote " << trace_path << "\n";
}

int Main(int argc, char** argv) {
  bool with_trace = false;
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg(argv[i]);
    if (arg == "--trace") {
      with_trace = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      thread_counts.clear();
      std::string list = arg.substr(10);
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        size_t value =
            static_cast<size_t>(std::atoll(list.substr(pos, comma - pos).c_str()));
        if (value > 0) thread_counts.push_back(value);
        pos = comma + 1;
      }
      if (thread_counts.empty()) {
        std::cerr << "invalid --threads list\n";
        return 1;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  size_t rows = positional.size() > 0
                    ? static_cast<size_t>(std::atoll(positional[0]))
                    : 100000;
  std::string out_path =
      positional.size() > 1 ? positional[1] : "BENCH_parallel.json";

  auto table = AdultGenerate(rows, /*seed=*/1);
  PSK_CHECK(table.ok());
  auto hierarchies = AdultHierarchies(table->schema());
  PSK_CHECK(hierarchies.ok());
  const Table& im = *table;
  const HierarchySet& hs = *hierarchies;

  std::vector<RunResult> results;
  for (size_t threads : thread_counts) {
    SearchOptions options = MakeOptions(rows, threads);
    results.push_back(Measure("exhaustive", threads, [&] {
      auto r = ExhaustiveSearch(im, hs, options);
      PSK_CHECK(r.ok());
      return r->stats;
    }));
    results.push_back(Measure("samarati", threads, [&] {
      auto r = SamaratiSearch(im, hs, options);
      PSK_CHECK(r.ok());
      return r->stats;
    }));
    results.push_back(Measure("ola", threads, [&] {
      OlaOptions ola;
      ola.search = options;
      auto r = OlaSearch(im, hs, ola);
      PSK_CHECK(r.ok());
      return r->stats;
    }));
    results.push_back(Measure("incognito", threads, [&] {
      auto r = IncognitoSearch(im, hs, options);
      PSK_CHECK(r.ok());
      return r->stats;
    }));
    results.push_back(Measure("bottomup", threads, [&] {
      auto r = BottomUpSearch(im, hs, options);
      PSK_CHECK(r.ok());
      return r->stats;
    }));
  }

  // Sequential baseline per engine, for the speedup column.
  auto baseline_ms = [&](const std::string& engine) {
    for (const RunResult& r : results) {
      if (r.engine == engine && r.threads == 1) return r.wall_ms;
    }
    return 0.0;
  };

  JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("parallel_scaling");
  json.Key("workload").String("adult");
  json.Key("rows").Uint(rows);
  json.Key("hardware_concurrency")
      .Uint(std::thread::hardware_concurrency());
  json.Key("results").BeginArray();
  const size_t hardware = std::thread::hardware_concurrency();
  for (const RunResult& r : results) {
    double secs = r.wall_ms / 1000.0;
    // A run with more workers than cores measures scheduler thrash, not
    // scaling — the row stays in the data (marked) but gates must skip it.
    const bool oversubscribed = hardware > 0 && r.threads > hardware;
    json.BeginObject();
    json.Key("engine").String(r.engine);
    json.Key("threads").Uint(r.threads);
    json.Key("hardware_concurrency").Uint(hardware);
    json.Key("oversubscribed").Bool(oversubscribed);
    json.Key("wall_ms").Double(r.wall_ms);
    json.Key("nodes_generalized").Uint(r.nodes_generalized);
    json.Key("nodes_per_sec")
        .Double(secs > 0 ? static_cast<double>(r.nodes_generalized) / secs
                         : 0.0);
    json.Key("speedup_vs_1")
        .Double(r.wall_ms > 0 ? baseline_ms(r.engine) / r.wall_ms : 0.0);
    json.EndObject();
    std::cout << r.engine << " threads=" << r.threads << " wall_ms="
              << r.wall_ms << " nodes=" << r.nodes_generalized
              << (oversubscribed ? " (oversubscribed)" : "") << "\n";
  }
  json.EndArray();
  json.EndObject();

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
    WriteTrace(im, hs, rows, thread_counts.back(), trace_path);
  }
  return 0;
}

}  // namespace
}  // namespace psk

int main(int argc, char** argv) { return psk::Main(argc, argv); }
