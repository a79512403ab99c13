// Parallel-sweep scaling: every lattice engine at 1/2/4/8 worker threads
// on two workloads. Emits machine-readable results (wall time, nodes/s,
// speedup vs sequential) as BENCH_parallel.json for the CI scaling gate.
// Each workload × engine × thread cell reports the median wall time of
// kRunsPerCell runs, so one slow or fast run cannot swing a speedup_vs_1.
//
//   bench_parallel_scaling [--trace] [--threads=1,2,4,8] [rows] [out.json]
//
// Defaults: 100000 rows, ./BENCH_parallel.json, threads 1/2/4/8. With
// --trace, one extra (untimed) traced run per engine at the highest
// thread count writes the merged span trees to <out>.trace.json; the
// timed runs stay untraced.
//
// Workloads:
//   synthetic  five QIs of 16 values each, three hierarchy levels (a
//              243-node lattice), one confidential attribute. Its QI
//              tuples barely repeat, so every node groups all its rows:
//              the workload the CI gate judges.
//   adult      the Adult generator. Its QI tuples repeat so heavily that
//              the encoding groups a few thousand entries instead of the
//              rows, and a whole search takes a few ms, mostly the
//              encode: recorded, never gated.
//
// Every result row records the machine's hardware_concurrency and an
// `oversubscribed` flag (threads > hardware cores): on a small box the
// speedup_vs_1 of an oversubscribed row measures scheduler thrash, not
// scaling, so the CI gate must skip those rows rather than gate on noise.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/common/check.h"
#include "psk/common/json_writer.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/trace/trace.h"

namespace psk {
namespace {

struct RunResult {
  std::string workload;
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

constexpr size_t kRunsPerCell = 5;

// Every lattice engine, in the order the cells and the trace run them.
using Engine = Result<SearchResult> (*)(const Table&, const HierarchySet&,
                                        const SearchOptions&);
const std::pair<const char*, Engine> kEngines[] = {
    {"exhaustive", ExhaustiveSearch}, {"samarati", SamaratiSearch},
    {"ola", OlaSearch},               {"incognito", IncognitoSearch},
    {"bottomup", BottomUpSearch}};

// One workload × engine × thread cell: the search it times, and the wall
// time of each of its runs.
struct Cell {
  RunResult result;
  std::function<SearchStats()> search;
  std::vector<double> wall_ms;
};

// Runs every cell once per round, for kRunsPerCell rounds, and returns
// each cell's median. Rounds rather than back-to-back runs, so host drift
// during a capture touches every cell alike: over ten captures on a
// 4-core Xeon, exhaustive's synthetic 4-thread ratio read 2.25–3.15×
// this way and 1.82–4.11× with each cell's runs back to back.
std::vector<RunResult> Measure(std::vector<Cell> cells) {
  for (size_t round = 0; round < kRunsPerCell; ++round) {
    for (Cell& cell : cells) {
      auto start = std::chrono::steady_clock::now();
      cell.result.nodes_generalized = cell.search().nodes_generalized;
      auto end = std::chrono::steady_clock::now();
      cell.wall_ms.push_back(
          std::chrono::duration<double, std::milli>(end - start).count());
    }
  }
  std::vector<RunResult> results;
  for (Cell& cell : cells) {
    auto median = cell.wall_ms.begin() + kRunsPerCell / 2;
    std::nth_element(cell.wall_ms.begin(), median, cell.wall_ms.end());
    cell.result.wall_ms = *median;
    results.push_back(cell.result);
  }
  return results;
}

struct Workload {
  std::string name;
  Table table;
  HierarchySet hierarchies;
};

// The gated workload: see the file comment.
Workload MakeSyntheticWorkload(size_t rows) {
  auto data = SyntheticGenerate(MakeUniformSpec(rows, 5, 16, 1, 50, 0.5),
                                /*seed=*/1);
  PSK_CHECK(data.ok());
  return Workload{"synthetic", std::move(data->table),
                  std::move(data->hierarchies)};
}

Workload MakeAdultWorkload(size_t rows) {
  auto table = AdultGenerate(rows, /*seed=*/1);
  PSK_CHECK(table.ok());
  auto hierarchies = AdultHierarchies(table->schema());
  PSK_CHECK(hierarchies.ok());
  return Workload{"adult", std::move(*table), std::move(*hierarchies)};
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
  for (const auto& [name, engine] : kEngines) {
    trace.Begin(name);
    PSK_CHECK(engine(im, hs, options).ok());
    trace.End();
  }
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

  std::vector<Workload> workloads;
  workloads.push_back(MakeSyntheticWorkload(rows));
  workloads.push_back(MakeAdultWorkload(rows));

  std::vector<Cell> cells;
  for (const Workload& workload : workloads) {
    const Table& im = workload.table;
    const HierarchySet& hs = workload.hierarchies;
    for (size_t threads : thread_counts) {
      SearchOptions options = MakeOptions(rows, threads);
      for (const auto& [name, engine] : kEngines) {
        cells.push_back({{workload.name, name, threads},
                         [&im, &hs, options, engine = engine] {
                           auto r = engine(im, hs, options);
                           PSK_CHECK(r.ok());
                           return r->stats;
                         },
                         {}});
      }
    }
  }
  std::vector<RunResult> results = Measure(std::move(cells));

  // Sequential baseline per workload and engine, for the speedup column.
  auto baseline_ms = [&](const RunResult& run) {
    for (const RunResult& r : results) {
      if (r.workload == run.workload && r.engine == run.engine &&
          r.threads == 1) {
        return r.wall_ms;
      }
    }
    return 0.0;
  };

  JsonWriter json;
  json.BeginObject();
  json.Key("benchmark").String("parallel_scaling");
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
    json.Key("workload").String(r.workload);
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
        .Double(r.wall_ms > 0 ? baseline_ms(r) / r.wall_ms : 0.0);
    json.EndObject();
    std::cout << r.workload << " " << r.engine << " threads=" << r.threads
              << " wall_ms="
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
    WriteTrace(workloads.front().table, workloads.front().hierarchies, rows,
               thread_counts.back(), trace_path);
  }
  return 0;
}

}  // namespace
}  // namespace psk

int main(int argc, char** argv) { return psk::Main(argc, argv); }
