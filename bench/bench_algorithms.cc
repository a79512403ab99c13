// Algorithm comparison and scaling: Samarati binary search vs bottom-up
// BFS vs exhaustive sweep on the Adult workload, plus Mondrian as the
// local-recoding baseline and the core substrate operations
// (generalization, frequency sets).

#include <benchmark/benchmark.h>

#include "psk/algorithms/bottom_up.h"
#include "psk/algorithms/exhaustive.h"
#include "psk/algorithms/greedy_cluster.h"
#include "psk/algorithms/incognito.h"
#include "psk/algorithms/mondrian.h"
#include "psk/algorithms/ola.h"
#include "psk/algorithms/samarati.h"
#include "psk/common/check.h"
#include "psk/datagen/adult.h"
#include "psk/generalize/generalize.h"
#include "psk/table/group_by.h"

namespace psk {
namespace {

struct AdultFixture {
  Table table;
  HierarchySet hierarchies;
};

AdultFixture MakeAdult(size_t n) {
  auto table = AdultGenerate(n, /*seed=*/1);
  PSK_CHECK(table.ok());
  auto hierarchies = AdultHierarchies(table->schema());
  PSK_CHECK(hierarchies.ok());
  return AdultFixture{std::move(table).value(),
                      std::move(hierarchies).value()};
}

SearchOptions DefaultOptions(size_t n) {
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = n / 100;
  return options;
}

void BM_SamaratiBinarySearch(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result = SamaratiSearch(fixture.table, fixture.hierarchies,
                                 DefaultOptions(state.range(0)));
    PSK_CHECK(result.ok());
    nodes = result->stats.nodes_generalized;
    benchmark::DoNotOptimize(result->found);
  }
  state.counters["nodes_generalized"] = static_cast<double>(nodes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SamaratiBinarySearch)->Arg(400)->Arg(4000)->Arg(20000);

void BM_BottomUpSearch(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result = BottomUpSearch(fixture.table, fixture.hierarchies,
                                 DefaultOptions(state.range(0)));
    PSK_CHECK(result.ok());
    nodes = result->stats.nodes_generalized;
    benchmark::DoNotOptimize(result->minimal_nodes);
  }
  state.counters["nodes_generalized"] = static_cast<double>(nodes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BottomUpSearch)->Arg(400)->Arg(4000)->Arg(20000);

void BM_IncognitoSearch(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  size_t nodes = 0;
  size_t subset_nodes = 0;
  for (auto _ : state) {
    auto result = IncognitoSearch(fixture.table, fixture.hierarchies,
                                  DefaultOptions(state.range(0)));
    PSK_CHECK(result.ok());
    nodes = result->stats.nodes_generalized;
    subset_nodes = result->stats.subset_nodes_evaluated;
    benchmark::DoNotOptimize(result->minimal_nodes);
  }
  state.counters["nodes_generalized"] = static_cast<double>(nodes);
  state.counters["subset_nodes"] = static_cast<double>(subset_nodes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncognitoSearch)->Arg(400)->Arg(4000)->Arg(20000);

void BM_ExhaustiveSearch(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto result = ExhaustiveSearch(fixture.table, fixture.hierarchies,
                                   DefaultOptions(state.range(0)));
    PSK_CHECK(result.ok());
    benchmark::DoNotOptimize(result->minimal_nodes);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExhaustiveSearch)->Arg(400)->Arg(4000);

// Thread scaling of the parallel sweep (arg = worker threads, n fixed).
void BM_ExhaustiveSearchThreads(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(8000);
  SearchOptions options = DefaultOptions(8000);
  options.threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result =
        ExhaustiveSearch(fixture.table, fixture.hierarchies, options);
    PSK_CHECK(result.ok());
    benchmark::DoNotOptimize(result->minimal_nodes);
  }
}
BENCHMARK(BM_ExhaustiveSearchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Mondrian(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  MondrianOptions options;
  options.k = 3;
  options.p = 2;
  for (auto _ : state) {
    auto result = MondrianAnonymize(fixture.table, options);
    PSK_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_partitions);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Mondrian)->Arg(400)->Arg(4000)->Arg(20000);

void BM_OlaSearch(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  size_t nodes = 0;
  for (auto _ : state) {
    auto result = OlaSearch(fixture.table, fixture.hierarchies,
                            DefaultOptions(state.range(0)));
    PSK_CHECK(result.ok());
    nodes = result->stats.nodes_generalized;
    benchmark::DoNotOptimize(result->found);
  }
  state.counters["nodes_generalized"] = static_cast<double>(nodes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OlaSearch)->Arg(400)->Arg(4000)->Arg(20000);

void BM_GreedyCluster(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  GreedyClusterOptions options;
  options.k = 3;
  options.p = 2;
  for (auto _ : state) {
    auto result = GreedyClusterAnonymize(fixture.table, options);
    PSK_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_clusters);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyCluster)->Arg(400)->Arg(4000);

// Substrate microbenchmarks.

void BM_ApplyGeneralization(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  LatticeNode node{{1, 1, 1, 1}};
  for (auto _ : state) {
    auto out = ApplyGeneralization(fixture.table, fixture.hierarchies, node);
    PSK_CHECK(out.ok());
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyGeneralization)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FrequencySet(benchmark::State& state) {
  AdultFixture fixture = MakeAdult(static_cast<size_t>(state.range(0)));
  auto keys = fixture.table.schema().KeyIndices();
  for (auto _ : state) {
    auto fs = FrequencySet::Compute(fixture.table, keys);
    PSK_CHECK(fs.ok());
    benchmark::DoNotOptimize(fs->num_groups());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrequencySet)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace psk

BENCHMARK_MAIN();
