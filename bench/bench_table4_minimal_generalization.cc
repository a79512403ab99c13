// Regenerates Table 4: the 3-minimal generalizations of the Fig. 3 initial
// microdata for every suppression threshold TS = 0..10.
//
// Paper values:
//   TS 0,1      -> <S0, Z2>
//   TS 2..6     -> <S0, Z2> and <S1, Z1>
//   TS 7,8,9    -> <S1, Z0> and <S0, Z1>
//   TS 10       -> <S0, Z0>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "psk/algorithms/exhaustive.h"
#include "psk/datagen/paper_tables.h"

namespace {

template <typename T>
T Unwrap(psk::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  psk::Table im = Unwrap(psk::Figure3Table());
  psk::HierarchySet hierarchies =
      Unwrap(psk::Figure3Hierarchies(im.schema()));

  std::printf("Table 4: 3-minimal generalizations per suppression threshold\n\n");
  std::printf("%-4s %s\n", "TS", "3-minimal generalization node(s)");
  for (size_t ts = 0; ts <= 10; ++ts) {
    psk::SearchOptions options;
    options.k = 3;
    options.p = 1;
    options.max_suppression = ts;
    psk::SearchResult result =
        Unwrap(psk::ExhaustiveSearch(im, hierarchies, options));
    std::string nodes;
    for (const psk::LatticeNode& node : result.minimal_nodes) {
      if (!nodes.empty()) nodes += " and ";
      nodes += node.ToString(hierarchies);
    }
    std::printf("%-4zu %s\n", ts, nodes.c_str());
  }
  std::printf(
      "\npaper reference: TS 0,1 -> <S0,Z2>; TS 2-6 -> <S0,Z2> and <S1,Z1>; "
      "TS 7-9 -> <S1,Z0> and <S0,Z1>; TS 10 -> <S0,Z0>\n");
  return 0;
}
