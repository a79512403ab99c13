// Regenerates the paper's Figures 1 and 2 as Graphviz files:
//
//   fig1_sex.dot / fig1_zipcode.dot   value generalization hierarchies
//   fig2_lattice.dot                  the <Sex, ZipCode> lattice, with the
//                                     Table 4 (TS = 0) minimal node filled
//
// Render with e.g.:  dot -Tpng fig2_lattice.dot -o fig2.png

#include <cstdio>
#include <fstream>
#include <iostream>

#include "psk/algorithms/exhaustive.h"
#include "psk/datagen/paper_tables.h"
#include "psk/lattice/dot_export.h"

namespace {

template <typename T>
T Unwrap(psk::Result<T> result) {
  if (!result.ok()) {
    std::cerr << "error: " << result.status() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  psk::Table fig3 = Unwrap(psk::Figure3Table());
  psk::HierarchySet hierarchies =
      Unwrap(psk::Figure3Hierarchies(fig3.schema()));

  // Figure 1: the two value generalization hierarchies over the observed
  // ground values.
  std::vector<psk::Value> sexes = {psk::Value("M"), psk::Value("F")};
  WriteFile("fig1_sex.dot",
            Unwrap(psk::HierarchyToDot(hierarchies.hierarchy(0), sexes)));
  std::vector<psk::Value> zips;
  for (const char* zip :
       {"41076", "41099", "43102", "43103", "48201", "48202"}) {
    zips.push_back(psk::Value(zip));
  }
  WriteFile("fig1_zipcode.dot",
            Unwrap(psk::HierarchyToDot(hierarchies.hierarchy(1), zips)));

  // Figure 2: the lattice; fill the 3-minimal generalization at TS = 0
  // (Table 4's first row) so the diagram also tells the Table 4 story.
  psk::GeneralizationLattice lattice(hierarchies);
  psk::SearchOptions options;
  options.k = 3;
  psk::SearchResult minimal =
      Unwrap(psk::ExhaustiveSearch(fig3, hierarchies, options));
  WriteFile("fig2_lattice.dot",
            psk::LatticeToDot(lattice, hierarchies, minimal.minimal_nodes));

  std::printf("\nrender with: dot -Tpng fig2_lattice.dot -o fig2.png\n");
  return 0;
}
