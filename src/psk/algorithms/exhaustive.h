#ifndef PSK_ALGORITHMS_EXHAUSTIVE_H_
#define PSK_ALGORITHMS_EXHAUSTIVE_H_

#include "psk/algorithms/search_common.h"

namespace psk {

/// Evaluates every node of the generalization lattice and returns all
/// satisfying nodes plus the p-k-minimal ones (Definition 3). Exponential
/// in the number of key attributes, but exact regardless of monotonicity —
/// the oracle the other searches are tested against, and the generator of
/// Table 4 (which lists *sets* of minimal generalizations per suppression
/// threshold). Releases the lowest-height minimal node
/// (ReleaseLowestMinimalNode).
Result<SearchResult> ExhaustiveSearch(const Table& initial_microdata,
                                      const HierarchySet& hierarchies,
                                      const SearchOptions& options);

}  // namespace psk

#endif  // PSK_ALGORITHMS_EXHAUSTIVE_H_
