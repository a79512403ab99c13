#ifndef PSK_ALGORITHMS_OLA_H_
#define PSK_ALGORITHMS_OLA_H_

#include "psk/algorithms/search_common.h"

namespace psk {

/// OLA — Optimal Lattice Anonymization (El Emam et al., JAMIA 2009) —
/// generalized to p-sensitive k-anonymity.
///
/// OLA recursively bisects sub-lattices [B, T]: it classifies the nodes on
/// the middle height of the sub-lattice and recurses into [B, N] for
/// satisfying N and [N, T] for failing N, using *predictive tagging* to
/// avoid re-evaluating: a node above a known-satisfying node is satisfying
/// (monotonicity), a node below a known-failing node is failing. Height-1
/// sub-lattices yield locally minimal nodes; after deduplication and
/// dominance filtering they are the result's minimal_nodes, and the one
/// whose release has the lowest discernibility (ties to the first in
/// sorted order) is released, decoded in the "metrics" span that scored
/// them — unlike Samarati's binary search, which stops at any node of
/// minimal *height*, OLA returns the minimal node an analyst actually
/// prefers. satisfying_nodes stays empty.
///
/// The same monotonicity caveat as the other lattice searches applies for
/// p >= 2 with suppression.
Result<SearchResult> OlaSearch(const Table& initial_microdata,
                               const HierarchySet& hierarchies,
                               const SearchOptions& options);

}  // namespace psk

#endif  // PSK_ALGORITHMS_OLA_H_
