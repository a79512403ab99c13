#ifndef PSK_ALGORITHMS_BOTTOM_UP_H_
#define PSK_ALGORITHMS_BOTTOM_UP_H_

#include "psk/algorithms/search_common.h"

namespace psk {

/// Bottom-up breadth-first sweep of the generalization lattice that
/// enumerates all p-k-minimal generalizations, in the spirit of Incognito's
/// lattice traversal [12] (on the full-domain lattice rather than the
/// subset lattice):
///
///  1. per-attribute lower bounds via the rollup/subset property
///     (LeFevre et al. 2005): for every key attribute, the minimum
///     hierarchy level at which the *single-attribute* quasi-identifier
///     {A_i} reaches k-anonymity within the suppression budget. Adding
///     attributes only refines groups, so a full node below that level
///     can never satisfy k-anonymity and is skipped without generalizing;
///  2. heights processed bottom-up; a node that generalizes an
///     already-found minimal node is skipped (it satisfies the property by
///     monotonicity but cannot be minimal);
///  3. nodes that pass evaluation at height h are minimal, because every
///     strictly lower node was already processed and rejected.
///
/// Releases the lowest-height minimal node (ReleaseLowestMinimalNode).
///
/// Like Algorithm 3, completeness relies on monotonicity; see the caveat
/// on SamaratiSearch. The sweep itself inspects every non-pruned node, so
/// with p >= 2 and suppression it still returns exactly the minimal
/// *satisfying* nodes it saw — only dominance-skipping assumes
/// monotonicity, and it skips only nodes above an already-satisfying node.
Result<SearchResult> BottomUpSearch(const Table& initial_microdata,
                                    const HierarchySet& hierarchies,
                                    const SearchOptions& options);

}  // namespace psk

#endif  // PSK_ALGORITHMS_BOTTOM_UP_H_
