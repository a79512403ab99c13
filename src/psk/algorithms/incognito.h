#ifndef PSK_ALGORITHMS_INCOGNITO_H_
#define PSK_ALGORITHMS_INCOGNITO_H_

#include "psk/algorithms/search_common.h"

namespace psk {

/// Incognito (LeFevre, DeWitt & Ramakrishnan, SIGMOD 2005) — the paper's
/// reference [12] — adapted to p-sensitive k-anonymity.
///
/// The algorithm exploits two properties of k-anonymity (both hold with a
/// suppression budget):
///
///  - *subset property* (apriori): if a table is not k-anonymous within
///    budget w.r.t. a subset Q of the quasi-identifier at levels L, it is
///    not k-anonymous w.r.t. any superset of Q at the same levels — adding
///    attributes only refines groups;
///  - *generalization (rollup) property*: if a node satisfies, every
///    generalization of it satisfies.
///
/// Phases iterate over QI subsets by size. For each subset, its
/// sub-lattice is swept bottom-up: nodes whose projections failed in a
/// smaller subset are discarded without touching the data, nodes with an
/// already-satisfying predecessor are marked by rollup, and only the
/// frontier is actually checked (on a dictionary-encoded column cache, so
/// a subset check costs one hashed scan). The final phase evaluates the
/// surviving full-QI candidates; with p >= 2 each candidate additionally
/// runs the p-sensitive check (through the same NodeSweeper lanes,
/// Conditions 1-2 included), since the subset phases prune with
/// k-anonymity only.
///
/// With p >= 2 and no suppression (TS = 0) the subset phases also prune
/// nodes that violate p-sensitivity: p-sensitivity w.r.t. a QI subset is
/// implied by p-sensitivity w.r.t. the full QI, because subset groups are
/// unions of full groups. Suppression removes different rows per node,
/// which breaks the implication, so with TS > 0 the subset phases prune
/// with k-anonymity only.
///
/// Returns all p-k-minimal generalizations, like BottomUpSearch, and
/// releases the lowest-height one (ReleaseLowestMinimalNode); the same
/// monotonicity caveat applies to the p >= 2 + suppression corner case.
Result<SearchResult> IncognitoSearch(const Table& initial_microdata,
                                     const HierarchySet& hierarchies,
                                     const SearchOptions& options);

}  // namespace psk

#endif  // PSK_ALGORITHMS_INCOGNITO_H_
