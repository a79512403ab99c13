#ifndef PSK_ALGORITHMS_SAMARATI_H_
#define PSK_ALGORITHMS_SAMARATI_H_

#include "psk/algorithms/search_common.h"

namespace psk {

/// Samarati's binary search on the generalization lattice [19], extended to
/// p-sensitive k-anonymity — the paper's Algorithm 3.
///
/// The search probes lattice heights: if some node at height h satisfies
/// the property, the minimal satisfying height is <= h; otherwise it is
/// > h. With options.p == 1 this is exactly the baseline k-anonymity
/// algorithm; with p >= 2 each node is tested for p-sensitive k-anonymity,
/// Condition 1 is checked once before the search begins, and Condition 2
/// prunes nodes before their detailed per-group scan (the additions
/// underlined in Algorithm 3).
///
/// A probe scans its height in 64-node chunks and stops after the first
/// chunk holding a satisfying node, so a refutation costs the whole height
/// and a hit at most one chunk past its witness. The probe order follows
/// that asymmetry: the search bisects until a probe hits, then probes the
/// height just below the best hit while that height holds more than one
/// chunk (only its refutation proves the hit minimal), and bisects
/// otherwise. On a lattice whose heights all fit in one chunk this is
/// plain bisection.
///
/// Releases the satisfying node of minimal height found (a p-k-minimal
/// generalization's height; the node itself is one of possibly several
/// minimal nodes — use ExhaustiveSearch to enumerate them all), decoded
/// in a "materialize" span. Leaves minimal_nodes and satisfying_nodes
/// empty.
///
/// Caveat (documented deviation): height-level binary search is complete
/// only when the property is monotone along generalization paths. That
/// holds for k-anonymity (with or without suppression) and for p-sensitive
/// k-anonymity *without* suppression, but suppression can break
/// monotonicity for p >= 2 in corner cases (a group assembled entirely
/// from suppressed fragments may have < p distinct values). The paper's
/// Algorithm 3 inherits the same assumption. When no probed height
/// satisfies, this implementation still probes the lattice top, so a
/// lattice whose top satisfies always yields a correct (if possibly
/// non-minimal) answer.
Result<SearchResult> SamaratiSearch(const Table& initial_microdata,
                                    const HierarchySet& hierarchies,
                                    const SearchOptions& options);

}  // namespace psk

#endif  // PSK_ALGORITHMS_SAMARATI_H_
