#ifndef PSK_METRICS_METRICS_H_
#define PSK_METRICS_METRICS_H_

#include <cstdint>
#include <vector>

#include "psk/common/result.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/table.h"

namespace psk {

/// Utility (information-loss) measures for a masked microdata. Lower is
/// better for all of them except Precision.

/// Discernibility metric (Bayardo & Agrawal): sum over QI-groups of
/// |G|^2, plus `suppressed * total_rows` for each suppressed tuple (a
/// suppressed tuple is indistinguishable from every tuple). `total_rows`
/// is the size of the initial microdata (surviving + suppressed).
Result<uint64_t> DiscernibilityMetric(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t suppressed, size_t total_rows);

/// Normalized average group size C_AVG = (n / #groups) / k (LeFevre 2006).
/// 1.0 is ideal (every group exactly k); larger means coarser grouping.
Result<double> NormalizedAvgGroupSize(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t k);

/// Samarati's height metric: height(node) / height(GL) in [0, 1].
double NormalizedHeight(const LatticeNode& node,
                        const GeneralizationLattice& lattice);

/// Sweeney's precision: 1 - mean over key attributes of
/// level_i / max_level_i. 1.0 means no generalization; 0.0 means every key
/// attribute fully generalized. Attributes whose hierarchy has a single
/// level are skipped (they cannot be generalized).
double Precision(const LatticeNode& node, const HierarchySet& hierarchies);

/// Fraction of initial tuples removed by suppression.
double SuppressionRatio(size_t suppressed, size_t total_rows);

/// Non-uniform entropy information loss (De Waal & Willenborg; the metric
/// ARX calls "Non-Uniform Entropy"): for each key attribute, the loss of a
/// cell holding generalized value g that covers ground value v is
/// -log2(freq(v) / freq(g)), summed over all cells. 0 when nothing is
/// generalized; grows as buckets widen. `initial` supplies the ground
/// values (row-aligned with `masked`, which must be the generalization of
/// `initial` at `node` without suppression).
Result<double> NonUniformEntropyLoss(const Table& initial,
                                     const Table& masked,
                                     const HierarchySet& hierarchies,
                                     const LatticeNode& node);

/// Disclosure-risk measures.

/// Fraction of tuples living in a QI-group with at least one attribute
/// disclosure (a confidential attribute constant across the group).
Result<double> DisclosureRiskTupleFraction(
    const Table& masked, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices);

}  // namespace psk

#endif  // PSK_METRICS_METRICS_H_
