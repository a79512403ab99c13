#include "psk/metrics/metrics.h"

#include <cmath>
#include <unordered_map>

#include "psk/table/group_by.h"

namespace psk {

Result<uint64_t> DiscernibilityMetric(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t suppressed, size_t total_rows) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(masked, key_indices));
  return profile.Discernibility(suppressed, total_rows);
}

Result<double> NormalizedAvgGroupSize(const Table& masked,
                                      const std::vector<size_t>& key_indices,
                                      size_t k) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(masked, key_indices));
  return profile.NormalizedAvgGroupSize(k);
}

double NormalizedHeight(const LatticeNode& node,
                        const GeneralizationLattice& lattice) {
  int total = lattice.height();
  if (total == 0) return 0.0;
  return static_cast<double>(node.Height()) / static_cast<double>(total);
}

double Precision(const LatticeNode& node, const HierarchySet& hierarchies) {
  double loss_sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    int max_level = hierarchies.hierarchy(i).num_levels() - 1;
    if (max_level <= 0) continue;
    loss_sum += static_cast<double>(node.levels[i]) /
                static_cast<double>(max_level);
    ++counted;
  }
  if (counted == 0) return 1.0;
  return 1.0 - loss_sum / static_cast<double>(counted);
}

double SuppressionRatio(size_t suppressed, size_t total_rows) {
  if (total_rows == 0) return 0.0;
  return static_cast<double>(suppressed) / static_cast<double>(total_rows);
}

Result<double> NonUniformEntropyLoss(const Table& initial,
                                     const Table& masked,
                                     const HierarchySet& hierarchies,
                                     const LatticeNode& node) {
  std::vector<size_t> initial_keys = initial.schema().KeyIndices();
  std::vector<size_t> masked_keys = masked.schema().KeyIndices();
  if (initial_keys.size() != hierarchies.size() ||
      node.levels.size() != hierarchies.size() ||
      masked_keys.size() != initial_keys.size()) {
    return Status::InvalidArgument(
        "hierarchies/node do not match the schemas' key attributes");
  }
  if (initial.num_rows() != masked.num_rows()) {
    return Status::InvalidArgument(
        "initial and masked tables must be row-aligned (no suppression)");
  }
  double loss = 0.0;
  for (size_t slot = 0; slot < initial_keys.size(); ++slot) {
    if (node.levels[slot] == 0) continue;  // identity level, no loss
    // Ground-value and bucket frequencies over the initial column.
    std::unordered_map<Value, size_t, ValueHash> ground_freq;
    for (const Value& v : initial.column(initial_keys[slot])) {
      ++ground_freq[v];
    }
    std::unordered_map<Value, size_t, ValueHash> bucket_freq;
    std::unordered_map<Value, Value, ValueHash> up;
    for (const auto& [ground, freq] : ground_freq) {
      PSK_ASSIGN_OR_RETURN(
          Value bucket,
          hierarchies.hierarchy(slot).Generalize(ground, node.levels[slot]));
      bucket_freq[bucket] += freq;
      up.emplace(ground, std::move(bucket));
    }
    for (const Value& v : initial.column(initial_keys[slot])) {
      const Value& bucket = up.at(v);
      loss -= std::log2(static_cast<double>(ground_freq.at(v)) /
                        static_cast<double>(bucket_freq.at(bucket)));
    }
  }
  return loss;
}

Result<double> DisclosureRiskTupleFraction(
    const Table& masked, const std::vector<size_t>& key_indices,
    const std::vector<size_t>& confidential_indices) {
  if (confidential_indices.empty()) {
    return Status::InvalidArgument(
        "at least one confidential attribute is required");
  }
  PSK_ASSIGN_OR_RETURN(
      ReleaseProfile profile,
      ReleaseProfile::Compute(masked, key_indices, confidential_indices));
  if (masked.num_rows() == 0) return 0.0;
  return static_cast<double>(profile.RowsInDisclosingGroups()) /
         static_cast<double>(masked.num_rows());
}

}  // namespace psk
