#include "psk/metrics/risk.h"

#include <unordered_map>

#include "psk/table/group_by.h"

namespace psk {

Result<RiskSummary> ProsecutorRisk(const Table& masked,
                                   const std::vector<size_t>& key_indices,
                                   double threshold) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(masked, key_indices));
  RiskSummary summary;
  if (masked.num_rows() == 0) return summary;
  double total = 0.0;
  size_t at_risk = 0;
  for (uint32_t size : profile.groups.group_sizes) {
    double risk = 1.0 / static_cast<double>(size);
    summary.max_risk = std::max(summary.max_risk, risk);
    total += risk * static_cast<double>(size);
    if (risk > threshold) at_risk += size;
  }
  summary.avg_risk = total / static_cast<double>(masked.num_rows());
  summary.fraction_at_risk =
      static_cast<double>(at_risk) / static_cast<double>(masked.num_rows());
  return summary;
}

Result<RiskSummary> JournalistRisk(
    const Table& masked, const std::vector<size_t>& masked_key_indices,
    const Table& population,
    const std::vector<size_t>& population_key_indices,
    double threshold) {
  if (masked_key_indices.size() != population_key_indices.size()) {
    return Status::InvalidArgument(
        "masked and population key attribute lists differ in length");
  }
  PSK_ASSIGN_OR_RETURN(FrequencySet masked_fs,
                       FrequencySet::Compute(masked, masked_key_indices));
  PSK_ASSIGN_OR_RETURN(
      FrequencySet population_fs,
      FrequencySet::Compute(population, population_key_indices));

  std::unordered_map<std::vector<Value>, size_t, CompositeKeyHash>
      population_sizes;
  population_sizes.reserve(population_fs.num_groups());
  for (const Group& group : population_fs.groups()) {
    population_sizes.emplace(group.key, group.size());
  }

  RiskSummary summary;
  if (masked.num_rows() == 0) return summary;
  double total = 0.0;
  size_t at_risk = 0;
  for (const Group& group : masked_fs.groups()) {
    auto it = population_sizes.find(group.key);
    double risk =
        it == population_sizes.end()
            ? 0.0
            : 1.0 / static_cast<double>(it->second);
    summary.max_risk = std::max(summary.max_risk, risk);
    total += risk * static_cast<double>(group.size());
    if (risk > threshold) at_risk += group.size();
  }
  summary.avg_risk = total / static_cast<double>(masked.num_rows());
  summary.fraction_at_risk =
      static_cast<double>(at_risk) / static_cast<double>(masked.num_rows());
  return summary;
}

Result<double> MarketerRisk(const Table& masked,
                            const std::vector<size_t>& key_indices) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(masked, key_indices));
  return profile.MarketerRisk();
}

}  // namespace psk
