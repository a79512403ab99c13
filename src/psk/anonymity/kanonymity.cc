#include "psk/anonymity/kanonymity.h"

#include "psk/table/group_by.h"

namespace psk {

Result<bool> IsKAnonymous(const Table& table,
                          const std::vector<size_t>& key_indices, size_t k) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(table, key_indices));
  return IsKAnonymousEncoded(profile.groups, k);
}

Result<bool> IsKAnonymous(const Table& table, size_t k) {
  return IsKAnonymous(table, table.schema().KeyIndices(), k);
}

Result<bool> IsKAnonymousEncoded(const EncodedGroups& groups, size_t k) {
  if (k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (groups.num_groups() == 0) return true;
  return groups.MinGroupSize() >= k;
}

Result<size_t> AnonymityK(const Table& table,
                          const std::vector<size_t>& key_indices) {
  PSK_ASSIGN_OR_RETURN(ReleaseProfile profile,
                       ReleaseProfile::Compute(table, key_indices));
  return profile.groups.MinGroupSize();
}

}  // namespace psk
