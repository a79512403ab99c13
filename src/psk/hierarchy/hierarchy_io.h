#ifndef PSK_HIERARCHY_HIERARCHY_IO_H_
#define PSK_HIERARCHY_HIERARCHY_IO_H_

#include <memory>
#include <string>
#include <string_view>

#include "psk/common/result.h"
#include "psk/hierarchy/hierarchy.h"

namespace psk {

/// Loads a taxonomy hierarchy from ARX-style CSV text: one line per ground
/// value, fields ordered ground value, level-1 ancestor, level-2 ancestor,
/// ... All lines must have the same number of fields (>= 1); the number of
/// fields is the number of levels. No header line. Example (MaritalStatus,
/// 3 levels):
///
///   Divorced;Single;*
///   Never-married;Single;*
///   Married-civ-spouse;Married;*
///
/// Blank lines are skipped. Records are read by ReadCsvRecords (see
/// psk/table/csv.h), so a quoted field may hold the separator, doubled
/// quotes and line breaks.
Result<std::shared_ptr<TaxonomyHierarchy>> LoadTaxonomyCsv(
    std::string_view text, std::string attribute_name, char separator = ';');

/// Loads a taxonomy hierarchy from a CSV file on disk. See LoadTaxonomyCsv.
Result<std::shared_ptr<TaxonomyHierarchy>> LoadTaxonomyCsvFile(
    const std::string& path, std::string attribute_name,
    char separator = ';');

/// Serializes any attribute hierarchy to the same CSV format by expanding
/// its value generalization hierarchy over the given ground values (useful
/// to export interval/prefix hierarchies for inspection or for other
/// tools). Fields are quoted like WriteCsvString's, so every value loads
/// back unchanged. Fails if some ground value cannot be generalized.
Result<std::string> SaveHierarchyCsv(const AttributeHierarchy& hierarchy,
                                     const std::vector<Value>& ground_values,
                                     char separator = ';');

}  // namespace psk

#endif  // PSK_HIERARCHY_HIERARCHY_IO_H_
