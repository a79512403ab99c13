#include "psk/hierarchy/hierarchy_io.h"

#include <fstream>
#include <optional>
#include <sstream>

#include "psk/table/csv.h"

namespace psk {

Result<std::shared_ptr<TaxonomyHierarchy>> LoadTaxonomyCsv(
    std::string_view text, std::string attribute_name, char separator) {
  PSK_ASSIGN_OR_RETURN(std::vector<CsvRecord> records,
                       ReadCsvRecords(text, separator));
  int num_levels = -1;
  std::optional<TaxonomyHierarchy::Builder> builder;
  // The first record fixes the level count.
  for (const CsvRecord& record : records) {
    const std::vector<std::string>& fields = record.fields;
    if (num_levels < 0) {
      num_levels = static_cast<int>(fields.size());
    } else if (fields.size() != static_cast<size_t>(num_levels)) {
      return Status::InvalidArgument(
          "hierarchy CSV line " + std::to_string(record.line) + " has " +
          std::to_string(fields.size()) + " fields; expected " +
          std::to_string(num_levels));
    }
  }
  if (records.empty()) {
    return Status::InvalidArgument("hierarchy CSV contains no records");
  }
  builder.emplace(std::move(attribute_name), num_levels);
  for (auto& [line, record] : records) {
    std::string ground = std::move(record[0]);
    std::vector<std::string> ancestors(record.begin() + 1, record.end());
    builder->AddValue(std::move(ground), std::move(ancestors));
  }
  return builder->Build();
}

Result<std::shared_ptr<TaxonomyHierarchy>> LoadTaxonomyCsvFile(
    const std::string& path, std::string attribute_name, char separator) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open hierarchy file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadTaxonomyCsv(buffer.str(), std::move(attribute_name), separator);
}

Result<std::string> SaveHierarchyCsv(const AttributeHierarchy& hierarchy,
                                     const std::vector<Value>& ground_values,
                                     char separator) {
  std::ostringstream os;
  for (const Value& ground : ground_values) {
    for (int level = 0; level < hierarchy.num_levels(); ++level) {
      if (level > 0) os << separator;
      PSK_ASSIGN_OR_RETURN(Value v, hierarchy.Generalize(ground, level));
      std::string field = v.ToString();
      os << (NeedsQuoting(field, separator) ? QuoteField(field) : field);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace psk
