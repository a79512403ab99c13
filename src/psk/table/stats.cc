#include "psk/table/stats.h"

#include <algorithm>
#include <sstream>

#include "psk/table/group_by.h"

namespace psk {

Result<TableStats> ComputeTableStats(const Table& table, size_t top_k) {
  TableStats stats;
  stats.num_rows = table.num_rows();
  const Schema& schema = table.schema();
  for (size_t col = 0; col < schema.num_attributes(); ++col) {
    const Attribute& attr = schema.attribute(col);
    ColumnStats cs;
    cs.name = attr.name;
    cs.type = attr.type;
    cs.role = attr.role;

    // Frequencies are counted per code — O(rows) over uint32 into a flat
    // array, touching a Value (and its string payload) only once per
    // *distinct* value, in first-occurrence row order, for the numeric
    // accumulators and the top-k list.
    const ColumnDictionary& dictionary = table.dictionary(col);
    std::vector<size_t> counts(dictionary.size(), 0);
    std::vector<uint32_t> distinct;  // codes in first-occurrence order
    for (uint32_t code : table.column_codes(col)) {
      if (counts[code]++ == 0) distinct.push_back(code);
    }
    double sum = 0.0;
    std::vector<std::pair<Value, size_t>> ranked;
    for (uint32_t code : distinct) {
      const Value& v = dictionary[code];
      const size_t count = counts[code];
      if (v.is_null()) {
        cs.nulls += count;
        continue;
      }
      cs.non_null += count;
      ranked.emplace_back(v, count);
      if (v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble) {
        double x = v.AsNumeric();
        sum += x * static_cast<double>(count);
        if (!cs.min.has_value() || x < *cs.min) cs.min = x;
        if (!cs.max.has_value() || x > *cs.max) cs.max = x;
      }
    }
    cs.distinct = ranked.size();
    if (cs.min.has_value() && cs.non_null > 0) {
      cs.mean = sum / static_cast<double>(cs.non_null);
    }

    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (ranked.size() > top_k) ranked.resize(top_k);
    cs.top_values = std::move(ranked);
    stats.columns.push_back(std::move(cs));
  }
  return stats;
}

std::string TableStats::ToDisplayString() const {
  std::ostringstream os;
  os << num_rows << " rows\n";
  for (const ColumnStats& cs : columns) {
    os << "  " << cs.name << " (" << ValueTypeToString(cs.type) << ", "
       << AttributeRoleToString(cs.role) << "): distinct " << cs.distinct;
    if (cs.nulls > 0) os << ", nulls " << cs.nulls;
    if (cs.min.has_value()) {
      os << ", min " << *cs.min << ", max " << *cs.max << ", mean "
         << *cs.mean;
    }
    if (!cs.top_values.empty()) {
      os << ", top: ";
      for (size_t i = 0; i < cs.top_values.size(); ++i) {
        if (i > 0) os << ", ";
        os << cs.top_values[i].first.ToString() << " x"
           << cs.top_values[i].second;
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace psk
