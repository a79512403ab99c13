#include "psk/hierarchy/hierarchy.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "psk/table/schema.h"
#include "psk/table/table.h"

namespace psk {

std::string AttributeHierarchy::LevelName(int level) const {
  std::string name = attribute_name().substr(0, 1);
  name += std::to_string(level);
  return name;
}

// ---------------------------------------------------------------------------
// TaxonomyHierarchy

TaxonomyHierarchy::Builder::Builder(std::string attribute_name,
                                    int num_levels)
    : attribute_name_(std::move(attribute_name)), num_levels_(num_levels) {}

TaxonomyHierarchy::Builder& TaxonomyHierarchy::Builder::AddValue(
    std::string value, std::vector<std::string> ancestors) {
  entries_.emplace_back(std::move(value), std::move(ancestors));
  return *this;
}

Result<std::shared_ptr<TaxonomyHierarchy>>
TaxonomyHierarchy::Builder::Build() {
  if (num_levels_ < 1) {
    return Status::InvalidArgument("taxonomy must have at least one level");
  }
  if (entries_.empty()) {
    return Status::InvalidArgument("taxonomy has no ground values");
  }
  std::unordered_map<std::string, bool> seen;
  // parent_of[(level, value)] — for detecting chains that disagree about a
  // value's generalization.
  std::map<std::pair<int, std::string>, std::string> parent_of;
  const std::string* root = nullptr;
  for (const auto& [value, ancestors] : entries_) {
    if (ancestors.size() != static_cast<size_t>(num_levels_ - 1)) {
      return Status::InvalidArgument(
          "ground value '" + value + "' has " +
          std::to_string(ancestors.size()) + " ancestors; expected " +
          std::to_string(num_levels_ - 1));
    }
    if (seen.count(value) > 0) {
      return Status::AlreadyExists("duplicate ground value: " + value);
    }
    seen[value] = true;

    // chain[l] = the value's generalization at level l.
    std::vector<const std::string*> chain;
    chain.reserve(ancestors.size() + 1);
    chain.push_back(&value);
    for (const std::string& ancestor : ancestors) chain.push_back(&ancestor);

    // Cycle check: a value may repeat only on *consecutive* levels (which
    // just means "unchanged at this level", e.g. White;White;*); coming
    // back after generalizing away means the chain loops.
    std::unordered_map<std::string, size_t> last_level;
    for (size_t l = 0; l < chain.size(); ++l) {
      auto it = last_level.find(*chain[l]);
      if (it != last_level.end() && it->second + 1 != l) {
        return Status::InvalidArgument(
            "cycle in the generalization chain of ground value '" + value +
            "': '" + *chain[l] + "' reappears at level " + std::to_string(l) +
            " after level " + std::to_string(it->second));
      }
      last_level[*chain[l]] = l;
    }

    // Consistency check: the same value at the same level must generalize
    // identically in every chain, or generalization is not a function.
    for (size_t l = 0; l + 1 < chain.size(); ++l) {
      auto [it, inserted] = parent_of.try_emplace(
          {static_cast<int>(l), *chain[l]}, *chain[l + 1]);
      if (!inserted && it->second != *chain[l + 1]) {
        return Status::InvalidArgument(
            "conflicting generalization: '" + *chain[l] + "' at level " +
            std::to_string(l) + " maps to both '" + it->second + "' and '" +
            *chain[l + 1] + "'");
      }
    }

    // Root check: every chain must converge on one top-level value, or the
    // hierarchy has no common root and full generalization cannot merge
    // all tuples.
    if (num_levels_ >= 2) {
      if (root == nullptr) {
        root = chain.back();
      } else if (*root != *chain.back()) {
        return Status::InvalidArgument(
            "taxonomy has no single root: top level holds both '" + *root +
            "' and '" + *chain.back() + "'");
      }
    }
  }
  auto hierarchy =
      std::shared_ptr<TaxonomyHierarchy>(new TaxonomyHierarchy());
  hierarchy->attribute_name_ = attribute_name_;
  hierarchy->num_levels_ = num_levels_;
  hierarchy->entries_ = std::move(entries_);
  return hierarchy;
}

Result<Value> TaxonomyHierarchy::Generalize(const Value& value,
                                            int level) const {
  if (level < 0 || level >= num_levels_) {
    return Status::OutOfRange("level out of range: " + std::to_string(level));
  }
  if (level == 0) return value;
  if (value.type() != ValueType::kString) {
    return Status::InvalidArgument(
        "taxonomy hierarchy '" + attribute_name_ +
        "' requires string values; got " +
        std::string(ValueTypeToString(value.type())));
  }
  for (const auto& [ground, ancestors] : entries_) {
    if (ground == value.AsString()) {
      return Value(ancestors[level - 1]);
    }
  }
  return Status::NotFound("value '" + value.AsString() +
                          "' not in the ground domain of '" +
                          attribute_name_ + "'");
}

std::vector<std::string> TaxonomyHierarchy::GroundValues() const {
  std::vector<std::string> values;
  values.reserve(entries_.size());
  for (const auto& [ground, ancestors] : entries_) values.push_back(ground);
  return values;
}

// ---------------------------------------------------------------------------
// IntervalHierarchy

Result<std::shared_ptr<IntervalHierarchy>> IntervalHierarchy::Create(
    std::string attribute_name, std::vector<Level> levels) {
  for (const Level& level : levels) {
    switch (level.kind) {
      case Level::Kind::kBands:
        if (level.band_width <= 0) {
          return Status::InvalidArgument("band width must be positive");
        }
        break;
      case Level::Kind::kCuts:
        if (level.cuts.empty()) {
          return Status::InvalidArgument("cut list must be non-empty");
        }
        if (!std::is_sorted(level.cuts.begin(), level.cuts.end()) ||
            std::adjacent_find(level.cuts.begin(), level.cuts.end()) !=
                level.cuts.end()) {
          return Status::InvalidArgument("cuts must be strictly ascending");
        }
        break;
      case Level::Kind::kTop:
        break;
    }
  }
  auto hierarchy =
      std::shared_ptr<IntervalHierarchy>(new IntervalHierarchy());
  hierarchy->attribute_name_ = std::move(attribute_name);
  hierarchy->levels_ = std::move(levels);
  return hierarchy;
}

Result<Value> IntervalHierarchy::Generalize(const Value& value,
                                            int level) const {
  if (level < 0 || level >= num_levels()) {
    return Status::OutOfRange("level out of range: " + std::to_string(level));
  }
  if (level == 0) return value;
  if (value.type() != ValueType::kInt64 &&
      value.type() != ValueType::kDouble) {
    return Status::InvalidArgument(
        "interval hierarchy '" + attribute_name_ +
        "' requires numeric values; got " +
        std::string(ValueTypeToString(value.type())));
  }
  const Level& spec = levels_[level - 1];
  switch (spec.kind) {
    case Level::Kind::kBands: {
      // Floor-divide so negative values band correctly.
      int64_t v = static_cast<int64_t>(value.AsNumeric());
      int64_t band = v >= 0 ? v / spec.band_width
                            : (v - spec.band_width + 1) / spec.band_width;
      int64_t lo = band * spec.band_width;
      int64_t hi = lo + spec.band_width - 1;
      return Value("[" + std::to_string(lo) + "-" + std::to_string(hi) + "]");
    }
    case Level::Kind::kCuts: {
      double v = value.AsNumeric();
      if (v < static_cast<double>(spec.cuts.front())) {
        return Value("<" + std::to_string(spec.cuts.front()));
      }
      for (size_t i = 0; i + 1 < spec.cuts.size(); ++i) {
        if (v < static_cast<double>(spec.cuts[i + 1])) {
          return Value("[" + std::to_string(spec.cuts[i]) + "-" +
                       std::to_string(spec.cuts[i + 1]) + ")");
        }
      }
      return Value(">=" + std::to_string(spec.cuts.back()));
    }
    case Level::Kind::kTop:
      return Value("*");
  }
  return Status::Internal("unreachable interval level kind");
}

// ---------------------------------------------------------------------------
// PrefixHierarchy

Result<std::shared_ptr<PrefixHierarchy>> PrefixHierarchy::Create(
    std::string attribute_name, std::vector<int> masked_suffix) {
  if (masked_suffix.empty() || masked_suffix[0] != 0) {
    return Status::InvalidArgument(
        "masked_suffix must start with 0 (the ground domain)");
  }
  for (size_t i = 1; i < masked_suffix.size(); ++i) {
    if (masked_suffix[i] <= masked_suffix[i - 1]) {
      return Status::InvalidArgument(
          "masked_suffix must be strictly increasing");
    }
  }
  auto hierarchy = std::shared_ptr<PrefixHierarchy>(new PrefixHierarchy());
  hierarchy->attribute_name_ = std::move(attribute_name);
  hierarchy->masked_suffix_ = std::move(masked_suffix);
  return hierarchy;
}

Result<Value> PrefixHierarchy::Generalize(const Value& value,
                                          int level) const {
  if (level < 0 || level >= num_levels()) {
    return Status::OutOfRange("level out of range: " + std::to_string(level));
  }
  if (level == 0) return value;
  if (value.type() != ValueType::kString) {
    return Status::InvalidArgument(
        "prefix hierarchy '" + attribute_name_ +
        "' requires string values; got " +
        std::string(ValueTypeToString(value.type())));
  }
  const std::string& s = value.AsString();
  size_t masked = static_cast<size_t>(masked_suffix_[level]);
  if (masked >= s.size()) return Value("*");
  std::string out = s;
  for (size_t i = s.size() - masked; i < s.size(); ++i) out[i] = '*';
  return Value(std::move(out));
}

// ---------------------------------------------------------------------------
// SuppressionHierarchy

Result<Value> SuppressionHierarchy::Generalize(const Value& value,
                                               int level) const {
  if (level < 0 || level >= 2) {
    return Status::OutOfRange("level out of range: " + std::to_string(level));
  }
  if (level == 0) return value;
  return Value("*");
}

// ---------------------------------------------------------------------------
// Validation

Status ValidateHierarchyOverColumn(const Table& table, size_t col,
                                   const AttributeHierarchy& hierarchy) {
  if (col >= table.num_columns()) {
    return Status::OutOfRange("column index out of range: " +
                              std::to_string(col));
  }
  // Each distinct value once, in first-occurrence row order, found by its
  // code: equal cells of a column carry equal codes.
  const ColumnDictionary& dictionary = table.dictionary(col);
  std::vector<bool> seen(dictionary.size());
  for (uint32_t code : table.column_codes(col)) {
    if (seen[code]) continue;
    seen[code] = true;
    const Value& v = dictionary[code];
    for (int level = 0; level < hierarchy.num_levels(); ++level) {
      Result<Value> generalized = hierarchy.Generalize(v, level);
      if (!generalized.ok()) {
        return Status::FailedPrecondition(
            "hierarchy '" + hierarchy.attribute_name() +
            "' cannot generalize value '" + v.ToString() + "' at level " +
            std::to_string(level) + ": " +
            generalized.status().message());
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HierarchySet

Result<HierarchySet> HierarchySet::Create(
    const Schema& schema,
    std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies) {
  std::vector<size_t> key_indices = schema.KeyIndices();
  if (hierarchies.size() != key_indices.size()) {
    return Status::InvalidArgument(
        "schema has " + std::to_string(key_indices.size()) +
        " key attributes but " + std::to_string(hierarchies.size()) +
        " hierarchies were supplied");
  }
  for (size_t i = 0; i < hierarchies.size(); ++i) {
    if (hierarchies[i] == nullptr) {
      return Status::InvalidArgument("hierarchy " + std::to_string(i) +
                                     " is null");
    }
    const std::string& expected = schema.attribute(key_indices[i]).name;
    if (hierarchies[i]->attribute_name() != expected) {
      return Status::InvalidArgument(
          "hierarchy " + std::to_string(i) + " is for attribute '" +
          hierarchies[i]->attribute_name() + "' but key attribute " +
          std::to_string(i) + " is '" + expected + "'");
    }
    if (hierarchies[i]->num_levels() < 1) {
      return Status::InvalidArgument("hierarchy for '" + expected +
                                     "' has no levels");
    }
  }
  HierarchySet set;
  set.hierarchies_ = std::move(hierarchies);
  return set;
}

std::vector<int> HierarchySet::MaxLevels() const {
  std::vector<int> levels;
  levels.reserve(hierarchies_.size());
  for (const auto& hierarchy : hierarchies_) {
    levels.push_back(hierarchy->num_levels() - 1);
  }
  return levels;
}

}  // namespace psk
