#ifndef PSK_HIERARCHY_HIERARCHY_H_
#define PSK_HIERARCHY_HIERARCHY_H_

#include <memory>
#include <string>
#include <vector>

#include "psk/common/result.h"
#include "psk/table/value.h"

namespace psk {

/// A domain generalization hierarchy (DGH) for one key attribute — a
/// totally ordered chain of domains D_0 < D_1 < ... < D_{L-1} where D_0 is
/// the attribute's ground domain and each higher domain groups values of
/// the one below (Truta & Vinay §3, Fig. 1; Samarati 2001).
///
/// Level 0 always maps a value to itself; level num_levels()-1 is the most
/// generalized domain (often the single group "*"). Generalize() realizes
/// the value generalization hierarchy (VGH): it maps a ground value to its
/// ancestor in the requested domain.
class AttributeHierarchy {
 public:
  virtual ~AttributeHierarchy() = default;

  /// Name of the attribute this hierarchy generalizes (must match the
  /// schema attribute name).
  virtual const std::string& attribute_name() const = 0;

  /// Number of domains in the chain, including the ground domain. Always
  /// >= 1; a hierarchy with 1 level admits no generalization.
  virtual int num_levels() const = 0;

  /// Ancestor of ground value `value` in domain `level`. Level 0 returns
  /// the value unchanged. Generalized values are strings (the generalized
  /// domains are categorical). Fails if `level` is out of range or `value`
  /// does not belong to the ground domain.
  virtual Result<Value> Generalize(const Value& value, int level) const = 0;

  /// Short label for a domain, e.g. "Z0", "Z1" (used in lattice node
  /// rendering).
  virtual std::string LevelName(int level) const;
};

/// Categorical hierarchy defined by an explicit taxonomy: every ground
/// value lists its ancestor at each level. All values must have the same
/// depth (the chain is a total order on domains).
///
///   TaxonomyHierarchy::Builder b("MaritalStatus", /*num_levels=*/3);
///   b.AddValue("Divorced", {"Single", "*"});
///   ...
///   PSK_ASSIGN_OR_RETURN(auto h, b.Build());
class TaxonomyHierarchy : public AttributeHierarchy {
 public:
  class Builder {
   public:
    /// `num_levels` counts the ground domain, so ancestors lists passed to
    /// AddValue must have num_levels - 1 entries.
    Builder(std::string attribute_name, int num_levels);

    /// Registers a ground value with its ancestors from level 1 upward.
    Builder& AddValue(std::string value, std::vector<std::string> ancestors);

    /// Validates and builds. Fails on duplicate ground values or ancestor
    /// lists of the wrong length.
    Result<std::shared_ptr<TaxonomyHierarchy>> Build();

   private:
    std::string attribute_name_;
    int num_levels_;
    std::vector<std::pair<std::string, std::vector<std::string>>> entries_;
  };

  const std::string& attribute_name() const override {
    return attribute_name_;
  }
  int num_levels() const override { return num_levels_; }
  Result<Value> Generalize(const Value& value, int level) const override;

  /// Ground values registered in this taxonomy, in insertion order.
  std::vector<std::string> GroundValues() const;

 private:
  friend class Builder;
  TaxonomyHierarchy() = default;

  std::string attribute_name_;
  int num_levels_ = 0;
  // ground value -> ancestors[level-1]
  std::vector<std::pair<std::string, std::vector<std::string>>> entries_;
};

/// Numeric hierarchy whose generalized domains are ranges. Each level above
/// the ground domain is either a partition into uniform bands (e.g. 10-year
/// age ranges), a partition by explicit cut points (e.g. <50 / >=50), or
/// the single top group "*".
class IntervalHierarchy : public AttributeHierarchy {
 public:
  /// One generalized domain.
  struct Level {
    enum class Kind { kBands, kCuts, kTop };
    Kind kind = Kind::kTop;
    /// kBands: band width; bands are [i*width, (i+1)*width) labeled
    /// "[lo-hi]" with hi = lo + width - 1 (integer display).
    int64_t band_width = 0;
    /// kCuts: ascending cut points c_1 < ... < c_m produce intervals
    /// (-inf, c_1), [c_1, c_2), ..., [c_m, +inf) labeled "<c_1",
    /// "[c_1-c_2)", ">=c_m".
    std::vector<int64_t> cuts;

    static Level Bands(int64_t width) {
      Level level;
      level.kind = Kind::kBands;
      level.band_width = width;
      return level;
    }
    static Level Cuts(std::vector<int64_t> cuts) {
      Level level;
      level.kind = Kind::kCuts;
      level.cuts = std::move(cuts);
      return level;
    }
    static Level Top() { return Level(); }
  };

  /// Builds a hierarchy whose level 0 is the ground numeric domain and
  /// whose levels 1..n are `levels` in order. Fails on empty/unsorted cut
  /// lists or non-positive band widths.
  static Result<std::shared_ptr<IntervalHierarchy>> Create(
      std::string attribute_name, std::vector<Level> levels);

  const std::string& attribute_name() const override {
    return attribute_name_;
  }
  int num_levels() const override {
    return static_cast<int>(levels_.size()) + 1;
  }
  Result<Value> Generalize(const Value& value, int level) const override;

 private:
  IntervalHierarchy() = default;

  std::string attribute_name_;
  std::vector<Level> levels_;
};

/// String hierarchy that masks trailing characters, modeling the ZipCode
/// prefix generalization of Fig. 1. Level i masks masked_suffix[i] trailing
/// characters with '*'; a value fully masked renders as the single group
/// "*". masked_suffix[0] must be 0 and the list must be strictly
/// increasing.
///
///   PrefixHierarchy::Create("ZipCode", {0, 2, 5})   // 41076, 410**, *
class PrefixHierarchy : public AttributeHierarchy {
 public:
  static Result<std::shared_ptr<PrefixHierarchy>> Create(
      std::string attribute_name, std::vector<int> masked_suffix);

  const std::string& attribute_name() const override {
    return attribute_name_;
  }
  int num_levels() const override {
    return static_cast<int>(masked_suffix_.size());
  }
  Result<Value> Generalize(const Value& value, int level) const override;

 private:
  PrefixHierarchy() = default;

  std::string attribute_name_;
  std::vector<int> masked_suffix_;
};

/// Two-level hierarchy: the ground domain and the single group "*"
/// (the paper's Sex hierarchy — Table 7 "One group"). Works for any value
/// type.
class SuppressionHierarchy : public AttributeHierarchy {
 public:
  explicit SuppressionHierarchy(std::string attribute_name)
      : attribute_name_(std::move(attribute_name)) {}

  const std::string& attribute_name() const override {
    return attribute_name_;
  }
  int num_levels() const override { return 2; }
  Result<Value> Generalize(const Value& value, int level) const override;

 private:
  std::string attribute_name_;
};

/// Validates that every value of column `col` of `table` generalizes
/// cleanly at every level of `hierarchy` (i.e. the table's observed domain
/// is covered by the hierarchy's ground domain). Each distinct value is
/// generalized once, in first-occurrence row order; returns the first
/// failure, naming the offending value and level — run this preflight
/// before a long lattice search to fail fast on configuration errors.
Status ValidateHierarchyOverColumn(const class Table& table, size_t col,
                                   const AttributeHierarchy& hierarchy);

/// The hierarchies for all key attributes of a schema, in key-attribute
/// order. This is the data-owner configuration consumed by the
/// generalization engine and the lattice.
class HierarchySet {
 public:
  HierarchySet() = default;

  /// Builds the set, validating that `hierarchies` matches the schema's key
  /// attributes one-to-one, in schema order, by name.
  static Result<HierarchySet> Create(
      const class Schema& schema,
      std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies);

  size_t size() const { return hierarchies_.size(); }
  const AttributeHierarchy& hierarchy(size_t i) const {
    return *hierarchies_[i];
  }
  /// Shared ownership of one hierarchy (e.g. to re-register it with an
  /// Anonymizer).
  std::shared_ptr<const AttributeHierarchy> hierarchy_ptr(size_t i) const {
    return hierarchies_[i];
  }

  /// Maximum level per attribute (num_levels - 1), the lattice's top node.
  std::vector<int> MaxLevels() const;

 private:
  std::vector<std::shared_ptr<const AttributeHierarchy>> hierarchies_;
};

}  // namespace psk

#endif  // PSK_HIERARCHY_HIERARCHY_H_
