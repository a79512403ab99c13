// Randomized property tests across the substrates: CSV round-trips,
// FrequencySet against a naive oracle, lattice enumeration counts, and
// hierarchy validation.

#include <gtest/gtest.h>

#include <map>

#include "psk/common/random.h"
#include "psk/datagen/paper_tables.h"
#include "psk/datagen/synthetic.h"
#include "psk/hierarchy/hierarchy.h"
#include "psk/lattice/lattice.h"
#include "psk/table/csv.h"
#include "psk/table/group_by.h"
#include "test_util.h"

namespace psk {
namespace {

// Random table with tricky string content (separators, quotes, newlines,
// unicode-ish bytes) to stress the CSV writer/parser pair.
Table RandomNastyTable(Rng& rng, size_t rows) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"S1", ValueType::kString, AttributeRole::kKey},
       {"N", ValueType::kInt64, AttributeRole::kKey},
       {"D", ValueType::kDouble, AttributeRole::kOther},
       {"S2", ValueType::kString, AttributeRole::kConfidential}}));
  const char* nasty_pieces[] = {"plain", "with,comma", "with\"quote",
                                "multi\nline", "semi;colon", "  spaced  ",
                                "\"quoted\"", "tab\there"};
  Table t(schema);
  for (size_t r = 0; r < rows; ++r) {
    std::string s1 = nasty_pieces[rng.Uniform(8)];
    std::string s2 = nasty_pieces[rng.Uniform(8)];
    s2 += std::to_string(rng.Uniform(4));
    Value n = rng.Bernoulli(0.1)
                  ? Value::Null()
                  : Value(rng.UniformInt(-1000000, 1000000));
    Value d = rng.Bernoulli(0.1)
                  ? Value::Null()
                  : Value(rng.UniformDouble() * 1e6 - 5e5);
    EXPECT_TRUE(
        t.AppendRow({Value(std::move(s1)), n, d, Value(std::move(s2))})
            .ok());
  }
  return t;
}

TEST(CsvFuzzTest, WriteReadRoundTripsNastyContent) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    Table original = RandomNastyTable(rng, 30);
    std::string csv = WriteCsvString(original);
    Table reread = UnwrapOk(ReadCsvString(csv, original.schema()));
    ASSERT_EQ(reread.num_rows(), original.num_rows()) << "trial " << trial;
    for (size_t r = 0; r < original.num_rows(); ++r) {
      for (size_t c = 0; c < original.num_columns(); ++c) {
        // Doubles round-trip through %.17g exactly; strings and ints
        // must be identical.
        EXPECT_EQ(reread.Get(r, c), original.Get(r, c))
            << "trial " << trial << " r=" << r << " c=" << c;
      }
    }
  }
}

TEST(FrequencySetFuzzTest, MatchesNaiveOracle) {
  Rng rng(99);
  for (int trial = 0; trial < 15; ++trial) {
    SyntheticSpec spec = MakeUniformSpec(200, 3, 5, 1, 3, 0.6);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 1000 + trial));
    std::vector<size_t> cols = {0, static_cast<size_t>(rng.Uniform(3))};
    FrequencySet fs = UnwrapOk(FrequencySet::Compute(data.table, cols));

    // Oracle: std::map over stringified keys.
    std::map<std::string, size_t> oracle;
    for (size_t r = 0; r < data.table.num_rows(); ++r) {
      std::string key;
      for (size_t c : cols) {
        key += data.table.Get(r, c).ToString();
        key += '\x1f';
      }
      ++oracle[key];
    }
    ASSERT_EQ(fs.num_groups(), oracle.size()) << "trial " << trial;
    size_t min_size = SIZE_MAX;
    for (const auto& [key, count] : oracle) {
      min_size = std::min(min_size, count);
    }
    EXPECT_EQ(fs.MinGroupSize(), min_size);
    // Violation counts agree for every k.
    for (size_t k = 1; k <= 5; ++k) {
      size_t expected = 0;
      for (const auto& [key, count] : oracle) {
        if (count < k) expected += count;
      }
      EXPECT_EQ(fs.RowsInGroupsSmallerThan(k), expected) << "k=" << k;
    }
  }
}

TEST(LatticeFuzzTest, HeightEnumerationCountsConsistent) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> max_levels;
    size_t attrs = 1 + rng.Uniform(4);
    for (size_t i = 0; i < attrs; ++i) {
      max_levels.push_back(static_cast<int>(rng.Uniform(4)));
    }
    GeneralizationLattice lattice(max_levels);
    uint64_t total = 0;
    for (int h = 0; h <= lattice.height(); ++h) {
      std::vector<LatticeNode> nodes = lattice.NodesAtHeight(h);
      total += nodes.size();
      for (const LatticeNode& node : nodes) {
        EXPECT_EQ(node.Height(), h);
        EXPECT_TRUE(lattice.Contains(node));
      }
      // Symmetry: #nodes at height h == #nodes at height(GL) - h
      // (complement each node against the top).
      EXPECT_EQ(nodes.size(),
                lattice.NodesAtHeight(lattice.height() - h).size())
          << "trial " << trial << " h=" << h;
    }
    EXPECT_EQ(total, lattice.NumNodes()) << "trial " << trial;
  }
}

TEST(HierarchyValidationTest, AcceptsCoveredColumn) {
  Table fig3 = UnwrapOk(Figure3Table());
  HierarchySet hierarchies = UnwrapOk(Figure3Hierarchies(fig3.schema()));
  PSK_EXPECT_OK(
      ValidateHierarchyOverColumn(fig3, 1, hierarchies.hierarchy(1)));
}

TEST(HierarchyValidationTest, RejectsUncoveredValueWithContext) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"M", ValueType::kString, AttributeRole::kKey}}));
  Table t(schema);
  PSK_ASSERT_OK(t.AppendRow({Value("known")}));
  PSK_ASSERT_OK(t.AppendRow({Value("rogue")}));
  TaxonomyHierarchy::Builder builder("M", 2);
  builder.AddValue("known", {"*"});
  auto hierarchy = UnwrapOk(builder.Build());
  Status status = ValidateHierarchyOverColumn(t, 0, *hierarchy);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("rogue"), std::string::npos);
}

TEST(HierarchyValidationTest, NamesTheFirstUncoveredValueInRowOrder) {
  Schema schema = UnwrapOk(Schema::Create(
      {{"M", ValueType::kString, AttributeRole::kKey}}));
  Table t(schema);
  PSK_ASSERT_OK(t.AppendRow({Value("known")}));
  // Uncovered values in descending order, each twice: the verdict must
  // name the one the rows reach first, not whichever a hash set yields.
  for (int round = 0; round < 2; ++round) {
    for (int i = 19; i >= 0; --i) {
      PSK_ASSERT_OK(t.AppendRow({Value("rogue_" + std::to_string(i))}));
    }
  }
  TaxonomyHierarchy::Builder builder("M", 2);
  builder.AddValue("known", {"*"});
  auto hierarchy = UnwrapOk(builder.Build());
  Status status = ValidateHierarchyOverColumn(t, 0, *hierarchy);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("'rogue_19'"), std::string::npos)
      << status.message();
}

TEST(HierarchyValidationTest, RejectsOutOfRangeColumn) {
  Table fig3 = UnwrapOk(Figure3Table());
  SuppressionHierarchy sex("Sex");
  EXPECT_FALSE(ValidateHierarchyOverColumn(fig3, 99, sex).ok());
}

TEST(ValueFuzzTest, OrderingIsStrictWeak) {
  // Transitivity + antisymmetry over a mixed pool of values.
  std::vector<Value> pool = {
      Value(),           Value(int64_t{-5}), Value(int64_t{0}),
      Value(int64_t{7}), Value(2.5),         Value(7.0),
      Value(""),         Value("a"),         Value("ab"),
  };
  for (const Value& a : pool) {
    EXPECT_FALSE(a < a);
    for (const Value& b : pool) {
      EXPECT_FALSE(a < b && b < a);
      if (a == b) {
        EXPECT_FALSE(a < b);
        EXPECT_EQ(a.Hash(), b.Hash());
      }
      for (const Value& c : pool) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);
        }
      }
    }
  }
}

}  // namespace
}  // namespace psk
