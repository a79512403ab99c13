#include "psk/table/group_by.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "psk/datagen/adult.h"
#include "psk/datagen/paper_tables.h"
#include "test_util.h"

namespace psk {
namespace {

Table PatientMM() { return UnwrapOk(PatientTable1()); }

TEST(FrequencySetTest, GroupsPatientTable) {
  Table table = PatientMM();
  FrequencySet fs =
      UnwrapOk(FrequencySet::Compute(table, table.schema().KeyIndices()));
  // Table 1 has groups (50,43102,M) x2, (30,43102,F) x2, (20,43102,M) x2.
  EXPECT_EQ(fs.num_groups(), 3u);
  EXPECT_EQ(fs.num_rows(), 6u);
  EXPECT_EQ(fs.MinGroupSize(), 2u);
  for (const Group& group : fs.groups()) {
    EXPECT_EQ(group.size(), 2u);
  }
}

TEST(FrequencySetTest, GroupKeysAreDistinct) {
  Table table = PatientMM();
  FrequencySet fs =
      UnwrapOk(FrequencySet::Compute(table, table.schema().KeyIndices()));
  for (size_t i = 0; i < fs.num_groups(); ++i) {
    for (size_t j = i + 1; j < fs.num_groups(); ++j) {
      EXPECT_NE(fs.groups()[i].key, fs.groups()[j].key);
    }
  }
}

TEST(FrequencySetTest, RowIndicesPartitionTable) {
  Table table = PatientMM();
  FrequencySet fs =
      UnwrapOk(FrequencySet::Compute(table, table.schema().KeyIndices()));
  std::vector<bool> seen(table.num_rows(), false);
  for (const Group& group : fs.groups()) {
    for (size_t row : group.row_indices) {
      EXPECT_FALSE(seen[row]);
      seen[row] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(FrequencySetTest, SingleColumnGrouping) {
  Table table = PatientMM();
  size_t sex = UnwrapOk(table.schema().IndexOf("Sex"));
  FrequencySet fs = UnwrapOk(FrequencySet::Compute(table, {sex}));
  EXPECT_EQ(fs.num_groups(), 2u);
  EXPECT_EQ(fs.SizesDescending(), (std::vector<size_t>{4, 2}));
}

TEST(FrequencySetTest, EmptyColumnListIsOneGroup) {
  Table table = PatientMM();
  FrequencySet fs = UnwrapOk(FrequencySet::Compute(table, {}));
  EXPECT_EQ(fs.num_groups(), 1u);
  EXPECT_EQ(fs.groups()[0].size(), table.num_rows());
}

TEST(FrequencySetTest, EmptyTable) {
  Table table(UnwrapOk(
      Schema::Create({{"A", ValueType::kInt64, AttributeRole::kKey}})));
  FrequencySet fs = UnwrapOk(FrequencySet::Compute(table, {0}));
  EXPECT_EQ(fs.num_groups(), 0u);
  EXPECT_EQ(fs.MinGroupSize(), 0u);
  EXPECT_EQ(fs.RowsInGroupsSmallerThan(2), 0u);
}

TEST(FrequencySetTest, OutOfRangeColumn) {
  Table table = PatientMM();
  EXPECT_FALSE(FrequencySet::Compute(table, {99}).ok());
}

TEST(FrequencySetTest, RowsInGroupsSmallerThan) {
  Table table = UnwrapOk(Figure3Table());
  FrequencySet fs =
      UnwrapOk(FrequencySet::Compute(table, table.schema().KeyIndices()));
  // Fig. 3 bottom node: all ten tuples violate 3-anonymity.
  EXPECT_EQ(fs.RowsInGroupsSmallerThan(3), 10u);
  // Every tuple trivially satisfies 1-anonymity.
  EXPECT_EQ(fs.RowsInGroupsSmallerThan(1), 0u);
}

TEST(FrequencySetTest, GroupOrderIsFirstOccurrence) {
  Table table = PatientMM();
  FrequencySet fs =
      UnwrapOk(FrequencySet::Compute(table, table.schema().KeyIndices()));
  // First group must be the key of row 0: (50, 43102, M).
  EXPECT_EQ(fs.groups()[0].key[0].AsInt64(), 50);
}

TEST(DescendingValueFrequenciesTest, PatientIllness) {
  Table table = PatientMM();
  size_t illness = UnwrapOk(table.schema().IndexOf("Illness"));
  // Diabetes x2, four singletons.
  EXPECT_EQ(DescendingValueFrequencies(table, illness),
            (std::vector<size_t>{2, 1, 1, 1, 1}));
}

TEST(CompositeKeyHashTest, BreaksMultiplicativeCollisionFamily) {
  // The previous fold was h = h * 1000003 + v, which is linear: any two
  // 2-element keys {a, b} and {a + 1, b - 1000003} collided by
  // construction. The boost-style combiner must separate that family.
  constexpr size_t kOldMultiplier = 1000003;
  auto old_fold = [](size_t a, size_t b) {
    size_t h = 0x345678;
    h = h * kOldMultiplier + a;
    h = h * kOldMultiplier + b;
    return h;
  };
  auto new_fold = [](size_t a, size_t b) {
    return CompositeKeyHash::Mix(CompositeKeyHash::Mix(0x345678, a), b);
  };
  size_t separated = 0;
  for (size_t a = 1; a <= 64; ++a) {
    for (size_t b = kOldMultiplier; b < kOldMultiplier + 64;
         b += 7) {
      ASSERT_EQ(old_fold(a, b), old_fold(a + 1, b - kOldMultiplier));
      if (new_fold(a, b) != new_fold(a + 1, b - kOldMultiplier)) {
        ++separated;
      }
    }
  }
  // Every engineered collision pair hashes apart under the new combiner.
  EXPECT_EQ(separated, 64u * 10u);
}

TEST(CompositeKeyHashTest, NoCollisionsOnAdultQiKeys) {
  // Clustered QI data is where the old multiplicative fold degraded; with
  // a 64-bit avalanche-style combiner the distinct composite hashes must
  // match the distinct keys exactly on this fixed dataset.
  Table table = UnwrapOk(AdultGenerate(4000, /*seed=*/1));
  std::vector<size_t> keys = table.schema().KeyIndices();
  CompositeKeyHash hasher;
  std::set<std::vector<Value>> distinct_keys;
  std::set<size_t> distinct_hashes;
  std::vector<Value> key;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    key.clear();
    for (size_t col : keys) key.push_back(table.Get(row, col));
    distinct_hashes.insert(hasher(key));
    distinct_keys.insert(key);
  }
  EXPECT_EQ(distinct_hashes.size(), distinct_keys.size());
}

TEST(DescendingValueFrequenciesTest, Example1MatchesTable5) {
  Table table = UnwrapOk(Example1Table());
  size_t s1 = UnwrapOk(table.schema().IndexOf("S1"));
  size_t s2 = UnwrapOk(table.schema().IndexOf("S2"));
  size_t s3 = UnwrapOk(table.schema().IndexOf("S3"));
  EXPECT_EQ(DescendingValueFrequencies(table, s1),
            (std::vector<size_t>{300, 300, 200, 100, 100}));
  EXPECT_EQ(DescendingValueFrequencies(table, s2),
            (std::vector<size_t>{500, 300, 100, 40, 35, 25}));
  EXPECT_EQ(DescendingValueFrequencies(table, s3),
            (std::vector<size_t>{700, 200, 50, 10, 10, 10, 10, 5, 3, 2}));
}

// --- GroupByCodes against a naive oracle --------------------------------
//
// The oracle groups rows by their translated code tuple in a std::map and
// numbers groups by first occurrence in row order; it shares nothing with
// the blocked kernel. Layouts sit on every blocking boundary: constant
// columns between splitting ones, key spaces of exactly 2^20 and 2^20 + 1,
// a product past 2^32, and columns past the dense limit.

struct OracleColumn {
  std::vector<uint32_t> codes;
  std::vector<uint32_t> map;  // empty: codes are the keys themselves
  uint32_t cardinality = 0;
};

// Random codes of `cardinality`, or random ground codes through a
// translation map into [0, cardinality) that is onto whenever the ground
// space is large enough. The last row always carries the top translated
// code, so the largest key of a layout is reached.
OracleColumn MakeOracleColumn(size_t rows, uint32_t cardinality, bool mapped,
                              std::mt19937_64* rng) {
  OracleColumn column;
  column.cardinality = cardinality;
  if (!mapped) {
    column.codes.resize(rows);
    for (uint32_t& code : column.codes) code = (*rng)() % cardinality;
    if (rows > 0) column.codes.back() = cardinality - 1;
    return column;
  }
  const uint32_t ground =
      static_cast<uint32_t>(std::min<uint64_t>(2ull * cardinality, 4096));
  const uint32_t top_ground = std::min(cardinality, ground) - 1;
  column.map.resize(ground);
  for (uint32_t g = 0; g < ground; ++g) {
    column.map[g] = g < cardinality ? g : (*rng)() % cardinality;
  }
  column.map[top_ground] = cardinality - 1;
  column.codes.resize(rows);
  for (uint32_t& code : column.codes) code = (*rng)() % ground;
  if (rows > 0) column.codes.back() = top_ground;
  return column;
}

std::vector<CodeColumnView> OracleViews(
    const std::vector<OracleColumn>& columns) {
  std::vector<CodeColumnView> views;
  for (const OracleColumn& c : columns) {
    views.push_back(CodeColumnView{
        c.codes.data(), c.map.empty() ? nullptr : c.map.data(),
        c.cardinality});
  }
  return views;
}

EncodedGroups NaiveGroupBy(const std::vector<OracleColumn>& columns,
                           size_t rows) {
  std::map<std::vector<uint32_t>, uint32_t> first_seen;
  EncodedGroups out;
  for (size_t row = 0; row < rows; ++row) {
    std::vector<uint32_t> key;
    for (const OracleColumn& c : columns) {
      uint32_t code = c.codes[row];
      key.push_back(c.map.empty() ? code : c.map[code]);
    }
    auto [it, inserted] = first_seen.emplace(
        key, static_cast<uint32_t>(first_seen.size()));
    if (inserted) out.group_sizes.push_back(0);
    out.row_gid.push_back(it->second);
    ++out.group_sizes[it->second];
  }
  return out;
}

TEST(GroupByCodesOracleTest, MatchesNaiveGroupingOnBoundaryLayouts) {
  struct Layout {
    const char* name;
    std::vector<uint32_t> cardinalities;
    size_t rows;
  };
  const std::vector<Layout> layouts = {
      {"constant column between others", {7, 1, 5}, 3000},
      {"only constant columns", {1, 1}, 500},
      {"key space exactly 2^20", {16, 65536}, 4000},
      {"one column of exactly 2^20", {1u << 20}, 4000},
      {"key space 2^20 + 1 after a block", {17, 61681}, 4000},
      {"one column of 2^20 + 1", {(1u << 20) + 1}, 4000},
      {"product past 2^32: several blocks", {100, 100, 100, 100, 100}, 3000},
      {"column past the limit between others", {5, 1u << 21, 1, 3}, 3000},
      {"two columns past the limit", {(1u << 20) + 7919, 1u << 22}, 2000},
      {"zero columns", {}, 100},
      {"zero columns, one row", {}, 1},
      {"zero columns, no rows", {}, 0},
      {"one row", {7, 1, 5}, 1},
      {"no rows", {7, 1, 5}, 0},
  };
  // One scratch across every layout and mode as well as a fresh one per
  // run: reuse must not leak generations or table contents between calls.
  GroupByScratch shared;
  uint64_t seed = 1;
  for (const Layout& layout : layouts) {
    for (bool mapped : {false, true}) {
      std::mt19937_64 rng(seed++);
      std::vector<OracleColumn> columns;
      for (uint32_t cardinality : layout.cardinalities) {
        columns.push_back(
            MakeOracleColumn(layout.rows, cardinality, mapped, &rng));
      }
      const EncodedGroups expected = NaiveGroupBy(columns, layout.rows);
      const std::vector<CodeColumnView> views = OracleViews(columns);
      GroupByScratch fresh;
      EncodedGroups actual;
      GroupByCodes(views, layout.rows, &fresh, &actual);
      EXPECT_EQ(actual.row_gid, expected.row_gid)
          << layout.name << " mapped=" << mapped;
      EXPECT_EQ(actual.group_sizes, expected.group_sizes)
          << layout.name << " mapped=" << mapped;
      EncodedGroups reused;
      GroupByCodes(views, layout.rows, &shared, &reused);
      EXPECT_EQ(reused.row_gid, expected.row_gid)
          << layout.name << " mapped=" << mapped << " (shared scratch)";
      EXPECT_EQ(reused.group_sizes, expected.group_sizes)
          << layout.name << " mapped=" << mapped << " (shared scratch)";
    }
  }
}

TEST(GroupByCodesOracleTest, MatchesNaiveGroupingOnRandomLayouts) {
  // Random column counts and cardinalities spanning both sides of the
  // dense limit, each checked with and without translation maps.
  std::mt19937_64 rng(2024);
  const std::vector<uint32_t> cardinalities = {
      1, 2, 3, 16, 97, 1000, 4096, 65536, (1u << 20) + 1, 3000000};
  GroupByScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const size_t rows = rng() % 2000;
    const size_t num_columns = rng() % 7;
    const bool mapped = trial % 2 == 1;
    std::vector<OracleColumn> columns;
    for (size_t c = 0; c < num_columns; ++c) {
      columns.push_back(MakeOracleColumn(
          rows, cardinalities[rng() % cardinalities.size()], mapped, &rng));
    }
    const EncodedGroups expected = NaiveGroupBy(columns, rows);
    EncodedGroups actual;
    GroupByCodes(OracleViews(columns), rows, &scratch, &actual);
    ASSERT_EQ(actual.row_gid, expected.row_gid) << "trial " << trial;
    ASSERT_EQ(actual.group_sizes, expected.group_sizes) << "trial " << trial;
  }
}

// Column data generator: `cardinality` distinct codes, deterministic.
std::vector<uint32_t> RandomCodes(size_t num_rows, uint32_t cardinality,
                                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint32_t> codes(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    codes[i] = static_cast<uint32_t>(rng() % cardinality);
  }
  return codes;
}

TEST(GroupByScratchMemoryTest, SparseFallbackChargesOpenAddressingTable) {
  // Past the dense limit a column is refined through an open-addressing
  // table of at least 2 * rows slots, each a 64-bit key plus a 32-bit id.
  // ApproxBytes must charge at least those arrays — they are the
  // allocation that appears exactly when the key space leaves the dense
  // range.
  const size_t rows = 50000;
  const uint32_t cardinality = (1u << 20) + 1;
  std::vector<uint32_t> codes = RandomCodes(rows, cardinality, 3);
  std::vector<CodeColumnView> views = {
      CodeColumnView{codes.data(), nullptr, cardinality}};
  GroupByScratch scratch;
  EncodedGroups out;
  GroupByCodes(views, rows, &scratch, &out);
  EXPECT_GE(scratch.ApproxBytes(),
            2 * rows * (sizeof(uint64_t) + sizeof(uint32_t)));
}

}  // namespace
}  // namespace psk
