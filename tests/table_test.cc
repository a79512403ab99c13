#include "psk/table/table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "psk/api/anonymizer.h"
#include "psk/datagen/adult.h"
#include "psk/jobs/job.h"
#include "psk/perturb/perturb.h"
#include "test_util.h"

namespace psk {
namespace {

Schema SmallSchema() {
  return UnwrapOk(Schema::Create(
      {{"Id", ValueType::kString, AttributeRole::kIdentifier},
       {"Age", ValueType::kInt64, AttributeRole::kKey},
       {"City", ValueType::kString, AttributeRole::kKey},
       {"Salary", ValueType::kInt64, AttributeRole::kConfidential}}));
}

Table SmallTable() {
  Table table(SmallSchema());
  EXPECT_TRUE(
      table.AppendRow({Value("a"), Value(int64_t{30}), Value("NYC"),
                       Value(int64_t{100})}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("b"), Value(int64_t{40}), Value("LA"),
                       Value(int64_t{200})}).ok());
  EXPECT_TRUE(
      table.AppendRow({Value("c"), Value(int64_t{30}), Value("NYC"),
                       Value(int64_t{300})}).ok());
  return table;
}

TEST(TableTest, EmptyTable) {
  Table table(SmallSchema());
  EXPECT_EQ(table.num_rows(), 0u);
  EXPECT_EQ(table.num_columns(), 4u);
}

TEST(TableTest, AppendAndGet) {
  Table table = SmallTable();
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_EQ(table.Get(0, 1).AsInt64(), 30);
  EXPECT_EQ(table.Get(1, 2).AsString(), "LA");
  EXPECT_EQ(table.Get(2, 3).AsInt64(), 300);
}

TEST(TableTest, AppendWrongArityRejected) {
  Table table(SmallSchema());
  auto status = table.AppendRow({Value("a")});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, AppendWrongTypeRejected) {
  Table table(SmallSchema());
  auto status = table.AppendRow(
      {Value("a"), Value("not-an-int"), Value("NYC"), Value(int64_t{1})});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(TableTest, NullAllowedForAnyType) {
  Table table(SmallSchema());
  PSK_ASSERT_OK(table.AppendRow(
      {Value("a"), Value::Null(), Value("NYC"), Value(int64_t{1})}));
  EXPECT_TRUE(table.Get(0, 1).is_null());
}

TEST(TableTest, SetCell) {
  Table table = SmallTable();
  table.Set(0, 3, Value(int64_t{999}));
  EXPECT_EQ(table.Get(0, 3).AsInt64(), 999);
}

TEST(TableTest, RowAndRowKey) {
  Table table = SmallTable();
  std::vector<Value> row = table.Row(1);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].AsString(), "b");
  std::vector<Value> key = table.RowKey(1, {2, 1});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsString(), "LA");
  EXPECT_EQ(key[1].AsInt64(), 40);
}

TEST(TableTest, FilterRows) {
  Table table = SmallTable();
  Table filtered = UnwrapOk(table.FilterRows({2, 0}));
  ASSERT_EQ(filtered.num_rows(), 2u);
  EXPECT_EQ(filtered.Get(0, 0).AsString(), "c");
  EXPECT_EQ(filtered.Get(1, 0).AsString(), "a");
}

TEST(TableTest, FilterRowsOutOfRange) {
  Table table = SmallTable();
  EXPECT_FALSE(table.FilterRows({5}).ok());
}

TEST(TableTest, FilterByMask) {
  Table table = SmallTable();
  Table filtered = UnwrapOk(table.FilterByMask({true, false, true}));
  ASSERT_EQ(filtered.num_rows(), 2u);
  EXPECT_EQ(filtered.Get(0, 0).AsString(), "a");
  EXPECT_EQ(filtered.Get(1, 0).AsString(), "c");
}

TEST(TableTest, FilterByMaskWrongLength) {
  Table table = SmallTable();
  EXPECT_FALSE(table.FilterByMask({true}).ok());
}

TEST(TableTest, ProjectColumns) {
  Table table = SmallTable();
  Table projected = UnwrapOk(table.ProjectColumns({3, 1}));
  ASSERT_EQ(projected.num_columns(), 2u);
  EXPECT_EQ(projected.schema().attribute(0).name, "Salary");
  EXPECT_EQ(projected.Get(2, 0).AsInt64(), 300);
  EXPECT_EQ(projected.num_rows(), 3u);
}

TEST(TableTest, DropIdentifiers) {
  Table table = SmallTable();
  Table dropped = UnwrapOk(table.DropIdentifiers());
  EXPECT_EQ(dropped.num_columns(), 3u);
  EXPECT_FALSE(dropped.schema().Contains("Id"));
  EXPECT_EQ(dropped.num_rows(), 3u);
  // Roles of surviving attributes preserved.
  EXPECT_EQ(dropped.schema().KeyIndices(), (std::vector<size_t>{0, 1}));
}

TEST(TableTest, DistinctCount) {
  Table table = SmallTable();
  EXPECT_EQ(table.DistinctCount(1), 2u);  // 30, 40
  EXPECT_EQ(table.DistinctCount(2), 2u);  // NYC, LA
  EXPECT_EQ(table.DistinctCount(3), 3u);
}

TEST(TableTest, ColumnView) {
  Table table = SmallTable();
  Table::ColumnView ages = table.column(1);
  ASSERT_EQ(ages.size(), 3u);
  EXPECT_EQ(ages[0].AsInt64(), 30);
  // Range-for looks each code up in the column's dictionary.
  size_t count = 0;
  for (const Value& v : ages) {
    EXPECT_FALSE(v.is_null());
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(TableTest, DerivedTablesShareDictionaries) {
  Table table = SmallTable();
  Table filtered = UnwrapOk(table.FilterRows({2, 0}));
  Table projected = UnwrapOk(table.ProjectColumns({2}));
  EXPECT_EQ(&filtered.dictionary(2), &table.dictionary(2));
  EXPECT_EQ(&projected.dictionary(0), &table.dictionary(2));
  EXPECT_EQ(filtered.column_codes(2),
            (std::vector<uint32_t>{table.column_codes(2)[2],
                                   table.column_codes(2)[0]}));
}

TEST(TableTest, SetClonesASharedDictionary) {
  Table table = SmallTable();
  Table copy = table;
  copy.Set(1, 2, Value("SF"));
  EXPECT_EQ(copy.Get(1, 2).AsString(), "SF");
  EXPECT_EQ(table.Get(1, 2).AsString(), "LA");
  EXPECT_EQ(table.dictionary(2).size(), 2u);  // NYC, LA
  EXPECT_EQ(copy.dictionary(2).size(), 3u);   // NYC, LA, SF
  EXPECT_NE(&copy.dictionary(2), &table.dictionary(2));
  // Untouched columns stay shared.
  EXPECT_EQ(&copy.dictionary(1), &table.dictionary(1));
}

TEST(TableTest, DistinctCountCountsCodesInUse) {
  Table table = SmallTable();
  // LA's only row becomes NYC: the dictionary keeps LA, no row uses it.
  table.Set(1, 2, Value("NYC"));
  EXPECT_EQ(table.dictionary(2).size(), 2u);
  EXPECT_EQ(table.DistinctCount(2), 1u);
  Table filtered = UnwrapOk(table.FilterRows({0}));
  EXPECT_EQ(filtered.DistinctCount(3), 1u);
  EXPECT_EQ(filtered.dictionary(3).size(), 3u);
}

// ---------------------------------------------------------------------------
// ColumnDictionary: one code per distinct Value under typed equality.

TEST(ColumnDictionaryTest, InternDeduplicatesAndRoundTrips) {
  ColumnDictionary dictionary;
  uint32_t a1 = dictionary.Intern(Value("alpha"));
  uint32_t b = dictionary.Intern(Value("beta"));
  uint32_t a2 = dictionary.Intern(Value("alpha"));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(dictionary[a1].AsString(), "alpha");
  EXPECT_EQ(dictionary[b].AsString(), "beta");
  EXPECT_EQ(dictionary.size(), 2u);
}

TEST(ColumnDictionaryTest, NullIsOneEntry) {
  ColumnDictionary dictionary;
  uint32_t null = dictionary.Intern(Value());
  EXPECT_TRUE(dictionary[null].is_null());
  EXPECT_EQ(dictionary.Intern(Value::Null()), null);
  EXPECT_NE(dictionary.Intern(Value("")), null);
  EXPECT_NE(dictionary.Intern(Value(int64_t{0})), null);
  EXPECT_EQ(dictionary.size(), 3u);
}

TEST(ColumnDictionaryTest, NumericallyEqualValuesOfDifferentTypesStayDistinct) {
  // Value::operator== calls int64(5) == double(5.0), but a dictionary
  // keeps them apart: a cell reads back with exactly the dynamic type it
  // was written with.
  ColumnDictionary dictionary;
  uint32_t i = dictionary.Intern(Value(int64_t{5}));
  uint32_t d = dictionary.Intern(Value(5.0));
  EXPECT_NE(i, d);
  EXPECT_EQ(dictionary[i].type(), ValueType::kInt64);
  EXPECT_EQ(dictionary[d].type(), ValueType::kDouble);
  // Within a type, dedup works as usual.
  EXPECT_EQ(dictionary.Intern(Value(int64_t{5})), i);
  EXPECT_EQ(dictionary.Intern(Value(5.0)), d);
  // Signed double zeros merge (they compare equal and print the same).
  EXPECT_EQ(dictionary.Intern(Value(0.0)), dictionary.Intern(Value(-0.0)));
}

TEST(ColumnDictionaryTest, NaNNeverMatches) {
  ColumnDictionary dictionary;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint32_t first = dictionary.Intern(Value(nan));
  uint32_t second = dictionary.Intern(Value(nan));
  EXPECT_NE(first, second);
  EXPECT_EQ(dictionary.size(), 2u);
}

TEST(ColumnDictionaryTest, LongStringsDeduplicate) {
  // Long strings hash over their whole payload: values that differ only
  // in the last byte stay apart, equal ones share a code.
  ColumnDictionary dictionary;
  std::string long_a(100, 'a');
  std::string long_b = long_a;
  long_b.back() = 'b';
  uint32_t a1 = dictionary.Intern(Value(long_a));
  uint32_t a2 = dictionary.Intern(Value(long_a));
  uint32_t b = dictionary.Intern(Value(long_b));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_EQ(dictionary[a1].AsString(), long_a);
  EXPECT_EQ(dictionary[b].AsString(), long_b);
  EXPECT_EQ(dictionary.size(), 2u);
}

TEST(ColumnDictionaryTest, CodesSurviveIndexGrowth) {
  ColumnDictionary dictionary;
  uint32_t early = dictionary.Intern(Value("early-bird"));
  // Enough distinct values to double the lookup index several times.
  for (int i = 0; i < 5000; ++i) {
    dictionary.Intern(Value("filler_" + std::to_string(i)));
  }
  EXPECT_EQ(dictionary.Intern(Value("early-bird")), early);
  EXPECT_EQ(dictionary[early].AsString(), "early-bird");
  EXPECT_EQ(dictionary.size(), 5001u);
  for (int i = 0; i < 5000; ++i) {
    const Value& v = dictionary[static_cast<uint32_t>(i + 1)];
    ASSERT_EQ(v.AsString(), "filler_" + std::to_string(i));
  }
}

TEST(ColumnDictionaryTest, ApproxBytesGrowsWithContent) {
  ColumnDictionary dictionary;
  size_t empty = dictionary.ApproxBytes();
  for (int i = 0; i < 1000; ++i) {
    dictionary.Intern(
        Value("some_reasonably_long_value_" + std::to_string(i)));
  }
  EXPECT_GT(dictionary.ApproxBytes(), empty);
}

// Tables that share dictionaries may be used and written from different
// threads: a write clones a shared dictionary first. Four threads each
// anonymize their own copy of one input and add noise to it with a seed
// of their own, so every thread's Set calls add entries to a dictionary
// all copies share. The single-threaded references are computed after
// the threads finish, so a write into the shared dictionary races. Run
// under TSan in CI (thread-sanitize job).
TEST(TableThreadingTest, SharedDictionariesAreRaceFree) {
  const Table source = UnwrapOk(AdultGenerate(600, 3));
  const HierarchySet hierarchies =
      UnwrapOk(AdultHierarchies(source.schema()));
  const size_t age = UnwrapOk(source.schema().IndexOf("Age"));
  auto release = [&](const Table& input) {
    Anonymizer anonymizer(input);
    for (size_t i = 0; i < hierarchies.size(); ++i) {
      anonymizer.AddHierarchy(hierarchies.hierarchy_ptr(i));
    }
    anonymizer.set_k(3)
        .set_p(2)
        .set_max_suppression(12)
        .set_algorithm(AnonymizationAlgorithm::kSamarati)
        .set_threads(2);
    return UnwrapOk(anonymizer.Run()).masked;
  };
  auto add_noise = [&](const Table& input, uint64_t seed) {
    NoiseOptions noise;
    noise.sd_fraction = 0.2;
    noise.seed = seed;
    return UnwrapOk(AddNoiseToColumn(input, age, noise));
  };

  const uint64_t source_digest = TableDigest(source);
  std::vector<size_t> dictionary_sizes;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    dictionary_sizes.push_back(source.dictionary(c).size());
  }

  constexpr size_t kThreads = 4;
  std::vector<uint64_t> releases(kThreads);
  std::vector<uint64_t> noisy(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Table copy = source;
      releases[t] = TableDigest(release(copy));
      noisy[t] = TableDigest(add_noise(copy, 11 + t));
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(TableDigest(source), source_digest);
  for (size_t c = 0; c < source.num_columns(); ++c) {
    EXPECT_EQ(source.dictionary(c).size(), dictionary_sizes[c])
        << "column " << c;
  }
  const uint64_t want_release = TableDigest(release(source));
  for (size_t t = 0; t < kThreads; ++t) {
    const Table want_noisy = add_noise(source, 11 + t);
    // The noise really adds values the source's dictionary lacks.
    EXPECT_GT(want_noisy.dictionary(age).size(), dictionary_sizes[age]);
    EXPECT_EQ(releases[t], want_release) << "thread " << t;
    EXPECT_EQ(noisy[t], TableDigest(want_noisy)) << "thread " << t;
  }
}

// Readers of a table keep seeing its cells while other threads write
// copies of it: each writer copies the source and sets new values into
// its copy, so every round clones the dictionary the reader is reading.
// Run under TSan in CI (thread-sanitize job).
TEST(TableThreadingTest, ReadersOfASharedDictionaryAreSafeDuringWrites) {
  const Schema schema = UnwrapOk(Schema::Create(
      {{"City", ValueType::kString, AttributeRole::kKey}}));
  constexpr size_t kRows = 500;
  Table source(schema);
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(source.AppendRow({Value("seed_" + std::to_string(i))}).ok());
  }

  constexpr size_t kWriters = 2;
  constexpr size_t kRounds = 100;
  std::vector<Table> last(kWriters);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < kRounds; ++round) {
        Table copy = source;
        for (size_t i = 0; i < 50; ++i) {
          copy.Set((round + i) % kRows, 0,
                   Value("storm_" + std::to_string(w) + "_" +
                         std::to_string(round * 50 + i)));
        }
        last[w] = std::move(copy);
      }
    });
  }
  threads.emplace_back([&] {
    for (size_t round = 0; round < 200; ++round) {
      for (size_t i = 0; i < kRows; ++i) {
        ASSERT_EQ(source.Get(i, 0).AsString(), "seed_" + std::to_string(i));
      }
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(source.dictionary(0).size(), kRows);
  for (size_t w = 0; w < kWriters; ++w) {
    const size_t round = kRounds - 1;
    EXPECT_EQ(last[w].Get(round % kRows, 0).AsString(),
              "storm_" + std::to_string(w) + "_" + std::to_string(round * 50))
        << "writer " << w;
    EXPECT_EQ(last[w].dictionary(0).size(), kRows + 50) << "writer " << w;
  }
}

TEST(TableTest, DisplayStringTruncates) {
  Table table = SmallTable();
  std::string display = table.ToDisplayString(2);
  EXPECT_NE(display.find("more rows"), std::string::npos);
  EXPECT_NE(display.find("Age"), std::string::npos);
}

}  // namespace
}  // namespace psk
