#include "psk/table/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace psk {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt64);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(std::string("abc")).type(), ValueType::kString);
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value(int64_t{5}).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_DOUBLE_EQ(Value(int64_t{5}).AsNumeric(), 5.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumeric(), 2.5);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(1.5).ToString(), "1.5");
}

TEST(ValueTest, ParseInt64) {
  auto v = Value::Parse("123", ValueType::kInt64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt64(), 123);
  EXPECT_FALSE(Value::Parse("12x", ValueType::kInt64).ok());
}

TEST(ValueTest, ParseEmptyIsNull) {
  auto v = Value::Parse("", ValueType::kInt64);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(ValueTest, ParseDoubleAndString) {
  auto d = Value::Parse("2.75", ValueType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 2.75);
  auto s = Value::Parse(" spaced ", ValueType::kString);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->AsString(), " spaced ");
}

TEST(ValueTest, EqualityWithinTypes) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(int64_t{4}));
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_EQ(Value(), Value::Null());
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
}

TEST(ValueTest, CrossTypeInequality) {
  EXPECT_NE(Value(int64_t{3}), Value("3"));
  EXPECT_NE(Value(), Value(int64_t{0}));
  EXPECT_NE(Value(), Value(""));
}

TEST(ValueTest, Ordering) {
  // null < numeric < string.
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{5}), Value(""));
  EXPECT_LT(Value(int64_t{2}), Value(int64_t{10}));
  EXPECT_LT(Value(2.5), Value(int64_t{3}));
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_FALSE(Value() < Value());
}

TEST(ValueTest, OrderingConsistency) {
  Value a(int64_t{1}), b(int64_t{2});
  EXPECT_TRUE(a <= b);
  EXPECT_TRUE(b >= a);
  EXPECT_TRUE(b > a);
  EXPECT_FALSE(a > b);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

TEST(ValueTest, HashMatchesEqualityAtInt64Extremes) {
  // Mixed numeric equality compares as double, so an int64 that rounds to
  // a double must hash like that double — including near +-2^63, where a
  // round trip through double would overflow int64.
  const double two_63 = std::ldexp(1.0, 63);
  const double two_53 = std::ldexp(1.0, 53);
  const struct {
    Value int_value;
    Value double_value;
  } cases[] = {
      {Value(std::numeric_limits<int64_t>::max()), Value(two_63)},
      {Value(std::numeric_limits<int64_t>::min()), Value(-two_63)},
      {Value(int64_t{(int64_t{1} << 53) + 1}), Value(two_53)},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(c.int_value, c.double_value) << c.int_value.ToString();
    EXPECT_EQ(c.int_value.Hash(), c.double_value.Hash())
        << c.int_value.ToString();
  }
}

}  // namespace
}  // namespace psk
