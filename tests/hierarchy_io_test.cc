#include "psk/hierarchy/hierarchy_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "test_util.h"

namespace psk {
namespace {

constexpr char kMaritalCsv[] =
    "Divorced;Single;*\n"
    "Never-married;Single;*\n"
    "Separated;Single;*\n"
    "Widowed;Single;*\n"
    "Married-civ-spouse;Married;*\n"
    "Married-spouse-absent;Married;*\n"
    "Married-AF-spouse;Married;*\n";

TEST(LoadTaxonomyCsvTest, ParsesArxStyleFile) {
  auto h = UnwrapOk(LoadTaxonomyCsv(kMaritalCsv, "MaritalStatus"));
  EXPECT_EQ(h->attribute_name(), "MaritalStatus");
  EXPECT_EQ(h->num_levels(), 3);
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("Widowed"), 1)).AsString(),
            "Single");
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("Married-AF-spouse"), 2)).AsString(),
            "*");
  EXPECT_EQ(h->GroundValues().size(), 7u);
}

TEST(LoadTaxonomyCsvTest, SkipsBlankLines) {
  auto h = UnwrapOk(
      LoadTaxonomyCsv("a;*\n\nb;*\n   \n", "X"));
  EXPECT_EQ(h->GroundValues().size(), 2u);
}

TEST(LoadTaxonomyCsvTest, CustomSeparator) {
  auto h = UnwrapOk(LoadTaxonomyCsv("a,g,*\nb,g,*\n", "X", ','));
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("a"), 1)).AsString(), "g");
}

TEST(LoadTaxonomyCsvTest, QuotedFields) {
  auto h = UnwrapOk(
      LoadTaxonomyCsv("\"a;1\";\"g;x\";*\n", "X"));
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("a;1"), 1)).AsString(), "g;x");
}

TEST(LoadTaxonomyCsvTest, RaggedRowsRejected) {
  auto result = LoadTaxonomyCsv("a;g;*\nb;*\n", "X");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(LoadTaxonomyCsvTest, EmptyInputRejected) {
  EXPECT_FALSE(LoadTaxonomyCsv("", "X").ok());
  EXPECT_FALSE(LoadTaxonomyCsv("\n\n", "X").ok());
}

TEST(LoadTaxonomyCsvTest, DuplicateGroundValueRejected) {
  EXPECT_FALSE(LoadTaxonomyCsv("a;*\na;*\n", "X").ok());
}

TEST(LoadTaxonomyCsvTest, SingleColumnIsGroundOnly) {
  auto h = UnwrapOk(LoadTaxonomyCsv("a\nb\n", "X"));
  EXPECT_EQ(h->num_levels(), 1);
}

TEST(LoadTaxonomyCsvFileTest, RoundTripThroughDisk) {
  std::string path =
      (std::filesystem::temp_directory_path() / "psk_hier_test.csv")
          .string();
  {
    std::ofstream out(path);
    out << kMaritalCsv;
  }
  auto h = UnwrapOk(LoadTaxonomyCsvFile(path, "MaritalStatus"));
  EXPECT_EQ(h->num_levels(), 3);
  std::remove(path.c_str());
}

TEST(LoadTaxonomyCsvFileTest, MissingFileIsIOError) {
  auto result = LoadTaxonomyCsvFile("/nonexistent/h.csv", "X");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(SaveHierarchyCsvTest, RoundTripsTaxonomy) {
  auto h = UnwrapOk(LoadTaxonomyCsv(kMaritalCsv, "MaritalStatus"));
  std::vector<Value> ground;
  for (const std::string& v : h->GroundValues()) ground.push_back(Value(v));
  std::string csv = UnwrapOk(SaveHierarchyCsv(*h, ground));
  auto reloaded = UnwrapOk(LoadTaxonomyCsv(csv, "MaritalStatus"));
  EXPECT_EQ(reloaded->num_levels(), h->num_levels());
  for (const Value& v : ground) {
    for (int level = 0; level < h->num_levels(); ++level) {
      EXPECT_EQ(UnwrapOk(reloaded->Generalize(v, level)),
                UnwrapOk(h->Generalize(v, level)));
    }
  }
}

TEST(SaveHierarchyCsvTest, RoundTripsSeparatorsQuotesAndLineBreaks) {
  // Values holding the separator, quotes, LF, CRLF and a lone CR, written
  // as quoted fields.
  auto h = UnwrapOk(LoadTaxonomyCsv("\"a,b\",\"say \"\"hi\"\"\",*\n"
                                    "\"two\nlines\",\"crlf\r\ninside\",*\n"
                                    "\"cr\ronly\",\"say \"\"hi\"\"\",*\n",
                                    "X", ','));
  EXPECT_EQ(h->GroundValues(),
            (std::vector<std::string>{"a,b", "two\nlines", "cr\ronly"}));
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("two\nlines"), 1)).AsString(),
            "crlf\r\ninside");
  EXPECT_EQ(UnwrapOk(h->Generalize(Value("a,b"), 1)).AsString(),
            "say \"hi\"");
  std::vector<Value> ground;
  for (const std::string& v : h->GroundValues()) ground.push_back(Value(v));
  std::string csv = UnwrapOk(SaveHierarchyCsv(*h, ground, ','));
  auto reloaded = UnwrapOk(LoadTaxonomyCsv(csv, "X", ','));
  EXPECT_EQ(reloaded->GroundValues(), h->GroundValues());
  for (const Value& v : ground) {
    for (int level = 0; level < h->num_levels(); ++level) {
      EXPECT_EQ(UnwrapOk(reloaded->Generalize(v, level)),
                UnwrapOk(h->Generalize(v, level)));
    }
  }
}

TEST(SaveHierarchyCsvTest, ExportsIntervalHierarchy) {
  auto age = UnwrapOk(IntervalHierarchy::Create(
      "Age", {IntervalHierarchy::Level::Bands(10),
              IntervalHierarchy::Level::Cuts({50}),
              IntervalHierarchy::Level::Top()}));
  std::string csv = UnwrapOk(SaveHierarchyCsv(
      *age, {Value(int64_t{23}), Value(int64_t{61})}));
  EXPECT_EQ(csv, "23;[20-29];<50;*\n61;[60-69];>=50;*\n");
  // The export can be reloaded as an equivalent taxonomy.
  auto reloaded = UnwrapOk(LoadTaxonomyCsv(csv, "Age"));
  EXPECT_EQ(UnwrapOk(reloaded->Generalize(Value("23"), 1)).AsString(),
            "[20-29]");
}

TEST(SaveHierarchyCsvTest, UnknownGroundValueFails) {
  auto h = UnwrapOk(LoadTaxonomyCsv("a;*\n", "X"));
  EXPECT_FALSE(SaveHierarchyCsv(*h, {Value("zzz")}).ok());
}

}  // namespace
}  // namespace psk
