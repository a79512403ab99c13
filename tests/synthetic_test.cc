#include "psk/datagen/synthetic.h"

#include <gtest/gtest.h>

#include "psk/generalize/generalize.h"
#include "psk/jobs/job.h"
#include "psk/lattice/lattice.h"
#include "test_util.h"

namespace psk {
namespace {

TEST(SyntheticTest, SchemaFollowsSpec) {
  SyntheticSpec spec = MakeUniformSpec(50, 2, 4, 3, 5);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 1));
  EXPECT_EQ(data.table.num_rows(), 50u);
  EXPECT_EQ(data.table.schema().KeyIndices().size(), 2u);
  EXPECT_EQ(data.table.schema().ConfidentialIndices().size(), 3u);
  EXPECT_EQ(data.hierarchies.size(), 2u);
}

TEST(SyntheticTest, Deterministic) {
  SyntheticSpec spec = MakeUniformSpec(80, 2, 4, 1, 4);
  SyntheticData a = UnwrapOk(SyntheticGenerate(spec, 9));
  SyntheticData b = UnwrapOk(SyntheticGenerate(spec, 9));
  for (size_t r = 0; r < a.table.num_rows(); ++r) {
    for (size_t c = 0; c < a.table.num_columns(); ++c) {
      ASSERT_EQ(a.table.Get(r, c), b.table.Get(r, c));
    }
  }
}

// The generator's output, pinned by digest: a change to the drawn data
// or to the values a rank renders as fails here, whatever the chunking.
// Hierarchy depth draws nothing, so both specs yield one table; the
// generalized digests pin the 3- and 4-level hierarchies.
TEST(SyntheticTest, OutputMatchesPinnedDigests) {
  SyntheticSpec spec = MakeUniformSpec(500, 3, 8, 1, 12, 0.5);
  SyntheticSpec deep = spec;
  for (SyntheticAttribute& attr : deep.attributes) {
    if (attr.role == AttributeRole::kKey) attr.hierarchy_levels = 4;
  }
  SyntheticData plain_data = UnwrapOk(SyntheticGenerate(spec, 42));
  SyntheticData deep_data = UnwrapOk(SyntheticGenerate(deep, 42));
  EXPECT_EQ(TableDigest(plain_data.table), 0xdcf5bf09ad1fa58eULL);
  EXPECT_EQ(TableDigest(deep_data.table), 0xdcf5bf09ad1fa58eULL);
  EXPECT_EQ(TableDigest(UnwrapOk(ApplyGeneralization(
                plain_data.table, plain_data.hierarchies,
                LatticeNode{{1, 0, 1}}))),
            0xea4970feb1a94380ULL);
  EXPECT_EQ(TableDigest(UnwrapOk(ApplyGeneralization(
                deep_data.table, deep_data.hierarchies,
                LatticeNode{{1, 2, 1}}))),
            0xbfb7cc9b8bcef506ULL);
}

TEST(SyntheticTest, CardinalityRespected) {
  SyntheticSpec spec = MakeUniformSpec(500, 1, 7, 1, 3);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 3));
  EXPECT_LE(data.table.DistinctCount(0), 7u);
  EXPECT_LE(data.table.DistinctCount(1), 3u);
  // With 500 uniform rows over 7 values, all values should appear.
  EXPECT_EQ(data.table.DistinctCount(0), 7u);
}

TEST(SyntheticTest, HierarchiesGeneralizeEveryValue) {
  SyntheticSpec spec = MakeUniformSpec(100, 3, 9, 1, 4);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 5));
  auto key_indices = data.table.schema().KeyIndices();
  for (size_t slot = 0; slot < data.hierarchies.size(); ++slot) {
    const AttributeHierarchy& h = data.hierarchies.hierarchy(slot);
    for (size_t r = 0; r < data.table.num_rows(); ++r) {
      for (int level = 0; level < h.num_levels(); ++level) {
        PSK_ASSERT_OK(
            h.Generalize(data.table.Get(r, key_indices[slot]), level)
                .status());
      }
    }
    // Top level is the single group "*".
    EXPECT_EQ(UnwrapOk(h.Generalize(data.table.Get(0, key_indices[slot]),
                                    h.num_levels() - 1))
                  .AsString(),
              "*");
  }
}

TEST(SyntheticTest, HierarchyLevelsControlLatticeSize) {
  SyntheticSpec spec = MakeUniformSpec(10, 2, 4, 1, 3);
  spec.attributes[0].hierarchy_levels = 4;
  spec.attributes[1].hierarchy_levels = 2;
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 2));
  GeneralizationLattice lattice(data.hierarchies);
  EXPECT_EQ(lattice.max_levels(), (std::vector<int>{3, 1}));
}

TEST(SyntheticTest, SkewProducesDominantValue) {
  SyntheticSpec spec = MakeUniformSpec(5000, 1, 2, 1, 10, /*conf_theta=*/1.5);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 8));
  size_t conf = data.table.schema().ConfidentialIndices()[0];
  size_t top_count = 0;
  for (size_t r = 0; r < data.table.num_rows(); ++r) {
    if (data.table.Get(r, conf).AsString() == "S1_v0") ++top_count;
  }
  EXPECT_GT(static_cast<double>(top_count) / data.table.num_rows(), 0.3);
}

TEST(SyntheticTest, InvalidSpecsRejected) {
  SyntheticSpec empty;
  EXPECT_FALSE(SyntheticGenerate(empty, 1).ok());

  SyntheticSpec zero_card = MakeUniformSpec(10, 1, 4, 1, 3);
  zero_card.attributes[0].cardinality = 0;
  EXPECT_FALSE(SyntheticGenerate(zero_card, 1).ok());

  SyntheticSpec bad_levels = MakeUniformSpec(10, 1, 4, 1, 3);
  bad_levels.attributes[0].hierarchy_levels = 1;
  EXPECT_FALSE(SyntheticGenerate(bad_levels, 1).ok());
}

}  // namespace
}  // namespace psk
