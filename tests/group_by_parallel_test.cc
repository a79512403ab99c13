// Row-range-parallel GroupByCodes: GroupByCodesSliced must produce
// byte-identical row_gid / group_sizes to the sequential path for any
// slice layout — even slices, adversarial boundaries (a group straddling
// every cut, empty slices, single-row slices), the open-addressing path
// past the dense limit — and for any worker count, because group ids are
// renumbered through a global first-occurrence-ordered merge map.

#include "psk/table/group_by.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

namespace psk {
namespace {

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

std::vector<CodeColumnView> Views(
    const std::vector<std::vector<uint32_t>>& columns,
    const std::vector<uint32_t>& cardinalities) {
  std::vector<CodeColumnView> views;
  for (size_t c = 0; c < columns.size(); ++c) {
    views.push_back(CodeColumnView{columns[c].data(), nullptr,
                                   cardinalities[c]});
  }
  return views;
}

void ExpectIdenticalToSequential(const std::vector<CodeColumnView>& views,
                                 size_t num_rows,
                                 const std::vector<size_t>& slice_ends,
                                 size_t workers) {
  GroupByScratch seq_scratch;
  EncodedGroups expected;
  GroupByCodes(views, num_rows, &seq_scratch, &expected);

  ParallelGroupByScratch par_scratch;
  EncodedGroups actual;
  GroupByCodesSliced(views, num_rows, slice_ends, workers, &par_scratch,
                     &actual);

  ASSERT_EQ(actual.row_gid, expected.row_gid)
      << "slices=" << slice_ends.size() << " workers=" << workers;
  ASSERT_EQ(actual.group_sizes, expected.group_sizes)
      << "slices=" << slice_ends.size() << " workers=" << workers;
}

TEST(GroupByCodesSlicedTest, MatchesSequentialAcrossSliceCounts) {
  const size_t rows = 5000;
  std::vector<std::vector<uint32_t>> data = {
      RandomCodes(rows, 7, 11), RandomCodes(rows, 13, 22),
      RandomCodes(rows, 3, 33)};
  std::vector<CodeColumnView> views = Views(data, {7, 13, 3});
  for (size_t slices : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
    std::vector<size_t> ends;
    EvenSliceEnds(rows, slices, &ends);
    ASSERT_EQ(ends.size(), slices);
    ASSERT_EQ(ends.back(), rows);
    for (size_t workers : {size_t{1}, size_t{4}}) {
      ExpectIdenticalToSequential(views, rows, ends, workers);
    }
  }
}

TEST(GroupByCodesSlicedTest, TranslationMapsApplyPerSlice) {
  // A translation map (hierarchy ancestor table) must be applied with
  // slice-offset codes, and merge keys must compare *translated* codes.
  const size_t rows = 1200;
  std::vector<uint32_t> ground = RandomCodes(rows, 40, 5);
  std::vector<uint32_t> map(40);
  for (size_t i = 0; i < map.size(); ++i) {
    map[i] = static_cast<uint32_t>(i % 4);  // 40 ground codes -> 4 buckets
  }
  std::vector<CodeColumnView> views = {
      CodeColumnView{ground.data(), map.data(), 4}};
  std::vector<size_t> ends;
  EvenSliceEnds(rows, 7, &ends);
  ExpectIdenticalToSequential(views, rows, ends, 4);
}

TEST(GroupByCodesSlicedTest, GroupStraddlingEveryBoundary) {
  // Sorted single-column data: every group is one contiguous run, so a
  // boundary inside a run splits that group across two slices — the merge
  // must unify them under the first slice's numbering.
  const size_t rows = 64;
  std::vector<uint32_t> codes(rows);
  for (size_t i = 0; i < rows; ++i) {
    codes[i] = static_cast<uint32_t>(i / 10);  // runs of 10
  }
  std::vector<CodeColumnView> views = {CodeColumnView{codes.data(), nullptr, 8}};
  // Cuts at 5, 15, 25, ... — inside every run of 10.
  std::vector<size_t> ends;
  for (size_t cut = 5; cut < rows; cut += 10) ends.push_back(cut);
  ends.push_back(rows);
  ExpectIdenticalToSequential(views, rows, ends, 3);
}

TEST(GroupByCodesSlicedTest, EmptyAndSingleRowSlices) {
  const size_t rows = 31;
  std::vector<uint32_t> codes = RandomCodes(rows, 5, 77);
  std::vector<CodeColumnView> views = {CodeColumnView{codes.data(), nullptr, 5}};
  // Duplicate cumulative ends = empty slices; consecutive ends one apart =
  // single-row slices; both legal layouts for the explicit-boundary API.
  std::vector<size_t> ends = {0, 0, 1, 2, 2, 17, 17, 18, 31, 31};
  ExpectIdenticalToSequential(views, rows, ends, 4);
}

TEST(GroupByCodesSlicedTest, SparseFallbackMatches) {
  // Cardinality past the dense-key limit (2^20) forces the
  // open-addressing refinement path inside each slice.
  const size_t rows = 20000;
  const uint32_t cardinality = (1u << 20) + 7919;
  std::vector<uint32_t> codes = RandomCodes(rows, cardinality, 99);
  std::vector<CodeColumnView> views = {
      CodeColumnView{codes.data(), nullptr, cardinality}};
  std::vector<size_t> ends;
  EvenSliceEnds(rows, 7, &ends);
  ExpectIdenticalToSequential(views, rows, ends, 4);
}

TEST(GroupByCodesSlicedTest, ZeroColumnsAndEmptyTable) {
  // Zero columns: every row lands in one group — including across slices.
  std::vector<CodeColumnView> no_columns;
  std::vector<size_t> ends;
  EvenSliceEnds(12, 3, &ends);
  ExpectIdenticalToSequential(no_columns, 12, ends, 2);
  // Empty table, multiple (all-empty) slices.
  std::vector<size_t> empty_ends = {0, 0, 0};
  ExpectIdenticalToSequential(no_columns, 0, empty_ends, 2);
}

TEST(GroupByCodesSlicedTest, ScratchReuseAcrossLayouts) {
  // One ParallelGroupByScratch reused across different slice layouts and
  // key spaces must never leak state between calls.
  const size_t rows = 3000;
  std::vector<uint32_t> a = RandomCodes(rows, 11, 1);
  std::vector<uint32_t> b = RandomCodes(rows, 6, 2);
  std::vector<CodeColumnView> views = {
      CodeColumnView{a.data(), nullptr, 11},
      CodeColumnView{b.data(), nullptr, 6}};
  ParallelGroupByScratch scratch;
  GroupByScratch seq_scratch;
  for (size_t slices : {size_t{16}, size_t{2}, size_t{7}, size_t{16}}) {
    std::vector<size_t> ends;
    EvenSliceEnds(rows, slices, &ends);
    EncodedGroups expected;
    GroupByCodes(views, rows, &seq_scratch, &expected);
    EncodedGroups actual;
    GroupByCodesSliced(views, rows, ends, 4, &scratch, &actual);
    ASSERT_EQ(actual.row_gid, expected.row_gid) << "slices=" << slices;
    ASSERT_EQ(actual.group_sizes, expected.group_sizes)
        << "slices=" << slices;
  }
}

TEST(GroupBySliceCountTest, RespectsMinimumRowsPerSlice) {
  EXPECT_EQ(GroupBySliceCount(/*num_rows=*/0, 8, 1024), 1u);
  EXPECT_EQ(GroupBySliceCount(100, 1, 10), 1u);           // no workers
  EXPECT_EQ(GroupBySliceCount(100, 8, 1024), 1u);         // too small
  EXPECT_EQ(GroupBySliceCount(2048, 8, 1024), 2u);        // rows-bound
  EXPECT_EQ(GroupBySliceCount(1u << 20, 8, 1024), 8u);    // worker-bound
  EXPECT_EQ(GroupBySliceCount(4096, 8, 0), 8u);           // 0 = no floor
}

TEST(EvenSliceEndsTest, CoversAllRowsInOrder) {
  std::vector<size_t> ends;
  EvenSliceEnds(10, 3, &ends);
  EXPECT_EQ(ends, (std::vector<size_t>{3, 6, 10}));
  EvenSliceEnds(2, 4, &ends);  // more slices than rows: some empty
  ASSERT_EQ(ends.size(), 4u);
  EXPECT_EQ(ends.back(), 2u);
  for (size_t i = 1; i < ends.size(); ++i) EXPECT_LE(ends[i - 1], ends[i]);
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

TEST(ParallelScratchMemoryTest, ApproxBytesCoversSliceBuffers) {
  const size_t rows = 4096;
  std::vector<uint32_t> codes = RandomCodes(rows, 97, 8);
  std::vector<CodeColumnView> views = {
      CodeColumnView{codes.data(), nullptr, 97}};
  ParallelGroupByScratch scratch;
  EXPECT_EQ(scratch.ApproxBytes(), 0u);
  std::vector<size_t> ends;
  EvenSliceEnds(rows, 4, &ends);
  EncodedGroups out;
  GroupByCodesSliced(views, rows, ends, 2, &scratch, &out);
  // After a run the scratch holds per-slice row_gid buffers (>= one
  // uint32 per row across slices) plus the merge table.
  EXPECT_GE(scratch.ApproxBytes(), rows * sizeof(uint32_t));
}

}  // namespace
}  // namespace psk
