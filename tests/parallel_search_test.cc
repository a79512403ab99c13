#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "psk/algorithms/exhaustive.h"
#include "psk/datagen/adult.h"
#include "psk/datagen/synthetic.h"
#include "psk/perturb/perturb.h"
#include "test_util.h"

namespace psk {
namespace {

// Wraps a hierarchy and fails Generalize at one level with a hard
// (non-budget) error, simulating a corrupt hierarchy.
class PoisonedHierarchy : public AttributeHierarchy {
 public:
  PoisonedHierarchy(std::shared_ptr<const AttributeHierarchy> base,
                    int poison_level)
      : base_(std::move(base)), poison_level_(poison_level) {}

  const std::string& attribute_name() const override {
    return base_->attribute_name();
  }
  int num_levels() const override { return base_->num_levels(); }
  Result<Value> Generalize(const Value& value, int level) const override {
    if (level == poison_level_) {
      return Status::InvalidArgument("injected hierarchy fault");
    }
    return base_->Generalize(value, level);
  }

 private:
  std::shared_ptr<const AttributeHierarchy> base_;
  int poison_level_;
};

// A hierarchy that cannot generalize some value fails the search in Init,
// when the table is encoded, with the hierarchy's own status — before any
// node is evaluated and whatever the thread count, even though the poisoned
// level sits at the top of the lattice where a lazy evaluator would only
// reach it mid-sweep.
TEST(PoisonedHierarchyTest, FailsTheSearchBeforeAnyNodeAtEveryThreadCount) {
  SyntheticSpec spec = MakeUniformSpec(120, 3, 4, 1, 3, 0.6);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 7));

  std::vector<std::shared_ptr<const AttributeHierarchy>> hs;
  for (size_t i = 0; i < data.hierarchies.size(); ++i) {
    hs.push_back(data.hierarchies.hierarchy_ptr(i));
  }
  hs[0] = std::make_shared<PoisonedHierarchy>(hs[0],
                                              hs[0]->num_levels() - 1);
  HierarchySet poisoned =
      UnwrapOk(HierarchySet::Create(data.table.schema(), std::move(hs)));

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SearchOptions options;
    options.k = 2;
    options.threads = threads;
    Result<SearchResult> result =
        ExhaustiveSearch(data.table, poisoned, options);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << "threads=" << threads;
    EXPECT_EQ(result.status().message(), "injected hierarchy fault")
        << "threads=" << threads;
  }
}

TEST(ParallelExhaustiveTest, MatchesSequentialResults) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SyntheticSpec spec = MakeUniformSpec(150, 3, 5, 2, 4, 0.7);
    SyntheticData data = UnwrapOk(SyntheticGenerate(spec, seed));
    SearchOptions sequential;
    sequential.k = 3;
    sequential.p = 2;
    sequential.max_suppression = 2;
    SearchOptions parallel = sequential;
    parallel.threads = 4;

    SearchResult a =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, sequential));
    SearchResult b =
        UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, parallel));
    EXPECT_EQ(a.satisfying_nodes, b.satisfying_nodes) << "seed=" << seed;
    EXPECT_EQ(a.minimal_nodes, b.minimal_nodes) << "seed=" << seed;
    // Same total node work (each node evaluated exactly once).
    EXPECT_EQ(a.stats.nodes_generalized, b.stats.nodes_generalized);
  }
}

TEST(ParallelExhaustiveTest, MoreThreadsThanNodes) {
  SyntheticSpec spec = MakeUniformSpec(60, 1, 4, 1, 3, 0.5);
  SyntheticData data = UnwrapOk(SyntheticGenerate(spec, 5));
  SearchOptions options;
  options.k = 2;
  options.threads = 64;  // lattice has only 3 nodes
  SearchResult result =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, options));
  SearchOptions sequential = options;
  sequential.threads = 1;
  SearchResult expected =
      UnwrapOk(ExhaustiveSearch(data.table, data.hierarchies, sequential));
  EXPECT_EQ(result.minimal_nodes, expected.minimal_nodes);
}

TEST(ParallelExhaustiveTest, AdultWorkload) {
  Table im = UnwrapOk(AdultGenerate(600, /*seed=*/1));
  HierarchySet hierarchies = UnwrapOk(AdultHierarchies(im.schema()));
  SearchOptions options;
  options.k = 3;
  options.p = 2;
  options.max_suppression = 6;
  SearchOptions parallel = options;
  parallel.threads = 8;
  SearchResult a = UnwrapOk(ExhaustiveSearch(im, hierarchies, options));
  SearchResult b = UnwrapOk(ExhaustiveSearch(im, hierarchies, parallel));
  EXPECT_EQ(a.minimal_nodes, b.minimal_nodes);
  EXPECT_EQ(a.satisfying_nodes, b.satisfying_nodes);
}

// --------------------------------------------------------------------------
// SampleRows (lives here to avoid another tiny binary)

TEST(SampleRowsTest, FractionExtremes) {
  Table im = UnwrapOk(AdultGenerate(200, /*seed=*/2));
  Table none = UnwrapOk(SampleRows(im, 0.0, 1));
  EXPECT_EQ(none.num_rows(), 0u);
  Table all = UnwrapOk(SampleRows(im, 1.0, 1));
  EXPECT_EQ(all.num_rows(), im.num_rows());
}

TEST(SampleRowsTest, ApproximateFraction) {
  Table im = UnwrapOk(AdultGenerate(5000, /*seed=*/3));
  Table half = UnwrapOk(SampleRows(im, 0.5, 7));
  EXPECT_NEAR(static_cast<double>(half.num_rows()) / im.num_rows(), 0.5,
              0.05);
}

TEST(SampleRowsTest, DeterministicAndOrderPreserving) {
  Table im = UnwrapOk(AdultGenerate(300, /*seed=*/4));
  Table a = UnwrapOk(SampleRows(im, 0.3, 11));
  Table b = UnwrapOk(SampleRows(im, 0.3, 11));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.Get(r, c), b.Get(r, c));
    }
  }
}

TEST(SampleRowsTest, InvalidFractionRejected) {
  Table im = UnwrapOk(AdultGenerate(10, /*seed=*/5));
  EXPECT_FALSE(SampleRows(im, -0.1, 1).ok());
  EXPECT_FALSE(SampleRows(im, 1.1, 1).ok());
}

}  // namespace
}  // namespace psk
