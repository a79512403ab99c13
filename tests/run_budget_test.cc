#include "psk/common/run_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "test_util.h"

namespace psk {
namespace {

TEST(RunBudgetTest, DefaultBudgetIsUnlimited) {
  RunBudget budget;
  EXPECT_TRUE(budget.Unlimited());
  BudgetEnforcer enforcer(budget);
  for (int i = 0; i < 10000; ++i) {
    PSK_ASSERT_OK(enforcer.Charge(1, 100));
  }
  EXPECT_EQ(enforcer.nodes_expanded(), 10000u);
  EXPECT_EQ(enforcer.rows_materialized(), 1000000u);
}

TEST(RunBudgetTest, AnyLimitMakesBudgetLimited) {
  RunBudget budget;
  budget.max_nodes_expanded = 5;
  EXPECT_FALSE(budget.Unlimited());
  RunBudget deadline_only;
  deadline_only.deadline = std::chrono::milliseconds(10);
  EXPECT_FALSE(deadline_only.Unlimited());
  RunBudget cancel_only;
  cancel_only.cancel = std::make_shared<CancelToken>();
  EXPECT_FALSE(cancel_only.Unlimited());
}

TEST(RunBudgetTest, NodeCapTripsResourceExhausted) {
  RunBudget budget;
  budget.max_nodes_expanded = 3;
  BudgetEnforcer enforcer(budget);
  PSK_ASSERT_OK(enforcer.Charge());
  PSK_ASSERT_OK(enforcer.Charge());
  PSK_ASSERT_OK(enforcer.Charge());
  Status s = enforcer.Charge();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("nodes"), std::string::npos);
}

TEST(RunBudgetTest, RowCapTripsResourceExhausted) {
  RunBudget budget;
  budget.max_rows_materialized = 250;
  BudgetEnforcer enforcer(budget);
  PSK_ASSERT_OK(enforcer.Charge(1, 100));
  PSK_ASSERT_OK(enforcer.Charge(1, 100));
  Status s = enforcer.Charge(1, 100);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("rows"), std::string::npos);
}

TEST(RunBudgetTest, ZeroDeadlineTripsImmediately) {
  RunBudget budget;
  budget.deadline = std::chrono::milliseconds(0);
  BudgetEnforcer enforcer(budget);
  Status s = enforcer.Charge();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(RunBudgetTest, HugeDeadlineSaturatesInsteadOfWrapping) {
  // milliseconds::max() added to steady_clock::now() overflows the
  // clock's representable range; the enforcer must clamp the deadline to
  // "effectively never", not wrap it into the past and trip instantly.
  RunBudget budget;
  budget.deadline = std::chrono::milliseconds::max();
  BudgetEnforcer enforcer(budget);
  for (int i = 0; i < 100; ++i) {
    PSK_ASSERT_OK(enforcer.Charge());
  }
  PSK_ASSERT_OK(enforcer.Check());
  auto remaining = enforcer.Remaining();
  ASSERT_TRUE(remaining.has_value());
  EXPECT_GT(*remaining, std::chrono::hours(24 * 365));
}

TEST(RunBudgetTest, NearMaxDeadlinesStillWork) {
  // A family of huge-but-not-max deadlines: every one of them must be
  // far in the future, never in the past.
  for (auto deadline :
       {std::chrono::milliseconds::max() - std::chrono::milliseconds(1),
        std::chrono::milliseconds::max() / 2,
        std::chrono::milliseconds(std::chrono::milliseconds::max().count() -
                                  1000)}) {
    RunBudget budget;
    budget.deadline = deadline;
    BudgetEnforcer enforcer(budget);
    PSK_ASSERT_OK(enforcer.Charge());
    ASSERT_TRUE(enforcer.Remaining().has_value());
    EXPECT_GT(*enforcer.Remaining(), std::chrono::hours(1));
  }
}

TEST(RunBudgetTest, DeadlineTripsAfterElapse) {
  RunBudget budget;
  budget.deadline = std::chrono::milliseconds(20);
  BudgetEnforcer enforcer(budget);
  PSK_ASSERT_OK(enforcer.Charge());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status s = enforcer.Charge();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("deadline"), std::string::npos);
}

TEST(RunBudgetTest, CancelTokenTripsCancelled) {
  RunBudget budget;
  budget.cancel = std::make_shared<CancelToken>();
  BudgetEnforcer enforcer(budget);
  PSK_ASSERT_OK(enforcer.Charge());
  budget.cancel->Cancel();
  Status s = enforcer.Charge();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(RunBudgetTest, CancelTokenIsStickyUntilReset) {
  // The flag is sticky: an enforcer created *after* Cancel() still
  // observes the token as cancelled — the reuse hazard Reset() exists for.
  RunBudget budget;
  budget.cancel = std::make_shared<CancelToken>();
  budget.cancel->Cancel();
  BudgetEnforcer stale(budget);
  EXPECT_EQ(stale.Charge().code(), StatusCode::kCancelled);

  budget.cancel->Reset();
  EXPECT_FALSE(budget.cancel->cancelled());
  BudgetEnforcer fresh(budget);
  PSK_ASSERT_OK(fresh.Charge());
}

TEST(RunBudgetTest, ResetArmsTokenForSequentialRuns) {
  // Cancel run 1, Reset, run 2 to completion, cancel run 3: each
  // sequential run sharing the token sees only its own cancellation.
  RunBudget budget;
  budget.cancel = std::make_shared<CancelToken>();

  BudgetEnforcer first(budget);
  budget.cancel->Cancel();
  EXPECT_EQ(first.Charge().code(), StatusCode::kCancelled);

  budget.cancel->Reset();
  BudgetEnforcer second(budget);
  for (int i = 0; i < 10; ++i) PSK_ASSERT_OK(second.Charge());

  BudgetEnforcer third(budget);
  PSK_ASSERT_OK(third.Charge());
  budget.cancel->Cancel();
  EXPECT_EQ(third.Charge().code(), StatusCode::kCancelled);
}

TEST(RunBudgetTest, FirstTripLatchesItsCode) {
  // Once a deadline trips, later charges keep reporting DeadlineExceeded
  // even if a node cap would also be violated by then.
  RunBudget budget;
  budget.deadline = std::chrono::milliseconds(0);
  budget.max_nodes_expanded = 1;
  BudgetEnforcer enforcer(budget);
  Status first = enforcer.Charge();
  EXPECT_EQ(first.code(), StatusCode::kDeadlineExceeded);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(enforcer.Charge().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(RunBudgetTest, RemainingClampsAtZero) {
  RunBudget budget;
  budget.deadline = std::chrono::milliseconds(0);
  BudgetEnforcer enforcer(budget);
  auto remaining = enforcer.Remaining();
  ASSERT_TRUE(remaining.has_value());
  EXPECT_EQ(remaining->count(), 0);
  RunBudget unlimited;
  BudgetEnforcer free_run(unlimited);
  EXPECT_FALSE(free_run.Remaining().has_value());
}

TEST(RunBudgetTest, IsBudgetExhaustedClassifiesCodes) {
  EXPECT_TRUE(IsBudgetExhausted(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(IsBudgetExhausted(Status::Cancelled("x")));
  EXPECT_TRUE(IsBudgetExhausted(Status::ResourceExhausted("x")));
  EXPECT_FALSE(IsBudgetExhausted(Status::OK()));
  EXPECT_FALSE(IsBudgetExhausted(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsBudgetExhausted(Status::FailedPrecondition("x")));
  EXPECT_FALSE(IsBudgetExhausted(Status::Internal("x")));
}

TEST(RunBudgetTest, ChargesAreThreadSafe) {
  RunBudget budget;
  budget.max_nodes_expanded = 100000;
  BudgetEnforcer enforcer(budget);
  std::vector<std::thread> threads;
  std::atomic<int> exhausted{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&enforcer, &exhausted] {
      for (int i = 0; i < 50000; ++i) {
        if (!enforcer.Charge().ok()) {
          ++exhausted;
          break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // 4 x 50000 charges against a 100000 cap: someone must have tripped, and
  // the total accounted work is exact.
  EXPECT_GE(exhausted.load(), 1);
  EXPECT_GT(enforcer.nodes_expanded(), 100000u);
}

}  // namespace
}  // namespace psk
