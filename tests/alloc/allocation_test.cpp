#include "alloc/allocation.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "stats/normal.h"

namespace eta2::alloc {
namespace {

AllocationProblem small_problem() {
  AllocationProblem p;
  p.expertise = {{1.0, 2.0}, {0.5, 3.0}};  // 2 users x 2 tasks
  p.task_column = {0, 1};
  p.task_time = {1.0, 2.0};
  p.user_capacity = {4.0, 4.0};
  return p;
}

TEST(AllocationProblemTest, ValidatesShapes) {
  AllocationProblem p = small_problem();
  EXPECT_NO_THROW(p.validate());
  p.user_capacity = {1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_problem();
  p.expertise = {{1.0}, {0.5}};  // 2x1 plane vs 2 tasks: shape mismatch
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_problem();
  p.task_time[0] = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_problem();
  p.expertise(1, 0) = -0.5;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = small_problem();
  p.task_cost = {1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

// An empty day maps no task, so the plane's column count is free: the
// baseline simulation hands over one zero column with an empty task_column.
TEST(AllocationProblemTest, EmptyDayAcceptsAnyColumnCount) {
  AllocationProblem p;
  p.expertise.assign(3, 1, 0.0);
  p.user_capacity = {2.0, 2.0, 2.0};
  EXPECT_NO_THROW(p.validate());
  p.expertise.assign(3, 5, 0.0);
  EXPECT_NO_THROW(p.validate());
  // One task needs a map entry...
  p.task_time = {1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // ...to a column that exists.
  p.task_column = {4};
  EXPECT_NO_THROW(p.validate());
}

TEST(AllocationProblemTest, DefaultCostIsOne) {
  const AllocationProblem p = small_problem();
  EXPECT_DOUBLE_EQ(p.cost_of(0), 1.0);
  AllocationProblem with_cost = small_problem();
  with_cost.task_cost = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(with_cost.cost_of(1), 3.0);
}

TEST(AllocationTest, AssignTracksBooks) {
  Allocation a(2, 2);
  a.assign(0, 1, 2.0, 1.0);
  a.assign(1, 1, 2.0, 1.5);
  EXPECT_TRUE(a.is_assigned(0, 1));
  EXPECT_FALSE(a.is_assigned(0, 0));
  EXPECT_EQ(a.users_of(1).size(), 2u);
  EXPECT_DOUBLE_EQ(a.used_time(0), 2.0);
  EXPECT_DOUBLE_EQ(a.total_cost(), 2.5);
  EXPECT_EQ(a.pair_count(), 2u);
}

TEST(AllocationTest, RejectsDuplicatesAndBadIndices) {
  Allocation a(1, 1);
  a.assign(0, 0, 1.0, 1.0);
  EXPECT_THROW(a.assign(0, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(a.assign(1, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(a.assign(0, 1, 1.0, 1.0), std::invalid_argument);
}

TEST(ObjectiveTest, SingleUserMatchesEq11) {
  const AllocationProblem p = small_problem();
  Allocation a(2, 2);
  a.assign(0, 0, 1.0, 1.0);
  const double expected = stats::accuracy_probability(1.0, 0.1);
  EXPECT_NEAR(task_success_probability(p, a, 0, 0.1), expected, 1e-12);
  EXPECT_NEAR(allocation_objective(p, a, 0.1), expected, 1e-12);
}

TEST(ObjectiveTest, MultipleUsersComposeAsEq10) {
  const AllocationProblem p = small_problem();
  Allocation a(2, 2);
  a.assign(0, 1, 2.0, 1.0);
  a.assign(1, 1, 2.0, 1.0);
  const double p0 = stats::accuracy_probability(2.0, 0.1);
  const double p1 = stats::accuracy_probability(3.0, 0.1);
  EXPECT_NEAR(task_success_probability(p, a, 1, 0.1),
              1.0 - (1.0 - p0) * (1.0 - p1), 1e-12);
}

TEST(ObjectiveTest, EmptyAllocationScoresZero) {
  const AllocationProblem p = small_problem();
  const Allocation a(2, 2);
  EXPECT_DOUBLE_EQ(allocation_objective(p, a, 0.1), 0.0);
}

TEST(ObjectiveTest, MonotoneInAddedUsers) {
  const AllocationProblem p = small_problem();
  Allocation a(2, 2);
  const double before = allocation_objective(p, a, 0.1);
  a.assign(0, 0, 1.0, 1.0);
  const double mid = allocation_objective(p, a, 0.1);
  a.assign(1, 0, 1.0, 1.0);
  const double after = allocation_objective(p, a, 0.1);
  EXPECT_LT(before, mid);
  EXPECT_LT(mid, after);
}

TEST(CapacityTest, DetectsViolations) {
  const AllocationProblem p = small_problem();
  Allocation ok(2, 2);
  ok.assign(0, 0, 1.0, 1.0);
  ok.assign(0, 1, 2.0, 1.0);
  EXPECT_TRUE(respects_capacity(p, ok));
  Allocation bad(2, 2);
  bad.assign(0, 0, 5.0, 1.0);  // exceeds capacity 4
  EXPECT_FALSE(respects_capacity(p, bad));
}

}  // namespace
}  // namespace eta2::alloc
