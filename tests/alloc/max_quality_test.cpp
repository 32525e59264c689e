#include "alloc/max_quality.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "alloc/knapsack.h"
#include "common/rng.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

AllocationProblem random_problem(std::size_t users, std::size_t tasks,
                                 std::uint64_t seed, double capacity = 6.0) {
  Rng rng(seed);
  AllocationProblem p;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (double& u : p.expertise.data()) u = rng.uniform(0.1, 3.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.0);
  p.user_capacity.assign(users, capacity);
  return p;
}

TEST(MaxQualityTest, RespectsCapacityAlways) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const AllocationProblem p = random_problem(8, 20, seed);
    const MaxQualityAllocator allocator;
    const Allocation a = allocator.allocate(p);
    EXPECT_TRUE(respects_capacity(p, a)) << "seed " << seed;
  }
}

TEST(MaxQualityTest, NoDuplicateAssignments) {
  const AllocationProblem p = random_problem(5, 12, 3);
  const Allocation a = MaxQualityAllocator().allocate(p);
  for (TaskId j = 0; j < p.task_count(); ++j) {
    const auto users = a.users_of(j);
    for (std::size_t x = 0; x < users.size(); ++x) {
      for (std::size_t y = x + 1; y < users.size(); ++y) {
        EXPECT_NE(users[x], users[y]);
      }
    }
  }
}

TEST(MaxQualityTest, FillsCapacityWhenTasksAbound) {
  // With plenty of tasks and positive expertise everywhere the greedy only
  // stops when no user can fit any further task.
  const AllocationProblem p = random_problem(4, 40, 5, /*capacity=*/8.0);
  const Allocation a = MaxQualityAllocator().allocate(p);
  const double min_task_time =
      *std::min_element(p.task_time.begin(), p.task_time.end());
  for (UserId i = 0; i < p.user_count(); ++i) {
    // Remaining slack cannot fit the smallest task the user is not yet
    // assigned to — weaker check: slack below the largest task time.
    const double slack = p.user_capacity[i] - a.used_time(i);
    EXPECT_LT(slack, 2.0 + min_task_time);
  }
}

TEST(MaxQualityTest, PrefersHighExpertiseUser) {
  // One task, two users, capacity for one assignment each; the expert must
  // be chosen first.
  AllocationProblem p;
  p.expertise = {{0.3}, {2.5}};
  p.task_column = {0};
  p.task_time = {1.0};
  p.user_capacity = {1.0, 1.0};
  GreedyOptions options;
  Allocation a(2, 1);
  greedy_extend(p, options, a);
  ASSERT_GE(a.users_of(0).size(), 1u);
  EXPECT_EQ(a.users_of(0).front(), 1u);
}

TEST(MaxQualityTest, EfficiencyDividesByTime) {
  // Equal gain, different processing times: per-time greedy takes the
  // shorter task first.
  AllocationProblem p;
  p.expertise = {{1.0, 1.0}};
  p.task_column = {0, 1};
  p.task_time = {4.0, 1.0};
  p.user_capacity = {1.0};  // only the short task fits anyway
  GreedyOptions options;
  Allocation a(1, 2);
  greedy_extend(p, options, a);
  EXPECT_TRUE(a.is_assigned(0, 1));
  EXPECT_FALSE(a.is_assigned(0, 0));
}

TEST(MaxQualityTest, ZeroExpertiseMeansNoAssignment) {
  AllocationProblem p;
  p.expertise = {{0.0, 0.0}};
  p.task_column = {0, 1};
  p.task_time = {1.0, 1.0};
  p.user_capacity = {10.0};
  const Allocation a = MaxQualityAllocator().allocate(p);
  EXPECT_EQ(a.pair_count(), 0u);  // p_ij = 0 => efficiency 0 => stop
}

TEST(MaxQualityTest, CostCapLimitsNewAssignments) {
  AllocationProblem p = random_problem(4, 10, 7);
  p.task_cost.assign(10, 1.0);
  GreedyOptions options;
  options.cost_cap = 3.0;
  Allocation a(4, 10);
  const std::size_t added = greedy_extend(p, options, a);
  EXPECT_LE(added, 3u);
  EXPECT_GT(added, 0u);
}

TEST(MaxQualityTest, ExtendsExistingAllocationWithoutDuplicates) {
  const AllocationProblem p = random_problem(3, 5, 9);
  Allocation a(3, 5);
  a.assign(0, 0, p.task_time[0], 1.0);
  GreedyOptions options;
  greedy_extend(p, options, a);
  // Still no duplicates and capacity respected.
  EXPECT_TRUE(respects_capacity(p, a));
  const auto users = a.users_of(0);
  int count_user0 = 0;
  for (const UserId u : users) {
    if (u == 0) ++count_user0;
  }
  EXPECT_EQ(count_user0, 1);
}

TEST(MaxQualityTest, HalfApproxPassNeverHurts) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const AllocationProblem p = random_problem(6, 15, seed * 31);
    MaxQualityAllocator::Options with;
    with.half_approx_pass = true;
    MaxQualityAllocator::Options without;
    without.half_approx_pass = false;
    const double obj_with = allocation_objective(
        p, MaxQualityAllocator(with).allocate(p), with.epsilon);
    const double obj_without = allocation_objective(
        p, MaxQualityAllocator(without).allocate(p), without.epsilon);
    EXPECT_GE(obj_with, obj_without - 1e-12) << "seed " << seed;
  }
}

TEST(MaxQualityTest, HalfApproxHandlesAdversarialTaskTimes) {
  // The classic greedy failure: one tiny task with great value-per-time
  // blocks a big task with far larger absolute value. The extra pass must
  // recover at least half the optimum.
  AllocationProblem p;
  p.expertise = {{0.8, 20.0}};
  p.task_column = {0, 1};
  p.task_time = {0.1, 10.0};
  p.user_capacity = {10.0};
  const Allocation a = MaxQualityAllocator().allocate(p);
  // Optimal: take task 1 alone (p ≈ 0.95); per-time greedy would take task
  // 0 first and then lack capacity for task 1.
  EXPECT_TRUE(a.is_assigned(0, 1));
}

// Single-user instances reduce to knapsack (the paper's NP-hardness proof);
// compare the greedy + extra pass against the exact DP optimum.
class KnapsackComparisonSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackComparisonSweep, WithinHalfOfOptimum) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  const std::size_t tasks = 12;
  AllocationProblem p;
  p.expertise.assign(1, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  p.task_time.resize(tasks);
  std::vector<double> values(tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    p.expertise(0, j) = rng.uniform(0.1, 10.0);
    p.task_time[j] = rng.uniform(0.2, 4.0);
    values[j] = stats::accuracy_probability(p.expertise(0, j), 0.1);
  }
  p.user_capacity = {6.0};

  const Allocation a = MaxQualityAllocator().allocate(p);
  const double greedy_value = allocation_objective(p, a, 0.1);
  const KnapsackSolution optimal =
      knapsack_exact(values, p.task_time, 6.0, 4000);
  EXPECT_GE(greedy_value, 0.5 * optimal.value - 1e-9) << "seed " << seed;
  // The DP rounds weights up, so its reported optimum can sit slightly
  // below the continuous one the greedy solves; allow that slack.
  EXPECT_LE(greedy_value, optimal.value * 1.02 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackComparisonSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace eta2::alloc
