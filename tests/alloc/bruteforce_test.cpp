#include "alloc/bruteforce.h"

#include <gtest/gtest.h>

#include <numeric>

#include "alloc/max_quality.h"
#include "common/rng.h"

namespace eta2::alloc {
namespace {

constexpr double kEpsilon = 0.1;

AllocationProblem random_tiny(std::uint64_t seed) {
  Rng rng(seed);
  AllocationProblem p;
  const std::size_t users = 3;
  const std::size_t tasks = 4;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (double& u : p.expertise.data()) u = rng.uniform(0.2, 6.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 3.0);
  p.user_capacity.assign(users, rng.uniform(2.0, 5.0));
  return p;
}

TEST(BruteForceTest, RejectsLargeInstances) {
  AllocationProblem p;
  p.expertise.assign(5, 5, 1.0);
  p.task_column.resize(5);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  p.task_time.assign(5, 1.0);
  p.user_capacity.assign(5, 1.0);
  EXPECT_THROW(optimal_allocation_bruteforce(p, kEpsilon),
               std::invalid_argument);
}

TEST(BruteForceTest, SaturatesWhenCapacityAllows) {
  AllocationProblem p;
  p.expertise.assign(2, 2, 2.0);
  p.task_column = {0, 1};
  p.task_time.assign(2, 1.0);
  p.user_capacity.assign(2, 10.0);
  const BruteForceResult r = optimal_allocation_bruteforce(p, kEpsilon);
  // Monotone objective: the optimum takes every pair.
  EXPECT_EQ(r.allocation.pair_count(), 4u);
}

TEST(BruteForceTest, RespectsCapacity) {
  const AllocationProblem p = random_tiny(7);
  const BruteForceResult r = optimal_allocation_bruteforce(p, kEpsilon);
  EXPECT_TRUE(respects_capacity(p, r.allocation));
}

// The headline property: the greedy + ½-approx pass achieves at least half
// of the true multi-user optimum (paper §5.1.2). In practice it is usually
// much closer; assert the guarantee.
class GreedyVsOptimalSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyVsOptimalSweep, GreedyWithinHalfOfTrueOptimum) {
  const AllocationProblem p = random_tiny(GetParam());
  const BruteForceResult optimal = optimal_allocation_bruteforce(p, kEpsilon);
  const Allocation greedy = MaxQualityAllocator().allocate(p);
  const double greedy_objective = allocation_objective(p, greedy, kEpsilon);
  EXPECT_GE(greedy_objective, 0.5 * optimal.objective - 1e-12)
      << "seed " << GetParam();
  EXPECT_LE(greedy_objective, optimal.objective + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyVsOptimalSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace eta2::alloc
