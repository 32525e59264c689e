// Property tests of the max-quality objective (paper Eq. 12): the proof in
// §5.1.2 relies on it being monotone and submodular in the set of selected
// user-task pairs; these tests check both properties on random instances.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "alloc/allocation.h"
#include "common/rng.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

constexpr double kEpsilon = 0.1;

AllocationProblem random_problem(std::size_t users, std::size_t tasks,
                                 std::uint64_t seed) {
  Rng rng(seed);
  AllocationProblem p;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (double& u : p.expertise.data()) u = rng.uniform(0.0, 5.0);
  p.task_time.assign(tasks, 1.0);
  p.user_capacity.assign(users, 1e9);  // capacity plays no role here
  return p;
}

Allocation from_pairs(const AllocationProblem& p,
                      const std::vector<std::pair<UserId, TaskId>>& pairs) {
  Allocation a(p.user_count(), p.task_count());
  for (const auto& [i, j] : pairs) a.assign(i, j, p.task_time[j], 1.0);
  return a;
}

class ObjectivePropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectivePropertySweep, MonotoneAndSubmodular) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 37 + 5);
  const std::size_t users = 5;
  const std::size_t tasks = 4;
  const AllocationProblem p = random_problem(users, tasks, seed);

  // Random nested pair sets A ⊆ B and an extra pair x ∉ B.
  std::vector<std::pair<UserId, TaskId>> all_pairs;
  for (UserId i = 0; i < users; ++i) {
    for (TaskId j = 0; j < tasks; ++j) all_pairs.emplace_back(i, j);
  }
  rng.shuffle(all_pairs);
  const std::size_t a_size = 3;
  const std::size_t b_size = 8;
  const std::vector<std::pair<UserId, TaskId>> set_a(all_pairs.begin(),
                                                     all_pairs.begin() + a_size);
  const std::vector<std::pair<UserId, TaskId>> set_b(all_pairs.begin(),
                                                     all_pairs.begin() + b_size);
  const auto x = all_pairs[b_size];  // not in A or B

  const double f_a = allocation_objective(p, from_pairs(p, set_a), kEpsilon);
  const double f_b = allocation_objective(p, from_pairs(p, set_b), kEpsilon);

  auto with = [](std::vector<std::pair<UserId, TaskId>> s,
                 std::pair<UserId, TaskId> extra) {
    s.push_back(extra);
    return s;
  };
  const double f_ax =
      allocation_objective(p, from_pairs(p, with(set_a, x)), kEpsilon);
  const double f_bx =
      allocation_objective(p, from_pairs(p, with(set_b, x)), kEpsilon);

  // Monotone: adding a pair never lowers the objective.
  EXPECT_GE(f_ax, f_a - 1e-12);
  EXPECT_GE(f_bx, f_b - 1e-12);
  EXPECT_GE(f_b, f_a - 1e-12);  // A ⊆ B
  // Submodular: the marginal gain of x shrinks on the larger set.
  EXPECT_GE((f_ax - f_a) - (f_bx - f_b), -1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectivePropertySweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// The exact marginal-gain identity used by Algorithm 1's efficiency
// (Eq. 16): adding user i to task j increases the objective by
// p_ij · (1 − p_j).
TEST(ObjectiveGainTest, MatchesEq16) {
  const AllocationProblem p = random_problem(4, 3, 99);
  Allocation a(4, 3);
  a.assign(0, 1, 1.0, 1.0);
  a.assign(2, 1, 1.0, 1.0);
  const double before = allocation_objective(p, a, kEpsilon);
  const double p_j = task_success_probability(p, a, 1, kEpsilon);
  const double p_ij = stats::accuracy_probability(p.expertise(3, 1), kEpsilon);
  a.assign(3, 1, 1.0, 1.0);
  const double after = allocation_objective(p, a, kEpsilon);
  EXPECT_NEAR(after - before, p_ij * (1.0 - p_j), 1e-12);
}

}  // namespace
}  // namespace eta2::alloc
