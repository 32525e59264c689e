// Oracle test: the lazy greedy (class plane, CELF heap, per-task cursors)
// must pick exactly the same pairs as the literal Algorithm 1 in
// greedy_oracle.h, which recomputes every pair's efficiency each round.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "alloc/max_quality.h"
#include "common/rng.h"
#include "greedy_oracle.h"

namespace eta2::alloc {
namespace {

Allocation naive_allocation(const AllocationProblem& p,
                            const GreedyOptions& options) {
  Allocation a(p.user_count(), p.task_count());
  naive_greedy(p, options, a);
  return a;
}

bool same_allocation(const Allocation& a, const Allocation& b) {
  if (a.task_count() != b.task_count() || a.user_count() != b.user_count()) {
    return false;
  }
  for (TaskId j = 0; j < a.task_count(); ++j) {
    std::vector<UserId> ua(a.users_of(j).begin(), a.users_of(j).end());
    std::vector<UserId> ub(b.users_of(j).begin(), b.users_of(j).end());
    std::sort(ua.begin(), ua.end());
    std::sort(ub.begin(), ub.end());
    if (ua != ub) return false;
  }
  return true;
}

class GreedyOracleSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(GreedyOracleSweep, MatchesNaiveImplementation) {
  const auto [seed, per_time] = GetParam();
  Rng rng(seed * 101 + 7);
  const std::size_t users = 7;
  const std::size_t tasks = 11;
  AllocationProblem p;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (double& u : p.expertise.data()) u = rng.uniform(0.0, 4.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.5);
  p.user_capacity.resize(users);
  for (double& c : p.user_capacity) c = rng.uniform(2.0, 8.0);

  GreedyOptions options;
  options.efficiency_per_time = per_time;
  Allocation fast(users, tasks);
  greedy_extend(p, options, fast);
  const Allocation naive = naive_allocation(p, options);
  EXPECT_TRUE(same_allocation(fast, naive)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GreedyOracleSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 13),
                       ::testing::Bool()));

TEST(GreedyOracleTest, CostCapMatchesToo) {
  Rng rng(99);
  const std::size_t users = 5;
  const std::size_t tasks = 8;
  AllocationProblem p;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (double& u : p.expertise.data()) u = rng.uniform(0.5, 3.0);
  p.task_time.assign(tasks, 1.0);
  p.task_cost.resize(tasks);
  for (double& c : p.task_cost) c = rng.uniform(0.5, 2.0);
  p.user_capacity.assign(users, 5.0);

  GreedyOptions options;
  options.cost_cap = 6.0;
  Allocation fast(users, tasks);
  greedy_extend(p, options, fast);
  const Allocation naive = naive_allocation(p, options);
  EXPECT_TRUE(same_allocation(fast, naive));
}

}  // namespace
}  // namespace eta2::alloc
