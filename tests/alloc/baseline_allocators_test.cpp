#include "alloc/baseline_allocators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eta2::alloc {
namespace {

AllocationProblem uniform_problem(std::size_t users, std::size_t tasks,
                                  double task_time = 1.0,
                                  double capacity = 5.0) {
  AllocationProblem p;
  p.expertise.assign(users, tasks, 1.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  p.task_time.assign(tasks, task_time);
  p.user_capacity.assign(users, capacity);
  return p;
}

TEST(RandomAllocatorTest, RespectsCapacity) {
  const AllocationProblem p = uniform_problem(6, 30);
  Rng rng(1);
  const Allocation a = RandomAllocator().allocate(p, rng);
  EXPECT_TRUE(respects_capacity(p, a));
  // Capacity 5 with unit tasks: every user carries exactly 5 tasks
  // (30 tasks are plenty).
  for (UserId i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(a.used_time(i), 5.0);
  }
}

TEST(RandomAllocatorTest, DeterministicGivenRngState) {
  const AllocationProblem p = uniform_problem(4, 10);
  Rng rng_a(9);
  Rng rng_b(9);
  const Allocation a = RandomAllocator().allocate(p, rng_a);
  const Allocation b = RandomAllocator().allocate(p, rng_b);
  for (TaskId j = 0; j < 10; ++j) {
    EXPECT_EQ(std::vector<UserId>(a.users_of(j).begin(), a.users_of(j).end()),
              std::vector<UserId>(b.users_of(j).begin(), b.users_of(j).end()));
  }
}

// The allocator shuffles compact pair indices i·m + j; shuffling the
// (user, task) pair list itself with the same generator must visit the
// pairs in the same order and leave the generator in the same state.
TEST(RandomAllocatorTest, MatchesShuffledPairListReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng setup(seed);
    const std::size_t n = 3 + seed;
    const std::size_t m = 5 + 3 * seed;
    AllocationProblem p = uniform_problem(n, m);
    for (double& t : p.task_time) t = setup.uniform(0.5, 2.0);
    for (double& c : p.user_capacity) c = setup.uniform(1.0, 6.0);
    const std::size_t cap = seed % 2 == 0 ? 2 : 0;

    Rng reference_rng(seed + 50);
    Allocation reference(n, m);
    std::vector<double> remaining = p.user_capacity;
    std::vector<std::size_t> per_task(m, 0);
    std::vector<std::pair<UserId, TaskId>> pairs;
    for (UserId i = 0; i < n; ++i) {
      for (TaskId j = 0; j < m; ++j) pairs.emplace_back(i, j);
    }
    reference_rng.shuffle(pairs);
    for (const auto& [i, j] : pairs) {
      if (cap != 0 && per_task[j] >= cap) continue;
      if (remaining[i] < p.task_time[j]) continue;
      reference.assign(i, j, p.task_time[j], p.cost_of(j));
      remaining[i] -= p.task_time[j];
      ++per_task[j];
    }

    Rng rng(seed + 50);
    const Allocation a =
        RandomAllocator(RandomAllocator::Options{cap}).allocate(p, rng);
    ASSERT_EQ(a.pair_count(), reference.pair_count()) << "seed " << seed;
    for (TaskId j = 0; j < m; ++j) {
      const auto got = a.users_of(j);
      const auto want = reference.users_of(j);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "seed " << seed << " task " << j;
    }
    EXPECT_EQ(rng(), reference_rng());
  }
}

TEST(RandomAllocatorTest, DifferentSeedsGiveDifferentAllocations) {
  const AllocationProblem p = uniform_problem(6, 30);
  Rng rng_a(1);
  Rng rng_b(2);
  const Allocation a = RandomAllocator().allocate(p, rng_a);
  const Allocation b = RandomAllocator().allocate(p, rng_b);
  bool any_difference = false;
  for (TaskId j = 0; j < 30 && !any_difference; ++j) {
    std::vector<UserId> ua(a.users_of(j).begin(), a.users_of(j).end());
    std::vector<UserId> ub(b.users_of(j).begin(), b.users_of(j).end());
    std::sort(ua.begin(), ua.end());
    std::sort(ub.begin(), ub.end());
    any_difference = ua != ub;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomAllocatorTest, MaxUsersPerTaskCap) {
  const AllocationProblem p = uniform_problem(10, 4, 1.0, 10.0);
  RandomAllocator::Options options;
  options.max_users_per_task = 2;
  Rng rng(3);
  const Allocation a = RandomAllocator(options).allocate(p, rng);
  for (TaskId j = 0; j < 4; ++j) {
    EXPECT_LE(a.users_of(j).size(), 2u);
  }
}

TEST(RandomAllocatorTest, SpreadsTasksAcrossUsers) {
  const AllocationProblem p = uniform_problem(20, 20, 1.0, 3.0);
  Rng rng(5);
  const Allocation a = RandomAllocator().allocate(p, rng);
  // All users participate (capacity 3 each, 60 slots for 20x20 pairs).
  std::size_t users_with_work = 0;
  for (UserId i = 0; i < 20; ++i) {
    if (a.used_time(i) > 0.0) ++users_with_work;
  }
  EXPECT_GE(users_with_work, 18u);
}

TEST(ReliabilityGreedyTest, HighReliabilityUsersGetShortTasksFirst) {
  AllocationProblem p;
  p.expertise.assign(2, 2, 1.0);
  p.task_column = {0, 1};
  p.task_time = {3.0, 1.0};   // task 1 is shorter
  p.user_capacity = {1.0, 4.0};  // user 0 can only fit the short task
  const std::vector<double> reliability = {0.9, 0.1};
  const Allocation a = ReliabilityGreedyAllocator().allocate(p, reliability);
  // The reliable user 0 must hold the short task.
  EXPECT_TRUE(a.is_assigned(0, 1));
  EXPECT_FALSE(a.is_assigned(0, 0));
  EXPECT_TRUE(respects_capacity(p, a));
}

TEST(ReliabilityGreedyTest, RoundRobinCoversTasksBeforeDuplicating) {
  const AllocationProblem p = uniform_problem(4, 4, 1.0, 4.0);
  const std::vector<double> reliability = {0.4, 0.3, 0.2, 0.1};
  const Allocation a = ReliabilityGreedyAllocator().allocate(p, reliability);
  // Full capacity: every user ends up on every task.
  for (TaskId j = 0; j < 4; ++j) {
    EXPECT_EQ(a.users_of(j).size(), 4u);
  }
}

TEST(ReliabilityGreedyTest, CapacityZeroUserGetsNothing) {
  AllocationProblem p = uniform_problem(2, 3);
  p.user_capacity[0] = 0.0;
  const std::vector<double> reliability = {1.0, 0.5};
  const Allocation a = ReliabilityGreedyAllocator().allocate(p, reliability);
  EXPECT_DOUBLE_EQ(a.used_time(0), 0.0);
  EXPECT_GT(a.used_time(1), 0.0);
}

// simulate_baseline's problem: one zero column that every task maps to.
// Neither allocator reads expertise, so it allocates what the dense n × m
// zero plane gives, and an empty day (no tasks) is still a valid problem.
TEST(BaselineAllocatorsTest, ZeroColumnProblemMatchesDenseZeroPlane) {
  for (const std::size_t tasks : {0u, 1u, 7u}) {
    AllocationProblem dense = uniform_problem(5, tasks, 1.5, 4.0);
    dense.expertise.assign(5, tasks, 0.0);
    AllocationProblem mapped = dense;
    mapped.expertise.assign(5, 1, 0.0);
    mapped.task_column.assign(tasks, 0);
    const std::vector<double> reliability = {0.5, 0.9, 0.1, 0.7, 0.3};
    const auto pairs = [tasks](const Allocation& a) {
      std::vector<std::vector<UserId>> out;
      for (TaskId j = 0; j < tasks; ++j) {
        out.emplace_back(a.users_of(j).begin(), a.users_of(j).end());
      }
      return out;
    };
    Rng rng_dense(11);
    Rng rng_mapped(11);
    const Allocation random_dense =
        RandomAllocator().allocate(dense, rng_dense);
    const Allocation random_mapped =
        RandomAllocator().allocate(mapped, rng_mapped);
    EXPECT_EQ(pairs(random_mapped), pairs(random_dense)) << tasks << " tasks";
    EXPECT_EQ(rng_mapped(), rng_dense());
    const Allocation greedy_dense =
        ReliabilityGreedyAllocator().allocate(dense, reliability);
    const Allocation greedy_mapped =
        ReliabilityGreedyAllocator().allocate(mapped, reliability);
    EXPECT_EQ(pairs(greedy_mapped), pairs(greedy_dense)) << tasks << " tasks";
    EXPECT_EQ(greedy_mapped.pair_count(), greedy_dense.pair_count());
  }
}

TEST(ReliabilityGreedyTest, MaxUsersPerTaskCap) {
  const AllocationProblem p = uniform_problem(6, 2, 1.0, 2.0);
  ReliabilityGreedyAllocator::Options options;
  options.max_users_per_task = 3;
  const std::vector<double> reliability(6, 1.0);
  const Allocation a =
      ReliabilityGreedyAllocator(options).allocate(p, reliability);
  for (TaskId j = 0; j < 2; ++j) {
    EXPECT_LE(a.users_of(j).size(), 3u);
  }
}

TEST(ReliabilityGreedyTest, RejectsReliabilitySizeMismatch) {
  const AllocationProblem p = uniform_problem(3, 2);
  const std::vector<double> wrong_size = {1.0, 0.5};
  EXPECT_THROW(ReliabilityGreedyAllocator().allocate(p, wrong_size),
               std::invalid_argument);
}

TEST(ReliabilityGreedyTest, DeterministicWithTies) {
  const AllocationProblem p = uniform_problem(4, 6, 1.0, 2.0);
  const std::vector<double> reliability(4, 0.5);  // all tied
  const Allocation a = ReliabilityGreedyAllocator().allocate(p, reliability);
  const Allocation b = ReliabilityGreedyAllocator().allocate(p, reliability);
  for (TaskId j = 0; j < 6; ++j) {
    EXPECT_EQ(std::vector<UserId>(a.users_of(j).begin(), a.users_of(j).end()),
              std::vector<UserId>(b.users_of(j).begin(), b.users_of(j).end()));
  }
}

}  // namespace
}  // namespace eta2::alloc
