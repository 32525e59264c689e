#include "alloc/baseline_allocators.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"

namespace eta2::alloc {

namespace {

// Every user-task pair as its compact index k = i·m + j, in the narrowest
// type that holds n·m, shuffled with the same Fisher-Yates draws a list of
// (i, j) pairs in the same initial order would get — so the visit order is
// identical at a quarter (uint32_t) or half (uint64_t) of the pair list's
// 16 bytes per pair.
template <typename Index>
std::vector<Index> shuffled_pair_order(std::size_t pairs, Rng& rng) {
  std::vector<Index> order(pairs);
  std::iota(order.begin(), order.end(), Index{0});
  rng.shuffle(order);
  return order;
}

}  // namespace

Allocation RandomAllocator::allocate(const AllocationProblem& problem,
                                     Rng& rng) const {
  problem.validate();
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  Allocation allocation(n, m);
  std::vector<double> remaining = problem.user_capacity;
  std::vector<std::size_t> per_task(m, 0);

  // Candidate pairs in random order; a pass may unlock nothing further
  // once capacities are exhausted, so a single shuffled pass over all pairs
  // (n*m) with feasibility checks suffices: any pair skipped for capacity
  // would also fail later since capacity only shrinks.
  const auto visit = [&](const auto& order) {
    for (const auto k : order) {
      const UserId i = static_cast<UserId>(k / m);
      const TaskId j = static_cast<TaskId>(k % m);
      if (options_.max_users_per_task != 0 &&
          per_task[j] >= options_.max_users_per_task) {
        continue;
      }
      if (remaining[i] < problem.task_time[j]) continue;
      allocation.assign(i, j, problem.task_time[j], problem.cost_of(j));
      remaining[i] -= problem.task_time[j];
      ++per_task[j];
    }
  };
  const std::size_t pairs = n * m;
  if (pairs <= std::numeric_limits<std::uint32_t>::max()) {
    visit(shuffled_pair_order<std::uint32_t>(pairs, rng));
  } else {
    visit(shuffled_pair_order<std::uint64_t>(pairs, rng));
  }
  return allocation;
}

Allocation ReliabilityGreedyAllocator::allocate(
    const AllocationProblem& problem, std::span<const double> reliability) const {
  problem.validate();
  const std::size_t n = problem.user_count();
  const std::size_t m = problem.task_count();
  require(reliability.size() == n,
          "ReliabilityGreedyAllocator: reliability size != user count");
  Allocation allocation(n, m);
  std::vector<double> remaining = problem.user_capacity;
  std::vector<std::size_t> per_task(m, 0);

  // Users in descending reliability; ties broken by id for determinism.
  std::vector<UserId> users(n);
  std::iota(users.begin(), users.end(), UserId{0});
  std::sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    if (reliability[a] != reliability[b]) return reliability[a] > reliability[b];
    return a < b;
  });
  // Tasks in ascending processing time.
  std::vector<TaskId> tasks(m);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  std::sort(tasks.begin(), tasks.end(), [&](TaskId a, TaskId b) {
    if (problem.task_time[a] != problem.task_time[b]) {
      return problem.task_time[a] < problem.task_time[b];
    }
    return a < b;
  });

  // Coverage rounds: each round gives every task (shortest first) one more
  // observer — the most reliable user that still fits it. Short tasks thus
  // get first claim on the high-reliability users' capacity, while coverage
  // stays even: no task reaches k+1 observers before every feasible task
  // has k.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const TaskId j : tasks) {
      if (options_.max_users_per_task != 0 &&
          per_task[j] >= options_.max_users_per_task) {
        continue;
      }
      for (const UserId i : users) {
        if (allocation.is_assigned(i, j)) continue;
        if (remaining[i] < problem.task_time[j]) continue;
        allocation.assign(i, j, problem.task_time[j], problem.cost_of(j));
        remaining[i] -= problem.task_time[j];
        ++per_task[j];
        progressed = true;
        break;  // one new observer per task per round
      }
    }
  }
  return allocation;
}

}  // namespace eta2::alloc
