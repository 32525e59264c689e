// Test-only reference for the max-quality greedy: a literal Algorithm 1
// (paper §5.1) with a full O(n·m) efficiency scan per selection, scalar Φ,
// no caches and no class plane; u_ij is read per cell through the task's
// column (AllocationProblem::u). The equivalence suites compare
// greedy_extend / MaxQualityAllocator against it pair for pair.
#ifndef ETA2_TESTS_ALLOC_GREEDY_ORACLE_H
#define ETA2_TESTS_ALLOC_GREEDY_ORACLE_H

#include <cstddef>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/max_quality.h"
#include "stats/normal.h"

namespace eta2::alloc {

// Extends `allocation` exactly as greedy_extend's contract describes:
// remaining capacity and miss probabilities are seeded from the pairs it
// already holds (tasks ascending, each task's users in assignment order),
// and selection stops once this call's added cost reaches options.cost_cap.
// Each round scans tasks ascending, users ascending within a task, and
// keeps the first strict maximum — the tie-break greedy_extend reproduces.
// Counts one gain evaluation per scanned (user, task) cell; heap_pops stay
// 0. Returns the number of added pairs.
inline std::size_t naive_greedy(const AllocationProblem& p,
                                const GreedyOptions& options,
                                Allocation& allocation,
                                GreedyStats* stats = nullptr) {
  const std::size_t n = p.user_count();
  const std::size_t m = p.task_count();
  const auto prob = [&](UserId i, TaskId j) {
    return stats::accuracy_probability(p.u(i, j), options.epsilon);
  };
  GreedyStats counters;
  std::vector<double> remaining(n);
  for (UserId i = 0; i < n; ++i) {
    remaining[i] = p.user_capacity[i] - allocation.used_time(i);
  }
  std::vector<double> miss(m, 1.0);
  for (TaskId j = 0; j < m; ++j) {
    for (const UserId i : allocation.users_of(j)) miss[j] *= 1.0 - prob(i, j);
  }
  std::size_t added = 0;
  double spent = 0.0;
  while (spent < options.cost_cap) {
    double best = 0.0;
    UserId best_user = n;
    TaskId best_task = m;
    for (TaskId j = 0; j < m; ++j) {
      for (UserId i = 0; i < n; ++i) {
        ++counters.gain_evaluations;
        if (allocation.is_assigned(i, j)) continue;
        if (remaining[i] < p.task_time[j]) continue;
        const double gain = prob(i, j) * miss[j];
        const double eff =
            options.efficiency_per_time ? gain / p.task_time[j] : gain;
        if (eff > best) {
          best = eff;
          best_user = i;
          best_task = j;
        }
      }
    }
    if (best_task == m) break;
    allocation.assign(best_user, best_task, p.task_time[best_task],
                      p.cost_of(best_task));
    remaining[best_user] -= p.task_time[best_task];
    miss[best_task] *= 1.0 - prob(best_user, best_task);
    spent += p.cost_of(best_task);
    ++counters.selections;
    ++added;
  }
  if (stats != nullptr) *stats = counters;
  return added;
}

}  // namespace eta2::alloc

#endif  // ETA2_TESTS_ALLOC_GREEDY_ORACLE_H
