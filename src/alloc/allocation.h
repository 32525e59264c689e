// Task-allocation problem description and solution representation shared by
// every allocator (paper §5).
#ifndef ETA2_ALLOC_ALLOCATION_H
#define ETA2_ALLOC_ALLOCATION_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.h"

namespace eta2::alloc {

using UserId = std::size_t;
using TaskId = std::size_t;

// One allocation round's inputs.
//
// u_ij, user i's (estimated) expertise in task j's domain, is
// `expertise(i, task_column[j])`: the plane holds one n-entry column per
// expertise column (the step pipeline passes its n × D user × domain
// snapshot) and `task_column` maps each task to its column. Expertise is per
// domain (Eq. 6), so tasks of one domain share a column and the allocators
// build their per-column work once per column, not once per task. The
// matrix is a single contiguous row-major buffer, so allocators scan rows
// without pointer chasing.
struct AllocationProblem {
  Matrix expertise;                            // n x K, u >= 0
  std::vector<std::size_t> task_column;        // per task, < K
  std::vector<double> task_time;               // t_j > 0, per task
  std::vector<double> user_capacity;           // T_i >= 0, per user
  std::vector<double> task_cost;               // c_j >= 0; empty => all 1.0

  [[nodiscard]] std::size_t user_count() const { return expertise.rows(); }
  [[nodiscard]] std::size_t task_count() const { return task_time.size(); }
  // u_ij.
  [[nodiscard]] double u(UserId i, TaskId j) const {
    return expertise(i, task_column[j]);
  }
  [[nodiscard]] double cost_of(TaskId j) const {
    return task_cost.empty() ? 1.0 : task_cost[j];
  }
  // Throws std::invalid_argument when shapes/values are inconsistent.
  void validate() const;
};

// s_ij as adjacency lists: for each task, the users it was allocated to.
class Allocation {
 public:
  Allocation() = default;
  Allocation(std::size_t user_count, std::size_t task_count);

  [[nodiscard]] std::size_t user_count() const { return used_time_.size(); }
  [[nodiscard]] std::size_t task_count() const { return task_users_.size(); }

  // Adds the pair (user, task); enforces no duplicates. `time` and `cost`
  // update the per-user load and total cost books.
  void assign(UserId user, TaskId task, double time, double cost);

  [[nodiscard]] bool is_assigned(UserId user, TaskId task) const;
  [[nodiscard]] std::span<const UserId> users_of(TaskId task) const;
  [[nodiscard]] double used_time(UserId user) const;
  [[nodiscard]] double total_cost() const { return total_cost_; }
  [[nodiscard]] std::size_t pair_count() const { return pair_count_; }

 private:
  std::vector<std::vector<UserId>> task_users_;
  std::vector<double> used_time_;
  double total_cost_ = 0.0;
  std::size_t pair_count_ = 0;
};

// Paper Eq. 12 objective: Σ_j [1 − Π_{i in S_j} (1 − p_ij)] with
// p_ij = Φ(ε u_ij) − Φ(−ε u_ij).
[[nodiscard]] double allocation_objective(const AllocationProblem& problem,
                                          const Allocation& allocation,
                                          double epsilon);

// Per-task success probability p_j = 1 − Π (1 − p_ij) for one task.
[[nodiscard]] double task_success_probability(const AllocationProblem& problem,
                                              const Allocation& allocation,
                                              TaskId task, double epsilon);

// True when every user's assigned time fits its capacity (strict, Eq. 13).
[[nodiscard]] bool respects_capacity(const AllocationProblem& problem,
                                     const Allocation& allocation);

}  // namespace eta2::alloc

#endif  // ETA2_ALLOC_ALLOCATION_H
