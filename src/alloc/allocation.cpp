#include "alloc/allocation.h"

#include <algorithm>

#include "common/check.h"
#include "common/error.h"
#include "stats/normal.h"

namespace eta2::alloc {

void AllocationProblem::validate() const {
  const std::size_t n = user_count();
  const std::size_t m = task_count();
  require(user_capacity.size() == n, "AllocationProblem: capacity size != n");
  require(task_column.size() == m,
          "AllocationProblem: task_column size != m");
  for (const std::size_t c : task_column) {
    require(c < expertise.cols(),
            "AllocationProblem: task column out of range");
  }
  for (const double u : expertise.data()) {
    require(u >= 0.0, "AllocationProblem: expertise must be >= 0");
  }
  for (const double t : task_time) {
    require(t > 0.0, "AllocationProblem: task time must be > 0");
  }
  for (const double cap : user_capacity) {
    require(cap >= 0.0, "AllocationProblem: capacity must be >= 0");
  }
  if (!task_cost.empty()) {
    require(task_cost.size() == m, "AllocationProblem: cost size != m");
    for (const double c : task_cost) {
      require(c >= 0.0, "AllocationProblem: cost must be >= 0");
    }
  }
}

Allocation::Allocation(std::size_t user_count, std::size_t task_count)
    : task_users_(task_count), used_time_(user_count, 0.0) {}

void Allocation::assign(UserId user, TaskId task, double time, double cost) {
  require(task < task_users_.size(), "Allocation::assign: task out of range");
  require(user < used_time_.size(), "Allocation::assign: user out of range");
  require(!is_assigned(user, task), "Allocation::assign: duplicate pair");
  // Negative time or cost would silently *free* budget in the books.
  ETA2_EXPECTS(time >= 0.0 && cost >= 0.0);
  task_users_[task].push_back(user);
  used_time_[user] += time;
  total_cost_ += cost;
  ++pair_count_;
}

bool Allocation::is_assigned(UserId user, TaskId task) const {
  require(task < task_users_.size(), "Allocation::is_assigned: task out of range");
  const auto& users = task_users_[task];
  return std::find(users.begin(), users.end(), user) != users.end();
}

std::span<const UserId> Allocation::users_of(TaskId task) const {
  require(task < task_users_.size(), "Allocation::users_of: task out of range");
  return task_users_[task];
}

double Allocation::used_time(UserId user) const {
  require(user < used_time_.size(), "Allocation::used_time: user out of range");
  return used_time_[user];
}

double task_success_probability(const AllocationProblem& problem,
                                const Allocation& allocation, TaskId task,
                                double epsilon) {
  double miss = 1.0;
  for (const UserId i : allocation.users_of(task)) {
    const double p_ij = stats::accuracy_probability(problem.u(i, task), epsilon);
    // p_ij = Φ(ε·u) − Φ(−ε·u) is a probability by construction; outside
    // [0, 1] the greedy efficiency ordering loses its meaning (Alg. 1).
    ETA2_ASSERT(p_ij >= 0.0 && p_ij <= 1.0);
    miss *= 1.0 - p_ij;
  }
  ETA2_ENSURES(miss >= 0.0 && miss <= 1.0);
  return 1.0 - miss;
}

double allocation_objective(const AllocationProblem& problem,
                            const Allocation& allocation, double epsilon) {
  double total = 0.0;
  for (TaskId j = 0; j < problem.task_count(); ++j) {
    total += task_success_probability(problem, allocation, j, epsilon);
  }
  return total;
}

bool respects_capacity(const AllocationProblem& problem,
                       const Allocation& allocation) {
  for (UserId i = 0; i < problem.user_count(); ++i) {
    if (allocation.used_time(i) > problem.user_capacity[i]) return false;
  }
  return true;
}

}  // namespace eta2::alloc
