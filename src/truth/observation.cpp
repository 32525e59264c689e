#include "truth/observation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/error.h"

namespace eta2::truth {

ObservationSet::ObservationSet(std::size_t user_count, std::size_t task_count)
    : user_count_(user_count),
      per_task_(task_count),
      tasks_answered_(user_count, 0) {}

void ObservationSet::add(TaskId task, UserId user, double value) {
  require(task < per_task_.size(), "ObservationSet::add: task out of range");
  require(user < user_count_, "ObservationSet::add: user out of range");
  require(!has_observation(task, user),
          "ObservationSet::add: duplicate observation for (task, user)");
  per_task_[task].push_back(Observation{user, value});
  ++tasks_answered_[user];
  ++total_;
}

std::span<const Observation> ObservationSet::for_task(TaskId task) const {
  require(task < per_task_.size(), "ObservationSet::for_task: task out of range");
  return per_task_[task];
}

bool ObservationSet::has_observation(TaskId task, UserId user) const {
  require(task < per_task_.size(),
          "ObservationSet::has_observation: task out of range");
  const auto& obs = per_task_[task];
  return std::any_of(obs.begin(), obs.end(),
                     [user](const Observation& o) { return o.user == user; });
}

std::size_t ObservationSet::tasks_answered(UserId user) const {
  require(user < user_count_, "ObservationSet::tasks_answered: user out of range");
  return tasks_answered_[user];
}

double ObservationSet::task_mean(TaskId task) const {
  const auto obs = for_task(task);
  require(!obs.empty(), "ObservationSet::task_mean: no observations");
  double sum = 0.0;
  for (const Observation& o : obs) sum += o.value;
  return sum / static_cast<double>(obs.size());
}

double ObservationSet::task_stddev(TaskId task) const {
  const auto obs = for_task(task);
  if (obs.size() < 2) return 0.0;
  const double m = task_mean(task);
  double sum = 0.0;
  for (const Observation& o : obs) sum += (o.value - m) * (o.value - m);
  return std::sqrt(sum / static_cast<double>(obs.size()));
}

UserMajorObservations::UserMajorObservations(const ObservationSet& data)
    : offset_(data.user_count() + 1, 0), entries_(data.total_observations()) {
  const std::size_t n = data.user_count();
  const std::size_t m = data.task_count();
  for (TaskId j = 0; j < m; ++j) {
    for (const Observation& o : data.for_task(j)) ++offset_[o.user + 1];
  }
  for (UserId i = 0; i < n; ++i) offset_[i + 1] += offset_[i];
  // Filling in ascending task order is what keeps every user's entries
  // task-ascending.
  std::vector<std::size_t> cursor(offset_.begin(), offset_.end() - 1);
  for (TaskId j = 0; j < m; ++j) {
    for (const Observation& o : data.for_task(j)) {
      entries_[cursor[o.user]++] = Entry{j, o.value};
    }
  }
  // CSR shape invariants: the prefix sum covers exactly the observation
  // count and every user's cursor landed on the next user's offset.
  ETA2_ENSURES(offset_[n] == entries_.size());
  for (UserId i = 0; i < n; ++i) ETA2_ASSERT(cursor[i] == offset_[i + 1]);
}

}  // namespace eta2::truth
