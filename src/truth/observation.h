// Observation storage shared by every truth-analysis method: for each task,
// the list of (user, value) data points collected from the crowd.
#ifndef ETA2_TRUTH_OBSERVATION_H
#define ETA2_TRUTH_OBSERVATION_H

#include <cstddef>
#include <span>
#include <vector>

namespace eta2::truth {

using UserId = std::size_t;
using TaskId = std::size_t;

struct Observation {
  UserId user = 0;
  double value = 0.0;
};

// Dense per-task observation lists for a fixed (user count, task count)
// universe. ω_ij of the paper is `true` iff user i appears in task j's list.
class ObservationSet {
 public:
  ObservationSet(std::size_t user_count, std::size_t task_count);

  [[nodiscard]] std::size_t user_count() const { return user_count_; }
  [[nodiscard]] std::size_t task_count() const { return per_task_.size(); }

  // Records that `user` reported `value` for `task`. A user may report at
  // most once per task (enforced).
  void add(TaskId task, UserId user, double value);

  [[nodiscard]] std::span<const Observation> for_task(TaskId task) const;
  [[nodiscard]] bool has_observation(TaskId task, UserId user) const;
  [[nodiscard]] std::size_t total_observations() const { return total_; }

  // Number of distinct tasks the user reported on.
  [[nodiscard]] std::size_t tasks_answered(UserId user) const;

  // Plain mean and standard deviation of a task's values (0 stddev for < 2
  // observations). Used by baselines and for data normalization.
  [[nodiscard]] double task_mean(TaskId task) const;
  [[nodiscard]] double task_stddev(TaskId task) const;

 private:
  std::size_t user_count_;
  std::vector<std::vector<Observation>> per_task_;
  std::vector<std::size_t> tasks_answered_;
  std::size_t total_ = 0;
};

// User-major (CSR) index of one ObservationSet: of_user(i) lists user i's
// reports with tasks ascending. A per-user fan-out over this index feeds
// every (user, domain) accumulator cell its terms in the order a serial
// task-major loop adds them, so the sums are bit-identical to that loop at
// any thread count. The Eq. 6 pass of Eta2Mle::estimate and the Eq. 7–8
// pass of the dynamic update both run over it.
class UserMajorObservations {
 public:
  struct Entry {
    TaskId task = 0;
    double value = 0.0;
  };

  explicit UserMajorObservations(const ObservationSet& data);

  [[nodiscard]] std::size_t user_count() const { return offset_.size() - 1; }
  [[nodiscard]] std::span<const Entry> of_user(UserId user) const {
    return {entries_.data() + offset_[user],
            offset_[user + 1] - offset_[user]};
  }

 private:
  std::vector<std::size_t> offset_;  // user → first entry, plus end
  std::vector<Entry> entries_;
};

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_OBSERVATION_H
