#include "truth/task_confidence.h"

#include <cmath>

#include "common/error.h"

namespace eta2::truth {

std::vector<std::optional<stats::Interval>> task_confidence_intervals(
    const MleResult& fit, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, double alpha) {
  require(fit.mu.size() == data.task_count(),
          "task_confidence_intervals: fit/task count mismatch");
  require(task_domain.size() == data.task_count(),
          "task_confidence_intervals: task_domain size mismatch");
  require(alpha > 0.0 && alpha < 1.0,
          "task_confidence_intervals: alpha in (0,1)");

  std::vector<std::optional<stats::Interval>> intervals(data.task_count());
  std::vector<double> expertise;
  for (TaskId j = 0; j < data.task_count(); ++j) {
    if (std::isnan(fit.mu[j]) || std::isnan(fit.sigma[j]) ||
        fit.sigma[j] <= 0.0) {
      continue;
    }
    const DomainIndex k = task_domain[j];
    expertise.clear();
    for (const Observation& o : data.for_task(j)) {
      require(o.user < fit.expertise.rows() && k < fit.expertise.cols(),
              "task_confidence_intervals: domain out of range");
      expertise.push_back(fit.expertise(o.user, k));
    }
    const double info =
        stats::truth_fisher_information(expertise, fit.sigma[j]);
    if (info <= 0.0) continue;
    intervals[j] = stats::truth_confidence_interval(fit.mu[j], expertise,
                                                    fit.sigma[j], alpha);
  }
  return intervals;
}

}  // namespace eta2::truth
