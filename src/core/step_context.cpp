#include "core/step_context.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace eta2::core {

void StepHealth::merge(const StepHealth& other) {
  pairs_asked += other.pairs_asked;
  observations_accepted += other.observations_accepted;
  rejected_nonfinite += other.rejected_nonfinite;
  rejected_out_of_range += other.rejected_out_of_range;
  silent_pairs += other.silent_pairs;
  identifier_failed = identifier_failed || other.identifier_failed;
  domain_fallback_tasks += other.domain_fallback_tasks;
  truth_fallback = truth_fallback || other.truth_fallback;
  quality_unmet_tasks += other.quality_unmet_tasks;
  empty_batch = empty_batch || other.empty_batch;
  quarantined_batches += other.quarantined_batches;
  domain_count = std::max(domain_count, other.domain_count);
  truth_iterations += other.truth_iterations;
  greedy_selections += other.greedy_selections;
  greedy_gain_evaluations += other.greedy_gain_evaluations;
  greedy_heap_pops += other.greedy_heap_pops;
  // Suspected/quarantined are per-step censuses, not event counts — the
  // aggregate keeps the worst step's view; events accumulate.
  suspected_users = std::max(suspected_users, other.suspected_users);
  quarantined_users = std::max(quarantined_users, other.quarantined_users);
  readmitted_users += other.readmitted_users;
  flagged_cliques += other.flagged_cliques;
  dropped_quarantined += other.dropped_quarantined;
  trimmed_observations += other.trimmed_observations;
  if (trust_histogram.size() < other.trust_histogram.size()) {
    trust_histogram.resize(other.trust_histogram.size(), 0);
  }
  for (std::size_t b = 0; b < other.trust_histogram.size(); ++b) {
    trust_histogram[b] += other.trust_histogram[b];
  }
}

CollectFn sanitizing_collect(const CollectFn& inner, double abs_limit,
                             StepHealth& health) {
  require(inner != nullptr, "sanitizing_collect: callback required");
  require(abs_limit >= 0.0, "sanitizing_collect: abs_limit >= 0");
  return [&inner, abs_limit, &health](
             std::size_t task, std::size_t user) -> std::optional<double> {
    ++health.pairs_asked;
    const std::optional<double> value = inner(task, user);
    if (!value.has_value()) {
      ++health.silent_pairs;
      return std::nullopt;
    }
    if (!std::isfinite(*value)) {
      ++health.rejected_nonfinite;
      return std::nullopt;
    }
    if (abs_limit > 0.0 && std::fabs(*value) > abs_limit) {
      ++health.rejected_out_of_range;
      return std::nullopt;
    }
    ++health.observations_accepted;
    return value;
  };
}

void collect_observations(const alloc::Allocation& allocation,
                          const CollectFn& collect, truth::ObservationSet& out,
                          std::span<const std::size_t> task_ids) {
  require(collect != nullptr, "collect_observations: callback required");
  require(task_ids.empty() || task_ids.size() == allocation.task_count(),
          "collect_observations: task_ids size mismatch");
  for (std::size_t j = 0; j < allocation.task_count(); ++j) {
    const std::size_t target = task_ids.empty() ? j : task_ids[j];
    for (const std::size_t i : allocation.users_of(j)) {
      if (const auto value = collect(j, i)) out.add(target, i, *value);
    }
  }
}

void collect_observations(const alloc::Allocation& allocation,
                          const CollectFn& collect, truth::ObservationSet& out,
                          StepHealth& health, double abs_limit,
                          std::span<const std::size_t> task_ids) {
  const CollectFn safe = sanitizing_collect(collect, abs_limit, health);
  collect_observations(allocation, safe, out, task_ids);
}

}  // namespace eta2::core
