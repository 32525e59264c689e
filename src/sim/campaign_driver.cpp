#include "sim/campaign_driver.h"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"
#include "text/faulty_embedder.h"

namespace eta2::sim {
namespace {

// Table-2 style assignment stats: #users per task and the mean TRUE
// expertise of the assigned users in the task's latent domain.
void fill_assignment_stats(const Dataset& dataset,
                           std::span<const std::size_t> task_ids,
                           const alloc::Allocation& allocation,
                           DayMetrics& metrics) {
  metrics.users_per_task.reserve(task_ids.size());
  metrics.mean_assigned_expertise.reserve(task_ids.size());
  for (std::size_t local = 0; local < task_ids.size(); ++local) {
    const auto users = allocation.users_of(local);
    metrics.users_per_task.push_back(users.size());
    double sum = 0.0;
    for (const std::size_t i : users) {
      sum += dataset.users[i]
                 .true_expertise[dataset.tasks[task_ids[local]].true_domain];
    }
    metrics.mean_assigned_expertise.push_back(
        users.empty() ? std::numeric_limits<double>::quiet_NaN()
                      : sum / static_cast<double>(users.size()));
  }
}

// Expertise MAE (Fig. 11; NaN when the server never saw latent domains).
// The model identifies expertise only up to a global gauge (see
// MleOptions::anchor_mean), so estimates are first rescaled by the
// least-squares gauge factor c* = Σ(û·u)/Σ(û²).
double expertise_mae(const Dataset& dataset, const core::Eta2Server& server) {
  if (dataset.has_descriptions) return std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<double, double>> pairs;  // (estimated, true)
  for (std::size_t k = 0; k < dataset.latent_domain_count; ++k) {
    const auto dense = server.dense_of_external(k);
    if (!dense.has_value()) continue;
    for (std::size_t i = 0; i < dataset.user_count(); ++i) {
      pairs.emplace_back(server.expertise_store().expertise(i, *dense),
                         dataset.users[i].true_expertise[k]);
    }
  }
  if (pairs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double num = 0.0;
  double den = 0.0;
  for (const auto& [est, tru] : pairs) {
    num += est * tru;
    den += est * est;
  }
  const double gauge = den > 0.0 ? num / den : 1.0;
  double mae_sum = 0.0;
  for (const auto& [est, tru] : pairs) {
    mae_sum += std::fabs(gauge * est - tru);
  }
  return mae_sum / static_cast<double>(pairs.size());
}

}  // namespace

CampaignDriver::CampaignDriver(const Dataset& dataset,
                               const SimOptions& options,
                               bool uses_descriptions)
    : dataset_(dataset),
      collapse_domains_(options.collapse_domains),
      embedder_(options.embedder) {
  if (uses_descriptions && dataset.has_descriptions) {
    require(options.embedder != nullptr,
            "simulate: dataset has descriptions but no embedder given");
  }
  // Clean runs build no plans — the wrappers never engage, so the
  // fault-free path is bit-identical to a driver without them.
  if (options.fault.any()) {
    plan_.emplace(options.fault);
    if (embedder_ != nullptr) embedder_ = text::wrap_embedder(embedder_, &*plan_);
  }
  if (options.adversary.any()) adversary_.emplace(options.adversary);
  capacities_.reserve(dataset.user_count());
  for (const User& user : dataset.users) capacities_.push_back(user.capacity);
}

void CampaignDriver::begin_day(std::uint64_t day) {
  day_ = day;
  if (plan_) plan_->begin_step(day);
  ids_ = dataset_.tasks_of_day(static_cast<int>(day));
  if (plan_ && plan_->batch_dropped()) ids_.clear();  // batch lost upstream
  batch_.clear();
  batch_.reserve(ids_.size());
  for (const std::size_t j : ids_) {
    core::NewTask t;
    const Task& task = dataset_.tasks[j];
    if (dataset_.has_descriptions) {
      t.description = task.description;
    } else {
      t.known_domain = collapse_domains_ ? 0 : task.true_domain;
    }
    t.processing_time = task.processing_time;
    t.cost = task.cost;
    batch_.push_back(std::move(t));
  }
}

core::CollectFn CampaignDriver::collect(const Rng& campaign_rng) {
  if (plan_) {
    plan_->begin_step(day_);
    (void)plan_->drop_batch();
  }
  if (adversary_) adversary_->begin_step(day_);
  auto observe_rng = std::make_shared<Rng>(campaign_rng.fork(day_ + 1));
  core::CollectFn collect =
      [this, observe_rng](std::size_t local,
                          std::size_t user) -> std::optional<double> {
    return observe(dataset_, user, ids_[local], *observe_rng);
  };
  if (adversary_) collect = adversary_->wrap_collect(std::move(collect));
  if (plan_) collect = plan_->wrap_collect(std::move(collect));
  return collect;
}

void CampaignDriver::fold_day(const alloc::Allocation& allocation,
                              std::span<const double> estimates, double cost,
                              int truth_iterations, int data_iterations,
                              const core::StepHealth& health) {
  DayMetrics metrics;
  metrics.pair_count = allocation.pair_count();
  metrics.cost = cost;
  metrics.truth_iterations = truth_iterations;
  metrics.data_iterations = data_iterations;
  metrics.estimation_error = estimation_error(dataset_, ids_, estimates);
  fill_assignment_stats(dataset_, ids_, allocation, metrics);
  for (std::size_t local = 0; local < ids_.size(); ++local) {
    if (std::isnan(estimates[local])) continue;
    const Task& task = dataset_.tasks[ids_[local]];
    totals_.error_sum +=
        std::fabs(estimates[local] - task.ground_truth) / task.base_number;
    ++totals_.error_count;
  }
  totals_.result.total_cost += cost;
  push_day(std::move(metrics), health);
}

void CampaignDriver::fold_quarantined() {
  DayMetrics metrics;
  metrics.estimation_error = std::numeric_limits<double>::quiet_NaN();
  core::StepHealth ledger;
  ledger.quarantined_batches = 1;
  push_day(std::move(metrics), ledger);
}

void CampaignDriver::push_day(DayMetrics metrics,
                              const core::StepHealth& health) {
  metrics.day = static_cast<int>(day_);
  metrics.task_count = ids_.size();
  SimulationResult& r = totals_.result;
  r.truth_iteration_log.push_back(metrics.truth_iterations);
  r.health.merge(health);
  r.day_health.push_back(health);
  r.days.push_back(std::move(metrics));
}

SimulationResult CampaignDriver::finish(const core::Eta2Server* server) {
  SimulationResult result = std::move(totals_.result);
  result.fault_stats = fault_stats();
  if (adversary_) result.adversary_stats = adversary_->stats();
  result.overall_error =
      totals_.error_count > 0
          ? totals_.error_sum / static_cast<double>(totals_.error_count)
          : std::numeric_limits<double>::quiet_NaN();
  if (server != nullptr) result.expertise_mae = expertise_mae(dataset_, *server);
  return result;
}

void CampaignDriver::restore(CampaignTotals totals,
                             const fault::FaultStats& stats,
                             const fault::AdversaryStats& adversary_stats) {
  totals_ = std::move(totals);
  if (plan_) plan_->restore_stats(stats);
  if (adversary_) adversary_->restore_stats(adversary_stats);
}

}  // namespace eta2::sim
