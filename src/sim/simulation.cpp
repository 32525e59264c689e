#include "sim/simulation.h"

#include <cmath>
#include <string>

#include "common/error.h"
#include "core/eta2_server.h"
#include "core/strategy_registry.h"
#include "sim/campaign_driver.h"
#include "truth/truth_registry.h"

namespace eta2::sim {

namespace {

SimulationResult simulate_eta2(const Dataset& dataset, const MethodSpec& spec,
                               const SimOptions& options, std::uint64_t seed) {
  Rng rng(seed);
  core::Eta2Config config = options.config;
  config.allocator = std::string(spec.allocator);
  CampaignDriver driver(dataset, options, /*uses_descriptions=*/true);
  core::Eta2Server server(dataset.user_count(), config, driver.embedder());
  for (int day = 0; day < dataset.day_count(); ++day) {
    driver.begin_day(static_cast<std::uint64_t>(day));
    const core::CollectFn collect = driver.collect(rng);
    driver.fold_step(
        server.step(driver.batch(), driver.capacities(), collect, rng));
  }
  return driver.finish(&server);
}

SimulationResult simulate_baseline(const Dataset& dataset,
                                   const MethodSpec& spec,
                                   const SimOptions& options,
                                   std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = dataset.user_count();
  const std::size_t m = dataset.task_count();
  const std::unique_ptr<truth::TruthMethod> truth_method =
      truth::make_truth_method(spec.truth_method, options.baseline_options);

  // The baselines reuse the pipeline's allocation stages: day 0 is always
  // "random" (no reliability signal yet), afterwards the spec's strategy.
  core::Eta2Config stage_config;
  stage_config.max_users_per_task = options.baseline_max_users_per_task;
  const std::unique_ptr<core::AllocationStrategy> day0_strategy =
      core::make_allocation_strategy("random", stage_config);
  const std::unique_ptr<core::AllocationStrategy> steady_strategy =
      core::make_allocation_strategy(spec.allocator, stage_config);

  truth::ObservationSet global(n, m);
  truth::TruthResult latest;
  latest.truth.assign(m, std::numeric_limits<double>::quiet_NaN());
  latest.reliability.assign(n, 1.0);

  CampaignDriver driver(dataset, options, /*uses_descriptions=*/false);
  for (int day = 0; day < dataset.day_count(); ++day) {
    driver.begin_day(static_cast<std::uint64_t>(day));
    const std::span<const std::size_t> ids = driver.ids();

    core::StepContext ctx;
    ctx.rng = &rng;
    ctx.user_reliability = latest.reliability;
    ctx.problem.expertise.assign(n, ids.size(), 0.0);
    ctx.problem.user_capacity = driver.capacities();
    ctx.problem.task_time.reserve(ids.size());
    ctx.problem.task_cost.reserve(ids.size());
    for (const core::NewTask& task : driver.batch()) {
      ctx.problem.task_time.push_back(task.processing_time);
      ctx.problem.task_cost.push_back(task.cost);
    }
    (day == 0 ? *day0_strategy : *steady_strategy).allocate(ctx);
    const alloc::Allocation& allocation = ctx.allocation;

    core::StepHealth day_ledger;
    core::collect_observations(allocation, driver.collect(rng), global,
                               day_ledger, options.config.observation_abs_limit,
                               ids);
    day_ledger.empty_batch = ids.empty();
    latest = truth_method->estimate(global);

    std::vector<double> day_estimates;
    day_estimates.reserve(ids.size());
    for (const std::size_t j : ids) day_estimates.push_back(latest.truth[j]);
    driver.fold_day(allocation, day_estimates, allocation.total_cost(),
                    latest.iterations, /*data_iterations=*/1, day_ledger);
  }

  SimulationResult result = driver.finish(/*server=*/nullptr);
  // Overall error: final estimate over every task (baselines re-estimate
  // old tasks every day, so the last fit is their best).
  std::vector<std::size_t> all_ids(m);
  for (std::size_t j = 0; j < m; ++j) all_ids[j] = j;
  result.overall_error = estimation_error(dataset, all_ids, latest.truth);
  return result;
}

}  // namespace

double estimation_error(const Dataset& dataset,
                        std::span<const std::size_t> task_ids,
                        std::span<const double> estimates,
                        std::size_t* skipped) {
  require(task_ids.size() == estimates.size(),
          "estimation_error: size mismatch");
  double sum = 0.0;
  std::size_t count = 0;
  std::size_t nan_count = 0;
  for (std::size_t idx = 0; idx < task_ids.size(); ++idx) {
    if (std::isnan(estimates[idx])) {
      ++nan_count;
      continue;
    }
    const Task& t = dataset.tasks[task_ids[idx]];
    sum += std::fabs(estimates[idx] - t.ground_truth) / t.base_number;
    ++count;
  }
  if (skipped != nullptr) *skipped = nan_count;
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(count);
}

SimulationResult simulate(const Dataset& dataset, std::string_view method,
                          const SimOptions& options, std::uint64_t seed) {
  require(dataset.user_count() >= 1 && dataset.task_count() >= 1,
          "simulate: empty dataset");
  const MethodSpec& spec = method_spec(method);
  if (spec.server) return simulate_eta2(dataset, spec, options, seed);
  return simulate_baseline(dataset, spec, options, seed);
}

}  // namespace eta2::sim
