#include "alloc/min_cost.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

// A controllable world: users with known expertise observing tasks with
// known truth, so the collect callback can synthesize observations.
struct World {
  AllocationProblem problem;
  std::vector<truth::DomainIndex> domain;
  std::vector<double> mu;
  std::vector<double> sigma;
  std::vector<std::vector<double>> expertise_domain;  // [user][domain]
  Rng rng{0};

  double collect(std::size_t task, std::size_t user) {
    const double u = std::max(0.05, expertise_domain[user][domain[task]]);
    return rng.normal(mu[task], sigma[task] / u);
  }
};

World make_world(std::size_t users, std::size_t tasks, std::uint64_t seed,
                 double capacity = 40.0, double expertise_lo = 0.5,
                 double expertise_hi = 3.0) {
  Rng rng(seed);
  World w;
  w.rng = Rng(seed * 7919 + 3);
  const std::size_t domains = 2;
  w.expertise_domain.assign(users, std::vector<double>(domains, 1.0));
  for (auto& row : w.expertise_domain) {
    for (double& u : row) u = rng.uniform(expertise_lo, expertise_hi);
  }
  w.problem.expertise.assign(users, tasks, 0.0);
  w.problem.task_column.resize(tasks);
  std::iota(w.problem.task_column.begin(), w.problem.task_column.end(), std::size_t{0});
  w.problem.task_time.assign(tasks, 1.0);
  w.problem.user_capacity.assign(users, capacity);
  w.domain.resize(tasks);
  w.mu.resize(tasks);
  w.sigma.resize(tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    w.domain[j] = j % domains;
    w.mu[j] = rng.uniform(0.0, 20.0);
    w.sigma[j] = rng.uniform(0.5, 2.0);
    for (std::size_t i = 0; i < users; ++i) {
      w.problem.expertise(i, j) = w.expertise_domain[i][w.domain[j]];
    }
  }
  return w;
}

TEST(MinCostTest, RejectsBadOptions) {
  MinCostAllocator::Options bad;
  bad.epsilon_bar = 0.0;
  EXPECT_THROW(MinCostAllocator{bad}, std::invalid_argument);
  bad = MinCostAllocator::Options{};
  bad.confidence_alpha = 1.0;
  EXPECT_THROW(MinCostAllocator{bad}, std::invalid_argument);
  bad = MinCostAllocator::Options{};
  bad.cost_per_iteration = 0.0;
  EXPECT_THROW(MinCostAllocator{bad}, std::invalid_argument);
}

TEST(MinCostTest, RequiresCollectCallback) {
  World w = make_world(5, 4, 1);
  const truth::Eta2Mle mle;
  const MinCostAllocator allocator;
  EXPECT_THROW(
      allocator.run(w.problem, w.domain, 2, {}, mle, nullptr),
      std::invalid_argument);
}

TEST(MinCostTest, StopsOnceQualityIsMet) {
  World w = make_world(30, 10, 2, /*capacity=*/40.0, 2.0, 3.0);
  MinCostAllocator::Options options;
  options.epsilon_bar = 1.0;  // loose requirement: a few users suffice
  options.cost_per_iteration = 15.0;
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  EXPECT_TRUE(result.quality_met);
  // Far below the exhaustive allocation (30 users x 10 tasks).
  EXPECT_LT(result.allocation.pair_count(), 150u);
  EXPECT_GT(result.allocation.pair_count(), 0u);
}

TEST(MinCostTest, TighterRequirementCostsMore) {
  double cost_loose = 0.0;
  double cost_tight = 0.0;
  for (const double eps_bar : {1.2, 0.6}) {
    World w = make_world(40, 8, 5, /*capacity=*/30.0, 1.5, 3.0);
    MinCostAllocator::Options options;
    options.epsilon_bar = eps_bar;
    options.cost_per_iteration = 10.0;
    const MinCostAllocator allocator(options);
    const truth::Eta2Mle mle;
    const auto result = allocator.run(
        w.problem, w.domain, 2, {}, mle,
        [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
    (eps_bar > 1.0 ? cost_loose : cost_tight) = result.allocation.total_cost();
  }
  EXPECT_GT(cost_tight, cost_loose);
}

TEST(MinCostTest, TerminatesWhenCapacityExhausted) {
  // Impossible requirement + tiny capacity: must stop without passing.
  World w = make_world(3, 6, 7, /*capacity=*/2.0, 0.3, 0.8);
  MinCostAllocator::Options options;
  options.epsilon_bar = 0.05;  // needs far more info than 3 weak users have
  options.cost_per_iteration = 5.0;
  options.max_data_iterations = 50;
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  EXPECT_FALSE(result.quality_met);
  EXPECT_TRUE(respects_capacity(w.problem, result.allocation));
  EXPECT_LT(result.data_iterations, 50);  // stopped by no-progress, not cap
}

TEST(MinCostTest, ReportsUnmetTaskCountInsteadOfLooping) {
  // Same impossible setting as above: Algorithm 2 must stop AND say how
  // many tasks still fail the quality requirement.
  World w = make_world(3, 6, 7, /*capacity=*/2.0, 0.3, 0.8);
  MinCostAllocator::Options options;
  options.epsilon_bar = 0.05;
  options.cost_per_iteration = 5.0;
  options.max_data_iterations = 50;
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  EXPECT_FALSE(result.quality_met);
  EXPECT_GT(result.tasks_unmet, 0u);
  EXPECT_LE(result.tasks_unmet, 6u);
}

TEST(MinCostTest, UnmetCountIsZeroWhenQualityMet) {
  World w = make_world(30, 10, 2, /*capacity=*/40.0, 2.0, 3.0);
  MinCostAllocator::Options options;
  options.epsilon_bar = 1.0;
  options.cost_per_iteration = 15.0;
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  EXPECT_TRUE(result.quality_met);
  EXPECT_EQ(result.tasks_unmet, 0u);
}

TEST(MinCostTest, ObservationsMatchAllocation) {
  World w = make_world(10, 6, 9);
  const MinCostAllocator allocator;
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(result.observations.for_task(j).size(),
              result.allocation.users_of(j).size());
    for (const UserId i : result.allocation.users_of(j)) {
      EXPECT_TRUE(result.observations.has_observation(j, i));
    }
  }
}

TEST(MinCostTest, TruthEstimateIsReasonable) {
  World w = make_world(30, 12, 11, /*capacity=*/40.0, 1.5, 3.0);
  const MinCostAllocator allocator;
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  for (std::size_t j = 0; j < 12; ++j) {
    if (std::isnan(result.truth.mu[j])) continue;
    EXPECT_LT(std::fabs(result.truth.mu[j] - w.mu[j]) / w.sigma[j], 1.5)
        << "task " << j;
  }
}

TEST(MinCostTest, CostCapBoundsPerIterationSpending) {
  World w = make_world(20, 10, 13, /*capacity=*/40.0);
  MinCostAllocator::Options options;
  options.cost_per_iteration = 7.0;
  options.epsilon_bar = 0.4;
  options.max_data_iterations = 1;  // observe a single iteration
  const MinCostAllocator allocator(options);
  const truth::Eta2Mle mle;
  const auto result = allocator.run(
      w.problem, w.domain, 2, {}, mle,
      [&w](std::size_t j, std::size_t i) { return w.collect(j, i); });
  // One iteration: spending stops once the cap is reached, so at most
  // cap (+1 pair of unit cost, since the check precedes each selection).
  EXPECT_LE(result.allocation.total_cost(), 8.0);
}

}  // namespace
}  // namespace eta2::alloc
