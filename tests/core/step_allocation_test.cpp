// Allocation inside a step: MaxQualityStrategy must reproduce the bare
// MaxQualityAllocator — allocation and greedy work counters — at 1, 2 and 8
// threads, and the min-cost strategy's capped, allocation-extending greedy
// rounds must be just as indifferent to the thread count. The golden
// transcripts pin the bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "alloc/max_quality.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/allocation_strategies.h"
#include "core/step_context.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"

namespace eta2::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

struct Batch {
  alloc::AllocationProblem problem;
  std::vector<truth::DomainIndex> task_domains;
  std::size_t domain_count = 0;
};

// Tasks of one domain share their expertise column, as the step pipeline's
// expertise fill builds them; with `distinct` every cell is drawn afresh.
Batch random_batch(std::size_t users, std::size_t tasks, std::size_t domains,
                   std::uint64_t seed, bool distinct) {
  Rng rng(seed);
  Batch batch;
  batch.domain_count = domains;
  batch.task_domains.resize(tasks);
  for (std::size_t j = 0; j < tasks; ++j) batch.task_domains[j] = j % domains;
  alloc::AllocationProblem& p = batch.problem;
  p.expertise.assign(users, tasks, 0.0);
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
  for (std::size_t i = 0; i < users; ++i) {
    std::vector<double> per_domain(domains);
    for (double& u : per_domain) u = rng.uniform(0.1, 3.0);
    for (std::size_t j = 0; j < tasks; ++j) {
      p.expertise(i, j) =
          distinct ? rng.uniform(0.1, 3.0) : per_domain[batch.task_domains[j]];
    }
  }
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.0);
  p.user_capacity.assign(users, 6.0);
  return batch;
}

// Runs MaxQualityStrategy on `batch` at `threads` lanes.
StepContext allocate_in_step(const Batch& batch, const Eta2Config& config,
                             std::size_t threads) {
  parallel::set_thread_count(threads);
  StepContext ctx;
  ctx.config = &config;
  ctx.task_domains = batch.task_domains;
  ctx.domain_count = batch.domain_count;
  ctx.problem = batch.problem;
  MaxQualityStrategy strategy(config);
  strategy.allocate(ctx);
  parallel::set_thread_count(0);
  return ctx;
}

void expect_same_allocation(const alloc::Allocation& a,
                            const alloc::Allocation& b) {
  ASSERT_EQ(a.pair_count(), b.pair_count());
  ASSERT_EQ(a.task_count(), b.task_count());
  for (std::size_t j = 0; j < a.task_count(); ++j) {
    const auto ua = a.users_of(j);
    const auto ub = b.users_of(j);
    ASSERT_EQ(ua.size(), ub.size()) << "task " << j;
    for (std::size_t x = 0; x < ua.size(); ++x) {
      EXPECT_EQ(ua[x], ub[x]) << "task " << j;
    }
  }
  EXPECT_EQ(a.total_cost(), b.total_cost());
}

TEST(ShardedGreedyTest, MatchesMonolithicAcrossLayoutsAndSeeds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Batch batch = random_batch(6, 16, 4, seed, false);
    const alloc::Allocation reference =
        alloc::MaxQualityAllocator(alloc::MaxQualityAllocator::Options{})
            .allocate(batch.problem);
    const Eta2Config config;
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " threads "
                                      << threads);
      expect_same_allocation(reference,
                             allocate_in_step(batch, config, threads).allocation);
    }
  }
}

TEST(ShardedGreedyTest, CountersCoverEveryMonolithicSelection) {
  const Batch batch = random_batch(6, 16, 4, 3, false);
  alloc::MaxQualityAllocator::Options options;
  alloc::GreedyStats mono;
  static_cast<void>(
      alloc::MaxQualityAllocator(options).allocate(batch.problem, &mono));
  const Eta2Config config;
  for (const std::size_t threads : kThreadCounts) {
    const StepHealth health = allocate_in_step(batch, config, threads).health;
    // The counters are the bare allocator's exactly, not merely an upper
    // bound on them.
    EXPECT_EQ(health.greedy_selections, mono.selections) << threads;
    EXPECT_EQ(health.greedy_gain_evaluations, mono.gain_evaluations)
        << threads;
    EXPECT_EQ(health.greedy_heap_pops, mono.heap_pops) << threads;
  }
}

// Users differ per domain, so the min-cost rounds have a real choice.
truth::ExpertiseStore seeded_store(std::size_t users, std::size_t domains,
                                   std::uint64_t seed) {
  truth::ExpertiseStore store(users);
  for (std::size_t k = 0; k < domains; ++k) static_cast<void>(store.add_domain());
  Rng rng(seed);
  Matrix num(users, domains);
  Matrix den = num;
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t k = 0; k < domains; ++k) {
      num(i, k) = rng.uniform(2.0, 6.0);
      den(i, k) = rng.uniform(0.5, 8.0);
    }
  }
  store.decay_and_accumulate(1.0, num, den);
  return store;
}

struct MinCostRun {
  alloc::Allocation allocation;
  std::size_t observations = 0;
  int data_iterations = 0;
};

// Runs MinCostStrategy at `threads` lanes: Algorithm 2's greedy rounds, each
// capped at c° and extending the allocation of the rounds before it. Every
// task costs 1.
MinCostRun min_cost_in_step(const Eta2Config& config, const CollectFn& collect,
                            std::size_t threads) {
  parallel::set_thread_count(threads);
  constexpr std::size_t kUsers = 6;
  constexpr std::size_t kTasks = 12;
  constexpr std::size_t kDomains = 3;
  truth::ExpertiseStore store = seeded_store(kUsers, kDomains, 5);
  const truth::Eta2Mle mle(config.mle);
  StepContext ctx;
  ctx.config = &config;
  ctx.store = &store;
  ctx.mle = &mle;
  ctx.collect = &collect;
  ctx.task_domains.resize(kTasks);
  for (std::size_t j = 0; j < kTasks; ++j) ctx.task_domains[j] = j % kDomains;
  ctx.domain_count = kDomains;
  ctx.problem.expertise = store.snapshot();
  ctx.problem.task_column = ctx.task_domains;
  Rng rng(17);
  ctx.problem.task_time.resize(kTasks);
  for (double& t : ctx.problem.task_time) t = rng.uniform(0.5, 2.0);
  ctx.problem.user_capacity.assign(kUsers, 6.0);
  MinCostStrategy(config).allocate(ctx);
  parallel::set_thread_count(0);
  return {ctx.allocation, ctx.observations.total_observations(),
          ctx.data_iterations};
}

// A deterministic report near each task's truth; users whose id plus task
// id is a multiple of `silent_every` never answer (0: everyone answers).
CollectFn scripted_collect(std::size_t silent_every) {
  return [silent_every](std::size_t task,
                        std::size_t user) -> std::optional<double> {
    if (silent_every > 0 && (task + user) % silent_every == 0) {
      return std::nullopt;
    }
    const double offset =
        0.3 * (static_cast<double>((user * 7 + task * 3) % 5) - 2.0);
    return 10.0 + static_cast<double>(task) + offset;
  };
}

TEST(ShardedGreedyTest, RespectsCostCapLikeMonolithic) {
  const CollectFn collect = scripted_collect(0);
  Eta2Config config;
  config.allocator = "min-cost";
  config.cost_per_iteration = 3.0;
  const MinCostRun reference = min_cost_in_step(config, collect, 1);
  // The cap binds: several rounds, none adding more than c° of cost.
  ASSERT_GT(reference.data_iterations, 1);
  EXPECT_LE(reference.allocation.total_cost(),
            config.cost_per_iteration * reference.data_iterations);
  for (const std::size_t threads : kThreadCounts) {
    const MinCostRun run = min_cost_in_step(config, collect, threads);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    EXPECT_EQ(run.data_iterations, reference.data_iterations);
    expect_same_allocation(reference.allocation, run.allocation);
  }
}

TEST(ShardedGreedyTest, ExtendsPartialAllocationIdentically) {
  // Silent users keep tasks failing the quality check, so later rounds
  // extend an allocation that already holds asked-but-unanswered pairs.
  const CollectFn collect = scripted_collect(3);
  Eta2Config config;
  config.allocator = "min-cost";
  config.cost_per_iteration = 4.0;
  const MinCostRun reference = min_cost_in_step(config, collect, 1);
  ASSERT_GT(reference.data_iterations, 1);
  ASSERT_LT(reference.observations, reference.allocation.pair_count());
  for (const std::size_t threads : kThreadCounts) {
    const MinCostRun run = min_cost_in_step(config, collect, threads);
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    EXPECT_EQ(run.data_iterations, reference.data_iterations);
    EXPECT_EQ(run.observations, reference.observations);
    expect_same_allocation(reference.allocation, run.allocation);
  }
}

TEST(ShardedMaxQualityTest, MatchesMonolithicAllocator) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Batch batch = random_batch(6, 14, 4, seed, true);
    for (const bool half : {true, false}) {
      alloc::MaxQualityAllocator::Options options;
      options.half_approx_pass = half;
      const alloc::Allocation reference =
          alloc::MaxQualityAllocator(options).allocate(batch.problem);
      Eta2Config config;
      config.half_approx_pass = half;
      for (const std::size_t threads : kThreadCounts) {
        expect_same_allocation(
            reference, allocate_in_step(batch, config, threads).allocation);
      }
    }
  }
}

}  // namespace
}  // namespace eta2::core
