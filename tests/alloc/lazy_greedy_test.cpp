// CELF equivalence suite (DESIGN.md §11): the lazy greedy must produce
// byte-identical Allocations to the literal Algorithm 1 oracle in
// greedy_oracle.h — same pairs in the same selection order — across random
// problems, both efficiency modes, cost caps that bind mid-stream,
// prepopulated rounds, degenerate inputs, and thread counts, while
// evaluating far fewer gains.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "alloc/max_quality.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "greedy_oracle.h"

namespace eta2::alloc {
namespace {

// Byte-identical: identical pair sets AND identical per-task user order —
// users_of(j) records assignment order, so this pins the whole selection
// sequence, not just the final set.
void expect_identical(const Allocation& lazy, const Allocation& oracle) {
  ASSERT_EQ(lazy.user_count(), oracle.user_count());
  ASSERT_EQ(lazy.task_count(), oracle.task_count());
  EXPECT_EQ(lazy.pair_count(), oracle.pair_count());
  EXPECT_EQ(lazy.total_cost(), oracle.total_cost());
  for (TaskId j = 0; j < lazy.task_count(); ++j) {
    const auto a = lazy.users_of(j);
    const auto b = oracle.users_of(j);
    ASSERT_EQ(a.size(), b.size()) << "task " << j;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "task " << j << " slot " << k;
    }
  }
  for (UserId i = 0; i < lazy.user_count(); ++i) {
    EXPECT_EQ(lazy.used_time(i), oracle.used_time(i)) << "user " << i;
  }
}

AllocationProblem random_problem(std::uint64_t seed, std::size_t users,
                                 std::size_t tasks) {
  Rng rng(seed * 7919 + 13);
  AllocationProblem p;
  p.expertise.assign(users, tasks, 0.0);
  for (double& u : p.expertise.data()) u = rng.uniform(0.0, 4.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 2.5);
  p.user_capacity.resize(users);
  for (double& c : p.user_capacity) c = rng.uniform(2.0, 8.0);
  return p;
}

struct RunResult {
  Allocation allocation{0, 0};
  GreedyStats stats;
  std::size_t added = 0;
};

RunResult run(const AllocationProblem& p, const GreedyOptions& options) {
  RunResult result{Allocation(p.user_count(), p.task_count()), {}, 0};
  result.added = greedy_extend(p, options, result.allocation, &result.stats);
  return result;
}

RunResult run_oracle(const AllocationProblem& p, const GreedyOptions& options) {
  RunResult result{Allocation(p.user_count(), p.task_count()), {}, 0};
  result.added = naive_greedy(p, options, result.allocation, &result.stats);
  return result;
}

class LazyGreedySweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(LazyGreedySweep, MatchesRescanByteForByte) {
  const auto [seed, per_time] = GetParam();
  const AllocationProblem p = random_problem(seed, 9, 14);
  GreedyOptions options;
  options.efficiency_per_time = per_time;
  const RunResult lazy = run(p, options);
  const RunResult oracle = run_oracle(p, options);
  EXPECT_EQ(lazy.added, oracle.added) << "seed " << seed;
  EXPECT_EQ(lazy.stats.selections, oracle.stats.selections);
  expect_identical(lazy.allocation, oracle.allocation);
  EXPECT_LE(lazy.stats.gain_evaluations, oracle.stats.gain_evaluations)
      << "seed " << seed;
}

// Domain-structured expertise as the step pipeline builds it: each task's
// column is its domain's column, then every user row is scaled by its own
// factor (the trust ledger's allocation discount). Tasks of one domain thus
// share a bitwise-equal column and one class in the lazy engine's plane.
AllocationProblem domain_problem(std::uint64_t seed, std::size_t users,
                                 std::size_t tasks, std::size_t domains) {
  AllocationProblem p = random_problem(seed, users, tasks);
  Rng rng(seed * 104729 + 3);
  std::vector<std::size_t> domain_of(tasks);
  for (std::size_t& d : domain_of) {
    d = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(domains) - 1));
  }
  for (UserId i = 0; i < users; ++i) {
    std::vector<double> per_domain(domains);
    for (double& u : per_domain) u = rng.uniform(0.0, 4.0);
    const double scale = rng.bernoulli(0.3) ? rng.uniform(0.05, 1.0) : 1.0;
    for (TaskId j = 0; j < tasks; ++j) {
      p.expertise(i, j) = per_domain[domain_of[j]] * scale;
    }
  }
  return p;
}

void expect_lazy_matches_oracle(const AllocationProblem& p,
                                const GreedyOptions& options,
                                const char* what) {
  SCOPED_TRACE(what);
  const RunResult lazy = run(p, options);
  const RunResult oracle = run_oracle(p, options);
  EXPECT_EQ(lazy.added, oracle.added);
  EXPECT_EQ(lazy.stats.selections, oracle.stats.selections);
  expect_identical(lazy.allocation, oracle.allocation);
  EXPECT_LE(lazy.stats.gain_evaluations, oracle.stats.gain_evaluations);
}

TEST_P(LazyGreedySweep, DomainColumnsMatchRescanByteForByte) {
  const auto [seed, per_time] = GetParam();
  GreedyOptions options;
  options.efficiency_per_time = per_time;
  const std::size_t users = 9;
  const std::size_t tasks = 18;

  // K shared columns with per-row scaling.
  const AllocationProblem shared = domain_problem(seed, users, tasks, 3);
  expect_lazy_matches_oracle(shared, options, "shared columns");

  // One column one ulp away from its twin in a single cell: the two tasks
  // must land in different classes, and the ulp must still steer the
  // tie-breaks exactly as the per-cell oracle does.
  AllocationProblem ulp = shared;
  const UserId cell_user = seed % users;
  ulp.expertise(cell_user, 1) = std::nextafter(ulp.expertise(cell_user, 1),
                                               8.0);
  expect_lazy_matches_oracle(ulp, options, "one-ulp twin");

  // A +0.0 / −0.0 pair: bitwise different columns with equal values.
  AllocationProblem zeros = shared;
  for (UserId i = 0; i < users; i += 2) {
    zeros.expertise(i, 2) = 0.0;
    zeros.expertise(i, 3) = -0.0;
  }
  expect_lazy_matches_oracle(zeros, options, "signed-zero pair");

  // Min-cost style: tasks that passed their quality check have their
  // columns zeroed, and a capped round extends a prepopulated allocation.
  AllocationProblem zeroed = shared;
  for (TaskId j = 0; j < tasks; j += 3) {
    for (UserId i = 0; i < users; ++i) zeroed.expertise(i, j) = 0.0;
  }
  GreedyOptions capped = options;
  capped.cost_cap = 4.0;
  Allocation lazy(users, tasks);
  Allocation oracle(users, tasks);
  for (int round = 0; round < 3; ++round) {
    const std::size_t lazy_added = greedy_extend(zeroed, capped, lazy);
    const std::size_t oracle_added = naive_greedy(zeroed, capped, oracle);
    EXPECT_EQ(lazy_added, oracle_added) << "round " << round;
    expect_identical(lazy, oracle);
  }
  for (TaskId j = 0; j < tasks; j += 3) EXPECT_TRUE(lazy.users_of(j).empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LazyGreedySweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 17),
                       ::testing::Bool()));

TEST(LazyGreedyTest, CostCapBindingMidStreamMatches) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AllocationProblem p = random_problem(seed, 6, 10);
    p.task_cost.resize(10);
    Rng rng(seed);
    for (double& c : p.task_cost) c = rng.uniform(0.5, 2.0);
    for (const double cap : {0.0, 1.0, 3.5, 7.0}) {
      GreedyOptions options;
      options.cost_cap = cap;
      const RunResult lazy = run(p, options);
      const RunResult oracle = run_oracle(p, options);
      EXPECT_EQ(lazy.added, oracle.added) << "seed " << seed << " cap " << cap;
      expect_identical(lazy.allocation, oracle.allocation);
    }
  }
}

TEST(LazyGreedyTest, DegenerateProblemsMatch) {
  // Zero-capacity users: nothing can be assigned.
  {
    AllocationProblem p = random_problem(3, 5, 7);
    p.user_capacity.assign(5, 0.0);
    const RunResult lazy = run(p, {});
    const RunResult oracle = run_oracle(p, {});
    EXPECT_EQ(lazy.added, 0u);
    EXPECT_EQ(oracle.added, 0u);
    expect_identical(lazy.allocation, oracle.allocation);
  }
  // Single task: every feasible user is assigned in p-descending order.
  {
    const AllocationProblem p = random_problem(4, 6, 1);
    const RunResult lazy = run(p, {});
    const RunResult oracle = run_oracle(p, {});
    EXPECT_GT(lazy.added, 0u);
    expect_identical(lazy.allocation, oracle.allocation);
  }
  // All-zero expertise: p_ij = 0 everywhere, zero gain, nothing selected.
  {
    AllocationProblem p = random_problem(5, 5, 6);
    for (double& u : p.expertise.data()) u = 0.0;
    const RunResult lazy = run(p, {});
    const RunResult oracle = run_oracle(p, {});
    EXPECT_EQ(lazy.added, 0u);
    EXPECT_EQ(oracle.added, 0u);
    expect_identical(lazy.allocation, oracle.allocation);
  }
  // Uniform expertise: every efficiency ties; the lowest-index tie-breaks
  // must agree exactly.
  {
    AllocationProblem p = random_problem(6, 5, 6);
    for (double& u : p.expertise.data()) u = 1.5;
    p.task_time.assign(6, 1.0);
    p.user_capacity.assign(5, 3.0);
    const RunResult lazy = run(p, {});
    const RunResult oracle = run_oracle(p, {});
    EXPECT_EQ(lazy.added, oracle.added);
    expect_identical(lazy.allocation, oracle.allocation);
  }
}

TEST(LazyGreedyTest, ExtendingPrepopulatedAllocationMatches) {
  const AllocationProblem p = random_problem(11, 8, 12);
  GreedyOptions options;
  options.cost_cap = 5.0;
  Allocation lazy(8, 12);
  Allocation oracle(8, 12);
  // First a capped round, then extend the same allocation unbounded — the
  // second round must account for the first round's miss probabilities.
  greedy_extend(p, options, lazy);
  naive_greedy(p, options, oracle);
  expect_identical(lazy, oracle);

  options.cost_cap = std::numeric_limits<double>::infinity();
  greedy_extend(p, options, lazy);
  naive_greedy(p, options, oracle);
  expect_identical(lazy, oracle);
}

TEST(LazyGreedyTest, IdenticalAcrossThreadCounts) {
  const AllocationProblem p = random_problem(21, 12, 20);
  const RunResult reference = run_oracle(p, {});
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_thread_count(threads);
    const RunResult lazy = run(p, {});
    expect_identical(lazy.allocation, reference.allocation);
  }
  parallel::set_thread_count(0);  // restore the default
}

TEST(LazyGreedyTest, EvaluatesFarFewerGainsThanRescan) {
  // The acceptance bar is ≥5× at bench scale (200×600); this guards the
  // asymptotics at a size small enough for the test suite. 69720 is the
  // gain-evaluation count of the since-deleted rescanning reference engine
  // (eager per-task rescans), measured on this exact problem at commit
  // d80c41e; lazy did 1808 there, over 301 selections.
  const AllocationProblem p = random_problem(31, 60, 150);
  GreedyOptions options;
  const RunResult lazy = run(p, options);
  const RunResult oracle = run_oracle(p, options);
  expect_identical(lazy.allocation, oracle.allocation);
  EXPECT_GT(lazy.stats.heap_pops, 0u);
  EXPECT_LE(5 * lazy.stats.gain_evaluations, 69720u);
}

TEST(LazyGreedyTest, AllocatorUsesLazyByDefaultAndMatchesRescan) {
  // The reference runs both oracle passes — per-time and value-only — and
  // keeps the higher objective, the same ½-approximation rule allocate uses.
  const AllocationProblem p = random_problem(41, 10, 16);
  const MaxQualityAllocator::Options allocator_options;
  GreedyOptions per_time;
  per_time.epsilon = allocator_options.epsilon;
  GreedyOptions value_only = per_time;
  value_only.efficiency_per_time = false;
  const Allocation primary = run_oracle(p, per_time).allocation;
  const Allocation secondary = run_oracle(p, value_only).allocation;
  const Allocation& reference =
      allocation_objective(p, secondary, per_time.epsilon) >
              allocation_objective(p, primary, per_time.epsilon)
          ? secondary
          : primary;
  const Allocation lazy = MaxQualityAllocator(allocator_options).allocate(p);
  expect_identical(lazy, reference);
}

}  // namespace
}  // namespace eta2::alloc
