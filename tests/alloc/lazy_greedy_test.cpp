// CELF equivalence suite (DESIGN.md §11): the lazy greedy must produce
// byte-identical Allocations to the literal Algorithm 1 oracle in
// greedy_oracle.h — same pairs in the same selection order — across random
// problems, both efficiency modes, cost caps that bind mid-stream,
// prepopulated rounds, degenerate inputs, and thread counts, while
// evaluating far fewer gains.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
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
  p.task_column.resize(tasks);
  std::iota(p.task_column.begin(), p.task_column.end(), std::size_t{0});
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

// --- Oracle stress cases: the exact-invalidation heap, the exhausted-user
// links and the column map, each driven where it bites. Every case runs
// both efficiency modes against the literal Algorithm 1. ---

void expect_both_modes_match(const AllocationProblem& p, const char* what) {
  for (const bool per_time : {true, false}) {
    GreedyOptions options;
    options.efficiency_per_time = per_time;
    expect_lazy_matches_oracle(p, options, what);
  }
}

std::size_t pick(Rng& rng, std::size_t count) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
}

// Users whose remaining capacity fits no task any more.
std::size_t exhausted_users(const AllocationProblem& p, const Allocation& a) {
  const double min_time =
      *std::min_element(p.task_time.begin(), p.task_time.end());
  std::size_t count = 0;
  for (UserId i = 0; i < p.user_count(); ++i) {
    if (p.user_capacity[i] - a.used_time(i) < min_time) ++count;
  }
  return count;
}

// K expertise columns and a task → column map, as the step pipeline hands
// them over (the n × D snapshot plus the tasks' domains).
AllocationProblem mapped_problem(std::uint64_t seed, std::size_t users,
                                 std::size_t tasks, std::size_t columns) {
  AllocationProblem p = random_problem(seed, users, tasks);
  Rng rng(seed * 15485863 + 11);
  p.expertise.assign(users, columns);
  for (double& u : p.expertise.data()) u = rng.uniform(0.0, 4.0);
  p.task_column.resize(tasks);
  for (std::size_t& c : p.task_column) c = pick(rng, columns);
  return p;
}

// The same problem with every task's column copied out: n × m, identity map.
AllocationProblem dense_copy(const AllocationProblem& p) {
  AllocationProblem dense = p;
  dense.expertise.assign(p.user_count(), p.task_count());
  std::iota(dense.task_column.begin(), dense.task_column.end(), std::size_t{0});
  for (UserId i = 0; i < p.user_count(); ++i) {
    for (TaskId j = 0; j < p.task_count(); ++j) {
      dense.expertise(i, j) = p.u(i, j);
    }
  }
  return dense;
}

TEST(LazyGreedyStressTest, TightCapacitiesExhaustMostUsers) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    AllocationProblem p = random_problem(seed, 12, 30);
    Rng rng(seed + 100);
    for (double& c : p.user_capacity) c = rng.uniform(0.5, 3.0);
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_both_modes_match(p, "tight capacities");
    const RunResult oracle = run_oracle(p, {});
    EXPECT_GT(2 * exhausted_users(p, oracle.allocation), p.user_count());
  }
}

TEST(LazyGreedyStressTest, TaskTimesStraddleTheMinimum) {
  // Exact binary times and capacities, so remaining capacity lands exactly
  // on the minimum time (still feasible) or one step below it.
  const double times[] = {1.0, std::nextafter(1.0, 2.0), 1.25, 1.5, 2.0};
  const double capacities[] = {0.75, 1.0, 2.0, 2.25, 2.5, 3.0, 4.0};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    AllocationProblem p = random_problem(seed, 10, 24);
    Rng rng(seed + 200);
    for (double& t : p.task_time) t = times[pick(rng, std::size(times))];
    for (double& c : p.user_capacity) {
      c = capacities[pick(rng, std::size(capacities))];
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_both_modes_match(p, "times straddling the minimum");
  }
}

TEST(LazyGreedyStressTest, PrepopulatedUsersBelowTheMinimum) {
  // Half the users enter the call with less remaining capacity than any
  // task needs; the other half hold a pair that the call must skip.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    AllocationProblem p = random_problem(seed, 10, 16);
    Rng rng(seed + 300);
    for (double& t : p.task_time) t = rng.uniform(1.0, 2.0);
    const double min_time =
        *std::min_element(p.task_time.begin(), p.task_time.end());
    Allocation lazy(10, 16);
    Allocation oracle(10, 16);
    for (UserId i = 0; i < 10; ++i) {
      const TaskId j = pick(rng, 16);
      const double slack = i % 2 == 0 ? 0.5 * min_time : 3.0;
      p.user_capacity[i] = p.task_time[j] + slack;
      lazy.assign(i, j, p.task_time[j], p.cost_of(j));
      oracle.assign(i, j, p.task_time[j], p.cost_of(j));
    }
    ASSERT_EQ(exhausted_users(p, oracle), 5u);
    for (const bool per_time : {true, false}) {
      GreedyOptions options;
      options.efficiency_per_time = per_time;
      Allocation lazy_run = lazy;
      Allocation oracle_run = oracle;
      SCOPED_TRACE(testing::Message() << "seed " << seed << " per_time "
                                      << per_time);
      EXPECT_EQ(greedy_extend(p, options, lazy_run),
                naive_greedy(p, options, oracle_run));
      expect_identical(lazy_run, oracle_run);
    }
  }
}

TEST(LazyGreedyStressTest, IntegerExpertiseForcesTies) {
  // Few distinct p values, equal times: efficiencies tie across users and
  // tasks at every step, so every lowest-index rule is exercised.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    AllocationProblem p = random_problem(seed, 9, 20);
    Rng rng(seed + 400);
    for (double& u : p.expertise.data()) {
      u = static_cast<double>(rng.uniform_int(0, 3));
    }
    for (double& t : p.task_time) t = rng.bernoulli(0.5) ? 1.0 : 2.0;
    for (double& c : p.user_capacity) {
      c = static_cast<double>(rng.uniform_int(1, 5));
    }
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_both_modes_match(p, "integer expertise");
  }
}

TEST(LazyGreedyStressTest, ColumnMappedProblemsMatchTheirDenseCopies) {
  // A mapped problem must select exactly what the literal algorithm does,
  // and what its own dense copy does, with the same work counters: the map
  // only decides which tasks share a plane column.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const AllocationProblem p = mapped_problem(seed, 11, 26, 4);
    const AllocationProblem dense = dense_copy(p);
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_both_modes_match(p, "mapped");
    for (const bool per_time : {true, false}) {
      GreedyOptions options;
      options.efficiency_per_time = per_time;
      const RunResult mapped_run = run(p, options);
      const RunResult dense_run = run(dense, options);
      expect_identical(mapped_run.allocation, dense_run.allocation);
      EXPECT_EQ(mapped_run.stats.gain_evaluations,
                dense_run.stats.gain_evaluations);
      EXPECT_EQ(mapped_run.stats.heap_pops, dense_run.stats.heap_pops);
    }
    // Unreferenced columns (a domain with no task in the batch) are
    // harmless, and the map may skip column 0 entirely.
    AllocationProblem sparse = p;
    for (std::size_t& c : sparse.task_column) c = c == 0 ? 3 : c;
    expect_both_modes_match(sparse, "unreferenced column");
  }
}

TEST(LazyGreedyStressTest, MinCostZeroColumnMatchesAcrossRounds) {
  // Algorithm 2's working copy: one all-zero column appended, and the tasks
  // that passed point at it, over capped rounds extending one allocation.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    AllocationProblem p = mapped_problem(seed, 9, 18, 3);
    Matrix widened(9, 4, 0.0);
    for (UserId i = 0; i < 9; ++i) {
      for (std::size_t c = 0; c < 3; ++c) widened(i, c) = p.expertise(i, c);
    }
    p.expertise = widened;
    GreedyOptions capped;
    capped.efficiency_per_time = seed % 2 == 0;
    capped.cost_cap = 4.0;
    Allocation lazy(9, 18);
    Allocation oracle(9, 18);
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " round "
                                      << round);
      EXPECT_EQ(greedy_extend(p, capped, lazy),
                naive_greedy(p, capped, oracle));
      expect_identical(lazy, oracle);
      // The round's quality check: every third still-open task passes.
      for (TaskId j = static_cast<TaskId>(round); j < 18; j += 3) {
        p.task_column[j] = 3;
      }
    }
  }
}

TEST(LazyGreedyTest, PassObjectiveEqualsAllocationObjectiveBitwise) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    for (const AllocationProblem& p :
         {random_problem(seed, 9, 14), mapped_problem(seed, 12, 30, 5)}) {
      for (const bool per_time : {true, false}) {
        GreedyOptions options;
        options.efficiency_per_time = per_time;
        options.cost_cap = seed % 3 == 0 ? 5.0 : options.cost_cap;
        // Prepopulated: the objective counts the pairs held on entry too.
        Allocation allocation(p.user_count(), p.task_count());
        allocation.assign(0, 0, p.task_time[0], p.cost_of(0));
        GreedyStats stats;
        greedy_extend(p, options, allocation, &stats);
        EXPECT_EQ(bits(stats.objective),
                  bits(allocation_objective(p, allocation, options.epsilon)));
      }
      GreedyStats stats;
      const MaxQualityAllocator allocator;
      const Allocation allocation = allocator.allocate(p, &stats);
      EXPECT_EQ(bits(stats.objective),
                bits(allocation_objective(p, allocation, 0.1)));
    }
  }
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
