// Parallel-determinism suite: the ETA² hot paths must produce bit-identical
// results at every thread count (the contract in src/common/parallel.h).
// Each case runs a seeded workload at 1, 2, and 8 lanes and compares the
// outputs bitwise (memcmp — NaN-safe, unlike operator==).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/max_quality.h"
#include "clustering/dynamic_clusterer.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sim/dataset.h"
#include "sim/experiment.h"
#include "truth/eta2_mle.h"

namespace eta2 {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what << ": parallel output differs bitwise from serial";
  }
}

// Runs `compute` at every thread count and asserts the flattened signature
// is bit-identical to the 1-thread run.
template <typename Compute>
void check_determinism(Compute&& compute, const char* what) {
  std::vector<double> reference;
  for (const std::size_t threads : kThreadCounts) {
    parallel::set_thread_count(threads);
    std::vector<double> signature = compute();
    parallel::set_thread_count(0);
    if (threads == 1) {
      reference = std::move(signature);
    } else {
      expect_bitwise_equal(reference, signature, what);
    }
  }
}

std::vector<double> flatten_mle(const truth::MleResult& result) {
  std::vector<double> flat = result.mu;
  flat.insert(flat.end(), result.sigma.begin(), result.sigma.end());
  const auto cells = result.expertise.data();
  flat.insert(flat.end(), cells.begin(), cells.end());
  flat.push_back(static_cast<double>(result.iterations));
  return flat;
}

TEST(DeterminismTest, MleResultBitIdenticalAcrossThreadCounts) {
  const std::size_t users = 40;
  const std::size_t tasks = 300;
  const std::size_t domains = 6;
  Rng rng(123);
  truth::ObservationSet data(users, tasks);
  std::vector<truth::DomainIndex> domain(tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    domain[j] = j % domains;
    const double mu = rng.uniform(0.0, 20.0);
    for (std::size_t i = 0; i < users; ++i) {
      if (rng.bernoulli(0.3)) data.add(j, i, rng.normal(mu, 1.5));
    }
  }
  check_determinism(
      [&] {
        const truth::Eta2Mle mle;
        return flatten_mle(mle.estimate(data, domain, domains));
      },
      "MleResult");
}

TEST(DeterminismTest, MleZeroTasks) {
  truth::ObservationSet data(10, 0);
  const std::vector<truth::DomainIndex> domain;
  check_determinism(
      [&] {
        const truth::Eta2Mle mle;
        return flatten_mle(mle.estimate(data, domain, 4));
      },
      "MleResult (zero tasks)");
}

TEST(DeterminismTest, MleFewerTasksThanThreads) {
  // 3 tasks against 8 lanes: exercises the fewer-items-than-threads edge.
  truth::ObservationSet data(5, 3);
  const std::vector<truth::DomainIndex> domain = {0, 1, 0};
  Rng rng(9);
  for (std::size_t j = 0; j < 3; ++j) {
    for (std::size_t i = 0; i < 5; ++i) data.add(j, i, rng.normal(10.0, 2.0));
  }
  check_determinism(
      [&] {
        const truth::Eta2Mle mle;
        return flatten_mle(mle.estimate(data, domain, 2));
      },
      "MleResult (3 tasks)");
}

TEST(DeterminismTest, DistanceMatrixAndClusteringBitIdentical) {
  const std::size_t dim = 16;
  Rng rng(77);
  std::vector<text::Embedding> batch1;
  std::vector<text::Embedding> batch2;
  for (std::size_t i = 0; i < 60; ++i) {
    text::Embedding v(dim);
    for (double& x : v) x = rng.normal();
    batch1.push_back(std::move(v));
  }
  for (std::size_t i = 0; i < 20; ++i) {
    text::Embedding v(dim);
    for (double& x : v) x = rng.normal();
    batch2.push_back(std::move(v));
  }
  check_determinism(
      [&] {
        std::vector<double> signature;
        // Dynamic clustering over two rounds (warm-up + incremental).
        clustering::DynamicClusterer clusterer(0.5);
        clusterer.add_tasks(batch1);
        clusterer.add_tasks(batch2);
        signature.push_back(clusterer.dstar());
        for (std::size_t p = 0; p < clusterer.task_count(); ++p) {
          signature.push_back(static_cast<double>(clusterer.domain_of(p)));
        }
        for (const auto d : clusterer.live_domains()) {
          signature.push_back(static_cast<double>(d));
        }
        return signature;
      },
      "clustering");
}

TEST(DeterminismTest, ClustererEmptyBatch) {
  check_determinism(
      [&] {
        clustering::DynamicClusterer clusterer(0.5);
        const auto update = clusterer.add_tasks({});
        return std::vector<double>{
            static_cast<double>(update.assignments.size()),
            static_cast<double>(clusterer.domain_count())};
      },
      "clusterer (empty batch)");
}

TEST(DeterminismTest, AllocationObjectiveBitIdentical) {
  const std::size_t users = 30;
  const std::size_t tasks = 80;
  Rng rng(5);
  alloc::AllocationProblem problem;
  problem.expertise.assign(users, tasks);
  problem.task_column.resize(tasks);
  std::iota(problem.task_column.begin(), problem.task_column.end(), std::size_t{0});
  for (double& u : problem.expertise.data()) u = rng.uniform(0.1, 3.0);
  problem.task_time.resize(tasks);
  for (double& t : problem.task_time) t = rng.uniform(0.5, 1.5);
  problem.user_capacity.assign(users, 12.0);
  check_determinism(
      [&] {
        const alloc::MaxQualityAllocator allocator;
        const auto allocation = allocator.allocate(problem);
        std::vector<double> signature{
            alloc::allocation_objective(problem, allocation, 1.0),
            static_cast<double>(allocation.pair_count())};
        for (std::size_t j = 0; j < tasks; ++j) {
          for (const auto i : allocation.users_of(j)) {
            signature.push_back(static_cast<double>(i));
          }
        }
        return signature;
      },
      "allocation objective");
}

TEST(DeterminismTest, ConcurrentHalfApproxPassesBitIdentical) {
  // 80 × 240 pairs is above MaxQualityAllocator's concurrency threshold
  // (2^14 pairs), so at 2+ lanes its two ½-approximation passes run on
  // separate lanes over one shared class plane; under TSan this is the
  // race check for that sharing. Columns are per domain, as in a step.
  const std::size_t users = 80;
  const std::size_t tasks = 240;
  const std::size_t domains = 6;
  Rng rng(9);
  alloc::AllocationProblem problem;
  problem.expertise.assign(users, domains);
  for (double& u : problem.expertise.data()) u = rng.uniform(0.1, 3.0);
  problem.task_column.resize(tasks);
  for (std::size_t j = 0; j < tasks; ++j) problem.task_column[j] = j % domains;
  problem.task_time.resize(tasks);
  for (double& t : problem.task_time) t = rng.uniform(0.2, 3.0);
  problem.user_capacity.assign(users, 9.0);
  check_determinism(
      [&] {
        alloc::GreedyStats stats;
        const auto allocation =
            alloc::MaxQualityAllocator().allocate(problem, &stats);
        std::vector<double> signature{
            stats.objective, static_cast<double>(stats.selections),
            static_cast<double>(stats.gain_evaluations),
            static_cast<double>(stats.heap_pops)};
        for (std::size_t j = 0; j < tasks; ++j) {
          for (const auto i : allocation.users_of(j)) {
            signature.push_back(static_cast<double>(i));
          }
        }
        return signature;
      },
      "concurrent ½-approximation passes");
}

TEST(DeterminismTest, SeedSweepBitIdentical) {
  sim::SyntheticOptions options;
  options.tasks = 40;
  options.users = 20;
  options.days = 2;
  const sim::DatasetFactory factory = [options](std::uint64_t seed) {
    return sim::make_synthetic(options, seed);
  };
  check_determinism(
      [&] {
        const auto sweep = sim::sweep_seeds(factory, "eta2",
                                            sim::SimOptions{}, 3, 1);
        std::vector<double> signature{sweep.overall_error.mean,
                                      sweep.total_cost.mean,
                                      sweep.expertise_mae.mean};
        for (const auto& run : sweep.runs) {
          signature.push_back(run.overall_error);
          signature.push_back(run.total_cost);
        }
        return signature;
      },
      "seed sweep");
}

}  // namespace
}  // namespace eta2
