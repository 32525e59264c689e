// Step-pipeline determinism suite: the golden scenarios' transcripts, save
// blobs and post-load steps must be byte-identical at 1, 2 and 8 threads on
// the one truth path (the per-task Eq. 5 sweep and the per-user Eq. 6 and
// Eq. 7–8 passes). Runs in the sanitize-tagged determinism binary so the
// TSan job covers those parallel passes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/golden_scenarios.h"
#include "common/parallel.h"
#include "core/config.h"

namespace eta2 {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::string run_labeled(const core::Eta2Config& config, std::size_t threads) {
  parallel::set_thread_count(threads);
  const testing::GoldenRun run = testing::run_labeled_scenario(config);
  parallel::set_thread_count(0);
  return run.transcript + run.saved + run.post;
}

std::string run_described(const core::Eta2Config& config, std::size_t threads) {
  parallel::set_thread_count(threads);
  const testing::GoldenRun run = testing::run_described_scenario(config);
  parallel::set_thread_count(0);
  return run.transcript + run.saved + run.post;
}

TEST(ShardedDeterminismTest, LabeledTranscriptStableAcrossThreadsAndShards) {
  const core::Eta2Config config;
  const std::string reference = run_labeled(config, 1);
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(reference, run_labeled(config, threads)) << threads;
  }
}

TEST(ShardedDeterminismTest, DescribedTranscriptStableAcrossThreadsAndShards) {
  const core::Eta2Config config;
  const std::string reference = run_described(config, 1);
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(reference, run_described(config, threads)) << threads;
  }
}

TEST(ShardedDeterminismTest, MinCostPipelineUnaffectedByShardKnobs) {
  // Min-cost refreshes the truth inside its allocation rounds before the
  // dynamic update runs; the whole transcript must still be stable.
  core::Eta2Config config;
  config.allocator = "min-cost";
  const std::string reference = run_labeled(config, 1);
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(reference, run_labeled(config, threads)) << threads;
  }
}

// Single-domain batches: every task shares one expertise column and every
// user's contributions land in one accumulator cell.
std::string run_single_domain(const core::Eta2Config& config,
                              std::size_t threads) {
  parallel::set_thread_count(threads);
  const std::size_t users = 5;
  const std::vector<double> caps(users, 6.0);
  core::Eta2Server server(users, config, nullptr);
  Rng rng(11);
  std::string transcript;
  for (int step = 0; step < 3; ++step) {
    std::vector<core::Eta2Server::NewTask> tasks(4);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      tasks[t].known_domain = 0;  // one domain for the whole run
      tasks[t].processing_time = 1.0 + 0.5 * static_cast<double>(t % 2);
    }
    transcript += testing::format_step(
        step, server.step(tasks, caps, testing::golden_collect(step), rng));
  }
  parallel::set_thread_count(0);
  return transcript;
}

TEST(ShardedDeterminismTest, SingleDomainAndEmptyShardsMatchMonolithic) {
  const core::Eta2Config config;
  const std::string reference = run_single_domain(config, 1);
  for (const std::size_t threads : kThreadCounts) {
    EXPECT_EQ(reference, run_single_domain(config, threads)) << threads;
  }
}

}  // namespace
}  // namespace eta2
