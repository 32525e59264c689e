// Persistence round-trips: the expertise store, the dynamic clusterer and
// the whole server must survive save+load with identical behavior — the
// production story for restarting the crowdsourcing server between days.
#include <gtest/gtest.h>

#include <sstream>

#include "clustering/dynamic_clusterer.h"
#include "core/eta2_server.h"
#include "core/strategy_registry.h"
#include "golden_scenarios.h"
#include "text/embedder.h"
#include "truth/expertise_store.h"

namespace eta2 {
namespace {

TEST(ExpertiseStorePersistence, RoundTripPreservesExpertise) {
  truth::ExpertiseStore store(3, truth::MleOptions{});
  store.add_domain();
  store.add_domain();
  store.decay_and_accumulate(1.0, {{4.0, 1.0}, {9.0, 0.0}, {1.0, 2.0}},
                             {{1.0, 3.0}, {1.0, 0.0}, {2.0, 0.5}});
  std::ostringstream out;
  store.save(out);
  std::istringstream in(out.str());
  const truth::ExpertiseStore loaded =
      truth::ExpertiseStore::load(in, truth::MleOptions{});
  ASSERT_EQ(loaded.user_count(), 3u);
  ASSERT_EQ(loaded.domain_count(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_DOUBLE_EQ(loaded.expertise(i, k), store.expertise(i, k));
    }
  }
}

TEST(ExpertiseStorePersistence, RejectsCorruptedInput) {
  std::istringstream bad_header("wrong v1\n1 1\n0\n0\n");
  EXPECT_THROW(truth::ExpertiseStore::load(bad_header, truth::MleOptions{}),
               std::invalid_argument);
  std::istringstream truncated("expertise-store v1\n2 2\n1 2\n");
  EXPECT_THROW(truth::ExpertiseStore::load(truncated, truth::MleOptions{}),
               std::invalid_argument);
  // users × domains wraps to 0 cells in 64 bits: must not load as empty.
  std::istringstream wrapping("expertise-store v1\n4294967296 4294967296\n");
  EXPECT_THROW(truth::ExpertiseStore::load(wrapping, truth::MleOptions{}),
               std::invalid_argument);
}

TEST(ClustererPersistence, RoundTripContinuesIdentically) {
  clustering::DynamicClusterer original(0.5);
  const std::vector<text::Embedding> batch1 = {
      {0.0, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0},
      {9.0, 0.0, 9.0, 0.0}, {9.1, 0.0, 9.0, 0.0}};
  original.add_tasks(batch1);

  std::ostringstream out;
  original.save(out);
  std::istringstream in(out.str());
  clustering::DynamicClusterer loaded = clustering::DynamicClusterer::load(in);

  EXPECT_EQ(loaded.task_count(), original.task_count());
  EXPECT_DOUBLE_EQ(loaded.dstar(), original.dstar());
  EXPECT_DOUBLE_EQ(loaded.gamma(), original.gamma());
  for (std::size_t p = 0; p < original.task_count(); ++p) {
    EXPECT_EQ(loaded.domain_of(p), original.domain_of(p));
  }
  // A further identical batch must produce identical assignments.
  const std::vector<text::Embedding> batch2 = {{0.05, 0.0, 0.0, 0.0},
                                               {50.0, 0.0, 50.0, 0.0}};
  const auto u1 = original.add_tasks(batch2);
  const auto u2 = loaded.add_tasks(batch2);
  EXPECT_EQ(u1.assignments, u2.assignments);
  EXPECT_EQ(u1.new_domains, u2.new_domains);
}

TEST(ServerPersistence, RestartedServerBehavesIdentically) {
  auto embedder = std::make_shared<text::HashEmbedder>(16);
  core::Eta2Config config;
  auto make_batch = [] {
    std::vector<core::Eta2Server::NewTask> batch(4);
    batch[0].description = "noise near the park";
    batch[1].description = "noise around the park";
    batch[2].description = "salary at the bank";
    batch[3].description = "salary of the bank";
    for (auto& t : batch) t.processing_time = 1.0;
    return batch;
  };
  auto collect = [](std::size_t j, std::size_t i) {
    return 10.0 + static_cast<double>(j) + 0.1 * static_cast<double>(i);
  };
  const std::vector<double> caps(4, 10.0);

  core::Eta2Server original(4, config, embedder);
  Rng rng_a(5);
  original.step(make_batch(), caps, collect, rng_a);

  std::ostringstream out;
  original.save(out);
  std::istringstream in(out.str());
  core::Eta2Server restored = core::Eta2Server::load(in, config, embedder);

  EXPECT_EQ(restored.warmed_up(), original.warmed_up());
  EXPECT_EQ(restored.user_count(), original.user_count());
  ASSERT_EQ(restored.expertise_store().domain_count(),
            original.expertise_store().domain_count());
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < original.expertise_store().domain_count(); ++k) {
      EXPECT_DOUBLE_EQ(restored.expertise_store().expertise(i, k),
                       original.expertise_store().expertise(i, k));
    }
  }

  // Continue both servers with identical RNG state: results must agree.
  Rng rng_b(77);
  Rng rng_c(77);
  const auto r1 = original.step(make_batch(), caps, collect, rng_b);
  const auto r2 = restored.step(make_batch(), caps, collect, rng_c);
  EXPECT_EQ(r1.task_domains, r2.task_domains);
  ASSERT_EQ(r1.truth.size(), r2.truth.size());
  for (std::size_t j = 0; j < r1.truth.size(); ++j) {
    EXPECT_DOUBLE_EQ(r1.truth[j], r2.truth[j]);
  }
  EXPECT_DOUBLE_EQ(r1.cost, r2.cost);
}

TEST(ServerPersistence, TopExpertsRanksLearnedUsers) {
  core::Eta2Config config;
  core::Eta2Server server(4, config, nullptr);
  Rng rng(9);
  const std::vector<double> caps(4, 20.0);
  std::vector<core::Eta2Server::NewTask> batch(15);
  for (auto& t : batch) {
    t.known_domain = 0;
    t.processing_time = 1.0;
  }
  auto collect = [](std::size_t j, std::size_t user) {
    static Rng obs(3);
    const double mu = 1.0 + 3.0 * static_cast<double>(j);
    return user == 2 ? obs.normal(mu, 0.01) : obs.normal(mu, 2.0);
  };
  server.step(batch, caps, collect, rng);
  server.step(batch, caps, collect, rng);
  server.step(batch, caps, collect, rng);
  const auto dense = server.dense_of_external(0);
  ASSERT_TRUE(dense.has_value());
  const auto experts = server.top_experts(*dense, 2);
  ASSERT_EQ(experts.size(), 2u);
  EXPECT_EQ(experts[0], 2u);
}

// Save → load → step must be bit-equivalent to never restarting, for every
// registered allocation strategy (not just the paper defaults).
TEST(ServerPersistence, SaveLoadStepEquivalentForEveryStrategy) {
  for (const std::string& name : core::allocation_strategies().names()) {
    core::Eta2Config config;
    config.allocator = name;
    config.cost_per_iteration = 8.0;  // keep min-cost rounds bounded
    config.epsilon_bar = 0.6;
    core::Eta2Server server(6, config, nullptr);
    const std::vector<double> caps(6, 6.0);
    std::vector<core::Eta2Server::NewTask> batch(5);
    for (std::size_t t = 0; t < batch.size(); ++t) {
      batch[t].known_domain = t % 3;
      batch[t].processing_time = 1.0 + 0.25 * static_cast<double>(t);
      batch[t].cost = 1.0 + static_cast<double>(t % 2);
    }
    Rng rng(31);
    server.step(batch, caps, testing::golden_collect(0), rng);  // warm-up
    server.step(batch, caps, testing::golden_collect(1), rng);

    std::ostringstream out;
    server.save(out);
    std::istringstream in(out.str());
    core::Eta2Server restored =
        core::Eta2Server::load(in, config, nullptr);

    Rng rng_a(127);
    Rng rng_b(127);
    const auto r1 = server.step(batch, caps, testing::golden_collect(2), rng_a);
    const auto r2 =
        restored.step(batch, caps, testing::golden_collect(2), rng_b);
    EXPECT_EQ(testing::format_step(2, r1), testing::format_step(2, r2)) << name;
  }
}

TEST(ServerPersistence, LoadRejectsGarbage) {
  std::istringstream garbage("not-a-server v1\n");
  EXPECT_THROW(core::Eta2Server::load(garbage, core::Eta2Config{}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2
