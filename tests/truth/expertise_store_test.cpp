#include "truth/expertise_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"

namespace eta2::truth {
namespace {

MleOptions no_prior_options() {
  MleOptions o;
  o.prior_strength = 0.0;  // make sqrt(N/D) exact for hand computations
  o.anchor_mean = 0.0;
  return o;
}

TEST(ExpertiseStoreTest, InitialExpertiseForUnseenPairs) {
  ExpertiseStore store(3, MleOptions{});
  store.add_domain();
  EXPECT_DOUBLE_EQ(store.expertise(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.expertise(2, 0), 1.0);
}

TEST(ExpertiseStoreTest, AddDomainGrowsDenseIndex) {
  ExpertiseStore store(2, MleOptions{});
  EXPECT_EQ(store.add_domain(), 0u);
  EXPECT_EQ(store.add_domain(), 1u);
  EXPECT_EQ(store.domain_count(), 2u);
}

TEST(ExpertiseStoreTest, AccumulateComputesEq9) {
  ExpertiseStore store(1, no_prior_options());
  store.add_domain();
  // N=4 observations with total squared normalized error 1.0 => u = 2.
  const Matrix num{{4.0}};
  const Matrix den{{1.0}};
  store.decay_and_accumulate(1.0, num, den);
  EXPECT_NEAR(store.expertise(0, 0), 2.0, 1e-6);
}

TEST(ExpertiseStoreTest, DecayHalvesHistory) {
  ExpertiseStore store(1, no_prior_options());
  store.add_domain();
  store.decay_and_accumulate(1.0, {{4.0}}, {{4.0}});  // u = 1
  // α=0.5 then add N=2, D=0.25: u = sqrt((2+2)/(2+0.25)) = sqrt(4/2.25)
  store.decay_and_accumulate(0.5, {{2.0}}, {{0.25}});
  EXPECT_NEAR(store.expertise(0, 0), std::sqrt(4.0 / 2.25), 1e-6);
}

TEST(ExpertiseStoreTest, AlphaZeroForgetsHistory) {
  ExpertiseStore store(1, no_prior_options());
  store.add_domain();
  store.decay_and_accumulate(1.0, {{100.0}}, {{1.0}});
  store.decay_and_accumulate(0.0, {{1.0}}, {{1.0}});
  EXPECT_NEAR(store.expertise(0, 0), 1.0, 1e-6);
}

TEST(ExpertiseStoreTest, PriorShrinksSmallSamples) {
  MleOptions with_prior;
  with_prior.prior_strength = 1.0;
  ExpertiseStore store(1, with_prior);
  store.add_domain();
  // One perfect observation: without the prior u would hit the max clamp;
  // with it u = sqrt((1+1)/(0+1)) = sqrt(2).
  store.decay_and_accumulate(1.0, {{1.0}}, {{0.0}});
  EXPECT_NEAR(store.expertise(0, 0), std::sqrt(2.0), 1e-6);
}

TEST(ExpertiseStoreTest, ClampsApplied) {
  MleOptions options = no_prior_options();
  options.expertise_min = 0.5;
  options.expertise_max = 3.0;
  ExpertiseStore store(2, options);
  store.add_domain();
  store.decay_and_accumulate(1.0, {{100.0}, {1.0}}, {{0.0001}, {10000.0}});
  EXPECT_DOUBLE_EQ(store.expertise(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(store.expertise(1, 0), 0.5);
}

TEST(ExpertiseStoreTest, MergeFoldsAccumulators) {
  ExpertiseStore store(1, no_prior_options());
  store.add_domain();
  store.add_domain();
  store.decay_and_accumulate(1.0, {{4.0, 9.0}}, {{1.0, 1.0}});
  store.merge_domains(0, 1);
  // Combined: N=13, D=2 => u = sqrt(6.5)
  EXPECT_NEAR(store.expertise(0, 0), std::sqrt(6.5), 1e-6);
  // Absorbed domain resets to the no-data state.
  EXPECT_DOUBLE_EQ(store.expertise(0, 1), 1.0);
}

TEST(ExpertiseStoreTest, MergeRejectsBadIndices) {
  ExpertiseStore store(1, MleOptions{});
  store.add_domain();
  EXPECT_THROW(store.merge_domains(0, 0), std::invalid_argument);
  EXPECT_THROW(store.merge_domains(0, 1), std::invalid_argument);
}

TEST(ExpertiseStoreTest, SnapshotMatchesExpertise) {
  ExpertiseStore store(2, MleOptions{});
  store.add_domain();
  store.add_domain();
  store.decay_and_accumulate(1.0, {{4.0, 0.0}, {1.0, 2.0}},
                             {{1.0, 0.0}, {4.0, 1.0}});
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.rows(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_DOUBLE_EQ(snap(i, k), store.expertise(i, k));
    }
  }
}

TEST(ExpertiseStoreTest, AnchorPinsGeometricMean) {
  MleOptions options = no_prior_options();
  ExpertiseStore store(2, options);
  store.add_domain();
  // u values 4 and 1 => geometric mean 2; anchoring to 1 divides both by 2.
  store.decay_and_accumulate(1.0, {{16.0}, {16.0}}, {{1.0}, {16.0}});
  EXPECT_NEAR(store.expertise(0, 0), 4.0, 1e-6);
  const double c = store.anchor(1.0);
  EXPECT_NEAR(c, 2.0, 1e-6);
  EXPECT_NEAR(store.expertise(0, 0), 2.0, 1e-6);
  EXPECT_NEAR(store.expertise(1, 0), 0.5, 1e-6);
}

TEST(ExpertiseStoreTest, AnchorOnEmptyStoreIsNoop) {
  ExpertiseStore store(2, MleOptions{});
  store.add_domain();
  EXPECT_DOUBLE_EQ(store.anchor(1.0), 1.0);
}

TEST(ExpertiseStoreTest, RejectsShapeMismatches) {
  ExpertiseStore store(2, MleOptions{});
  store.add_domain();
  EXPECT_THROW(store.decay_and_accumulate(1.5, {{1.0}, {1.0}}, {{1.0}, {1.0}}),
               std::invalid_argument);
  EXPECT_THROW(store.decay_and_accumulate(0.5, {{1.0}}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(store.expertise(2, 0), std::invalid_argument);
  EXPECT_THROW(store.expertise(0, 1), std::invalid_argument);
}

TEST(ExpertiseStoreTest, GrowAfterLoadKeepsSaveBytes) {
  // A column added after a load must land in the same place of the save
  // blob as one added before it; the bytes below pin both saves.
  ExpertiseStore store(3, MleOptions{});
  store.add_domain();
  store.add_domain();
  store.decay_and_accumulate(1.0, {{4.0, 1.0}, {2.0, 0.0}, {3.0, 5.0}},
                             {{1.0, 0.5}, {8.0, 0.0}, {0.25, 2.0}});
  std::stringstream first;
  store.save(first);
  EXPECT_EQ(first.str(),
            "expertise-store v1\n3 2\n4 1\n2 0\n3 5\n1 0.5\n8 0\n0.25 2\n");

  ExpertiseStore loaded = ExpertiseStore::load(first, MleOptions{});
  EXPECT_EQ(loaded.add_domain(), 2u);
  loaded.decay_and_accumulate(
      0.5, {{1.0, 0.0, 2.0}, {0.0, 3.0, 1.0}, {2.0, 2.0, 0.0}},
      {{0.5, 0.0, 1.0}, {0.0, 0.75, 4.0}, {1.0, 3.0, 0.0}});
  loaded.merge_domains(2, 1);
  loaded.anchor(1.0);
  std::ostringstream second;
  loaded.save(second);
  EXPECT_EQ(second.str(),
            "expertise-store v1\n3 3\n3 0 2.5\n1 0 4\n3.5 0 4.5\n"
            "1.166596464970253 0 1.458245581212816\n"
            "4.666385859881012 0 5.541333208608702\n"
            "1.3124210230915345 0 4.666385859881012\n");
}

TEST(ContributionsTest, CountsAndErrors) {
  ObservationSet data(2, 2);
  data.add(0, 0, 12.0);  // μ=10, σ=2 => e=1
  data.add(0, 1, 10.0);  // e=0
  data.add(1, 0, 16.0);  // μ=10, σ=3 => e=2
  const std::vector<DomainIndex> domain{0, 1};
  const std::vector<double> mu{10.0, 10.0};
  const std::vector<double> sigma{2.0, 3.0};
  const Contributions c =
      expertise_contributions(data, domain, mu, sigma, 2, 2);
  EXPECT_DOUBLE_EQ(c.num(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.den(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.num(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(c.den(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(c.num(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(c.den(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(c.num(1, 1), 0.0);
}

TEST(ContributionsTest, SkipsNaNTruth) {
  ObservationSet data(1, 1);
  data.add(0, 0, 5.0);
  const std::vector<DomainIndex> domain{0};
  const std::vector<double> mu{std::nan("")};
  const std::vector<double> sigma{1.0};
  const Contributions c =
      expertise_contributions(data, domain, mu, sigma, 1, 1);
  EXPECT_DOUBLE_EQ(c.num(0, 0), 0.0);
}

TEST(DynamicUpdateTest, LearnsExpertiseFromNewTasks) {
  Rng rng(3);
  const std::size_t users = 10;
  const std::size_t tasks = 40;
  ExpertiseStore store(users, MleOptions{});
  store.add_domain();
  // Good users (even ids, u=3) vs bad users (odd ids, u=0.5).
  ObservationSet data(users, tasks);
  std::vector<DomainIndex> domain(tasks, 0);
  for (std::size_t j = 0; j < tasks; ++j) {
    const double mu = rng.uniform(0.0, 10.0);
    for (std::size_t i = 0; i < users; ++i) {
      const double u = i % 2 == 0 ? 3.0 : 0.5;
      data.add(j, i, rng.normal(mu, 1.0 / u));
    }
  }
  const Eta2Mle mle;
  const DynamicUpdateResult r = dynamic_update(store, data, domain, 0.5, mle);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.mu.size(), tasks);
  // Every even user must out-rank every odd user.
  for (std::size_t even = 0; even < users; even += 2) {
    for (std::size_t odd = 1; odd < users; odd += 2) {
      EXPECT_GT(store.expertise(even, 0), store.expertise(odd, 0));
    }
  }
}

TEST(DynamicUpdateTest, DecayShiftsTowardRecentBehavior) {
  // A user who was bad historically but reports precisely today should
  // recover, and recover faster with a smaller α (stronger decay). The
  // panel includes several steady users so the truth estimate is anchored
  // independently of the recovering user's weight.
  std::map<double, double> recovered;  // alpha -> expertise after update
  for (const double alpha : {0.9, 0.1}) {
    const std::size_t users = 6;
    ExpertiseStore store(users, MleOptions{});
    store.add_domain();
    const Matrix num(users, 1, 10.0);
    Matrix den(users, 1, 10.0);  // steady u = 1
    den(0, 0) = 90.0;  // user 0 was bad: u = sqrt(11/91) with the prior
    store.decay_and_accumulate(1.0, num, den);
    const double before = store.expertise(0, 0);
    // New day: user 0 is now the most precise reporter.
    Rng rng(7);
    ObservationSet data(users, 20);
    std::vector<DomainIndex> domain(20, 0);
    for (std::size_t j = 0; j < 20; ++j) {
      const double mu = rng.uniform(0.0, 10.0);
      data.add(j, 0, rng.normal(mu, 0.05));
      for (std::size_t i = 1; i < users; ++i) {
        data.add(j, i, rng.normal(mu, 1.0));
      }
    }
    const Eta2Mle mle;
    dynamic_update(store, data, domain, alpha, mle);
    EXPECT_GT(store.expertise(0, 0), before) << "alpha=" << alpha;
    recovered[alpha] = store.expertise(0, 0);
  }
  EXPECT_GT(recovered[0.1], recovered[0.9]);
}

TEST(DynamicUpdateTest, RejectsUserCountMismatch) {
  ExpertiseStore store(2, MleOptions{});
  store.add_domain();
  ObservationSet data(3, 1);
  const Eta2Mle mle;
  const std::vector<DomainIndex> domain{0};
  EXPECT_THROW(dynamic_update(store, data, domain, 0.5, mle),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::truth
