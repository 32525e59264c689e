#include "truth/eta2_mle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace eta2::truth {
namespace {

// Builds a synthetic observation set following the paper's model
// x_ij ~ N(μ_j, (σ_j/u_ij)²) with known parameters.
struct Model {
  std::vector<std::vector<double>> expertise;  // [user][domain]
  std::vector<double> mu;
  std::vector<double> sigma;
  std::vector<DomainIndex> domain;
  ObservationSet data{0, 0};
};

Model make_model(std::size_t users, std::size_t tasks, std::size_t domains,
                 std::uint64_t seed, double u_lo = 0.4, double u_hi = 3.0) {
  Rng rng(seed);
  Model m;
  m.expertise.assign(users, std::vector<double>(domains, 1.0));
  for (auto& row : m.expertise) {
    for (double& u : row) u = rng.uniform(u_lo, u_hi);
  }
  m.mu.resize(tasks);
  m.sigma.resize(tasks);
  m.domain.resize(tasks);
  m.data = ObservationSet(users, tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    m.mu[j] = rng.uniform(0.0, 20.0);
    m.sigma[j] = rng.uniform(0.5, 3.0);
    m.domain[j] = j % domains;
    for (std::size_t i = 0; i < users; ++i) {
      const double u = m.expertise[i][m.domain[j]];
      m.data.add(j, i, rng.normal(m.mu[j], m.sigma[j] / u));
    }
  }
  return m;
}

TEST(Eta2MleTest, RejectsBadOptions) {
  MleOptions bad;
  bad.convergence_threshold = 0.0;
  EXPECT_THROW(Eta2Mle{bad}, std::invalid_argument);
  bad = MleOptions{};
  bad.max_iterations = 0;
  EXPECT_THROW(Eta2Mle{bad}, std::invalid_argument);
  bad = MleOptions{};
  bad.expertise_min = 0.0;
  EXPECT_THROW(Eta2Mle{bad}, std::invalid_argument);
  bad = MleOptions{};
  bad.expertise_max = 0.01;  // below expertise_min
  EXPECT_THROW(Eta2Mle{bad}, std::invalid_argument);
}

TEST(Eta2MleTest, SingleTaskStartsAtMeanStaysInRange) {
  // Iteration 0 uses uniform expertise (the plain mean); the fixed point
  // re-weights users by their residuals but must stay inside the data
  // range.
  ObservationSet data(3, 1);
  data.add(0, 0, 2.0);
  data.add(0, 1, 4.0);
  data.add(0, 2, 9.0);
  const Eta2Mle mle;
  const std::vector<DomainIndex> domain{0};
  // First truth-only pass with u = 1 everywhere is exactly the mean.
  std::vector<double> mu;
  std::vector<double> sigma;
  const Matrix uniform(3, 1, 1.0);
  mle.estimate_truth_only(data, domain, uniform, mu, sigma);
  EXPECT_NEAR(mu[0], 5.0, 1e-12);
  // The joint fixed point remains within the observed range.
  const MleResult r = mle.estimate(data, domain, 1);
  EXPECT_GE(r.mu[0], 2.0);
  EXPECT_LE(r.mu[0], 9.0);
}

TEST(Eta2MleTest, TaskWithoutDataIsNaN) {
  ObservationSet data(2, 2);
  data.add(0, 0, 3.0);
  const Eta2Mle mle;
  const std::vector<DomainIndex> domain{0, 0};
  const MleResult r = mle.estimate(data, domain, 1);
  EXPECT_FALSE(std::isnan(r.mu[0]));
  EXPECT_TRUE(std::isnan(r.mu[1]));
  EXPECT_TRUE(std::isnan(r.sigma[1]));
}

TEST(Eta2MleTest, NanObservationsDoNotPoisonEstimates) {
  // Regression: a single NaN x_ij used to propagate through the Eq. 5/6
  // sums and turn every estimate for the task's domain into NaN. Non-finite
  // observations must be skipped, leaving the remaining data to speak.
  const Model m = make_model(12, 20, 3, /*seed=*/42);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Poison one report on every 4th task.
  ObservationSet data(12, 20);
  for (std::size_t j = 0; j < 20; ++j) {
    for (const auto& o : m.data.for_task(j)) {
      const bool poison = j % 4 == 0 && o.user == m.data.for_task(j)[0].user;
      data.add(j, o.user, poison ? nan : o.value);
    }
  }
  const Eta2Mle mle;
  const MleResult r = mle.estimate(data, m.domain, 3);
  for (std::size_t j = 0; j < 20; ++j) {
    EXPECT_TRUE(std::isfinite(r.mu[j])) << "task " << j;
    EXPECT_TRUE(std::isfinite(r.sigma[j])) << "task " << j;
  }
  for (const double u : r.expertise.data()) EXPECT_TRUE(std::isfinite(u));
}

TEST(Eta2MleTest, AllNanTaskStaysNanWithoutPoisoningOthers) {
  Model m = make_model(10, 12, 2, /*seed=*/43);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Task 0 has ONLY non-finite reports: no usable data, so its truth must
  // stay NaN — but its domain-mates keep finite estimates and no user's
  // expertise becomes NaN.
  ObservationSet data(10, 12);
  for (std::size_t j = 0; j < 12; ++j) {
    for (const auto& o : m.data.for_task(j)) {
      data.add(j, o.user, j == 0 ? nan : o.value);
    }
  }
  const Eta2Mle mle;
  const MleResult r = mle.estimate(data, m.domain, 2);
  EXPECT_TRUE(std::isnan(r.mu[0]));
  for (std::size_t j = 1; j < 12; ++j) {
    EXPECT_TRUE(std::isfinite(r.mu[j])) << "task " << j;
  }
  for (const double u : r.expertise.data()) EXPECT_TRUE(std::isfinite(u));
}

TEST(Eta2MleTest, RecoverseTruthBetterThanMean) {
  const Model m = make_model(30, 60, 3, /*seed=*/5);
  const Eta2Mle mle;
  const MleResult r = mle.estimate(m.data, m.domain, 3);
  EXPECT_TRUE(r.converged);
  double mle_err = 0.0;
  double mean_err = 0.0;
  for (std::size_t j = 0; j < m.mu.size(); ++j) {
    mle_err += std::fabs(r.mu[j] - m.mu[j]) / m.sigma[j];
    mean_err += std::fabs(m.data.task_mean(j) - m.mu[j]) / m.sigma[j];
  }
  EXPECT_LT(mle_err, mean_err);
}

TEST(Eta2MleTest, ExpertiseOrderingIsRecovered) {
  // Users with higher true expertise should receive higher estimates.
  const Model m = make_model(12, 200, 1, /*seed=*/7, 0.4, 3.0);
  const Eta2Mle mle;
  const MleResult r = mle.estimate(m.data, m.domain, 1);
  // Rank correlation between estimated and true expertise (domain 0).
  int concordant = 0;
  int discordant = 0;
  for (std::size_t a = 0; a < 12; ++a) {
    for (std::size_t b = a + 1; b < 12; ++b) {
      const double dt = m.expertise[a][0] - m.expertise[b][0];
      const double de = r.expertise(a, 0) - r.expertise(b, 0);
      if (dt * de > 0) {
        ++concordant;
      } else if (dt * de < 0) {
        ++discordant;
      }
    }
  }
  EXPECT_GT(concordant, 3 * discordant);
}

TEST(Eta2MleTest, GaugeAnchorPinsGeometricMean) {
  const Model m = make_model(10, 50, 2, /*seed=*/9);
  MleOptions options;
  options.anchor_mean = 1.0;
  const Eta2Mle mle(options);
  const MleResult r = mle.estimate(m.data, m.domain, 2);
  double log_sum = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      log_sum += std::log(r.expertise(i, k));
      ++count;
    }
  }
  // Clamping can nudge the mean slightly; it must still be close to 1.
  EXPECT_NEAR(std::exp(log_sum / count), 1.0, 0.15);
}

TEST(Eta2MleTest, TruthInvariantUnderInitialExpertiseScale) {
  // The truth estimate must not depend on the gauge of the warm start.
  const Model m = make_model(10, 40, 2, /*seed=*/11);
  const Eta2Mle mle;
  Matrix init(10, 2, 1.0);
  const MleResult a = mle.estimate(m.data, m.domain, 2, init);
  for (double& u : init.data()) u = 3.0;
  const MleResult b = mle.estimate(m.data, m.domain, 2, init);
  for (std::size_t j = 0; j < m.mu.size(); ++j) {
    EXPECT_NEAR(a.mu[j], b.mu[j], 0.05 * (std::fabs(a.mu[j]) + 1.0));
  }
}

TEST(Eta2MleTest, ExpertiseIsClamped) {
  // One perfect observer (x == μ exactly): without clamps u would explode.
  ObservationSet data(2, 2);
  data.add(0, 0, 5.0);
  data.add(0, 1, 5.0);
  data.add(1, 0, 5.0);
  data.add(1, 1, 7.0);
  MleOptions options;
  options.expertise_max = 4.0;
  options.anchor_mean = 0.0;  // disable to test the raw clamp
  const Eta2Mle mle(options);
  const std::vector<DomainIndex> domain{0, 0};
  const MleResult r = mle.estimate(data, domain, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LE(r.expertise(i, 0), 4.0);
    EXPECT_GE(r.expertise(i, 0), options.expertise_min);
  }
}

TEST(Eta2MleTest, IterationsBoundedAndReported) {
  const Model m = make_model(8, 30, 2, /*seed=*/13);
  MleOptions options;
  options.max_iterations = 3;
  options.convergence_threshold = 1e-9;  // force the cap to bind
  const Eta2Mle mle(options);
  const MleResult r = mle.estimate(m.data, m.domain, 2);
  EXPECT_EQ(r.iterations, 3);
  EXPECT_FALSE(r.converged);
}

TEST(Eta2MleTest, RejectsShapeMismatches) {
  ObservationSet data(2, 2);
  const Eta2Mle mle;
  const std::vector<DomainIndex> wrong_size{0};
  EXPECT_THROW(mle.estimate(data, wrong_size, 1), std::invalid_argument);
  const std::vector<DomainIndex> bad_domain{0, 5};
  EXPECT_THROW(mle.estimate(data, bad_domain, 1), std::invalid_argument);
}

TEST(Eta2MleTest, EstimateTruthOnlyMatchesClosedForm) {
  ObservationSet data(2, 1);
  data.add(0, 0, 10.0);
  data.add(0, 1, 20.0);
  const Matrix expertise = {{2.0}, {1.0}};
  const Eta2Mle mle;
  std::vector<double> mu;
  std::vector<double> sigma;
  const std::vector<DomainIndex> domain{0};
  mle.estimate_truth_only(data, domain, expertise, mu, sigma);
  // μ = (4·10 + 1·20)/5 = 12; σ² = (4·4 + 1·64)/2 = 40
  EXPECT_NEAR(mu[0], 12.0, 1e-12);
  EXPECT_NEAR(sigma[0], std::sqrt(40.0), 1e-12);
}

TEST(Eta2MleTest, EstimateTruthOnlyChecksObservedTasksOnly) {
  // One expertise column; task 1 is labelled with domain 7.
  const Eta2Mle mle;
  const std::vector<DomainIndex> domain{0, 7};
  std::vector<double> mu;
  std::vector<double> sigma;

  // Observed out-of-range task: rejected.
  ObservationSet observed(2, 2);
  observed.add(0, 0, 10.0);
  observed.add(0, 1, 20.0);
  observed.add(1, 0, 5.0);
  EXPECT_THROW(mle.estimate_truth_only(observed, domain, {{2.0}, {1.0}}, mu,
                                       sigma),
               std::invalid_argument);

  // Unobserved out-of-range task: accepted, its μ/σ stay NaN.
  ObservationSet unobserved(2, 2);
  unobserved.add(0, 0, 10.0);
  unobserved.add(0, 1, 20.0);
  mle.estimate_truth_only(unobserved, domain, {{2.0}, {1.0}}, mu, sigma);
  ASSERT_EQ(mu.size(), 2u);
  EXPECT_NEAR(mu[0], 12.0, 1e-12);
  EXPECT_NEAR(sigma[0], std::sqrt(40.0), 1e-12);
  EXPECT_TRUE(std::isnan(mu[1]));
  EXPECT_TRUE(std::isnan(sigma[1]));
}

// Property sweep: the shrinkage prior pulls small-sample expertise toward
// the prior monotonically — stronger prior, stronger pull.
class PriorStrengthSweep : public ::testing::TestWithParam<double> {};

TEST_P(PriorStrengthSweep, StrongerPriorShrinksSpread) {
  const double prior = GetParam();
  const Model m = make_model(10, 30, 1, /*seed=*/23, 0.3, 3.0);
  MleOptions options;
  options.prior_strength = prior;
  options.anchor_mean = 0.0;  // isolate the prior's effect
  const Eta2Mle mle(options);
  const MleResult r = mle.estimate(m.data, m.domain, 1);
  // Spread of log-expertise across users.
  double log_sum = 0.0;
  for (std::size_t i = 0; i < 10; ++i) log_sum += std::log(r.expertise(i, 0));
  const double log_mean = log_sum / 10.0;
  double var = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const double dv = std::log(r.expertise(i, 0)) - log_mean;
    var += dv * dv;
  }
  // Record into a shared map keyed by prior; the comparison test below
  // cannot see across parameterized cases, so assert a coarse absolute
  // bound instead: spread shrinks below the no-prior case's floor as the
  // prior dominates.
  // Each user holds ~30 observations here, so the prior only dominates
  // once it clearly outweighs that sample size.
  if (prior >= 64.0) {
    EXPECT_LT(var / 10.0, 0.08) << "heavy prior must nearly flatten spread";
  } else {
    EXPECT_GT(var / 10.0, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Priors, PriorStrengthSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 4.0, 16.0, 64.0));

TEST(Eta2MleTest, PriorShrinkageIsMonotone) {
  const Model m = make_model(10, 30, 1, /*seed=*/23, 0.3, 3.0);
  double prev_spread = 1e18;
  for (const double prior : {0.0, 1.0, 4.0, 16.0, 64.0}) {
    MleOptions options;
    options.prior_strength = prior;
    options.anchor_mean = 0.0;
    const Eta2Mle mle(options);
    const MleResult r = mle.estimate(m.data, m.domain, 1);
    double log_sum = 0.0;
    for (std::size_t i = 0; i < 10; ++i) log_sum += std::log(r.expertise(i, 0));
    const double log_mean = log_sum / 10.0;
    double var = 0.0;
    for (std::size_t i = 0; i < 10; ++i) {
      const double dv = std::log(r.expertise(i, 0)) - log_mean;
      var += dv * dv;
    }
    EXPECT_LE(var, prev_spread * 1.05) << "prior " << prior;
    prev_spread = var;
  }
}

// Property sweep: accuracy improves as more users observe each task.
class MleUserCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MleUserCountSweep, ErrorShrinksWithUsers) {
  const std::size_t users = GetParam();
  const Model m = make_model(users, 80, 2, /*seed=*/17);
  const Eta2Mle mle;
  const MleResult r = mle.estimate(m.data, m.domain, 2);
  double err = 0.0;
  for (std::size_t j = 0; j < m.mu.size(); ++j) {
    err += std::fabs(r.mu[j] - m.mu[j]) / m.sigma[j];
  }
  err /= static_cast<double>(m.mu.size());
  // Loose per-size bound: ~C/sqrt(users).
  EXPECT_LT(err, 2.5 / std::sqrt(static_cast<double>(users)));
}

INSTANTIATE_TEST_SUITE_P(UserCounts, MleUserCountSweep,
                         ::testing::Values<std::size_t>(4, 8, 16, 32, 64));

}  // namespace
}  // namespace eta2::truth
