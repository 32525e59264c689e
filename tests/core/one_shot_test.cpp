#include "core/one_shot.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "text/embedder.h"

namespace eta2::core {
namespace {

// Two latent domains, users good at one each; observations follow the
// paper's model.
struct Scenario {
  truth::ObservationSet data{0, 0};
  std::vector<std::string> descriptions;
  std::vector<std::size_t> labels;
  std::vector<double> mu;
};

Scenario make_scenario(std::size_t users, std::size_t tasks,
                       std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.data = truth::ObservationSet(users, tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    const std::size_t domain = j % 2;
    s.labels.push_back(domain);
    s.descriptions.push_back(domain == 0 ? "noise near the park"
                                         : "salary at the bank");
    const double mu = rng.uniform(0.0, 20.0);
    s.mu.push_back(mu);
    for (std::size_t i = 0; i < users; ++i) {
      const bool expert = (i % 2) == domain;
      s.data.add(j, i, rng.normal(mu, expert ? 0.3 : 2.5));
    }
  }
  return s;
}

TEST(OneShotTest, LabeledPathRecoversTruth) {
  const Scenario s = make_scenario(8, 60, 3);
  const OneShotResult r = analyze_labeled(s.labels, s.data);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.domain_count, 2u);
  double err = 0.0;
  for (std::size_t j = 0; j < s.mu.size(); ++j) {
    EXPECT_FALSE(std::isnan(r.truth[j]));
    err += std::fabs(r.truth[j] - s.mu[j]);
  }
  EXPECT_LT(err / static_cast<double>(s.mu.size()), 0.3);
}

TEST(OneShotTest, LabeledPathLearnsPerDomainExpertise) {
  const Scenario s = make_scenario(8, 120, 5);
  const OneShotResult r = analyze_labeled(s.labels, s.data);
  // Even users are experts in domain 0, odd users in domain 1.
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t strong = i % 2;
    EXPECT_GT(r.expertise(i, strong), r.expertise(i, 1 - strong))
        << "user " << i;
  }
}

TEST(OneShotTest, DescribedPathClustersAndMatchesLabeled) {
  const Scenario s = make_scenario(6, 40, 7);
  const text::HashEmbedder embedder(32);
  const OneShotResult described =
      analyze_described(s.descriptions, s.data, embedder);
  EXPECT_EQ(described.domain_count, 2u);
  // The two identical description groups map to two domains consistently.
  for (std::size_t j = 2; j < s.labels.size(); ++j) {
    EXPECT_EQ(described.task_domains[j], described.task_domains[j % 2]);
  }
  const OneShotResult labeled = analyze_labeled(s.labels, s.data);
  for (std::size_t j = 0; j < s.mu.size(); ++j) {
    EXPECT_NEAR(described.truth[j], labeled.truth[j], 1e-9);
  }
}

TEST(OneShotTest, ExternalLabelsAreDensified) {
  truth::ObservationSet data(2, 3);
  data.add(0, 0, 1.0);
  data.add(1, 0, 2.0);
  data.add(2, 0, 3.0);
  const std::vector<std::size_t> sparse_labels = {42, 7, 42};
  const OneShotResult r = analyze_labeled(sparse_labels, data);
  EXPECT_EQ(r.domain_count, 2u);
  EXPECT_EQ(r.task_domains[0], r.task_domains[2]);
  EXPECT_NE(r.task_domains[0], r.task_domains[1]);
}

TEST(OneShotTest, RejectsShapeMismatches) {
  truth::ObservationSet data(1, 2);
  const std::vector<std::size_t> labels = {0};
  EXPECT_THROW(analyze_labeled(labels, data), std::invalid_argument);
  EXPECT_THROW(analyze_labeled({}, truth::ObservationSet(1, 0)),
               std::invalid_argument);
  const text::HashEmbedder embedder(8);
  const std::vector<std::string> descriptions = {"one"};
  EXPECT_THROW(analyze_described(descriptions, data, embedder),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::core
