#include "clustering/dynamic_clusterer.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/rng.h"
#include "text/embedder.h"
#include "text/pairword.h"

namespace eta2::clustering {
namespace {

// 2-block vectors (query/target halves) placed on a line; task_distance
// between [x,0] and [y,0] blocks is ½(x−y)² per half.
text::Embedding point(double q, double t) { return {q, 0.0, t, 0.0}; }

TEST(DynamicClustererTest, RejectsBadGamma) {
  EXPECT_THROW(DynamicClusterer(-0.1), std::invalid_argument);
  EXPECT_THROW(DynamicClusterer(1.1), std::invalid_argument);
}

TEST(DynamicClustererTest, EmptyBatchIsNoop) {
  DynamicClusterer c(0.5);
  const ClusterUpdate u = c.add_tasks({});
  EXPECT_TRUE(u.assignments.empty());
  EXPECT_EQ(c.task_count(), 0u);
}

TEST(DynamicClustererTest, WarmupClustersTwoGroups) {
  DynamicClusterer c(0.5);
  const std::vector<text::Embedding> batch = {
      point(0.0, 0.0), point(0.1, 0.0), point(10.0, 10.0), point(10.1, 10.0)};
  const ClusterUpdate u = c.add_tasks(batch);
  ASSERT_EQ(u.assignments.size(), 4u);
  EXPECT_EQ(u.assignments[0], u.assignments[1]);
  EXPECT_EQ(u.assignments[2], u.assignments[3]);
  EXPECT_NE(u.assignments[0], u.assignments[2]);
  EXPECT_EQ(u.new_domains.size(), 2u);
  EXPECT_TRUE(u.merges.empty());
  EXPECT_EQ(c.domain_count(), 2u);
}

TEST(DynamicClustererTest, NewTaskJoinsExistingDomain) {
  DynamicClusterer c(0.5);
  const auto first = c.add_tasks(std::vector<text::Embedding>{
      point(0.0, 0.0), point(0.1, 0.0), point(10.0, 10.0), point(10.1, 10.0)});
  const DomainId group_a = first.assignments[0];

  const auto second =
      c.add_tasks(std::vector<text::Embedding>{point(0.05, 0.0)});
  ASSERT_EQ(second.assignments.size(), 1u);
  EXPECT_EQ(second.assignments[0], group_a);
  EXPECT_TRUE(second.new_domains.empty());
  EXPECT_TRUE(second.merges.empty());
  EXPECT_EQ(c.domain_count(), 2u);
}

TEST(DynamicClustererTest, DistantTaskCreatesNewDomain) {
  DynamicClusterer c(0.3);
  c.add_tasks(std::vector<text::Embedding>{
      point(0.0, 0.0), point(0.1, 0.0), point(10.0, 10.0), point(10.1, 10.0)});
  const auto update =
      c.add_tasks(std::vector<text::Embedding>{point(-50.0, -50.0)});
  // The far-away task forms its own domain. Note that its arrival also
  // grows d* (and with it the merge threshold γ·d*), which may legitimately
  // merge the two original domains — the paper's dynamic semantics.
  ASSERT_EQ(update.new_domains.size(), 1u);
  EXPECT_EQ(update.assignments[0], update.new_domains[0]);
  EXPECT_GE(c.domain_count(), 2u);
  EXPECT_LE(c.domain_count(), 3u);
}

TEST(DynamicClustererTest, BridgingTasksMergeDomains) {
  // Two groups just over the threshold apart; adding tasks between them
  // pulls the average distance below γ·d* and the domains merge.
  DynamicClusterer c(0.9);
  const auto first = c.add_tasks(std::vector<text::Embedding>{
      point(0.0, 0.0), point(2.0, 0.0), point(100.0, 0.0)});
  // d* is dominated by the 0-100 distance; groups {0,2} and {100} exist.
  const std::size_t before = c.domain_count();
  const auto update = c.add_tasks(std::vector<text::Embedding>{
      point(40.0, 0.0), point(50.0, 0.0), point(60.0, 0.0)});
  // With bridges the structure flattens; domains can only shrink or stay.
  EXPECT_LE(c.domain_count(), before + 1);
  // All reported merges reference previously live domains.
  for (const DomainMerge& m : update.merges) {
    EXPECT_NE(m.kept, m.absorbed);
  }
}

TEST(DynamicClustererTest, DomainOfTracksAllTasks) {
  DynamicClusterer c(0.5);
  c.add_tasks(std::vector<text::Embedding>{point(0.0, 0.0), point(9.0, 9.0)});
  c.add_tasks(std::vector<text::Embedding>{point(0.1, 0.0)});
  EXPECT_EQ(c.task_count(), 3u);
  EXPECT_EQ(c.domain_of(0), c.domain_of(2));
  EXPECT_NE(c.domain_of(0), c.domain_of(1));
  EXPECT_THROW(c.domain_of(3), std::invalid_argument);
}

TEST(DynamicClustererTest, GammaZeroKeepsEveryTaskSeparate) {
  DynamicClusterer c(0.0);
  const auto u = c.add_tasks(std::vector<text::Embedding>{
      point(0.0, 0.0), point(0.0, 0.0), point(0.1, 0.0)});
  std::set<DomainId> distinct(u.assignments.begin(), u.assignments.end());
  EXPECT_EQ(distinct.size(), 3u);
}

TEST(DynamicClustererTest, GammaOneMergesEverything) {
  DynamicClusterer c(1.0);
  const auto u = c.add_tasks(std::vector<text::Embedding>{
      point(0.0, 0.0), point(5.0, 5.0), point(10.0, 10.0)});
  std::set<DomainId> distinct(u.assignments.begin(), u.assignments.end());
  // The largest pairwise distance never merges (threshold is exclusive),
  // so at least two domains can survive, but near-duplicates must merge.
  EXPECT_LE(distinct.size(), 2u);
}

TEST(DynamicClustererTest, RejectsDimensionMismatch) {
  DynamicClusterer c(0.5);
  c.add_tasks(std::vector<text::Embedding>{point(0.0, 0.0)});
  EXPECT_THROW(
      c.add_tasks(std::vector<text::Embedding>{{1.0, 2.0}}),
      std::invalid_argument);
}

TEST(DynamicClustererTest, DstarGrowsMonotonically) {
  DynamicClusterer c(0.5);
  c.add_tasks(std::vector<text::Embedding>{point(0.0, 0.0), point(1.0, 0.0)});
  const double d1 = c.dstar();
  c.add_tasks(std::vector<text::Embedding>{point(100.0, 0.0)});
  EXPECT_GT(c.dstar(), d1);
  c.add_tasks(std::vector<text::Embedding>{point(0.5, 0.0)});
  EXPECT_GE(c.dstar(), d1);
}

// One round evaluates each new × earlier task pair exactly once — the
// warm-up round's all-pairs triangle included — and domain × domain
// linkage adds no evaluations.
TEST(DynamicClustererTest, DistanceEvaluationsArePerRoundExact) {
  DynamicClusterer c(0.1);
  Rng rng(11);
  std::size_t old = 0;
  for (const std::size_t batch : {9u, 1u, 14u, 5u, 30u, 2u}) {
    std::vector<text::Embedding> vectors;
    for (std::size_t t = 0; t < batch; ++t) {
      const double centre = 20.0 * static_cast<double>(rng.uniform_int(0, 3));
      vectors.push_back(point(centre + rng.normal(), rng.normal()));
    }
    const ClusterUpdate u = c.add_tasks(vectors);
    EXPECT_EQ(u.distance_evaluations, batch * old + batch * (batch - 1) / 2)
        << "batch " << batch << " after " << old << " tasks";
    old += batch;
  }
  EXPECT_GT(c.domain_count(), 1u);
  EXPECT_EQ(c.add_tasks({}).distance_evaluations, 0u);
}

// End-to-end: cluster semantic vectors of topic-coherent descriptions using
// the hash embedder (tasks sharing words cluster together).
TEST(DynamicClustererTest, ClustersDescriptionsSharingWords) {
  const text::HashEmbedder embedder(32);
  const std::vector<std::string> descriptions = {
      "noise near the park",     "noise near the reservoir",
      "noise around the park",   "salary at the bank",
      "salary of the brokerage", "salary at the exchange",
  };
  std::vector<text::Embedding> vectors;
  for (const auto& d : descriptions) {
    vectors.push_back(text::semantic_vector(d, embedder));
  }
  DynamicClusterer c(0.6);
  const auto u = c.add_tasks(vectors);
  EXPECT_EQ(u.assignments[0], u.assignments[1]);
  EXPECT_EQ(u.assignments[0], u.assignments[2]);
  EXPECT_EQ(u.assignments[3], u.assignments[4]);
  EXPECT_EQ(u.assignments[3], u.assignments[5]);
  EXPECT_NE(u.assignments[0], u.assignments[3]);
}

}  // namespace
}  // namespace eta2::clustering
