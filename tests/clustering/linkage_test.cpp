#include "clustering/linkage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace eta2::clustering {
namespace {

SymmetricMatrix from_points(const std::vector<double>& points) {
  SymmetricMatrix m(points.size());
  for (std::size_t i = 1; i < points.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      m.set(i, j, std::fabs(points[i] - points[j]));
    }
  }
  return m;
}

// Flat clusters of singleton points: the UPGMA dendrogram cut at threshold.
std::vector<std::size_t> flat_clusters(const SymmetricMatrix& d, double t) {
  const std::size_t n = d.size();
  return cut_dendrogram(upgma_dendrogram(d, std::vector<double>(n, 1.0)), n, t);
}

std::size_t cluster_count(const std::vector<std::size_t>& labels) {
  return std::set<std::size_t>(labels.begin(), labels.end()).size();
}

TEST(SymmetricMatrixTest, StoresSymmetrically) {
  SymmetricMatrix m(4);
  m.set(1, 3, 2.5);
  EXPECT_DOUBLE_EQ(m.at(1, 3), 2.5);
  EXPECT_DOUBLE_EQ(m.at(3, 1), 2.5);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
}

TEST(SymmetricMatrixTest, RejectsBadIndices) {
  SymmetricMatrix m(3);
  EXPECT_THROW(m.at(0, 3), std::invalid_argument);
  EXPECT_THROW(m.set(1, 1, 0.0), std::invalid_argument);
}

TEST(UpgmaTest, TrivialSizes) {
  EXPECT_TRUE(upgma_dendrogram(SymmetricMatrix(0), {}).empty());
  EXPECT_TRUE(upgma_dendrogram(SymmetricMatrix(1), {1.0}).empty());
}

TEST(UpgmaTest, TwoPoints) {
  const auto steps = upgma_dendrogram(from_points({0.0, 3.0}), {1.0, 1.0});
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].a, 0u);
  EXPECT_EQ(steps[0].b, 1u);
  EXPECT_DOUBLE_EQ(steps[0].distance, 3.0);
}

TEST(UpgmaTest, ClosestPairMergesFirst) {
  // Points 0, 1, 10: the 0-1 pair merges first at distance 1; then the
  // combined cluster merges with 10 at the average distance (10+9)/2.
  const auto steps = upgma_dendrogram(from_points({0.0, 1.0, 10.0}),
                                      {1.0, 1.0, 1.0});
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].distance, 1.0);
  EXPECT_EQ(steps[0].a, 0u);
  EXPECT_EQ(steps[0].b, 1u);
  EXPECT_DOUBLE_EQ(steps[1].distance, 9.5);
  // Second merge joins the new cluster (id 3) with point 2.
  EXPECT_EQ(steps[1].a, 2u);
  EXPECT_EQ(steps[1].b, 3u);
}

TEST(UpgmaTest, WeightedSizesAffectLinkage) {
  // Cluster 0 carries size 3: average distance to it keeps weight 3.
  SymmetricMatrix m(3);
  m.set(0, 1, 2.0);
  m.set(0, 2, 4.0);
  m.set(1, 2, 1.0);
  const auto steps = upgma_dendrogram(m, {3.0, 1.0, 1.0});
  ASSERT_EQ(steps.size(), 2u);
  // 1 and 2 merge first at distance 1; the merged cluster is at
  // (3·2 + 3·4)/(3·1+3·1) = 3 from cluster 0 per Lance-Williams:
  // (s1·d(0,1)+s2·d(0,2))/(s1+s2) = (1·2+1·4)/2 = 3.
  EXPECT_DOUBLE_EQ(steps[1].distance, 3.0);
}

TEST(UpgmaTest, HeightsAreMonotoneAlongPaths) {
  Rng rng(3);
  std::vector<double> points;
  for (int i = 0; i < 40; ++i) points.push_back(rng.uniform(0.0, 100.0));
  const auto steps = upgma_dendrogram(from_points(points),
                                      std::vector<double>(points.size(), 1.0));
  ASSERT_EQ(steps.size(), points.size() - 1);
  // Child node k (id n + k) must merge at height <= its parent's height.
  const std::size_t n = points.size();
  std::vector<double> node_height(2 * n - 1, 0.0);
  for (std::size_t k = 0; k < steps.size(); ++k) {
    node_height[n + k] = steps[k].distance;
    EXPECT_LE(node_height[steps[k].a], steps[k].distance + 1e-12);
    EXPECT_LE(node_height[steps[k].b], steps[k].distance + 1e-12);
  }
}

// Pins the NN-chain's exact output — merge order, child ids and the bit
// pattern of every merge height — over seeded matrices n = 2..71 with
// random cluster sizes 1–4. Every third matrix holds small integer
// distances, so equal-distance ties (and the chain's lowest-slot and
// prefer-predecessor tie rules) are exercised constantly. The expected
// digest was computed with the full-slot-scan NN-chain of commit f8845e5.
TEST(UpgmaTest, DendrogramDigestIsPinned) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  const auto mix = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xffU;
      digest *= 0x100000001b3ULL;
    }
  };
  for (std::size_t n = 2; n <= 71; ++n) {
    Rng rng(1000 + n);
    const bool integer_valued = n % 3 == 0;
    SymmetricMatrix m(n);
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        m.set(i, j, integer_valued
                        ? static_cast<double>(rng.uniform_int(1, 6))
                        : rng.uniform(0.0, 10.0));
      }
    }
    std::vector<double> sizes(n);
    for (double& s : sizes) s = static_cast<double>(rng.uniform_int(1, 4));
    for (const MergeStep& step : upgma_dendrogram(m, sizes)) {
      mix(step.a);
      mix(step.b);
      mix(std::bit_cast<std::uint64_t>(step.distance));
    }
  }
  EXPECT_EQ(digest, 0xb94fe4e8955aa46dULL);
}

TEST(UpgmaTest, RejectsBadSizes) {
  EXPECT_THROW(upgma_dendrogram(SymmetricMatrix(2), {1.0}),
               std::invalid_argument);
  EXPECT_THROW(upgma_dendrogram(SymmetricMatrix(2), {1.0, 0.0}),
               std::invalid_argument);
}

TEST(CutTest, ThresholdZeroKeepsSingletons) {
  const auto labels = flat_clusters(from_points({0.0, 0.0, 0.0}), 0.0);
  EXPECT_EQ(cluster_count(labels), 3u);
}

TEST(CutTest, LargeThresholdMergesAll) {
  const auto labels = flat_clusters(from_points({0.0, 1.0, 5.0, 9.0}), 1e9);
  EXPECT_EQ(cluster_count(labels), 1u);
}

TEST(CutTest, RecoverseparatedGroups) {
  // Two tight groups far apart.
  const std::vector<double> points = {0.0, 0.1, 0.2, 100.0, 100.1, 100.2};
  const auto labels = flat_clusters(from_points(points), 10.0);
  EXPECT_EQ(cluster_count(labels), 2u);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(CutTest, ThresholdIsExclusive) {
  // Merge happens only when distance < threshold (paper: terminate when the
  // closest distance is equal to or larger than γ·d*).
  const auto at_threshold = flat_clusters(from_points({0.0, 2.0}), 2.0);
  EXPECT_EQ(cluster_count(at_threshold), 2u);
  const auto above = flat_clusters(from_points({0.0, 2.0}), 2.001);
  EXPECT_EQ(cluster_count(above), 1u);
}

TEST(CutTest, LabelsAreFirstAppearanceOrdered) {
  const std::vector<double> points = {0.0, 100.0, 0.1, 100.1};
  const auto labels = flat_clusters(from_points(points), 10.0);
  EXPECT_EQ(labels[0], 0u);
  EXPECT_EQ(labels[1], 1u);
  EXPECT_EQ(labels[2], 0u);
  EXPECT_EQ(labels[3], 1u);
}

// Property: the greedy closest-pair semantics means every within-cluster
// merge distance is below the threshold, and the final between-cluster
// average distances are >= threshold.
class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, BetweenClusterAverageAboveThreshold) {
  const double threshold = GetParam();
  Rng rng(17);
  std::vector<double> points;
  for (int i = 0; i < 30; ++i) points.push_back(rng.uniform(0.0, 50.0));
  const auto matrix = from_points(points);
  const auto labels = flat_clusters(matrix, threshold);
  const std::size_t k = cluster_count(labels);
  // Average pairwise distance between every pair of final clusters.
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b) {
      double sum = 0.0;
      int count = 0;
      for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = 0; j < points.size(); ++j) {
          if (labels[i] == a && labels[j] == b) {
            sum += matrix.at(i, j);
            ++count;
          }
        }
      }
      ASSERT_GT(count, 0);
      EXPECT_GE(sum / count, threshold - 1e-9)
          << "clusters " << a << "," << b << " closer than threshold";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0, 25.0));

}  // namespace
}  // namespace eta2::clustering
