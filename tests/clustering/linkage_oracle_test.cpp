// Oracle test: the NN-chain UPGMA implementation must produce exactly the
// clustering of the paper's literal algorithm — "repeatedly merge the
// closest pair of clusters (average linkage) until the closest distance is
// >= the threshold" — implemented here naively in O(n³).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "clustering/linkage.h"
#include "common/rng.h"

namespace eta2::clustering {
namespace {

// Flat clusters of singleton points: the UPGMA dendrogram cut at threshold.
std::vector<std::size_t> flat_clusters(const SymmetricMatrix& d, double t) {
  const std::size_t n = d.size();
  return cut_dendrogram(upgma_dendrogram(d, std::vector<double>(n, 1.0)), n, t);
}

// Naive greedy closest-pair average-linkage clustering.
std::vector<std::size_t> naive_greedy_cluster(const SymmetricMatrix& dist,
                                              double threshold) {
  const std::size_t n = dist.size();
  std::vector<std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < n; ++i) clusters.push_back({i});

  auto linkage = [&](const std::vector<std::size_t>& a,
                     const std::vector<std::size_t>& b) {
    double sum = 0.0;
    for (const std::size_t p : a) {
      for (const std::size_t q : b) sum += dist.at(p, q);
    }
    return sum / (static_cast<double>(a.size()) * static_cast<double>(b.size()));
  };

  while (clusters.size() > 1) {
    double best = 1e300;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    for (std::size_t a = 0; a < clusters.size(); ++a) {
      for (std::size_t b = a + 1; b < clusters.size(); ++b) {
        const double d = linkage(clusters[a], clusters[b]);
        if (d < best) {
          best = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    if (best >= threshold) break;
    clusters[best_a].insert(clusters[best_a].end(), clusters[best_b].begin(),
                            clusters[best_b].end());
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(best_b));
  }

  std::vector<std::size_t> labels(n, 0);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const std::size_t p : clusters[c]) labels[p] = c;
  }
  return labels;
}

// Partitions are equal up to label renaming.
bool same_partition(const std::vector<std::size_t>& a,
                    const std::vector<std::size_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<std::size_t, std::size_t> a_to_b;
  std::map<std::size_t, std::size_t> b_to_a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto [it1, ins1] = a_to_b.try_emplace(a[i], b[i]);
    if (it1->second != b[i]) return false;
    const auto [it2, ins2] = b_to_a.try_emplace(b[i], a[i]);
    if (it2->second != a[i]) return false;
  }
  return true;
}

class UpgmaOracleSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(UpgmaOracleSweep, MatchesNaiveGreedy) {
  const auto [seed, threshold_frac] = GetParam();
  Rng rng(seed);
  const std::size_t n = 24;
  SymmetricMatrix dist(n);
  double max_dist = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double d = rng.uniform(0.1, 10.0);
      dist.set(i, j, d);
      max_dist = std::max(max_dist, d);
    }
  }
  const double threshold = threshold_frac * max_dist;
  const auto fast = flat_clusters(dist, threshold);
  const auto naive = naive_greedy_cluster(dist, threshold);
  EXPECT_TRUE(same_partition(fast, naive))
      << "seed=" << seed << " threshold=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UpgmaOracleSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6),
                       ::testing::Values(0.2, 0.5, 0.8, 1.01)));

}  // namespace
}  // namespace eta2::clustering
