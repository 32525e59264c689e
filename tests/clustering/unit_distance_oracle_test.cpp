// Oracle tests for incremental domain identification: DynamicClusterer's
// fused pass plus centroid-form domain × domain linkage must report exactly
// what the literal member-pair construction (unit_distance_oracle.h)
// reports, round by round, and DomainMoments' centroid identity must match
// the exact member-pair mean to 1e-12 relative, including for tight
// domains far from the origin.
#include "unit_distance_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "clustering/domain_moments.h"
#include "clustering/dynamic_clusterer.h"
#include "common/rng.h"
#include "text/embedding.h"
#include "text/pairword.h"

namespace eta2::clustering {
namespace {

text::Embedding around(const text::Embedding& centre, double spread,
                       Rng& rng) {
  text::Embedding v(centre.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    v[k] = centre[k] + spread * rng.normal();
  }
  return v;
}

// A multi-round stream over a few topic centres. Later rounds mix in new
// topics and bridge points on the segment between two known topics, so
// domains are born, grow and merge across rounds.
std::vector<std::vector<text::Embedding>> make_stream(std::uint64_t seed,
                                                      std::size_t dim) {
  Rng rng(seed);
  std::vector<text::Embedding> centres;
  const auto add_centre = [&] {
    text::Embedding c(dim);
    for (double& x : c) x = 4.0 * rng.normal();
    centres.push_back(std::move(c));
  };
  for (int k = 0; k < 4; ++k) add_centre();
  std::vector<std::vector<text::Embedding>> rounds;
  for (int round = 0; round < 6; ++round) {
    if (round > 0 && rng.bernoulli(0.4)) add_centre();
    const std::size_t batch =
        round == 3 ? 1 : static_cast<std::size_t>(rng.uniform_int(4, 24));
    std::vector<text::Embedding> points;
    for (std::size_t t = 0; t < batch; ++t) {
      const auto pick = [&] {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(centres.size()) - 1));
      };
      if (round > 0 && rng.bernoulli(0.3)) {
        const text::Embedding& a = centres[pick()];
        const text::Embedding& b = centres[pick()];
        const double w = rng.uniform01();
        text::Embedding bridge(dim);
        for (std::size_t k = 0; k < dim; ++k) {
          bridge[k] = (1.0 - w) * a[k] + w * b[k];
        }
        points.push_back(around(bridge, 0.3, rng));
      } else {
        points.push_back(around(centres[pick()], 0.8, rng));
      }
    }
    rounds.push_back(std::move(points));
  }
  return rounds;
}

TEST(UnitDistanceOracleTest, AddTasksMatchesMemberPairOracleOverStreams) {
  std::size_t merges = 0;
  std::size_t late_births = 0;
  for (const std::size_t dim : {4u, 64u}) {
    for (const double gamma : {0.2, 0.5, 0.9}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << "dim " << dim << " gamma " << gamma << " seed " << seed);
        DynamicClusterer fast(gamma);
        oracle::OracleClusterer exact(gamma);
        std::size_t round = 0;
        for (const auto& batch : make_stream(seed * 7919 + dim, dim)) {
          const ClusterUpdate got = fast.add_tasks(batch);
          const ClusterUpdate want = exact.add_tasks(batch);
          ASSERT_EQ(got.assignments, want.assignments) << "round " << round;
          ASSERT_EQ(got.new_domains, want.new_domains) << "round " << round;
          ASSERT_EQ(got.merges.size(), want.merges.size()) << "round " << round;
          for (std::size_t k = 0; k < got.merges.size(); ++k) {
            EXPECT_EQ(got.merges[k].kept, want.merges[k].kept);
            EXPECT_EQ(got.merges[k].absorbed, want.merges[k].absorbed);
          }
          EXPECT_EQ(got.distance_evaluations, want.distance_evaluations);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(fast.dstar()),
                    std::bit_cast<std::uint64_t>(exact.dstar()));
          ASSERT_EQ(fast.task_count(), exact.task_count());
          for (std::size_t p = 0; p < fast.task_count(); ++p) {
            ASSERT_EQ(fast.domain_of(p), exact.domain_of(p))
                << "round " << round << " task " << p;
          }
          merges += got.merges.size();
          if (round > 0) late_births += got.new_domains.size();
          ++round;
        }
      }
    }
  }
  // The streams really exercise bridging merges and mid-stream domain births.
  EXPECT_GT(merges, 0u);
  EXPECT_GT(late_births, 0u);
}

// Builds one domain of random size around each centre and checks every
// pair's centroid-form linkage against the exact member-pair mean.
void expect_moments_match(const std::vector<text::Embedding>& centres,
                          double spread, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t dim = centres.front().size();
  std::vector<text::Embedding> points;
  std::vector<std::size_t> unit_of;
  std::vector<std::vector<std::size_t>> members(centres.size());
  // Interleave members across domains, so member order is not contiguous.
  const std::size_t n = 12 * centres.size();
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t u = p < centres.size()
                              ? p
                              : static_cast<std::size_t>(rng.uniform_int(
                                    0, static_cast<std::int64_t>(centres.size()) - 1));
    members[u].push_back(points.size());
    unit_of.push_back(u);
    points.push_back(around(centres[u], spread, rng));
  }
  std::vector<double> rows;
  for (const auto& point : points) rows.insert(rows.end(), point.begin(), point.end());
  const DomainMoments moments(rows, dim, unit_of, centres.size());
  ASSERT_EQ(moments.size(), centres.size());
  for (std::size_t u = 1; u < centres.size(); ++u) {
    for (std::size_t v = 0; v < u; ++v) {
      const double exact =
          oracle::exact_mean_pair_distance(points, members[u], members[v]);
      const double centroid = moments.mean_pair_distance(u, v);
      EXPECT_LE(std::fabs(centroid - exact), 1e-12 * exact)
          << "cell (" << u << ", " << v << ") exact " << exact << " centroid "
          << centroid;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(centroid),
                std::bit_cast<std::uint64_t>(moments.mean_pair_distance(v, u)));
    }
  }
}

TEST(DomainMomentsTest, CentroidFormMatchesExactMeanNearOrigin) {
  for (const std::size_t dim : {4u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      std::vector<text::Embedding> centres(5, text::Embedding(dim));
      for (auto& c : centres) {
        for (double& x : c) x = 3.0 * rng.normal();
      }
      expect_moments_match(centres, 1.0, seed + 100);
    }
  }
}

TEST(DomainMomentsTest, TightDomainsFarFromOriginKeepPrecision) {
  // Domains of spread 1e-3 at offset 1e6: the mean squared deviation is
  // ~1e-6 per coordinate next to squared norms of ~1e12, so an uncentred
  // E‖x‖² − ‖c‖² form would cancel every significant digit. Centroids only
  // 1e-2 apart make the centroid difference just as fragile.
  for (const std::size_t dim : {4u, 64u}) {
    std::vector<text::Embedding> centres;
    for (int k = 0; k < 3; ++k) {
      text::Embedding c(dim, 1e6);
      c[0] += 1e-2 * k;
      centres.push_back(std::move(c));
    }
    // And one ordinary domain near the origin.
    centres.push_back(text::Embedding(dim, 0.5));
    expect_moments_match(centres, 1e-3, 7 + dim);
  }
}

TEST(DomainMomentsTest, SingletonDomainsReduceToTheirDistance) {
  const std::vector<double> rows = {1.0, 2.0, 3.0, 4.0, -1.0, 0.5, 2.0, 8.0};
  const std::vector<std::size_t> unit_of = {0, 1};
  const DomainMoments moments(rows, 4, unit_of, 2);
  const text::Embedding a(rows.begin(), rows.begin() + 4);
  const text::Embedding b(rows.begin() + 4, rows.end());
  EXPECT_DOUBLE_EQ(moments.mean_pair_distance(0, 1), text::task_distance(a, b));
}

TEST(DomainMomentsTest, RejectsBadInput) {
  const std::vector<double> rows = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(DomainMoments(rows, 4, std::vector<std::size_t>{0, 0}, 1),
               std::invalid_argument);
  EXPECT_THROW(DomainMoments(rows, 4, std::vector<std::size_t>{1}, 1),
               std::invalid_argument);
  EXPECT_THROW(DomainMoments(rows, 4, std::vector<std::size_t>{0}, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::clustering
