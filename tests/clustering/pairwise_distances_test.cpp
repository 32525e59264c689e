// Reference/rewrite gate for the panel distance kernel behind
// clustering::pairwise_task_distances: the matrix must equal a per-pair
// text::task_distance scan bit for bit, at every thread count and on sizes
// that leave ragged panels (n not a multiple of kPanelRows).
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "clustering/dynamic_clusterer.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "text/pairword.h"

namespace eta2::clustering {
namespace {

std::vector<text::Embedding> random_points(std::size_t n, std::size_t dim,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<text::Embedding> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    text::Embedding v(dim);
    for (double& x : v) x = rng.normal();
    points.push_back(std::move(v));
  }
  return points;
}

TEST(PairwiseDistancesTest, BlockedMatchesPerPairTaskDistanceBitwise) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::set_thread_count(threads);
    for (const std::size_t n :
         {0u, 1u, 2u, 3u, 4u, 5u, 7u, 9u, 31u, 32u, 33u, 64u, 95u}) {
      for (const std::size_t dim : {2u, 6u, 64u, 66u}) {
        const auto points = random_points(n, dim, n * 131 + dim);
        const SymmetricMatrix blocked = pairwise_task_distances(points);
        ASSERT_EQ(blocked.size(), n);
        for (std::size_t i = 1; i < n; ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            const double naive = text::task_distance(points[i], points[j]);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(blocked.at(i, j)),
                      std::bit_cast<std::uint64_t>(naive))
                << "threads " << threads << " n " << n << " dim " << dim
                << " cell (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
  parallel::set_thread_count(0);  // restore the default
}

// The fused identification pass writes each new row's sums and unit-matrix
// row from one lane and folds d* over fixed chunks, so a whole multi-round
// stream — every update, d*, and the saved state — is bitwise the same at
// 1, 2 and 8 threads.
TEST(DynamicClustererThreadsTest, UpdatesAreBitIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    parallel::set_thread_count(threads);
    DynamicClusterer clusterer(0.1);
    std::ostringstream transcript;
    for (std::uint64_t round = 0; round < 5; ++round) {
      auto batch = random_points(37, 64, 500 + round);
      // Four topics, plus one far outlier in round 3: it grows d*, and
      // with it γ·d*, until existing domains merge.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const double topic = round == 3 && i == 0 ? 10.0
                                                  : static_cast<double>(i % 4);
        for (double& x : batch[i]) x += 6.0 * topic;
      }
      const ClusterUpdate u = clusterer.add_tasks(batch);
      for (const DomainId d : u.assignments) transcript << d << ' ';
      for (const DomainId d : u.new_domains) transcript << 'n' << d << ' ';
      for (const DomainMerge& m : u.merges) {
        transcript << 'm' << m.kept << ':' << m.absorbed << ' ';
      }
      transcript << u.distance_evaluations << ' '
                 << std::bit_cast<std::uint64_t>(clusterer.dstar()) << '\n';
    }
    clusterer.save(transcript);
    parallel::set_thread_count(0);  // restore the default
    return transcript.str();
  };
  const std::string serial = run(1);
  EXPECT_NE(serial.find(" m"), std::string::npos);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

}  // namespace
}  // namespace eta2::clustering
