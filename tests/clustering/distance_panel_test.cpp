// Bit-identity gate for the panel distance kernel (distance_panel.h). Every
// lane must equal text::task_distance bit for bit on ragged panels (1–4
// rows), earlier-row counts that are not multiples of the panel height,
// dims 2, 6, 64 and 66 (odd halves included), signed zeros and a tight
// domain offset by 1e6. The fused identification pass built on it must
// report, round by round, what the member-pair oracle
// (unit_distance_oracle.h) reports for batches of 1–9 tasks, at 1, 2 and 8
// threads, and a multi-round stream must be bitwise the same at every thread
// count. Built into the sanitize-labelled binary, so the TSan and ASan+UBSan
// jobs run the padded-panel tails.
#include "clustering/distance_panel.h"

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
#include "text/embedding.h"
#include "text/pairword.h"
#include "unit_distance_oracle.h"

namespace eta2::clustering {
namespace {

constexpr std::size_t kDims[] = {2, 6, 64, 66};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Rows that stress the kernel's arithmetic: ordinary normals, rows whose
// coordinates are exact +0.0 / −0.0 (so lanes subtract signed zeros), and a
// tight cluster offset by 1e6 whose differences cancel almost every digit.
std::vector<text::Embedding> mixed_rows(std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<text::Embedding> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    text::Embedding v(dim);
    for (std::size_t k = 0; k < dim; ++k) {
      switch (i % 3) {
        case 0:
          v[k] = rng.normal();
          break;
        case 1:
          v[k] = rng.bernoulli(0.5) ? (rng.bernoulli(0.5) ? 0.0 : -0.0)
                                    : rng.normal();
          break;
        default:
          v[k] = 1e6 + 1e-3 * rng.normal();
          break;
      }
    }
    rows.push_back(std::move(v));
  }
  return rows;
}

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

std::vector<const double*> pointers(const std::vector<text::Embedding>& rows) {
  std::vector<const double*> out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.push_back(row.data());
  return out;
}

TEST(PanelDistanceTest, EveryLaneMatchesTaskDistanceBitwise) {
  for (const std::size_t dim : kDims) {
    for (std::size_t count = 1; count <= kPanelRows; ++count) {
      for (const std::size_t earlier_count :
           {0u, 1u, 2u, 3u, 5u, 7u, 9u, 30u}) {
        SCOPED_TRACE(::testing::Message() << "dim " << dim << " panel "
                                          << count << " earlier "
                                          << earlier_count);
        const auto panel = mixed_rows(count, dim, dim * 97 + count);
        const auto earlier =
            mixed_rows(earlier_count, dim, dim * 31 + earlier_count + 7);
        const auto panel_ptrs = pointers(panel);
        const auto earlier_ptrs = pointers(earlier);
        std::vector<double> strip(earlier_count * kPanelRows);
        panel_distances(panel_ptrs, earlier_ptrs, dim, strip);
        for (std::size_t j = 0; j < earlier_count; ++j) {
          for (std::size_t r = 0; r < count; ++r) {
            ASSERT_EQ(bits(strip[j * kPanelRows + r]),
                      bits(text::task_distance(panel[r], earlier[j])))
                << "lane " << r << " row " << j;
          }
        }
      }
    }
  }
}

// Signed zeros cancel to +0.0 in every lane, and an exact row pair is +0.0
// (never −0.0, which would reorder the fused pass's d* max).
TEST(PanelDistanceTest, SignedZerosAndDuplicatesGivePositiveZero) {
  const text::Embedding plus(6, 0.0);
  const text::Embedding minus(6, -0.0);
  const std::vector<text::Embedding> panel = {plus, minus, minus};
  const std::vector<text::Embedding> earlier = {minus, plus};
  std::vector<double> strip(earlier.size() * kPanelRows);
  panel_distances(pointers(panel), pointers(earlier), 6, strip);
  for (std::size_t j = 0; j < earlier.size(); ++j) {
    for (std::size_t r = 0; r < panel.size(); ++r) {
      EXPECT_EQ(bits(strip[j * kPanelRows + r]), bits(0.0));
    }
  }
}

// Rounds of 1, 2, …, 9 tasks, so earlier-row counts run 0, 1, 3, 6, 10, …
// (mostly not multiples of kPanelRows) and every ragged tail of a panel
// occurs. Tasks sit around three topics; above dim 2 one coordinate pair
// is ±0.0 in every row, and round 6 brings a tight domain offset by 1e6,
// which raises d* mid-stream and merges the topics.
std::vector<std::vector<text::Embedding>> ragged_stream(std::size_t dim,
                                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<text::Embedding> centres(3, text::Embedding(dim));
  for (auto& centre : centres) {
    for (double& x : centre) x = 4.0 * rng.normal();
  }
  std::vector<std::vector<text::Embedding>> rounds;
  for (std::size_t batch = 1; batch <= 9; ++batch) {
    std::vector<text::Embedding> points;
    for (std::size_t t = 0; t < batch; ++t) {
      text::Embedding v(dim);
      if (batch == 6 && t < 3) {
        for (double& x : v) x = 1e6 + 1e-3 * rng.normal();
      } else {
        const text::Embedding& centre = centres[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(centres.size()) - 1))];
        for (std::size_t k = 0; k < dim; ++k) {
          v[k] = centre[k] + 0.8 * rng.normal();
        }
      }
      if (dim > 2) {
        v[0] = t % 2 == 0 ? 0.0 : -0.0;
        v[dim / 2] = t % 2 == 0 ? -0.0 : 0.0;
      }
      points.push_back(std::move(v));
    }
    rounds.push_back(std::move(points));
  }
  return rounds;
}

TEST(PanelDistanceTest, FusedPassMatchesOracleOnRaggedBatches) {
  std::size_t merges = 0;
  std::size_t late_births = 0;
  for (const std::size_t dim : kDims) {
    for (const double gamma : {0.1, 0.5}) {
      std::string serial_state;
      for (const std::size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "dim " << dim << " gamma "
                                          << gamma << " threads " << threads);
        parallel::set_thread_count(threads);
        DynamicClusterer fast(gamma);
        oracle::OracleClusterer exact(gamma);
        std::size_t old = 0;
        for (const auto& batch : ragged_stream(dim, dim * 13 + 5)) {
          const ClusterUpdate got = fast.add_tasks(batch);
          const ClusterUpdate want = exact.add_tasks(batch);
          const std::size_t b = batch.size();
          ASSERT_EQ(got.distance_evaluations, b * old + b * (b - 1) / 2)
              << "batch " << b;
          ASSERT_EQ(got.distance_evaluations, want.distance_evaluations);
          ASSERT_EQ(got.assignments, want.assignments) << "batch " << b;
          ASSERT_EQ(got.new_domains, want.new_domains) << "batch " << b;
          ASSERT_EQ(got.merges.size(), want.merges.size()) << "batch " << b;
          for (std::size_t k = 0; k < got.merges.size(); ++k) {
            EXPECT_EQ(got.merges[k].kept, want.merges[k].kept);
            EXPECT_EQ(got.merges[k].absorbed, want.merges[k].absorbed);
          }
          ASSERT_EQ(bits(fast.dstar()), bits(exact.dstar())) << "batch " << b;
          merges += got.merges.size();
          if (old > 0) late_births += got.new_domains.size();
          old += b;
        }
        ASSERT_EQ(fast.task_count(), exact.task_count());
        for (std::size_t p = 0; p < fast.task_count(); ++p) {
          ASSERT_EQ(fast.domain_of(p), exact.domain_of(p)) << "task " << p;
        }
        std::ostringstream state;
        fast.save(state);
        if (threads == 1) {
          serial_state = state.str();
        } else {
          EXPECT_EQ(state.str(), serial_state);
        }
      }
    }
  }
  parallel::set_thread_count(0);  // restore the default
  // The streams really merge existing domains and open new ones mid-stream.
  EXPECT_GT(merges, 0u);
  EXPECT_GT(late_births, 0u);
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
