#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace eta2::parallel {
namespace {

// Restores automatic thread-count resolution when a test exits.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) { set_thread_count(n); }
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(ParallelTest, ThreadCountOverride) {
  const ThreadCountGuard guard(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1u);
}

TEST(ParallelTest, ParallelForZeroItems) {
  const ThreadCountGuard guard(4);
  std::atomic<int> calls{0};
  parallel_for(0, 16, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelTest, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const ThreadCountGuard guard(threads);
    // n deliberately not a multiple of the grain; more threads than chunks
    // in the small case below.
    for (const std::size_t n : {std::size_t{1}, std::size_t{5},
                                std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, 7, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
      }
    }
  }
}

TEST(ParallelTest, ChunkBoundariesIndependentOfThreadCount) {
  // Record the chunk decomposition at several thread counts; the contract
  // is that it depends only on (n, grain).
  auto decompose = [](std::size_t threads) {
    set_thread_count(threads);
    std::vector<std::pair<std::size_t, std::size_t>> chunks(100);
    std::atomic<std::size_t> count{0};
    parallel_for_chunks(103, 10, [&](std::size_t begin, std::size_t end) {
      chunks[begin / 10] = {begin, end};
      ++count;
    });
    set_thread_count(0);
    chunks.resize(count.load());
    return chunks;
  };
  const auto serial = decompose(1);
  EXPECT_EQ(serial.size(), 11u);
  EXPECT_EQ(serial.back().second, 103u);
  EXPECT_EQ(decompose(2), serial);
  EXPECT_EQ(decompose(8), serial);
}

TEST(ParallelTest, ReduceMatchesSerialSum) {
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 1.0);
  auto run = [&](std::size_t threads) {
    const ThreadCountGuard guard(threads);
    return parallel_reduce(
        values.size(), 128, 0.0,
        [&](std::size_t begin, std::size_t end) {
          double sum = 0.0;
          for (std::size_t i = begin; i < end; ++i) sum += values[i];
          return sum;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = run(1);
  // Fixed chunk boundaries + in-order combination: bitwise equality.
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelTest, ReduceZeroItemsReturnsIdentity) {
  const ThreadCountGuard guard(4);
  const double result = parallel_reduce(
      0, 16, 42.0, [](std::size_t, std::size_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(result, 42.0);
}

TEST(ParallelTest, ReduceFewerItemsThanThreads) {
  const ThreadCountGuard guard(8);
  const double result = parallel_reduce(
      3, 1, 0.0,
      [](std::size_t begin, std::size_t end) {
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          sum += static_cast<double>(i + 1);
        }
        return sum;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(result, 6.0);
}

TEST(ParallelTest, ExceptionsPropagateToCaller) {
  const ThreadCountGuard guard(4);
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> calls{0};
  parallel_for(50, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 50);
}

TEST(ParallelTest, NestedRegionsRunInline) {
  const ThreadCountGuard guard(4);
  EXPECT_FALSE(in_parallel_region());
  std::atomic<int> inner_total{0};
  parallel_for(4, 1, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    // Nested region: must execute inline without deadlocking.
    parallel_for(10, 2, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 40);
  EXPECT_FALSE(in_parallel_region());
}

// Distinct threads that ran a chunk of a 64-chunk region. Each chunk sleeps
// briefly so every lane the pool admits has time to take part.
std::size_t distinct_chunk_threads() {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for_chunks(64, 1, [&](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  return ids.size();
}

TEST(ParallelTest, ShrunkLaneCountCapsParticipatingThreads) {
  // Spawn eight lanes' worth of workers first; a later, narrower region
  // must still run on no more threads than its own lane count.
  {
    const ThreadCountGuard guard(8);
    EXPECT_LE(distinct_chunk_threads(), 8u);
  }
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{1},
                                  std::size_t{3}}) {
    const ThreadCountGuard guard(lanes);
    EXPECT_LE(distinct_chunk_threads(), lanes) << "lanes " << lanes;
  }
}

TEST(ParallelTest, SetThreadCountInsideRegionThrows) {
  const ThreadCountGuard guard(2);
  EXPECT_THROW(parallel_for(4, 1, [](std::size_t) { set_thread_count(5); }),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::parallel
