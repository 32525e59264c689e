// Agglomerative average-linkage (UPGMA) clustering.
//
// The paper's merging rule (§3.3.1) repeatedly merges the globally closest
// pair of clusters, where cluster distance is the average pairwise distance
// between their members, and stops when the closest pair is at distance
// >= γ·d*. Average linkage is a reducible linkage, so the greedy
// closest-pair process equals the UPGMA dendrogram; we build the dendrogram
// with the O(n²) nearest-neighbor-chain algorithm and cut it at the
// threshold, which reproduces the paper's algorithm exactly.
#ifndef ETA2_CLUSTERING_LINKAGE_H
#define ETA2_CLUSTERING_LINKAGE_H

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace eta2::clustering {

// Symmetric distance matrix stored as a dense lower triangle.
class SymmetricMatrix {
 public:
  explicit SymmetricMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;
  void set(std::size_t i, std::size_t j, double value);

  // Unchecked variants for validated hot loops (NN-chain inner loops, bulk
  // matrix construction). Preconditions: i, j < size() and i != j — callers
  // must have established them up front; violations are undefined behavior
  // except under ETA2_CHECKS=2, where the contract layer re-verifies them.
  [[nodiscard]] double at_unchecked(std::size_t i, std::size_t j) const {
    ETA2_ASSERT(i < n_ && j < n_ && i != j);
    return data_[index_unchecked(i, j)];
  }
  void set_unchecked(std::size_t i, std::size_t j, double value) {
    ETA2_ASSERT(i < n_ && j < n_ && i != j);
    data_[index_unchecked(i, j)] = value;
  }

 private:
  [[nodiscard]] static std::size_t index_unchecked(std::size_t i,
                                                   std::size_t j) {
    if (i < j) std::swap(i, j);
    // Lower triangle, row i (i >= 1), column j < i.
    return i * (i - 1) / 2 + j;
  }
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j) const;
  std::size_t n_;
  std::vector<double> data_;
};

// One dendrogram merge: clusters `a` and `b` (indices into the sequence
// initial clusters 0..n-1, then merged clusters n, n+1, ...) joined at
// average-linkage distance `distance`, producing cluster `n + step`.
struct MergeStep {
  std::size_t a = 0;
  std::size_t b = 0;
  double distance = 0.0;
};

// Builds the full UPGMA dendrogram from an initial distance matrix and the
// initial cluster sizes (size > 0; use 1.0 for singleton points).
// Returns n−1 merge steps. Requires n >= 1. The matrix is the algorithm's
// working storage: a caller that no longer needs it moves it in.
[[nodiscard]] std::vector<MergeStep> upgma_dendrogram(
    SymmetricMatrix distances, std::vector<double> sizes);

// Cuts a dendrogram: applies every merge with distance < threshold and
// returns, for each of the n initial clusters, a flat label in [0, k).
// Labels are normalized to first-appearance order.
[[nodiscard]] std::vector<std::size_t> cut_dendrogram(
    const std::vector<MergeStep>& dendrogram, std::size_t n, double threshold);

}  // namespace eta2::clustering

#endif  // ETA2_CLUSTERING_LINKAGE_H
