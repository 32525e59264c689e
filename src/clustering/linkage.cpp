#include "clustering/linkage.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/error.h"

namespace eta2::clustering {

SymmetricMatrix::SymmetricMatrix(std::size_t n)
    : n_(n), data_(n >= 2 ? n * (n - 1) / 2 : 0, 0.0) {}

std::size_t SymmetricMatrix::index(std::size_t i, std::size_t j) const {
  require(i < n_ && j < n_ && i != j, "SymmetricMatrix: bad index");
  return index_unchecked(i, j);
}

double SymmetricMatrix::at(std::size_t i, std::size_t j) const {
  if (i == j) return 0.0;
  return data_[index(i, j)];
}

void SymmetricMatrix::set(std::size_t i, std::size_t j, double value) {
  data_[index(i, j)] = value;
}

std::vector<MergeStep> upgma_dendrogram(SymmetricMatrix dist,
                                        std::vector<double> sizes) {
  const std::size_t n = dist.size();
  require(sizes.size() == n, "upgma_dendrogram: sizes/matrix size mismatch");
  for (const double s : sizes) {
    require(s > 0.0, "upgma_dendrogram: cluster sizes must be positive");
  }
  std::vector<MergeStep> steps;
  if (n < 2) return steps;
  steps.reserve(n - 1);

  // `dist` is the working matrix over "slots". Slot k initially holds
  // cluster k; after a merge the combined cluster reuses one slot and the
  // other slot leaves `active`, the ascending list of live slots, so every
  // scan below touches only live slots, in the same ascending order a full
  // 0..n−1 sweep would visit them. `label[k]` is the dendrogram index the
  // slot currently holds.
  std::vector<std::size_t> active(n);
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::vector<std::size_t> label(n);
  std::iota(label.begin(), label.end(), std::size_t{0});

  // Nearest-neighbor chain.
  std::vector<std::size_t> chain;
  chain.reserve(n);

  // All slot indices below stay < n and merges never compare a slot with
  // itself, so the shape validation above licenses the unchecked accessors.
  // Ties keep the lowest slot (strict <, ascending scan).
  auto nearest_active = [&](std::size_t slot, std::size_t exclude,
                            bool has_exclude) -> std::size_t {
    std::size_t best = n;
    double best_dist = std::numeric_limits<double>::infinity();
    for (const std::size_t other : active) {
      if (other == slot) continue;
      if (has_exclude && other == exclude) continue;
      const double d = dist.at_unchecked(slot, other);
      if (d < best_dist) {
        best_dist = d;
        best = other;
      }
    }
    return best;
  };

  std::size_t next_label = n;
  while (active.size() > 1) {
    // Start the chain from the lowest active slot.
    if (chain.empty()) chain.push_back(active.front());
    while (true) {
      const std::size_t tip = chain.back();
      const bool has_prev = chain.size() >= 2;
      const std::size_t prev = has_prev ? chain[chain.size() - 2] : 0;
      std::size_t nn = nearest_active(tip, prev, has_prev);
      // Prefer the chain predecessor on ties so mutual pairs terminate.
      if (has_prev && nn != n) {
        if (dist.at_unchecked(tip, prev) <= dist.at_unchecked(tip, nn)) {
          nn = prev;
        }
      } else if (has_prev && nn == n) {
        nn = prev;
      }
      ensure(nn != n, "upgma_dendrogram: no active neighbor found");
      if (has_prev && nn == prev) {
        // Mutual nearest neighbors: merge tip and prev.
        const std::size_t a = prev;
        const std::size_t b = tip;
        const double d = dist.at_unchecked(a, b);
        steps.push_back(MergeStep{std::min(label[a], label[b]),
                                  std::max(label[a], label[b]), d});
        // Lance-Williams update for average linkage into slot a.
        const double sa = sizes[a];
        const double sb = sizes[b];
        for (const std::size_t other : active) {
          if (other == a || other == b) continue;
          const double updated = (sa * dist.at_unchecked(a, other) +
                                  sb * dist.at_unchecked(b, other)) /
                                 (sa + sb);
          dist.set_unchecked(a, other, updated);
        }
        sizes[a] = sa + sb;
        active.erase(std::lower_bound(active.begin(), active.end(), b));
        label[a] = next_label++;
        chain.pop_back();
        chain.pop_back();
        break;
      }
      chain.push_back(nn);
    }
  }

  // Note: NN-chain may emit merges of independent branches out of height
  // order, but average linkage is reducible, so heights are monotone along
  // every tree path (children before parents, child height <= parent
  // height). Cutting at a threshold therefore never needs a global sort.
  ETA2_ENSURES(steps.size() == n - 1);
  return steps;
}

std::vector<std::size_t> cut_dendrogram(const std::vector<MergeStep>& dendrogram,
                                        std::size_t n, double threshold) {
  // Union-find over initial clusters; merged-cluster ids in `dendrogram`
  // refer to dendrogram nodes, so map node id -> representative root.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // node_root[k]: for dendrogram node id k (0..n-1 initial, then one per
  // applied merge in order), the union-find root representing it.
  std::vector<std::size_t> node_root(n + dendrogram.size(), 0);
  std::iota(node_root.begin(), node_root.begin() + static_cast<std::ptrdiff_t>(n),
            std::size_t{0});

  std::size_t next_node = n;
  for (const MergeStep& step : dendrogram) {
    const std::size_t node_id = next_node++;
    // Merge-index validity: both children must be nodes that already exist
    // (initial clusters or earlier merges), and a node cannot merge with
    // itself — a malformed dendrogram would otherwise corrupt the
    // union-find silently.
    ETA2_EXPECTS(step.a < node_id && step.b < node_id && step.a != step.b);
    if (step.distance >= threshold) {
      // Not merged; the node still needs a representative for parents that
      // might reference it (their distances are >= this one, so they will
      // also be skipped — any root works).
      node_root[node_id] = node_root[step.a];
      continue;
    }
    const std::size_t ra = find(node_root[step.a]);
    const std::size_t rb = find(node_root[step.b]);
    parent[rb] = ra;
    node_root[node_id] = ra;
  }

  std::vector<std::size_t> labels(n, 0);
  std::vector<std::size_t> root_to_label(n, static_cast<std::size_t>(-1));
  std::size_t next_label = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find(i);
    if (root_to_label[r] == static_cast<std::size_t>(-1)) {
      root_to_label[r] = next_label++;
    }
    labels[i] = root_to_label[r];
  }
  return labels;
}

}  // namespace eta2::clustering
