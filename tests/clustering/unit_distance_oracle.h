// Test-only exact reference for DynamicClusterer's identification round.
//
// This is the member-pair construction the library used before its fused
// pass and centroid-form linkage (DESIGN.md §11): every round re-evaluates
// d* over new × all task pairs, and every unit × unit cell is the literal
// mean of text::task_distance over the two units' member pairs — domain ×
// domain cells included, at O(old²·dim) per round. Everything after the
// unit matrix (dendrogram, cut, survivor choice, fresh ids) follows the
// library's rules, so on the same stream the oracle and
// DynamicClusterer::add_tasks must report the same update.
#ifndef ETA2_TESTS_CLUSTERING_UNIT_DISTANCE_ORACLE_H
#define ETA2_TESTS_CLUSTERING_UNIT_DISTANCE_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <set>
#include <span>
#include <vector>

#include "clustering/dynamic_clusterer.h"
#include "clustering/linkage.h"
#include "text/embedding.h"
#include "text/pairword.h"

namespace eta2::clustering::oracle {

// Mean task_distance over every member pair (p ∈ a outer, q ∈ b inner, both
// ascending), divided by |a|·|b|.
inline double exact_mean_pair_distance(std::span<const text::Embedding> points,
                                       const std::vector<std::size_t>& a,
                                       const std::vector<std::size_t>& b) {
  double sum = 0.0;
  for (const std::size_t p : a) {
    for (const std::size_t q : b) sum += text::task_distance(points[p], points[q]);
  }
  return sum /
         (static_cast<double>(a.size()) * static_cast<double>(b.size()));
}

class OracleClusterer {
 public:
  explicit OracleClusterer(double gamma) : gamma_(gamma) {}

  ClusterUpdate add_tasks(std::span<const text::Embedding> vectors) {
    ClusterUpdate update;
    if (vectors.empty()) return update;
    const std::size_t old_count = points_.size();
    points_.insert(points_.end(), vectors.begin(), vectors.end());
    const std::size_t total = points_.size();
    labels_.resize(total, 0);

    for (std::size_t i = old_count; i < total; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        dstar_ = std::max(dstar_, text::task_distance(points_[i], points_[j]));
        ++update.distance_evaluations;
      }
    }
    const double threshold = gamma_ * dstar_;

    // Units: existing domains ascending, then one singleton per new task.
    const std::set<DomainId> existing_set(
        labels_.begin(),
        labels_.begin() + static_cast<std::ptrdiff_t>(old_count));
    const std::vector<DomainId> existing(existing_set.begin(),
                                         existing_set.end());
    std::vector<std::vector<std::size_t>> members;
    for (const DomainId d : existing) {
      std::vector<std::size_t> unit;
      for (std::size_t p = 0; p < old_count; ++p) {
        if (labels_[p] == d) unit.push_back(p);
      }
      members.push_back(std::move(unit));
    }
    for (std::size_t p = old_count; p < total; ++p) members.push_back({p});
    const std::size_t n_units = members.size();
    std::vector<double> sizes(n_units);
    for (std::size_t u = 0; u < n_units; ++u) {
      sizes[u] = static_cast<double>(members[u].size());
    }
    SymmetricMatrix dist(n_units);
    for (std::size_t u = 1; u < n_units; ++u) {
      for (std::size_t v = 0; v < u; ++v) {
        dist.set(u, v, exact_mean_pair_distance(points_, members[u], members[v]));
      }
    }

    const auto labels =
        cut_dendrogram(upgma_dendrogram(dist, sizes), n_units, threshold);
    std::size_t label_count = 0;
    for (const std::size_t l : labels) label_count = std::max(label_count, l + 1);
    std::vector<DomainId> label_domain(label_count, 0);
    std::vector<bool> has_domain(label_count, false);
    std::vector<double> best_size(label_count, 0.0);
    for (std::size_t u = 0; u < existing.size(); ++u) {
      const std::size_t l = labels[u];
      if (!has_domain[l] || sizes[u] > best_size[l]) {
        has_domain[l] = true;
        label_domain[l] = existing[u];
        best_size[l] = sizes[u];
      }
    }
    for (std::size_t u = 0; u < existing.size(); ++u) {
      if (label_domain[labels[u]] != existing[u]) {
        update.merges.push_back(DomainMerge{label_domain[labels[u]], existing[u]});
      }
    }
    for (std::size_t l = 0; l < label_count; ++l) {
      if (!has_domain[l]) {
        label_domain[l] = next_domain_++;
        has_domain[l] = true;
        update.new_domains.push_back(label_domain[l]);
      }
    }
    for (std::size_t u = 0; u < n_units; ++u) {
      for (const std::size_t p : members[u]) labels_[p] = label_domain[labels[u]];
    }
    for (std::size_t p = old_count; p < total; ++p) {
      update.assignments.push_back(labels_[p]);
    }
    return update;
  }

  [[nodiscard]] double dstar() const { return dstar_; }
  [[nodiscard]] std::size_t task_count() const { return points_.size(); }
  [[nodiscard]] DomainId domain_of(std::size_t task_index) const {
    return labels_.at(task_index);
  }

 private:
  double gamma_;
  double dstar_ = 0.0;
  std::vector<text::Embedding> points_;
  std::vector<DomainId> labels_;
  DomainId next_domain_ = 0;
};

}  // namespace eta2::clustering::oracle

#endif  // ETA2_TESTS_CLUSTERING_UNIT_DISTANCE_ORACLE_H
