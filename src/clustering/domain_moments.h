// Per-domain sufficient statistics for the average-linkage distance between
// two disjoint point sets. task_distance is ½‖a−b‖² over the concatenated
// [V_Q; V_T], so the mean over member pairs of domains U and V is
//   ½(‖c_U − c_V‖² + s_U + s_V),
// with c the centroid and s the mean squared deviation from it. Each
// centroid is held as the domain's first member (its anchor) plus the mean
// offset from that anchor, and s sums squares of centred offsets, so a
// tight domain far from the origin loses nothing to cancellation. The
// statistics are rebuilt from points and labels in ascending member order
// (two passes: offsets, then centred squares), so they hold no state that
// could drift from the points they describe. DynamicClusterer builds its
// domain × domain cells from them (DESIGN.md §11).
#ifndef ETA2_CLUSTERING_DOMAIN_MOMENTS_H
#define ETA2_CLUSTERING_DOMAIN_MOMENTS_H

#include <cstddef>
#include <span>
#include <vector>

namespace eta2::clustering {

class DomainMoments {
 public:
  // `rows` is an n × dim row-major point buffer; point p belongs to domain
  // `unit_of[p]` < `units`, and every domain has at least one member.
  DomainMoments(std::span<const double> rows, std::size_t dim,
                std::span<const std::size_t> unit_of, std::size_t units);

  [[nodiscard]] std::size_t size() const { return count_.size(); }
  // Mean task_distance over the member pairs of domains u and v (u != v).
  [[nodiscard]] double mean_pair_distance(std::size_t u, std::size_t v) const;

 private:
  std::size_t dim_;
  std::vector<std::size_t> count_;  // members per domain
  std::vector<double> anchor_;  // units × dim: each domain's first member
  std::vector<double> offset_;  // units × dim: centroid − anchor
  std::vector<double> spread_;  // mean squared deviation from the centroid
};

}  // namespace eta2::clustering

#endif  // ETA2_CLUSTERING_DOMAIN_MOMENTS_H
