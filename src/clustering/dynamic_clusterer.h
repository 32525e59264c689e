// Dynamic hierarchical clustering (paper §3.3.2). Maintains the expertise
// domains discovered so far. Each round, the new tasks start as singleton
// clusters next to the existing domain clusters, and the average-linkage
// merging process runs until the closest pair of clusters is at distance
// >= γ·d* (d* = the largest pairwise task distance observed so far).
//
// The round's outcome is reported as:
//  * a domain id for every new task,
//  * the list of freshly created domain ids, and
//  * the list of (kept, absorbed) merges of pre-existing domains — the truth
//    module uses these to merge expertise records (paper §4.2).
#ifndef ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H
#define ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "text/embedding.h"

namespace eta2::clustering {

using DomainId = std::uint32_t;

struct DomainMerge {
  DomainId kept = 0;
  DomainId absorbed = 0;
};

struct ClusterUpdate {
  std::vector<DomainId> assignments;  // one per new task, in input order
  std::vector<DomainId> new_domains;
  std::vector<DomainMerge> merges;
  // Task-distance evaluations the round made: exactly
  // batch × old + batch·(batch − 1)/2. Domain × domain linkage comes from
  // DomainMoments and costs none.
  std::size_t distance_evaluations = 0;
};

class DynamicClusterer {
 public:
  // gamma in [0, 1]: merge-stop threshold as a fraction of d*.
  explicit DynamicClusterer(double gamma);

  // Adds a batch of task semantic vectors (all with one fixed dimension) and
  // runs the merging round. The first call plays the role of the paper's
  // warm-up clustering (every task starts as a singleton). One round costs
  // batch·old + batch·(batch − 1)/2 distance evaluations plus
  // O(D²·dim + units²) for D live domains and units = D + batch
  // (DESIGN.md §11).
  ClusterUpdate add_tasks(std::span<const text::Embedding> vectors);

  [[nodiscard]] double gamma() const { return gamma_; }
  [[nodiscard]] double dstar() const { return dstar_; }
  [[nodiscard]] std::size_t task_count() const { return point_domain_.size(); }
  // Number of currently live domains. O(1): the live list is maintained
  // incrementally as batches are added.
  [[nodiscard]] std::size_t domain_count() const { return live_domains_.size(); }
  // Domain of the idx-th task ever added (insertion order).
  [[nodiscard]] DomainId domain_of(std::size_t task_index) const;
  // All live domain ids, ascending.
  [[nodiscard]] const std::vector<DomainId>& live_domains() const {
    return live_domains_;
  }

  // State persistence (points, labels, d*, id counter) as a text block.
  void save(std::ostream& out) const;
  [[nodiscard]] static DynamicClusterer load(std::istream& in);

 private:
  void rebuild_live_domains();

  double gamma_;
  double dstar_ = 0.0;
  // Every task ever added, one row-major buffer of task_count() × dim_
  // values appended per batch (dim_ is meaningless while it is empty).
  std::vector<double> points_;
  std::size_t dim_ = 0;
  std::vector<DomainId> point_domain_;
  // Sorted-unique live domain ids, refreshed once per add_tasks round (and
  // on load) rather than rebuilt from every point on each query.
  std::vector<DomainId> live_domains_;
  DomainId next_domain_ = 0;
};

}  // namespace eta2::clustering

#endif  // ETA2_CLUSTERING_DYNAMIC_CLUSTERER_H
