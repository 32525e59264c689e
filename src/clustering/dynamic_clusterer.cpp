#include "clustering/dynamic_clusterer.h"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <string>

#include "clustering/distance_panel.h"
#include "clustering/domain_moments.h"
#include "clustering/linkage.h"
#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::clustering {

DynamicClusterer::DynamicClusterer(double gamma) : gamma_(gamma) {
  require(gamma >= 0.0 && gamma <= 1.0, "DynamicClusterer: gamma in [0,1]");
}

DomainId DynamicClusterer::domain_of(std::size_t task_index) const {
  require(task_index < point_domain_.size(),
          "DynamicClusterer::domain_of: index out of range");
  return point_domain_[task_index];
}

void DynamicClusterer::rebuild_live_domains() {
  live_domains_.assign(point_domain_.begin(), point_domain_.end());
  std::sort(live_domains_.begin(), live_domains_.end());
  live_domains_.erase(
      std::unique(live_domains_.begin(), live_domains_.end()),
      live_domains_.end());
}

void DynamicClusterer::save(std::ostream& out) const {
  const auto write_number = [&out](double value) {
    char buffer[64];
    const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    ensure(ec == std::errc(), "DynamicClusterer::save: formatting failure");
    out.write(buffer, ptr - buffer);
  };
  out << "dynamic-clusterer v1\n";
  write_number(gamma_);
  out << ' ';
  write_number(dstar_);
  const std::size_t dim = task_count() == 0 ? 0 : dim_;
  out << ' ' << next_domain_ << ' ' << task_count() << ' ' << dim << '\n';
  for (std::size_t p = 0; p < task_count(); ++p) {
    out << point_domain_[p];
    for (std::size_t k = 0; k < dim; ++k) {
      out << ' ';
      write_number(points_[p * dim + k]);
    }
    out << '\n';
  }
}

DynamicClusterer DynamicClusterer::load(std::istream& in) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) &&
              tag == "dynamic-clusterer" && version == "v1",
          "DynamicClusterer::load: bad header");
  double gamma = 0.0;
  double dstar = 0.0;
  DomainId next_domain = 0;
  std::size_t point_count = 0;
  std::size_t dim = 0;
  require(static_cast<bool>(in >> gamma >> dstar >> next_domain >>
                            point_count >> dim),
          "DynamicClusterer::load: bad dimensions");
  DynamicClusterer clusterer(gamma);
  clusterer.dstar_ = dstar;
  clusterer.next_domain_ = next_domain;
  clusterer.dim_ = dim;
  // eta2-lint: allow(unbounded-input-resize) — resume path: this stream is
  // a snapshot the process itself wrote; the per-point require() below
  // fails fast on a truncated count, so a corrupt header costs one
  // oversized reserve, not silent growth from hostile input.
  clusterer.point_domain_.reserve(point_count);
  for (std::size_t p = 0; p < point_count; ++p) {
    DomainId domain = 0;
    require(static_cast<bool>(in >> domain),
            "DynamicClusterer::load: truncated points");
    for (std::size_t k = 0; k < dim; ++k) {
      double v = 0.0;
      require(static_cast<bool>(in >> v),
              "DynamicClusterer::load: truncated vector");
      clusterer.points_.push_back(v);
    }
    clusterer.point_domain_.push_back(domain);
  }
  clusterer.rebuild_live_domains();
  return clusterer;
}

ClusterUpdate DynamicClusterer::add_tasks(
    std::span<const text::Embedding> vectors) {
  ClusterUpdate update;
  if (vectors.empty()) return update;
  const std::size_t dim = vectors.front().size();
  for (const auto& v : vectors) {
    require(v.size() == dim, "DynamicClusterer: inconsistent vector dimension");
  }
  const std::size_t old_count = task_count();
  require(old_count == 0 || dim_ == dim,
          "DynamicClusterer: dimension differs from previous batches");
  const std::size_t batch = vectors.size();
  const std::size_t total = old_count + batch;
  // Any round with at least one pair computes distances, and task_distance
  // demands an even (concatenated [V_Q; V_T]) dimension — hoisted here so
  // no throwing validation runs inside the parallel pass below.
  require(total < 2 || dim % 2 == 0,
          "DynamicClusterer: expected concatenated [V_Q; V_T]");
  dim_ = dim;
  for (const auto& v : vectors) points_.insert(points_.end(), v.begin(), v.end());
  point_domain_.resize(total, 0);

  // Units for this round: one unit per existing live domain (ascending id;
  // live_domains_ still describes the pre-batch points), then one singleton
  // unit per new task.
  const std::vector<DomainId> existing = live_domains_;
  const std::size_t existing_units = existing.size();
  const std::size_t n_units = existing_units + batch;
  std::vector<double> sizes(n_units, 1.0);
  std::fill_n(sizes.begin(), existing_units, 0.0);
  std::vector<std::size_t> unit_of(old_count);
  for (std::size_t p = 0; p < old_count; ++p) {
    const auto it =
        std::lower_bound(existing.begin(), existing.end(), point_domain_[p]);
    ETA2_ASSERT(it != existing.end() && *it == point_domain_[p]);
    unit_of[p] = static_cast<std::size_t>(it - existing.begin());
    sizes[unit_of[p]] += 1.0;
  }

  // Fused pass: each new × earlier distance is evaluated once and feeds the
  // d* max, its singleton × domain sum (added in ascending member index) or
  // its singleton × singleton cell. A chunk is one panel of up to
  // kPanelRows new rows, swept against every row before its last; each new
  // row owns its sums and its row of the unit matrix, and the max folds
  // fixed chunks in index order, so the result is bit-identical at any
  // thread count.
  SymmetricMatrix dist(n_units);
  std::vector<const double*> rows(total);
  for (std::size_t p = 0; p < total; ++p) rows[p] = points_.data() + p * dim;
  struct RowFold {
    double max = 0.0;
    std::size_t evaluations = 0;
  };
  const RowFold fold = parallel::parallel_reduce(
      batch, kPanelRows, RowFold{},
      [&](std::size_t begin, std::size_t end) {
        RowFold local;
        const std::span<const double* const> all(rows);
        const std::size_t first = old_count + begin;
        const std::size_t swept = old_count + end - 1;
        std::vector<double> strip(swept * kPanelRows);
        panel_distances(all.subspan(first, end - begin), all.first(swept),
                        dim, strip);
        std::vector<double> sums(existing_units);
        for (std::size_t t = begin; t < end; ++t) {
          const std::size_t i = old_count + t;
          const std::size_t u = existing_units + t;
          const double* lane = strip.data() + (t - begin);
          std::fill(sums.begin(), sums.end(), 0.0);
          for (std::size_t j = 0; j < old_count; ++j) {
            const double d = lane[j * kPanelRows];
            local.max = std::max(local.max, d);
            sums[unit_of[j]] += d;
          }
          for (std::size_t j = old_count; j < i; ++j) {
            const double d = lane[j * kPanelRows];
            local.max = std::max(local.max, d);
            dist.set_unchecked(u, existing_units + (j - old_count), d);
          }
          for (std::size_t v = 0; v < existing_units; ++v) {
            dist.set_unchecked(u, v, sums[v] / sizes[v]);
          }
          local.evaluations += i;
        }
        return local;
      },
      [](RowFold a, RowFold b) {
        return RowFold{std::max(a.max, b.max), a.evaluations + b.evaluations};
      });
  update.distance_evaluations = fold.evaluations;
  dstar_ = std::max(dstar_, fold.max);
  const double threshold = gamma_ * dstar_;

  // Domain × domain cells from each domain's centroid and spread, at
  // O(total·dim + D²·dim) and no distance evaluations.
  if (existing_units > 1) {
    const DomainMoments moments(
        std::span<const double>(points_).first(old_count * dim), dim, unit_of,
        existing_units);
    for (std::size_t u = 1; u < existing_units; ++u) {
      for (std::size_t v = 0; v < u; ++v) {
        dist.set_unchecked(u, v, moments.mean_pair_distance(u, v));
      }
    }
  }

  const auto dendrogram = upgma_dendrogram(std::move(dist), sizes);
  const auto labels = cut_dendrogram(dendrogram, n_units, threshold);
  // Every unit gets exactly one flat label; the relabel loops below index
  // labels[u] for every unit.
  ETA2_ENSURES(labels.size() == n_units);

  // Map each final cluster to a domain id: reuse the id of the existing
  // domain with most members; clusters of only-new units get fresh ids.
  std::size_t label_count = 0;
  for (const std::size_t l : labels) label_count = std::max(label_count, l + 1);

  std::vector<DomainId> label_domain(label_count, 0);
  std::vector<bool> label_has_domain(label_count, false);
  // Pick the largest existing domain inside each label as the survivor.
  std::vector<double> best_size(label_count, 0.0);
  for (std::size_t u = 0; u < existing_units; ++u) {
    const std::size_t l = labels[u];
    if (!label_has_domain[l] || sizes[u] > best_size[l]) {
      label_has_domain[l] = true;
      label_domain[l] = existing[u];
      best_size[l] = sizes[u];
    }
  }
  // Absorbed existing domains produce merge events.
  for (std::size_t u = 0; u < existing_units; ++u) {
    const std::size_t l = labels[u];
    if (label_domain[l] != existing[u]) {
      update.merges.push_back(DomainMerge{label_domain[l], existing[u]});
    }
  }
  // Only-new clusters get fresh domain ids.
  for (std::size_t l = 0; l < label_count; ++l) {
    if (!label_has_domain[l]) {
      label_domain[l] = next_domain_++;
      label_has_domain[l] = true;
      update.new_domains.push_back(label_domain[l]);
    }
  }

  // Relabel every point (absorbed domains move to the surviving id).
  for (std::size_t u = 0; u < n_units; ++u) {
    ETA2_ASSERT(labels[u] < label_count && label_has_domain[labels[u]]);
  }
  for (std::size_t p = 0; p < old_count; ++p) {
    point_domain_[p] = label_domain[labels[unit_of[p]]];
  }
  for (std::size_t t = 0; t < batch; ++t) {
    point_domain_[old_count + t] = label_domain[labels[existing_units + t]];
  }
  // Refresh the live list from this round's cluster→domain map (every final
  // cluster is non-empty, so these ids are exactly the live set) instead of
  // re-scanning every point.
  live_domains_ = label_domain;
  std::sort(live_domains_.begin(), live_domains_.end());
  live_domains_.erase(
      std::unique(live_domains_.begin(), live_domains_.end()),
      live_domains_.end());
  update.assignments.reserve(total - old_count);
  for (std::size_t p = old_count; p < total; ++p) {
    update.assignments.push_back(point_domain_[p]);
  }
  return update;
}

}  // namespace eta2::clustering
