#include "clustering/domain_moments.h"

#include <algorithm>

#include "common/check.h"
#include "common/error.h"

namespace eta2::clustering {

DomainMoments::DomainMoments(std::span<const double> rows, std::size_t dim,
                             std::span<const std::size_t> unit_of,
                             std::size_t units)
    : dim_(dim),
      count_(units, 0),
      anchor_(units * dim, 0.0),
      offset_(units * dim, 0.0),
      spread_(units, 0.0) {
  require(rows.size() == unit_of.size() * dim,
          "DomainMoments: rows/labels size mismatch");
  std::size_t bad = 0;
  for (const std::size_t u : unit_of) bad += u < units ? 0u : 1u;
  require(bad == 0, "DomainMoments: domain index out of range");
  // Pass 1: anchors (first member) and summed offsets from them. Offsets
  // of nearby values are exact, so the centroid keeps its low-order bits.
  for (std::size_t p = 0; p < unit_of.size(); ++p) {
    const std::size_t u = unit_of[p];
    const double* x = rows.data() + p * dim;
    double* anchor = anchor_.data() + u * dim;
    if (count_[u] == 0) std::copy(x, x + dim, anchor);
    double* offset = offset_.data() + u * dim;
    for (std::size_t k = 0; k < dim; ++k) offset[k] += x[k] - anchor[k];
    ++count_[u];
  }
  for (std::size_t u = 0; u < units; ++u) {
    require(count_[u] > 0, "DomainMoments: every domain needs a member");
    const double members = static_cast<double>(count_[u]);
    double* offset = offset_.data() + u * dim;
    for (std::size_t k = 0; k < dim; ++k) offset[k] /= members;
  }
  // Pass 2: squared deviations from the centroid, centred before squaring.
  for (std::size_t p = 0; p < unit_of.size(); ++p) {
    const std::size_t u = unit_of[p];
    const double* x = rows.data() + p * dim;
    const double* anchor = anchor_.data() + u * dim;
    const double* offset = offset_.data() + u * dim;
    double squares = 0.0;
    for (std::size_t k = 0; k < dim; ++k) {
      const double d = (x[k] - anchor[k]) - offset[k];
      squares += d * d;
    }
    spread_[u] += squares;
  }
  for (std::size_t u = 0; u < units; ++u) {
    spread_[u] /= static_cast<double>(count_[u]);
  }
}

double DomainMoments::mean_pair_distance(std::size_t u, std::size_t v) const {
  ETA2_ASSERT(u < size() && v < size() && u != v);
  const double* anchor_u = anchor_.data() + u * dim_;
  const double* anchor_v = anchor_.data() + v * dim_;
  const double* offset_u = offset_.data() + u * dim_;
  const double* offset_v = offset_.data() + v * dim_;
  double squares = 0.0;
  for (std::size_t k = 0; k < dim_; ++k) {
    const double d = (anchor_u[k] - anchor_v[k]) + (offset_u[k] - offset_v[k]);
    squares += d * d;
  }
  return 0.5 * (squares + (spread_[u] + spread_[v]));
}

}  // namespace eta2::clustering
