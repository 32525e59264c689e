#include "clustering/distance_panel.h"

#include <cstring>
#include <vector>

#include "common/check.h"

namespace eta2::clustering {
namespace {

// Two double lanes (GCC/Clang vector extension; baseline SSE2 on x86-64).
// Arithmetic on it is the elementwise IEEE operation, with no
// reassociation, so each lane computes exactly what the scalar code does.
using Lanes = double __attribute__((vector_size(16)));
static_assert(kPanelRows == 2 * sizeof(Lanes) / sizeof(double),
              "a panel row set is two Lanes wide");

Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

void panel_distances(std::span<const double* const> panel,
                     std::span<const double* const> earlier, std::size_t dim,
                     std::span<double> strip) {
  ETA2_EXPECTS(!panel.empty() && panel.size() <= kPanelRows);
  ETA2_EXPECTS(dim % 2 == 0);
  ETA2_EXPECTS(strip.size() == earlier.size() * kPanelRows);
  // k-major block: block[k·kPanelRows + r] is panel row r's coordinate k;
  // lanes past the last row stay zero, and what they yield is never read.
  std::vector<double> block(dim * kPanelRows, 0.0);
  for (std::size_t r = 0; r < panel.size(); ++r) {
    for (std::size_t k = 0; k < dim; ++k) {
      block[k * kPanelRows + r] = panel[r][k];
    }
  }
  const std::size_t half = dim / 2;
  const double* q_block = block.data();
  const double* t_block = block.data() + half * kPanelRows;
  const Lanes one_half = {0.5, 0.5};
  for (std::size_t j = 0; j < earlier.size(); ++j) {
    const double* b = earlier[j];
    // Eight independent chains (q and t for four rows), each
    // text::task_distance's ascending sum of squared differences over its
    // half.
    Lanes q01 = {0.0, 0.0};
    Lanes q23 = {0.0, 0.0};
    Lanes t01 = {0.0, 0.0};
    Lanes t23 = {0.0, 0.0};
    for (std::size_t k = 0; k < half; ++k) {
      const Lanes bq = {b[k], b[k]};
      const Lanes bt = {b[half + k], b[half + k]};
      const Lanes dq01 = load(q_block + k * kPanelRows) - bq;
      const Lanes dq23 = load(q_block + k * kPanelRows + 2) - bq;
      const Lanes dt01 = load(t_block + k * kPanelRows) - bt;
      const Lanes dt23 = load(t_block + k * kPanelRows + 2) - bt;
      q01 += dq01 * dq01;
      q23 += dq23 * dq23;
      t01 += dt01 * dt01;
      t23 += dt23 * dt23;
    }
    store(strip.data() + j * kPanelRows, one_half * (q01 + t01));
    store(strip.data() + j * kPanelRows + 2, one_half * (q23 + t23));
  }
}

}  // namespace eta2::clustering
