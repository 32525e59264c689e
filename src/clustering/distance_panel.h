// Register-blocked task-distance kernel (paper Eq. 2) behind domain
// identification's fused pass. One call takes a panel of up to kPanelRows
// rows, transposes it once into a k-major block, and sweeps every earlier
// row once, keeping one q and one t accumulator per panel row in two-wide
// vector lanes. Each lane performs text::task_distance's operations in its
// order (subtract, square, add, ascending within each half, then
// 0.5·(q + t)), so every distance has the scalar bits (DESIGN.md §11).
#ifndef ETA2_CLUSTERING_DISTANCE_PANEL_H
#define ETA2_CLUSTERING_DISTANCE_PANEL_H

#include <cstddef>
#include <span>

namespace eta2::clustering {

// Rows per panel: one grain-4 parallel_reduce chunk of the fused pass.
inline constexpr std::size_t kPanelRows = 4;

// Writes strip[j·kPanelRows + r] = text::task_distance(panel row r,
// earlier row j) for every j < earlier.size() and r < panel.size(). Each
// row holds `dim` (even) values; 1 ≤ panel.size() ≤ kPanelRows, and the
// lanes r ≥ panel.size() of each strip entry are unspecified.
void panel_distances(std::span<const double* const> panel,
                     std::span<const double* const> earlier, std::size_t dim,
                     std::span<double> strip);

}  // namespace eta2::clustering

#endif  // ETA2_CLUSTERING_DISTANCE_PANEL_H
