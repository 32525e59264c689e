// Expertise-aware truth analysis (paper §4.1): the Gaussian model
//   x_ij ~ N(μ_j, (σ_j / u_i^{d_j})²)
// solved by iterating the stationary equations of the log-likelihood:
//   μ_j  = Σ_i ω_ij u_ij² x_ij / Σ_i ω_ij u_ij²                      (Eq. 5)
//   σ_j² = Σ_i ω_ij u_ij² (x_ij − μ_j)² / Σ_i ω_ij                   (Eq. 5)
//   u_i^k = sqrt( Σ_j I(d_j=k) ω_ij
//               / Σ_j I(d_j=k) ω_ij (x_ij − μ_j)²/σ_j² )             (Eq. 6)
// starting from u = 1 everywhere, until every truth estimate changes by
// less than `convergence_threshold` (relative) between iterations.
//
// Numerical guards beyond the paper (see DESIGN.md §5): expertise clamped to
// [expertise_min, expertise_max], a ridge added to Eq. 6's denominator, and
// a floor on σ.
#ifndef ETA2_TRUTH_ETA2_MLE_H
#define ETA2_TRUTH_ETA2_MLE_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "truth/observation.h"

namespace eta2::truth {

// Dense domain index in [0, domain_count). The facade maps the clusterer's
// stable DomainIds onto this dense range.
using DomainIndex = std::size_t;

struct MleOptions {
  double convergence_threshold = 0.05;  // paper: 5% change in truth estimates
  int max_iterations = 200;
  double expertise_min = 0.05;
  double expertise_max = 20.0;
  double ridge = 1e-9;       // added to Eq. 6 denominator
  double sigma_min = 1e-6;   // floor on the base number σ_j
  double initial_expertise = 1.0;  // paper: u = 1 at iteration 0
  // Bayesian shrinkage on Eq. 6: `prior_strength` pseudo-observations with
  // the prior expertise are added to both accumulators,
  //   u = sqrt((N + p) / (D + p/u0² + ridge)),  u0 = initial_expertise,
  // which pins small-sample estimates near the prior instead of letting a
  // single lucky/unlucky observation send u to a clamp (0 disables).
  double prior_strength = 1.0;
  // The model x ~ N(μ, (σ/u)²) is invariant under (u, σ) → (c·u, c·σ), so
  // expertise is only identified up to a gauge; without an anchor the gauge
  // drifts upward across incremental updates. After convergence the
  // estimates are rescaled so the GEOMETRIC mean expertise over observed
  // (user, domain) pairs equals this value (0 disables anchoring; the
  // geometric mean is the right statistic for a multiplicative gauge and is
  // robust to the estimate distribution's heavy tail).
  double anchor_mean = 1.0;
};

struct MleResult {
  std::vector<double> mu;     // per task; NaN when the task has no data
  std::vector<double> sigma;  // per task; NaN when the task has no data
  // u_i^k as a row-major user × domain plane: expertise(i, k). Users with
  // no data in a domain keep the initial value.
  Matrix expertise;
  int iterations = 0;
  bool converged = false;
};

// Convergence predicate shared by both truth-iteration loops (estimate and
// dynamic_update): true iff every task's estimate moved less than
// `threshold` (relative, with an absolute floor for estimates near zero).
// The serial ascending-j early-exit scan is part of the determinism
// contract — both loops must agree bit-for-bit on when to stop iterating.
[[nodiscard]] bool truth_converged(std::span<const double> prev_mu,
                                   std::span<const double> mu,
                                   double threshold);

class ExpertiseStore;
struct DynamicUpdateResult;

// The expertise the dynamic update's Eq. 5 sweeps see, given the candidate
// user × domain expertise plane; the view returns a plane of the same
// shape. An empty view means the candidate itself; the trust ledger passes
// its capped, trust-weighted view (truth/trust.h).
using ExpertiseView = std::function<Matrix(const Matrix&)>;

class Eta2Mle {
 public:
  explicit Eta2Mle(MleOptions options = {});

  [[nodiscard]] const MleOptions& options() const { return options_; }

  // Runs the full joint estimation. `task_domain[j]` in [0, domain_count).
  // `initial_expertise`, when it has rows, seeds u (user_count ×
  // domain_count) instead of the flat initial value — used by the min-cost
  // allocator's per-round truth refresh and by warm starts.
  [[nodiscard]] MleResult estimate(
      const ObservationSet& data, std::span<const DomainIndex> task_domain,
      std::size_t domain_count, const Matrix& initial_expertise = {}) const;

  // One fixed-expertise sweep of Eq. 5: computes μ and σ for every task
  // given frozen expertise values (user_count rows). Every observed task's
  // domain must be a column of `expertise`; a task without observations
  // is not checked and gets NaN μ/σ. Used by the trust filter's
  // provisional truth and by the truth fallback.
  void estimate_truth_only(const ObservationSet& data,
                           std::span<const DomainIndex> task_domain,
                           const Matrix& expertise, std::vector<double>& mu,
                           std::vector<double>& sigma) const;

 private:
  // The dynamic update (truth/expertise_store.h) validates its domain range
  // once and then runs truth_sweep in every iteration.
  friend DynamicUpdateResult dynamic_update(
      ExpertiseStore& store, const ObservationSet& new_data,
      std::span<const DomainIndex> new_task_domain, double alpha,
      const Eta2Mle& mle, const ExpertiseView& sweep_view);

  // Eq. 5 sweep with validation already done: every observed task's domain
  // index is a column of `expertise`. estimate() and dynamic_update() prove
  // this from their own argument checks; estimate_truth_only() checks it
  // serially up front — either way no throwing validation runs inside the
  // parallel region (the hot-loop-require lint rule).
  void truth_sweep(const ObservationSet& data,
                   std::span<const DomainIndex> task_domain,
                   const Matrix& expertise, std::vector<double>& mu,
                   std::vector<double>& sigma) const;

  // Eq. 5 for task j alone; mu[j] / sigma[j] must be pre-set to NaN (a task
  // with no usable data leaves them untouched).
  void sweep_task(const ObservationSet& data,
                  std::span<const DomainIndex> task_domain,
                  const Matrix& expertise, TaskId j, std::vector<double>& mu,
                  std::vector<double>& sigma) const;

  // Eq. 6 refresh of one accumulator cell (N = num, D = den), with the
  // Bayesian shrinkage prior and the [expertise_min, expertise_max] clamp.
  // Only meaningful for num > 0 (cells without data keep their value).
  [[nodiscard]] double expertise_update(double num, double den) const;

  // The expertise seed estimate() starts from: a flat initial_expertise
  // plane when `initial` has no rows, otherwise a clamped copy of it
  // (validated against user/domain counts).
  [[nodiscard]] Matrix initial_expertise_matrix(std::size_t user_count,
                                                std::size_t domain_count,
                                                const Matrix& initial) const;

  // Gauge-anchoring tail of estimate(): given per-(user, domain) data flags
  // (row-major, the shape of `expertise`), rescales expertise and σ so the
  // geometric mean over flagged cells equals anchor_mean. No-op when no
  // cell is flagged. The serial log-sum fold order (user-major, domain
  // ascending) is part of the determinism contract.
  void apply_gauge_anchor(std::span<const char> has_data, Matrix& expertise,
                          std::vector<double>& sigma) const;

  MleOptions options_;
};

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_ETA2_MLE_H
