#include "truth/eta2_mle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::truth {
namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

Eta2Mle::Eta2Mle(MleOptions options) : options_(options) {
  require(options_.convergence_threshold > 0.0, "Eta2Mle: threshold must be > 0");
  require(options_.max_iterations >= 1, "Eta2Mle: max_iterations >= 1");
  require(options_.expertise_min > 0.0, "Eta2Mle: expertise_min must be > 0");
  require(options_.expertise_max >= options_.expertise_min,
          "Eta2Mle: expertise_max < expertise_min");
  require(options_.sigma_min > 0.0, "Eta2Mle: sigma_min must be > 0");
  require(options_.initial_expertise > 0.0, "Eta2Mle: initial expertise > 0");
}

void Eta2Mle::estimate_truth_only(
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    const Matrix& expertise, std::vector<double>& mu,
    std::vector<double>& sigma) const {
  const std::size_t m = data.task_count();
  require(task_domain.size() == m, "Eta2Mle: task_domain size mismatch");
  require(expertise.rows() == data.user_count(),
          "Eta2Mle: expertise rows != user count");
  // Every observer's row has the same columns, so one check per observed
  // task covers the sweep; unobserved tasks are never read.
  for (TaskId j = 0; j < m; ++j) {
    require(data.for_task(j).empty() || task_domain[j] < expertise.cols(),
            "Eta2Mle: domain out of range");
  }
  truth_sweep(data, task_domain, expertise, mu, sigma);
}

void Eta2Mle::sweep_task(const ObservationSet& data,
                         std::span<const DomainIndex> task_domain,
                         const Matrix& expertise, TaskId j,
                         std::vector<double>& mu,
                         std::vector<double>& sigma) const {
  const auto obs = data.for_task(j);
  if (obs.empty()) return;
  const DomainIndex k = task_domain[j];
  // Corrupt observations (NaN/±Inf) are skipped rather than summed — a
  // single poisoned x_ij must not wipe out the task's truth estimate.
  double num = 0.0;
  double den = 0.0;
  double finite_sum = 0.0;
  std::size_t finite_count = 0;
  for (const Observation& o : obs) {
    if (!std::isfinite(o.value)) continue;
    const double u = expertise(o.user, k);
    // Eq. 5 weights are u²; a non-positive or non-finite expertise here
    // means an upstream clamp was bypassed.
    ETA2_ASSERT(u > 0.0 && std::isfinite(u));
    num += u * u * o.value;
    den += u * u;
    finite_sum += o.value;
    ++finite_count;
  }
  if (finite_count == 0) return;  // no usable data: mu/sigma stay NaN
  const double mu_j =
      den > 0.0 ? num / den : finite_sum / static_cast<double>(finite_count);
  double var_num = 0.0;
  for (const Observation& o : obs) {
    if (!std::isfinite(o.value)) continue;
    const double u = expertise(o.user, k);
    var_num += u * u * (o.value - mu_j) * (o.value - mu_j);
  }
  mu[j] = mu_j;
  sigma[j] = std::max(options_.sigma_min,
                      std::sqrt(var_num / static_cast<double>(finite_count)));
  // The Eq. 5/6 iteration divides by σ_j; the sigma_min floor above must
  // guarantee it stays strictly positive and finite.
  ETA2_ENSURES(sigma[j] >= options_.sigma_min && std::isfinite(mu[j]));
}

void Eta2Mle::truth_sweep(const ObservationSet& data,
                          std::span<const DomainIndex> task_domain,
                          const Matrix& expertise, std::vector<double>& mu,
                          std::vector<double>& sigma) const {
  const std::size_t m = data.task_count();
  mu.assign(m, kNaN);
  sigma.assign(m, kNaN);
  // Eq. 5 is independent per task (disjoint writes to mu[j]/sigma[j]), so
  // tasks fan out over the parallel runtime bit-identically.
  parallel::parallel_for(m, 128, [&](TaskId j) {
    sweep_task(data, task_domain, expertise, j, mu, sigma);
  });
}

double Eta2Mle::expertise_update(double num, double den) const {
  const double p = options_.prior_strength;
  const double u0 = options_.initial_expertise;
  const double u = std::sqrt((num + p) / (den + p / (u0 * u0) + options_.ridge));
  return std::clamp(u, options_.expertise_min, options_.expertise_max);
}

Matrix Eta2Mle::initial_expertise_matrix(std::size_t user_count,
                                         std::size_t domain_count,
                                         const Matrix& initial) const {
  if (initial.rows() == 0) {
    return Matrix(user_count, domain_count, options_.initial_expertise);
  }
  require(initial.rows() == user_count,
          "Eta2Mle: initial expertise rows != user count");
  require(initial.cols() == domain_count,
          "Eta2Mle: initial expertise cols != domain count");
  Matrix out = initial;
  for (double& u : out.data()) {
    u = std::clamp(u, options_.expertise_min, options_.expertise_max);
  }
  return out;
}

bool truth_converged(std::span<const double> prev_mu,
                     std::span<const double> mu, double threshold) {
  for (std::size_t j = 0; j < mu.size(); ++j) {
    if (std::isnan(mu[j]) || std::isnan(prev_mu[j])) continue;
    const double scale = std::max(std::fabs(prev_mu[j]), 1e-8);
    if (std::fabs(mu[j] - prev_mu[j]) / scale >= threshold) return false;
  }
  return true;
}

void Eta2Mle::apply_gauge_anchor(std::span<const char> has_data,
                                 Matrix& expertise,
                                 std::vector<double>& sigma) const {
  if (!(options_.anchor_mean > 0.0)) return;
  const std::span<double> cells = expertise.data();
  const std::size_t m = sigma.size();
  ETA2_EXPECTS(has_data.size() == cells.size());
  // Serial fold over the row-major cells (user-major, domain ascending):
  // the log-sum's addition order is part of the determinism contract (it
  // fixes the gauge constant bit-for-bit).
  double log_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    if (has_data[cell]) {
      log_sum += std::log(cells[cell]);
      ++count;
    }
  }
  if (count == 0) return;
  const double c =
      std::exp(log_sum / static_cast<double>(count)) / options_.anchor_mean;
  // The gauge constant is a geometric mean of clamped-positive values
  // divided by a positive anchor — if it ever degenerates, rescaling
  // would silently zero or inf-out every expertise estimate.
  ETA2_ENSURES(std::isfinite(c) && c > 0.0);
  parallel::parallel_for(cells.size(), 256, [&](std::size_t cell) {
    if (has_data[cell]) {
      cells[cell] = std::clamp(cells[cell] / c, options_.expertise_min,
                               options_.expertise_max);
    }
  });
  parallel::parallel_for(m, 1024, [&](TaskId j) {
    if (!std::isnan(sigma[j])) {
      sigma[j] = std::max(options_.sigma_min, sigma[j] / c);
    }
  });
}

MleResult Eta2Mle::estimate(
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    std::size_t domain_count, const Matrix& initial_expertise) const {
  const std::size_t n = data.user_count();
  const std::size_t m = data.task_count();
  require(task_domain.size() == m, "Eta2Mle: task_domain size mismatch");
  for (const DomainIndex k : task_domain) {
    require(k < domain_count, "Eta2Mle: task domain index out of range");
  }

  MleResult result;
  result.expertise = initial_expertise_matrix(n, domain_count, initial_expertise);

  // User-major index of the observations: the Eq. 6 accumulation fans out
  // over users (each user owns its accumulator row), bit-identical to the
  // serial task-major loop at any thread count.
  const UserMajorObservations by_user(data);

  std::vector<double> prev_mu;
  // estimate()'s own argument checks (task_domain[j] < domain_count, the
  // expertise plane domain_count columns wide) already prove what the
  // public entry point checks, so the sweeps skip revalidation.
  truth_sweep(data, task_domain, result.expertise, result.mu, result.sigma);

  // Row-major (user × domain) accumulators, reused across iterations.
  Matrix num(n, domain_count);
  Matrix den(n, domain_count);

  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    result.iterations = iter;
    // --- Eq. 6: expertise update given (μ, σ). ---
    // Accumulate per (user, domain): N = #observations, D = Σ (x−μ)²/σ²,
    // then refresh each user's expertise row. One parallel region per user
    // range; every lane writes only its users' rows.
    std::ranges::fill(num.data(), 0.0);
    std::ranges::fill(den.data(), 0.0);
    parallel::parallel_for(n, 16, [&](UserId i) {
      const std::span<double> num_row = num.row(i);
      const std::span<double> den_row = den.row(i);
      for (const UserMajorObservations::Entry& o : by_user.of_user(i)) {
        const TaskId j = o.task;
        // Skip corrupt values and tasks with no truth estimate (all-corrupt
        // data): one NaN must not poison the user's accumulator row.
        if (!std::isfinite(o.value) || !std::isfinite(result.mu[j])) {
          continue;
        }
        const DomainIndex k = task_domain[j];
        // σ_j > 0 whenever μ_j is finite (sweep_task floors it); dividing
        // by a zero/NaN σ would poison the expertise row.
        ETA2_ASSERT(result.sigma[j] > 0.0);
        const double e = (o.value - result.mu[j]) / result.sigma[j];
        num_row[k] += 1.0;
        den_row[k] += e * e;
      }
      for (DomainIndex k = 0; k < domain_count; ++k) {
        if (num_row[k] <= 0.0) continue;  // no data: keep current value
        result.expertise(i, k) = expertise_update(num_row[k], den_row[k]);
      }
    });

    // --- Eq. 5: truth update given expertise. ---
    prev_mu = result.mu;
    truth_sweep(data, task_domain, result.expertise, result.mu, result.sigma);

    // Convergence: every task's truth estimate moved < threshold (relative,
    // with an absolute floor for estimates near zero).
    if (truth_converged(prev_mu, result.mu, options_.convergence_threshold)) {
      result.converged = true;
      break;
    }
  }

  // Gauge anchoring: pin the mean expertise of observed pairs to
  // anchor_mean, rescaling σ consistently (σ/u is the identified quantity).
  if (options_.anchor_mean > 0.0) {
    std::vector<char> has_data(n * domain_count, 0);
    parallel::parallel_for(n, 64, [&](UserId i) {
      for (const UserMajorObservations::Entry& o : by_user.of_user(i)) {
        if (!std::isfinite(o.value)) continue;  // corrupt: no data
        has_data[i * domain_count + task_domain[o.task]] = 1;
      }
    });
    apply_gauge_anchor(has_data, result.expertise, result.sigma);
  }
  return result;
}

}  // namespace eta2::truth
