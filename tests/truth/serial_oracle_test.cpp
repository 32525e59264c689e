// The two Eq. 5/6 loops — Eta2Mle::estimate and truth::dynamic_update —
// against a serial task-major oracle: the straightforward loops every
// per-task and per-user fan-out must reproduce bit for bit. Each result is
// compared at 1, 2 and 8 threads, on a batch small enough to run inline and
// on one large enough to split every parallel pass into several chunks.
// Runs in the sanitize-tagged determinism binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"

namespace eta2::truth {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

using Grid = std::vector<std::vector<double>>;

// Boundary conversions: the oracle keeps its own nested grids and meets the
// library's row-major planes only here.
Grid to_grid(const Matrix& m) {
  Grid g(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    g[i].assign(m.row(i).begin(), m.row(i).end());
  }
  return g;
}

Matrix to_matrix(const Grid& g) {
  Matrix m(g.size(), g.empty() ? 0 : g.front().size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    std::copy(g[i].begin(), g[i].end(), m.row(i).begin());
  }
  return m;
}

struct Model {
  std::vector<DomainIndex> domain;
  ObservationSet data{0, 0};
};

// Holes in the matrix, one corrupt report, and one all-corrupt task, so the
// NaN-skipping branches of every pass run too.
Model make_model(std::size_t users, std::size_t tasks, std::size_t domains,
                 std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  m.domain.resize(tasks);
  m.data = ObservationSet(users, tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    const double mu = rng.uniform(0.0, 20.0);
    m.domain[j] = j % domains;
    for (std::size_t i = 0; i < users; ++i) {
      if ((i + j) % 5 == 0) continue;
      const double x = rng.normal(mu, 1.0 / rng.uniform(0.4, 3.0));
      const bool corrupt = (j == 3 && i == 1) || j == tasks - 1;
      m.data.add(j, i, corrupt ? kNaN : x);
    }
  }
  return m;
}

// --- the serial task-major oracle ---------------------------------------

void serial_sweep(const MleOptions& opt, const ObservationSet& data,
                  const std::vector<DomainIndex>& domain, const Grid& u,
                  std::vector<double>& mu, std::vector<double>& sigma) {
  mu.assign(data.task_count(), kNaN);
  sigma.assign(data.task_count(), kNaN);
  for (TaskId j = 0; j < data.task_count(); ++j) {
    const DomainIndex k = domain[j];
    double num = 0.0;
    double den = 0.0;
    double finite_sum = 0.0;
    std::size_t finite_count = 0;
    for (const Observation& o : data.for_task(j)) {
      if (!std::isfinite(o.value)) continue;
      const double w = u[o.user][k];
      num += w * w * o.value;
      den += w * w;
      finite_sum += o.value;
      ++finite_count;
    }
    if (finite_count == 0) continue;
    const double mu_j =
        den > 0.0 ? num / den : finite_sum / static_cast<double>(finite_count);
    double var_num = 0.0;
    for (const Observation& o : data.for_task(j)) {
      if (!std::isfinite(o.value)) continue;
      const double w = u[o.user][k];
      var_num += w * w * (o.value - mu_j) * (o.value - mu_j);
    }
    mu[j] = mu_j;
    sigma[j] = std::max(opt.sigma_min,
                        std::sqrt(var_num / static_cast<double>(finite_count)));
  }
}

bool serial_converged(const std::vector<double>& prev,
                      const std::vector<double>& mu, double threshold) {
  for (std::size_t j = 0; j < mu.size(); ++j) {
    if (std::isnan(mu[j]) || std::isnan(prev[j])) continue;
    const double scale = std::max(std::fabs(prev[j]), 1e-8);
    if (std::fabs(mu[j] - prev[j]) / scale >= threshold) return false;
  }
  return true;
}

// MleResult with the oracle's nested expertise grid.
struct OracleFit {
  std::vector<double> mu;
  std::vector<double> sigma;
  Grid expertise;
  int iterations = 0;
  bool converged = false;
};

OracleFit serial_estimate(const MleOptions& opt, const ObservationSet& data,
                          const std::vector<DomainIndex>& domain,
                          std::size_t domains) {
  const std::size_t n = data.user_count();
  OracleFit r;
  r.expertise.assign(n, std::vector<double>(domains, opt.initial_expertise));
  serial_sweep(opt, data, domain, r.expertise, r.mu, r.sigma);
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    r.iterations = iter;
    Grid num(n, std::vector<double>(domains, 0.0));
    Grid den = num;
    for (TaskId j = 0; j < data.task_count(); ++j) {
      for (const Observation& o : data.for_task(j)) {
        if (!std::isfinite(o.value) || !std::isfinite(r.mu[j])) continue;
        const double e = (o.value - r.mu[j]) / r.sigma[j];
        num[o.user][domain[j]] += 1.0;
        den[o.user][domain[j]] += e * e;
      }
    }
    const double p = opt.prior_strength;
    const double u0 = opt.initial_expertise;
    for (UserId i = 0; i < n; ++i) {
      for (DomainIndex k = 0; k < domains; ++k) {
        if (num[i][k] <= 0.0) continue;
        const double u = std::sqrt((num[i][k] + p) /
                                   (den[i][k] + p / (u0 * u0) + opt.ridge));
        r.expertise[i][k] = std::clamp(u, opt.expertise_min, opt.expertise_max);
      }
    }
    const std::vector<double> prev = r.mu;
    serial_sweep(opt, data, domain, r.expertise, r.mu, r.sigma);
    if (serial_converged(prev, r.mu, opt.convergence_threshold)) {
      r.converged = true;
      break;
    }
  }
  // Gauge anchor over the (user, domain) cells with finite data.
  std::vector<char> has_data(n * domains, 0);
  for (TaskId j = 0; j < data.task_count(); ++j) {
    for (const Observation& o : data.for_task(j)) {
      if (std::isfinite(o.value)) has_data[o.user * domains + domain[j]] = 1;
    }
  }
  double log_sum = 0.0;
  std::size_t count = 0;
  for (UserId i = 0; i < n; ++i) {
    for (DomainIndex k = 0; k < domains; ++k) {
      if (has_data[i * domains + k] == 0) continue;
      log_sum += std::log(r.expertise[i][k]);
      ++count;
    }
  }
  const double c =
      std::exp(log_sum / static_cast<double>(count)) / opt.anchor_mean;
  for (UserId i = 0; i < n; ++i) {
    for (DomainIndex k = 0; k < domains; ++k) {
      if (has_data[i * domains + k] == 0) continue;
      r.expertise[i][k] =
          std::clamp(r.expertise[i][k] / c, opt.expertise_min,
                     opt.expertise_max);
    }
  }
  for (double& s : r.sigma) {
    if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
  }
  return r;
}

DynamicUpdateResult serial_dynamic_update(
    ExpertiseStore& store, const ObservationSet& data,
    const std::vector<DomainIndex>& domain, double alpha,
    const MleOptions& opt) {
  const std::size_t n = store.user_count();
  const std::size_t domains = store.domain_count();
  DynamicUpdateResult r;
  Grid expertise = to_grid(store.snapshot());
  Grid num;
  Grid den;
  std::vector<double> prev;
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    r.iterations = iter;
    prev = r.mu;
    serial_sweep(opt, data, domain, expertise, r.mu, r.sigma);
    num.assign(n, std::vector<double>(domains, 0.0));
    den.assign(n, std::vector<double>(domains, 0.0));
    for (TaskId j = 0; j < data.task_count(); ++j) {
      if (std::isnan(r.mu[j]) || std::isnan(r.sigma[j]) || r.sigma[j] <= 0.0) {
        continue;
      }
      for (const Observation& o : data.for_task(j)) {
        if (!std::isfinite(o.value)) continue;
        const double e = (o.value - r.mu[j]) / r.sigma[j];
        num[o.user][domain[j]] += 1.0;
        den[o.user][domain[j]] += e * e;
      }
    }
    ExpertiseStore scratch = store;
    scratch.decay_and_accumulate(alpha, to_matrix(num), to_matrix(den));
    expertise = to_grid(scratch.snapshot());
    if (!prev.empty() &&
        serial_converged(prev, r.mu, opt.convergence_threshold)) {
      r.converged = true;
      break;
    }
  }
  store.decay_and_accumulate(alpha, to_matrix(num), to_matrix(den));
  const double c = store.anchor(opt.anchor_mean);
  for (double& s : r.sigma) {
    if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
  }
  return r;
}

// --- comparisons ----------------------------------------------------------

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void expect_bitwise(const Grid& a, const Grid& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) expect_bitwise(a[i], b[i], what);
}

struct Shape {
  std::size_t users;
  std::size_t tasks;
};
constexpr Shape kShapes[] = {{8, 20}, {48, 400}};

TEST(ShardedEstimateTest, ExactTierBitIdenticalToMonolithic) {
  const Eta2Mle mle;
  for (const Shape shape : kShapes) {
    const Model m = make_model(shape.users, shape.tasks, 5, 17);
    const OracleFit oracle =
        serial_estimate(mle.options(), m.data, m.domain, 5);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "users " << shape.users
                                      << " threads " << threads);
      parallel::set_thread_count(threads);
      const MleResult fit = mle.estimate(m.data, m.domain, 5);
      parallel::set_thread_count(0);
      expect_bitwise(oracle.mu, fit.mu, "mu");
      expect_bitwise(oracle.sigma, fit.sigma, "sigma");
      expect_bitwise(oracle.expertise, to_grid(fit.expertise), "expertise");
      EXPECT_EQ(oracle.iterations, fit.iterations);
      EXPECT_EQ(oracle.converged, fit.converged);
    }
  }
}

TEST(ShardedDynamicUpdateTest, ExactTierBitIdenticalToMonolithic) {
  const Eta2Mle mle;
  for (const Shape shape : kShapes) {
    // Both stores start from the same warm-up accumulators.
    ExpertiseStore seeded(shape.users);
    for (int d = 0; d < 5; ++d) (void)seeded.add_domain();
    const Model warm = make_model(shape.users, shape.tasks, 5, 21);
    const MleResult fit = mle.estimate(warm.data, warm.domain, 5);
    const Contributions seed = expertise_contributions(
        warm.data, warm.domain, fit.mu, fit.sigma, shape.users, 5);
    seeded.decay_and_accumulate(1.0, seed.num, seed.den);

    const Model next = make_model(shape.users, shape.tasks / 2 + 3, 5, 22);
    ExpertiseStore oracle_store = seeded;
    const DynamicUpdateResult oracle = serial_dynamic_update(
        oracle_store, next.data, next.domain, 0.5, mle.options());
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message() << "users " << shape.users
                                      << " threads " << threads);
      ExpertiseStore store = seeded;
      parallel::set_thread_count(threads);
      const DynamicUpdateResult update =
          dynamic_update(store, next.data, next.domain, 0.5, mle);
      parallel::set_thread_count(0);
      expect_bitwise(oracle.mu, update.mu, "mu");
      expect_bitwise(oracle.sigma, update.sigma, "sigma");
      EXPECT_EQ(oracle.iterations, update.iterations);
      EXPECT_EQ(oracle.converged, update.converged);
      expect_bitwise(to_grid(oracle_store.snapshot()),
                     to_grid(store.snapshot()), "store");
    }
  }
}

}  // namespace
}  // namespace eta2::truth
