#include "truth/expertise_store.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"

namespace eta2::truth {

ExpertiseStore::ExpertiseStore(std::size_t user_count, MleOptions options)
    : options_(options), num_(user_count, 0), den_(user_count, 0) {}

DomainIndex ExpertiseStore::add_domain() {
  const DomainIndex idx = domain_count();
  for (Matrix* plane : {&num_, &den_}) {
    Matrix wider(plane->rows(), idx + 1);
    for (UserId i = 0; i < plane->rows(); ++i) {
      std::ranges::copy(plane->row(i), wider.row(i).begin());
    }
    *plane = std::move(wider);
  }
  return idx;
}

double ExpertiseStore::expertise_from(double num, double den) const {
  if (num <= 0.0) return options_.initial_expertise;
  // Shrinkage toward the prior, matching Eq. 6's update in Eta2Mle.
  const double p = options_.prior_strength;
  const double u0 = options_.initial_expertise;
  const double u = std::sqrt((num + p) / (den + p / (u0 * u0) +
                                          options_.ridge));
  // Eq. 6 with positive numerator and denominator: the pre-clamp estimate
  // must already be positive and finite (a negative accumulated D would
  // mean a corrupted store).
  ETA2_ASSERT(std::isfinite(u) && u > 0.0);
  return std::clamp(u, options_.expertise_min, options_.expertise_max);
}

double ExpertiseStore::expertise(UserId user, DomainIndex domain) const {
  require(user < user_count(), "ExpertiseStore::expertise: user out of range");
  require(domain < domain_count(),
          "ExpertiseStore::expertise: domain out of range");
  return expertise_from(num_(user, domain), den_(user, domain));
}

Matrix ExpertiseStore::snapshot() const {
  Matrix out(user_count(), domain_count());
  std::ranges::transform(
      num_.data(), den_.data(), out.data().begin(),
      [this](double num, double den) { return expertise_from(num, den); });
  return out;
}

void ExpertiseStore::decayed_snapshot(double alpha, const Matrix& add_num,
                                      const Matrix& add_den,
                                      Matrix& out) const {
  check_contribution(alpha, add_num, add_den);
  out.assign(user_count(), domain_count());
  for (std::size_t c = 0; c < out.data().size(); ++c) {
    out.data()[c] = expertise_from(alpha * num_.data()[c] + add_num.data()[c],
                                   alpha * den_.data()[c] + add_den.data()[c]);
  }
}

std::vector<UserId> ExpertiseStore::top_experts(DomainIndex domain,
                                                std::size_t k) const {
  require(domain < domain_count(),
          "ExpertiseStore::top_experts: domain out of range");
  std::vector<UserId> rank(user_count());
  std::iota(rank.begin(), rank.end(), UserId{0});
  const std::size_t take = std::min(k, rank.size());
  // (expertise desc, id asc) is a total order, so the partial sort is
  // deterministic.
  std::partial_sort(rank.begin(),
                    rank.begin() + static_cast<std::ptrdiff_t>(take),
                    rank.end(), [&](UserId a, UserId b) {
                      const double ua = expertise(a, domain);
                      const double ub = expertise(b, domain);
                      if (ua != ub) return ua > ub;
                      return a < b;
                    });
  rank.resize(take);
  return rank;
}

void ExpertiseStore::check_contribution(double alpha, const Matrix& add_num,
                                        const Matrix& add_den) const {
  require(alpha >= 0.0 && alpha <= 1.0,
          "ExpertiseStore::decay_and_accumulate: alpha in [0,1]");
  require(add_num.rows() == user_count() && add_den.rows() == user_count(),
          "ExpertiseStore::decay_and_accumulate: row count mismatch");
  require(add_num.cols() == domain_count() && add_den.cols() == domain_count(),
          "ExpertiseStore::decay_and_accumulate: column count mismatch");
}

void ExpertiseStore::decay_and_accumulate(double alpha, const Matrix& add_num,
                                          const Matrix& add_den) {
  check_contribution(alpha, add_num, add_den);
  for (std::size_t c = 0; c < num_.data().size(); ++c) {
    num_.data()[c] = alpha * num_.data()[c] + add_num.data()[c];
    den_.data()[c] = alpha * den_.data()[c] + add_den.data()[c];
  }
}

void ExpertiseStore::merge_domains(DomainIndex kept, DomainIndex absorbed) {
  require(kept < domain_count() && absorbed < domain_count() &&
              kept != absorbed,
          "ExpertiseStore::merge_domains: bad domain indices");
  for (UserId i = 0; i < user_count(); ++i) {
    num_(i, kept) += num_(i, absorbed);
    den_(i, kept) += den_(i, absorbed);
    num_(i, absorbed) = 0.0;
    den_(i, absorbed) = 0.0;
  }
}

double ExpertiseStore::anchor(double target_mean) {
  require(target_mean > 0.0, "ExpertiseStore::anchor: target_mean > 0");
  // The gauge is multiplicative, so the geometric mean of the (clamped,
  // shrunk) expertise values is the anchored statistic; it is also robust
  // to the heavy upper tail of small-sample estimates.
  // Row-major cells: user-major, domain ascending — the fold order.
  const std::span<const double> num = num_.data();
  const std::span<double> den = den_.data();
  double log_sum = 0.0;
  std::size_t count = 0;
  for (std::size_t cell = 0; cell < num.size(); ++cell) {
    if (num[cell] > 0.0) {
      log_sum += std::log(expertise_from(num[cell], den[cell]));
      ++count;
    }
  }
  if (count == 0) return 1.0;
  const double c =
      std::exp(log_sum / static_cast<double>(count)) / target_mean;
  if (c <= 0.0 || !std::isfinite(c)) return 1.0;
  // u = sqrt(N/D): dividing u by c multiplies D by c².
  for (double& d : den) d *= c * c;
  ETA2_ENSURES(std::isfinite(c) && c > 0.0);
  return c;
}

namespace {

void write_number(std::ostream& out, double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  ensure(ec == std::errc(), "ExpertiseStore::save: formatting failure");
  out.write(buffer, ptr - buffer);
}

}  // namespace

void ExpertiseStore::save(std::ostream& out) const {
  out << "expertise-store v1\n";
  out << user_count() << ' ' << domain_count() << '\n';
  for (const Matrix* plane : {&num_, &den_}) {
    for (UserId i = 0; i < plane->rows(); ++i) {
      const std::span<const double> row = plane->row(i);
      for (std::size_t k = 0; k < row.size(); ++k) {
        if (k > 0) out << ' ';
        write_number(out, row[k]);
      }
      out << '\n';
    }
  }
}

ExpertiseStore ExpertiseStore::load(std::istream& in, MleOptions options) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) &&
              tag == "expertise-store" && version == "v1",
          "ExpertiseStore::load: bad header");
  std::size_t users = 0;
  std::size_t domains = 0;
  require(static_cast<bool>(in >> users >> domains),
          "ExpertiseStore::load: bad dimensions");
  ExpertiseStore store(0, options);
  store.num_.assign(users, domains);
  store.den_.assign(users, domains);
  for (Matrix* plane : {&store.num_, &store.den_}) {
    for (double& cell : plane->data()) {
      require(static_cast<bool>(in >> cell),
              "ExpertiseStore::load: truncated accumulators");
    }
  }
  return store;
}

namespace {

// Eq. 7–8 contributions over a user-major index, overwriting c's rows. Each
// user owns its rows and each (user, domain) cell receives its terms in
// ascending task order — the serial task-major loop's order — so the sums
// are bit-identical at any thread count.
void fill_contributions(const UserMajorObservations& by_user,
                        std::span<const DomainIndex> task_domain,
                        std::span<const double> mu,
                        std::span<const double> sigma, Contributions& c) {
  parallel::parallel_for(by_user.user_count(), 16, [&](UserId i) {
    const std::span<double> num = c.num.row(i);
    const std::span<double> den = c.den.row(i);
    std::ranges::fill(num, 0.0);
    std::ranges::fill(den, 0.0);
    for (const UserMajorObservations::Entry& o : by_user.of_user(i)) {
      const TaskId j = o.task;
      if (std::isnan(mu[j]) || std::isnan(sigma[j]) || sigma[j] <= 0.0) {
        continue;
      }
      if (!std::isfinite(o.value)) continue;  // corrupt x_ij: no contribution
      const double e = (o.value - mu[j]) / sigma[j];
      num[task_domain[j]] += 1.0;
      den[task_domain[j]] += e * e;
    }
  });
}

}  // namespace

Contributions expertise_contributions(const ObservationSet& data,
                                      std::span<const DomainIndex> task_domain,
                                      std::span<const double> mu,
                                      std::span<const double> sigma,
                                      std::size_t user_count,
                                      std::size_t domain_count) {
  require(task_domain.size() == data.task_count(),
          "expertise_contributions: task_domain size mismatch");
  require(mu.size() == data.task_count() && sigma.size() == data.task_count(),
          "expertise_contributions: mu/sigma size mismatch");
  require(data.user_count() <= user_count,
          "expertise_contributions: user out of range");
  for (TaskId j = 0; j < data.task_count(); ++j) {
    if (std::isnan(mu[j]) || std::isnan(sigma[j]) || sigma[j] <= 0.0) continue;
    require(task_domain[j] < domain_count,
            "expertise_contributions: domain out of range");
  }
  Contributions c{Matrix(user_count, domain_count),
                  Matrix(user_count, domain_count)};
  fill_contributions(UserMajorObservations(data), task_domain, mu, sigma, c);
  return c;
}

DynamicUpdateResult dynamic_update(ExpertiseStore& store,
                                   const ObservationSet& new_data,
                                   std::span<const DomainIndex> new_task_domain,
                                   double alpha, const Eta2Mle& mle,
                                   const ExpertiseView& sweep_view) {
  require(new_data.user_count() == store.user_count(),
          "dynamic_update: user count mismatch");
  require(new_task_domain.size() == new_data.task_count(),
          "dynamic_update: task_domain size mismatch");
  const MleOptions& opt = mle.options();
  const std::size_t n = store.user_count();
  const std::size_t domains = store.domain_count();
  // The one domain-range check: every candidate (and viewed) expertise plane
  // has `domains` columns, so the per-iteration sweeps need no revalidation.
  for (const DomainIndex k : new_task_domain) {
    require(k < domains, "dynamic_update: domain out of range");
  }
  const UserMajorObservations by_user(new_data);

  DynamicUpdateResult result;
  Matrix expertise = store.snapshot();
  Matrix viewed;
  Contributions contrib{Matrix(n, domains), Matrix(n, domains)};
  std::vector<double> prev_mu;

  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    prev_mu = result.mu;
    if (sweep_view) viewed = sweep_view(expertise);
    mle.truth_sweep(new_data, new_task_domain, sweep_view ? viewed : expertise,
                    result.mu, result.sigma);
    fill_contributions(by_user, new_task_domain, result.mu, result.sigma,
                       contrib);
    // Candidate expertise from decayed history + this iteration's
    // contributions (Eq. 9). The store is only committed once, after
    // convergence, so the candidate is read off its accumulators as is.
    store.decayed_snapshot(alpha, contrib.num, contrib.den, expertise);

    if (!prev_mu.empty() &&
        truth_converged(prev_mu, result.mu, opt.convergence_threshold)) {
      result.converged = true;
      break;
    }
  }
  // Commit the final contributions with one real decay step, then re-anchor
  // the gauge (the incremental updates otherwise drift it upward) and keep
  // the reported σ consistent with the anchored expertise.
  store.decay_and_accumulate(alpha, contrib.num, contrib.den);
  if (opt.anchor_mean > 0.0) {
    const double c = store.anchor(opt.anchor_mean);
    for (double& s : result.sigma) {
      if (!std::isnan(s)) s = std::max(opt.sigma_min, s / c);
    }
  }
  return result;
}

}  // namespace eta2::truth
