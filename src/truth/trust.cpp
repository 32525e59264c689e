#include "truth/trust.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.h"

namespace eta2::truth {
namespace {

void write_number(std::ostream& out, double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  ensure(ec == std::errc(), "TrustLedger::save: formatting failure");
  out.write(buffer, ptr - buffer);
}

std::uint64_t pair_key(UserId a, UserId b) {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return (lo << 32) | hi;
}

// Union-find over user ids for the per-step clique clustering. Path
// halving + union by size; scratch-allocated per end_step (user counts are
// the campaign's n, not the million-task axis).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

void check_rate(double rate, std::string_view what) {
  require(rate >= 0.0 && rate <= 1.0, what);
}

}  // namespace

TrustLedger::TrustLedger(std::size_t user_count, TrustOptions options)
    : options_(options),
      m2_(user_count, 0.0),
      w_(user_count, 0.0),
      quarantined_until_(user_count, 0),
      readmissions_(user_count, 0) {
  require(user_count >= 1, "TrustLedger: need at least one user");
  check_rate(options_.decay, "TrustLedger: decay in [0,1]");
  require(options_.z_clip > 0.0, "TrustLedger: z_clip > 0");
  require(options_.temperature > 0.0, "TrustLedger: temperature > 0");
  require(options_.quarantine_threshold <= options_.suspect_threshold,
          "TrustLedger: quarantine_threshold <= suspect_threshold");
  require(options_.min_weight >= 0.0, "TrustLedger: min_weight >= 0");
  require(options_.quarantine_steps >= 1,
          "TrustLedger: quarantine_steps >= 1");
  require(options_.probation_weight > 0.0,
          "TrustLedger: probation_weight > 0");
  require(options_.agreement_z > 0.0, "TrustLedger: agreement_z > 0");
  check_rate(options_.co_wrong_ratio, "TrustLedger: co_wrong_ratio in [0,1]");
  require(options_.min_clique_size >= 2,
          "TrustLedger: min_clique_size >= 2");
  check_rate(options_.trim_fraction, "TrustLedger: trim_fraction in [0,1]");
  require(options_.trim_min_z >= 0.0, "TrustLedger: trim_min_z >= 0");
  require(options_.influence_cap > 0.0, "TrustLedger: influence_cap > 0");
  require(options_.trust_floor > 0.0 && options_.trust_floor <= 1.0,
          "TrustLedger: trust_floor in (0,1]");
  require(options_.alloc_floor > 0.0 && options_.alloc_floor <= 1.0,
          "TrustLedger: alloc_floor in (0,1]");
}

double TrustLedger::trust(UserId user) const {
  require(user < m2_.size(), "TrustLedger::trust: user out of range");
  if (w_[user] <= 0.0) return 1.0;
  const double mean = m2_[user] / w_[user];
  if (mean <= 1.0) return 1.0;
  return std::exp(-(mean - 1.0) / options_.temperature);
}

bool TrustLedger::suspected(UserId user) const {
  return trust(user) < options_.suspect_threshold;
}

bool TrustLedger::quarantined(UserId user) const {
  require(user < quarantined_until_.size(),
          "TrustLedger::quarantined: user out of range");
  return quarantined_until_[user] != 0;
}

std::vector<char> TrustLedger::quarantine_flags() const {
  std::vector<char> flags(quarantined_until_.size(), 0);
  for (std::size_t u = 0; u < flags.size(); ++u) {
    flags[u] = quarantined_until_[u] != 0 ? 1 : 0;
  }
  return flags;
}

void TrustLedger::discount_expertise(Matrix& expertise) const {
  require(expertise.rows() == m2_.size(),
          "TrustLedger::discount_expertise: row count != user count");
  for (std::size_t u = 0; u < expertise.rows(); ++u) {
    const double factor = quarantined_until_[u] != 0
                              ? options_.alloc_floor
                              : std::max(trust(u), options_.alloc_floor);
    if (factor >= 1.0) continue;
    for (double& cell : expertise.row(u)) cell *= factor;
  }
}

TrustFilterResult TrustLedger::filter(
    const ObservationSet& raw, std::span<const DomainIndex> task_domain,
    const Matrix& expertise, const Eta2Mle& mle) const {
  require(raw.user_count() == m2_.size(),
          "TrustLedger::filter: user count mismatch");
  require(task_domain.size() == raw.task_count(),
          "TrustLedger::filter: domain labels != task count");

  TrustFilterResult result;
  // Pass 1: drop quarantined users' reports.
  ObservationSet kept(raw.user_count(), raw.task_count());
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    for (const Observation& obs : raw.for_task(j)) {
      if (quarantined_until_[obs.user] != 0) {
        ++result.dropped_quarantined;
        continue;
      }
      kept.add(j, obs.user, obs.value);
    }
  }
  if (options_.trim_fraction <= 0.0) {
    result.data = std::move(kept);
    return result;
  }

  // Pass 2: provisional fixed-expertise truth, then per-task residual trim.
  std::vector<double> mu;
  std::vector<double> sigma;
  mle.estimate_truth_only(kept, task_domain, expertise, mu, sigma);

  const double sigma_min = mle.options().sigma_min;
  ObservationSet trimmed(raw.user_count(), raw.task_count());
  std::vector<std::pair<double, UserId>> order;  // (|z|, user)
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    const std::span<const Observation> obs = kept.for_task(j);
    const std::size_t budget =
        obs.size() >= 3 ? static_cast<std::size_t>(
                              std::floor(options_.trim_fraction *
                                         static_cast<double>(obs.size())))
                        : 0;
    std::size_t cut = 0;
    order.clear();
    if (budget > 0 && !std::isnan(mu[j])) {
      const double s = std::max(sigma[j], sigma_min);
      const DomainIndex k = task_domain[j];
      for (const Observation& o : obs) {
        const double u = expertise(o.user, k);
        const double z = std::abs((o.value - mu[j]) * u / s);
        if (z > options_.trim_min_z) order.emplace_back(z, o.user);
      }
      // Largest residual first; ties trim the higher user id first (so the
      // survivor set is the lexicographically smallest, deterministic).
      std::sort(order.begin(), order.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second > b.second;
                });
      cut = std::min(budget, order.size());
      if (obs.size() - cut < 1) cut = obs.size() - 1;
      order.resize(cut);
    }
    for (const Observation& o : obs) {
      bool drop = false;
      for (const auto& [z, user] : order) {
        if (user == o.user) {
          drop = true;
          break;
        }
      }
      if (drop) {
        ++result.trimmed_observations;
        continue;
      }
      trimmed.add(j, o.user, o.value);
    }
  }
  result.data = std::move(trimmed);
  return result;
}

Matrix TrustLedger::effective_expertise(const Matrix& expertise) const {
  Matrix eff = expertise;
  for (std::size_t u = 0; u < eff.rows(); ++u) {
    const double weight =
        std::sqrt(std::max(trust(u), options_.trust_floor));
    for (double& cell : eff.row(u)) {
      cell = std::min(cell, options_.influence_cap) * weight;
    }
  }
  return eff;
}

DynamicUpdateResult TrustLedger::trusted_dynamic_update(
    ExpertiseStore& store, const ObservationSet& data,
    std::span<const DomainIndex> task_domain, double alpha,
    const Eta2Mle& mle) const {
  return dynamic_update(
      store, data, task_domain, alpha, mle,
      [this](const Matrix& expertise) {
        return effective_expertise(expertise);
      });
}

void TrustLedger::quarantine_user(UserId user) {
  quarantined_until_[user] = step_ + options_.quarantine_steps + 1;
}

TrustStepReport TrustLedger::end_step(const ObservationSet& raw,
                                      std::span<const DomainIndex> task_domain,
                                      std::span<const double> mu,
                                      std::span<const double> sigma,
                                      const ExpertiseStore& store) {
  require(raw.user_count() == m2_.size(),
          "TrustLedger::end_step: user count mismatch");
  require(task_domain.size() == raw.task_count(),
          "TrustLedger::end_step: domain labels != task count");
  require(mu.size() == raw.task_count() && sigma.size() == raw.task_count(),
          "TrustLedger::end_step: truth planes != task count");

  TrustStepReport report;
  ++step_;

  // Re-admission first: expired quarantines return on probation, scored
  // fresh from this step's reports onward.
  for (UserId u = 0; u < m2_.size(); ++u) {
    if (quarantined_until_[u] != 0 && step_ >= quarantined_until_[u]) {
      quarantined_until_[u] = 0;
      m2_[u] = options_.probation_weight;  // mean z² = 1: trust 1, thin
      w_[u] = options_.probation_weight;
      ++readmissions_[u];
      ++report.readmitted_users;
    }
  }

  // Decay history, then fold in this step's standardized residuals. Raw
  // observations on purpose: quarantined users keep being scored.
  for (UserId u = 0; u < m2_.size(); ++u) {
    m2_[u] *= options_.decay;
    w_[u] *= options_.decay;
  }
  for (auto it = pairs_.begin(); it != pairs_.end();) {
    it->second.co_wrong *= options_.decay;
    it->second.co_observed *= options_.decay;
    if (it->second.co_wrong < options_.pair_floor) {
      it = pairs_.erase(it);
    } else {
      ++it;
    }
  }

  const double sigma_min = store.options().sigma_min;
  std::vector<std::pair<UserId, double>> task_z;  // observers' z this task
  for (TaskId j = 0; j < raw.task_count(); ++j) {
    if (std::isnan(mu[j])) continue;
    const double s = std::max(sigma[j], sigma_min);
    const DomainIndex k = task_domain[j];
    task_z.clear();
    for (const Observation& obs : raw.for_task(j)) {
      const double u = store.expertise(obs.user, k);
      const double z = (obs.value - mu[j]) * u / s;
      if (!std::isfinite(z)) continue;
      m2_[obs.user] += std::min(z * z, options_.z_clip);
      w_[obs.user] += 1.0;
      task_z.emplace_back(obs.user, z);
    }
    // Agreement graph: pairs that are wrong together in the same direction.
    // Entries are created on first co-error; existing entries also track
    // shared-task exposure so the edge test is agreement *beyond chance*.
    for (std::size_t a = 0; a < task_z.size(); ++a) {
      const bool wrong_a = std::abs(task_z[a].second) > options_.agreement_z;
      for (std::size_t b = a + 1; b < task_z.size(); ++b) {
        const bool wrong_b =
            std::abs(task_z[b].second) > options_.agreement_z;
        const bool co_wrong =
            wrong_a && wrong_b &&
            (task_z[a].second > 0.0) == (task_z[b].second > 0.0);
        const std::uint64_t key =
            pair_key(task_z[a].first, task_z[b].first);
        auto it = pairs_.find(key);
        if (it == pairs_.end()) {
          if (!co_wrong) continue;
          it = pairs_.emplace(key, PairStat{}).first;
        }
        it->second.co_observed += 1.0;
        if (co_wrong) it->second.co_wrong += 1.0;
      }
    }
  }

  // Clique clustering: union co-wrong-beyond-chance edges, quarantine
  // components at or above the size threshold. std::map iteration keeps
  // the fold deterministic.
  UnionFind uf(m2_.size());
  for (const auto& [key, stat] : pairs_) {
    if (stat.co_wrong >= options_.min_co_wrong &&
        stat.co_wrong >= options_.co_wrong_ratio * stat.co_observed) {
      // key is a std::uint64_t, so the high half needs no cast; the mask
      // literal is unsigned long long and does.
      uf.unite(key >> 32, static_cast<std::size_t>(key & 0xffffffffULL));
    }
  }
  std::vector<std::size_t> component_size(m2_.size(), 0);
  for (UserId u = 0; u < m2_.size(); ++u) ++component_size[uf.find(u)];
  std::vector<char> flagged_root(m2_.size(), 0);
  for (UserId u = 0; u < m2_.size(); ++u) {
    const std::size_t root = uf.find(u);
    if (component_size[root] < options_.min_clique_size) continue;
    if (!flagged_root[root]) {
      flagged_root[root] = 1;
      ++report.flagged_cliques;
    }
    if (quarantined_until_[u] == 0) quarantine_user(u);
  }

  // Threshold quarantines + the step's trust census.
  for (UserId u = 0; u < m2_.size(); ++u) {
    const double t = trust(u);
    if (quarantined_until_[u] == 0 && t < options_.quarantine_threshold &&
        w_[u] >= options_.min_weight) {
      quarantine_user(u);
    }
    if (t < options_.suspect_threshold) ++report.suspected_users;
    if (quarantined_until_[u] != 0) ++report.quarantined_users;
    const auto bucket = std::min(
        kTrustHistogramBuckets - 1,
        static_cast<std::size_t>(t * static_cast<double>(
                                         kTrustHistogramBuckets)));
    ++report.trust_histogram[bucket];
  }
  return report;
}

void TrustLedger::save(std::ostream& out) const {
  out << "trust-ledger v1\n";
  out << m2_.size() << ' ' << step_ << '\n';
  for (UserId u = 0; u < m2_.size(); ++u) {
    write_number(out, m2_[u]);
    out << ' ';
    write_number(out, w_[u]);
    out << ' ' << quarantined_until_[u] << ' ' << readmissions_[u] << '\n';
  }
  out << "pairs " << pairs_.size() << '\n';
  for (const auto& [key, stat] : pairs_) {
    out << key << ' ';
    write_number(out, stat.co_wrong);
    out << ' ';
    write_number(out, stat.co_observed);
    out << '\n';
  }
}

TrustLedger TrustLedger::load(std::istream& in, TrustOptions options) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) && tag == "trust-ledger" &&
              version == "v1",
          "TrustLedger::load: bad header");
  return load_body(in, options);
}

TrustLedger TrustLedger::load_body(std::istream& in, TrustOptions options) {
  std::string tag;
  std::size_t users = 0;
  std::uint64_t step = 0;
  require(static_cast<bool>(in >> users >> step) && users >= 1,
          "TrustLedger::load: bad dimensions");
  TrustLedger ledger(users, options);
  ledger.step_ = step;
  for (UserId u = 0; u < users; ++u) {
    require(static_cast<bool>(in >> ledger.m2_[u] >> ledger.w_[u] >>
                              ledger.quarantined_until_[u] >>
                              ledger.readmissions_[u]),
            "TrustLedger::load: truncated user row");
  }
  std::size_t pair_count = 0;
  require(static_cast<bool>(in >> tag >> pair_count) && tag == "pairs",
          "TrustLedger::load: bad pairs header");
  for (std::size_t i = 0; i < pair_count; ++i) {
    std::uint64_t key = 0;
    PairStat stat;
    require(static_cast<bool>(in >> key >> stat.co_wrong >> stat.co_observed),
            "TrustLedger::load: truncated pair row");
    ledger.pairs_.emplace(key, stat);
  }
  return ledger;
}

}  // namespace eta2::truth
