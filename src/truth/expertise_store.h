// Persistent user-expertise state across time steps (paper §4.2).
// For every (user, domain) pair the store keeps the two accumulators of
// Eqs. 7–8 — N(u) (count of observations) and D(u) (sum of squared
// normalized errors) — and exposes the expertise u = sqrt(N / D) of Eq. 9.
// Accumulators, contributions and snapshots are all row-major Matrix
// planes, user rows × domain columns: cell (i, k) is user i in domain k.
// New time steps decay history by α before adding fresh contributions, and
// domain merges add the absorbed domain's accumulators into the survivor.
#ifndef ETA2_TRUTH_EXPERTISE_STORE_H
#define ETA2_TRUTH_EXPERTISE_STORE_H

#include <iosfwd>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "truth/eta2_mle.h"
#include "truth/observation.h"

namespace eta2::truth {

class ExpertiseStore {
 public:
  // `options` supplies the clamp range, ridge and initial expertise used to
  // turn accumulators into expertise values (shared with the MLE engine).
  explicit ExpertiseStore(std::size_t user_count, MleOptions options = {});

  [[nodiscard]] std::size_t user_count() const { return num_.rows(); }
  [[nodiscard]] std::size_t domain_count() const { return num_.cols(); }

  // Registers a new dense domain index (returned). Existing users start
  // with empty accumulators (expertise = initial value) in it.
  DomainIndex add_domain();

  // u_i^k of Eq. 9, clamped; `initial_expertise` when the pair has no data.
  [[nodiscard]] double expertise(UserId user, DomainIndex domain) const;

  // Eq. 9 on every cell: user_count × domain_count — the MLE warm start.
  [[nodiscard]] Matrix snapshot() const;

  // Into `out`: the snapshot decay_and_accumulate(alpha, add_num, add_den)
  // would leave, bit for bit, without touching the accumulators — the
  // dynamic update's per-iteration candidate.
  void decayed_snapshot(double alpha, const Matrix& add_num,
                        const Matrix& add_den, Matrix& out) const;

  // The `k` users with the highest expertise in `domain` (ties broken by
  // user id), most expert first.
  [[nodiscard]] std::vector<UserId> top_experts(DomainIndex domain,
                                                std::size_t k) const;

  // Eqs. 7–8: accumulators ← α·accumulators + contribution. The contribution
  // matrices must be user_count x domain_count. Pass alpha = 1 to add
  // without decay (used when seeding from the warm-up MLE).
  void decay_and_accumulate(double alpha, const Matrix& add_num,
                            const Matrix& add_den);

  // Paper §4.2, merged domains: fold `absorbed` into `kept` and reset
  // `absorbed` to the no-data state.
  void merge_domains(DomainIndex kept, DomainIndex absorbed);

  // Gauge anchoring (see MleOptions::anchor_mean): rescales the D
  // accumulators so the mean unclamped expertise over pairs with data
  // equals `target_mean`. Returns the factor c by which expertise shrank
  // (u_new = u_old / c); 1.0 when there is nothing to anchor.
  double anchor(double target_mean);

  [[nodiscard]] const MleOptions& options() const { return options_; }

  // State persistence (accumulators only; options come from the caller at
  // load time). The format is a whitespace-separated text block with full
  // floating-point round-trip precision.
  void save(std::ostream& out) const;
  [[nodiscard]] static ExpertiseStore load(std::istream& in,
                                           MleOptions options);

 private:
  // Eq. 9 for one (N, D) accumulator pair (initial_expertise when num <= 0).
  [[nodiscard]] double expertise_from(double num, double den) const;

  void check_contribution(double alpha, const Matrix& add_num,
                          const Matrix& add_den) const;

  MleOptions options_;
  Matrix num_;  // N(u_i^k), user_count × domain_count
  Matrix den_;  // D(u_i^k), user_count × domain_count
};

// Computes the Eq. 7–8 contribution matrices of one batch of tasks: for each
// (user, domain), add_num counts the user's observations on tasks of that
// domain and add_den sums (x−μ)²/σ². Tasks with NaN truth are skipped.
// Fans out over users; each cell still sums its terms in ascending task
// order, so the matrices are bit-identical at any thread count.
struct Contributions {
  Matrix num;  // user_count × domain_count
  Matrix den;  // user_count × domain_count
};
[[nodiscard]] Contributions expertise_contributions(
    const ObservationSet& data, std::span<const DomainIndex> task_domain,
    std::span<const double> mu, std::span<const double> sigma,
    std::size_t user_count, std::size_t domain_count);

// The dynamic update of paper §4.2: given the observations collected for the
// new tasks of the current time step (and their domains), iterate
//   (a) Eq. 5 truth estimation with the current expertise,
//   (b) Eq. 7–9 candidate expertise from decayed history + new contributions
// until the truth estimates converge, then commit the decayed accumulators
// into the store. Returns the new tasks' truth and base numbers. Every
// new_task_domain[j] must be below store.domain_count(). With a non-empty
// `sweep_view`, step (a) sees sweep_view(candidate) instead of the candidate
// (the trust ledger's defended update); contributions and the commit are
// unchanged.
struct DynamicUpdateResult {
  std::vector<double> mu;
  std::vector<double> sigma;
  int iterations = 0;
  bool converged = false;
};
DynamicUpdateResult dynamic_update(ExpertiseStore& store,
                                   const ObservationSet& new_data,
                                   std::span<const DomainIndex> new_task_domain,
                                   double alpha, const Eta2Mle& mle,
                                   const ExpertiseView& sweep_view = {});

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_EXPERTISE_STORE_H
