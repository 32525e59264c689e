// Adversary-resilient truth analysis (DESIGN.md §14): a per-user trust
// ledger plus versioned defenses for the Eq. 5/6 sweeps.
//
// The attack the plain MLE cannot see: expertise u_i^k is estimated *from
// agreement with the committed truth*, so a colluding clique that answers
// consistently wrong drags the truth toward itself, then earns expertise
// for agreeing with the truth it corrupted. The defenses here break that
// loop from three angles:
//
//  * TrustLedger — after each step's truth commit, every user's reports are
//    scored as standardized residuals z = (x − μ)·u/σ against the committed
//    truth; a per-user EWMA of clipped z² becomes a trust score in (0, 1].
//    Honest experts sit near E[z²] = 1; persistent poisoners accumulate
//    residual mass and their trust decays toward 0.
//  * Agreement graph — pairwise "wrong together, same direction" counts
//    (decayed, kept only for pairs that have actually co-erred) feed a
//    union-find clustering; components of co-wrong users above a size
//    threshold are flagged as cliques and quarantined wholesale. This is
//    what catches sybils *before* their individual trust drains: colluding
//    on a shared value is exactly the correlated-residual signature honest
//    noise cannot produce.
//  * Influence-capped / trimmed estimation — under DefenseTier::kTrimmedV1
//    the dynamic update drops quarantined users' reports, trims the
//    largest-residual observations per task against a provisional truth,
//    and runs the Eq. 5/6 sweeps with effective expertise
//    min(u, influence_cap) · sqrt(max(trust, trust_floor)), so no single
//    identity — however expert it claims to be — can dominate a task.
//
// Expertise planes are row-major Matrix: user × domain for the sweeps and
// the filter, user × task for the allocation discount.
//
// Defenses are versioned behind DefenseTier: kOff (the default) leaves
// every transcript and save blob byte-identical to a ledger-free build;
// kTrimmedV1 has its own pinned transcript. All ledger updates happen on
// the serial post-commit path, so attacked runs stay bit-identical at any
// thread count.
#ifndef ETA2_TRUTH_TRUST_H
#define ETA2_TRUTH_TRUST_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "truth/expertise_store.h"
#include "truth/observation.h"

namespace eta2::truth {

// How far the defended truth path may deviate from the plain Eq. 5/6
// reference. Explicitly versioned: the default is bit-identical to a
// defense-free build, every other tier pins its own transcript, and a
// changed defense gets a new enumerator — an existing tier's behaviour
// never changes silently.
enum class DefenseTier : int {
  // No defenses: no ledger exists, no filtering, no discounting. Golden
  // transcripts and v1/v2 save blobs are byte-identical to pre-trust
  // builds (CI-gated).
  kOff = 0,
  // v1 trimmed estimation: quarantine-filter + per-task residual trim +
  // influence-capped trust-weighted sweeps (pinned transcript
  // tests/truth/trust_test.cpp).
  kTrimmedV1 = 1,
};

struct TrustOptions {
  DefenseTier tier = DefenseTier::kOff;

  // --- residual ledger (per user) ---
  double decay = 0.8;        // EWMA decay per step on residual mass/weight
  double z_clip = 25.0;      // clip on z² per observation (outlier guard)
  double temperature = 2.0;  // trust = exp(−(mean z² − 1)/temperature)
  // Users below `suspect_threshold` are reported suspected; below
  // `quarantine_threshold` (with at least `min_weight` of EWMA evidence)
  // they are quarantined.
  double suspect_threshold = 0.5;
  double quarantine_threshold = 0.15;
  double min_weight = 6.0;
  // Quarantine lasts this many steps, then the user is re-admitted on
  // probation: residual state re-seeded to `probation_weight` observations
  // at mean z² = 1 (trust 1, but thin evidence — a relapse re-quarantines
  // quickly).
  std::uint64_t quarantine_steps = 3;
  double probation_weight = 2.0;

  // --- agreement-graph collusion detector ---
  double agreement_z = 2.0;     // |z| beyond which a report is "wrong"
  double min_co_wrong = 3.0;    // decayed co-wrong mass for an edge
  double co_wrong_ratio = 0.5;  // …and co-wrong / co-observed at least this
  std::size_t min_clique_size = 3;  // components this large are cliques
  double pair_floor = 0.05;     // decayed pairs below this are dropped

  // --- kTrimmedV1 estimation knobs ---
  double trim_fraction = 0.2;  // max fraction of a task's reports trimmed
  double trim_min_z = 3.0;     // …and only reports with |z| above this
  double influence_cap = 4.0;  // cap on effective expertise u
  double trust_floor = 0.05;   // floor on the sqrt(trust) weight
  // Allocation discount floor: expertise rows scale by max(trust, this),
  // so distrusted users stop capturing budget but never vanish entirely
  // (their reports are what re-earns — or re-confirms — the distrust).
  double alloc_floor = 0.1;

  [[nodiscard]] bool active() const { return tier != DefenseTier::kOff; }
};

// Number of buckets in the step trust histogram (bucket b covers
// [b/8, (b+1)/8), the last bucket closed at 1).
inline constexpr std::size_t kTrustHistogramBuckets = 8;

// What one end_step() pass did — copied into core::StepHealth by the
// server (truth/ cannot name core types).
struct TrustStepReport {
  std::size_t suspected_users = 0;    // trust below suspect_threshold
  std::size_t quarantined_users = 0;  // in quarantine after this step
  std::size_t readmitted_users = 0;   // re-admitted from quarantine now
  std::size_t flagged_cliques = 0;    // agreement components quarantined
  std::array<std::size_t, kTrustHistogramBuckets> trust_histogram{};
};

// Result of the kTrimmedV1 pre-estimation defense filter.
struct TrustFilterResult {
  ObservationSet data{0, 0};               // surviving observations
  std::size_t dropped_quarantined = 0;     // reports from quarantined users
  std::size_t trimmed_observations = 0;    // per-task residual trim
};

class TrustLedger {
 public:
  TrustLedger(std::size_t user_count, TrustOptions options);

  [[nodiscard]] std::size_t user_count() const { return m2_.size(); }
  [[nodiscard]] const TrustOptions& options() const { return options_; }
  [[nodiscard]] std::uint64_t step() const { return step_; }

  // Trust score in (0, 1]: 1 with no (or healthy) evidence, decaying toward
  // 0 as the residual EWMA exceeds the honest-noise expectation E[z²] = 1.
  [[nodiscard]] double trust(UserId user) const;
  [[nodiscard]] bool suspected(UserId user) const;
  [[nodiscard]] bool quarantined(UserId user) const;
  // Per-user quarantine flags (index = user id) — the service layer's
  // admission snapshot.
  [[nodiscard]] std::vector<char> quarantine_flags() const;

  // Allocation discount: scales each user's expertise row by
  // max(trust, alloc_floor) (quarantined users get the floor), so
  // low-trust identities stop winning budget. `expertise` is the
  // user-major (n × domains) plane of AllocationProblem.
  void discount_expertise(Matrix& expertise) const;

  // kTrimmedV1 pre-estimation filter: drops quarantined users' reports,
  // then trims per task the largest-|z| reports against a provisional
  // fixed-expertise truth sweep (at most trim_fraction of a task's
  // reports, only those with |z| > trim_min_z, never below 1 survivor;
  // ties trim the higher user id first). Deterministic by construction.
  [[nodiscard]] TrustFilterResult filter(
      const ObservationSet& raw, std::span<const DomainIndex> task_domain,
      const Matrix& expertise, const Eta2Mle& mle) const;

  // kTrimmedV1 Eq. 5/6: truth::dynamic_update with effective expertise
  //   eff(i, k) = min(u_i^k, influence_cap) · sqrt(max(trust_i, trust_floor))
  // as the view every truth sweep sees; contributions, the commit and the
  // gauge re-anchor are the plain update's.
  [[nodiscard]] DynamicUpdateResult trusted_dynamic_update(
      ExpertiseStore& store, const ObservationSet& data,
      std::span<const DomainIndex> task_domain, double alpha,
      const Eta2Mle& mle) const;

  // Post-commit scoring pass, called once per committed step with the RAW
  // (unfiltered) observations — quarantined and trimmed users keep being
  // scored, which is what re-earns admission or confirms the verdict.
  // Decays the ledger, folds in this step's standardized residuals,
  // updates the agreement graph, quarantines (threshold breaches and
  // flagged cliques), and re-admits expired quarantines on probation.
  TrustStepReport end_step(const ObservationSet& raw,
                           std::span<const DomainIndex> task_domain,
                           std::span<const double> mu,
                           std::span<const double> sigma,
                           const ExpertiseStore& store);

  // State persistence ("trust-ledger v1": residual EWMAs, quarantine
  // cursors, the decayed agreement graph, the step cursor). Options come
  // from the caller at load time, like every other component.
  void save(std::ostream& out) const;
  [[nodiscard]] static TrustLedger load(std::istream& in,
                                        TrustOptions options);
  // load() with the "trust-ledger v1" header already consumed — the server
  // snapshot's trailer loop dispatches on the tag before delegating here.
  [[nodiscard]] static TrustLedger load_body(std::istream& in,
                                             TrustOptions options);

 private:
  struct PairStat {
    double co_wrong = 0.0;     // decayed "wrong together, same sign" mass
    double co_observed = 0.0;  // decayed shared-task mass (same pairs only)
  };

  // Effective expertise for the trusted sweeps (see trusted_dynamic_update).
  [[nodiscard]] Matrix effective_expertise(const Matrix& expertise) const;

  void quarantine_user(UserId user);

  TrustOptions options_;
  std::uint64_t step_ = 0;
  std::vector<double> m2_;  // EWMA of clipped z² mass per user
  std::vector<double> w_;   // EWMA of observation weight per user
  // step + 1 until which the user is quarantined; 0 = not quarantined.
  std::vector<std::uint64_t> quarantined_until_;
  std::vector<std::uint64_t> readmissions_;  // probation re-entries per user
  // Agreement graph: keyed (lo_user << 32 | hi_user); entries are created
  // the first time a pair co-errs and dropped once decay erases them, so
  // memory is bounded by actually-correlated pairs. std::map for the
  // deterministic iteration the clustering fold requires.
  std::map<std::uint64_t, PairStat> pairs_;
};

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_TRUST_H
