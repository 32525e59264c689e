// Deterministic fault-injection and adversary framework.
//
// A FaultPlan is a seeded, stateless-by-construction description of the
// faults a run should experience: observation corruption (NaN / Inf / gross
// outliers), per-step user dropout, per-observation no-response, suppressed
// (empty) task batches, and embedder outages. Every decision is a pure
// counter-based hash of (seed, fault kind, step, task, user) — never a
// sequential RNG draw — so the same plan injects the same faults regardless
// of thread count, call order, or how many times a decision is consulted.
// That makes faulted runs exactly as reproducible as clean ones.
//
// An AdversaryPlan is the malicious counterpart (DESIGN.md §14): instead of
// random failures it models *strategic* workers — colluding sybil cliques
// that coordinate on a shared wrong value per task, camouflage workers that
// report honestly through warm-up and then poison, expertise drift, and
// review-bombing bursts. It uses the same counter-hash discipline, so an
// attacked run is bit-identical at any thread count, and keeps
// delivered-attack tallies so tests can reconcile defenses against the
// attacks that actually landed.
//
// The plans wrap the observation ingestion boundary of the pipeline via
// wrap_collect() (core::CollectFn is structurally this ObserveFn). Embedder
// outage *decisions* live here; the text::Embedder decorator that delivers
// them lives one layer up in text/faulty_embedder.h, reporting delivered
// outages back through record_embedder_failure().
#ifndef ETA2_COMMON_FAULT_H
#define ETA2_COMMON_FAULT_H

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>

namespace eta2::fault {

// Structurally identical to core::CollectFn; redeclared here so common/
// does not depend on core/.
using ObserveFn =
    std::function<std::optional<double>(std::size_t task, std::size_t user)>;

struct FaultOptions {
  std::uint64_t seed = 0;

  // --- observation corruption (per delivered observation) ---
  double nan_rate = 0.0;      // value replaced by quiet NaN
  double inf_rate = 0.0;      // value replaced by ±Inf
  double outlier_rate = 0.0;  // value multiplied by outlier_scale
  double outlier_scale = 1e6;

  // --- availability ---
  // Probability an allocated (task, user) pair answers at all. 1.0 =
  // everyone responds (the sim layer's former ad-hoc response_rate knob).
  double response_rate = 1.0;
  // Fraction of users silent for an entire step (mid-campaign dropout:
  // dead battery, left the area). Decided per (step, user).
  double dropout_rate = 0.0;
  // Probability a step's whole task batch is lost before the server sees it.
  double empty_batch_rate = 0.0;

  // --- subsystem outages ---
  // Probability the embedder is down for an entire step: every embedding
  // call throws text::EmbedderError while it lasts.
  double embedder_failure_rate = 0.0;

  // --- persistent fabricators (paper §1: users who "intentionally
  // generate data instead of performing the task") ---
  // Each user is a fabricator with this probability (decided once per
  // user); fabricators report honest_value + sign·U[offset_lo, offset_hi].
  double fabricator_fraction = 0.0;
  double fabricator_offset_lo = 5.0;
  double fabricator_offset_hi = 14.0;

  // True when any knob deviates from the fault-free defaults.
  [[nodiscard]] bool any() const {
    return nan_rate > 0.0 || inf_rate > 0.0 || outlier_rate > 0.0 ||
           response_rate < 1.0 || dropout_rate > 0.0 ||
           empty_batch_rate > 0.0 || embedder_failure_rate > 0.0 ||
           fabricator_fraction > 0.0;
  }
};

// Cumulative injection counts. Each counter is incremented at the moment a
// fault is actually delivered (not merely planned), so the totals can be
// reconciled against per-step health counters.
struct FaultStats {
  std::uint64_t observations_seen = 0;   // wrapped collect invocations
  std::uint64_t nan_injected = 0;
  std::uint64_t inf_injected = 0;
  std::uint64_t outliers_injected = 0;
  std::uint64_t fabricated = 0;          // fabricator-offset observations
  std::uint64_t no_responses = 0;        // suppressed by response_rate
  std::uint64_t dropouts = 0;            // suppressed by per-step dropout
  std::uint64_t batches_dropped = 0;
  std::uint64_t embedder_failures = 0;   // throwing embedding calls
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultOptions options);

  // Positions the plan at a time step. Must be called before consulting
  // per-step decisions (drop_batch, user_dropped, embedder_fails) or
  // invoking wrapped callbacks for that step.
  void begin_step(std::uint64_t step) { step_ = step; }
  [[nodiscard]] std::uint64_t current_step() const { return step_; }

  // True when this step's batch is lost; records the drop.
  [[nodiscard]] bool drop_batch();

  // Pure decision queries (no stats side effects).
  // batch_dropped is drop_batch's decision without the tally: the campaign
  // driver derives batches with it and tallies once per execution attempt.
  [[nodiscard]] bool batch_dropped() const;
  [[nodiscard]] bool user_dropped(std::size_t user) const;
  [[nodiscard]] bool embedder_down() const;
  [[nodiscard]] bool user_fabricates(std::size_t user) const;

  // Decorates `inner` with this plan's dropout, no-response, fabrication
  // and corruption faults. The returned callback references this plan (for
  // the step cursor and stats); the plan must outlive it.
  [[nodiscard]] ObserveFn wrap_collect(ObserveFn inner);

  // Tallies one delivered embedder outage. Called by the embedder decorator
  // (text/faulty_embedder.h) at the moment it throws — the decorator lives
  // a layer above, so delivery accounting flows back through this hook
  // instead of a friend access. Const-callable: delivery happens on the
  // serial identify path of a step.
  void record_embedder_failure() const { ++stats_.embedder_failures; }

  [[nodiscard]] const FaultOptions& options() const { return options_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // Overwrites the cumulative injection counters. The durability layer uses
  // this to make FaultStats transactional: counters are persisted with each
  // campaign snapshot and restored on rollback/recovery, after which replay
  // re-records exactly the injections of the steps it re-runs.
  void restore_stats(const FaultStats& stats) { stats_ = stats; }

 private:
  // Uniform [0,1) decision draw for a (kind, step, task, user) coordinate.
  [[nodiscard]] double decision(std::uint64_t kind, std::uint64_t step,
                                std::uint64_t task, std::uint64_t user) const;

  FaultOptions options_;
  std::uint64_t step_ = 0;
  // Mutated by const-callable wrappers (collect runs through a const
  // reference chain); all mutation happens on the serial ingestion path.
  mutable FaultStats stats_;
};

// ---------------------------------------------------------------------------
// Adversary side (DESIGN.md §14): strategic attacks on truth analysis.
// ---------------------------------------------------------------------------

struct AdversaryOptions {
  std::uint64_t seed = 0;

  // --- colluding sybil cliques ---
  // Each user is a sybil with this probability (decided once per user).
  // Sybils hash into one of `clique_count` cliques; every member of a
  // clique reports honest_value + the SAME signed offset for a given task
  // (sign persistent per clique, magnitude hashed per (clique, step, task)
  // from [clique_offset_lo, clique_offset_hi]) — so a clique's reports
  // cluster tightly around one shared wrong value, separated only by each
  // member's own sensing noise. That correlated-residual signature is what
  // the agreement-graph detector (truth/trust.h) keys on.
  double sybil_fraction = 0.0;
  std::size_t clique_count = 1;
  double clique_offset_lo = 6.0;
  double clique_offset_hi = 12.0;

  // --- camouflage workers ---
  // Report honestly (building trust and expertise) for every step before
  // `camouflage_after`, then poison with a persistent per-user signed
  // offset from [camouflage_offset_lo, camouflage_offset_hi].
  double camouflage_fraction = 0.0;
  std::uint64_t camouflage_after = 2;
  double camouflage_offset_lo = 6.0;
  double camouflage_offset_hi = 12.0;

  // --- expertise drift ---
  // Drifting users degrade over time: zero-mean noise whose amplitude grows
  // linearly as drift_per_step · step, hashed per (step, task, user). Models
  // sensors going out of calibration (or a worker losing interest) — the
  // slow attack a one-shot expertise estimate never sees.
  double drift_fraction = 0.0;
  double drift_per_step = 0.5;

  // --- review-bombing bursts ---
  // With probability `burst_step_rate` a step is a bomb step: a FIXED bot
  // subset of the population (each user joins for life with probability
  // `burst_participation` — a rented bot farm, not a fresh crowd per step)
  // shifts its reports by a step-wide shared sign and a per-(step, task)
  // hashed magnitude from [burst_offset_lo, burst_offset_hi].
  double burst_step_rate = 0.0;
  double burst_participation = 0.5;
  double burst_offset_lo = 8.0;
  double burst_offset_hi = 16.0;

  // True when any attack is configured.
  [[nodiscard]] bool any() const {
    return sybil_fraction > 0.0 || camouflage_fraction > 0.0 ||
           drift_fraction > 0.0 || burst_step_rate > 0.0;
  }
};

// Delivered-attack tallies, incremented when a malicious report is actually
// handed to the pipeline (not merely planned — a sybil who never responds
// delivers nothing).
struct AdversaryStats {
  std::uint64_t observations_seen = 0;     // wrapped collect invocations
  std::uint64_t clique_reports = 0;        // clique-coordinated values
  std::uint64_t camouflage_honest = 0;     // camouflage users still warming up
  std::uint64_t camouflage_poisoned = 0;   // post-transition poisoned reports
  std::uint64_t drift_reports = 0;         // drift-noised reports
  std::uint64_t burst_reports = 0;         // review-bomb shifted reports
  std::uint64_t burst_steps = 0;           // steps declared bomb steps
};

// Seeded, counter-hashed adversary: every decision is a pure hash of
// (seed, attack kind, step, task, user/clique), exactly like FaultPlan —
// bit-identical at any thread count, wrapper-call order, or retry count.
class AdversaryPlan {
 public:
  explicit AdversaryPlan(AdversaryOptions options);

  // Positions the plan at a time step and records the burst-step tally.
  // Call once per step execution attempt (the durability layer restores
  // stats on rollback, so replays re-record exactly their own steps).
  void begin_step(std::uint64_t step);
  [[nodiscard]] std::uint64_t current_step() const { return step_; }

  // Pure decision queries (no stats side effects).
  [[nodiscard]] bool user_sybil(std::size_t user) const;
  [[nodiscard]] std::size_t clique_of(std::size_t user) const;
  [[nodiscard]] bool user_camouflage(std::size_t user) const;
  [[nodiscard]] bool user_drifts(std::size_t user) const;
  [[nodiscard]] bool burst_step() const;
  [[nodiscard]] bool burst_participant(std::size_t user) const;
  // The signed offset every member of `clique` applies to `task` at the
  // current step — identical for all members by construction.
  [[nodiscard]] double clique_offset(std::size_t clique,
                                     std::size_t task) const;

  // Decorates `inner` with this plan's attacks. Applied at the source (the
  // honest observation), so fault plans can wrap *outside* an adversary
  // plan: attacks happen first, transport faults second. The returned
  // callback references this plan; the plan must outlive it.
  [[nodiscard]] ObserveFn wrap_collect(ObserveFn inner);

  [[nodiscard]] const AdversaryOptions& options() const { return options_; }
  [[nodiscard]] const AdversaryStats& stats() const { return stats_; }

  // Transactional stats restore for the durability layer (see
  // FaultPlan::restore_stats).
  void restore_stats(const AdversaryStats& stats) { stats_ = stats; }

 private:
  [[nodiscard]] double decision(std::uint64_t kind, std::uint64_t step,
                                std::uint64_t task, std::uint64_t user) const;

  AdversaryOptions options_;
  std::uint64_t step_ = 0;
  // Mutated by the const-callable wrapper; all mutation happens on the
  // serial ingestion path (same contract as FaultStats).
  mutable AdversaryStats stats_;
};

}  // namespace eta2::fault

#endif  // ETA2_COMMON_FAULT_H
