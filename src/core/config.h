// Configuration of the full ETA² pipeline (Fig. 1 of the paper).
#ifndef ETA2_CORE_CONFIG_H
#define ETA2_CORE_CONFIG_H

#include <cstddef>
#include <functional>
#include <string>

#include "truth/eta2_mle.h"
#include "truth/trust.h"

namespace eta2::core {

struct Eta2Config {
  // Clustering: merge-stop threshold fraction γ of d* (paper §3.3).
  double gamma = 0.5;
  // Expertise decay factor α on historical accumulators (paper Eq. 7–8).
  double alpha = 0.5;
  // Accuracy threshold ε of Eq. 11 (paper sets 0.1).
  double epsilon = 0.1;
  // MLE engine knobs (convergence threshold, clamps, ...).
  truth::MleOptions mle;
  // Run the ½-approximation extra greedy pass (paper always does).
  bool half_approx_pass = true;
  // Observation quarantine bound: reports with |x_ij| above this are
  // rejected at the collect boundary and counted in StepHealth (gross
  // outliers from unit bugs or fabrication). 0 disables the range check;
  // non-finite values are always quarantined.
  double observation_abs_limit = 0.0;

  // --- staged pipeline: registry-keyed stage selection ---
  // Each stage of the per-step loop (Fig. 1) is a named strategy resolved
  // through core::domain_identifiers() / allocation_strategies() /
  // truth_updaters(). Empty strings pick the paper defaults.
  //
  // Module 1, described tasks: "pairword-clustering" (paper §3.2) |
  // "phrase-clustering" (the whole description's content words as one
  // phrase, the ablation the pair-word design is measured against). Tasks
  // arriving with a known_domain label always resolve through the built-in
  // known-label identifier first.
  std::string domain_identifier;
  // Module 3, post-warm-up: "max-quality" | "min-cost" | "random" |
  // "reliability-greedy".
  std::string allocator;
  // Module 3, warm-up step (paper: random).
  std::string warmup_allocator;
  // Module 2, post-warm-up: "dynamic" (§4.2) | "warmup-mle".
  std::string truth_updater;
  // Module 2, warm-up step (paper: joint MLE bootstrap).
  std::string warmup_truth_updater;
  // Per-task observer cap for the random/reliability-greedy strategies
  // (0 = unbounded). The paper's warm-up runs unbounded.
  std::size_t max_users_per_task = 0;

  // --- adversarial defenses (DESIGN.md §14) ---
  // Trust ledger + defended Eq. 5/6 estimation. The default tier is
  // DefenseTier::kOff: no ledger exists and every transcript/save blob is
  // byte-identical to a defense-free build. kTrimmedV1 enables quarantine
  // filtering, per-task residual trims, influence-capped trust-weighted
  // sweeps, trust-discounted allocation, and the agreement-graph collusion
  // detector (see truth/trust.h).
  truth::TrustOptions trust;

  // --- cooperative step cancellation (DESIGN.md §13) ---
  // Invoked at the step pipeline's cancellation points: step entry, after
  // each module boundary, and every few hundred observation collections.
  // A watchdog that decides the step must stop (deadline breach, shutdown)
  // throws eta2::CancelledError; the durability layer rolls the step back
  // and quarantines its batch without retrying. Runtime wiring, not data —
  // never serialized, and null (the default) costs nothing on the hot path.
  std::function<void()> step_watchdog;

  // --- min-cost allocation (ETA²-mc) ---
  double epsilon_bar = 0.5;        // quality requirement ε̄
  double confidence_alpha = 0.05;  // 1−α confidence level
  double cost_per_iteration = 50;  // c°
  int max_data_iterations = 100;

  // Resolved stage names (the empty-string defaults applied).
  [[nodiscard]] std::string resolved_domain_identifier() const {
    return domain_identifier.empty() ? "pairword-clustering"
                                     : domain_identifier;
  }
  [[nodiscard]] std::string resolved_allocator() const {
    return allocator.empty() ? "max-quality" : allocator;
  }
  [[nodiscard]] std::string resolved_warmup_allocator() const {
    return warmup_allocator.empty() ? "random" : warmup_allocator;
  }
  [[nodiscard]] std::string resolved_truth_updater() const {
    return truth_updater.empty() ? "dynamic" : truth_updater;
  }
  [[nodiscard]] std::string resolved_warmup_truth_updater() const {
    return warmup_truth_updater.empty() ? "warmup-mle" : warmup_truth_updater;
  }
};

}  // namespace eta2::core

#endif  // ETA2_CORE_CONFIG_H
