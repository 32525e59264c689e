// Multi-day simulation driver: plays a generated Dataset against the ETA²
// server or one of the comparison approaches, collects per-day metrics, and
// evaluates estimation errors against the (hidden) ground truth. This is
// the harness behind every figure of the paper's §6. Both loops here, and
// the crash-resumable simulate_durable (sim/durable_sim.h), run on one
// per-day adapter (sim/campaign_driver.h), so they build batches, inject
// faults and attacks, and fold metrics identically.
#ifndef ETA2_SIM_SIMULATION_H
#define ETA2_SIM_SIMULATION_H

#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "core/config.h"
#include "core/step_context.h"
#include "sim/dataset.h"
#include "sim/method_registry.h"
#include "text/embedder.h"
#include "truth/baselines.h"

namespace eta2::sim {

struct SimOptions {
  core::Eta2Config config;  // ETA² variants
  // Embedder for described tasks; required for datasets with descriptions
  // when running ETA² (baselines never use descriptions).
  std::shared_ptr<const text::Embedder> embedder;
  truth::BaselineOptions baseline_options;  // baseline truth methods
  // Cap on users per task for the random/reliability allocators (0 = none).
  std::size_t baseline_max_users_per_task = 0;
  // Ablation: present every task to the server under ONE domain label, so
  // learned "expertise" degenerates to a single global reliability per user
  // (the expertise-unaware variant the paper argues against). Only affects
  // pre-known-domain datasets.
  bool collapse_domains = false;
  // Fault injection (common/fault.h): corruption, dropout, no-response,
  // batch loss, embedder outages, fabricators. All-defaults = clean run;
  // a FaultPlan is built (seeded from fault.seed) only when any() is true,
  // so the fault-free path is bit-identical to a build without this knob.
  fault::FaultOptions fault;
  // Adversarial attacks (common/fault.h): colluding sybil cliques,
  // camouflage workers, expertise drift, review-bombing bursts. Like
  // `fault`, an AdversaryPlan is built only when any() is true, and it
  // wraps the honest collect INNERMOST (attacks happen at the source;
  // transport faults apply to the already-attacked stream).
  fault::AdversaryOptions adversary;
  // Cooperative stop request, consulted by simulate_durable between steps
  // (the in-memory simulate() driver ignores it). When it returns true the
  // campaign checkpoints and returns early with stopped_early set — the
  // graceful SIGTERM/SIGINT path: the in-flight step finishes or rolls
  // back, nothing is quarantined, and `eta2 resume` continues from the
  // stop point bit-identically.
  std::function<bool()> stop_requested;
};

struct DayMetrics {
  int day = 0;
  std::size_t task_count = 0;
  std::size_t pair_count = 0;       // user-task assignments
  double estimation_error = 0.0;    // mean |μ̂−μ|/σ over the day's tasks
  double cost = 0.0;                // Σ c_j over assignments
  int truth_iterations = 0;         // truth-analysis iterations
  int data_iterations = 1;          // Algorithm 2 rounds (min-cost)
  // Per-task assignment stats (Table 2): #users and the mean TRUE expertise
  // of assigned users in the task's latent domain.
  std::vector<std::size_t> users_per_task;
  std::vector<double> mean_assigned_expertise;
};

struct SimulationResult {
  std::vector<DayMetrics> days;
  double overall_error = 0.0;  // mean over all estimated tasks
  double total_cost = 0.0;
  std::vector<int> truth_iteration_log;  // per truth-analysis run (Fig. 12)
  // Synthetic dataset only: mean absolute error between the estimated and
  // true expertise over every (user, latent-domain) pair (Fig. 11), after
  // least-squares gauge correction (the model identifies expertise only up
  // to a global scale — see MleOptions::anchor_mean).
  // NaN when unavailable (unknown-domain datasets or baseline methods).
  double expertise_mae = std::numeric_limits<double>::quiet_NaN();
  // Degradation accounting: the run's aggregated health ledger, the
  // per-day ledgers, and the faults the plan actually injected (all zeros
  // on a clean run). health counters and fault_stats reconcile:
  // nan+inf injected == rejected_nonfinite, dropouts+no_responses <=
  // silent_pairs, batches_dropped == empty-batch days, and so on.
  core::StepHealth health;
  std::vector<core::StepHealth> day_health;
  fault::FaultStats fault_stats;
  // The attacks the adversary plan actually delivered (all zeros when no
  // adversary is configured).
  fault::AdversaryStats adversary_stats;
  // Durable campaigns only (sim/durable_sim.h); always false/0 for the
  // in-memory simulate() driver.
  bool resumed = false;                  // continued from on-disk state
  std::uint64_t replayed_steps = 0;      // re-executed from the journal
  std::uint64_t quarantined_steps = 0;   // abandoned after retries
  // SimOptions::stop_requested ended the campaign before its final day;
  // the on-disk state is checkpointed and resumable.
  bool stopped_early = false;
};

// Runs the full multi-day loop for a named method (see method_registry.h).
// Observation draws, warm-up randomness and allocation randomness all
// derive from `seed`.
[[nodiscard]] SimulationResult simulate(const Dataset& dataset,
                                        std::string_view method,
                                        const SimOptions& options,
                                        std::uint64_t seed);

// Mean of |estimate − truth| / base_number over the given tasks; tasks with
// NaN estimates are skipped (counted in `skipped` when non-null).
[[nodiscard]] double estimation_error(const Dataset& dataset,
                                      std::span<const std::size_t> task_ids,
                                      std::span<const double> estimates,
                                      std::size_t* skipped = nullptr);

}  // namespace eta2::sim

#endif  // ETA2_SIM_SIMULATION_H
