// The per-step data plane of the staged pipeline (Fig. 1 of the paper).
//
// One StepContext flows through the three stage interfaces per time step:
//   DomainIdentifier  -> task_domains, domain_count          (Module 1)
//   AllocationStrategy-> allocation (+ observations when the strategy
//                        collects incrementally, e.g. min-cost)  (Module 3)
//   TruthUpdater      -> truth, sigma, mle_iterations        (Module 2)
// The expertise plane inside `problem` is a single contiguous row-major
// matrix (n users x m tasks) shared by every stage — PR 1's flattening
// promoted up through the public API.
#ifndef ETA2_CORE_STEP_CONTEXT_H
#define ETA2_CORE_STEP_CONTEXT_H

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "alloc/allocation.h"
#include "common/rng.h"
#include "core/config.h"
#include "text/embedder.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"
#include "truth/observation.h"

namespace eta2::core {

// One incoming task of a time step's batch.
struct NewTask {
  // Textual description (domains unknown); ignored when `known_domain` is
  // set (the synthetic dataset's pre-known labels).
  std::string description;
  std::optional<std::size_t> known_domain;
  double processing_time = 1.0;
  double cost = 1.0;
};

// Observation callback: value user `user` reports for the step's
// `local_task` (0-based within this step's batch); std::nullopt when the
// user never responds (dropped connection, abandoned task, ...) — the
// pipeline then simply proceeds without that observation.
using CollectFn =
    std::function<std::optional<double>(std::size_t local_task, std::size_t user)>;

// Per-step degradation ledger. Every fault the pipeline absorbed instead of
// throwing is counted here; a fault-free step leaves all fields at their
// defaults. Returned on StepResult and aggregated by the simulation layer.
struct StepHealth {
  // --- observation sanitization (the quarantine pass at the collect
  // boundary; see sanitizing_collect) ---
  std::size_t pairs_asked = 0;            // (task, user) pairs queried
  std::size_t observations_accepted = 0;  // finite, in-range, recorded
  std::size_t rejected_nonfinite = 0;     // NaN / ±Inf x_ij quarantined
  std::size_t rejected_out_of_range = 0;  // |x_ij| > observation_abs_limit
  std::size_t silent_pairs = 0;           // queried but no response at all

  // --- Module 1 degradation ---
  bool identifier_failed = false;          // described-task identifier threw
  std::size_t domain_fallback_tasks = 0;   // routed to the unknown domain

  // --- Module 2 degradation ---
  // MLE aborted with NumericalError; truth fell back to the
  // capability-weighted mean under the prior expertise (no commit).
  bool truth_fallback = false;

  // --- Module 3 degradation ---
  // Min-cost Algorithm 2 stopped with this many tasks still failing the
  // probabilistic quality requirement (budget/capacity exhausted).
  std::size_t quality_unmet_tasks = 0;

  // The step's batch was empty (suppressed upstream or a quiet day).
  bool empty_batch = false;

  // --- durability layer (core/durable_runner.h) ---
  // Batches the durable runner gave up on: the step kept failing with
  // ContractViolation / CorruptSnapshotError after the configured retries,
  // was rolled back, and its batch was skipped (journaled as quarantined so
  // crash recovery reproduces the decision).
  std::size_t quarantined_batches = 0;

  // --- work counters ---
  // Deterministic, persisted in the campaign snapshot's extra block
  // (eta2-sim-extra v2, sim/durable_sim.h) so a resumed campaign reports
  // its full health history; none feed degraded().
  std::size_t domain_count = 0;  // max(domain count, 1) of the step
  // Iterations of the configured truth updaters (warm-up MLE, dynamic
  // update); the trust ledger's steady-state update adds none.
  std::size_t truth_iterations = 0;
  // Greedy work counters (GreedyStats) from the max-quality allocator,
  // both ½-approximation passes summed; zero for other strategies.
  std::size_t greedy_selections = 0;
  std::size_t greedy_gain_evaluations = 0;
  std::size_t greedy_heap_pops = 0;

  // --- adversarial-defense observability (DESIGN.md §14) ---
  // Written only when a trust ledger is active (DefenseTier != kOff); a
  // defense-free run leaves all of these at zero and the histogram empty,
  // which is what keeps the v2 extra block byte-identical (the durable
  // layer serializes them as an optional trailer). None feed degraded():
  // quarantining an attacker is the system working, not degrading.
  std::size_t suspected_users = 0;      // trust below suspect threshold
  std::size_t quarantined_users = 0;    // in quarantine after this step
  std::size_t readmitted_users = 0;     // re-admitted on probation this step
  std::size_t flagged_cliques = 0;      // agreement components quarantined
  std::size_t dropped_quarantined = 0;  // reports dropped by the filter
  std::size_t trimmed_observations = 0; // reports trimmed per-task
  // Post-step trust census: bucket b counts users with trust in
  // [b/8, (b+1)/8). Empty when no ledger is active.
  std::vector<std::size_t> trust_histogram;

  // True when any degraded mode engaged this step.
  [[nodiscard]] bool degraded() const {
    return rejected_nonfinite > 0 || rejected_out_of_range > 0 ||
           identifier_failed || domain_fallback_tasks > 0 || truth_fallback ||
           quality_unmet_tasks > 0 || quarantined_batches > 0;
  }

  // Accumulates another step's counters into this one (flags OR together).
  void merge(const StepHealth& other);
};

// The batch state shared by the pipeline stages. Wiring pointers are
// non-owning and set by the composer (Eta2Server, or the simulation's
// baseline driver) before any stage runs; stages read what they need and
// write their module's outputs.
struct StepContext {
  // --- wiring (non-owning; may be null when a stage does not need it) ---
  const Eta2Config* config = nullptr;
  truth::ExpertiseStore* store = nullptr;
  const truth::Eta2Mle* mle = nullptr;
  const text::Embedder* embedder = nullptr;
  Rng* rng = nullptr;
  const CollectFn* collect = nullptr;
  // Per-user reliability scores for the baseline reliability-greedy
  // strategy; empty = uniform.
  std::span<const double> user_reliability;

  // --- batch input ---
  std::span<const NewTask> tasks;

  // --- Module 1 outputs ---
  std::vector<truth::DomainIndex> task_domains;  // dense index per task
  std::size_t domain_count = 0;

  // --- contiguous allocation plane (input to Module 3) ---
  alloc::AllocationProblem problem;

  // --- Module 3 outputs ---
  alloc::Allocation allocation;
  truth::ObservationSet observations{0, 0};
  int data_iterations = 1;  // Algorithm 2 rounds (1 otherwise)

  // --- Module 2 outputs ---
  std::vector<double> truth;  // per task (NaN if never observed)
  std::vector<double> sigma;  // per task
  int mle_iterations = 0;

  // --- degradation ledger (written by the sanitizing collect wrapper and
  // by any stage that engages a degraded mode) ---
  StepHealth health;

  [[nodiscard]] std::size_t user_count() const {
    return problem.user_capacity.size();
  }
  [[nodiscard]] std::size_t task_count() const { return tasks.size(); }
};

// The shared observation-collection loop (the Fig. 1 "sensing data" arrow):
// asks `collect` once per allocated (task, user) pair, in task-major
// allocation order, and records responses in `out`. When `task_ids` is
// non-empty it maps the allocation's local task index j to the global task
// id task_ids[j] in `out` (the multi-day drivers accumulate into a global
// observation set).
void collect_observations(const alloc::Allocation& allocation,
                          const CollectFn& collect, truth::ObservationSet& out,
                          std::span<const std::size_t> task_ids = {});

// The sanitization/quarantine pass of the collection boundary: wraps a raw
// observation callback so that non-finite values (NaN, ±Inf) and — when
// `abs_limit > 0` — values with |x| > abs_limit are quarantined (turned
// into non-responses) and tallied in `health`, together with the asked /
// accepted / silent counts. Finite in-range values pass through untouched,
// so a fault-free stream is bit-identical to the unwrapped callback.
// `health` and `inner` must outlive the returned callback.
[[nodiscard]] CollectFn sanitizing_collect(const CollectFn& inner,
                                           double abs_limit,
                                           StepHealth& health);

// Convenience overload: sanitizes `collect` through `sanitizing_collect`
// before the shared collection loop, recording the step's counts in
// `health`.
void collect_observations(const alloc::Allocation& allocation,
                          const CollectFn& collect, truth::ObservationSet& out,
                          StepHealth& health, double abs_limit,
                          std::span<const std::size_t> task_ids = {});

}  // namespace eta2::core

#endif  // ETA2_CORE_STEP_CONTEXT_H
