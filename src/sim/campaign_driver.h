// The one campaign driver: the per-day adapter under simulate()'s ETA² and
// comparison-method loops and simulate_durable()'s runner callbacks
// (DESIGN.md §10). A loop supplies only what executes a day; this owns the
// rest. Internal to those two drivers. Per day, in order:
//   begin_day(day)  pure: the day's effective task ids (empty when the batch
//                   is lost) and NewTask batch; records nothing, so crash
//                   recovery can re-derive a step's inputs at will.
//   collect(rng)    once per execution attempt: tallies the batch drop,
//                   starts the adversary's step, forks the day's observation
//                   stream off the campaign RNG and wraps it (attacks
//                   innermost, transport faults outside).
//   fold_day / fold_quarantined, then finish(server) once.
#ifndef ETA2_SIM_CAMPAIGN_DRIVER_H
#define ETA2_SIM_CAMPAIGN_DRIVER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/eta2_server.h"
#include "sim/simulation.h"

namespace eta2::sim {

// What a campaign has folded so far; simulate_durable checkpoints it, plus
// the plans' tallies, in its snapshot `extra` block.
struct CampaignTotals {
  SimulationResult result;
  double error_sum = 0.0;  // Σ|μ̂−μ|/σ, task by task in day order
  std::uint64_t error_count = 0;
};

class CampaignDriver {
 public:
  // Only `uses_descriptions` loops (ETA²) need an embedder for datasets
  // with descriptions.
  CampaignDriver(const Dataset& dataset, const SimOptions& options,
                 bool uses_descriptions);
  // The embedder decorator holds a pointer to the fault plan.
  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  // The options' embedder behind the fault plan's outage decorator, if any.
  [[nodiscard]] const std::shared_ptr<const text::Embedder>& embedder() const {
    return embedder_;
  }
  [[nodiscard]] const std::vector<double>& capacities() const {
    return capacities_;
  }

  void begin_day(std::uint64_t day);
  [[nodiscard]] std::span<const std::size_t> ids() const { return ids_; }
  [[nodiscard]] std::span<const core::NewTask> batch() const { return batch_; }

  [[nodiscard]] core::CollectFn collect(const Rng& campaign_rng);

  // `estimates`: one per task of ids(), NaN when not estimated.
  void fold_day(const alloc::Allocation& allocation,
                std::span<const double> estimates, double cost,
                int truth_iterations, int data_iterations,
                const core::StepHealth& health);
  void fold_step(const core::Eta2Server::StepResult& step) {
    fold_day(step.allocation, step.truth, step.cost, step.mle_iterations,
             step.data_iterations, step.health);
  }
  // A batch abandoned after retries: an empty day, quarantine in the ledger.
  void fold_quarantined();

  // Moves the result out, with the tallies, the running-mean overall error
  // and, given the trained server, the expertise MAE.
  [[nodiscard]] SimulationResult finish(const core::Eta2Server* server);

  // simulate_durable's snapshot extra block.
  [[nodiscard]] const CampaignTotals& totals() const { return totals_; }
  [[nodiscard]] fault::FaultStats fault_stats() const {
    return plan_ ? plan_->stats() : fault::FaultStats{};
  }
  [[nodiscard]] const fault::AdversaryStats* adversary_stats() const {
    return adversary_ ? &adversary_->stats() : nullptr;
  }
  void restore(CampaignTotals totals, const fault::FaultStats& stats,
               const fault::AdversaryStats& adversary_stats);

 private:
  // Appends the current day's metrics, iteration count and health ledger.
  void push_day(DayMetrics metrics, const core::StepHealth& health);

  const Dataset& dataset_;
  bool collapse_domains_;
  std::optional<fault::FaultPlan> plan_;
  std::optional<fault::AdversaryPlan> adversary_;
  std::shared_ptr<const text::Embedder> embedder_;
  std::vector<double> capacities_;

  std::uint64_t day_ = 0;
  std::vector<std::size_t> ids_;
  std::vector<core::NewTask> batch_;

  CampaignTotals totals_;
};

}  // namespace eta2::sim

#endif  // ETA2_SIM_CAMPAIGN_DRIVER_H
