// The campaign phase: the benchmark's own multi-day loop over
// core::Eta2Server::step (sim::simulate cannot be used — it overwrites
// Eta2Config::allocator, so its stages cannot be swapped for traced ones).
// The loop mirrors the simulation driver's RNG use exactly, so its
// estimation error must equal sim::simulate(dataset, "eta2", ...) bit for
// bit; the phase checks that on every dataset it runs.
#ifndef ETA2_PERFBENCH_CAMPAIGN_H
#define ETA2_PERFBENCH_CAMPAIGN_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "sim/dataset.h"
#include "text/embedder.h"
#include "trace.h"

namespace perfbench {

enum class DatasetKind { kSynthetic, kSfv };

// Deliberate faults the self-test injects to prove the gates fire.
enum class Perturb { kNone, kTraceDigest, kRepeatCounter, kSimulateError };

struct CampaignSetup {
  std::vector<eta2::sim::Dataset> datasets;  // one campaign each per cycle
  std::vector<std::uint64_t> seeds;          // campaign RNG seed per dataset
  std::shared_ptr<const eta2::text::Embedder> embedder;  // SFV only
  eta2::core::Eta2Config config;
  std::string shape;  // human-readable parameters for the metadata header
};

// Generates the datasets (and, for SFV, trains the skip-gram embedder)
// from `seed`. `tiny` shrinks everything for the self-test.
[[nodiscard]] CampaignSetup make_campaign_setup(DatasetKind kind, bool tiny,
                                                std::uint64_t seed);

// Deterministic per-campaign work counts; every repeat of one dataset and
// seed must reproduce them exactly.
struct CampaignCounters {
  std::uint64_t steps = 0;
  std::uint64_t pairs = 0;           // allocated (user, task) pairs
  std::uint64_t pairs_asked = 0;     // StepHealth: collect calls made
  std::uint64_t observations = 0;    // accepted observations
  std::uint64_t gain_evals = 0;      // max-quality greedy
  std::uint64_t heap_pops = 0;
  std::uint64_t selections = 0;
  std::uint64_t mle_iterations = 0;
  std::uint64_t domains = 0;         // expertise domains after the campaign
  std::uint64_t degraded_steps = 0;  // StepHealth::degraded()
  std::uint64_t digest = 0;          // truth, sigma and allocation bits
  bool operator==(const CampaignCounters&) const = default;
};

struct CampaignPhase {
  bool ok = true;
  std::string failure;  // why the phase failed its checks

  // Untraced timed cycles (the end-to-end numbers): per-cycle step-time
  // quantiles and throughput, reported as medians over the cycles.
  std::vector<double> cycle_step_ms_p50;
  std::vector<double> cycle_step_ms_p90;
  std::vector<double> cycle_obs_per_s;
  double step_ms_total = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t failed_steps = 0;
  std::uint64_t campaigns = 0;
  double error = 0.0;  // mean |mu_hat - mu| / sigma over the datasets

  std::vector<CampaignCounters> reference;  // per dataset, first run

  // Trace mode only: traced cycles alternate with untraced ones.
  StageTotals traced;
  double traced_step_ms_total = 0.0;
  std::uint64_t traced_steps = 0;
  std::uint64_t traced_campaigns = 0;
};

// Warm-up cycle, correctness gates (simulate equality, traced == untraced
// digests), then whole cycles over the datasets until `seconds` elapse.
// With `trace`, odd cycles run through the traced stages.
[[nodiscard]] CampaignPhase run_campaign_phase(const CampaignSetup& setup,
                                               double seconds, bool trace,
                                               Perturb perturb);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_CAMPAIGN_H
