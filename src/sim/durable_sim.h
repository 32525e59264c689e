// Durable (crash-resumable) variant of the multi-day simulation driver.
//
// simulate_durable runs the same campaign simulate() runs for an ETA²
// method, on the same per-day adapter (sim/campaign_driver.h), but executes
// each day through core/durable_runner.h: every step is journaled before
// it executes, the whole campaign checkpoints every snapshot_cadence steps
// (with the adapter's totals in the snapshot's `extra` block), and a
// poisoned step is retried and eventually quarantined instead of aborting
// the campaign. Killing the process at any instant and calling
// simulate_durable again with the same arguments resumes from the newest
// valid snapshot and produces a SimulationResult bit-identical to an
// uninterrupted run at any thread count.
#ifndef ETA2_SIM_DURABLE_SIM_H
#define ETA2_SIM_DURABLE_SIM_H

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "core/durable_runner.h"
#include "sim/simulation.h"

namespace eta2::sim {

// Version of the campaign snapshot's `extra` block simulate_durable writes.
// v2 added the deterministic domain/iteration/greedy StepHealth counters;
// v1 blocks still load (those counters simply resume from zero).
inline constexpr int kSimExtraVersion = 2;

// StepHealth serialization inside the extra block: the eleven fault
// counters (v1), plus — from v2 on — the five deterministic work counters
// (domain count, truth iterations, greedy selections / gain evaluations /
// heap pops). Exposed so tests can pin the format and round-trip both
// versions.
void write_step_health(std::ostream& out, const core::StepHealth& health);
[[nodiscard]] core::StepHealth read_step_health(std::istream& in, int version);

// Runs (or resumes) the multi-day loop for an ETA² method (baseline methods
// are not supported — their global re-estimation state is not snapshot-
// serializable). `durable.dir` holds the campaign (journal segments +
// snapshot generations); dataset, method, options and seed must be the same
// on every invocation for a given dir. The result's resumed /
// replayed_steps / quarantined_steps fields report what recovery did.
[[nodiscard]] SimulationResult simulate_durable(
    const Dataset& dataset, std::string_view method, const SimOptions& options,
    std::uint64_t seed, const core::DurableOptions& durable);

}  // namespace eta2::sim

#endif  // ETA2_SIM_DURABLE_SIM_H
