#include "sim/durable_sim.h"

#include <bit>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.h"
#include "core/eta2_server.h"
#include "io/snapshot.h"
#include "sim/campaign_driver.h"

namespace eta2::sim {
namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double bits_double(std::uint64_t b) { return std::bit_cast<double>(b); }

[[noreturn]] void bad_extra(std::string_view what) {
  throw io::CorruptSnapshotError("durable sim: malformed accumulator state: " +
                                 std::string(what));
}

void expect_key(std::istream& in, std::string_view key) {
  std::string token;
  if (!(in >> token) || token != key) bad_extra(key);
}

// The campaign driver's totals plus the plans' cumulative tallies are the
// driver state that must survive a crash. Serialized (doubles as exact bit
// patterns) into the `extra` block of every campaign snapshot via the
// runner's save_extra/load_extra callbacks.
void save_accumulator(std::ostream& out, const CampaignTotals& acc,
                      const fault::FaultStats& stats,
                      const fault::AdversaryStats* adversary) {
  const SimulationResult& r = acc.result;
  out << "eta2-sim-extra v" << kSimExtraVersion << "\n";
  out << "error " << double_bits(acc.error_sum) << " " << acc.error_count
      << "\n";
  out << "total_cost " << double_bits(r.total_cost) << "\n";
  out << "iters " << r.truth_iteration_log.size();
  for (const int v : r.truth_iteration_log) out << " " << v;
  out << "\nfault " << stats.observations_seen << " " << stats.nan_injected
      << " " << stats.inf_injected << " " << stats.outliers_injected << " "
      << stats.fabricated << " " << stats.no_responses << " " << stats.dropouts
      << " " << stats.batches_dropped << " " << stats.embedder_failures
      << "\n";
  // Optional line: delivered-attack tallies, written only when an adversary
  // plan exists — clean and fault-only campaigns keep byte-identical blobs.
  if (adversary != nullptr) {
    out << "adversary " << adversary->observations_seen << " "
        << adversary->clique_reports << " " << adversary->camouflage_honest
        << " " << adversary->camouflage_poisoned << " "
        << adversary->drift_reports << " " << adversary->burst_reports << " "
        << adversary->burst_steps << "\n";
  }
  out << "health ";
  write_step_health(out, r.health);
  out << "\ndays " << r.days.size() << "\n";
  for (std::size_t d = 0; d < r.days.size(); ++d) {
    const DayMetrics& m = r.days[d];
    out << "day " << m.day << " " << m.task_count << " " << m.pair_count
        << " " << double_bits(m.estimation_error) << " "
        << double_bits(m.cost) << " " << m.truth_iterations << " "
        << m.data_iterations << "\n";
    out << "upt " << m.users_per_task.size();
    for (const std::size_t v : m.users_per_task) out << " " << v;
    out << "\nmae " << m.mean_assigned_expertise.size();
    for (const double v : m.mean_assigned_expertise) {
      out << " " << double_bits(v);
    }
    out << "\ndh ";
    write_step_health(out, r.day_health[d]);
    out << "\n";
  }
}

void load_accumulator(std::istream& in, CampaignTotals& acc,
                      fault::FaultStats& stats,
                      fault::AdversaryStats& adversary) {
  SimulationResult& r = acc.result;
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "eta2-sim-extra" ||
      (version != "v1" && version != "v2")) {
    bad_extra("header");
  }
  const int ver = version == "v2" ? 2 : 1;
  expect_key(in, "error");
  std::uint64_t error_bits = 0;
  if (!(in >> error_bits >> acc.error_count)) bad_extra("error line");
  acc.error_sum = bits_double(error_bits);
  expect_key(in, "total_cost");
  std::uint64_t cost_bits = 0;
  if (!(in >> cost_bits)) bad_extra("total_cost line");
  r.total_cost = bits_double(cost_bits);
  expect_key(in, "iters");
  std::size_t iter_count = 0;
  if (!(in >> iter_count)) bad_extra("iters count");
  // eta2-lint: allow(unbounded-input-resize) — resume path: the extra
  // block is a checkpoint this process wrote itself, and every element
  // read below fails fast via bad_extra() on truncation; a corrupt count
  // costs one oversized allocation, not unbounded hostile growth. Applies
  // to every count-prefixed vector in this loader.
  r.truth_iteration_log.resize(iter_count);
  for (int& v : r.truth_iteration_log) {
    if (!(in >> v)) bad_extra("iters values");
  }
  expect_key(in, "fault");
  if (!(in >> stats.observations_seen >> stats.nan_injected >>
        stats.inf_injected >> stats.outliers_injected >> stats.fabricated >>
        stats.no_responses >> stats.dropouts >> stats.batches_dropped >>
        stats.embedder_failures)) {
    bad_extra("fault counters");
  }
  // The next key is either the optional "adversary" tallies or "health".
  std::string key;
  if (!(in >> key)) bad_extra("health");
  if (key == "adversary") {
    if (!(in >> adversary.observations_seen >> adversary.clique_reports >>
          adversary.camouflage_honest >> adversary.camouflage_poisoned >>
          adversary.drift_reports >> adversary.burst_reports >>
          adversary.burst_steps)) {
      bad_extra("adversary counters");
    }
    if (!(in >> key)) bad_extra("health");
  }
  if (key != "health") bad_extra("health");
  r.health = read_step_health(in, ver);
  expect_key(in, "days");
  std::size_t day_count = 0;
  if (!(in >> day_count)) bad_extra("day count");
  // eta2-lint: allow(unbounded-input-resize) — see truth_iteration_log.
  r.days.reserve(day_count);
  // eta2-lint: allow(unbounded-input-resize) — see truth_iteration_log.
  r.day_health.reserve(day_count);
  for (std::size_t d = 0; d < day_count; ++d) {
    DayMetrics m;
    expect_key(in, "day");
    std::uint64_t err_bits = 0;
    std::uint64_t day_cost_bits = 0;
    if (!(in >> m.day >> m.task_count >> m.pair_count >> err_bits >>
          day_cost_bits >> m.truth_iterations >> m.data_iterations)) {
      bad_extra("day line");
    }
    m.estimation_error = bits_double(err_bits);
    m.cost = bits_double(day_cost_bits);
    expect_key(in, "upt");
    std::size_t upt_count = 0;
    if (!(in >> upt_count)) bad_extra("upt count");
    // eta2-lint: allow(unbounded-input-resize) — see truth_iteration_log.
    m.users_per_task.resize(upt_count);
    for (std::size_t& v : m.users_per_task) {
      if (!(in >> v)) bad_extra("upt values");
    }
    expect_key(in, "mae");
    std::size_t mae_count = 0;
    if (!(in >> mae_count)) bad_extra("mae count");
    // eta2-lint: allow(unbounded-input-resize) — see truth_iteration_log.
    m.mean_assigned_expertise.resize(mae_count);
    for (double& v : m.mean_assigned_expertise) {
      std::uint64_t bits = 0;
      if (!(in >> bits)) bad_extra("mae values");
      v = bits_double(bits);
    }
    expect_key(in, "dh");
    r.day_health.push_back(read_step_health(in, ver));
    r.days.push_back(std::move(m));
  }
}

}  // namespace

void write_step_health(std::ostream& out, const core::StepHealth& h) {
  out << h.pairs_asked << " " << h.observations_accepted << " "
      << h.rejected_nonfinite << " " << h.rejected_out_of_range << " "
      << h.silent_pairs << " " << (h.identifier_failed ? 1 : 0) << " "
      << h.domain_fallback_tasks << " " << (h.truth_fallback ? 1 : 0) << " "
      << h.quality_unmet_tasks << " " << (h.empty_batch ? 1 : 0) << " "
      << h.quarantined_batches << " " << h.domain_count << " "
      << h.truth_iterations << " " << h.greedy_selections << " "
      << h.greedy_gain_evaluations << " " << h.greedy_heap_pops;
  // Optional trust-defense trailer (DESIGN.md §14): only written when a
  // ledger produced counters, so a defense-free campaign's v2 extra block
  // stays byte-identical to pre-trust builds.
  const bool has_trust = h.suspected_users > 0 || h.quarantined_users > 0 ||
                         h.readmitted_users > 0 || h.flagged_cliques > 0 ||
                         h.dropped_quarantined > 0 ||
                         h.trimmed_observations > 0 ||
                         !h.trust_histogram.empty();
  if (has_trust) {
    out << " T " << h.suspected_users << " " << h.quarantined_users << " "
        << h.readmitted_users << " " << h.flagged_cliques << " "
        << h.dropped_quarantined << " " << h.trimmed_observations << " "
        << h.trust_histogram.size();
    for (const std::size_t v : h.trust_histogram) out << " " << v;
  }
}

core::StepHealth read_step_health(std::istream& in, int version) {
  core::StepHealth h;
  int identifier_failed = 0;
  int truth_fallback = 0;
  int empty_batch = 0;
  if (!(in >> h.pairs_asked >> h.observations_accepted >>
        h.rejected_nonfinite >> h.rejected_out_of_range >> h.silent_pairs >>
        identifier_failed >> h.domain_fallback_tasks >> truth_fallback >>
        h.quality_unmet_tasks >> empty_batch >> h.quarantined_batches)) {
    bad_extra("health counters");
  }
  h.identifier_failed = identifier_failed != 0;
  h.truth_fallback = truth_fallback != 0;
  h.empty_batch = empty_batch != 0;
  if (version >= 2) {
    // v2 appended the deterministic work counters; a v1 block simply
    // resumes them from zero.
    if (!(in >> h.domain_count >> h.truth_iterations >>
          h.greedy_selections >> h.greedy_gain_evaluations >>
          h.greedy_heap_pops)) {
      bad_extra("work counters");
    }
    // Optional trust-defense trailer, marked "T" (defended campaigns only).
    in >> std::ws;
    if (in.peek() == 'T') {
      char marker = 0;
      std::size_t histogram_size = 0;
      if (!(in >> marker >> h.suspected_users >> h.quarantined_users >>
            h.readmitted_users >> h.flagged_cliques >>
            h.dropped_quarantined >> h.trimmed_observations >>
            histogram_size)) {
        bad_extra("trust counters");
      }
      // eta2-lint: allow(unbounded-input-resize) — resume path, see
      // truth_iteration_log in load_accumulator.
      h.trust_histogram.resize(histogram_size);
      for (std::size_t& v : h.trust_histogram) {
        if (!(in >> v)) bad_extra("trust histogram");
      }
    }
  }
  return h;
}

SimulationResult simulate_durable(const Dataset& dataset,
                                  std::string_view method,
                                  const SimOptions& options,
                                  std::uint64_t seed,
                                  const core::DurableOptions& durable) {
  require(dataset.user_count() >= 1 && dataset.task_count() >= 1,
          "simulate_durable: empty dataset");
  const MethodSpec& spec = method_spec(method);
  require(spec.server,
          "simulate_durable: only ETA² methods support durable campaigns");
  core::Eta2Config config = options.config;
  config.allocator = std::string(spec.allocator);
  CampaignDriver driver(dataset, options, /*uses_descriptions=*/true);
  core::DurableRunner* runner_ptr = nullptr;

  // make_collect and on_step run inside run_step (including on replay), on
  // the day the loop below positioned the driver at.
  core::DurableRunner::Callbacks callbacks;
  callbacks.make_collect = [&](std::uint64_t) {
    return driver.collect(runner_ptr->rng());
  };
  callbacks.on_step = [&](std::uint64_t,
                          const core::DurableRunner::StepOutcome& outcome) {
    if (outcome.quarantined) {
      driver.fold_quarantined();
    } else {
      driver.fold_step(outcome.result);
    }
  };
  callbacks.save_extra = [&](std::ostream& out) {
    save_accumulator(out, driver.totals(), driver.fault_stats(),
                     driver.adversary_stats());
  };
  callbacks.load_extra = [&](std::istream* in) {
    CampaignTotals totals;
    fault::FaultStats stats;
    fault::AdversaryStats adversary_stats;
    if (in != nullptr) load_accumulator(*in, totals, stats, adversary_stats);
    driver.restore(std::move(totals), stats, adversary_stats);
  };

  core::DurableRunner runner(dataset.user_count(), config, driver.embedder(),
                             seed, durable, callbacks);
  runner_ptr = &runner;

  const auto days = static_cast<std::uint64_t>(dataset.day_count());
  bool stopped = false;
  for (std::uint64_t day = runner.next_step(); day < days; ++day) {
    // Graceful shutdown: a stop request takes effect at the step boundary,
    // so the last completed step is journaled and nothing is quarantined.
    // The checkpoint below makes the stop durable before we return.
    if (options.stop_requested && options.stop_requested()) {
      stopped = true;
      break;
    }
    // Step inputs are pure functions of (dataset, options, day) — crash
    // recovery re-derives them identically and the runner verifies them
    // against the journaled BEGIN record.
    driver.begin_day(day);
    (void)runner.run_step(driver.batch(), driver.capacities());
  }
  // Final snapshot: resuming a finished (or gracefully stopped) campaign
  // replays nothing — the journal and snapshot are fsync'd before return.
  runner.checkpoint();

  SimulationResult result = driver.finish(&runner.server());
  result.resumed = runner.resumed();
  result.replayed_steps = runner.replayed_steps();
  result.quarantined_steps = runner.quarantined_steps();
  result.stopped_early = stopped;
  return result;
}

}  // namespace eta2::sim
