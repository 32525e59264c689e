#include "campaign.h"

#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/rng.h"
#include "core/eta2_server.h"
#include "report.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace perfbench {
namespace {

using eta2::Rng;
namespace core = eta2::core;
namespace sim = eta2::sim;

struct CampaignRun {
  CampaignCounters counters;
  double error = 0.0;
  std::vector<double> step_ms;
};

// One campaign over every day of `dataset`, with the simulation driver's
// exact RNG discipline (sim/simulation.cpp, simulate_eta2).
CampaignRun run_campaign(
    const sim::Dataset& dataset, const core::Eta2Config& config,
    const std::shared_ptr<const eta2::text::Embedder>& embedder,
    std::uint64_t seed, bool traced) {
  Rng rng(seed);
  core::Eta2Server server(dataset.user_count(),
                          traced ? traced_config(config) : config,
                          traced ? traced_embedder(embedder) : embedder);
  std::vector<double> capacities(dataset.user_count(), 0.0);
  for (std::size_t i = 0; i < dataset.user_count(); ++i) {
    capacities[i] = dataset.users[i].capacity;
  }

  CampaignRun run;
  CampaignCounters& c = run.counters;
  Digest digest;
  double error_sum = 0.0;
  std::size_t error_count = 0;
  for (int day = 0; day < dataset.day_count(); ++day) {
    const std::vector<std::size_t> ids = dataset.tasks_of_day(day);
    std::vector<core::NewTask> batch;
    batch.reserve(ids.size());
    for (const std::size_t j : ids) {
      const sim::Task& task = dataset.tasks[j];
      core::NewTask t;
      if (dataset.has_descriptions) {
        t.description = task.description;
      } else {
        t.known_domain = task.true_domain;
      }
      t.processing_time = task.processing_time;
      t.cost = task.cost;
      batch.push_back(std::move(t));
    }
    Rng observe_rng = rng.fork(static_cast<std::uint64_t>(day) + 1);
    core::CollectFn collect =
        [&](std::size_t local, std::size_t user) -> std::optional<double> {
      return sim::observe(dataset, user, ids[local], observe_rng);
    };
    if (traced) collect = traced_collect(std::move(collect));

    const Clock::time_point start = Clock::now();
    const core::Eta2Server::StepResult step =
        server.step(batch, capacities, collect, rng);
    run.step_ms.push_back(ms_between(start, Clock::now()));

    ++c.steps;
    c.pairs += step.allocation.pair_count();
    c.pairs_asked += step.health.pairs_asked;
    c.observations += step.health.observations_accepted;
    c.gain_evals += step.health.greedy_gain_evaluations;
    c.heap_pops += step.health.greedy_heap_pops;
    c.selections += step.health.greedy_selections;
    c.mle_iterations += static_cast<std::uint64_t>(step.mle_iterations);
    if (step.health.degraded()) ++c.degraded_steps;
    digest.add(step.truth);
    digest.add(step.sigma);
    for (std::size_t local = 0; local < ids.size(); ++local) {
      for (const std::size_t user : step.allocation.users_of(local)) {
        digest.add(static_cast<std::uint64_t>(user));
      }
      digest.add(~std::uint64_t{0});
    }
    for (std::size_t local = 0; local < ids.size(); ++local) {
      if (std::isnan(step.truth[local])) continue;
      const sim::Task& task = dataset.tasks[ids[local]];
      error_sum += std::fabs(step.truth[local] - task.ground_truth) /
                   task.base_number;
      ++error_count;
    }
  }
  c.domains = server.expertise_store().domain_count();
  c.digest = digest.value();
  run.error = error_count > 0 ? error_sum / static_cast<double>(error_count)
                              : std::numeric_limits<double>::quiet_NaN();
  return run;
}

CampaignPhase failed(CampaignPhase phase, std::string why) {
  phase.ok = false;
  phase.failure = std::move(why);
  return phase;
}

}  // namespace

CampaignSetup make_campaign_setup(DatasetKind kind, bool tiny,
                                  std::uint64_t seed) {
  CampaignSetup setup;
  setup.config.allocator = "max-quality";
  const std::size_t campaigns =
      kind == DatasetKind::kSynthetic ? (tiny ? 2 : 6) : (tiny ? 2 : 16);
  for (std::size_t d = 0; d < campaigns; ++d) {
    const std::uint64_t data_seed = seed * 16 + d + 1;
    setup.seeds.push_back(data_seed);
    if (kind == DatasetKind::kSynthetic) {
      sim::SyntheticOptions options;
      options.users = tiny ? 40 : 400;
      options.tasks = tiny ? 200 : 4000;
      options.domains = 8;
      options.days = 5;
      setup.datasets.push_back(sim::make_synthetic(options, data_seed));
    } else {
      sim::SfvOptions options;
      options.systems = 18;
      options.entities = tiny ? 20 : 300;
      options.properties_per_entity = tiny ? 3 : 6;
      setup.datasets.push_back(sim::make_sfv_like(options, data_seed));
    }
  }
  if (kind == DatasetKind::kSfv) {
    setup.embedder = sim::make_trained_embedder(7, 32, tiny ? 60 : 300);
  }
  const sim::Dataset& first = setup.datasets.front();
  setup.shape = (kind == DatasetKind::kSynthetic ? "synthetic " : "sfv ") +
                std::to_string(first.user_count()) + " users x " +
                std::to_string(first.task_count()) + " tasks x " +
                std::to_string(first.day_count()) + " days, " +
                std::to_string(campaigns) + " campaigns per cycle (seeds " +
                std::to_string(setup.seeds.front()) + ".." +
                std::to_string(setup.seeds.back()) + "), allocator " +
                setup.config.resolved_allocator() + ", identifier " +
                (kind == DatasetKind::kSynthetic
                     ? std::string("known-label")
                     : setup.config.resolved_domain_identifier());
  return setup;
}

CampaignPhase run_campaign_phase(const CampaignSetup& setup, double seconds,
                                 bool trace, Perturb perturb) {
  CampaignPhase phase;
  const std::size_t count = setup.datasets.size();
  auto run = [&](std::size_t d, bool traced) {
    return run_campaign(setup.datasets[d], setup.config, setup.embedder,
                        setup.seeds[d], traced);
  };

  // Warm-up cycle (untimed): caches fill, and each dataset's reference
  // counters, digest and error are recorded.
  double error_sum = 0.0;
  std::vector<double> errors;
  for (std::size_t d = 0; d < count; ++d) {
    const CampaignRun r = run(d, false);
    phase.reference.push_back(r.counters);
    errors.push_back(r.error);
    error_sum += r.error;
  }
  phase.error = error_sum / static_cast<double>(count);

  // Gate: the loop is the simulation driver, bit for bit.
  sim::SimOptions options;
  options.config = setup.config;
  options.embedder = setup.embedder;
  for (std::size_t d = 0; d < count; ++d) {
    double expected =
        sim::simulate(setup.datasets[d], "eta2", options, setup.seeds[d])
            .overall_error;
    if (perturb == Perturb::kSimulateError && d == 0) {
      expected = std::nextafter(expected, 1e300);
    }
    if (std::bit_cast<std::uint64_t>(expected) !=
        std::bit_cast<std::uint64_t>(errors[d])) {
      return failed(std::move(phase),
                    "campaign error differs from sim::simulate on seed " +
                        std::to_string(setup.seeds[d]));
    }
  }

  // Gate: the traced stages change nothing.
  {
    StageTotals scratch;
    set_trace_sink(&scratch);
    CampaignCounters traced = run(0, true).counters;
    set_trace_sink(nullptr);
    if (perturb == Perturb::kTraceDigest) traced.digest ^= 1;
    if (!(traced == phase.reference[0])) {
      return failed(std::move(phase),
                    "traced campaign digest differs from untraced on seed " +
                        std::to_string(setup.seeds[0]));
    }
    if (scratch.collect_calls != traced.pairs_asked) {
      return failed(std::move(phase),
                    "CollectFn wrapper count differs from StepHealth");
    }
  }

  // Timed cycles. Whole cycles only, so every dataset weighs the same; in
  // trace mode odd cycles are traced and even ones measure the untraced
  // cost of the same work (the tracing overhead).
  const Clock::time_point start = Clock::now();
  std::uint64_t embed_calls_per_cycle = 0;
  std::uint64_t collect_calls_per_cycle = 0;
  for (std::size_t cycle = 0;
       cycle < 2 || ms_between(start, Clock::now()) < seconds * 1000.0;
       ++cycle) {
    const bool traced = trace && cycle % 2 == 1;
    const std::uint64_t embed_before = phase.traced.embed_calls;
    const std::uint64_t collect_before = phase.traced.collect_calls;
    std::vector<double> cycle_ms;
    double cycle_total_ms = 0.0;
    std::uint64_t cycle_observations = 0;
    if (traced) set_trace_sink(&phase.traced);
    for (std::size_t d = 0; d < count; ++d) {
      CampaignRun r = run(d, traced);
      if (perturb == Perturb::kRepeatCounter && cycle == 1 && d == 0) {
        ++r.counters.gain_evals;
      }
      if (!(r.counters == phase.reference[d])) {
        set_trace_sink(nullptr);
        return failed(std::move(phase),
                      "exact-repeat counters or digest changed between "
                      "repeats of seed " +
                          std::to_string(setup.seeds[d]));
      }
      double total = 0.0;
      for (const double ms : r.step_ms) total += ms;
      if (traced) {
        phase.traced_step_ms_total += total;
        phase.traced_steps += r.step_ms.size();
        ++phase.traced_campaigns;
        continue;
      }
      cycle_ms.insert(cycle_ms.end(), r.step_ms.begin(), r.step_ms.end());
      cycle_total_ms += total;
      cycle_observations += r.counters.observations;
      phase.step_ms_total += total;
      phase.steps += r.counters.steps;
      phase.failed_steps += r.counters.degraded_steps;
      ++phase.campaigns;
    }
    set_trace_sink(nullptr);
    if (!traced) {
      phase.cycle_step_ms_p50.push_back(quantile(cycle_ms, 0.5));
      phase.cycle_step_ms_p90.push_back(quantile(cycle_ms, 0.9));
      phase.cycle_obs_per_s.push_back(static_cast<double>(cycle_observations) /
                                      (cycle_total_ms / 1000.0));
      continue;
    }
    const std::uint64_t embed = phase.traced.embed_calls - embed_before;
    const std::uint64_t collect = phase.traced.collect_calls - collect_before;
    if (phase.traced_campaigns == count) {
      embed_calls_per_cycle = embed;
      collect_calls_per_cycle = collect;
    } else if (embed != embed_calls_per_cycle ||
               collect != collect_calls_per_cycle) {
      return failed(std::move(phase),
                    "traced embed/collect call counts changed between cycles");
    }
  }
  return phase;
}

}  // namespace perfbench
