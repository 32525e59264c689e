// The one campaign driver (sim/campaign_driver.h) behind simulate() and
// simulate_durable(): a fresh durable campaign must reproduce the in-memory
// run's WHOLE SimulationResult — every DayMetrics field, every health
// counter, every fault and adversary tally — across the option space the
// shared per-day adapter branches on (descriptions + embedder outages,
// batch loss, min-cost dropout, collapsed domains, attacks under a trust
// tier). The baseline loop has no durable twin, so its full transcript is
// pinned by digest instead.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "io/snapshot.h"
#include "sim/dataset.h"
#include "sim/durable_sim.h"
#include "sim/simulation.h"
#include "text/embedder.h"

namespace eta2::sim {
namespace {

// Every observable of a run, doubles as exact hexfloats. The durable-only
// recovery fields are included too: a fresh campaign must report them as
// the in-memory driver does (false / 0).
std::string transcript(const SimulationResult& run) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "overall " << run.overall_error << " cost " << run.total_cost
      << " mae " << run.expertise_mae << "\n";
  for (std::size_t d = 0; d < run.days.size(); ++d) {
    const DayMetrics& m = run.days[d];
    out << "day " << m.day << " " << m.task_count << " " << m.pair_count
        << " " << m.estimation_error << " " << m.cost << " "
        << m.truth_iterations << " " << m.data_iterations << "\nupt";
    for (const std::size_t v : m.users_per_task) out << " " << v;
    out << "\nmae";
    for (const double v : m.mean_assigned_expertise) out << " " << v;
    out << "\n";
  }
  out << "iters";
  for (const int v : run.truth_iteration_log) out << " " << v;
  out << "\nhealth ";
  write_step_health(out, run.health);
  out << "\n";
  for (const core::StepHealth& h : run.day_health) {
    out << "dh ";
    write_step_health(out, h);
    out << "\n";
  }
  const fault::FaultStats& f = run.fault_stats;
  out << "fault " << f.observations_seen << " " << f.nan_injected << " "
      << f.inf_injected << " " << f.outliers_injected << " " << f.fabricated
      << " " << f.no_responses << " " << f.dropouts << " "
      << f.batches_dropped << " " << f.embedder_failures << "\n";
  const fault::AdversaryStats& a = run.adversary_stats;
  out << "adversary " << a.observations_seen << " " << a.clique_reports << " "
      << a.camouflage_honest << " " << a.camouflage_poisoned << " "
      << a.drift_reports << " " << a.burst_reports << " " << a.burst_steps
      << "\n";
  out << "recovery " << run.resumed << " " << run.replayed_steps << " "
      << run.quarantined_steps << " " << run.stopped_early << "\n";
  return out.str();
}

// FNV-1a: pins a transcript without embedding it.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

Dataset small_synthetic(std::uint64_t seed) {
  SyntheticOptions synthetic;
  synthetic.users = 20;
  synthetic.tasks = 90;
  synthetic.domains = 4;
  synthetic.days = 6;
  return make_synthetic(synthetic, seed);
}

class CampaignDriverFenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("eta2_campaign_driver_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    io::set_durable_fsync(false);
  }
  void TearDown() override {
    io::set_durable_fsync(true);
    std::filesystem::remove_all(dir_);
  }

  // simulate() and a fresh simulate_durable() on the same arguments; returns
  // the in-memory run so a case can check it exercised what it claims.
  [[nodiscard]] SimulationResult expect_same_campaign(
      const Dataset& dataset, std::string_view method,
      const SimOptions& options) const {
    core::DurableOptions durable;
    durable.dir = dir_;
    durable.snapshot_cadence = 2;
    SimulationResult plain = simulate(dataset, method, options, 4);
    EXPECT_EQ(transcript(plain),
              transcript(simulate_durable(dataset, method, options, 4,
                                          durable)));
    return plain;
  }

  std::string dir_;
};

TEST_F(CampaignDriverFenceTest, DescribedTasksWithEmbedderOutagesAndBatchLoss) {
  SurveyOptions survey;
  survey.users = 16;
  survey.tasks = 48;
  survey.days = 8;
  const Dataset dataset = make_survey_like(survey, 23);
  SimOptions options;
  options.embedder = std::make_shared<text::HashEmbedder>(16);
  options.fault.seed = 13;
  options.fault.embedder_failure_rate = 0.3;
  options.fault.empty_batch_rate = 0.2;
  const SimulationResult run = expect_same_campaign(dataset, "eta2", options);
  EXPECT_GT(run.fault_stats.embedder_failures, 0u);
  EXPECT_GT(run.fault_stats.batches_dropped, 0u);
}

TEST_F(CampaignDriverFenceTest, MinCostWithDropout) {
  SimOptions options;
  options.fault.seed = 7;
  options.fault.dropout_rate = 0.25;
  const SimulationResult run =
      expect_same_campaign(small_synthetic(17), "eta2-mc", options);
  EXPECT_GT(run.fault_stats.dropouts, 0u);
  EXPECT_GT(run.health.silent_pairs, 0u);
}

TEST_F(CampaignDriverFenceTest, CollapsedDomains) {
  SimOptions options;
  options.collapse_domains = true;
  const SimulationResult run =
      expect_same_campaign(small_synthetic(19), "eta2", options);
  EXPECT_EQ(run.health.domain_count, 1u);  // one domain seen by the server
}

TEST_F(CampaignDriverFenceTest, AttacksWithNanFaultsUnderTrimmedTier) {
  SimOptions options;
  options.config.trust.tier = truth::DefenseTier::kTrimmedV1;
  options.fault.seed = 5;
  options.fault.nan_rate = 0.05;
  options.adversary.seed = 47;
  options.adversary.sybil_fraction = 0.2;
  options.adversary.camouflage_fraction = 0.15;
  options.adversary.burst_step_rate = 0.4;
  const SimulationResult run =
      expect_same_campaign(small_synthetic(31), "eta2", options);
  EXPECT_GT(run.fault_stats.nan_injected, 0u);
  EXPECT_GT(run.adversary_stats.clique_reports, 0u);
  EXPECT_GT(run.adversary_stats.camouflage_poisoned, 0u);
  EXPECT_GT(run.adversary_stats.burst_reports, 0u);
  EXPECT_FALSE(run.health.trust_histogram.empty());
}

// The comparison methods' loop, faults and attacks on: transcripts
// captured before the three campaign loops were folded into one adapter.
SimOptions hostile_options() {
  SimOptions options;
  options.fault.seed = 20;
  options.fault.nan_rate = 0.05;
  options.fault.dropout_rate = 0.2;
  options.fault.empty_batch_rate = 0.2;
  options.fault.fabricator_fraction = 0.1;
  options.adversary.seed = 4;
  options.adversary.sybil_fraction = 0.15;
  options.adversary.camouflage_fraction = 0.1;
  options.adversary.burst_step_rate = 0.3;
  options.baseline_max_users_per_task = 8;
  return options;
}

TEST(CampaignDriverBaselineTest, BaselineTranscriptPinned) {
  const std::string run =
      transcript(simulate(small_synthetic(41), "baseline", hostile_options(), 9));
  EXPECT_EQ(fnv1a(run), 0xc2d8bf638a73d21eULL) << run;
}

TEST(CampaignDriverBaselineTest, HubsTranscriptPinned) {
  const std::string run =
      transcript(simulate(small_synthetic(41), "hubs", hostile_options(), 9));
  EXPECT_EQ(fnv1a(run), 0x70c133611192b956ULL) << run;
}

}  // namespace
}  // namespace eta2::sim
