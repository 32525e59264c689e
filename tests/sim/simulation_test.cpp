#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/dataset.h"
#include "sim/experiment.h"

namespace eta2::sim {
namespace {

SyntheticOptions small_synthetic() {
  SyntheticOptions options;
  options.users = 40;
  options.tasks = 150;
  options.domains = 4;
  return options;
}

TEST(MethodNameTest, AllNamesDistinct) {
  EXPECT_EQ(method_name("eta2"), "ETA2");
  EXPECT_EQ(method_name("eta2-mc"), "ETA2-mc");
  EXPECT_EQ(method_name("baseline"), "Baseline");
  EXPECT_TRUE(is_eta2("eta2"));
  EXPECT_TRUE(is_eta2("eta2-mc"));
  EXPECT_FALSE(is_eta2("truthfinder"));
}

TEST(EstimationErrorTest, NormalizesByBaseNumber) {
  Dataset d = make_synthetic(small_synthetic(), 1);
  d.tasks[0].ground_truth = 10.0;
  d.tasks[0].base_number = 2.0;
  d.tasks[1].ground_truth = 4.0;
  d.tasks[1].base_number = 1.0;
  const std::vector<std::size_t> ids{0, 1};
  const std::vector<double> estimates{11.0, 4.5};
  // (|11−10|/2 + |4.5−4|/1) / 2 = 0.5
  EXPECT_DOUBLE_EQ(estimation_error(d, ids, estimates), 0.5);
}

TEST(EstimationErrorTest, SkipsNaNs) {
  const Dataset d = make_synthetic(small_synthetic(), 1);
  const std::vector<std::size_t> ids{0, 1};
  const std::vector<double> estimates{d.tasks[0].ground_truth,
                                      std::nan("")};
  std::size_t skipped = 0;
  EXPECT_DOUBLE_EQ(estimation_error(d, ids, estimates, &skipped), 0.0);
  EXPECT_EQ(skipped, 1u);
}

TEST(SimulateTest, Eta2RunsAllDaysAndImproves) {
  const Dataset d = make_synthetic(small_synthetic(), 5);
  const SimOptions options;
  const SimulationResult r = simulate(d, "eta2", options, 5);
  ASSERT_EQ(r.days.size(), 5u);
  EXPECT_TRUE(r.days.front().day == 0);
  // Later days must be better than the random warm-up day on average.
  const double late =
      (r.days[3].estimation_error + r.days[4].estimation_error) / 2.0;
  EXPECT_LT(late, r.days[0].estimation_error);
  EXPECT_FALSE(std::isnan(r.expertise_mae));
  EXPECT_GT(r.total_cost, 0.0);
}

TEST(SimulateTest, ShardObservabilitySurfacesOnResultHealth) {
  // The aggregated health ledger must carry the step's domain count, the
  // truth updaters' iterations, and the max-quality greedy's work counters.
  const Dataset d = make_synthetic(small_synthetic(), 5);
  const SimOptions options;
  const SimulationResult r = simulate(d, "eta2", options, 5);
  EXPECT_GT(r.health.domain_count, 0u);
  EXPECT_GT(r.health.truth_iterations, 0u);
  EXPECT_GT(r.health.greedy_selections, 0u);
  EXPECT_GT(r.health.greedy_gain_evaluations, 0u);
  EXPECT_GT(r.health.greedy_heap_pops, 0u);
  // Work counters are observability only — they never flip a run degraded.
  EXPECT_FALSE(r.health.degraded());
}

TEST(SimulateTest, Eta2BeatsMeanBaseline) {
  const Dataset d = make_synthetic(small_synthetic(), 7);
  const SimOptions options;
  const auto eta2 = simulate(d, "eta2", options, 7);
  const auto baseline = simulate(d, "baseline", options, 7);
  EXPECT_LT(eta2.overall_error, baseline.overall_error);
}

TEST(SimulateTest, DeterministicPerSeed) {
  const Dataset d = make_synthetic(small_synthetic(), 9);
  const SimOptions options;
  const auto a = simulate(d, "eta2", options, 42);
  const auto b = simulate(d, "eta2", options, 42);
  EXPECT_DOUBLE_EQ(a.overall_error, b.overall_error);
  EXPECT_DOUBLE_EQ(a.total_cost, b.total_cost);
  const auto c = simulate(d, "eta2", options, 43);
  EXPECT_NE(a.overall_error, c.overall_error);
}

TEST(SimulateTest, BaselineMethodsProduceFiniteErrors) {
  const Dataset d = make_synthetic(small_synthetic(), 11);
  const SimOptions options;
  for (const std::string_view m : {"hubs", "avglog",
                         "truthfinder", "baseline"}) {
    const auto r = simulate(d, m, options, 11);
    EXPECT_FALSE(std::isnan(r.overall_error)) << method_name(m);
    ASSERT_EQ(r.days.size(), 5u) << method_name(m);
    // Baselines do not report expertise estimates.
    EXPECT_TRUE(std::isnan(r.expertise_mae)) << method_name(m);
  }
}

TEST(SimulateTest, MinCostSpendsLessThanMaxQuality) {
  SyntheticOptions options = small_synthetic();
  options.users = 60;  // enough capacity that max-quality over-allocates
  const Dataset d = make_synthetic(options, 13);
  SimOptions sim_options;
  sim_options.config.epsilon_bar = 0.8;
  const auto mq = simulate(d, "eta2", sim_options, 13);
  const auto mc = simulate(d, "eta2-mc", sim_options, 13);
  EXPECT_LT(mc.total_cost, mq.total_cost);
  // Quality requirement still met on average.
  EXPECT_LT(mc.overall_error, sim_options.config.epsilon_bar);
}

TEST(SimulateTest, TruthIterationLogPopulated) {
  const Dataset d = make_synthetic(small_synthetic(), 15);
  const SimOptions options;
  const auto r = simulate(d, "eta2", options, 15);
  EXPECT_EQ(r.truth_iteration_log.size(), 5u);
  for (const int iters : r.truth_iteration_log) {
    EXPECT_GE(iters, 1);
  }
}

TEST(SimulateTest, AssignmentStatsShapes) {
  const Dataset d = make_synthetic(small_synthetic(), 17);
  const SimOptions options;
  const auto r = simulate(d, "eta2", options, 17);
  for (const DayMetrics& day : r.days) {
    EXPECT_EQ(day.users_per_task.size(), day.task_count);
    EXPECT_EQ(day.mean_assigned_expertise.size(), day.task_count);
    std::size_t pair_sum = 0;
    for (const std::size_t u : day.users_per_task) pair_sum += u;
    EXPECT_EQ(pair_sum, day.pair_count);
  }
}

TEST(SimulateTest, SurveyDatasetRequiresEmbedder) {
  const Dataset d = make_survey_like(SurveyOptions{}, 1);
  const SimOptions no_embedder;
  EXPECT_THROW(simulate(d, "eta2", no_embedder, 1),
               std::invalid_argument);
}

TEST(SimulateTest, SurveyDatasetRunsWithEmbedder) {
  SurveyOptions survey;
  survey.tasks = 60;
  const Dataset d = make_survey_like(survey, 3);
  SimOptions options;
  options.embedder = std::make_shared<text::HashEmbedder>(16);
  const auto r = simulate(d, "eta2", options, 3);
  EXPECT_FALSE(std::isnan(r.overall_error));
  // Expertise MAE is only defined for pre-known-domain datasets.
  EXPECT_TRUE(std::isnan(r.expertise_mae));
}

TEST(SimulateTest, SurvivesLowResponseRates) {
  const Dataset d = make_synthetic(small_synthetic(), 19);
  SimOptions options;
  options.fault.response_rate = 0.4;
  for (const std::string_view m : {"eta2", "eta2-mc",
                         "truthfinder", "baseline"}) {
    const auto r = simulate(d, m, options, 19);
    EXPECT_FALSE(std::isnan(r.overall_error)) << method_name(m);
  }
}

TEST(SimulateTest, DropoutWorsensErrorMonotonically) {
  const Dataset d = make_synthetic(small_synthetic(), 23);
  SimOptions full;
  SimOptions half;
  half.fault.response_rate = 0.5;
  const auto with_full = simulate(d, "eta2", full, 23);
  const auto with_half = simulate(d, "eta2", half, 23);
  EXPECT_GT(with_half.overall_error, with_full.overall_error * 0.9);
}

TEST(SweepSeedsTest, AggregatesAcrossSeeds) {
  const SimOptions options;
  const SweepResult sweep = sweep_seeds(
      [](std::uint64_t seed) {
        SyntheticOptions o;
        o.users = 30;
        o.tasks = 80;
        o.domains = 3;
        return make_synthetic(o, seed);
      },
      "eta2", options, /*seeds=*/3);
  EXPECT_EQ(sweep.runs.size(), 3u);
  EXPECT_EQ(sweep.overall_error.n, 3u);
  EXPECT_GT(sweep.overall_error.mean, 0.0);
  EXPECT_GT(sweep.overall_error.stderr_, 0.0);
  EXPECT_EQ(sweep.per_day_error.size(), 5u);
  EXPECT_FALSE(sweep.truth_iteration_log.empty());
}

TEST(SweepSeedsTest, RejectsBadArguments) {
  const SimOptions options;
  EXPECT_THROW(sweep_seeds(nullptr, "eta2", options, 3),
               std::invalid_argument);
  EXPECT_THROW(sweep_seeds([](std::uint64_t) { return Dataset{}; },
                           "eta2", options, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace eta2::sim
