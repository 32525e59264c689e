// Ablation bench (beyond the paper's figures): measures how much each
// design choice of ETA² contributes, on the synthetic and survey datasets:
//   * expertise awareness itself (vs a single global reliability domain),
//   * the pair-word semantic vectors (vs whole-description embeddings),
//   * the ½-approximation extra greedy pass,
//   * the expertise decay factor α (vs never forgetting, α = 1),
//   * the shrinkage prior / gauge anchor of the MLE (DESIGN.md §5).
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"

namespace {

struct Variant {
  std::string label;
  std::function<void(eta2::sim::SimOptions&)> mutate;
  bool survey_only = false;
  bool synthetic_only = false;
};

}  // namespace

int main(int argc, char** argv) {
  const eta2::bench::BenchEnv env(argc, argv);
  eta2::bench::print_banner(
      "ablation_design_choices",
      "Ablations of ETA2's design choices (not a paper figure; supports "
      "the design discussion in DESIGN.md)",
      env);

  const std::vector<Variant> variants = {
      {"full ETA2", [](eta2::sim::SimOptions&) {}},
      {"no expertise domains (global reliability)",
       [](eta2::sim::SimOptions& o) { o.collapse_domains = true; },
       /*survey_only=*/false, /*synthetic_only=*/true},
      {"whole-description embedding (no pair-word)",
       [](eta2::sim::SimOptions& o) {
         o.config.domain_identifier = "phrase-clustering";
       },
       /*survey_only=*/true},
      {"no 1/2-approx extra pass",
       [](eta2::sim::SimOptions& o) { o.config.half_approx_pass = false; }},
      {"no decay (alpha = 1)",
       [](eta2::sim::SimOptions& o) { o.config.alpha = 1.0; }},
      {"no shrinkage prior",
       [](eta2::sim::SimOptions& o) { o.config.mle.prior_strength = 0.0; }},
      {"no gauge anchor",
       [](eta2::sim::SimOptions& o) { o.config.mle.anchor_mean = 0.0; }},
  };

  struct DatasetSpec {
    const char* name;
    eta2::sim::DatasetFactory factory;
    bool is_survey;
  };
  const std::vector<DatasetSpec> datasets = {
      {"synthetic", eta2::bench::synthetic_factory(env), false},
      {"survey", eta2::bench::survey_factory(env), true},
  };

  for (const DatasetSpec& ds : datasets) {
    std::printf("--- %s dataset ---\n", ds.name);
    eta2::Table table({"variant", "estimation error", "expertise MAE"});
    for (const Variant& v : variants) {
      if (v.survey_only && !ds.is_survey) continue;
      if (v.synthetic_only && ds.is_survey) continue;
      eta2::sim::SimOptions options = eta2::bench::default_options_with_embedder();
      v.mutate(options);
      const auto sweep = eta2::sim::sweep_seeds(
          ds.factory, "eta2", options, env.seeds);
      table.add_row({v.label,
                     eta2::Table::format(sweep.overall_error.mean, 4),
                     std::isnan(sweep.expertise_mae.mean)
                         ? "-"
                         : eta2::Table::format(sweep.expertise_mae.mean, 4)});
    }
    table.print();
    std::printf("\n");
  }
  std::printf("reading: each row above 'full ETA2' that scores worse "
              "quantifies that design choice's contribution.\n");
  return 0;
}
