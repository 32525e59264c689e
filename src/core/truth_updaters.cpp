#include "core/truth_updaters.h"

#include "common/error.h"

namespace eta2::core {

WarmupJointMleUpdater::WarmupJointMleUpdater(const Eta2Config& config) {
  (void)config;  // everything needed arrives through the StepContext
}

void WarmupJointMleUpdater::update(StepContext& ctx) {
  require(ctx.store != nullptr && ctx.mle != nullptr && ctx.config != nullptr,
          "WarmupJointMleUpdater: store, mle and config required");
  const truth::MleResult fit = ctx.mle->estimate(
      ctx.observations, ctx.task_domains, ctx.domain_count);
  ctx.health.truth_iterations +=
      static_cast<std::size_t>(fit.iterations);
  ctx.truth = fit.mu;
  ctx.sigma = fit.sigma;
  ctx.mle_iterations = fit.iterations;
  // Seed the accumulators from the warm-up fit (alpha=1: plain add).
  const truth::Contributions contrib = truth::expertise_contributions(
      ctx.observations, ctx.task_domains, fit.mu, fit.sigma, ctx.user_count(),
      ctx.domain_count);
  ctx.store->decay_and_accumulate(1.0, contrib.num, contrib.den);
  if (ctx.config->mle.anchor_mean > 0.0) {
    ctx.store->anchor(ctx.config->mle.anchor_mean);
  }
}

DynamicTruthUpdater::DynamicTruthUpdater(const Eta2Config& config)
    : alpha_(config.alpha) {}

void DynamicTruthUpdater::update(StepContext& ctx) {
  require(ctx.store != nullptr && ctx.mle != nullptr,
          "DynamicTruthUpdater: store and mle required");
  const truth::DynamicUpdateResult result = truth::dynamic_update(
      *ctx.store, ctx.observations, ctx.task_domains, alpha_, *ctx.mle);
  ctx.health.truth_iterations +=
      static_cast<std::size_t>(result.iterations);
  ctx.truth = result.mu;
  ctx.sigma = result.sigma;
  ctx.mle_iterations = result.iterations;
}

void truth_fallback(StepContext& ctx) {
  require(ctx.store != nullptr && ctx.mle != nullptr,
          "truth_fallback: store and mle required");
  // Prior expertise only: the step's (possibly corrupt) observations weigh
  // the mean but never feed back into the accumulators.
  ctx.mle->estimate_truth_only(ctx.observations, ctx.task_domains,
                               ctx.store->snapshot(), ctx.truth, ctx.sigma);
  ctx.mle_iterations = 0;
  ctx.health.truth_fallback = true;
}

void update_with_fallback(TruthUpdater& updater, StepContext& ctx) {
  try {
    updater.update(ctx);
  } catch (const NumericalError&) {
    truth_fallback(ctx);
  }
}

}  // namespace eta2::core
