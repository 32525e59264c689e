#include "core/eta2_server.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.h"
#include "core/strategy_registry.h"
#include "core/truth_updaters.h"

namespace eta2::core {

Eta2Server::Eta2Server(std::size_t user_count, Eta2Config config,
                       std::shared_ptr<const text::Embedder> embedder)
    : config_(std::move(config)),
      embedder_(std::move(embedder)),
      mle_(config_.mle),
      store_(user_count, config_.mle) {
  require(user_count >= 1, "Eta2Server: need at least one user");
  require(config_.gamma >= 0.0 && config_.gamma <= 1.0,
          "Eta2Server: gamma in [0,1]");
  require(config_.alpha >= 0.0 && config_.alpha <= 1.0,
          "Eta2Server: alpha in [0,1]");
  require(config_.epsilon > 0.0, "Eta2Server: epsilon > 0");
  described_ =
      make_domain_identifier(config_.resolved_domain_identifier(), config_);
  warmup_allocator_ =
      make_allocation_strategy(config_.resolved_warmup_allocator(), config_);
  allocator_ = make_allocation_strategy(config_.resolved_allocator(), config_);
  warmup_truth_ =
      make_truth_updater(config_.resolved_warmup_truth_updater(), config_);
  truth_updater_ = make_truth_updater(config_.resolved_truth_updater(), config_);
  if (config_.trust.active()) trust_.emplace(user_count, config_.trust);
}

std::vector<std::size_t> Eta2Server::top_experts(truth::DomainIndex domain,
                                                 std::size_t k) const {
  return store_.top_experts(domain, k);
}

void Eta2Server::save(std::ostream& out) const {
  out << "eta2-server v1\n";
  out << (warmed_up_ ? 1 : 0) << '\n';
  store_.save(out);
  // Identifier slices in the v1 order: clustering state, then label map.
  described_->save(out);
  known_label_.save(out);
  // Optional trailer: the catch-all domain, only present once an identifier
  // failure created it — a clean server's snapshot stays byte-identical v1.
  if (unknown_domain_) out << "unknown-domain " << *unknown_domain_ << '\n';
  // Optional trailer: the trust ledger, only present when defenses are on —
  // a kOff server's snapshot stays byte-identical v1.
  if (trust_) trust_->save(out);
}

Eta2Server Eta2Server::load(std::istream& in, Eta2Config config,
                            std::shared_ptr<const text::Embedder> embedder) {
  std::string tag;
  std::string version;
  require(static_cast<bool>(in >> tag >> version) && tag == "eta2-server" &&
              version == "v1",
          "Eta2Server::load: bad header");
  int warmed = 0;
  require(static_cast<bool>(in >> warmed), "Eta2Server::load: bad flags");

  truth::ExpertiseStore store = truth::ExpertiseStore::load(in, config.mle);
  require(store.user_count() >= 1, "Eta2Server::load: empty store");
  Eta2Server server(store.user_count(), std::move(config),
                    std::move(embedder));
  server.warmed_up_ = warmed != 0;
  server.store_ = std::move(store);
  server.described_->load(in);
  server.known_label_.load(in);
  // Optional trailers, each at most once, in write order. A blob saved by
  // an older (or defense-free) build simply has fewer of them; loading it
  // with defenses on starts a fresh ledger.
  std::string trailer;
  while (in >> trailer) {
    if (trailer == "unknown-domain") {
      std::size_t idx = 0;
      require(static_cast<bool>(in >> idx) &&
                  idx < server.store_.domain_count(),
              "Eta2Server::load: bad unknown-domain index");
      server.unknown_domain_ = idx;
    } else if (trailer == "trust-ledger") {
      require(server.trust_.has_value(),
              "Eta2Server::load: trust-ledger trailer without defenses on");
      std::string ledger_version;
      require(static_cast<bool>(in >> ledger_version) &&
                  ledger_version == "v1",
              "Eta2Server::load: bad trust-ledger version");
      truth::TrustLedger ledger =
          truth::TrustLedger::load_body(in, server.config_.trust);
      require(ledger.user_count() == server.store_.user_count(),
              "Eta2Server::load: trust-ledger user count mismatch");
      server.trust_ = std::move(ledger);
    } else {
      require(false, "Eta2Server::load: unexpected trailer");
    }
  }
  return server;
}

Eta2Server::StepResult Eta2Server::step(std::span<const NewTask> tasks,
                                        std::span<const double> user_capacity,
                                        const CollectFn& collect, Rng& rng) {
  const std::size_t n = user_count();
  const std::size_t m = tasks.size();
  require(user_capacity.size() == n, "Eta2Server::step: capacity size != n");
  require(collect != nullptr, "Eta2Server::step: collect callback required");

  StepResult result;
  result.allocation = alloc::Allocation(n, m);
  if (m == 0) {
    result.health.empty_batch = true;
    return result;
  }

  // Cooperative cancellation (DESIGN.md §13): the watchdog runs at module
  // boundaries and every 256 observation collections. It either returns or
  // throws CancelledError; it never mutates state, so a step that is not
  // cancelled is bit-identical with or without a watchdog installed.
  const auto cancellation_point = [this] {
    if (config_.step_watchdog) config_.step_watchdog();
  };
  cancellation_point();

  StepContext ctx;
  ctx.config = &config_;
  ctx.store = &store_;
  ctx.mle = &mle_;
  ctx.embedder = embedder_.get();
  ctx.rng = &rng;
  ctx.tasks = tasks;
  // Quarantine pass: every observation — whether collected by the shared
  // loop below or incrementally by a collecting strategy (min-cost) — flows
  // through the sanitizer, so NaN/Inf and gross outliers never reach the
  // MLE. Clean values pass through bit-identical.
  const CollectFn sanitized = sanitizing_collect(
      collect, config_.observation_abs_limit, ctx.health);
  std::size_t collect_calls = 0;
  const CollectFn safe =
      [&sanitized, &collect_calls, &cancellation_point](
          std::size_t local_task, std::size_t user) -> std::optional<double> {
    if (++collect_calls % 256 == 0) cancellation_point();
    return sanitized(local_task, user);
  };
  ctx.collect = &safe;

  // --- Module 1: identify task expertise domains. Labels resolve first in
  // batch-scan order, then the described tasks cluster — the same dense
  // numbering the original single-pass scan produced. A failing identifier
  // (embedder outage, clustering error) degrades to the catch-all unknown
  // domain instead of aborting the step. ---
  ctx.task_domains.assign(m, 0);
  known_label_.identify(ctx);
  try {
    described_->identify(ctx);
  } catch (const std::runtime_error&) {
    ctx.health.identifier_failed = true;
    if (!unknown_domain_) unknown_domain_ = store_.add_domain();
    for (std::size_t j = 0; j < m; ++j) {
      if (!described_->handles(tasks[j])) continue;
      ctx.task_domains[j] = *unknown_domain_;
      ++ctx.health.domain_fallback_tasks;
    }
  }
  ctx.domain_count = store_.domain_count();
  cancellation_point();

  ctx.health.domain_count = std::max<std::size_t>(ctx.domain_count, 1);

  // --- Contiguous allocation plane shared by all strategies. ---
  alloc::AllocationProblem& problem = ctx.problem;
  problem.task_time.reserve(m);
  problem.task_cost.reserve(m);
  for (const NewTask& t : tasks) {
    require(t.processing_time > 0.0, "Eta2Server::step: processing_time > 0");
    problem.task_time.push_back(t.processing_time);
    problem.task_cost.push_back(t.cost);
  }
  problem.user_capacity.assign(user_capacity.begin(), user_capacity.end());
  // The user × domain snapshot, one column per domain; each task reads its
  // domain's column (AllocationProblem::task_column).
  problem.expertise = store_.snapshot();
  problem.task_column = ctx.task_domains;
  // Trust-discounted allocation (DESIGN.md §14): low-trust and quarantined
  // identities see their expertise rows scaled down before any strategy
  // runs, so attackers cannot capture budget while under suspicion.
  if (trust_) trust_->discount_expertise(problem.expertise);

  // --- Modules 3 + 2 through the configured stage pair. ---
  result.warmup = !warmed_up_;
  AllocationStrategy& allocate =
      warmed_up_ ? *allocator_ : *warmup_allocator_;
  TruthUpdater& update = warmed_up_ ? *truth_updater_ : *warmup_truth_;

  allocate.allocate(ctx);
  cancellation_point();
  if (!allocate.collects_observations()) {
    ctx.observations = truth::ObservationSet(n, m);
    collect_observations(ctx.allocation, safe, ctx.observations);
  }
  cancellation_point();
  if (trust_) {
    defended_update(update, ctx);
  } else {
    update_with_fallback(update, ctx);
  }
  warmed_up_ = true;

  result.task_domains = std::move(ctx.task_domains);
  result.allocation = std::move(ctx.allocation);
  result.truth = std::move(ctx.truth);
  result.sigma = std::move(ctx.sigma);
  result.mle_iterations = ctx.mle_iterations;
  result.data_iterations = ctx.data_iterations;
  result.cost = result.allocation.total_cost();
  result.health = ctx.health;
  return result;
}

void Eta2Server::defended_update(TruthUpdater& update, StepContext& ctx) {
  // kTrimmedV1 pre-estimation filter: quarantined users' reports dropped,
  // largest residuals trimmed per task. The raw set is kept aside — the
  // post-commit scoring pass runs on it, so filtered users keep being
  // scored (that is what re-earns admission or confirms the verdict).
  const truth::ObservationSet raw = ctx.observations;
  truth::TrustFilterResult filtered = trust_->filter(
      raw, ctx.task_domains, store_.snapshot(), mle_);
  ctx.health.dropped_quarantined = filtered.dropped_quarantined;
  ctx.health.trimmed_observations = filtered.trimmed_observations;
  ctx.observations = std::move(filtered.data);

  if (!warmed_up_) {
    // Warm-up bootstraps from the filtered data through the normal joint
    // MLE (the ledger has no evidence yet — everyone's trust is 1).
    update_with_fallback(update, ctx);
  } else {
    // Steady state: the trusted dynamic update (influence caps + trust
    // weights) replaces the configured updater. Falls back exactly
    // like update_with_fallback on numerical failure.
    try {
      const truth::DynamicUpdateResult result = trust_->trusted_dynamic_update(
          store_, ctx.observations, ctx.task_domains, config_.alpha, mle_);
      ctx.truth = result.mu;
      ctx.sigma = result.sigma;
      ctx.mle_iterations = result.iterations;
    } catch (const NumericalError&) {
      truth_fallback(ctx);
    }
  }

  // Post-commit scoring on the raw observations against the committed
  // truth: residual EWMAs, agreement graph, quarantines, re-admissions.
  const truth::TrustStepReport report = trust_->end_step(
      raw, ctx.task_domains, ctx.truth, ctx.sigma, store_);
  ctx.health.suspected_users = report.suspected_users;
  ctx.health.quarantined_users = report.quarantined_users;
  ctx.health.readmitted_users = report.readmitted_users;
  ctx.health.flagged_cliques = report.flagged_cliques;
  ctx.health.trust_histogram.assign(report.trust_histogram.begin(),
                                    report.trust_histogram.end());
}

}  // namespace eta2::core
