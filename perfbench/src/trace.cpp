#include "trace.h"

#include <atomic>
#include <string>
#include <string_view>
#include <utility>

#include "core/stages.h"
#include "core/strategy_registry.h"

namespace perfbench {
namespace {

using eta2::core::AllocationStrategy;
using eta2::core::DomainIdentifier;
using eta2::core::Eta2Config;
using eta2::core::StepContext;
using eta2::core::TruthUpdater;

constexpr std::string_view kSteady = "traced:";
constexpr std::string_view kWarmup = "traced-warmup:";

std::atomic<StageTotals*> g_sink{nullptr};

StageTotals* sink() { return g_sink.load(std::memory_order_acquire); }

class TracedIdentifier final : public DomainIdentifier {
 public:
  explicit TracedIdentifier(std::unique_ptr<DomainIdentifier> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] bool handles(const eta2::core::NewTask& task) const override {
    return inner_->handles(task);
  }
  void identify(StepContext& ctx) override {
    StageTotals* s = sink();
    if (s == nullptr) return inner_->identify(ctx);
    const Clock::time_point start = Clock::now();
    s->step_starts.push_back(start);
    inner_->identify(ctx);
    s->identify_ms += ms_between(start, Clock::now());
  }
  void save(std::ostream& out) const override { inner_->save(out); }
  void load(std::istream& in) override { inner_->load(in); }

 private:
  std::unique_ptr<DomainIdentifier> inner_;
};

class TracedAllocator final : public AllocationStrategy {
 public:
  TracedAllocator(std::unique_ptr<AllocationStrategy> inner, bool warmup)
      : inner_(std::move(inner)), warmup_(warmup) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] bool collects_observations() const override {
    return inner_->collects_observations();
  }
  void allocate(StepContext& ctx) override {
    StageTotals* s = sink();
    if (s == nullptr) return inner_->allocate(ctx);
    const Clock::time_point start = Clock::now();
    inner_->allocate(ctx);
    const Clock::time_point stop = Clock::now();
    (warmup_ ? s->warmup_alloc_ms : s->alloc_ms) += ms_between(start, stop);
    s->alloc_exit = stop;
  }

 private:
  std::unique_ptr<AllocationStrategy> inner_;
  bool warmup_;
};

class TracedTruth final : public TruthUpdater {
 public:
  TracedTruth(std::unique_ptr<TruthUpdater> inner, bool warmup)
      : inner_(std::move(inner)), warmup_(warmup) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void update(StepContext& ctx) override {
    StageTotals* s = sink();
    if (s == nullptr) return inner_->update(ctx);
    const Clock::time_point start = Clock::now();
    if (s->alloc_exit) {
      s->collect_ms += ms_between(*s->alloc_exit, start);
      s->alloc_exit.reset();
    }
    inner_->update(ctx);
    (warmup_ ? s->warmup_truth_ms : s->truth_ms) +=
        ms_between(start, Clock::now());
  }

 private:
  std::unique_ptr<TruthUpdater> inner_;
  bool warmup_;
};

class TracedEmbedder final : public eta2::text::Embedder {
 public:
  explicit TracedEmbedder(std::shared_ptr<const eta2::text::Embedder> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::size_t dimension() const override {
    return inner_->dimension();
  }
  [[nodiscard]] eta2::text::Embedding embed_word(
      std::string_view word) const override {
    StageTotals* s = sink();
    if (s == nullptr) return inner_->embed_word(word);
    const Clock::time_point start = Clock::now();
    eta2::text::Embedding out = inner_->embed_word(word);
    s->embed_ms += ms_between(start, Clock::now());
    ++s->embed_calls;
    return out;
  }

 private:
  std::shared_ptr<const eta2::text::Embedder> inner_;
};

// Adds `prefix + name` for every untraced entry of `registry`; `wrap`
// builds the wrapper around the inner stage made under `name`.
template <typename Registry, typename Wrap>
void add_wrappers(Registry& registry, std::string_view prefix, Wrap wrap) {
  for (const std::string& name : registry.names()) {
    if (name.rfind(kSteady, 0) == 0 || name.rfind(kWarmup, 0) == 0) continue;
    const std::string traced = std::string(prefix) + name;
    if (registry.contains(traced)) continue;
    registry.add(traced, [&registry, name, wrap](const Eta2Config& config) {
      return wrap(registry.make(name, config));
    });
  }
}

}  // namespace

void set_trace_sink(StageTotals* s) {
  g_sink.store(s, std::memory_order_release);
}

void register_traced_stages() {
  add_wrappers(eta2::core::domain_identifiers(), kSteady,
               [](std::unique_ptr<DomainIdentifier> inner)
                   -> std::unique_ptr<DomainIdentifier> {
                 return std::make_unique<TracedIdentifier>(std::move(inner));
               });
  for (const bool warmup : {false, true}) {
    const std::string_view prefix = warmup ? kWarmup : kSteady;
    add_wrappers(eta2::core::allocation_strategies(), prefix,
                 [warmup](std::unique_ptr<AllocationStrategy> inner)
                     -> std::unique_ptr<AllocationStrategy> {
                   return std::make_unique<TracedAllocator>(std::move(inner),
                                                            warmup);
                 });
    add_wrappers(eta2::core::truth_updaters(), prefix,
                 [warmup](std::unique_ptr<TruthUpdater> inner)
                     -> std::unique_ptr<TruthUpdater> {
                   return std::make_unique<TracedTruth>(std::move(inner),
                                                        warmup);
                 });
  }
}

Eta2Config traced_config(Eta2Config config) {
  const std::string steady(kSteady);
  const std::string warmup(kWarmup);
  config.domain_identifier = steady + config.resolved_domain_identifier();
  config.allocator = steady + config.resolved_allocator();
  config.warmup_allocator = warmup + config.resolved_warmup_allocator();
  config.truth_updater = steady + config.resolved_truth_updater();
  config.warmup_truth_updater = warmup + config.resolved_warmup_truth_updater();
  return config;
}

std::shared_ptr<const eta2::text::Embedder> traced_embedder(
    std::shared_ptr<const eta2::text::Embedder> inner) {
  if (inner == nullptr) return nullptr;
  return std::make_shared<TracedEmbedder>(std::move(inner));
}

eta2::core::CollectFn traced_collect(eta2::core::CollectFn inner) {
  return [inner = std::move(inner)](std::size_t local_task,
                                    std::size_t user) -> std::optional<double> {
    if (StageTotals* s = sink()) ++s->collect_calls;
    return inner(local_task, user);
  };
}

}  // namespace perfbench
