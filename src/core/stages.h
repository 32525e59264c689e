// The three pluggable stage interfaces of the per-step pipeline (Fig. 1):
// domain identification, task allocation, truth analysis. Eta2Server is a
// thin composer over one instance of each, constructed by name through
// core/strategy_registry.h; a new backend is one implementation file plus a
// registry entry.
#ifndef ETA2_CORE_STAGES_H
#define ETA2_CORE_STAGES_H

#include <iosfwd>
#include <string_view>

#include "core/step_context.h"

namespace eta2::core {

// Module 1: resolves the dense expertise-domain index of incoming tasks.
// Identifiers are stateful (clustering history, label maps) and persist
// with the server; each implementation claims a subset of the batch via
// handles() and fills ctx.task_domains at exactly the claimed positions,
// creating/merging store domains as needed.
class DomainIdentifier {
 public:
  virtual ~DomainIdentifier() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  // True when this identifier resolves `task`'s domain.
  [[nodiscard]] virtual bool handles(const NewTask& task) const = 0;
  // Resolves every claimed task in ctx.tasks (requires ctx.store; the
  // clustering identifiers also require ctx.embedder).
  virtual void identify(StepContext& ctx) = 0;
  // Module-1 state persistence (slices of the server's v1 wire format).
  virtual void save(std::ostream& out) const = 0;
  virtual void load(std::istream& in) = 0;
};

// Module 3: fills ctx.allocation for ctx.problem. Strategies that collect
// observations themselves while allocating (min-cost's incremental
// Algorithm 2 loop) also fill ctx.observations / ctx.data_iterations and
// return true from collects_observations(), which makes the composer skip
// the shared collection pass.
//
// Shard contract (DESIGN.md §12): when ctx.sharded.active(), a strategy MAY
// run shard-parallel against ctx.sharded.plan() — one dispatch per shard
// with fixed boundaries, merging in domain-index order so the result is
// identical at any thread count (bit-identical under ShardingTier::kExact).
// Inside a shard-dispatched body, only shard-local state and the stage's
// explicitly shared, disjointly indexed buffers may be written; mutating
// other StepContext members from a shard body is a contract violation
// (flagged by eta2_lint rule 9, shard-shared-mutation). Strategies without
// a sharded implementation — today all of them — simply ignore the view.
class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual bool collects_observations() const { return false; }
  virtual void allocate(StepContext& ctx) = 0;
};

// Module 2: turns ctx.observations into ctx.truth / ctx.sigma /
// ctx.mle_iterations and commits the step's expertise contributions into
// ctx.store.
//
// Shard contract: same as AllocationStrategy — when ctx.sharded.active(),
// updaters may fan Eq. 5/6 sweeps out per shard (truth::sharded_estimate /
// sharded_dynamic_update) and must fold results back serially in
// domain-index order; ctx.store commits stay on the serial merge path.
class TruthUpdater {
 public:
  virtual ~TruthUpdater() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void update(StepContext& ctx) = 0;
};

}  // namespace eta2::core

#endif  // ETA2_CORE_STAGES_H
