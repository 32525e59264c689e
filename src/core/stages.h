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
// the shared collection pass. Results must be bit-identical at any thread
// count (common/parallel.h).
class AllocationStrategy {
 public:
  virtual ~AllocationStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual bool collects_observations() const { return false; }
  virtual void allocate(StepContext& ctx) = 0;
};

// Module 2: turns ctx.observations into ctx.truth / ctx.sigma /
// ctx.mle_iterations and commits the step's expertise contributions into
// ctx.store. The Eq. 5/6 sweeps fan out per task and per user inside
// truth/; ctx.store commits stay serial.
class TruthUpdater {
 public:
  virtual ~TruthUpdater() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void update(StepContext& ctx) = 0;
};

}  // namespace eta2::core

#endif  // ETA2_CORE_STAGES_H
