// Module-3 backends behind the AllocationStrategy interface: the paper's
// warm-up random allocation, max-quality (Algorithm 1 + ½-approx pass),
// min-cost (Algorithm 2), and the comparison approaches' baseline
// allocators. Registered in core/strategy_registry.cpp.
#ifndef ETA2_CORE_ALLOCATION_STRATEGIES_H
#define ETA2_CORE_ALLOCATION_STRATEGIES_H

#include "alloc/baseline_allocators.h"
#include "alloc/max_quality.h"
#include "alloc/min_cost.h"
#include "core/stages.h"

namespace eta2::core {

// Warm-up / Baseline: uniform random user-task pairs until capacity binds
// (optional per-task cap via Eta2Config::max_users_per_task).
class RandomStrategy final : public AllocationStrategy {
 public:
  explicit RandomStrategy(const Eta2Config& config);
  [[nodiscard]] std::string_view name() const override { return "random"; }
  void allocate(StepContext& ctx) override;

 private:
  alloc::RandomAllocator allocator_;
};

// Paper §5.1: greedy efficiency maximization with the ½-approximation
// extra pass.
class MaxQualityStrategy final : public AllocationStrategy {
 public:
  explicit MaxQualityStrategy(const Eta2Config& config);
  [[nodiscard]] std::string_view name() const override { return "max-quality"; }
  void allocate(StepContext& ctx) override;

 private:
  alloc::MaxQualityAllocator allocator_;
};

// Paper §5.2 (Algorithm 2): iterative c°-budgeted recruiting with the
// per-task confidence-interval quality check. Collects observations
// incrementally while allocating.
class MinCostStrategy final : public AllocationStrategy {
 public:
  explicit MinCostStrategy(const Eta2Config& config);
  [[nodiscard]] std::string_view name() const override { return "min-cost"; }
  [[nodiscard]] bool collects_observations() const override { return true; }
  void allocate(StepContext& ctx) override;

 private:
  alloc::MinCostAllocator allocator_;
};

// The reliability-based baselines' strategy: repeated coverage rounds,
// shortest task first, most reliable available user first. Reads
// StepContext::user_reliability (uniform when empty).
class ReliabilityGreedyStrategy final : public AllocationStrategy {
 public:
  explicit ReliabilityGreedyStrategy(const Eta2Config& config);
  [[nodiscard]] std::string_view name() const override {
    return "reliability-greedy";
  }
  void allocate(StepContext& ctx) override;

 private:
  alloc::ReliabilityGreedyAllocator allocator_;
};

}  // namespace eta2::core

#endif  // ETA2_CORE_ALLOCATION_STRATEGIES_H
