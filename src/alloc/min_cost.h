// Min-cost task allocation, ETA²-mc (paper §5.2, Algorithm 2).
//
// Tasks are allocated iteratively: each iteration spends at most c° running
// the Algorithm-1 greedy (with the cost cap), collects the data from the
// newly recruited users, re-estimates the truth with the expertise-aware
// MLE over ALL data collected so far, and checks the probabilistic quality
// requirement per task through the asymptotic-normality confidence interval
// (Eq. 24): the CI of μ̂_j must be shorter than 2·ε̄·σ_j — equivalently
// z_{α/2} / sqrt(Σ_{i: s_ij=1} u_ij²) < ε̄. Iterations stop when every task
// passes or no further allocation is possible.
#ifndef ETA2_ALLOC_MIN_COST_H
#define ETA2_ALLOC_MIN_COST_H

#include <functional>
#include <optional>
#include <span>

#include "alloc/allocation.h"
#include "alloc/max_quality.h"
#include "truth/eta2_mle.h"
#include "truth/observation.h"

namespace eta2::alloc {

class MinCostAllocator {
 public:
  struct Options {
    double epsilon = 0.1;           // ε used in allocation efficiency
    double epsilon_bar = 0.5;       // quality requirement ε̄ on |μ̂−μ|/σ
    double confidence_alpha = 0.05; // 1−α confidence (95% by default)
    double cost_per_iteration = 50; // c°
    int max_data_iterations = 100;  // safety bound on Algorithm 2's loop
    bool half_approx_pass = true;   // extra greedy pass inside each iteration
  };

  // Called once per newly recruited (task, user) pair; returns the observed
  // value (in a simulation: a draw from the user's observation model) or
  // std::nullopt when the user never responds — the pair still consumed its
  // budget/capacity but contributes no data.
  using CollectFn = std::function<std::optional<double>(TaskId, UserId)>;

  struct Result {
    Allocation allocation;            // cumulative s_ij
    truth::ObservationSet observations;  // everything collected
    truth::MleResult truth;           // final joint MLE on all data
    int data_iterations = 0;
    // True when every task with observations met the quality requirement.
    bool quality_met = false;
    // Tasks still failing the requirement when the loop stopped (budget or
    // capacity exhausted). Algorithm 2 reports the shortfall instead of
    // looping forever; 0 whenever quality_met.
    std::size_t tasks_unmet = 0;

    Result(std::size_t user_count, std::size_t task_count)
        : allocation(user_count, task_count),
          observations(user_count, task_count) {}
  };

  MinCostAllocator();
  explicit MinCostAllocator(Options options);

  // `task_domain[j]` indexes into [0, domain_count); `initial_expertise`
  // (user × domain, or no rows for the flat initial value) seeds the MLE
  // with the expertise learned so far.
  [[nodiscard]] Result run(
      const AllocationProblem& problem,
      std::span<const truth::DomainIndex> task_domain, std::size_t domain_count,
      const Matrix& initial_expertise, const truth::Eta2Mle& mle,
      const CollectFn& collect) const;

 private:
  Options options_;
};

}  // namespace eta2::alloc

#endif  // ETA2_ALLOC_MIN_COST_H
