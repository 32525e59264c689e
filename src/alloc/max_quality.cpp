#include "alloc/max_quality.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "common/parallel.h"
#include "stats/normal.h"

namespace eta2::alloc {
namespace {

// Cells per parallel chunk of a Φ build (the batched kernel hoists its
// argument validation to once per chunk).
constexpr std::size_t kPhiGrain = 4096;

// Algorithm 1's working plane, built once per distinct expertise column
// (DESIGN.md §11). Expertise is per domain (Eq. 6), so every task of a
// domain carries the same n-entry column, hence the same p_ij and the same
// (p desc, index asc) candidate order. Tasks whose columns are bitwise equal
// share one class; the plane stores p_ij as n × K and the orders as K × n
// for K classes, instead of n × m and m × n.
class ClassPlane {
 public:
  ClassPlane(const AllocationProblem& problem, double epsilon)
      : n_(problem.user_count()) {
    const std::vector<TaskId> reps = classify(problem);
    k_ = reps.size();
    build_p(problem, reps, epsilon);
    build_orders();
  }

  [[nodiscard]] std::size_t class_of(TaskId j) const { return class_of_[j]; }
  [[nodiscard]] double p(UserId i, std::size_t c) const {
    return p_[i * k_ + c];
  }
  [[nodiscard]] const UserId* order(std::size_t c) const {
    return order_.data() + c * n_;
  }

 private:
  // Groups tasks by column. One row-major sweep hashes every column; a
  // second row-major sweep compares each task bitwise against the first
  // task with its hash, so the hash is never trusted — a collision can only
  // leave a task in a class of its own. Returns the class representatives
  // in ascending task order (class c's representative is reps[c]).
  std::vector<TaskId> classify(const AllocationProblem& problem) {
    const std::size_t m = problem.task_count();
    const std::span<const double> cells = problem.expertise.data();
    // Each step maps h to (h ^ bits) · odd, a bijection of h for a fixed
    // cell, so columns that differ in a single cell never collide.
    std::vector<std::uint64_t> hash(m, 0x9E3779B97F4A7C15ULL);
    for (UserId i = 0; i < n_; ++i) {
      const double* row = cells.data() + i * m;
      for (TaskId j = 0; j < m; ++j) {
        hash[j] = (hash[j] ^ std::bit_cast<std::uint64_t>(row[j])) *
                  0xBF58476D1CE4E5B9ULL;
      }
    }
    std::vector<TaskId> candidate(m);
    std::unordered_map<std::uint64_t, TaskId> first;
    first.reserve(m);
    for (TaskId j = 0; j < m; ++j) {
      candidate[j] = first.try_emplace(hash[j], j).first->second;
    }
    std::vector<char> mismatch(m, 0);
    for (UserId i = 0; i < n_; ++i) {
      const double* row = cells.data() + i * m;
      for (TaskId j = 0; j < m; ++j) {
        if (std::bit_cast<std::uint64_t>(row[j]) !=
            std::bit_cast<std::uint64_t>(row[candidate[j]])) {
          mismatch[j] = 1;
        }
      }
    }
    std::vector<TaskId> reps;
    class_of_.resize(m);
    for (TaskId j = 0; j < m; ++j) {
      if (candidate[j] == j || mismatch[j] != 0) {
        class_of_[j] = reps.size();
        reps.push_back(j);
      } else {
        class_of_[j] = class_of_[candidate[j]];
      }
    }
    return reps;
  }

  // p_ij for each class's representative column. The batched Φ kernel is
  // elementwise, so every cell is bit-identical to a per-task build.
  void build_p(const AllocationProblem& problem, std::span<const TaskId> reps,
               double epsilon) {
    const std::size_t m = problem.task_count();
    const std::span<const double> cells = problem.expertise.data();
    p_.assign(n_ * k_, 0.0);
    if (k_ == 0) return;
    const std::span<double> out{p_};
    parallel::parallel_for_chunks(
        n_, std::max<std::size_t>(1, kPhiGrain / k_),
        [&](std::size_t begin, std::size_t end) {
          std::vector<double> u;
          u.reserve((end - begin) * k_);
          for (UserId i = begin; i < end; ++i) {
            for (const TaskId rep : reps) u.push_back(cells[i * m + rep]);
          }
          const std::span<double> chunk =
              out.subspan(begin * k_, (end - begin) * k_);
          stats::accuracy_probability_batch(u, epsilon, chunk);
          for (std::size_t cell = begin * k_; cell < end * k_; ++cell) {
            // Algorithm 1's efficiency ordering assumes p_ij ∈ [0, 1].
            ETA2_ASSERT(p_[cell] >= 0.0 && p_[cell] <= 1.0);
          }
        });
  }

  void build_orders() {
    order_.resize(k_ * n_);
    parallel::parallel_for(k_, 16, [&](std::size_t c) {
      UserId* ord = order_.data() + c * n_;
      std::iota(ord, ord + n_, UserId{0});
      std::sort(ord, ord + n_, [&](UserId a, UserId b) {
        const double pa = p(a, c);
        const double pb = p(b, c);
        if (pa != pb) return pa > pb;
        return a < b;  // ties: ascending index, Algorithm 1's scan order
      });
    });
  }

  std::size_t n_;                      // user count
  std::size_t k_ = 0;                  // class count
  std::vector<std::size_t> class_of_;  // per task
  std::vector<double> p_;              // row-major n × K
  std::vector<UserId> order_;          // per class, (p desc, index asc)
};

// CELF lazy engine (DESIGN.md §11). Submodularity makes every cached
// efficiency an upper bound on the current one: a selection only multiplies
// miss_[j] by (1 − p) ≤ 1, only shrinks remaining capacity, and assignments
// are sticky — so gains never increase. A max-heap of stale per-task bounds
// therefore finds the true argmax by popping until the top entry's bound was
// refreshed under the current state.
//
// Within one task every feasible user's efficiency is p_ij times the same
// positive factor miss_[j](/t_j), so the per-task argmax is found without a
// scan: the class plane holds users sorted by (p_ij desc, index asc) and a
// per-task cursor skips entries that became infeasible — permanently,
// because infeasibility is monotone. A task refresh is then O(1) amortized
// instead of O(n).
//
// The working state is each user's remaining capacity and each task's miss
// probability Π(1 − p_ij), both seeded from the pairs already in
// `allocation`.
class LazyGreedy {
 public:
  LazyGreedy(const AllocationProblem& problem, const GreedyOptions& options,
             const ClassPlane& plane, const Allocation& allocation,
             GreedyStats& stats)
      : problem_(problem),
        options_(options),
        plane_(plane),
        allocation_(allocation),
        stats_(stats) {
    const std::size_t n = problem.user_count();
    const std::size_t m = problem.task_count();
    remaining_.resize(n);
    for (UserId i = 0; i < n; ++i) {
      remaining_[i] = problem.user_capacity[i] - allocation.used_time(i);
    }
    miss_.assign(m, 1.0);
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : allocation.users_of(j)) miss_[j] *= 1.0 - p(i, j);
    }
    cursor_.assign(m, 0);
    bound_.assign(m, 0.0);
    stamp_.assign(m, 0);
    candidate_.assign(m, n);
    heap_.reserve(2 * m);
    for (TaskId j = 0; j < m; ++j) {
      bound_[j] = refresh_gain(j);
      heap_.push_back(Entry{bound_[j], j});
    }
    std::make_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // Pops stale upper bounds until the maximum is fresh. An entry whose bound
  // differs from the task's current bound is an outdated duplicate (bounds
  // only decrease and every decrease pushes a new entry) and is discarded.
  // Terminates when the top bound — an upper bound on every efficiency — is
  // not positive, exactly when a full scan's max efficiency hits zero.
  [[nodiscard]] bool next(UserId& user, TaskId& task) {
    while (!heap_.empty()) {
      ++stats_.heap_pops;
      std::pop_heap(heap_.begin(), heap_.end(), EntryOrder{});
      const Entry top = heap_.back();
      heap_.pop_back();
      const TaskId j = top.task;
      if (top.bound != bound_[j]) continue;  // superseded duplicate
      if (!(top.bound > 0.0)) return false;
      if (stamp_[j] == version_) {
        // Fresh under the current state: j's true gain ties or beats every
        // other task's upper bound, and the heap order (bound desc, task
        // asc) plus the refresh loop reproduce Algorithm 1's tie-break —
        // a stale equal-bound lower-index task pops first, refreshes, and
        // wins the re-pop on a true tie.
        user = candidate_[j];
        task = j;
        return true;
      }
      bound_[j] = refresh_gain(j);
      stamp_[j] = version_;
      push(Entry{bound_[j], j});
    }
    return false;
  }

  void select(UserId i, TaskId j, Allocation& allocation) {
    allocation.assign(i, j, problem_.task_time[j], problem_.cost_of(j));
    remaining_[i] -= problem_.task_time[j];
    // Capacity feasibility: an infeasible pair never has positive
    // efficiency, so a selected pair can never overdraw the time budget.
    ETA2_ASSERT(remaining_[i] >= 0.0);
    miss_[j] *= 1.0 - p(i, j);
    ETA2_ASSERT(miss_[j] >= 0.0 && miss_[j] <= 1.0);
    ++stats_.selections;
    ++version_;
    // The stale bound stays a valid upper bound (gains only decrease), so
    // reinsert j as-is — deliberately NOT scaled by (1 − p): rounding of
    // the scaled product could land below j's true next gain and break
    // exactness. Costs at most one extra O(1) refresh if j surfaces again.
    push(Entry{bound_[j], j});
  }

 private:
  struct Entry {
    double bound = 0.0;
    TaskId task = 0;
  };
  // Max-heap order: higher bound first, lower task index first on ties
  // (Algorithm 1's scan keeps the first strict maximum in task order).
  struct EntryOrder {
    [[nodiscard]] bool operator()(const Entry& a, const Entry& b) const {
      if (a.bound != b.bound) return a.bound < b.bound;
      return a.task > b.task;
    }
  };

  [[nodiscard]] double p(UserId i, TaskId j) const {
    return plane_.p(i, plane_.class_of(j));
  }

  void push(Entry entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // Recomputes task j's exact best efficiency under the current state and
  // records the winning user in candidate_[j]. The cursor's first feasible
  // user maximizes p_ij, hence efficiency; the forward walk then resolves
  // Algorithm 1's first-strict-maximum tie-break exactly — a user with
  // (one-ulp) smaller p_ij can round to the same efficiency, and the
  // literal scan keeps the lowest index among such ties. Multiplication and
  // division by a positive constant are monotone under rounding, so the
  // walk stops at the first strictly smaller efficiency.
  [[nodiscard]] double refresh_gain(TaskId j) {
    const std::size_t n = problem_.user_count();
    const std::size_t c = plane_.class_of(j);
    const UserId* ord = plane_.order(c);
    std::size_t& cur = cursor_[j];
    while (cur < n && !feasible(ord[cur], j)) ++cur;
    if (cur == n) {
      candidate_[j] = n;
      return 0.0;
    }
    const double best = efficiency_of(ord[cur], c, j);
    if (!(best > 0.0)) {
      candidate_[j] = n;
      return 0.0;
    }
    UserId pick = ord[cur];
    for (std::size_t k = cur + 1; k < n; ++k) {
      const double e = efficiency_of(ord[k], c, j);
      if (e < best) break;  // p descending ⇒ no later entry can tie
      if (feasible(ord[k], j) && ord[k] < pick) pick = ord[k];
    }
    candidate_[j] = pick;
    return best;
  }

  [[nodiscard]] double efficiency_of(UserId i, std::size_t c, TaskId j) {
    ++stats_.gain_evaluations;
    const double gain = plane_.p(i, c) * miss_[j];
    return options_.efficiency_per_time ? gain / problem_.task_time[j] : gain;
  }

  [[nodiscard]] bool feasible(UserId i, TaskId j) const {
    return remaining_[i] >= problem_.task_time[j] &&
           !allocation_.is_assigned(i, j);
  }

  const AllocationProblem& problem_;
  const GreedyOptions& options_;
  const ClassPlane& plane_;
  const Allocation& allocation_;
  GreedyStats& stats_;
  std::vector<double> remaining_;    // per user
  std::vector<double> miss_;         // per task, Π(1 − p_ij)
  std::vector<std::size_t> cursor_;  // first possibly-feasible order entry
  std::vector<double> bound_;        // current upper bound per task
  std::vector<std::size_t> stamp_;   // version bound_[j] was evaluated under
  std::vector<UserId> candidate_;    // argmax user of the last refresh
  std::vector<Entry> heap_;
  std::size_t version_ = 0;  // incremented per selection
};

// One greedy pass over a validated problem.
std::size_t run_pass(const AllocationProblem& problem,
                     const GreedyOptions& options, const ClassPlane& plane,
                     Allocation& allocation, GreedyStats& stats) {
  stats = GreedyStats{};
  LazyGreedy state(problem, options, plane, allocation, stats);
  std::size_t added = 0;
  double spent = 0.0;
  while (spent < options.cost_cap) {
    UserId i = 0;
    TaskId j = 0;
    if (!state.next(i, j)) break;  // max efficiency hit zero
    state.select(i, j, allocation);
    spent += problem.cost_of(j);
    ++added;
  }
  return added;
}

}  // namespace

std::size_t greedy_extend(const AllocationProblem& problem,
                          const GreedyOptions& options, Allocation& allocation,
                          GreedyStats* stats) {
  problem.validate();
  require(options.epsilon > 0.0, "greedy_extend: epsilon must be > 0");
  // A negative cost cap would read as "unlimited" below; reject it here.
  ETA2_EXPECTS(options.cost_cap >= 0.0);
  require(allocation.user_count() == problem.user_count() &&
              allocation.task_count() == problem.task_count(),
          "greedy_extend: allocation shape mismatch");

  GreedyStats local;
  const ClassPlane plane(problem, options.epsilon);
  return run_pass(problem, options, plane, allocation,
                  stats != nullptr ? *stats : local);
}

MaxQualityAllocator::MaxQualityAllocator(Options options) : options_(options) {}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem) const {
  return allocate(problem, nullptr);
}

Allocation MaxQualityAllocator::allocate(const AllocationProblem& problem,
                                         GreedyStats* stats) const {
  problem.validate();
  require(options_.epsilon > 0.0, "MaxQualityAllocator: epsilon must be > 0");
  GreedyOptions per_time;
  per_time.epsilon = options_.epsilon;
  per_time.efficiency_per_time = true;
  // Both passes share one class plane: they differ only in the efficiency
  // denominator, never in p_ij or the candidate orders.
  const ClassPlane plane(problem, options_.epsilon);

  GreedyStats total;
  Allocation primary(problem.user_count(), problem.task_count());
  run_pass(problem, per_time, plane, primary, total);
  if (!options_.half_approx_pass) {
    if (stats) *stats = total;
    return primary;
  }

  GreedyOptions value_only = per_time;
  value_only.efficiency_per_time = false;
  GreedyStats pass_stats;
  Allocation secondary(problem.user_count(), problem.task_count());
  run_pass(problem, value_only, plane, secondary, pass_stats);
  if (stats) {
    total.selections += pass_stats.selections;
    total.gain_evaluations += pass_stats.gain_evaluations;
    total.heap_pops += pass_stats.heap_pops;
    *stats = total;
  }

  const double obj_primary =
      allocation_objective(problem, primary, options_.epsilon);
  const double obj_secondary =
      allocation_objective(problem, secondary, options_.epsilon);
  return obj_secondary > obj_primary ? secondary : primary;
}

}  // namespace eta2::alloc
