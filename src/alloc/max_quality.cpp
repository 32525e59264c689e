#include "alloc/max_quality.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <utility>
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

// User × task pairs from which MaxQualityAllocator runs its two
// ½-approximation passes concurrently. Below it (a served batch of a few
// dozen pairs) a pool handoff costs more than a pass, so they run inline.
constexpr std::size_t kConcurrentPassPairs = std::size_t{1} << 14;

// Algorithm 1's working plane, built once per expertise column that some
// task references (DESIGN.md §11). Expertise is per domain (Eq. 6), so the
// tasks of a domain share one column of the problem's n × K plane, hence
// the same p_ij and the same (p desc, index asc) candidate order. The plane
// stores p_ij as n × C and the orders as C × n for the C referenced
// columns, instead of n × m and m × n. Classes are numbered in order of
// first reference by ascending task index.
class ClassPlane {
 public:
  ClassPlane(const AllocationProblem& problem, double epsilon)
      : n_(problem.user_count()) {
    const std::vector<std::size_t> columns = classify(problem);
    k_ = columns.size();
    build_p(problem, columns, epsilon);
    build_orders();
  }

  [[nodiscard]] std::size_t class_count() const { return k_; }
  [[nodiscard]] std::size_t class_of(TaskId j) const { return class_of_[j]; }
  [[nodiscard]] double p(UserId i, std::size_t c) const {
    return p_[i * k_ + c];
  }
  [[nodiscard]] const UserId* order(std::size_t c) const {
    return order_.data() + c * n_;
  }

 private:
  // Returns the expertise column of each class.
  std::vector<std::size_t> classify(const AllocationProblem& problem) {
    const std::size_t m = problem.task_count();
    const std::size_t unseen = problem.expertise.cols();
    std::vector<std::size_t> class_of_column(problem.expertise.cols(), unseen);
    std::vector<std::size_t> columns;
    class_of_.resize(m);
    for (TaskId j = 0; j < m; ++j) {
      const std::size_t column = problem.task_column[j];
      if (class_of_column[column] == unseen) {
        class_of_column[column] = columns.size();
        columns.push_back(column);
      }
      class_of_[j] = class_of_column[column];
    }
    return columns;
  }

  // p_ij for each class's column. The batched Φ kernel is elementwise, so
  // every cell is bit-identical to a per-task build.
  void build_p(const AllocationProblem& problem,
               std::span<const std::size_t> columns, double epsilon) {
    const std::size_t cols = problem.expertise.cols();
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
            for (const std::size_t col : columns) {
              u.push_back(cells[i * cols + col]);
            }
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
  std::vector<double> p_;              // row-major n × C
  std::vector<UserId> order_;          // per class, (p desc, index asc)
};

// CELF lazy engine (DESIGN.md §11). Submodularity makes every cached
// efficiency an upper bound on the current one: a selection only multiplies
// miss_[j] by (1 − p) ≤ 1, only shrinks remaining capacity, and assignments
// are sticky — so gains never increase. A max-heap of per-task bounds
// therefore finds the true argmax by popping until the top entry is exact.
//
// Exact invalidation: the heap holds one entry per task with a positive
// bound, computed by the task's last refresh together with its argmax user
// candidate_[j]. miss_[j] and j's assigned set change only when j itself is
// picked, and j is refreshed right after every pick, so an entry goes
// stale only through capacity: feasible sets only shrink, so while the
// candidate still fits the task it still attains the same maximum and is
// still the lowest-index user that does. A popped entry is therefore exact
// iff remaining_[candidate_[j]] >= t_j, and is refreshed and re-pushed
// otherwise.
//
// Within one task every feasible user's efficiency is p_ij times the same
// positive factor miss_[j](/t_j), so the per-task argmax is found without a
// scan: the class plane holds users sorted by (p_ij desc, index asc) and a
// per-task cursor skips entries that became infeasible — permanently,
// because infeasibility is monotone. A user whose remaining capacity falls
// below every task's time is infeasible everywhere: the first time any
// cursor or walk meets it in a class's order, it is unlinked there (a
// path-halving next-alive array per class), so no task of the class steps
// over it again.
//
// The working state is each user's remaining capacity and each task's miss
// probability Π(1 − p_ij), both seeded from the pairs already in
// `allocation`.
class LazyGreedy {
 public:
  LazyGreedy(const AllocationProblem& problem, const GreedyOptions& options,
             const ClassPlane& plane, Allocation& allocation,
             GreedyStats& stats)
      : problem_(problem),
        options_(options),
        plane_(plane),
        allocation_(allocation),
        stats_(stats) {
    const std::size_t n = problem.user_count();
    const std::size_t m = problem.task_count();
    min_time_ = m == 0 ? 0.0
                       : *std::min_element(problem.task_time.begin(),
                                           problem.task_time.end());
    next_.resize(plane.class_count() * (n + 1));
    for (std::size_t c = 0; c < plane.class_count(); ++c) {
      std::iota(next_.begin() + c * (n + 1), next_.begin() + (c + 1) * (n + 1),
                std::size_t{0});
    }
    remaining_.resize(n);
    for (UserId i = 0; i < n; ++i) {
      remaining_[i] = problem.user_capacity[i] - allocation.used_time(i);
    }
    miss_.assign(m, 1.0);
    for (TaskId j = 0; j < m; ++j) {
      for (const UserId i : allocation.users_of(j)) miss_[j] *= 1.0 - p(i, j);
    }
    cursor_.assign(m, 0);
    candidate_.assign(m, n);
    heap_.reserve(m);
    for (TaskId j = 0; j < m; ++j) {
      const double bound = refresh_gain(j);
      if (bound > 0.0) heap_.push_back(Entry{bound, j});
    }
    std::make_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // Pops bounds until the maximum is exact. The heap order (bound desc,
  // task asc) plus the refresh loop reproduce Algorithm 1's tie-break: an
  // equal-bound lower-index task pops first, refreshes, and wins the re-pop
  // on a true tie. Returns false once no task has a positive bound, exactly
  // when a full scan's max efficiency hits zero.
  [[nodiscard]] bool next(UserId& user, TaskId& task) {
    while (!heap_.empty()) {
      ++stats_.heap_pops;
      std::pop_heap(heap_.begin(), heap_.end(), EntryOrder{});
      const TaskId j = heap_.back().task;
      heap_.pop_back();
      if (remaining_[candidate_[j]] >= problem_.task_time[j]) {
        user = candidate_[j];
        task = j;
        return true;
      }
      push_refreshed(j);
    }
    return false;
  }

  void select(UserId i, TaskId j) {
    allocation_.assign(i, j, problem_.task_time[j], problem_.cost_of(j));
    remaining_[i] -= problem_.task_time[j];
    // Capacity feasibility: an infeasible pair never has positive
    // efficiency, so a selected pair can never overdraw the time budget.
    ETA2_ASSERT(remaining_[i] >= 0.0);
    miss_[j] *= 1.0 - p(i, j);
    ETA2_ASSERT(miss_[j] >= 0.0 && miss_[j] <= 1.0);
    ++stats_.selections;
    // The new bound is computed, never the old one scaled by (1 − p):
    // rounding of a scaled product could land below j's true next gain.
    push_refreshed(j);
  }

  // Eq. 12's objective Σ_j (1 − miss_j) of the allocation so far: the same
  // products in the same order as allocation_objective, over the same p
  // (batched Φ is bit-identical to scalar Φ), hence the same bits.
  [[nodiscard]] double objective() const {
    double total = 0.0;
    for (const double miss : miss_) total += 1.0 - miss;
    return total;
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

  // A zero bound stays zero (gains only decrease), so such a task leaves
  // the heap for good.
  void push_refreshed(TaskId j) {
    const double bound = refresh_gain(j);
    if (!(bound > 0.0)) return;
    heap_.push_back(Entry{bound, j});
    std::push_heap(heap_.begin(), heap_.end(), EntryOrder{});
  }

  // The first position at or after `pos` in class c's order whose user
  // still fits some task (n when none). Links are halved as they are
  // walked; an exhausted user met at a live position is unlinked.
  [[nodiscard]] std::size_t alive(std::size_t c, std::size_t pos) {
    const std::size_t n = problem_.user_count();
    const UserId* ord = plane_.order(c);
    std::size_t* next = next_.data() + c * (n + 1);
    for (;;) {
      while (next[pos] != pos) {
        next[pos] = next[next[pos]];
        pos = next[pos];
      }
      if (pos == n || remaining_[ord[pos]] >= min_time_) return pos;
      next[pos] = pos + 1;
    }
  }

  // Recomputes task j's exact best efficiency under the current state and
  // records the winning user in candidate_[j]. The cursor's first feasible
  // user maximizes p_ij, hence efficiency; the forward walk then resolves
  // Algorithm 1's first-strict-maximum tie-break exactly — a user with
  // (one-ulp) smaller p_ij can round to the same efficiency, and the
  // literal scan keeps the lowest index among such ties. Multiplication and
  // division by a positive constant are monotone under rounding, so the
  // walk stops at the first strictly smaller efficiency. Unlinked users are
  // infeasible, and skipping them cannot skip the stop: efficiency is
  // non-increasing along the order.
  [[nodiscard]] double refresh_gain(TaskId j) {
    const std::size_t n = problem_.user_count();
    const std::size_t c = plane_.class_of(j);
    const UserId* ord = plane_.order(c);
    std::size_t& cur = cursor_[j];
    cur = alive(c, cur);
    while (cur < n && !feasible(ord[cur], j)) cur = alive(c, cur + 1);
    candidate_[j] = n;
    if (cur == n) return 0.0;
    const double best = efficiency_of(ord[cur], c, j);
    if (!(best > 0.0)) return 0.0;
    UserId pick = ord[cur];
    for (std::size_t k = alive(c, cur + 1); k < n; k = alive(c, k + 1)) {
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
  Allocation& allocation_;
  GreedyStats& stats_;
  double min_time_ = 0.0;            // min_j t_j
  std::vector<double> remaining_;    // per user
  std::vector<double> miss_;         // per task, Π(1 − p_ij)
  std::vector<std::size_t> cursor_;  // first possibly-feasible order entry
  std::vector<UserId> candidate_;    // argmax user of the last refresh
  std::vector<std::size_t> next_;    // per class, n + 1 next-alive links
  std::vector<Entry> heap_;
};

// One greedy pass over a validated problem. Returns the number of added
// pairs.
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
    state.select(i, j);
    spent += problem.cost_of(j);
    ++added;
  }
  stats.objective = state.objective();
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
  // Both passes share one class plane: they differ only in the efficiency
  // denominator, never in p_ij or the candidate orders. Each writes only
  // its own slot, so they may run concurrently with the same result.
  const ClassPlane plane(problem, options_.epsilon);
  struct Pass {
    Allocation allocation;
    GreedyStats stats;
  };
  std::array<Pass, 2> passes;
  const auto run = [&](std::size_t k) {
    GreedyOptions options;
    options.epsilon = options_.epsilon;
    // Pass 0 is Algorithm 1; pass 1 the cost-blind ½-approximation pass.
    options.efficiency_per_time = k == 0;
    Pass& pass = passes[k];
    pass.allocation = Allocation(problem.user_count(), problem.task_count());
    run_pass(problem, options, plane, pass.allocation, pass.stats);
  };
  const std::size_t count = options_.half_approx_pass ? 2 : 1;
  if (count == 2 &&
      problem.user_count() * problem.task_count() >= kConcurrentPassPairs) {
    parallel::parallel_for(2, 1, run);
  } else {
    for (std::size_t k = 0; k < count; ++k) run(k);
  }
  Pass& best = passes[1].stats.objective > passes[0].stats.objective
                   ? passes[1]
                   : passes[0];
  if (stats) {
    // An unrun pass contributes its zero counters.
    *stats = best.stats;
    stats->selections =
        passes[0].stats.selections + passes[1].stats.selections;
    stats->gain_evaluations =
        passes[0].stats.gain_evaluations + passes[1].stats.gain_evaluations;
    stats->heap_pops = passes[0].stats.heap_pops + passes[1].stats.heap_pops;
  }
  return std::move(best.allocation);
}

}  // namespace eta2::alloc
