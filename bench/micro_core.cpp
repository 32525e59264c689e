// Perf-smoke harness + micro-benchmarks of the library's hot paths.
//
// Default mode times each core kernel — pairwise distance matrix, one MLE
// sweep, the max-quality greedy, a batched Φ evaluation, and one full
// simulation run — serial vs. the parallel runtime, verifies the outputs are
// bit-identical, and writes BENCH_core.json (median-of-reps ns/op, speedup,
// machine info). Kernels with a rewritten hot path also record before/after
// columns (naive vs blocked distances, rescan vs CELF, scalar vs batched Φ)
// and the greedy's gain-evaluation counters, so the asymptotic wins are
// visible in the trajectory, not just wall-clock. That file is the perf
// trajectory every later PR is measured against.
//
//   micro_core [--out=BENCH_core.json] [--reps=3] [--threads=N] [--quick]
//
// Passing --gbench (or any --benchmark* flag) runs the original
// google-benchmark suite instead: MLE truth analysis, average-linkage
// clustering, the max-quality greedy, pair-word extraction, and skip-gram
// training throughput.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc/max_quality.h"
#include "clustering/dynamic_clusterer.h"
#include "clustering/linkage.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "io/snapshot.h"
#include "sim/dataset.h"
#include "sim/simulation.h"
#include "stats/normal.h"
#include "text/corpus.h"
#include "text/pairword.h"
#include "text/skipgram.h"
#include "truth/eta2_mle.h"
#include "truth/expertise_store.h"

namespace {

using eta2::Rng;

// ---------------------------------------------------------------------------
// Google-benchmark suite (run with --gbench / --benchmark_*).
// ---------------------------------------------------------------------------

void BM_MleEstimate(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  const std::size_t domains = 8;
  Rng rng(42);
  eta2::truth::ObservationSet data(users, tasks);
  std::vector<eta2::truth::DomainIndex> domain(tasks);
  for (std::size_t j = 0; j < tasks; ++j) {
    domain[j] = j % domains;
    const double mu = rng.uniform(0.0, 20.0);
    for (std::size_t i = 0; i < users; ++i) {
      if (rng.bernoulli(0.3)) data.add(j, i, rng.normal(mu, 1.0));
    }
  }
  const eta2::truth::Eta2Mle mle;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mle.estimate(data, domain, domains));
  }
  // state.iterations() is already an int64 count; casting it again trips
  // -Wuseless-cast.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.total_observations()));
}
BENCHMARK(BM_MleEstimate)->Args({50, 200})->Args({100, 1000})->Args({200, 2000})
    ->Unit(benchmark::kMillisecond);

void BM_UpgmaDendrogram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  eta2::clustering::SymmetricMatrix dist(n);
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) dist.set(i, j, rng.uniform(0.0, 10.0));
  }
  const std::vector<double> sizes(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eta2::clustering::upgma_dendrogram(dist, sizes));
  }
}
BENCHMARK(BM_UpgmaDendrogram)->Arg(100)->Arg(400)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_MaxQualityGreedy(benchmark::State& state) {
  const auto users = static_cast<std::size_t>(state.range(0));
  const auto tasks = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  eta2::alloc::AllocationProblem p;
  p.expertise.assign(users, tasks);
  for (double& u : p.expertise.data()) u = rng.uniform(0.1, 3.0);
  p.task_time.resize(tasks);
  for (double& t : p.task_time) t = rng.uniform(0.5, 1.5);
  p.user_capacity.assign(users, 12.0);
  const eta2::alloc::MaxQualityAllocator allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.allocate(p));
  }
}
BENCHMARK(BM_MaxQualityGreedy)->Args({50, 100})->Args({100, 200})
    ->Args({100, 500})->Unit(benchmark::kMillisecond);

void BM_PairWordExtraction(benchmark::State& state) {
  const std::string description =
      "What is the average waiting time of the shuttle near the municipal "
      "building during the morning commute?";
  for (auto _ : state) {
    benchmark::DoNotOptimize(eta2::text::extract_pair(description));
  }
}
BENCHMARK(BM_PairWordExtraction);

void BM_SkipGramTraining(benchmark::State& state) {
  eta2::text::CorpusOptions corpus_options;
  corpus_options.sentences_per_topic =
      static_cast<std::size_t>(state.range(0));
  const auto corpus = eta2::text::generate_corpus(corpus_options, 3);
  eta2::text::SkipGramOptions options;
  options.dimension = 32;
  options.epochs = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eta2::text::SkipGramModel::train(corpus, options, 3));
  }
  std::size_t words = 0;
  for (const auto& s : corpus) words += s.size();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(words));
}
BENCHMARK(BM_SkipGramTraining)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_TaskDistance(benchmark::State& state) {
  Rng rng(11);
  eta2::text::Embedding a(64);
  eta2::text::Embedding b(64);
  for (double& v : a) v = rng.normal();
  for (double& v : b) v = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eta2::text::task_distance(a, b));
  }
}
BENCHMARK(BM_TaskDistance);

// ---------------------------------------------------------------------------
// Perf-smoke harness (default mode).
// ---------------------------------------------------------------------------

// A kernel run returns a flat signature of its output; the harness compares
// serial and parallel signatures bitwise to enforce the determinism
// contract while timing.
struct KernelTiming {
  std::string name;
  std::size_t scale = 0;
  double serial_ns = 0.0;
  double parallel_ns = 0.0;
  bool bit_identical = false;
  // Kernel-specific before/after columns and work counters, emitted verbatim
  // as extra JSON fields ({key, raw value} — the value is already JSON).
  std::vector<std::pair<std::string, std::string>> extra;
};

struct Kernel {
  std::string name;
  std::size_t scale = 0;  // dominant problem size (for the report)
  std::function<std::vector<double>()> run;
  // Optional: measures kernel-specific before/after numbers (run serially,
  // after the main timing) and appends them to the timing's extra fields.
  std::function<void(int, KernelTiming&)> extras;
};

// Median-of-reps: robust to one-off scheduling noise in both directions,
// unlike best-of (optimistic) or mean (dragged by outliers).
double time_median_ns(const std::function<std::vector<double>()>& run,
                      int reps, std::vector<double>& signature) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    signature = run();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count()));
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

std::string format_ns(double ns) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.0f", ns);
  return buffer;
}

std::string format_ratio(double numerator, double denominator) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                denominator > 0.0 ? numerator / denominator : 0.0);
  return buffer;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<Kernel> make_kernels(bool quick) {
  std::vector<Kernel> kernels;

  // 1. Pairwise task-distance matrix (feeds upgma_dendrogram): paper-scale
  //    n tasks, pair-word vectors of dimension 64.
  {
    const std::size_t n = quick ? 500 : 2000;
    const std::size_t dim = 64;
    auto points = std::make_shared<std::vector<eta2::text::Embedding>>();
    Rng rng(17);
    points->reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      eta2::text::Embedding v(dim);
      for (double& x : v) x = rng.normal();
      points->push_back(std::move(v));
    }
    const auto triangle_signature = [n](
        const eta2::clustering::SymmetricMatrix& dist) {
      std::vector<double> signature;
      signature.reserve(n * (n - 1) / 2);
      for (std::size_t i = 1; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          signature.push_back(dist.at_unchecked(i, j));
        }
      }
      return signature;
    };
    const auto blocked = [points, triangle_signature]() {
      return triangle_signature(
          eta2::clustering::pairwise_task_distances(*points));
    };
    // Before-column reference: the unblocked per-Embedding scan the
    // cache-blocked kernel replaced. Kept here so BENCH_core.json always
    // carries a measured before/after pair plus a bitwise check.
    const auto naive = [points, n, triangle_signature]() {
      eta2::clustering::SymmetricMatrix dist(n);
      for (std::size_t i = 1; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          dist.set_unchecked(
              i, j, eta2::text::task_distance((*points)[i], (*points)[j]));
        }
      }
      return triangle_signature(dist);
    };
    kernels.push_back(Kernel{
        "distance_matrix", n, blocked,
        [blocked, naive](int reps, KernelTiming& timing) {
          std::vector<double> naive_signature;
          const double naive_ns = time_median_ns(naive, reps, naive_signature);
          std::vector<double> blocked_signature;
          const double blocked_ns =
              time_median_ns(blocked, reps, blocked_signature);
          timing.extra.emplace_back("naive_ns_per_op", format_ns(naive_ns));
          timing.extra.emplace_back("blocked_ns_per_op", format_ns(blocked_ns));
          timing.extra.emplace_back("blocked_speedup",
                                    format_ratio(naive_ns, blocked_ns));
          timing.extra.emplace_back(
              "naive_bit_identical",
              bitwise_equal(naive_signature, blocked_signature) ? "true"
                                                                : "false");
        }});
  }

  // 2. One MLE estimate (Eqs. 5–6) at paper scale.
  {
    const std::size_t users = quick ? 100 : 300;
    const std::size_t tasks = quick ? 500 : 2000;
    const std::size_t domains = 16;
    Rng rng(42);
    auto data = std::make_shared<eta2::truth::ObservationSet>(users, tasks);
    auto domain =
        std::make_shared<std::vector<eta2::truth::DomainIndex>>(tasks);
    for (std::size_t j = 0; j < tasks; ++j) {
      (*domain)[j] = j % domains;
      const double mu = rng.uniform(0.0, 20.0);
      for (std::size_t i = 0; i < users; ++i) {
        if (rng.bernoulli(0.2)) data->add(j, i, rng.normal(mu, 1.0));
      }
    }
    kernels.push_back(Kernel{
        "mle_sweep", tasks, [data, domain, domains]() {
          const eta2::truth::Eta2Mle mle;
          const auto result = mle.estimate(*data, *domain, domains);
          std::vector<double> signature = result.mu;
          signature.insert(signature.end(), result.sigma.begin(),
                           result.sigma.end());
          const auto cells = result.expertise.data();
          signature.insert(signature.end(), cells.begin(), cells.end());
          return signature;
        },
        {}});
  }

  // 3. Max-quality greedy allocation (Algorithm 1), on two expertise
  //    layouts: every task column distinct (no class sharing — the engine's
  //    worst case), and columns shared per domain as the step pipeline
  //    builds them (DESIGN.md §11).
  for (const std::size_t domains : {std::size_t{0}, std::size_t{8}}) {
    const std::size_t users = quick ? 80 : 200;
    const std::size_t tasks = quick ? 200 : 600;
    Rng rng(5);
    auto problem = std::make_shared<eta2::alloc::AllocationProblem>();
    problem->expertise.assign(users, tasks);
    if (domains == 0) {
      for (double& u : problem->expertise.data()) u = rng.uniform(0.1, 3.0);
    } else {
      for (std::size_t i = 0; i < users; ++i) {
        std::vector<double> per_domain(domains);
        for (double& u : per_domain) u = rng.uniform(0.1, 3.0);
        for (std::size_t j = 0; j < tasks; ++j) {
          problem->expertise(i, j) = per_domain[j % domains];
        }
      }
    }
    problem->task_time.resize(tasks);
    for (double& t : problem->task_time) t = rng.uniform(0.5, 1.5);
    problem->user_capacity.assign(users, 12.0);
    const auto allocate_with = [problem](eta2::alloc::GreedyImpl impl) {
      eta2::alloc::MaxQualityAllocator::Options options;
      options.impl = impl;
      const auto allocation =
          eta2::alloc::MaxQualityAllocator(options).allocate(*problem);
      return std::vector<double>{
          eta2::alloc::allocation_objective(*problem, allocation, 1.0),
          static_cast<double>(allocation.pair_count())};
    };
    kernels.push_back(Kernel{
        domains == 0 ? "greedy_allocate" : "greedy_allocate_domains", tasks,
        [allocate_with]() {
          return allocate_with(eta2::alloc::GreedyImpl::kLazy);
        },
        [problem, allocate_with](int reps, KernelTiming& timing) {
          // Deterministic work counters: marginal-gain evaluations per
          // engine on the bench problem. The CELF win is asymptotic — the
          // counter ratio shows it even when wall-clock is noisy.
          const auto count_gains = [problem](eta2::alloc::GreedyImpl impl) {
            eta2::alloc::GreedyOptions options;
            options.impl = impl;
            eta2::alloc::Allocation allocation(problem->user_count(),
                                               problem->task_count());
            eta2::alloc::GreedyStats stats;
            eta2::alloc::greedy_extend(*problem, options, allocation, &stats);
            return stats;
          };
          const eta2::alloc::GreedyStats rescan_stats =
              count_gains(eta2::alloc::GreedyImpl::kRescan);
          const eta2::alloc::GreedyStats lazy_stats =
              count_gains(eta2::alloc::GreedyImpl::kLazy);
          std::vector<double> rescan_signature;
          const double rescan_ns = time_median_ns(
              [allocate_with]() {
                return allocate_with(eta2::alloc::GreedyImpl::kRescan);
              },
              reps, rescan_signature);
          std::vector<double> lazy_signature;
          const double lazy_ns = time_median_ns(
              [allocate_with]() {
                return allocate_with(eta2::alloc::GreedyImpl::kLazy);
              },
              reps, lazy_signature);
          timing.extra.emplace_back(
              "gain_evaluations_rescan",
              std::to_string(rescan_stats.gain_evaluations));
          timing.extra.emplace_back(
              "gain_evaluations_celf",
              std::to_string(lazy_stats.gain_evaluations));
          timing.extra.emplace_back(
              "gain_evaluation_ratio",
              format_ratio(
                  static_cast<double>(rescan_stats.gain_evaluations),
                  static_cast<double>(lazy_stats.gain_evaluations)));
          timing.extra.emplace_back("heap_pops_celf",
                                    std::to_string(lazy_stats.heap_pops));
          timing.extra.emplace_back("rescan_ns_per_op", format_ns(rescan_ns));
          timing.extra.emplace_back("celf_ns_per_op", format_ns(lazy_ns));
          timing.extra.emplace_back("celf_speedup",
                                    format_ratio(rescan_ns, lazy_ns));
          timing.extra.emplace_back(
              "rescan_bit_identical",
              bitwise_equal(rescan_signature, lazy_signature) ? "true"
                                                              : "false");
        }});
  }

  // 4. Batched Φ evaluation (Eq. 11, p_ij = 2Φ(εu) − 1): the span kernel
  //    the allocators route their probability builds through, vs the scalar
  //    entry point it replaced (per-cell validation and all).
  {
    const std::size_t count = quick ? 200000 : 1000000;
    auto values = std::make_shared<std::vector<double>>();
    Rng rng(23);
    values->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      values->push_back(rng.uniform(0.0, 4.0));
    }
    const double epsilon = 0.1;
    const auto batch = [values, epsilon]() {
      std::vector<double> out(values->size());
      eta2::parallel::parallel_for_chunks(
          values->size(), 4096, [&](std::size_t begin, std::size_t end) {
            eta2::stats::accuracy_probability_batch(
                std::span<const double>(*values).subspan(begin, end - begin),
                epsilon, std::span<double>(out).subspan(begin, end - begin));
          });
      return out;
    };
    kernels.push_back(Kernel{
        "phi_batch", count, batch,
        [values, batch, epsilon](int reps, KernelTiming& timing) {
          // Before-column reference: one scalar call (two require()s plus
          // the 2·Φ−1 form) per cell.
          const auto scalar = [values, epsilon]() {
            std::vector<double> out(values->size());
            for (std::size_t i = 0; i < values->size(); ++i) {
              out[i] = eta2::stats::accuracy_probability((*values)[i], epsilon);
            }
            return out;
          };
          std::vector<double> scalar_signature;
          const double scalar_ns =
              time_median_ns(scalar, reps, scalar_signature);
          std::vector<double> batch_signature;
          const double batch_ns = time_median_ns(batch, reps, batch_signature);
          timing.extra.emplace_back("scalar_ns_per_op", format_ns(scalar_ns));
          timing.extra.emplace_back("batch_ns_per_op", format_ns(batch_ns));
          timing.extra.emplace_back("batch_speedup",
                                    format_ratio(scalar_ns, batch_ns));
          timing.extra.emplace_back(
              "scalar_bit_identical",
              bitwise_equal(scalar_signature, batch_signature) ? "true"
                                                               : "false");
        }});
  }

  // 5. One full simulation run (pre-known-domain synthetic dataset; the
  //    multi-day loop exercises MLE + greedy together).
  {
    const std::size_t tasks = quick ? 150 : 400;
    auto dataset = std::make_shared<eta2::sim::Dataset>([tasks]() {
      eta2::sim::SyntheticOptions options;
      options.tasks = tasks;
      return eta2::sim::make_synthetic(options, 11);
    }());
    kernels.push_back(Kernel{
        "sim_step", tasks, [dataset]() {
          const eta2::sim::SimOptions options;
          const auto result = eta2::sim::simulate(
              *dataset, "eta2", options, 11);
          std::vector<double> signature{result.overall_error,
                                        result.total_cost};
          for (const auto& day : result.days) {
            signature.push_back(day.estimation_error);
            signature.push_back(day.cost);
          }
          return signature;
        },
        {}});
  }

  return kernels;
}

// printf-style append into a std::string (the JSON is staged in memory and
// lands atomically below).
void appendf(std::string& out, const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  const int len = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  // On truncation vsnprintf reports the would-be length but the buffer
  // holds at most sizeof(buffer) - 1 chars plus the NUL — never append
  // the terminator.
  if (len > 0) out.append(buffer,
                          std::min<std::size_t>(static_cast<std::size_t>(len),
                                                sizeof(buffer) - 1));
}

// Raw vs effective machine numbers: `hardware_concurrency_at_start` is
// probed before the thread pool ever spins up, `hardware_concurrency` is
// re-probed after pool init (cgroup/affinity masks can differ between the
// two on containerized runners), and `parallel_threads_effective` is the
// lane count the pool actually granted for the requested
// `parallel_threads`. CI's speedup gate keys off the effective numbers.
struct MachineInfo {
  unsigned hardware_at_start = 0;
  unsigned hardware_effective = 0;
  std::size_t threads_requested = 0;
  std::size_t threads_effective = 0;
};

void write_json(const std::string& path, const MachineInfo& machine,
                int reps, bool quick,
                const std::vector<KernelTiming>& timings) {
  const char* env_threads = std::getenv("ETA2_THREADS");
  std::string out;
  appendf(out, "{\n");
  appendf(out, "  \"bench\": \"perf_smoke\",\n");
  appendf(out, "  \"machine\": {\n");
  appendf(out, "    \"hardware_concurrency_at_start\": %u,\n",
          machine.hardware_at_start);
  appendf(out, "    \"hardware_concurrency\": %u,\n",
          machine.hardware_effective);
  appendf(out, "    \"eta2_threads_env\": \"%s\",\n",
          env_threads ? env_threads : "");
  appendf(out, "    \"parallel_threads\": %zu,\n", machine.threads_requested);
  appendf(out, "    \"parallel_threads_effective\": %zu,\n",
          machine.threads_effective);
  appendf(out, "    \"compiler\": \"%s\",\n", __VERSION__);
  appendf(out, "    \"build\": \"%s\"\n",
#ifdef NDEBUG
          "optimized"
#else
          "debug"
#endif
  );
  appendf(out, "  },\n");
  appendf(out, "  \"reps\": %d,\n", reps);
  appendf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  appendf(out, "  \"kernels\": [\n");
  for (std::size_t k = 0; k < timings.size(); ++k) {
    const KernelTiming& t = timings[k];
    appendf(out, "    {\n");
    appendf(out, "      \"name\": \"%s\",\n", t.name.c_str());
    appendf(out, "      \"scale\": %zu,\n", t.scale);
    appendf(out, "      \"serial_median_ns_per_op\": %.0f,\n", t.serial_ns);
    appendf(out, "      \"parallel_median_ns_per_op\": %.0f,\n", t.parallel_ns);
    appendf(out, "      \"speedup\": %.3f,\n",
            t.parallel_ns > 0.0 ? t.serial_ns / t.parallel_ns : 0.0);
    appendf(out, "      \"bit_identical\": %s%s\n",
            t.bit_identical ? "true" : "false", t.extra.empty() ? "" : ",");
    for (std::size_t e = 0; e < t.extra.size(); ++e) {
      appendf(out, "      \"%s\": %s%s\n", t.extra[e].first.c_str(),
              t.extra[e].second.c_str(), e + 1 < t.extra.size() ? "," : "");
    }
    appendf(out, "    }%s\n", k + 1 < timings.size() ? "," : "");
  }
  appendf(out, "  ]\n");
  appendf(out, "}\n");
  // Atomic replace: BENCH_core.json is the perf trajectory later PRs diff
  // against — a crash mid-write must not leave a torn file.
  try {
    eta2::io::atomic_write_file(path, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_smoke: cannot write %s: %s\n", path.c_str(),
                 e.what());
    std::exit(1);
  }
}

int run_smoke(int argc, char** argv) {
  const eta2::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const int reps = static_cast<int>(flags.get_int("reps", quick ? 2 : 3));
  const std::string out_path =
      flags.get("out", "BENCH_core.json");
  MachineInfo machine;
  // Raw probe, before the pool has ever been initialized.
  machine.hardware_at_start = std::thread::hardware_concurrency();
  // Parallel lane count: --threads, else the runtime default; a 1-core box
  // still records an (oversubscribed) 8-lane column so the trajectory
  // always has both sides.
  std::size_t parallel_threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));
  if (parallel_threads == 0) {
    parallel_threads = eta2::parallel::thread_count();
    if (parallel_threads <= 1) parallel_threads = 8;
  }
  machine.threads_requested = parallel_threads;
  // Effective probes after pool init: what the pool actually granted, and
  // what the OS reports once worker threads exist (the two can disagree
  // with the startup probe under containerized affinity masks).
  eta2::parallel::set_thread_count(parallel_threads);
  machine.threads_effective = eta2::parallel::thread_count();
  machine.hardware_effective = std::thread::hardware_concurrency();
  eta2::parallel::set_thread_count(0);

  std::printf("=== perf_smoke ===\n");
  std::printf(
      "hardware_concurrency: %u raw / %u effective, parallel lanes: %zu "
      "requested / %zu effective, reps: %d%s\n\n",
      machine.hardware_at_start, machine.hardware_effective, parallel_threads,
      machine.threads_effective, reps, quick ? ", --quick" : "");

  std::vector<KernelTiming> timings;
  for (Kernel& kernel : make_kernels(quick)) {
    KernelTiming timing;
    timing.name = kernel.name;
    timing.scale = kernel.scale;

    std::vector<double> serial_signature;
    eta2::parallel::set_thread_count(1);
    timing.serial_ns = time_median_ns(kernel.run, reps, serial_signature);

    std::vector<double> parallel_signature;
    eta2::parallel::set_thread_count(parallel_threads);
    timing.parallel_ns = time_median_ns(kernel.run, reps, parallel_signature);
    eta2::parallel::set_thread_count(0);

    timing.bit_identical = bitwise_equal(serial_signature, parallel_signature);
    if (timing.bit_identical && kernel.extras) {
      // Before/after columns are measured on the serial lane so the
      // comparison isolates the kernel rewrite from thread scaling.
      eta2::parallel::set_thread_count(1);
      kernel.extras(reps, timing);
      eta2::parallel::set_thread_count(0);
    }
    timings.push_back(timing);
    std::printf("%-16s scale=%-7zu serial=%9.3f ms  parallel=%9.3f ms  "
                "speedup=%5.2fx  %s\n",
                timing.name.c_str(), timing.scale, timing.serial_ns / 1e6,
                timing.parallel_ns / 1e6,
                timing.parallel_ns > 0.0 ? timing.serial_ns / timing.parallel_ns
                                         : 0.0,
                timing.bit_identical ? "bit-identical" : "MISMATCH");
    for (const auto& [key, value] : timing.extra) {
      std::printf("                 %s=%s\n", key.c_str(), value.c_str());
    }
    if (!timing.bit_identical) {
      std::fprintf(stderr,
                   "perf_smoke: %s parallel output differs from serial\n",
                   timing.name.c_str());
      return 1;
    }
    // Each rewritten kernel carries its own before/after bitwise check —
    // a mismatch there is the same determinism failure as above.
    for (const auto& [key, value] : timing.extra) {
      if (key.find("bit_identical") != std::string::npos && value != "true") {
        std::fprintf(stderr,
                     "perf_smoke: %s %s=false (reference and rewritten "
                     "kernels disagree)\n",
                     timing.name.c_str(), key.c_str());
        return 1;
      }
    }
  }

  write_json(out_path, machine, reps, quick, timings);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--gbench") {
      gbench = true;
      continue;  // not a google-benchmark flag; strip it
    }
    if (arg.rfind("--benchmark", 0) == 0) gbench = true;
    args.push_back(argv[i]);
  }
  if (gbench) {
    int gb_argc = static_cast<int>(args.size());
    benchmark::Initialize(&gb_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(gb_argc, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  return run_smoke(argc, argv);
}
