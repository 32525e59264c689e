// Perf-smoke harness: micro-benchmarks of the kernels behind the hot
// campaign stages.
//
// Times each kernel — the multi-round domain identification behind SFV
// steps, one MLE sweep, and the max-quality greedy on two expertise
// layouts — serial vs. the parallel runtime, verifies the outputs are
// bit-identical, and writes BENCH_core.json (median-of-reps ns/op, speedup,
// machine info, the configured git commit and the exact argv). The
// identification rounds also record their distance-evaluation count, and
// the greedy its gain-evaluation counters, so the asymptotic wins are
// visible in the trajectory, not just wall-clock.
//
//   micro_core [--out=BENCH_core.json] [--reps=3] [--threads=N] [--quick]
//
// Exits 1 if any serial/parallel pair differs bitwise.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc/max_quality.h"
#include "clustering/dynamic_clusterer.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "io/snapshot.h"
#include "truth/eta2_mle.h"

namespace {

using eta2::Rng;

// A kernel run returns a flat signature of its output; the harness compares
// serial and parallel signatures bitwise to enforce the determinism
// contract while timing.
struct KernelTiming {
  std::string name;
  std::size_t scale = 0;
  double serial_ns = 0.0;
  double parallel_ns = 0.0;
  bool bit_identical = false;
  // Kernel-specific work counters, emitted verbatim as extra JSON fields
  // ({key, raw value} — the value is already JSON).
  std::vector<std::pair<std::string, std::string>> extra;
};

struct Kernel {
  std::string name;
  std::size_t scale = 0;  // dominant problem size (for the report)
  std::function<std::vector<double>()> run;
  // Optional: measures kernel-specific work counters (run serially, after
  // the main timing) and appends them to the timing's extra fields.
  std::function<void(KernelTiming&)> extras;
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

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<Kernel> make_kernels(bool quick) {
  std::vector<Kernel> kernels;

  // 1. Domain identification: 5 DynamicClusterer rounds of 360 64-dim
  //    points around 10 topics — the SFV campaign's per-day batch — so the
  //    last round pairs 360 new tasks with 1440 earlier ones.
  {
    const std::size_t rounds = 5;
    const std::size_t per_round = 360;
    const std::size_t dim = 64;
    Rng rng(29);
    std::vector<eta2::text::Embedding> topics(10, eta2::text::Embedding(dim));
    for (auto& topic : topics) {
      for (double& x : topic) x = 1.5 * rng.normal();
    }
    auto batches =
        std::make_shared<std::vector<std::vector<eta2::text::Embedding>>>();
    for (std::size_t r = 0; r < rounds; ++r) {
      std::vector<eta2::text::Embedding> batch;
      batch.reserve(per_round);
      for (std::size_t t = 0; t < per_round; ++t) {
        const auto& topic = topics[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(topics.size()) - 1))];
        eta2::text::Embedding v(dim);
        for (std::size_t k = 0; k < dim; ++k) v[k] = topic[k] + rng.normal();
        batch.push_back(std::move(v));
      }
      batches->push_back(std::move(batch));
    }
    kernels.push_back(Kernel{
        "cluster_rounds", rounds * per_round,
        [batches]() {
          eta2::clustering::DynamicClusterer clusterer(0.5);
          std::vector<double> signature;
          for (const auto& batch : *batches) {
            const auto update = clusterer.add_tasks(batch);
            for (const auto d : update.assignments) signature.push_back(d);
            for (const auto d : update.new_domains) signature.push_back(d);
            for (const auto& merge : update.merges) {
              signature.push_back(merge.kept);
              signature.push_back(merge.absorbed);
            }
            signature.push_back(
                static_cast<double>(update.distance_evaluations));
          }
          signature.push_back(clusterer.dstar());
          return signature;
        },
        [batches](KernelTiming& timing) {
          eta2::clustering::DynamicClusterer clusterer(0.5);
          std::size_t evaluations = 0;
          for (const auto& batch : *batches) {
            evaluations += clusterer.add_tasks(batch).distance_evaluations;
          }
          timing.extra.emplace_back("distance_evaluations",
                                    std::to_string(evaluations));
          timing.extra.emplace_back("domains",
                                    std::to_string(clusterer.domain_count()));
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
  //    layouts: every task its own column (no class sharing — the engine's
  //    worst case), and one column per domain with the task → column map
  //    the step pipeline hands over (DESIGN.md §11).
  for (const std::size_t domains : {std::size_t{0}, std::size_t{8}}) {
    const std::size_t users = quick ? 80 : 200;
    const std::size_t tasks = quick ? 200 : 600;
    const std::size_t columns = domains == 0 ? tasks : domains;
    Rng rng(5);
    auto problem = std::make_shared<eta2::alloc::AllocationProblem>();
    problem->expertise.assign(users, columns);
    for (double& u : problem->expertise.data()) u = rng.uniform(0.1, 3.0);
    problem->task_column.resize(tasks);
    for (std::size_t j = 0; j < tasks; ++j) {
      problem->task_column[j] = j % columns;
    }
    problem->task_time.resize(tasks);
    for (double& t : problem->task_time) t = rng.uniform(0.5, 1.5);
    problem->user_capacity.assign(users, 12.0);
    kernels.push_back(Kernel{
        domains == 0 ? "greedy_allocate" : "greedy_allocate_domains", tasks,
        [problem]() {
          const auto allocation =
              eta2::alloc::MaxQualityAllocator().allocate(*problem);
          return std::vector<double>{
              eta2::alloc::allocation_objective(*problem, allocation, 1.0),
              static_cast<double>(allocation.pair_count())};
        },
        [problem](KernelTiming& timing) {
          // Deterministic work counters of one per-time greedy pass on the
          // bench problem. The CELF win is asymptotic — the counters show
          // it even when wall-clock is noisy.
          eta2::alloc::Allocation allocation(problem->user_count(),
                                             problem->task_count());
          eta2::alloc::GreedyStats stats;
          eta2::alloc::greedy_extend(*problem, {}, allocation, &stats);
          timing.extra.emplace_back("selections",
                                    std::to_string(stats.selections));
          timing.extra.emplace_back("gain_evaluations",
                                    std::to_string(stats.gain_evaluations));
          timing.extra.emplace_back("heap_pops",
                                    std::to_string(stats.heap_pops));
        }});
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

// JSON string literal for an arbitrary argv entry.
std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_json(const std::string& path, const MachineInfo& machine,
                int reps, bool quick, const std::vector<std::string>& argv,
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
  // Configure-time `git rev-parse HEAD` ("-dirty" when tracked files
  // differed from it, "unknown" outside a git checkout).
  appendf(out, "  \"git_commit\": \"%s\",\n", ETA2_GIT_COMMIT);
  out += "  \"argv\": [";
  for (std::size_t a = 0; a < argv.size(); ++a) {
    out += (a == 0 ? "" : ", ") + json_string(argv[a]);
  }
  out += "],\n";
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
      eta2::parallel::set_thread_count(1);
      kernel.extras(timing);
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
  }

  write_json(out_path, machine, reps, quick,
             std::vector<std::string>(argv, argv + argc), timings);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_smoke(argc, argv); }
