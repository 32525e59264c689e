// Extension bench: wall-clock scaling of the full ETA² pipeline (one
// simulated 5-day campaign, pre-known domains) as the problem grows.
// Complements micro_core's per-component timings with end-to-end numbers.
#include <chrono>
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const eta2::bench::BenchEnv env(argc, argv);
  eta2::bench::print_banner(
      "ext_scaling",
      "extension — end-to-end wall-clock of one simulated campaign vs "
      "problem size",
      env);

  struct Size {
    std::size_t users;
    std::size_t tasks;
  };
  const std::vector<Size> sizes = env.quick
      ? std::vector<Size>{{50, 250}, {100, 1000}}
      : std::vector<Size>{{50, 250}, {100, 1000}, {200, 2000}, {400, 4000}};

  eta2::Table table({"users", "tasks", "observations", "wall ms",
                     "us / observation"});
  for (const Size size : sizes) {
    eta2::sim::SyntheticOptions options;
    options.users = size.users;
    options.tasks = size.tasks;
    const eta2::sim::Dataset dataset = eta2::sim::make_synthetic(options, 1);
    const eta2::sim::SimOptions sim_options;
    const auto start = std::chrono::steady_clock::now();
    const auto result =
        eta2::sim::simulate(dataset, "eta2", sim_options, 1);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    std::size_t pairs = 0;
    for (const auto& day : result.days) pairs += day.pair_count;
    table.add_numeric_row(
        {static_cast<double>(size.users), static_cast<double>(size.tasks),
         static_cast<double>(pairs), ms,
         pairs > 0 ? 1000.0 * ms / static_cast<double>(pairs) : 0.0},
        1);
  }
  table.print();
  std::printf("\nreading: truth analysis scales with the observation count; "
              "the greedy allocator builds its plane per user x domain "
              "column and then pays per selection, so there is no n*m "
              "term and the per-observation cost stays within a small "
              "factor across sizes.\n");
  return 0;
}
