// Small shared helpers: quantiles, digests, the metric list printed as the
// result line, and the metadata header.
#ifndef ETA2_PERFBENCH_REPORT_H
#define ETA2_PERFBENCH_REPORT_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// Linear-interpolated quantile (0 <= q <= 1) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

// FNV-1a over raw bytes, chained through `seed`.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(std::span<const double> values) {
    for (const double v : values) add(v);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// CPU time consumed so far by this process / by the calling thread, in ms.
[[nodiscard]] double process_cpu_ms();
[[nodiscard]] double thread_cpu_ms();

// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// Minimal JSON string escaping (quotes, backslashes, control bytes).
[[nodiscard]] std::string json_string(std::string_view text);

// A number with every significant digit (%.17g); non-finite values are
// never printed (the caller fails the run instead).
[[nodiscard]] std::string json_number(double v);

// The final result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {name: {"value": v, "unit": u}, ...}}.
[[nodiscard]] std::string result_line(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

// Host facts for the metadata header.
struct HostFacts {
  long online_cpus = 0;         // sysconf(_SC_NPROCESSORS_ONLN)
  long affinity_cpus = 0;       // sched_getaffinity mask (what nproc prints)
  unsigned hardware_concurrency = 0;
  std::size_t parallel_lanes = 0;  // eta2::parallel::thread_count()
  bool sanitizer = false;          // built with ASan / TSan
};
[[nodiscard]] HostFacts host_facts();

// Filesystem type name of the filesystem holding `path` (statfs magic).
[[nodiscard]] std::string filesystem_type(const std::string& path);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_REPORT_H
