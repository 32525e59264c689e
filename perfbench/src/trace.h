// Outside-in stage tracing for the benchmark.
//
// Every traced stage is a registry entry "traced:<name>" that wraps the
// real stage of that name, so the tracing rides through the pipeline's
// existing seams (core::Eta2Config stage names, which also flow through
// serve::Eta2Service::Options::config) and no library code changes. The
// wrappers delegate every call unchanged: a traced run must produce the
// bit-identical truth, sigma and allocation of an untraced one, which the
// benchmark checks on every run.
//
// Spans go into one StageTotals sink at a time (set_trace_sink). The sink
// is written only by the thread inside Eta2Server::step, one step at a
// time; readers look at it after that thread is joined or idle.
#ifndef ETA2_PERFBENCH_TRACE_H
#define ETA2_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/step_context.h"
#include "text/embedder.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Span totals of one traced phase, summed over every step it ran.
struct StageTotals {
  double identify_ms = 0.0;  // described-task identifier, embedding included
  double embed_ms = 0.0;     // embedder time (inside identify)
  std::uint64_t embed_calls = 0;
  double warmup_alloc_ms = 0.0;  // warm-up allocator (random)
  double alloc_ms = 0.0;         // post-warm-up allocator
  double collect_ms = 0.0;  // allocator exit -> truth entry: the shared
                            // collection pass and its sanitizer
  std::uint64_t collect_calls = 0;  // CollectFn wrapper (campaigns only)
  double warmup_truth_ms = 0.0;     // joint-MLE bootstrap
  double truth_ms = 0.0;            // dynamic update
  // Identifier entry time per step, in step order (the step's start as
  // seen from outside; used for queue-wait accounting in the serve phase).
  std::vector<Clock::time_point> step_starts;
  std::optional<Clock::time_point> alloc_exit;  // pending collect span start

  // Sum of all stage spans (identify includes embed).
  [[nodiscard]] double span_ms() const {
    return identify_ms + warmup_alloc_ms + alloc_ms + collect_ms +
           warmup_truth_ms + truth_ms;
  }
};

// Routes the wrappers' spans into `sink` (nullptr: wrappers only delegate).
void set_trace_sink(StageTotals* sink);

// Registers a "traced:<name>" wrapper for every stage currently in the
// three core registries. Idempotent.
void register_traced_stages();

// `config` with every stage name swapped for its traced wrapper.
[[nodiscard]] eta2::core::Eta2Config traced_config(
    eta2::core::Eta2Config config);

// Embedder decorator: counts and times embed_word calls into the sink.
[[nodiscard]] std::shared_ptr<const eta2::text::Embedder> traced_embedder(
    std::shared_ptr<const eta2::text::Embedder> inner);

// CollectFn decorator: counts calls into the sink.
[[nodiscard]] eta2::core::CollectFn traced_collect(
    eta2::core::CollectFn inner);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_TRACE_H
