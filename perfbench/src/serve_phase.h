// The serve phase: an in-process eta2d stack (serve::Eta2Service behind
// serve::SocketServer on 127.0.0.1) driven by serve::BlockingClient.
//
//   open loop — Poisson arrivals at a fixed rate over a few connections,
//               each request timed from when it was DUE (so a stall also
//               charges the requests queued behind it), commits watched by
//               polling Eta2Service::query();
//   backlog   — a separate fresh service holding a backlog of batches,
//               timed until every one has committed (the step loop's
//               ceiling rate).
//
// Every service starts in a fresh directory, so no recovery replay leaks
// into the numbers.
//
// Latencies and wall-clock rates are reported, but the end-to-end serve
// metrics are CPU costs: on shared virtual machines, wake-up and fsync
// latency shift by 20-60% between runs minutes apart, which no regression
// bound survives, while the CPU the stack burns per request moves far less.
#ifndef ETA2_PERFBENCH_SERVE_PHASE_H
#define ETA2_PERFBENCH_SERVE_PHASE_H

#include <cstdint>
#include <string>
#include <vector>

#include "campaign.h"
#include "core/config.h"
#include "trace.h"

namespace perfbench {

struct ServeParams {
  std::size_t users = 20;        // worker population
  std::size_t tasks = 4;         // known-domain tasks per batch
  std::size_t obs_per_task = 3;  // client-reported observations per task
  double rate = 250.0;           // offered requests per second (open loop)
  std::size_t connections = 2;
  double window_s = 4.0;         // open-loop quantiles are per window
  std::size_t backlog = 2000;    // batches in each backlog drain
  std::size_t backlog_repeats = 3;
  std::size_t drain_chunk = 100;  // steps per drain-rate sample
};

struct ServeSetup {
  std::string root;  // scratch directory for the services' campaigns
  ServeParams params;
  std::uint64_t seed = 1;
  eta2::core::Eta2Config config;
};

struct ServePhase {
  bool ok = true;
  std::string failure;

  // Open loop.
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;  // overloaded + shed + error + unanswered +
                             // accepted but never committed
  std::uint64_t overloaded = 0;  // of which refused by admission
  std::uint64_t shed = 0;
  // Per window of the schedule (by due time): latency samples.
  struct Window {
    std::vector<double> ack_ms;      // due -> ACCEPTED reply
    std::vector<double> commit_ms;   // due -> committed view covers the seq
    std::vector<double> lag_ms;      // due -> actually sent
    std::vector<double> service_ms;  // sent -> reply
  };
  std::vector<Window> windows;
  std::uint64_t queue_depth_hwm = 0;
  // CPU of the whole eta2d stack (process CPU minus the benchmark's own
  // client, watcher and main threads) per offered request.
  double service_cpu_us_per_request = 0.0;

  // Backlog, per drain_chunk steps of every drain: wall-clock rate and the
  // draining thread's CPU per step.
  std::vector<double> drain_steps_per_s;
  std::vector<double> drain_cpu_us_per_step;
  std::uint64_t backlog_digest = 0;

  // Trace mode only.
  StageTotals backlog_spans;  // stage spans of the traced backlog drain
  double drain_ms_traced = 0.0;
  std::uint64_t drain_steps_traced = 0;
  std::vector<double> ingest_call_ms;  // direct Eta2Service::ingest
  std::vector<double> queue_wait_ms;   // ingest return -> step start
  double wal_bytes_per_step = 0.0;
  double fsync_ms_per_step = 0.0;  // drain wall time with fsync on minus off
};

// Opens a fresh service in `dir` and stops it again (set-up cost probe).
void open_and_close_service(const ServeSetup& setup, const std::string& dir);

// Open loop for `seconds`, then the backlog drains; in trace mode the
// stages run traced and a direct-ingest loop and a WAL-size probe follow.
[[nodiscard]] ServePhase run_serve_phase(const ServeSetup& setup,
                                         double seconds, bool trace,
                                         Perturb perturb);

// Human-readable parameters for the metadata header.
[[nodiscard]] std::string serve_shape(const ServeParams& params,
                                      double seconds);

}  // namespace perfbench

#endif  // ETA2_PERFBENCH_SERVE_PHASE_H
