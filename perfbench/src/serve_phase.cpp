#include "serve_phase.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "io/snapshot.h"
#include "report.h"
#include "serve/batch.h"
#include "serve/service.h"
#include "serve/socket.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using eta2::Rng;
using eta2::serve::Admission;
using eta2::serve::BlockingClient;
using eta2::serve::Eta2Service;
using eta2::serve::IngestBatch;
using eta2::serve::MessageType;
using eta2::serve::SocketServer;

// Batch index ranges of the three loops, so no two loops share a batch.
constexpr std::uint64_t kOpenLoopBase = 0;
constexpr std::uint64_t kBacklogBase = 1ULL << 40;
constexpr std::uint64_t kDirectBase = 2ULL << 40;

// The loadgen request shape: `tasks` known-domain tasks (4 domains), each
// with `obs_per_task` reports from random users. Always high priority, so
// default admission never sheds it below saturation.
IngestBatch make_batch(const ServeSetup& setup, std::uint64_t index) {
  Rng rng(setup.seed * 0x9e3779b97f4a7c15ULL + index + 1);
  IngestBatch batch;
  batch.priority = 1;
  const auto users = static_cast<std::int64_t>(setup.params.users);
  for (std::size_t t = 0; t < setup.params.tasks; ++t) {
    eta2::core::NewTask task;
    task.known_domain = static_cast<std::size_t>(rng.uniform_int(0, 3));
    task.processing_time = rng.uniform(0.5, 2.0);
    task.cost = rng.uniform(1.0, 4.0);
    batch.tasks.push_back(task);
    for (std::size_t o = 0; o < setup.params.obs_per_task; ++o) {
      IngestBatch::Observation obs;
      obs.task = t;
      obs.user = static_cast<std::size_t>(rng.uniform_int(0, users - 1));
      obs.value = rng.normal(10.0, 2.0);
      batch.observations.push_back(obs);
    }
  }
  return batch;
}

// Poisson arrival offsets (microseconds) per connection; the connections'
// superposition is a Poisson process at params.rate.
std::vector<std::vector<double>> make_schedule(const ServeSetup& setup,
                                               double seconds,
                                               std::uint64_t salt) {
  const ServeParams& p = setup.params;
  const double mean_gap_us =
      1e6 * static_cast<double>(p.connections) / p.rate;
  std::vector<std::vector<double>> out(p.connections);
  for (std::size_t c = 0; c < p.connections; ++c) {
    Rng rng(setup.seed * 7919 + salt * 131 + c);
    double t_us = 0.0;
    while (true) {
      t_us += -std::log(1.0 - rng.uniform01()) * mean_gap_us;
      if (t_us >= seconds * 1e6) break;
      out[c].push_back(t_us);
    }
  }
  return out;
}

Clock::time_point at(Clock::time_point t0, double offset_us) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::micro>(offset_us));
}

std::string fresh_dir(const ServeSetup& setup, const std::string& name) {
  const std::string dir = setup.root + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Eta2Service::Options service_options(const ServeSetup& setup,
                                     const std::string& dir, bool traced) {
  Eta2Service::Options options;
  options.dir = dir;
  options.user_count = setup.params.users;
  options.config = traced ? traced_config(setup.config) : setup.config;
  options.seed = setup.seed;
  return options;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Polls query() until `count` steps have committed or `timeout` passes.
bool wait_committed(Eta2Service& service, std::uint64_t count,
                    std::chrono::seconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  while (service.query()->steps_completed < count) {
    if (Clock::now() > deadline || service.failed()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct Request {
  double due_us = 0.0;
  std::string payload;
  Clock::time_point sent{};
  Clock::time_point replied{};
  bool accepted = false;
  std::uint64_t seq = 0;
};

void open_loop(const ServeSetup& setup, double seconds, ServePhase& out) {
  const std::vector<std::vector<double>> schedule =
      make_schedule(setup, seconds, 1);
  std::vector<std::vector<Request>> requests(schedule.size());
  std::uint64_t index = kOpenLoopBase;
  std::size_t total = 0;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    for (const double due : schedule[c]) {
      Request r;
      r.due_us = due;
      r.payload = eta2::serve::serialize_batch(make_batch(setup, index++));
      requests[c].push_back(std::move(r));
      ++total;
    }
  }

  Eta2Service service(service_options(setup, fresh_dir(setup, "open"), false));
  SocketServer server(&service, SocketServer::Options{});

  // Commit watcher: the committed view's step count says which sequence
  // numbers have committed (seq == step). query() never takes the runner
  // lock, so polling it does not slow the step loop.
  std::vector<Clock::time_point> commit_at(total);
  // CPU of the benchmark's own threads, subtracted from the process's.
  std::atomic<double> bench_cpu_ms{0.0};
  const double process_cpu_start = process_cpu_ms();
  const double main_cpu_start = thread_cpu_ms();
  std::jthread watcher([&](const std::stop_token& stop) {
    std::uint64_t last = 0;
    while (!stop.stop_requested()) {
      const std::uint64_t steps = service.query()->steps_completed;
      if (steps > last) {
        const Clock::time_point now = Clock::now();
        for (std::uint64_t q = last; q < steps && q < total; ++q) {
          commit_at[q] = now;
        }
        last = steps;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    bench_cpu_ms.fetch_add(thread_cpu_ms());
  });

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  std::atomic<std::uint64_t> client_errors{0};
  std::vector<std::jthread> clients;
  for (std::size_t c = 0; c < requests.size(); ++c) {
    clients.emplace_back([&, c] {
      try {
        auto client = std::make_unique<BlockingClient>(server.port());
        std::uint64_t id = 0;
        for (Request& r : requests[c]) {
          std::this_thread::sleep_until(at(t0, r.due_us));
          r.sent = Clock::now();
          const auto reply =
              client->call(MessageType::kIngest, ++id, r.payload);
          r.replied = Clock::now();
          if (!reply) {  // dropped: counts as unanswered, reconnect
            client = std::make_unique<BlockingClient>(server.port());
            continue;
          }
          if (reply->type != MessageType::kAccepted) continue;
          r.accepted = true;
          r.seq = std::stoull(reply->payload.substr(4));
        }
      } catch (const std::exception&) {
        client_errors.fetch_add(1);
      }
      bench_cpu_ms.fetch_add(thread_cpu_ms());
    });
  }
  clients.clear();  // joins

  std::uint64_t accepted = 0;
  for (const auto& conn : requests) {
    for (const Request& r : conn) accepted += r.accepted ? 1 : 0;
  }
  const bool all_committed =
      wait_committed(service, accepted, std::chrono::seconds(30));
  watcher.request_stop();
  watcher.join();
  const double service_cpu_ms = process_cpu_ms() - process_cpu_start -
                                (thread_cpu_ms() - main_cpu_start) -
                                bench_cpu_ms.load();
  const std::uint64_t committed = service.query()->steps_completed;
  const eta2::serve::ServeHealthSnapshot health = service.health().snapshot();
  server.stop();
  service.stop();

  if (client_errors.load() > 0) {
    out.ok = false;
    out.failure = "serve: a client thread failed to connect";
    return;
  }
  if (service.failed() || !all_committed) {
    out.ok = false;
    out.failure = "serve: accepted batches did not all commit: " +
                  service.failure();
    return;
  }
  if (health.ingests_offered != health.accepted + health.rejected_overloaded +
                                    health.shed + health.malformed ||
      health.accepted != accepted || health.steps_committed != committed) {
    out.ok = false;
    out.failure = "serve: admission ledger does not reconcile";
    return;
  }
  out.queue_depth_hwm = health.queue_depth_high_water;
  out.overloaded = health.rejected_overloaded;
  out.shed = health.shed;
  out.service_cpu_us_per_request =
      1000.0 * service_cpu_ms / static_cast<double>(total);
  const double window_us = setup.params.window_s * 1e6;
  out.windows.resize(
      static_cast<std::size_t>(std::ceil(seconds * 1e6 / window_us)));
  for (const auto& conn : requests) {
    for (const Request& r : conn) {
      ++out.offered;
      if (!r.accepted || r.seq >= committed) {
        ++out.failed;
        continue;
      }
      const Clock::time_point due = at(t0, r.due_us);
      ServePhase::Window& w =
          out.windows[static_cast<std::size_t>(r.due_us / window_us)];
      w.ack_ms.push_back(ms_between(due, r.replied));
      w.commit_ms.push_back(ms_between(due, commit_at[r.seq]));
      w.lag_ms.push_back(ms_between(due, r.sent));
      w.service_ms.push_back(ms_between(r.sent, r.replied));
    }
  }
}

// One timed drain of a fresh service holding the whole backlog.
struct Drain {
  std::uint64_t digest = 0;  // committed view after the last step
  std::size_t steps = 0;
  double ms = 0.0;
  std::vector<double> chunk_steps_per_s;
  std::vector<double> chunk_cpu_us_per_step;
  StageTotals spans;  // traced drains only
};

// Fills a fresh, stepless service with the whole backlog, then times
// drain() in chunks until every batch has committed.
std::optional<Drain> drain_backlog(const ServeSetup& setup, bool traced) {
  const std::size_t n = setup.params.backlog;
  Eta2Service::Options options =
      service_options(setup, fresh_dir(setup, "backlog"), traced);
  options.start_step_thread = false;
  options.admission.max_depth = n + 1;
  options.admission.max_bytes = std::size_t{1} << 30;
  Eta2Service service(std::move(options));
  for (std::size_t i = 0; i < n; ++i) {
    if (service.ingest(make_batch(setup, kBacklogBase + i)).decision !=
        Admission::kAccepted) {
      return std::nullopt;
    }
  }
  Drain out;
  if (traced) set_trace_sink(&out.spans);
  while (out.steps < n) {
    const double cpu_start = thread_cpu_ms();
    const Clock::time_point start = Clock::now();
    const std::size_t chunk = service.drain(setup.params.drain_chunk);
    const double chunk_ms = ms_between(start, Clock::now());
    const double chunk_cpu_ms = thread_cpu_ms() - cpu_start;
    if (chunk == 0) break;
    out.steps += chunk;
    out.ms += chunk_ms;
    out.chunk_steps_per_s.push_back(static_cast<double>(chunk) /
                                    (chunk_ms / 1000.0));
    out.chunk_cpu_us_per_step.push_back(1000.0 * chunk_cpu_ms /
                                        static_cast<double>(chunk));
  }
  set_trace_sink(nullptr);
  const std::shared_ptr<const eta2::serve::QueryView> view = service.query();
  service.stop();
  if (out.steps != n || view->steps_completed != n || service.failed()) {
    return std::nullopt;
  }
  Digest digest;
  const std::string bytes = eta2::serve::serialize_query_view(*view);
  digest.add_bytes(bytes.data(), bytes.size());
  out.digest = digest.value();
  return out;
}

// Trace mode: the same open-loop schedule, calling Eta2Service::ingest
// directly (no socket), to split the ack into ingest call + socket, and to
// time each batch's wait in the admission queue.
bool direct_loop(const ServeSetup& setup, double seconds, ServePhase& out) {
  const std::vector<std::vector<double>> schedule =
      make_schedule(setup, seconds, 2);
  struct Call {
    double due_us = 0.0;
    IngestBatch batch;
    Clock::time_point returned{};
    double call_ms = 0.0;
    bool accepted = false;
    std::uint64_t seq = 0;
  };
  std::vector<std::vector<Call>> calls(schedule.size());
  std::uint64_t index = kDirectBase;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    for (const double due : schedule[c]) {
      Call call;
      call.due_us = due;
      call.batch = make_batch(setup, index++);
      calls[c].push_back(std::move(call));
    }
  }

  StageTotals spans;
  set_trace_sink(&spans);
  bool ok = true;
  {
    Eta2Service service(
        service_options(setup, fresh_dir(setup, "direct"), true));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
    std::atomic<std::uint64_t> errors{0};
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < calls.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          for (Call& call : calls[c]) {
            std::this_thread::sleep_until(at(t0, call.due_us));
            const Clock::time_point start = Clock::now();
            const Eta2Service::IngestResult r =
                service.ingest(std::move(call.batch));
            call.returned = Clock::now();
            call.call_ms = ms_between(start, call.returned);
            call.accepted = r.decision == Admission::kAccepted;
            call.seq = r.seq;
          }
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      });
    }
    threads.clear();  // joins
    ok = errors.load() == 0;
    std::uint64_t accepted = 0;
    for (const auto& conn : calls) {
      for (const Call& call : conn) accepted += call.accepted ? 1 : 0;
    }
    ok = ok && wait_committed(service, accepted, std::chrono::seconds(30));
    service.stop();
  }
  set_trace_sink(nullptr);
  if (!ok) return false;
  for (const auto& conn : calls) {
    for (const Call& call : conn) {
      out.ingest_call_ms.push_back(call.call_ms);
      if (!call.accepted || call.seq >= spans.step_starts.size()) continue;
      const Clock::time_point step_start = spans.step_starts[call.seq];
      out.queue_wait_ms.push_back(
          std::max(0.0, ms_between(call.returned, step_start)));
    }
  }
  return true;
}

// Campaign + ingest WAL bytes per step, from a service that never
// snapshots (so nothing is rotated away while it is measured).
double wal_bytes_per_step(const ServeSetup& setup, std::size_t steps) {
  const std::string dir = fresh_dir(setup, "wal");
  Eta2Service::Options options = service_options(setup, dir, false);
  options.start_step_thread = false;
  options.durable.snapshot_cadence = 0;
  options.admission.max_depth = steps + 1;
  Eta2Service service(std::move(options));
  const std::uint64_t before = dir_bytes(dir);
  for (std::size_t i = 0; i < steps; ++i) {
    (void)service.ingest(make_batch(setup, kBacklogBase + i));
  }
  service.drain();
  const std::uint64_t after = dir_bytes(dir);
  return static_cast<double>(after - before) / static_cast<double>(steps);
}

}  // namespace

void open_and_close_service(const ServeSetup& setup, const std::string& dir) {
  Eta2Service service(service_options(setup, fresh_dir(setup, dir), false));
  service.stop();
}

ServePhase run_serve_phase(const ServeSetup& setup, double seconds,
                           bool trace, Perturb perturb) {
  ServePhase out;
  const auto fail = [&out](std::string why) {
    out.ok = false;
    out.failure = std::move(why);
    return out;
  };
  // Warm-up (discarded): a short open loop and one backlog drain, so the
  // timed services meet warm caches and a settled filesystem.
  {
    ServeSetup warm = setup;
    warm.params.backlog = std::min<std::size_t>(setup.params.backlog, 500);
    ServePhase discard;
    open_loop(warm, std::min(seconds, 1.0), discard);
    if (!discard.ok) return discard;
    (void)drain_backlog(warm, false);
  }
  open_loop(setup, seconds, out);
  if (!out.ok) return out;

  // Repeated fresh drains of the same backlog: the median chunk rate is
  // reported, and every repeat must end in the same committed view.
  double drain_ms = 0.0;
  std::size_t drain_steps = 0;
  for (std::size_t rep = 0; rep < setup.params.backlog_repeats; ++rep) {
    const std::optional<Drain> d = drain_backlog(setup, false);
    if (!d) return fail("serve: backlog did not fully commit");
    if (rep > 0 && d->digest != out.backlog_digest) {
      return fail("serve: backlog digest changed between repeats");
    }
    out.backlog_digest = d->digest;
    out.drain_steps_per_s.insert(out.drain_steps_per_s.end(),
                                 d->chunk_steps_per_s.begin(),
                                 d->chunk_steps_per_s.end());
    out.drain_cpu_us_per_step.insert(out.drain_cpu_us_per_step.end(),
                                     d->chunk_cpu_us_per_step.begin(),
                                     d->chunk_cpu_us_per_step.end());
    drain_ms += d->ms;
    drain_steps += d->steps;
  }
  if (!trace) return out;

  std::optional<Drain> traced = drain_backlog(setup, true);
  if (traced && perturb == Perturb::kTraceDigest) traced->digest ^= 1;
  if (!traced || traced->digest != out.backlog_digest) {
    return fail("serve: traced backlog digest differs from untraced");
  }
  out.backlog_spans = std::move(traced->spans);
  out.drain_ms_traced = traced->ms;
  out.drain_steps_traced = traced->steps;

  // The disk's share of a durable step: the same drain without fsync.
  eta2::io::set_durable_fsync(false);
  const std::optional<Drain> unsynced = drain_backlog(setup, false);
  eta2::io::set_durable_fsync(true);
  if (!unsynced || unsynced->digest != out.backlog_digest) {
    return fail("serve: backlog digest without fsync differs");
  }
  out.fsync_ms_per_step =
      drain_ms / static_cast<double>(drain_steps) -
      unsynced->ms / static_cast<double>(unsynced->steps);

  if (!direct_loop(setup, seconds / 2.0, out)) {
    return fail("serve: direct-ingest batches did not all commit");
  }
  const std::size_t probe = std::min<std::size_t>(setup.params.backlog, 256);
  out.wal_bytes_per_step = wal_bytes_per_step(setup, probe);
  if (wal_bytes_per_step(setup, probe) != out.wal_bytes_per_step) {
    return fail("serve: WAL bytes per step changed between repeats");
  }
  return out;
}

std::string serve_shape(const ServeParams& p, double seconds) {
  return std::to_string(p.users) + " users, batches of " +
         std::to_string(p.tasks) + " known-domain tasks x " +
         std::to_string(p.obs_per_task) + " observations; open loop " +
         "Poisson " + std::to_string(static_cast<int>(p.rate)) +
         " req/s over " + std::to_string(p.connections) +
         " connections for " + std::to_string(seconds) +
         " s (quantiles per " + std::to_string(p.window_s) +
         " s window, median reported), default admission; backlog of " +
         std::to_string(p.backlog) + " batches drained by a fresh service, " +
         std::to_string(p.backlog_repeats) + " times, rate per " +
         std::to_string(p.drain_chunk) + "-step chunk, median reported";
}

}  // namespace perfbench
