#include "serve/service.h"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "io/snapshot.h"
#include "text/faulty_embedder.h"
#include "truth/trust.h"

namespace eta2::serve {
namespace {

std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::string_view kExtraMagic = "eta2-serve-extra";

}  // namespace

std::string serialize_query_view(const QueryView& view) {
  std::ostringstream out;
  out << "eta2-view v1\n";
  out << "steps " << view.steps_completed << "\n";
  out << "warmup " << (view.warmup ? 1 : 0) << "\n";
  out << "cost " << double_bits(view.cost) << "\n";
  out << "truth " << view.truth.size();
  for (const double v : view.truth) out << " " << double_bits(v);
  out << "\nsigma " << view.sigma.size();
  for (const double v : view.sigma) out << " " << double_bits(v);
  out << "\ndomains " << view.task_domains.size();
  for (const auto d : view.task_domains) out << " " << d;
  out << "\n";
  return out.str();
}

Eta2Service::Eta2Service(Options options)
    : options_(std::move(options)),
      queue_(options_.admission, &health_) {
  require(!options_.dir.empty(), "Eta2Service: dir required");
  require(options_.user_count >= 1, "Eta2Service: user_count >= 1");
  require(options_.default_capacity > 0.0,
          "Eta2Service: default_capacity > 0");
  if (!options_.time_source) options_.time_source = [] { return now(); };
  if (options_.fault.any()) plan_.emplace(options_.fault);

  // The step watchdog: Eta2Server::step polls it at its cancellation
  // points. All three fields it reads are step-thread-private.
  options_.config.step_watchdog = [this] {
    if (deadline_active_ && clock_now() > deadline_) {
      throw CancelledError("serve: step deadline exceeded");
    }
  };

  std::shared_ptr<const text::Embedder> embedder = options_.embedder;
  if (plan_ && embedder != nullptr) {
    embedder = text::wrap_embedder(embedder, &*plan_);
  }

  core::DurableOptions durable = options_.durable;
  durable.dir = options_.dir;
  durable.crash_hook = options_.crash_hook;

  core::DurableRunner::Callbacks callbacks;
  callbacks.make_collect = [this](std::uint64_t step) -> core::CollectFn {
    // Once per execution attempt, like the simulation driver: position the
    // chaos plan, then answer collects from the batch's own observations.
    if (plan_) plan_->begin_step(step);
    auto table = std::make_shared<
        std::map<std::pair<std::size_t, std::size_t>, double>>();
    ensure(current_batch_ != nullptr, "serve: collect without a batch");
    for (const IngestBatch::Observation& o : current_batch_->observations) {
      (*table)[{o.task, o.user}] = o.value;
    }
    core::CollectFn collect =
        [table](std::size_t local_task,
                std::size_t user) -> std::optional<double> {
      const auto it = table->find({local_task, user});
      if (it == table->end()) return std::nullopt;
      return it->second;
    };
    if (plan_) collect = plan_->wrap_collect(std::move(collect));
    return collect;
  };
  callbacks.save_extra = [this](std::ostream& out) {
    const fault::FaultStats stats =
        plan_ ? plan_->stats() : fault::FaultStats{};
    out << kExtraMagic << " v1\n";
    out << "fault " << stats.observations_seen << " " << stats.nan_injected
        << " " << stats.inf_injected << " " << stats.outliers_injected << " "
        << stats.fabricated << " " << stats.no_responses << " "
        << stats.dropouts << " " << stats.batches_dropped << " "
        << stats.embedder_failures << "\n";
  };
  callbacks.load_extra = [this](std::istream* in) {
    fault::FaultStats stats;
    if (in != nullptr) {
      std::string magic;
      std::string version;
      std::string key;
      if (!(*in >> magic >> version >> key) || magic != kExtraMagic ||
          version != "v1" || key != "fault" ||
          !(*in >> stats.observations_seen >> stats.nan_injected >>
            stats.inf_injected >> stats.outliers_injected >>
            stats.fabricated >> stats.no_responses >> stats.dropouts >>
            stats.batches_dropped >> stats.embedder_failures)) {
        throw io::CorruptSnapshotError(
            "serve: malformed service extra block");
      }
    }
    if (plan_) plan_->restore_stats(stats);
  };

  runner_ = std::make_unique<core::DurableRunner>(
      options_.user_count, options_.config, std::move(embedder),
      options_.seed, std::move(durable), std::move(callbacks));
  {
    // Quarantine state persists in the campaign snapshot, so a recovered
    // service demotes known-bad sources from its very first ingest.
    const std::lock_guard<std::mutex> lock(runner_mutex_);
    refresh_trust_flags();
  }

  // Open the ingest WAL and re-feed every journaled batch the campaign has
  // not consumed yet (crash between ack and step, or graceful stop with a
  // backlog). Admission is bypassed: these were accepted once.
  io::JournalWriter::Options ingest_options;
  ingest_options.max_segment_bytes = options_.durable.max_segment_bytes;
  if (options_.crash_hook) {
    ingest_options.crash_hook = [hook = options_.crash_hook](
                                    std::string_view point) {
      hook("ingest-" + std::string(point));
    };
  }
  const std::string ingest_dir = options_.dir + "/ingest";
  ingest_log_ = std::make_unique<io::JournalWriter>(ingest_dir,
                                                    std::move(ingest_options));
  const io::JournalScan ingest_scan = io::scan_journal(ingest_dir);
  ingest_log_->open(ingest_scan);
  next_ingest_seq_ = runner_->next_step();
  for (const io::JournalRecord& record : ingest_scan.records) {
    if (record.type != io::RecordType::kServeIngest) continue;
    next_ingest_seq_ = std::max(next_ingest_seq_, record.step + 1);
    if (record.step < runner_->next_step()) continue;  // already consumed
    QueuedBatch item;
    item.seq = record.step;
    item.batch = parse_batch(record.payload);
    item.bytes = record.payload.size();
    queue_.restore(std::move(item));
  }

  {
    const std::lock_guard<std::mutex> lock(view_mutex_);
    auto view = std::make_shared<QueryView>();
    view->steps_completed = runner_->next_step();
    view->warmup = !runner_->server().warmed_up();
    view_ = std::move(view);
  }

  if (options_.start_step_thread) {
    step_thread_ = std::thread([this] { step_loop(); });
  }
}

Eta2Service::~Eta2Service() { stop(); }

Eta2Service::IngestResult Eta2Service::ingest(IngestBatch batch) {
  health_.count_offered();
  // Validation failures count as malformed so the ledger reconciles
  // exactly: offered == accepted + overloaded + shed + malformed.
  try {
    require(batch.user_capacity.empty() ||
                batch.user_capacity.size() == options_.user_count,
            "serve: batch capacity arity must be 0 or user_count");
    for (const core::NewTask& t : batch.tasks) {
      require(t.processing_time > 0.0, "serve: task processing_time > 0");
    }
    for (const IngestBatch::Observation& o : batch.observations) {
      require(o.user < options_.user_count, "serve: observation user index");
      require(o.task < batch.tasks.size(), "serve: observation task index");
    }
    require(!batch.source.has_value() || *batch.source < options_.user_count,
            "serve: batch source user index");
  } catch (const std::invalid_argument&) {
    health_.count_malformed();
    throw;
  }
  // Per-source trust priority: a batch from a quarantined source is
  // demoted below the shed threshold before admission, so under pressure
  // attacker traffic is the first to be shed while honest sources keep the
  // remaining capacity. The demoted priority is what gets journaled —
  // recovery replays the same decision.
  if (batch.source.has_value()) {
    const std::lock_guard<std::mutex> tlock(trust_mutex_);
    if (*batch.source < trust_quarantined_.size() &&
        trust_quarantined_[*batch.source] != 0 &&
        batch.priority >= options_.admission.shed_priority_threshold) {
      batch.priority = options_.admission.shed_priority_threshold - 1;
      health_.count_trust_demoted();
    }
  }
  const std::string payload = serialize_batch(batch);

  const std::lock_guard<std::mutex> lock(ingest_mutex_);
  const Admission decision = queue_.admit(batch.priority, payload.size());
  if (decision == Admission::kOverloaded) {
    health_.count_overloaded();
    return {decision, 0};
  }
  if (decision == Admission::kShed) {
    health_.count_shed();
    return {decision, 0};
  }
  // Admitted: make it durable, then queue it. The ack below is only sent
  // once the WAL append returned, so an ACCEPTED batch survives kill -9.
  // A failed append must not burn a seq: the step loop runs them in order.
  const std::uint64_t seq = next_ingest_seq_;
  ingest_log_->append(io::RecordType::kServeIngest, seq, payload);
  ++next_ingest_seq_;
  QueuedBatch item;
  item.seq = seq;
  item.batch = std::move(batch);
  item.bytes = payload.size();
  item.enqueued_at = clock_now();
  if (options_.step_deadline_ms > 0) {
    item.has_deadline = true;
    item.deadline = item.enqueued_at +
                    std::chrono::milliseconds(options_.step_deadline_ms);
  }
  // Under ingest_mutex_ the queue can only have shrunk since admit(), so
  // this cannot come back rejected; ensure() guards the invariant.
  ensure(queue_.offer(std::move(item)) == Admission::kAccepted,
         "serve: admitted batch failed to enqueue");
  health_.count_accepted();
  return {Admission::kAccepted, seq};
}

std::shared_ptr<const QueryView> Eta2Service::query() {
  health_.count_query();
  const std::lock_guard<std::mutex> lock(view_mutex_);
  return view_;
}

std::uint64_t Eta2Service::snapshot_now() {
  const std::lock_guard<std::mutex> lock(runner_mutex_);
  runner_->checkpoint();
  {
    const std::lock_guard<std::mutex> ilock(ingest_mutex_);
    maintain_ingest_log_locked();
  }
  health_.count_snapshot();
  return runner_->next_step();
}

std::uint64_t Eta2Service::steps_completed() {
  const std::lock_guard<std::mutex> lock(runner_mutex_);
  return runner_->next_step();
}

std::size_t Eta2Service::drain(std::size_t max_steps) {
  std::size_t ran = 0;
  while (ran < max_steps) {
    std::optional<QueuedBatch> item = queue_.try_pop();
    if (!item) break;
    run_one(std::move(*item));
    ++ran;
  }
  return ran;
}

void Eta2Service::refresh_trust_flags() {
  const truth::TrustLedger* ledger = runner_->server().trust_ledger();
  if (ledger == nullptr) return;
  std::vector<char> flags = ledger->quarantine_flags();
  const std::lock_guard<std::mutex> lock(trust_mutex_);
  trust_quarantined_ = std::move(flags);
}

void Eta2Service::maintain_ingest_log_locked() {
  // Mirrors the runner's own journal policy: rotate at the snapshot
  // boundary, then drop segments wholly below the oldest generation the
  // runner can still fall back to — batches below that frontier can never
  // be replayed again.
  ingest_log_->rotate();
  ingest_log_->prune(runner_->fallback_frontier());
}

void Eta2Service::run_one(QueuedBatch item) {
  const std::lock_guard<std::mutex> lock(runner_mutex_);
  ensure(item.seq == runner_->next_step(),
         "serve: ingest sequence out of order");
  const std::vector<double>* capacity = &item.batch.user_capacity;
  std::vector<double> defaults;
  if (capacity->empty()) {
    defaults.assign(options_.user_count, options_.default_capacity);
    capacity = &defaults;
  }
  current_batch_ = &item.batch;
  // Deadlines never apply to journal replay: cancelling a replayed step
  // would diverge from the journaled outcome.
  deadline_active_ = item.has_deadline && !runner_->pending_replay(item.seq);
  deadline_ = item.deadline;
  core::DurableRunner::StepOutcome outcome =
      runner_->run_step(item.batch.tasks, *capacity);
  current_batch_ = nullptr;
  deadline_active_ = false;

  health_.count_retries(
      outcome.attempts > 1 ? static_cast<std::uint64_t>(outcome.attempts - 1)
                           : 0);
  if (outcome.quarantined) {
    health_.count_quarantined();
    if (outcome.cancelled) health_.count_timed_out();
  } else {
    health_.count_step_committed();
    refresh_trust_flags();
    auto view = std::make_shared<QueryView>();
    view->steps_completed = runner_->next_step();
    view->warmup = outcome.result.warmup;
    view->cost = outcome.result.cost;
    view->truth = std::move(outcome.result.truth);
    view->sigma = std::move(outcome.result.sigma);
    view->task_domains = std::move(outcome.result.task_domains);
    const std::lock_guard<std::mutex> vlock(view_mutex_);
    view_ = std::move(view);
  }
  if (item.enqueued_at != TimePoint{}) {
    const std::int64_t us = us_between(item.enqueued_at, clock_now());
    health_.record_latency_us(us > 0 ? static_cast<std::uint64_t>(us) : 0);
  }
  if (options_.durable.snapshot_cadence > 0 &&
      runner_->next_step() % options_.durable.snapshot_cadence == 0) {
    const std::lock_guard<std::mutex> ilock(ingest_mutex_);
    maintain_ingest_log_locked();
  }
}

void Eta2Service::step_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    std::optional<QueuedBatch> item = queue_.pop();
    if (!item) break;  // closed and drained
    if (stop_requested_.load(std::memory_order_acquire)) {
      break;  // batch stays in the ingest WAL; the next open runs it
    }
    try {
      run_one(std::move(*item));
    } catch (const std::exception& e) {
      // Unrecoverable campaign failure (replay divergence, dead disk).
      // Record it and stop the loop; the daemon surfaces it and exits
      // nonzero. No checkpoint — in-memory state is suspect.
      {
        const std::lock_guard<std::mutex> lock(failure_mutex_);
        failure_ = e.what();
      }
      failed_.store(true, std::memory_order_release);
      queue_.close();
      break;
      // eta2-lint: allow(catch-all) — thread-exception boundary: step_loop
      // is a thread entry point, so any exception type escaping it would
      // std::terminate the whole daemon. Non-std exceptions get a generic
      // failure record and halt the loop exactly like std ones.
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(failure_mutex_);
        failure_ = "serve: step loop failed with a non-standard exception";
      }
      failed_.store(true, std::memory_order_release);
      queue_.close();
      break;
    }
  }
}

void Eta2Service::stop() {
  const std::lock_guard<std::mutex> slock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  stop_requested_.store(true, std::memory_order_release);
  queue_.close();
  if (step_thread_.joinable()) step_thread_.join();
  if (!failed_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(runner_mutex_);
    runner_->checkpoint();
    const std::lock_guard<std::mutex> ilock(ingest_mutex_);
    maintain_ingest_log_locked();
  }
}

bool Eta2Service::failed() {
  return failed_.load(std::memory_order_acquire);
}

std::string Eta2Service::failure() {
  const std::lock_guard<std::mutex> lock(failure_mutex_);
  return failure_;
}

}  // namespace eta2::serve
