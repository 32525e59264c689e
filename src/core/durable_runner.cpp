#include "core/durable_runner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/error.h"
#include "io/snapshot.h"

namespace eta2::core {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kCampaignMagic = "eta2-campaign";

// Doubles travel as their IEEE-754 bit pattern (decimal uint64): exact,
// locale-proof, and parseable with plain stream extraction — hexfloat
// output is exact too, but istream extraction cannot read it back.
std::uint64_t double_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_key(std::istream& in, std::string_view key) {
  std::string token;
  if (!(in >> token) || token != key) {
    throw io::CorruptSnapshotError("durable: campaign payload: expected \"" +
                                   std::string(key) + "\", got \"" + token +
                                   "\"");
  }
}

void write_rng_line(std::ostream& out, std::string_view key,
                    const Rng::State& s) {
  out << key << " " << s.words[0] << " " << s.words[1] << " " << s.words[2]
      << " " << s.words[3] << " " << double_bits(s.spare_normal) << " "
      << (s.has_spare_normal ? 1 : 0) << "\n";
}

Rng::State read_rng_line(std::istream& in, std::string_view key) {
  expect_key(in, key);
  Rng::State s;
  std::uint64_t spare_bits = 0;
  int has = 0;
  if (!(in >> s.words[0] >> s.words[1] >> s.words[2] >> s.words[3] >>
        spare_bits >> has)) {
    throw io::CorruptSnapshotError("durable: campaign payload: bad RNG state");
  }
  s.spare_normal = std::bit_cast<double>(spare_bits);
  s.has_spare_normal = has != 0;
  return s;
}

// Reads a "<key> <byte_count>\n<raw bytes>\n" block.
std::string read_block(std::istream& in, std::string_view key) {
  expect_key(in, key);
  std::size_t bytes = 0;
  if (!(in >> bytes) || in.get() != '\n') {
    throw io::CorruptSnapshotError(
        "durable: campaign payload: bad block header for \"" +
        std::string(key) + "\"");
  }
  std::string blob(bytes, '\0');
  in.read(blob.data(), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in.gcount()) != bytes || in.get() != '\n') {
    throw io::CorruptSnapshotError(
        "durable: campaign payload: short block for \"" + std::string(key) +
        "\"");
  }
  return blob;
}

bool rng_state_equal(const Rng::State& a, const Rng::State& b) {
  return a.words == b.words &&
         double_bits(a.spare_normal) == double_bits(b.spare_normal) &&
         a.has_spare_normal == b.has_spare_normal;
}

// Canonical serialization of a StepResult for the commit digest. Everything
// downstream code can observe is covered, doubles by exact bit pattern.
std::uint32_t digest_result(const Eta2Server::StepResult& r) {
  std::ostringstream out;
  out << "truth";
  for (const double v : r.truth) out << " " << double_bits(v);
  out << "\nsigma";
  for (const double v : r.sigma) out << " " << double_bits(v);
  out << "\ncost " << double_bits(r.cost) << "\niters " << r.mle_iterations
      << " " << r.data_iterations << " " << (r.warmup ? 1 : 0) << "\ndomains";
  for (const auto d : r.task_domains) out << " " << d;
  out << "\nalloc " << r.allocation.pair_count();
  for (std::size_t j = 0; j < r.allocation.task_count(); ++j) {
    out << " |";
    for (const std::size_t i : r.allocation.users_of(j)) out << " " << i;
  }
  const StepHealth& h = r.health;
  out << "\nhealth " << h.pairs_asked << " " << h.observations_accepted << " "
      << h.rejected_nonfinite << " " << h.rejected_out_of_range << " "
      << h.silent_pairs << " " << (h.identifier_failed ? 1 : 0) << " "
      << h.domain_fallback_tasks << " " << (h.truth_fallback ? 1 : 0) << " "
      << h.quality_unmet_tasks << " " << (h.empty_batch ? 1 : 0) << " "
      << h.quarantined_batches << "\n";
  return io::crc32(out.str());
}

std::uint64_t parse_campaign_next_step(const std::string& payload) {
  std::istringstream in(payload);
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != kCampaignMagic || version != "v1") {
    throw io::CorruptSnapshotError(
        "durable: not a campaign snapshot (bad magic)");
  }
  expect_key(in, "next_step");
  std::uint64_t next = 0;
  if (!(in >> next)) {
    throw io::CorruptSnapshotError("durable: campaign payload: bad next_step");
  }
  return next;
}

// splitmix64 finalizer: the counter-hash behind deterministic retry jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string single_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

DurableRunner::DurableRunner(std::size_t user_count, Eta2Config config,
                             std::shared_ptr<const text::Embedder> embedder,
                             std::uint64_t seed, DurableOptions options,
                             Callbacks callbacks)
    : config_(std::move(config)),
      embedder_(std::move(embedder)),
      user_count_(user_count),
      seed_(seed),
      options_(std::move(options)),
      callbacks_(std::move(callbacks)),
      rng_(seed),
      journal_(options_.dir, io::JournalWriter::Options{
                                 options_.max_segment_bytes,
                                 options_.crash_hook}) {
  require(!options_.dir.empty(), "DurableRunner: campaign dir required");
  require(callbacks_.make_collect != nullptr,
          "DurableRunner: make_collect callback required");
  require((callbacks_.save_extra == nullptr) ==
              (callbacks_.load_extra == nullptr),
          "DurableRunner: save_extra and load_extra must be given together");
  require(options_.max_step_retries >= 0,
          "DurableRunner: max_step_retries >= 0");
  require(options_.retry_backoff_ms >= 0,
          "DurableRunner: retry_backoff_ms >= 0");
  require(options_.retry_backoff_multiplier >= 1.0,
          "DurableRunner: retry_backoff_multiplier >= 1");
  require(options_.retry_backoff_max_ms >= 0,
          "DurableRunner: retry_backoff_max_ms >= 0");
  require(options_.retry_jitter >= 0.0 && options_.retry_jitter <= 1.0,
          "DurableRunner: retry_jitter in [0,1]");
  recover_or_init();
}

DurableRunner::~DurableRunner() = default;

void DurableRunner::hook(std::string_view point) {
  if (options_.crash_hook) options_.crash_hook(point);
}

std::string DurableRunner::serialize_campaign() const {
  std::ostringstream out;
  out << kCampaignMagic << " v1\n";
  out << "next_step " << next_step_ << "\n";
  write_rng_line(out, "rng", rng_.state());
  std::string extra;
  if (callbacks_.save_extra) {
    std::ostringstream e;
    callbacks_.save_extra(e);
    extra = e.str();
  }
  out << "extra " << extra.size() << "\n" << extra << "\n";
  std::ostringstream sv;
  server_->save(sv);
  const std::string blob = sv.str();
  out << "server " << blob.size() << "\n" << blob << "\n";
  return out.str();
}

void DurableRunner::restore_campaign(const std::string& payload) {
  std::istringstream in(payload);
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != kCampaignMagic || version != "v1") {
    throw io::CorruptSnapshotError(
        "durable: not a campaign snapshot (bad magic)");
  }
  expect_key(in, "next_step");
  if (!(in >> next_step_)) {
    throw io::CorruptSnapshotError("durable: campaign payload: bad next_step");
  }
  rng_.restore(read_rng_line(in, "rng"));
  const std::string extra = read_block(in, "extra");
  if (callbacks_.load_extra) {
    std::istringstream es(extra);
    callbacks_.load_extra(&es);
  }
  const std::string blob = read_block(in, "server");
  std::istringstream ss(blob);
  server_ = std::make_unique<Eta2Server>(
      Eta2Server::load(ss, config_, embedder_));
}

void DurableRunner::recover_or_init() {
  fs::create_directories(options_.dir);
  const std::string snap = options_.dir + "/" + snapshot_file_name();
  const std::string fall = options_.dir + "/" + fallback_snapshot_file_name();

  // A generation loads when its file exists and passes the v2 envelope
  // check; corruption (CorruptSnapshotError) falls through to the next.
  const auto try_load = [](const std::string& path,
                           std::string& out) -> bool {
    if (!fs::exists(path)) return false;
    try {
      out = io::unwrap_snapshot(io::read_file(path));
      return true;
    } catch (const io::CorruptSnapshotError&) {
      return false;
    }
  };

  std::string current;
  std::string fallback;
  const bool have_current = try_load(snap, current);
  const bool have_fallback = try_load(fall, fallback);
  const io::JournalScan scan = io::scan_journal(options_.dir);

  if (have_current) {
    restore_campaign(current);
    snapshot_next_step_ = next_step_;
    fallback_next_step_ =
        have_fallback ? parse_campaign_next_step(fallback) : next_step_;
    resumed_ = next_step_ > 0;
  } else if (have_fallback) {
    // The newest generation is torn or corrupt (crash between the
    // generation rename and the new write, or disk damage); fall back one
    // generation and let the journal replay close the gap.
    restore_campaign(fallback);
    snapshot_next_step_ = next_step_;
    fallback_next_step_ = next_step_;
    resumed_ = true;
  } else if (fs::exists(snap) || fs::exists(fall) || !scan.records.empty()) {
    // Journaled steps (or snapshot files) exist but no generation loads:
    // starting over would re-run durable work, so refuse loudly. A journal
    // with zero complete records carries no progress — a crash between
    // segment creation and the base snapshot — and re-initializes below.
    throw io::CorruptSnapshotError(
        "durable: campaign at " + options_.dir +
        " is unrecoverable: no snapshot generation passes its integrity "
        "check");
  } else {
    // Fresh campaign.
    server_ = std::make_unique<Eta2Server>(user_count_, config_, embedder_);
    rng_ = Rng(seed_);
    next_step_ = 0;
    if (callbacks_.load_extra) callbacks_.load_extra(nullptr);
    resumed_ = false;
  }

  journal_.open(scan);
  for (const io::JournalRecord& record : scan.records) {
    if (record.step < next_step_) continue;  // covered by the loaded snapshot
    if (record.type == io::RecordType::kStepBegin) {
      pending_begin_ = record;
    } else {
      pending_[record.step] = record;
      if (pending_begin_ && pending_begin_->step == record.step) {
        pending_begin_.reset();
      }
    }
  }
  // Only the journal's final step may legitimately dangle; a stale BEGIN
  // below the outcome frontier carries no information.
  if (pending_begin_ && !pending_.empty() &&
      pending_begin_->step <= pending_.rbegin()->first) {
    pending_begin_.reset();
  }
  resumed_ = resumed_ || !pending_.empty() || pending_begin_.has_value();

  // A brand-new campaign checkpoints immediately so recovery always has a
  // base snapshot to replay from.
  if (!have_current && !have_fallback) checkpoint();
}

std::string DurableRunner::serialize_inputs(
    std::span<const NewTask> tasks,
    std::span<const double> user_capacity) const {
  std::ostringstream out;
  out << "step " << next_step_ << "\n";
  write_rng_line(out, "rng", rng_.state());
  out << "fault_cursor " << next_step_ << "\n";
  out << "capacities " << user_capacity.size();
  for (const double v : user_capacity) out << " " << double_bits(v);
  out << "\ntasks " << tasks.size() << "\n";
  for (const NewTask& t : tasks) {
    out << "task ";
    if (t.known_domain.has_value()) {
      out << *t.known_domain;
    } else {
      out << "-";
    }
    out << " " << double_bits(t.processing_time) << " " << double_bits(t.cost)
        << " " << t.description.size() << "\n"
        << t.description << "\n";
  }
  return out.str();
}

DurableRunner::StepOutcome DurableRunner::execute_step(
    std::span<const NewTask> tasks, std::span<const double> user_capacity,
    bool begin_already_journaled) {
  const std::uint64_t step = next_step_;
  const std::string inputs = serialize_inputs(tasks, user_capacity);
  if (begin_already_journaled) {
    // Crash recovery handed us a dangling BEGIN: the inputs were made
    // durable before the crash, so the driver must reproduce them exactly.
    if (pending_begin_->payload != inputs) {
      throw io::CorruptSnapshotError(
          "durable: resumed step " + std::to_string(step) +
          ": inputs diverge from the journaled BEGIN record");
    }
    pending_begin_.reset();
  } else {
    journal_.append(io::RecordType::kStepBegin, step, inputs);
  }

  // Pre-step capture: rollback target for retries and quarantine. Taken
  // after BEGIN so a crash from here on finds the step's inputs on disk.
  const std::string capture = serialize_campaign();

  StepOutcome outcome;
  int attempt = 0;
  bool done = false;
  while (!done) {
    if (attempt > 0) {
      restore_campaign(capture);
      const std::uint64_t delay =
          retry_delay_ms(options_, seed_, step, attempt);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            static_cast<std::chrono::milliseconds::rep>(delay)));
      }
    }
    if (options_.attempt_hook) options_.attempt_hook(step, attempt);
    try {
      const CollectFn collect = callbacks_.make_collect(step);
      outcome.result = server_->step(tasks, user_capacity, collect, rng_);
      outcome.attempts = attempt + 1;
      done = true;
    } catch (const CancelledError& e) {
      // A watchdog cancellation (deadline breach, shutdown) is terminal:
      // retrying would just blow the same deadline again, so the step rolls
      // back and quarantines immediately.
      outcome.error = e.what();
      outcome.cancelled = true;
    } catch (const ContractViolation& e) {
      outcome.error = e.what();
    } catch (const io::CorruptSnapshotError& e) {
      outcome.error = e.what();
    } catch (const NumericalError& e) {
      outcome.error = e.what();
    }
    if (done) break;
    ++attempt;
    if (outcome.cancelled || attempt > options_.max_step_retries) {
      restore_campaign(capture);
      outcome.attempts = attempt;
      outcome.quarantined = true;
      break;
    }
  }

  if (outcome.quarantined) {
    // The `cancelled` line is written only when set, so quarantines from
    // failing steps keep their historical byte layout and old journals
    // replay unchanged.
    std::ostringstream q;
    q << "step " << step << "\nattempts " << outcome.attempts << "\n";
    if (outcome.cancelled) q << "cancelled 1\n";
    q << "error " << single_line(outcome.error) << "\n";
    journal_.append(io::RecordType::kStepQuarantine, step, q.str());
    ++quarantined_steps_;
  } else {
    std::ostringstream c;
    c << "step " << step << "\nresult_crc " << digest_result(outcome.result)
      << "\n";
    write_rng_line(c, "rng_after", rng_.state());
    journal_.append(io::RecordType::kStepCommit, step, c.str());
  }
  next_step_ = step + 1;
  return outcome;
}

DurableRunner::StepOutcome DurableRunner::replay_step(
    const io::JournalRecord& record, std::span<const NewTask> tasks,
    std::span<const double> user_capacity) {
  const std::uint64_t step = next_step_;
  ensure(record.step == step, "durable: replay record out of order");
  StepOutcome outcome;
  outcome.replayed = true;
  std::istringstream in(record.payload);
  expect_key(in, "step");
  std::uint64_t recorded_step = 0;
  if (!(in >> recorded_step) || recorded_step != step) {
    throw io::CorruptSnapshotError(
        "durable: journal record payload disagrees with its frame at step " +
        std::to_string(step));
  }
  if (record.type == io::RecordType::kStepQuarantine) {
    expect_key(in, "attempts");
    in >> outcome.attempts;
    std::string key;
    if (!(in >> key)) key.clear();
    if (key == "cancelled") {
      int flag = 0;
      in >> flag;
      outcome.cancelled = flag != 0;
      if (!(in >> key)) key.clear();
    }
    if (key == "error") {
      std::getline(in >> std::ws, outcome.error);
    }
    outcome.quarantined = true;
    ++quarantined_steps_;
  } else {
    // Deterministic re-execution from the restored state. make_collect runs
    // once, exactly like the original attempt, so fault-plan stats and the
    // observation stream reproduce bit-identically.
    const CollectFn collect = callbacks_.make_collect(step);
    outcome.result = server_->step(tasks, user_capacity, collect, rng_);
    // Verify the replay against the journaled result digest and RNG state.
    expect_key(in, "result_crc");
    std::uint32_t expected_crc = 0;
    if (!(in >> expected_crc)) {
      throw io::CorruptSnapshotError(
          "durable: malformed COMMIT record at step " + std::to_string(step));
    }
    const Rng::State expected_rng = read_rng_line(in, "rng_after");
    if (digest_result(outcome.result) != expected_crc ||
        !rng_state_equal(rng_.state(), expected_rng)) {
      throw io::CorruptSnapshotError(
          "durable: replay of step " + std::to_string(step) +
          " diverged from the journaled commit (code or inputs changed "
          "between runs?)");
    }
  }
  ++replayed_steps_;
  next_step_ = step + 1;
  return outcome;
}

DurableRunner::StepOutcome DurableRunner::run_step(
    std::span<const NewTask> tasks, std::span<const double> user_capacity) {
  const std::uint64_t step = next_step_;
  StepOutcome outcome;
  const auto it = pending_.find(step);
  if (it != pending_.end()) {
    const io::JournalRecord record = std::move(it->second);
    pending_.erase(it);
    outcome = replay_step(record, tasks, user_capacity);
  } else if (pending_begin_ && pending_begin_->step == step) {
    outcome = execute_step(tasks, user_capacity,
                           /*begin_already_journaled=*/true);
  } else {
    outcome = execute_step(tasks, user_capacity,
                           /*begin_already_journaled=*/false);
  }
  if (callbacks_.on_step) callbacks_.on_step(step, outcome);
  if (options_.snapshot_cadence > 0 &&
      next_step_ % options_.snapshot_cadence == 0) {
    checkpoint();
  }
  return outcome;
}

std::uint64_t DurableRunner::retry_delay_ms(const DurableOptions& options,
                                            std::uint64_t seed,
                                            std::uint64_t step, int attempt) {
  if (options.retry_backoff_ms <= 0 || attempt <= 0) return 0;
  double delay = static_cast<double>(options.retry_backoff_ms);
  if (options.retry_backoff_multiplier > 1.0) {
    delay *= std::pow(options.retry_backoff_multiplier,
                      static_cast<double>(attempt - 1));
  } else {
    delay *= static_cast<double>(attempt);  // historical linear ramp
  }
  if (options.retry_backoff_max_ms > 0) {
    delay = std::min(delay, static_cast<double>(options.retry_backoff_max_ms));
  }
  if (options.retry_jitter > 0.0) {
    // Counter-hash jitter: uniform in [1 - j, 1 + j], a pure function of
    // (seed, step, attempt) so a replayed retry schedule is reproducible.
    const std::uint64_t h =
        mix64(seed ^ mix64(step ^ mix64(static_cast<std::uint64_t>(attempt))));
    const double unit =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
    const double j = std::min(options.retry_jitter, 1.0);
    delay *= 1.0 - j + 2.0 * j * unit;
  }
  delay = std::min(delay, 9.0e15);  // keep the cast below in-range
  return static_cast<std::uint64_t>(delay);
}

void DurableRunner::checkpoint() {
  const std::string payload = serialize_campaign();
  const std::string snap = options_.dir + "/" + snapshot_file_name();
  const std::string fall = options_.dir + "/" + fallback_snapshot_file_name();
  if (fs::exists(snap)) {
    // Generation rotation: the previous snapshot becomes the fallback with
    // one atomic rename. A crash between this rename and the write below
    // leaves only the fallback — recovery loads it and replays the journal.
    std::error_code ec;
    fs::rename(snap, fall, ec);
    if (ec) {
      throw std::runtime_error("durable: cannot rotate snapshot generation: " +
                               ec.message());
    }
    fallback_next_step_ = snapshot_next_step_;
  }
  io::atomic_write_file(snap, io::wrap_snapshot(payload),
                        [this] { hook("snapshot-pre-rename"); });
  hook("snapshot-post-rename");
  snapshot_next_step_ = next_step_;
  journal_.rotate();
  // Segments whose every record predates the fallback generation cannot be
  // needed by any recovery path anymore.
  journal_.prune(fallback_next_step_);
}

}  // namespace eta2::core
