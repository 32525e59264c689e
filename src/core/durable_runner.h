// Durable campaign runner: a transactional wrapper around Eta2Server::step()
// that makes a multi-step campaign survive crashes, kill -9, and poisoned
// steps (DESIGN.md §10).
//
// The write-ahead protocol per step:
//
//   1. BEGIN   — the step's inputs (serialized batch, capacities, fault-plan
//                cursor, RNG state) are appended to the journal
//                (io/journal.h) and fsync'd BEFORE the step runs;
//   2. execute — the step runs against an in-memory pre-step capture; a
//                ContractViolation / NumericalError / CorruptSnapshotError
//                rolls the campaign back to that capture and retries with
//                bounded backoff, up to DurableOptions::max_step_retries
//                times, after which the batch is quarantined (journaled, and
//                counted in StepHealth::quarantined_batches);
//   3. COMMIT  — the result digest and post-step RNG state are appended;
//   4. every `snapshot_cadence` steps the whole campaign (server state, RNG,
//                driver extra state) is checkpointed with two-generation
//                retention (snapshot.eta2 + snapshot.1.eta2), the journal
//                rotates to a fresh segment, and segments fully covered by
//                the fallback generation are pruned.
//
// On restart the constructor loads the newest valid snapshot (falling back
// one generation on corruption) and positions the campaign at its frontier;
// the driver then simply re-runs its loop from next_step(). Steps with a
// journaled COMMIT are re-executed deterministically and verified against
// the journaled digests (replay), quarantined steps are skipped, and a
// dangling BEGIN (crash mid-step) is executed live after its journaled
// inputs are matched byte-for-byte against the driver's. Because every
// stochastic input is restored exactly, recovery is bit-identical to an
// uninterrupted run at any thread count.
#ifndef ETA2_CORE_DURABLE_RUNNER_H
#define ETA2_CORE_DURABLE_RUNNER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/eta2_server.h"
#include "io/journal.h"

namespace eta2::core {

struct DurableOptions {
  std::string dir;  // campaign directory (created if absent)
  // Steps between full campaign snapshots. The journal bounds the replay a
  // crash costs to at most this many steps per retained generation.
  std::uint64_t snapshot_cadence = 8;
  // Extra attempts for a step that throws ContractViolation /
  // NumericalError / CorruptSnapshotError (0 = quarantine on first failure).
  // eta2::CancelledError is terminal: rollback + quarantine, never a retry.
  int max_step_retries = 2;
  // Backoff before retry k. With multiplier > 1 the delay grows
  // exponentially: retry_backoff_ms * multiplier^(k-1); the default
  // multiplier (1.0) keeps the historical linear ramp k * retry_backoff_ms.
  // Either shape is clamped to retry_backoff_max_ms when that cap is > 0,
  // then stretched by a deterministic jitter factor in
  // [1 - retry_jitter, 1 + retry_jitter] hashed from (campaign seed, step,
  // attempt) — decorrelated across steps yet reproducible on replay. A 0
  // base means no sleep, the right setting for deterministic failures.
  int retry_backoff_ms = 0;
  double retry_backoff_multiplier = 1.0;
  int retry_backoff_max_ms = 0;
  double retry_jitter = 0.0;
  std::uint64_t max_segment_bytes = 1 << 20;
  // Crash-torture instrumentation: invoked at named protocol instants
  // ("journal-append-mid", "journal-append-post", "snapshot-pre-rename",
  // "snapshot-post-rename", "journal-rotate", "journal-prune"). Torture
  // children raise SIGKILL from it.
  std::function<void(std::string_view point)> crash_hook;
  // Test instrumentation: invoked before every execution attempt.
  std::function<void(std::uint64_t step, int attempt)> attempt_hook;
};

class DurableRunner {
 public:
  struct StepOutcome {
    Eta2Server::StepResult result;  // default-constructed when quarantined
    bool quarantined = false;       // step abandoned after retries
    // The quarantine came from a watchdog cancellation (CancelledError):
    // deadline breach or shutdown, not a failing step — never retried.
    bool cancelled = false;
    bool replayed = false;  // reproduced from the journal after a restart
    int attempts = 1;       // execution attempts this step consumed
    std::string error;      // last failure when attempts > 1 or quarantined
  };

  struct Callbacks {
    // Builds the step's observation callback. Invoked exactly once per
    // execution attempt (live, retry, or replay), so per-attempt side
    // effects — fault-plan stats recording, forking the observation RNG off
    // rng() — belong here and are rolled back/replayed consistently.
    std::function<CollectFn(std::uint64_t step)> make_collect;
    // Invoked after the step's outcome is durable (COMMIT / QUARANTINE
    // appended, or replayed from the journal) and BEFORE any cadence
    // snapshot, so driver state folded in here is captured by it.
    std::function<void(std::uint64_t step, const StepOutcome& outcome)>
        on_step;
    // Serialize / restore the driver state that rides along in campaign
    // snapshots (metric accumulators, fault-plan stats, ...). load_extra
    // receives nullptr to reset to the initial (step 0) state; both are
    // optional but must be given together.
    std::function<void(std::ostream& out)> save_extra;
    std::function<void(std::istream* in)> load_extra;
  };

  // Opens (or creates) the campaign at options.dir. `seed` must be the same
  // on every open of a campaign; server config and embedder are code, not
  // data, and are supplied again like Eta2Server::load's. Performs crash
  // recovery: loads the newest valid snapshot generation and scans the
  // journal; next_step() tells the driver where to resume its loop.
  DurableRunner(std::size_t user_count, Eta2Config config,
                std::shared_ptr<const text::Embedder> embedder,
                std::uint64_t seed, DurableOptions options,
                Callbacks callbacks);
  ~DurableRunner();
  DurableRunner(const DurableRunner&) = delete;
  DurableRunner& operator=(const DurableRunner&) = delete;

  // Runs (or replays) the step next_step() on the given batch. The inputs
  // must be derived deterministically from the step number — on replay they
  // are matched against the journaled BEGIN record.
  StepOutcome run_step(std::span<const NewTask> tasks,
                       std::span<const double> user_capacity);

  // Forces a full campaign snapshot now (also invoked automatically every
  // snapshot_cadence steps). Call after the driver loop finishes so the
  // final steps never need replay.
  void checkpoint();

  // The next step to run: 0 on a fresh campaign, the snapshot frontier
  // after recovery (steps between the frontier and the journal head replay
  // inside run_step).
  [[nodiscard]] std::uint64_t next_step() const { return next_step_; }
  // True when the constructor resumed prior on-disk progress.
  [[nodiscard]] bool resumed() const { return resumed_; }
  [[nodiscard]] std::uint64_t replayed_steps() const {
    return replayed_steps_;
  }
  [[nodiscard]] std::uint64_t quarantined_steps() const {
    return quarantined_steps_;
  }

  [[nodiscard]] const Eta2Server& server() const { return *server_; }
  // The campaign RNG (the stream Eta2Server::step consumes). Drivers fork
  // observation streams off it inside make_collect; it is restored exactly
  // on rollback and recovery.
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] const DurableOptions& options() const { return options_; }

  // True when `step` has a journaled outcome (COMMIT / QUARANTINE) awaiting
  // replay — run_step for it will reproduce the journal rather than execute
  // live. The serve layer disables request deadlines for such steps: a
  // replay must not be cancelled mid-flight, or recovery would diverge.
  [[nodiscard]] bool pending_replay(std::uint64_t step) const {
    return pending_.find(step) != pending_.end();
  }

  // Frontier of the oldest retained snapshot generation: every step below
  // it is durable in a snapshot and can never replay again, so drivers that
  // keep their own per-step input logs (the serve layer's ingest WAL) may
  // prune entries below this bound.
  [[nodiscard]] std::uint64_t fallback_frontier() const {
    return fallback_next_step_;
  }

  // The delay (ms) slept before execution attempt `attempt` of `step`
  // (attempt 0 is the first try and never sleeps). Pure function of its
  // arguments — exposed so backoff shapes are unit-testable without clocks.
  [[nodiscard]] static std::uint64_t retry_delay_ms(
      const DurableOptions& options, std::uint64_t seed, std::uint64_t step,
      int attempt);

  // Campaign file names inside options().dir.
  [[nodiscard]] static std::string snapshot_file_name() {
    return "snapshot.eta2";
  }
  [[nodiscard]] static std::string fallback_snapshot_file_name() {
    return "snapshot.1.eta2";
  }

 private:
  // Full campaign state (next_step, RNG, extra, server) as the v1 text
  // payload of a campaign snapshot.
  [[nodiscard]] std::string serialize_campaign() const;
  void restore_campaign(const std::string& payload);
  void recover_or_init();
  void hook(std::string_view point);
  [[nodiscard]] std::string serialize_inputs(
      std::span<const NewTask> tasks,
      std::span<const double> user_capacity) const;

  StepOutcome replay_step(const io::JournalRecord& record,
                          std::span<const NewTask> tasks,
                          std::span<const double> user_capacity);
  StepOutcome execute_step(std::span<const NewTask> tasks,
                           std::span<const double> user_capacity,
                           bool begin_already_journaled);

  Eta2Config config_;
  std::shared_ptr<const text::Embedder> embedder_;
  std::size_t user_count_;
  std::uint64_t seed_;
  DurableOptions options_;
  Callbacks callbacks_;

  std::unique_ptr<Eta2Server> server_;
  Rng rng_;
  io::JournalWriter journal_;

  std::uint64_t next_step_ = 0;
  bool resumed_ = false;
  std::uint64_t replayed_steps_ = 0;
  std::uint64_t quarantined_steps_ = 0;

  // Journaled outcomes (COMMIT / QUARANTINE) at or past the snapshot
  // frontier, consumed as the driver's loop advances through them.
  std::map<std::uint64_t, io::JournalRecord> pending_;
  // Dangling BEGIN record of a step that crashed mid-execution, if any.
  std::optional<io::JournalRecord> pending_begin_;

  // Frontiers of the on-disk generations: snapshot.eta2 and snapshot.1.
  std::uint64_t snapshot_next_step_ = 0;
  std::uint64_t fallback_next_step_ = 0;
};

}  // namespace eta2::core

#endif  // ETA2_CORE_DURABLE_RUNNER_H
