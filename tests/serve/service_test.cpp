// Eta2Service in-process: durable ingest -> step -> query, deadline
// cancellation, ledger reconciliation, and stop/reopen recovery of the
// WAL'd backlog. Everything runs in deterministic mode (no step thread, a
// fake clock), so these tests never wait on real time.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "serve/batch.h"

namespace {

namespace fs = std::filesystem;
using eta2::serve::Admission;
using eta2::serve::Eta2Service;
using eta2::serve::IngestBatch;

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("eta2_service_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Deterministic service: no step thread, fake clock, no deadlines unless
  // the test turns them on.
  Eta2Service::Options make_options(const std::string& subdir) {
    Eta2Service::Options options;
    options.dir = (dir_ / subdir).string();
    options.user_count = 6;
    options.seed = 11;
    options.start_step_thread = false;
    options.time_source = [this] {
      return eta2::serve::TimePoint(
          std::chrono::milliseconds(fake_ms_.load()));
    };
    options.durable.snapshot_cadence = 4;
    return options;
  }

  static IngestBatch make_batch(std::uint64_t salt, int priority = 1) {
    IngestBatch batch;
    batch.priority = priority;
    for (std::size_t t = 0; t < 3; ++t) {
      eta2::core::NewTask task;
      task.known_domain = (salt + t) % 4;
      task.processing_time = 0.5 + 0.1 * static_cast<double>(t);
      task.cost = 1.0;
      batch.tasks.push_back(task);
      for (std::size_t u = 0; u < 4; ++u) {
        batch.observations.push_back(
            {t, u, 10.0 + static_cast<double>((salt + u) % 5)});
      }
    }
    return batch;
  }

  fs::path dir_;
  std::atomic<std::int64_t> fake_ms_{1};
};

TEST_F(ServiceTest, IngestDrainQuery) {
  Eta2Service service(make_options("campaign"));
  const auto result = service.ingest(make_batch(1));
  EXPECT_EQ(result.decision, Admission::kAccepted);
  EXPECT_EQ(result.seq, 0u);
  EXPECT_EQ(service.queue_depth(), 1u);

  EXPECT_EQ(service.drain(), 1u);
  EXPECT_EQ(service.steps_completed(), 1u);
  const auto view = service.query();
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->steps_completed, 1u);
  EXPECT_EQ(view->truth.size(), 3u);
  EXPECT_EQ(view->task_domains.size(), 3u);

  const auto health = service.health().snapshot();
  EXPECT_EQ(health.ingests_offered, 1u);
  EXPECT_EQ(health.accepted, 1u);
  EXPECT_EQ(health.steps_committed, 1u);
  EXPECT_EQ(health.quarantined, 0u);
  service.stop();
}

TEST_F(ServiceTest, InvalidBatchesCountMalformed) {
  Eta2Service service(make_options("campaign"));
  IngestBatch wrong_arity = make_batch(1);
  wrong_arity.user_capacity = {1.0, 2.0};  // user_count is 6
  EXPECT_THROW(service.ingest(std::move(wrong_arity)), std::invalid_argument);
  IngestBatch bad_user = make_batch(2);
  bad_user.observations.push_back({0, 99, 1.0});
  EXPECT_THROW(service.ingest(std::move(bad_user)), std::invalid_argument);
  IngestBatch bad_time = make_batch(3);
  bad_time.tasks[0].processing_time = 0.0;
  EXPECT_THROW(service.ingest(std::move(bad_time)), std::invalid_argument);

  const auto health = service.health().snapshot();
  EXPECT_EQ(health.ingests_offered, 3u);
  EXPECT_EQ(health.malformed, 3u);
  EXPECT_EQ(health.accepted, 0u);
  EXPECT_EQ(service.queue_depth(), 0u);
  service.stop();
}

TEST_F(ServiceTest, LedgerReconcilesUnderOverload) {
  auto options = make_options("campaign");
  options.admission.max_depth = 4;
  options.admission.shed_watermark = 0.25;  // shed priority 0 at depth 1
  options.admission.shed_priority_threshold = 1;
  Eta2Service service(std::move(options));

  std::uint64_t accepted = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t shed = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    // Alternate priorities so the shed tier fires too.
    const auto result = service.ingest(make_batch(i, i % 2 == 0 ? 0 : 1));
    if (result.decision == Admission::kAccepted) ++accepted;
    if (result.decision == Admission::kOverloaded) ++overloaded;
    if (result.decision == Admission::kShed) ++shed;
  }
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(shed, 0u);
  const auto health = service.health().snapshot();
  EXPECT_EQ(health.ingests_offered, 10u);
  EXPECT_EQ(health.accepted +
                health.rejected_overloaded + health.shed + health.malformed,
            health.ingests_offered);
  EXPECT_EQ(health.accepted, accepted);
  // Every accepted batch is runnable after the overload episode.
  EXPECT_EQ(service.drain(), accepted);
  EXPECT_EQ(service.steps_completed(), accepted);
  service.stop();
}

TEST_F(ServiceTest, DeadlineBreachCancelsAndQuarantines) {
  auto options = make_options("campaign");
  options.step_deadline_ms = 10;
  Eta2Service service(std::move(options));

  EXPECT_EQ(service.ingest(make_batch(1)).decision, Admission::kAccepted);
  // The step starts long after its deadline: the watchdog cancels it at
  // the first cooperative cancellation point.
  fake_ms_.store(10'000);
  EXPECT_EQ(service.drain(), 1u);

  const auto health = service.health().snapshot();
  EXPECT_EQ(health.quarantined, 1u);
  EXPECT_EQ(health.timed_out, 1u);
  EXPECT_EQ(health.steps_committed, 0u);
  // The campaign advanced past the quarantined step (journaled skip).
  EXPECT_EQ(service.steps_completed(), 1u);
  // A later batch with a fresh deadline commits normally.
  EXPECT_EQ(service.ingest(make_batch(2)).decision, Admission::kAccepted);
  EXPECT_EQ(service.drain(), 1u);
  EXPECT_EQ(service.health().snapshot().steps_committed, 1u);
  service.stop();
}

TEST_F(ServiceTest, StopReopenRunsWaledBacklog) {
  const std::string campaign = (dir_ / "campaign").string();
  std::string reference_view;
  {
    // Reference: same three batches, fully drained in one life.
    Eta2Service reference(make_options("reference"));
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(reference.ingest(make_batch(i)).decision,
                Admission::kAccepted);
    }
    EXPECT_EQ(reference.drain(), 3u);
    reference_view = eta2::serve::serialize_query_view(*reference.query());
    reference.stop();
  }
  {
    Eta2Service service(make_options("campaign"));
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(service.ingest(make_batch(i)).decision, Admission::kAccepted);
    }
    // Only one of three accepted batches runs before shutdown.
    EXPECT_EQ(service.drain(1), 1u);
    service.stop();
  }
  {
    // Reopen: the two unrun batches come back from the ingest WAL.
    Eta2Service service(make_options("campaign"));
    EXPECT_EQ(service.steps_completed(), 1u);
    EXPECT_EQ(service.queue_depth(), 2u);
    EXPECT_EQ(service.drain(), 2u);
    EXPECT_EQ(service.steps_completed(), 3u);
    // Bit-identical to the uninterrupted reference.
    EXPECT_EQ(eta2::serve::serialize_query_view(*service.query()),
              reference_view);
    service.stop();
  }
}

TEST_F(ServiceTest, ReopenAssignsFreshSequenceNumbers) {
  {
    Eta2Service service(make_options("campaign"));
    EXPECT_EQ(service.ingest(make_batch(1)).seq, 0u);
    EXPECT_EQ(service.ingest(make_batch(2)).seq, 1u);
    service.drain();
    service.stop();
  }
  {
    Eta2Service service(make_options("campaign"));
    // Past batches are consumed; the next seq continues the step count.
    EXPECT_EQ(service.queue_depth(), 0u);
    EXPECT_EQ(service.ingest(make_batch(3)).seq, 2u);
    EXPECT_EQ(service.drain(), 1u);
    service.stop();
  }
}

TEST_F(ServiceTest, FailedIngestAppendDoesNotBurnSequence) {
  // A write that fails mid-frame must not consume a sequence number: the
  // step loop runs batches strictly in seq order, so a gap would halt it at
  // the next ACCEPTED batch.
  struct AppendFailed {};
  auto options = make_options("campaign");
  int mid_appends = 0;
  options.crash_hook = [&mid_appends](std::string_view point) {
    if (point == "ingest-journal-append-mid" && ++mid_appends == 2) {
      throw AppendFailed{};
    }
  };
  Eta2Service service(std::move(options));
  EXPECT_EQ(service.ingest(make_batch(1)).seq, 0u);
  EXPECT_THROW((void)service.ingest(make_batch(2)), AppendFailed);
  const auto result = service.ingest(make_batch(3));
  EXPECT_EQ(result.decision, Admission::kAccepted);
  EXPECT_EQ(result.seq, 1u);
  EXPECT_EQ(service.drain(), 2u);
  EXPECT_EQ(service.steps_completed(), 2u);
  service.stop();
}

TEST_F(ServiceTest, StopIsIdempotentAndDestructorSafe) {
  auto options = make_options("campaign");
  options.start_step_thread = true;  // exercise the real loop + join path
  Eta2Service service(std::move(options));
  EXPECT_EQ(service.ingest(make_batch(1)).decision, Admission::kAccepted);
  service.stop();
  service.stop();  // second stop is a no-op
  // Destructor calls stop() again on an already-stopped service.
}

}  // namespace
