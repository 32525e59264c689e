// The campaign snapshot's extra-block StepHealth serialization
// (sim/durable_sim.h): v2 round-trips every counter — including the
// domain/iteration/greedy work counters — a pinned v1 block still loads,
// resuming the newer counters from zero, and the whole extra block of a
// short default and a short defended campaign is pinned byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable_runner.h"
#include "io/snapshot.h"
#include "sim/dataset.h"
#include "sim/durable_sim.h"

namespace eta2::sim {
namespace {

core::StepHealth sample_health() {
  core::StepHealth h;
  h.pairs_asked = 120;
  h.observations_accepted = 111;
  h.rejected_nonfinite = 3;
  h.rejected_out_of_range = 2;
  h.silent_pairs = 4;
  h.identifier_failed = true;
  h.domain_fallback_tasks = 5;
  h.truth_fallback = true;
  h.quality_unmet_tasks = 6;
  h.empty_batch = true;
  h.quarantined_batches = 1;
  h.domain_count = 4;
  h.truth_iterations = 250;
  h.greedy_selections = 48;
  h.greedy_gain_evaluations = 910;
  h.greedy_heap_pops = 333;
  return h;
}

// sample_health() plus the optional trust-defense trailer a defended
// campaign (DefenseTier != kOff) writes.
core::StepHealth defended_health() {
  core::StepHealth h = sample_health();
  h.suspected_users = 7;
  h.quarantined_users = 3;
  h.readmitted_users = 1;
  h.flagged_cliques = 2;
  h.dropped_quarantined = 14;
  h.trimmed_observations = 9;
  h.trust_histogram = {1, 0, 2, 0, 0, 0, 3, 18};
  return h;
}

void expect_equal(const core::StepHealth& a, const core::StepHealth& b) {
  EXPECT_EQ(a.pairs_asked, b.pairs_asked);
  EXPECT_EQ(a.observations_accepted, b.observations_accepted);
  EXPECT_EQ(a.rejected_nonfinite, b.rejected_nonfinite);
  EXPECT_EQ(a.rejected_out_of_range, b.rejected_out_of_range);
  EXPECT_EQ(a.silent_pairs, b.silent_pairs);
  EXPECT_EQ(a.identifier_failed, b.identifier_failed);
  EXPECT_EQ(a.domain_fallback_tasks, b.domain_fallback_tasks);
  EXPECT_EQ(a.truth_fallback, b.truth_fallback);
  EXPECT_EQ(a.quality_unmet_tasks, b.quality_unmet_tasks);
  EXPECT_EQ(a.empty_batch, b.empty_batch);
  EXPECT_EQ(a.quarantined_batches, b.quarantined_batches);
  EXPECT_EQ(a.domain_count, b.domain_count);
  EXPECT_EQ(a.truth_iterations, b.truth_iterations);
  EXPECT_EQ(a.greedy_selections, b.greedy_selections);
  EXPECT_EQ(a.greedy_gain_evaluations, b.greedy_gain_evaluations);
  EXPECT_EQ(a.greedy_heap_pops, b.greedy_heap_pops);
  EXPECT_EQ(a.suspected_users, b.suspected_users);
  EXPECT_EQ(a.quarantined_users, b.quarantined_users);
  EXPECT_EQ(a.readmitted_users, b.readmitted_users);
  EXPECT_EQ(a.flagged_cliques, b.flagged_cliques);
  EXPECT_EQ(a.dropped_quarantined, b.dropped_quarantined);
  EXPECT_EQ(a.trimmed_observations, b.trimmed_observations);
  EXPECT_EQ(a.trust_histogram, b.trust_histogram);
}

TEST(SimExtraTest, StepHealthV2RoundTripsEveryCounter) {
  const core::StepHealth h = sample_health();
  std::ostringstream out;
  write_step_health(out, h);
  std::istringstream in(out.str());
  expect_equal(read_step_health(in, kSimExtraVersion), h);
}

TEST(SimExtraTest, StepHealthSerializationIsStableAcrossRoundTrips) {
  // Byte-stable: serialize(read(serialize(h))) == serialize(h) — the extra
  // block participates in snapshot digests, so drift here breaks resume.
  const core::StepHealth h = sample_health();
  std::ostringstream first;
  write_step_health(first, h);
  std::istringstream in(first.str());
  const core::StepHealth reread = read_step_health(in, kSimExtraVersion);
  std::ostringstream second;
  write_step_health(second, reread);
  EXPECT_EQ(second.str(), first.str());
}

TEST(SimExtraTest, PinnedV1BlockLoadsWithZeroShardGreedyCounters) {
  // The exact byte layout a pre-v2 campaign wrote: the eleven fault
  // counters only. Pinned as a literal so accidental format drift fails
  // here, not in a user's resumed campaign.
  std::istringstream in("120 111 3 2 4 1 5 1 6 1 1");
  const core::StepHealth h = read_step_health(in, 1);
  core::StepHealth expected = sample_health();
  expected.domain_count = 0;
  expected.truth_iterations = 0;
  expected.greedy_selections = 0;
  expected.greedy_gain_evaluations = 0;
  expected.greedy_heap_pops = 0;
  expect_equal(h, expected);
}

TEST(SimExtraTest, V1ParserStopsBeforeTrailingData) {
  // A v1 reader must not consume v2's extra fields from the stream: the
  // surrounding accumulator parser relies on the next token staying put.
  std::istringstream in("120 111 3 2 4 1 5 1 6 1 1 next-key");
  (void)read_step_health(in, 1);
  std::string next;
  ASSERT_TRUE(static_cast<bool>(in >> next));
  EXPECT_EQ(next, "next-key");
}

TEST(SimExtraTest, DefenseFreeHealthWritesNoTrustTrailer) {
  // The kOff byte-identity contract: a health block with all trust
  // counters at zero must serialize to EXACTLY the pre-trust v2 bytes —
  // the extra block feeds snapshot digests, so a defense-free campaign's
  // checkpoints cannot change when the trust code ships.
  std::ostringstream out;
  write_step_health(out, sample_health());
  EXPECT_EQ(out.str(), "120 111 3 2 4 1 5 1 6 1 1 4 250 48 910 333");
}

TEST(SimExtraTest, DefendedHealthRoundTripsTrustTrailer) {
  const core::StepHealth h = defended_health();
  std::ostringstream out;
  write_step_health(out, h);
  EXPECT_NE(out.str().find(" T "), std::string::npos);
  std::istringstream in(out.str());
  expect_equal(read_step_health(in, kSimExtraVersion), h);
  // Byte-stable, same as the defense-free block.
  std::istringstream again(out.str());
  const core::StepHealth reread = read_step_health(again, kSimExtraVersion);
  std::ostringstream second;
  write_step_health(second, reread);
  EXPECT_EQ(second.str(), out.str());
}

TEST(SimExtraTest, V2ParserWithoutTrailerStopsBeforeTrailingData) {
  // The trust trailer is detected by peeking for 'T'; a trailer-free block
  // followed by another accumulator key must leave that key unread.
  std::istringstream in(
      "120 111 3 2 4 1 5 1 6 1 1 4 250 48 910 333 next-key");
  (void)read_step_health(in, kSimExtraVersion);
  std::string next;
  ASSERT_TRUE(static_cast<bool>(in >> next));
  EXPECT_EQ(next, "next-key");
}

TEST(SimExtraTest, TruncatedHealthBlockThrows) {
  std::istringstream v2_short("120 111 3 2 4 1 5 1 6 1 1 4 250");
  EXPECT_THROW((void)read_step_health(v2_short, 2),
               io::CorruptSnapshotError);
  std::istringstream v1_short("120 111 3");
  EXPECT_THROW((void)read_step_health(v1_short, 1),
               io::CorruptSnapshotError);
  std::istringstream trust_short(
      "120 111 3 2 4 1 5 1 6 1 1 4 250 48 910 333 T 7 3 1");
  EXPECT_THROW((void)read_step_health(trust_short, 2),
               io::CorruptSnapshotError);
}


// FNV-1a over the block bytes: pins the block without embedding it.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Runs a short durable campaign in a fresh directory and returns the extra
// block of its final snapshot (the payload's "extra <bytes>\n<bytes>").
std::string campaign_extra_block(const Dataset& dataset,
                                 const SimOptions& options,
                                 const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("eta2_sim_extra_" + name))
          .string();
  std::filesystem::remove_all(dir);
  io::set_durable_fsync(false);
  core::DurableOptions durable;
  durable.dir = dir;
  durable.snapshot_cadence = 2;
  (void)simulate_durable(dataset, "eta2", options, 4, durable);
  const std::string payload = io::unwrap_snapshot(io::read_file(
      dir + "/" + core::DurableRunner::snapshot_file_name()));
  io::set_durable_fsync(true);
  std::filesystem::remove_all(dir);
  const std::size_t key = payload.find("\nextra ");
  if (key == std::string::npos) return {};
  const std::size_t size_begin = key + 7;
  const std::size_t size_end = payload.find('\n', size_begin);
  const std::size_t bytes =
      std::stoul(payload.substr(size_begin, size_end - size_begin));
  return payload.substr(size_end + 1, bytes);
}

// The aggregate "health ..." line of an extra block.
std::string health_line(const std::string& extra) {
  const std::size_t begin = extra.find("\nhealth ");
  if (begin == std::string::npos) return {};
  return extra.substr(begin + 1, extra.find('\n', begin + 1) - begin - 1);
}

Dataset pin_dataset(std::size_t users, std::size_t tasks, int days,
                    std::uint64_t seed) {
  SyntheticOptions synthetic;
  synthetic.users = users;
  synthetic.tasks = tasks;
  synthetic.domains = 4;
  synthetic.days = days;
  return make_synthetic(synthetic, seed);
}

// `name` keeps each test's campaign directory its own (ctest runs them
// concurrently).
std::string default_campaign_extra(const std::string& name) {
  return campaign_extra_block(pin_dataset(20, 120, 6, 17), SimOptions{},
                              name);
}

// kTrimmedV1 under attack.
std::string defended_campaign_extra(const std::string& name) {
  SimOptions options;
  options.config.trust.tier = truth::DefenseTier::kTrimmedV1;
  options.adversary.seed = 47;
  options.adversary.sybil_fraction = 0.2;
  options.adversary.clique_count = 1;
  options.adversary.camouflage_fraction = 0.1;
  options.adversary.drift_fraction = 0.1;
  options.adversary.burst_step_rate = 0.3;
  return campaign_extra_block(pin_dataset(24, 90, 6, 31), options, name);
}

TEST(SimExtraTest, DefaultCampaignV2BlockPinned) {
  // The v2 slots after the fault counters hold the step's domain count
  // (max over steps) and the summed truth-updater iterations; they, and the
  // rest of the block, must not drift for a default campaign.
  const std::string extra = default_campaign_extra("default");
  ASSERT_FALSE(extra.empty());
  EXPECT_EQ(health_line(extra),
            "health 1542 1542 0 0 0 0 0 0 0 0 0 4 22 2558 6252 3168");
  EXPECT_EQ(fnv1a(extra), 0x55c758da99d1dccbULL) << extra;
}

TEST(SimExtraTest, DefendedCampaignV2BlockPinned) {
  // The warm-up step counts its iterations, the trusted steady-state update
  // adds none, and the trust trailer follows.
  const std::string extra = defended_campaign_extra("defended");
  ASSERT_FALSE(extra.empty());
  EXPECT_EQ(health_line(extra),
            "health 1771 1771 0 0 0 0 0 0 0 0 0 4 9 2933 6464 3294 T 3 0 0 "
            "0 0 18 8 0 1 4 2 10 5 33 89");
  EXPECT_EQ(fnv1a(extra), 0xc19a62baafcf12a0ULL) << extra;
}

// The block with the greedy's gain-evaluation and heap-pop counters (the
// last two v2 work-counter slots) of every "health" and "dh" line replaced
// by "*"; every other byte is kept.
std::string mask_greedy_work(const std::string& extra) {
  std::string out;
  std::istringstream lines(extra);
  std::string line;
  while (std::getline(lines, line)) {
    std::vector<std::string> words;
    std::size_t begin = 0;
    for (std::size_t end; (end = line.find(' ', begin)) != std::string::npos;
         begin = end + 1) {
      words.push_back(line.substr(begin, end - begin));
    }
    words.push_back(line.substr(begin));
    if ((words[0] == "health" || words[0] == "dh") && words.size() >= 17) {
      words[15] = "*";
      words[16] = "*";
    }
    for (std::size_t w = 0; w < words.size(); ++w) {
      out += (w == 0 ? "" : " ") + words[w];
    }
    if (!lines.eof()) out += '\n';
  }
  return out;
}

TEST(SimExtraTest, CampaignV2BlocksMatchParentOutsideGreedyWork) {
  // How much work a greedy pick costs may change, what it picks may not:
  // with the two greedy work counters masked, both campaigns' blocks hash
  // exactly as before exact CELF invalidation (the truth, costs, health
  // and trust trailers are the same bytes). The constants hash the masked
  // blocks of the engine that pushed every picked task back unrefreshed
  // (default 11291 evaluations / 8237 pops, defended 12137 / 9116).
  EXPECT_EQ(fnv1a(mask_greedy_work(default_campaign_extra("default_masked"))),
            0xb7405d2cafaa67dfULL);
  EXPECT_EQ(
      fnv1a(mask_greedy_work(defended_campaign_extra("defended_masked"))),
      0x02b4b6824cf50416ULL);
}

}  // namespace
}  // namespace eta2::sim
