// eta2_perfbench: the end-to-end benchmark (see ../README.md).
//
//   eta2_perfbench --workload campaign-synthetic|campaign-sfv --seed N
//                  --seconds S --trace 0|1 [--scale full|tiny]
//                  [--perturb none|trace-digest|repeat-counter|simulate-error]
//                  [--git-commit SHA] [--command "..."] [--workdir DIR]
//
// Prints a metadata line {"meta": {...}}, then as the last line the result
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Any failed
// correctness gate prints a diagnostic on stderr, no result, and exits 1.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "campaign.h"
#include "report.h"
#include "serve_phase.h"
#include "trace.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  Perturb perturb = Perturb::kNone;
  std::string git_commit = "unknown";
  std::string command;
  std::string workdir = ".bench_run";
};

int usage(const char* why) {
  std::fprintf(stderr, "eta2_perfbench: %s\n", why);
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return false;
  try {
    args.workload = kv.at("workload");
    args.seed = std::stoull(kv.at("seed"));
    args.seconds = std::stod(kv.at("seconds"));
    args.trace = kv.at("trace") == "1";
  } catch (const std::exception&) {
    return false;
  }
  if (kv.count("scale")) args.tiny = kv["scale"] == "tiny";
  if (kv.count("git-commit")) args.git_commit = kv["git-commit"];
  if (kv.count("command")) args.command = kv["command"];
  if (kv.count("workdir")) args.workdir = kv["workdir"];
  const std::string perturb = kv.count("perturb") ? kv["perturb"] : "none";
  if (perturb == "trace-digest") {
    args.perturb = Perturb::kTraceDigest;
  } else if (perturb == "repeat-counter") {
    args.perturb = Perturb::kRepeatCounter;
  } else if (perturb == "simulate-error") {
    args.perturb = Perturb::kSimulateError;
  } else if (perturb != "none") {
    return false;
  }
  return args.seconds > 0.0;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum_of(const std::vector<CampaignCounters>& counters,
              std::uint64_t CampaignCounters::*field) {
  double total = 0.0;
  for (const CampaignCounters& c : counters) {
    total += static_cast<double>(c.*field);
  }
  return total;
}

using Window = ServePhase::Window;

// Median over the open-loop windows of each window's q-quantile.
double windowed(const ServePhase& serve, std::vector<double> Window::*samples,
                double q) {
  std::vector<double> per_window;
  for (const Window& w : serve.windows) {
    if (!(w.*samples).empty()) per_window.push_back(quantile(w.*samples, q));
  }
  return median(per_window);
}

std::vector<Metric> end_to_end(const CampaignPhase& campaign,
                               const ServePhase& serve, double setup_s) {
  const double attempted =
      static_cast<double>(campaign.steps + serve.offered);
  const double failed =
      static_cast<double>(campaign.failed_steps + serve.failed);
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"ok_share", 1.0 - failed / attempted, "share"},
      {"campaign.obs_per_s", median(campaign.cycle_obs_per_s), "1/s"},
      {"campaign.step_ms_p50", median(campaign.cycle_step_ms_p50), "ms"},
      {"campaign.step_ms_p90", median(campaign.cycle_step_ms_p90), "ms"},
      {"campaign.error", campaign.error, "sigma"},
      {"serve.cpu_us_per_request", serve.service_cpu_us_per_request, "us"},
      {"serve.drain_cpu_us_per_step", median(serve.drain_cpu_us_per_step),
       "us"},
  };
}

std::vector<Metric> per_layer(const CampaignPhase& campaign,
                              const ServePhase& serve) {
  const StageTotals& t = campaign.traced;
  const double steps = static_cast<double>(campaign.traced_steps);
  const double campaigns = static_cast<double>(campaign.traced_campaigns);
  const double refs = static_cast<double>(campaign.reference.size());
  const auto per_ref = [&](std::uint64_t CampaignCounters::*field) {
    return sum_of(campaign.reference, field) / refs;
  };
  const double gain_evals =
      sum_of(campaign.reference, &CampaignCounters::gain_evals);
  const double selections =
      sum_of(campaign.reference, &CampaignCounters::selections);
  const double step_ms = campaign.traced_step_ms_total / steps;
  const double untraced_campaign_ms =
      campaign.step_ms_total / static_cast<double>(campaign.campaigns);
  const double traced_campaign_ms = campaign.traced_step_ms_total / campaigns;
  const double drain_steps = static_cast<double>(serve.drain_steps_traced);
  return {
      {"alloc.allocate_ms", t.alloc_ms / steps, "ms"},
      {"alloc.warmup_ms", t.warmup_alloc_ms / steps, "ms"},
      {"alloc.pairs", per_ref(&CampaignCounters::pairs), "count"},
      {"alloc.gain_evals", gain_evals / refs, "count"},
      {"alloc.heap_pops", per_ref(&CampaignCounters::heap_pops), "count"},
      {"alloc.gain_evals_per_selection",
       selections > 0.0 ? gain_evals / selections : 0.0,
       "ratio"},
      {"clustering.identify_ms", (t.identify_ms - t.embed_ms) / steps, "ms"},
      {"clustering.domains", per_ref(&CampaignCounters::domains), "count"},
      {"text.embed_ms", t.embed_ms / steps, "ms"},
      {"text.embed_calls", static_cast<double>(t.embed_calls) / campaigns,
       "count"},
      {"truth.update_ms", t.truth_ms / steps, "ms"},
      {"truth.warmup_ms", t.warmup_truth_ms / steps, "ms"},
      {"truth.mle_iterations", per_ref(&CampaignCounters::mle_iterations),
       "count"},
      {"core.collect_ms", t.collect_ms / steps, "ms"},
      {"core.collect_calls", static_cast<double>(t.collect_calls) / campaigns,
       "count"},
      {"core.step_ms", step_ms, "ms"},
      {"core.step_other_ms", step_ms - t.span_ms() / steps, "ms"},
      {"core.durable_ms",
       (serve.drain_ms_traced - serve.backlog_spans.span_ms()) / drain_steps,
       "ms"},
      {"io.wal_bytes_per_step", serve.wal_bytes_per_step, "bytes"},
      {"io.fsync_ms_per_step", serve.fsync_ms_per_step, "ms"},
      {"serve.ack_ms_p50", windowed(serve, &Window::ack_ms, 0.5), "ms"},
      {"serve.ack_ms_p90", windowed(serve, &Window::ack_ms, 0.9), "ms"},
      {"serve.ack_ms_p99", windowed(serve, &Window::ack_ms, 0.99), "ms"},
      {"serve.commit_ms_p50", windowed(serve, &Window::commit_ms, 0.5), "ms"},
      {"serve.commit_ms_p90", windowed(serve, &Window::commit_ms, 0.9), "ms"},
      {"serve.commit_ms_p99", windowed(serve, &Window::commit_ms, 0.99), "ms"},
      {"serve.drain_steps_per_s", median(serve.drain_steps_per_s), "1/s"},
      {"serve.ingest_call_ms_p50", quantile(serve.ingest_call_ms, 0.5), "ms"},
      {"serve.ingest_call_ms_p99", quantile(serve.ingest_call_ms, 0.99), "ms"},
      {"serve.socket_ms_p50",
       windowed(serve, &Window::service_ms, 0.5) -
           quantile(serve.ingest_call_ms, 0.5),
       "ms"},
      {"serve.queue_wait_ms_p50", quantile(serve.queue_wait_ms, 0.5), "ms"},
      {"serve.queue_wait_ms_p99", quantile(serve.queue_wait_ms, 0.99), "ms"},
      {"serve.queue_depth_hwm", static_cast<double>(serve.queue_depth_hwm),
       "count"},
      {"serve.generator_lag_ms_p99", windowed(serve, &Window::lag_ms, 0.99),
       "ms"},
      {"trace.overhead_pct",
       100.0 * (traced_campaign_ms / untraced_campaign_ms - 1.0), "%"},
  };
}

std::string meta_line(const Args& args, const HostFacts& host,
                      const CampaignSetup& setup, const ServeSetup& serve_setup,
                      double serve_seconds, const std::string& fs_type,
                      const CampaignPhase& campaign, const ServePhase& serve) {
  std::string digests;
  for (const CampaignCounters& c : campaign.reference) {
    if (!digests.empty()) digests += ", ";
    digests += json_string(hex64(c.digest));
  }
  std::string out = "{\"meta\": {";
  out += "\"git_commit\": " + json_string(args.git_commit);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += ", \"eta2_checks\": " + json_string(PERFBENCH_CHECKS);
  out += ", \"sanitizer\": false";
  out += ", \"nproc\": " + std::to_string(host.affinity_cpus);
  out += ", \"online_cpus\": " + std::to_string(host.online_cpus);
  out += ", \"hardware_concurrency\": " +
         std::to_string(host.hardware_concurrency);
  out += ", \"parallel_lanes\": " + std::to_string(host.parallel_lanes);
  out += ", \"workload\": " + json_string(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + json_number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"scale\": " + json_string(args.tiny ? "tiny" : "full");
  out += ", \"campaign\": " + json_string(setup.shape);
  out += ", \"serve\": " +
         json_string(serve_shape(serve_setup.params, serve_seconds));
  out += ", \"serve_dir_fs\": " + json_string(fs_type);
  out += ", \"campaigns_timed\": " + std::to_string(campaign.campaigns);
  out += ", \"campaign_digests\": [" + digests + "]";
  out += ", \"backlog_digest\": " + json_string(hex64(serve.backlog_digest));
  out += ", \"open_loop_offered\": " + std::to_string(serve.offered);
  out += ", \"open_loop_failed\": " + std::to_string(serve.failed);
  out += ", \"open_loop_overloaded\": " + std::to_string(serve.overloaded);
  out += ", \"open_loop_shed\": " + std::to_string(serve.shed);
  out += ", \"command\": " + json_string(args.command);
  return out + "}}";
}

int run(const Args& args) {
  DatasetKind kind;
  if (args.workload == "campaign-synthetic") {
    kind = DatasetKind::kSynthetic;
  } else if (args.workload == "campaign-sfv") {
    kind = DatasetKind::kSfv;
  } else {
    return usage("unknown workload (campaign-synthetic | campaign-sfv)");
  }
  const HostFacts host = host_facts();
  if (host.sanitizer) {
    std::fprintf(stderr, "eta2_perfbench: refusing to report timings from a "
                         "sanitizer build\n");
    return 3;
  }
  register_traced_stages();

  ServeSetup serve_setup;
  serve_setup.root = args.workdir + "/" + args.workload + "-" +
                     std::to_string(::getpid());
  serve_setup.seed = args.seed;
  serve_setup.config.allocator = "max-quality";
  if (args.tiny) serve_setup.params.backlog = 200;
  std::filesystem::create_directories(serve_setup.root);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{serve_setup.root};
  const std::string fs_type = filesystem_type(serve_setup.root);
  if (fs_type == "tmpfs" || fs_type == "ramfs") {
    std::fprintf(stderr, "eta2_perfbench: warning: serve directory is on %s, "
                         "so fsync costs nothing\n",
                 fs_type.c_str());
  }

  // Set-up, five times: dataset generation, embedder training and a
  // fresh service open. The median is reported.
  std::vector<double> setup_s;
  CampaignSetup setup;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    setup = make_campaign_setup(kind, args.tiny, args.seed);
    open_and_close_service(serve_setup, "setup");
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }

  const double campaign_seconds = args.seconds * 0.5;
  const double serve_seconds = args.seconds * 0.4;
  const CampaignPhase campaign =
      run_campaign_phase(setup, campaign_seconds, args.trace, args.perturb);
  if (!campaign.ok) {
    std::fprintf(stderr, "eta2_perfbench: FAILED: %s\n",
                 campaign.failure.c_str());
    return 1;
  }
  const ServePhase serve =
      run_serve_phase(serve_setup, serve_seconds, args.trace, args.perturb);
  if (!serve.ok) {
    std::fprintf(stderr, "eta2_perfbench: FAILED: %s\n", serve.failure.c_str());
    return 1;
  }

  const std::vector<Metric> metrics =
      args.trace ? per_layer(campaign, serve)
                 : end_to_end(campaign, serve, median(setup_s));
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "eta2_perfbench: FAILED: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  std::printf("%s\n", meta_line(args, host, setup, serve_setup, serve_seconds,
                                fs_type, campaign, serve)
                          .c_str());
  std::printf("%s\n",
              result_line(true, campaign.steps + serve.offered,
                          campaign.failed_steps + serve.failed, metrics)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    return usage("usage: --workload W --seed N --seconds S --trace 0|1");
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eta2_perfbench: FAILED: %s\n", e.what());
    return 1;
  }
}
