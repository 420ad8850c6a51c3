// Serve-and-learn benchmark runner: one workload, one seed, one run.
//
//   loam_perfbench --workload <recurring|adhoc|learn> --seed <n>
//                  --seconds <s> --trace <0|1> --workdir <dir>
//                  [--git-sha <sha>] [--source-digest <hex>]
//
// A run sets the service up several times (setup_s is their median), warms
// it, then drives an open-loop steady phase at a fixed rate well under the
// model path's capacity and a saturation phase above it, from one generator
// thread. `--seconds` is split evenly between the two phases. The
// learn workload records feedback as its decisions resolve, so background
// retrains run beside serving; the others record the feedback of their first
// steady decisions afterwards and retrain five times, so every workload reports
// the same metrics. A traced run (--trace 1) repeats the steady phase with
// obs metrics and spans on and prints the per-layer ledger instead of the
// end-to-end metrics. The last stdout line is the JSON result.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/gate.h"
#include "nn/simd.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "util/hash.h"
#include "warehouse/flighting.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using loam::core::ProjectRuntime;

// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
// The warehouse's past: fixed per workload, not drawn from the run seed, so
// every seed serves the same bootstrap model.
constexpr int kHistoryDays = 3;
constexpr int kHistoryPerDay = 80;
constexpr std::uint64_t kHistorySeed = 20210707;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSteadyShare = 0.5;  // of --seconds; the rest saturates
// Percentiles are medians over chunks of this many consecutive samples, so
// each chunk's p99 has ten samples beyond it.
constexpr std::size_t kChunk = 1000;
// Feedback epilogue of the frozen-model workloads: three p99 chunks, then
// five retrains on the journal it leaves (retrain_s is their median, which
// one slow retrain cannot move).
constexpr std::size_t kEpilogueFeedback = 3 * kChunk;
constexpr int kEpilogueRetrains = 5;
constexpr std::size_t kCheckPerPhase = 128;
constexpr std::size_t kCostKeys = 300;
constexpr int kCostRuns = 3;
constexpr std::size_t kProbeQueries = 200;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have_seconds = true;
    } else if (k == "--trace") {
      a.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.workdir.empty() || !have_seed ||
      !have_seconds || !have_trace || !(a.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: loam_perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--workdir DIR [--git-sha SHA] [--source-digest HEX]");
  }
  return a;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

loam::serve::ServeConfig service_config(const WorkloadSpec& spec,
                                        const std::string& dir) {
  loam::serve::ServeConfig cfg;
  cfg.num_shards = kShards;
  cfg.explorer.num_threads = kExplorerThreads;
  cfg.predictor.num_threads = kPredictorThreads;
  cfg.gate.replay_threads = kGateReplayThreads;
  cfg.pacing.enabled = true;
  // Admission floor of two full batches per shard: one in service, one
  // filling. At the default floor (4) the saturated window settled at 4-9
  // requests, so model_rps measured batch-linger and thread wake-up timing of
  // a shared host (IQR ~20% of the median across seeds) instead of the model
  // path's capacity.
  cfg.pacing.min_inflight = 2.0 * cfg.max_batch;
  // No deviance rollback: a rollback onto the native fallback would turn the
  // rest of a run into a different path. The monitor still observes.
  cfg.monitor.max_mean_overrun = std::numeric_limits<double>::infinity();
  // Frozen model on recurring/adhoc; a fixed feedback cadence on learn.
  cfg.auto_retrain = spec.traffic == Traffic::kLearn;
  // Every retrain fits the same number of executed records (the history
  // fills the window before any feedback arrives), so retrain_s measures the
  // code, not how much feedback a run happened to journal.
  cfg.max_journal_examples = kHistoryDays * kHistoryPerDay;
  cfg.registry_root = dir + "/registry";
  cfg.journal_path = dir + "/feedback.jnl";
  return cfg;
}

// The runtime comes first so the service (which points into it) is
// destroyed before it.
struct Live {
  std::unique_ptr<ProjectRuntime> runtime;
  std::unique_ptr<OptimizerService> service;
  bool promoted = false;
};

std::unique_ptr<ProjectRuntime> make_runtime(const WorkloadSpec& spec) {
  loam::core::RuntimeConfig rc;
  rc.seed = kHistorySeed + static_cast<std::uint64_t>(spec.archetype);
  auto runtime = std::make_unique<ProjectRuntime>(
      loam::warehouse::evaluation_archetypes()[static_cast<std::size_t>(
          spec.archetype)],
      rc);
  runtime->simulate_history(kHistoryDays, kHistoryPerDay);
  return runtime;
}

// Construction + start() (bootstrap journal, initial fit, gate, publish), the
// operator promotion of the trained version when the bootstrap gate rejects
// it, up to the first model-served decision.
Live set_up(const WorkloadSpec& spec, const std::string& dir, double* seconds) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Live live;
  live.runtime = make_runtime(spec);
  const Query probe = live.runtime->repository().records().front().query;
  const std::int64_t t0 = now_ns();
  live.service = std::make_unique<OptimizerService>(live.runtime.get(),
                                                    service_config(spec, dir));
  live.service->start();
  if (live.service->active_version() < 0) {
    const std::vector<loam::serve::ModelVersionMeta> versions =
        live.service->registry().versions();
    if (versions.empty()) throw std::runtime_error("bootstrap trained no model");
    live.service->swap_to_version(versions.back().version);
    live.promoted = true;
  }
  const ServeDecision first = live.service->optimize(probe);
  *seconds = seconds_since(t0);
  if (first.model_version < 0) {
    throw std::runtime_error("first decision after set-up was not model-served");
  }
  return live;
}

// Explores every distinct query offline and replays each candidate once in a
// FlightingEnv: the execution outcome the generator feeds back whichever plan
// the service picks.
ExecTable precompute_execs(const ProjectRuntime& runtime,
                           const loam::serve::ServeConfig& cfg,
                           const std::vector<const std::vector<Query>*>& streams,
                           std::uint64_t seed) {
  ExecTable table;
  loam::core::PlanExplorer explorer(&runtime.optimizer(), cfg.explorer);
  loam::warehouse::FlightingEnv env(runtime.config().cluster,
                                    runtime.config().executor,
                                    loam::mix64(seed ^ 0xfeedull));
  std::unordered_set<std::uint64_t> seen;
  for (const std::vector<Query>* stream : streams) {
    for (const Query& q : *stream) {
      const std::uint64_t id = identity(q);
      if (!seen.insert(id).second) continue;
      const loam::core::CandidateGeneration gen = explorer.explore(q);
      for (const Plan& plan : gen.plans) table.add(id, plan, env.replay_once(plan));
    }
  }
  return table;
}

// One JSON number with all its digits (non-finite values cannot appear in
// JSON, and no metric here is legitimately non-finite).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string moves;  // end-to-end metric(s) the layer metric should move
  std::string on;     // workload(s) where it should move them
};

// Model-served decisions completed per second: the median over half-second
// bins of the phase, so a host stall costs one bin, not the figure.
double model_rps(const PhaseResult& r) {
  return binned_rate(r.model_done_s, r.window_s, 0.5);
}

void print_phase(const PhaseResult& r, double planned_s) {
  const double late_p99 = r.late_ms.quantile(0.99);
  // A generator that fell behind its schedule offers less than the stated
  // rate; flag it rather than silently reporting a lighter load.
  const bool behind = late_p99 > 2.0 || r.window_s > 1.05 * planned_s;
  std::printf(
      "phase %-13s offered %7.0f req/s | sent %6zu model %6zu shed %5zu "
      "fallback %zu rejected %zu failed %zu | late p50 %.3f p99 %.3f ms%s\n",
      r.name.c_str(), r.offered_rps, r.sent, r.model_served, r.shed, r.fallback,
      r.rejected, r.failed, r.late_ms.quantile(0.5), late_p99,
      behind ? " | GENERATOR BEHIND" : "");
  std::printf(
      "      decide p50 %.3f p99 %.3f ms (n=%llu) | queue p50 %.3f ms | model "
      "%.0f req/s | batches %llu\n",
      r.decide_ms.quantile(0.5), r.decide_ms.quantile(0.99),
      static_cast<unsigned long long>(r.decide_ms.count()),
      r.queue_ms.quantile(0.5), model_rps(r),
      static_cast<unsigned long long>(r.batches));
}

void print_traffic(const char* workload, const Streams& s, const PhaseResult& r) {
  std::printf(
      "traffic %s: identity repeat share %.3f | score hit %.3f of %llu "
      "lookups | enc hit %.3f of %llu lookups | candidates/query %.2f | "
      "score misses/batch %.2f\n",
      workload, s.steady_repeat_share,
      ratio(static_cast<double>(r.cache.score_hits),
            static_cast<double>(r.cache.score_lookups)),
      static_cast<unsigned long long>(r.cache.score_lookups),
      ratio(static_cast<double>(r.cache.enc_hits),
            static_cast<double>(r.cache.enc_lookups)),
      static_cast<unsigned long long>(r.cache.enc_lookups),
      ratio(r.candidates_sum, static_cast<double>(r.model_served)),
      ratio(static_cast<double>(r.cache.score_lookups - r.cache.score_hits),
            static_cast<double>(r.batches)));
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const bool learn = spec->traffic == Traffic::kLearn;
  const double steady_s = kSteadyShare * args.seconds;
  const double saturation_s = args.seconds - steady_s;

  // --- provenance ---------------------------------------------------------
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"simd\": \"%s\", \"hardware_concurrency\": %u, \"nproc\": %d, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"threads\": {\"shards\": %d, \"explorer\": %d, \"predictor\": %d, "
      "\"gate_replay\": %d, \"retrain_workers\": %d, \"generator\": %d, "
      "\"total\": %d, \"within_nproc\": %s}, \"offered_rps\": {\"steady\": %s, "
      "\"saturation\": %s}}\n",
      args.git_sha.c_str(), args.source_digest.c_str(),
      loam::nn::simd::active_name(), std::thread::hardware_concurrency(),
      nproc(), spec->name, static_cast<unsigned long long>(args.seed),
      num(args.seconds).c_str(), args.trace ? 1 : 0, kShards, kExplorerThreads,
      kPredictorThreads, kGateReplayThreads, kRetrainWorkers, kGeneratorThreads,
      kTotalThreads, kTotalThreads <= nproc() ? "true" : "false",
      num(spec->steady_rps).c_str(), num(spec->saturation_rps).c_str());

  // Wall time of each stage of the run, to keep the run inside its budget.
  std::vector<std::pair<const char*, double>> stages;
  std::int64_t stage_start = now_ns();
  auto stage_done = [&](const char* name) {
    stages.emplace_back(name, seconds_since(stage_start));
    stage_start = now_ns();
  };

  // --- set-up -------------------------------------------------------------
  std::vector<double> setup_s;
  Live live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.service.reset();
    live.runtime.reset();
    double s = 0.0;
    live = set_up(*spec, args.workdir + "/rep" + std::to_string(rep), &s);
    setup_s.push_back(s);
  }
  stage_done("setup");
  OptimizerService& service = *live.service;
  ProjectRuntime& runtime = *live.runtime;
  const loam::serve::ServeConfig& cfg = service.config();
  std::printf("setup: %.3f s median of %d (%.3f %.3f %.3f; bootstrap model %s)\n",
              median(setup_s), kSetupReps, setup_s[0], setup_s[1], setup_s[2],
              live.promoted ? "rejected by the gate, promoted by the operator"
                            : "approved by the gate");

  // --- streams ------------------------------------------------------------
  StreamSizes sizes;
  sizes.warmup = static_cast<std::size_t>(spec->steady_rps * kWarmupSeconds);
  sizes.steady = static_cast<std::size_t>(spec->steady_rps * steady_s);
  sizes.steady_traced = args.trace ? sizes.steady : 0;
  sizes.saturation = static_cast<std::size_t>(spec->saturation_rps * saturation_s);
  const Streams streams =
      make_streams(*spec, runtime.project(), kHistoryDays, args.seed, sizes);

  // Learn feeds back every decision, so it needs an outcome for every
  // candidate up front; the epilogue of the others fills this in later.
  ExecTable execs;
  if (learn) {
    execs = precompute_execs(runtime, cfg,
                             {&streams.steady, &streams.steady_traced}, args.seed);
  }
  stage_done("inputs");

  // --- serve --------------------------------------------------------------
  PhaseSinks warm_sinks;
  run_phase(service, "warmup", streams.warmup, spec->steady_rps, warm_sinks);

  const std::size_t expected_steady = sizes.steady;
  CostSample cost;
  cost.max_keys = kCostKeys;
  FeedbackLoop feedback(&execs, learn ? cfg.retrain_min_new_records : 0);
  PhaseSinks steady_sinks;
  steady_sinks.check_stride = std::max<std::size_t>(1, expected_steady / kCheckPerPhase);
  steady_sinks.check_max = kCheckPerPhase;
  steady_sinks.keep_first = learn ? 0 : kEpilogueFeedback;
  steady_sinks.cost = &cost;
  steady_sinks.feedback = learn ? &feedback : nullptr;
  PhaseResult steady =
      run_phase(service, "steady", streams.steady, spec->steady_rps, steady_sinks);
  if (learn) feedback.finish(service);

  // Traced pass: same rate, the next slice of the stream, obs on.
  std::map<std::string, SpanStats> spans;
  for (const char* name : {"journal_append", "fit", "registry_publish", "retrain"}) {
    spans.emplace(name, SpanStats{});
  }
  loam::obs::RegistrySnapshot before_traced;
  PhaseResult traced;
  if (args.trace) {
    loam::obs::set_metrics_enabled(true);
    loam::obs::set_tracing_enabled(true);
    loam::obs::Tracer::instance().reset();
    before_traced = loam::obs::Registry::instance().snapshot();
    PhaseSinks traced_sinks;
    traced_sinks.feedback = learn ? &feedback : nullptr;
    traced = run_phase(service, "steady_traced", streams.steady_traced,
                       spec->steady_rps, traced_sinks);
    if (learn) feedback.finish(service);
  }
  const loam::obs::RegistrySnapshot after_traced =
      loam::obs::Registry::instance().snapshot();
  if (args.trace) drain_spans(spans);

  PhaseSinks sat_sinks;
  sat_sinks.check_stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(spec->saturation_rps * saturation_s / 2.0) /
             kCheckPerPhase);
  sat_sinks.check_max = kCheckPerPhase;
  PhaseResult saturation = run_phase(service, "saturation", streams.saturation,
                                     spec->saturation_rps, sat_sinks);
  std::vector<loam::serve::PacingSnapshot> pacing;
  for (int k = 0; k < service.num_shards(); ++k) {
    pacing.push_back(service.pacing_snapshot(k));
  }
  stage_done("serve");

  // --- feedback epilogue (frozen-model workloads) -----------------------
  if (!learn) {
    const std::size_t n = std::min(kEpilogueFeedback, steady.kept.size());
    loam::warehouse::FlightingEnv env(runtime.config().cluster,
                                      runtime.config().executor,
                                      loam::mix64(args.seed ^ 0xe911ull));
    for (std::size_t i = 0; i < n; ++i) {
      const ServeDecision& d = steady.kept[i].decision;
      const Plan& served = d.generation.plans.at(static_cast<std::size_t>(d.chosen));
      if (execs.find(identity(steady.kept[i].query), served) == nullptr) {
        execs.add(identity(steady.kept[i].query), served, env.replay_once(served));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!feedback.record(service, steady.kept[i].query, steady.kept[i].decision)) {
        ++steady.failed;
      }
    }
    // Before the retrains' own spans can wrap this thread's ring.
    if (args.trace) drain_spans(spans);
    for (int k = 0; k < kEpilogueRetrains; ++k) {
      const std::int64_t t0 = now_ns();
      service.retrain_sync();
      feedback.retrain_s.push_back(seconds_since(t0));
    }
  }
  if (args.trace) drain_spans(spans);
  service.stop();
  stage_done("epilogue");

  // --- correctness --------------------------------------------------------
  std::vector<const KeptDecision*> sample;
  for (const PhaseResult* p : {&steady, &saturation}) {
    for (std::size_t i = 0; i < p->kept.size(); ++i) {
      // The steady phase's leading feedback decisions are not a sample.
      if (p == &steady && i < steady_sinks.keep_first &&
          i % steady_sinks.check_stride != 0) {
        continue;
      }
      sample.push_back(&p->kept[i]);
    }
  }
  CheckResult check = check_decisions(runtime, service, sample);
  stage_done("check");

  const std::size_t attempted = steady.sent + saturation.sent + traced.sent;
  const std::size_t failed = steady.rejected + steady.failed +
                             saturation.rejected + saturation.failed +
                             traced.rejected + traced.failed + check.mismatches;
  const bool correct = check.mismatches == 0 && check.checked > 0;

  print_phase(steady, steady_s);
  if (args.trace) print_phase(traced, steady_s);
  print_phase(saturation, saturation_s);
  print_traffic(spec->name, streams, args.trace ? traced : steady);
  std::printf("correctness: %zu model-served decisions re-derived offline, %zu "
              "mismatches\n",
              check.checked, check.mismatches);
  const OptimizerService::Stats st = service.stats();
  std::printf("retrains: %llu reached the gate, %llu approved, %llu rejected, "
              "%llu skipped | swaps %llu | rollbacks %llu\n",
              static_cast<unsigned long long>(st.retrains),
              static_cast<unsigned long long>(st.retrain_approved),
              static_cast<unsigned long long>(st.retrain_rejected),
              static_cast<unsigned long long>(st.retrain_skipped),
              static_cast<unsigned long long>(st.swaps),
              static_cast<unsigned long long>(st.rollbacks));

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double cr = cost_ratio(cost, runtime, kCostRuns);
    metrics = {
        {"decide_p50_ms", "ms", chunked_quantile(steady.decide_ms_seq, kChunk, 0.5),
         "", ""},
        // p90, not p99: on a shared host the steady p99 follows the host's
        // scheduling stalls (IQR 0.3-1.2x its median across ten seeds); the
        // phase line above still prints the p99.
        {"decide_p90_ms", "ms",
         chunked_quantile(steady.decide_ms_seq, kChunk, 0.9), "", ""},
        {"cost_ratio", "ratio", cr, "", ""},
        {"feedback_p99_ms", "ms",
         chunked_quantile(feedback.feedback_ms, kChunk, 0.99), "", ""},
        {"setup_s", "s", median(setup_s), "", ""},
        {"peak_rss_mb", "MB", peak_rss_mb(), "", ""},
    };
    std::printf("shed share (steady) %.4f | failed share %.4f | retrains timed "
                "%zu, median %.3f s | cost keys %zu\n",
                ratio(static_cast<double>(steady.shed),
                      static_cast<double>(steady.sent)),
                ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                feedback.retrain_s.size(), median(feedback.retrain_s),
                cost.entries.size());
  } else {
    // Direct timings of each layer on the traced stream's own queries.
    const std::vector<Query> probe_queries(
        streams.steady_traced.begin(),
        streams.steady_traced.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(kProbeQueries, streams.steady_traced.size())));
    const LayerProbe probe = probe_layers(runtime, service, probe_queries);
    const HistDelta pb_s = hist_delta(before_traced, after_traced,
                                      "loam.predictor.predict_batch_seconds");
    const HistDelta pb_n = hist_delta(before_traced, after_traced,
                                      "loam.predictor.predict_batch_size");
    const double predict_us = 1e6 * ratio(pb_s.sum, static_cast<double>(pb_s.count));
    const double plans_per_call = ratio(pb_n.sum, static_cast<double>(pb_n.count));
    const double us_per_plan = 1e6 * ratio(pb_s.sum, pb_n.sum);

    std::int64_t t0 = now_ns();
    const loam::core::TrainingData replayed =
        service.journal().replay(cfg.max_journal_examples);
    const double replay_ms = 1e3 * seconds_since(t0);

    // The gate on the serving model, as a retrain would run it.
    const auto serving = service.registry().find(service.active_version());
    double gate_s = 0.0, gate_replays = 0.0;
    if (serving) {
      loam::core::AdaptiveCostPredictor model(service.encoder().feature_dim(),
                                              cfg.predictor);
      model.load(serving->checkpoint_path);
      const loam::warehouse::EnvFeatures rep = service.env_context().representative;
      const loam::obs::RegistrySnapshot g0 = loam::obs::Registry::instance().snapshot();
      t0 = now_ns();
      loam::core::evaluate_selection(
          runtime,
          [&](const loam::core::CandidateGeneration& gen) {
            std::vector<loam::nn::Tree> trees;
            for (const Plan& p : gen.plans) {
              trees.push_back(service.encoder().encode(
                  p, nullptr,
                  cfg.encoding.include_env
                      ? std::optional<loam::warehouse::EnvFeatures>(rep)
                      : std::nullopt));
            }
            const std::vector<double> v = model.predict_batch(trees);
            return static_cast<int>(std::min_element(v.begin(), v.end()) -
                                    v.begin());
          },
          cfg.explorer, std::max(0, service.journal().max_day()) + 1, cfg.gate);
      gate_s = seconds_since(t0);
      const loam::obs::RegistrySnapshot g1 = loam::obs::Registry::instance().snapshot();
      const loam::obs::MetricSnapshot* r1 = g1.find("loam.flighting.replays");
      const loam::obs::MetricSnapshot* r0 = g0.find("loam.flighting.replays");
      gate_replays = static_cast<double>((r1 ? r1->count : 0) - (r0 ? r0->count : 0));
    }

    auto mean_pacing = [&](auto field) {
      double s = 0.0;
      for (const loam::serve::PacingSnapshot& p : pacing) s += field(p);
      return pacing.empty() ? 0.0 : s / static_cast<double>(pacing.size());
    };
    const SpanStats& sp_append = spans.at("journal_append");
    const SpanStats& sp_fit = spans.at("fit");
    const double untraced_p50 = chunked_quantile(steady.decide_ms_seq, kChunk, 0.5);
    const double traced_p50 = chunked_quantile(traced.decide_ms_seq, kChunk, 0.5);
    const double decide_us = 1e3 * traced_p50;

    metrics = {
        // Saturated throughput and retrain wall time are the pure CPU-speed
        // figures of a run, so they follow the shared host's speed (IQR
        // 0.17-0.20 and 0.11-0.22 of the median over ten seeds). They are
        // reported here, without a bound, rather than as end-to-end metrics.
        {"model_rps", "req/s", model_rps(saturation), "", "recurring,adhoc"},
        {"retrain_s", "s", median(feedback.retrain_s), "", "all"},
        {"serve.queue_wait_p50_ms", "ms", traced.queue_ms.quantile(0.5),
         "decide_p50_ms", "recurring"},
        {"serve.queue_wait_p99_ms", "ms", traced.queue_ms.quantile(0.99),
         "decide_p90_ms", "learn"},
        {"serve.batch_size_mean", "count",
         ratio(static_cast<double>(traced.model_served),
               static_cast<double>(traced.batches)),
         "model_rps", "adhoc"},
        {"serve.swap_pause_us_max", "us",
         1e-3 * static_cast<double>(std::max(traced.swap_pause_max_ns,
                                             saturation.swap_pause_max_ns)),
         "decide_p90_ms", "learn"},
        {"serve.steady_shed_share", "ratio",
         ratio(static_cast<double>(traced.shed), static_cast<double>(traced.sent)),
         "decide_p50_ms", "all"},
        {"pacing.cwnd", "count",
         mean_pacing([](const auto& p) { return p.cwnd; }), "model_rps,shed_share",
         "recurring,adhoc"},
        {"pacing.batch_target", "count",
         mean_pacing([](const auto& p) { return static_cast<double>(p.batch_target); }),
         "model_rps", "recurring,adhoc"},
        {"pacing.est_bw", "plans/s",
         mean_pacing([](const auto& p) { return p.est_bw_per_sec; }), "model_rps",
         "recurring,adhoc"},
        {"pacing.shed_share", "ratio",
         ratio(static_cast<double>(saturation.shed),
               static_cast<double>(saturation.sent)),
         "model_rps", "recurring,adhoc"},
        {"explorer.explore_ms_p50", "ms", probe.explore_ms.quantile(0.5),
         "decide_p50_ms,model_rps", "recurring"},
        {"explorer.trials_per_query", "count", probe.trials_per_query,
         "decide_p50_ms,model_rps", "recurring"},
        {"explorer.candidates_per_query", "count", probe.candidates_per_query,
         "decide_p50_ms,model_rps", "recurring"},
        {"native.optimize_us", "us", probe.optimize_us, "decide_p50_ms",
         "recurring"},
        {"cache.score_hit_ratio", "ratio",
         ratio(static_cast<double>(traced.cache.score_hits),
               static_cast<double>(traced.cache.score_lookups)),
         "decide_p50_ms", "recurring,adhoc"},
        {"cache.score_lookups", "count",
         static_cast<double>(traced.cache.score_lookups), "decide_p50_ms",
         "recurring,adhoc"},
        {"cache.enc_hit_ratio", "ratio",
         ratio(static_cast<double>(traced.cache.enc_hits),
               static_cast<double>(traced.cache.enc_lookups)),
         "decide_p50_ms", "learn"},
        {"cache.enc_lookups", "count",
         static_cast<double>(traced.cache.enc_lookups), "decide_p50_ms", "learn"},
        {"traffic.repeat_share", "ratio", streams.steady_repeat_share, "",
         "recurring,adhoc"},
        {"encoding.encode_us", "us", probe.encode_us,
         "decide_p50_ms,feedback_p99_ms", "adhoc,learn"},
        {"predictor.predict_batch_us", "us", predict_us,
         "decide_p50_ms,model_rps", "adhoc"},
        {"predictor.plans_per_call", "count", plans_per_call,
         "decide_p50_ms,model_rps", "adhoc"},
        {"predictor.us_per_plan", "us", us_per_plan, "decide_p50_ms,model_rps",
         "adhoc"},
        // plans_per_call x us_per_plan is one call; weighted by calls per
        // decision it is the inference time a decision pays on average, which
        // a score-cache hit skips.
        {"predictor.call_share_of_decide", "ratio",
         ratio(plans_per_call * us_per_plan *
                   ratio(static_cast<double>(pb_s.count),
                         static_cast<double>(traced.model_served)),
               decide_us),
         "decide_p50_ms", "adhoc"},
        {"nn.infer_mflop_per_plan", "MFLOP",
         infer_mflop(cfg.predictor, service.encoder().feature_dim(),
                     probe.nodes_per_plan),
         "decide_p50_ms,model_rps", "adhoc"},
        {"journal.append_us_p50", "us", 1e3 * sp_append.dur_ms.quantile(0.5),
         "feedback_p99_ms", "learn"},
        {"journal.append_us_p99", "us", 1e3 * sp_append.dur_ms.quantile(0.99),
         "feedback_p99_ms", "learn"},
        {"journal.replay_ms", "ms", replay_ms, "retrain_s", "learn"},
        {"predictor.fit_s", "s", 1e-3 * sp_fit.dur_ms.quantile(0.5),
         "retrain_s,setup_s", "learn,all"},
        {"predictor.fit_examples", "count",
         ratio(sp_fit.arg_sum, static_cast<double>(sp_fit.dur_ms.count())),
         "retrain_s,setup_s", "learn,all"},
        {"gate.evaluate_s", "s", gate_s, "retrain_s,setup_s", "learn"},
        {"gate.replays", "count", gate_replays, "retrain_s,setup_s", "learn"},
        {"retrain.approved_ratio", "ratio",
         ratio(static_cast<double>(st.retrain_approved),
               static_cast<double>(st.retrain_approved + st.retrain_rejected)),
         "retrain_s", "learn"},
        {"registry.publish_ms", "ms",
         spans.at("registry_publish").dur_ms.quantile(0.5), "retrain_s", "learn"},
        {"registry.load_ms", "ms", check.load_ms.quantile(0.5), "decide_p90_ms",
         "learn"},
        {"generator.late_p99_ms", "ms", traced.late_ms.quantile(0.99), "", "all"},
        {"obs.trace_overhead_pct", "%",
         100.0 * ratio(traced_p50 - untraced_p50, untraced_p50), "", "all"},
    };
    std::printf("journal replay: %zu executed + %zu candidate records\n",
                replayed.default_plans.size(), replayed.candidate_plans.size());
    std::printf("%-34s %12s %-8s %-30s %s\n", "per-layer metric", "value", "unit",
                "should move", "on");
    for (const Metric& m : metrics) {
      std::printf("%-34s %12.4f %-8s %-30s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.moves.empty() ? "-" : m.moves.c_str(),
                  m.on.c_str());
    }
  }

  stage_done(args.trace ? "ledger" : "cost");
  std::printf("timing:");
  for (const auto& [name, secs] : stages) std::printf(" %s %.1f s", name, secs);
  std::printf("\n");
  if (!args.trace) {
    for (const Metric& m : metrics) {
      std::printf("%-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loam_perfbench: %s\n", e.what());
    return 2;
  }
}
