// Flight-recorder suite: interpolated histogram quantiles (golden values),
// recorder ring semantics on a virtual clock, snapshot-delta consistency
// under concurrent writers, SLO rule hysteresis (threshold / ratio / burn
// rate), the recorder-on bit-identity house rule against the serve path
// (certified by the TSan gate), and dump-bundle well-formedness after a
// forced deviance rollback.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "serve/service.h"

namespace loam::obs {
namespace {

namespace fs = std::filesystem;

// Every test must leave the process-wide flags disabled (other suites in
// this binary assume the default-off state).
struct ObsGuard {
  ~ObsGuard() {
    set_metrics_enabled(false);
    set_tracing_enabled(false);
  }
};

// Minimal structural JSON checker (same as tests/obs_test.cc); the CI smoke
// additionally validates dump files with tools/obs_report.py --validate.
bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false, escaped = false;
  char prev = 0;  // last structural character
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev = '"';
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[':
        if (prev == '}' || prev == ']' || prev == '"') return false;
        stack.push_back(c);
        prev = c;
        break;
      case '}': case ']':
        if (stack.empty()) return false;
        if (prev == ',') return false;  // trailing comma
        if (c == '}' && stack.back() != '{') return false;
        if (c == ']' && stack.back() != '[') return false;
        stack.pop_back();
        prev = c;
        break;
      case ',':
        if (prev == ',' || prev == '{' || prev == '[') return false;
        prev = c;
        break;
      case ':': prev = c; break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) prev = 'v';
        break;
    }
  }
  return stack.empty() && !in_string;
}

// ---------------------------------------------------------------------------
// Quantile estimator
// ---------------------------------------------------------------------------

TEST(HistogramQuantile, GoldenValuesAndEdgeCases) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0, 8.0};
  // 2 in (0,1], 6 in (2,4], 2 overflow (>8): total 10.
  const std::vector<std::uint64_t> buckets = {2, 0, 6, 0, 2};

  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.0), 0.0);
  // rank 2 lands exactly at the end of the first bucket: lo + 1.0 * width.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.2), 1.0);
  // rank 5 is 3/6 through the (2,4] bucket: 2 + 0.5 * 2.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.8), 4.0);
  // Overflow bucket has no upper edge: clamp to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 0.95), 8.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, 1.5), 8.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, buckets, -0.5), 0.0);

  // No data -> 0; degenerate bounds -> 0.
  EXPECT_DOUBLE_EQ(
      histogram_quantile(bounds, std::vector<std::uint64_t>(5, 0), 0.99), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {7}, 0.5), 0.0);
}

TEST(FixedBucketQuantile, MatchesLiveHistogramSnapshot) {
  ObsGuard guard;
  set_metrics_enabled(true);
  const std::vector<double> bounds = Histogram::exponential_bounds(0.001, 2.0, 12);
  Histogram* h =
      Registry::instance().histogram("recorder_test.fbq_hist", bounds);
  FixedBucketQuantile fbq(bounds);

  std::uint64_t x = 88172645463325252ull;  // xorshift64: fixed, RNG-free
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const double v = 0.0005 * static_cast<double>(x % 10'000);
    h->observe(v);
    fbq.observe(v);
  }

  const RegistrySnapshot snap = Registry::instance().snapshot();
  const MetricSnapshot* m = snap.find("recorder_test.fbq_hist");
  ASSERT_NE(m, nullptr);
  // Identical bucketing implies identical interpolated quantiles. Under
  // --gtest_repeat the registry handle accumulates across iterations, but
  // scaling every bucket by the same factor leaves quantiles unchanged.
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram_quantile(*m, q), fbq.quantile(q)) << "q=" << q;
  }
  EXPECT_GE(m->count, fbq.count());
}

// ---------------------------------------------------------------------------
// Recorder rings
// ---------------------------------------------------------------------------

TEST(Recorder, RingOverwritesOldestOnVirtualClock) {
  ObsGuard guard;
  set_metrics_enabled(true);
  Counter* c = Registry::instance().counter("recorder_test.ring_count");

  auto t = std::make_shared<std::atomic<std::int64_t>>(0);
  RecorderConfig rc;
  rc.ring_capacity = 4;
  rc.clock = [t] { return t->load(std::memory_order_relaxed); };
  Recorder rec(rc);

  constexpr int kTicks = 10;
  for (int i = 1; i <= kTicks; ++i) {
    t->store(static_cast<std::int64_t>(i) * 1'000'000'000,
             std::memory_order_relaxed);
    c->add(static_cast<std::uint64_t>(i));  // i increments during interval i
    const RecorderTick tick = rec.sample_once();
    EXPECT_EQ(tick.t_ns, static_cast<std::int64_t>(i) * 1'000'000'000);
    const TickSeries* ts = tick.find("recorder_test.ring_count");
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->kind, MetricKind::kCounter);
    EXPECT_EQ(ts->delta, static_cast<std::uint64_t>(i));
    if (i > 1) {  // dt = 1s exactly -> rate == delta. First tick has dt 0.
      EXPECT_DOUBLE_EQ(tick.dt_seconds, 1.0);
      EXPECT_DOUBLE_EQ(ts->value, static_cast<double>(i));
    }
  }

  EXPECT_EQ(rec.samples(), static_cast<std::uint64_t>(kTicks));
  EXPECT_GT(rec.overwrites(), 0u);

  bool found = false;
  for (const Recorder::Series& s : rec.history()) {
    if (s.name != "recorder_test.ring_count") continue;
    found = true;
    EXPECT_EQ(s.total_samples, static_cast<std::uint64_t>(kTicks));
    // Capacity 4: only the newest 4 ticks survive, oldest first.
    ASSERT_EQ(s.samples.size(), 4u);
    for (std::size_t k = 0; k < s.samples.size(); ++k) {
      const int i = kTicks - 3 + static_cast<int>(k);  // ticks 7..10
      EXPECT_EQ(s.samples[k].t_ns,
                static_cast<std::int64_t>(i) * 1'000'000'000);
      EXPECT_EQ(s.samples[k].delta, static_cast<std::uint64_t>(i));
    }
  }
  EXPECT_TRUE(found);

  JsonWriter w;
  rec.history_to_json(w);
  EXPECT_TRUE(json_well_formed(w.str()));
}

TEST(Recorder, SnapshotDeltasReconcileUnderConcurrentWriters) {
  ObsGuard guard;
  set_metrics_enabled(true);
  Counter* c = Registry::instance().counter("recorder_test.conc_count");
  const std::vector<double> bounds = Histogram::linear_bounds(0.1, 0.1, 8);
  Histogram* h =
      Registry::instance().histogram("recorder_test.conc_hist", bounds);

  auto t = std::make_shared<std::atomic<std::int64_t>>(0);
  RecorderConfig rc;
  rc.clock = [t] {
    return t->fetch_add(1'000'000, std::memory_order_relaxed) + 1'000'000;
  };
  Recorder rec(rc);

  // Hardware concurrency is 1 in CI: force 4 writer threads regardless.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->add(1);
        h->observe(0.1 * static_cast<double>((w + i) % 10));
      }
    });
  }
  // Sample concurrently with the writers: each tick must see a consistent
  // snapshot (per-location monotone), never a torn or negative delta.
  for (int i = 0; i < 50; ++i) rec.sample_once();
  for (std::thread& th : writers) th.join();
  rec.sample_once();  // quiescent: captures everything the writers recorded

  std::uint64_t count_sum = 0, hist_sum = 0;
  std::vector<std::uint64_t> bucket_sum(bounds.size() + 1, 0);
  for (const Recorder::Series& s : rec.history()) {
    if (s.name == "recorder_test.conc_count") {
      for (const SeriesSample& sample : s.samples) count_sum += sample.delta;
    } else if (s.name == "recorder_test.conc_hist") {
      for (const SeriesSample& sample : s.samples) {
        hist_sum += sample.delta;
        ASSERT_EQ(sample.buckets.size(), bucket_sum.size());
        for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
          bucket_sum[b] += sample.buckets[b];
        }
      }
    }
  }
  // After quiescence the per-interval deltas reconcile exactly with the
  // cumulative totals (the first tick's delta absorbs any pre-recorder
  // residue from --gtest_repeat reruns).
  const RegistrySnapshot snap = Registry::instance().snapshot();
  const MetricSnapshot* mc = snap.find("recorder_test.conc_count");
  const MetricSnapshot* mh = snap.find("recorder_test.conc_hist");
  ASSERT_NE(mc, nullptr);
  ASSERT_NE(mh, nullptr);
  EXPECT_EQ(count_sum, mc->count);
  EXPECT_EQ(hist_sum, mh->count);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < bucket_sum.size(); ++b) {
    EXPECT_EQ(bucket_sum[b], mh->buckets[b]) << "bucket " << b;
    bucket_total += bucket_sum[b];
  }
  EXPECT_EQ(bucket_total, hist_sum);
}

// ---------------------------------------------------------------------------
// SLO rules
// ---------------------------------------------------------------------------

TickSeries gauge_series(const std::string& name, double value) {
  TickSeries s;
  s.name = name;
  s.kind = MetricKind::kGauge;
  s.value = value;
  return s;
}

TickSeries counter_series(const std::string& name, std::uint64_t delta,
                          double rate) {
  TickSeries s;
  s.name = name;
  s.kind = MetricKind::kCounter;
  s.delta = delta;
  s.value = rate;
  return s;
}

RecorderTick make_tick(std::int64_t t_ns, double dt,
                       std::vector<TickSeries> series) {
  RecorderTick tick;
  tick.t_ns = t_ns;
  tick.dt_seconds = dt;
  tick.series = std::move(series);
  return tick;
}

TEST(SloEngine, ThresholdFiresAfterForSamplesAndClearsWithHysteresis) {
  SloEngine engine;
  SloRule rule;
  rule.name = "g.high";
  rule.metric = "g";
  rule.threshold = 10.0;
  rule.for_samples = 3;
  rule.clear_samples = 2;
  engine.add_rule(rule);

  std::int64_t t = 0;
  auto step = [&](double v) {
    return engine.evaluate(make_tick(t += 1'000'000'000, 1.0,
                                     {gauge_series("g", v)}));
  };

  EXPECT_TRUE(step(20.0).empty());  // breach 1
  EXPECT_TRUE(step(20.0).empty());  // breach 2
  const std::vector<Alert> fired = step(20.0);  // breach 3 -> fires
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "g.high");
  EXPECT_EQ(fired[0].metric, "g");
  EXPECT_DOUBLE_EQ(fired[0].value, 20.0);
  EXPECT_TRUE(fired[0].active);
  ASSERT_EQ(engine.active().size(), 1u);

  // One healthy tick inside a bad stretch does not flap the alert...
  EXPECT_TRUE(step(5.0).empty());
  EXPECT_EQ(engine.active().size(), 1u);
  EXPECT_TRUE(step(20.0).empty());  // still active, no re-fire
  EXPECT_EQ(engine.log().size(), 1u);
  // ... but clear_samples consecutive healthy ticks clear it.
  EXPECT_TRUE(step(5.0).empty());
  EXPECT_TRUE(step(5.0).empty());
  EXPECT_TRUE(engine.active().empty());
  ASSERT_EQ(engine.log().size(), 1u);
  EXPECT_FALSE(engine.log()[0].active);
  EXPECT_GT(engine.log()[0].cleared_t_ns, engine.log()[0].fired_t_ns);

  // A fresh breach run fires a SECOND alert record.
  step(20.0);
  step(20.0);
  ASSERT_EQ(step(20.0).size(), 1u);
  EXPECT_EQ(engine.log().size(), 2u);

  JsonWriter w;
  engine.to_json(w);
  EXPECT_TRUE(json_well_formed(w.str()));
}

TEST(SloEngine, LessThanRuleAndMissingSeriesIsHealthy) {
  SloEngine engine;
  SloRule rule;
  rule.name = "g.low";
  rule.metric = "g";
  rule.cmp = SloRule::Cmp::kLt;
  rule.threshold = 1.0;
  engine.add_rule(rule);

  // Missing series: healthy by absence, never fires.
  EXPECT_TRUE(engine.evaluate(make_tick(1, 1.0, {})).empty());
  EXPECT_TRUE(
      engine.evaluate(make_tick(2, 1.0, {gauge_series("g", 2.0)})).empty());
  EXPECT_EQ(
      engine.evaluate(make_tick(3, 1.0, {gauge_series("g", 0.5)})).size(), 1u);
}

TEST(SloEngine, RatioRuleSkipsZeroDenominator) {
  SloEngine engine;
  SloRule rule;
  rule.name = "shed.ratio";
  rule.kind = SloRule::Kind::kRatio;
  rule.metric = "shed";
  rule.denominator = "adm";
  rule.threshold = 0.5;
  engine.add_rule(rule);

  auto tick = [&](std::uint64_t shed, std::uint64_t adm) {
    return engine.evaluate(make_tick(1'000'000'000, 1.0,
                                     {counter_series("shed", shed, 0.0),
                                      counter_series("adm", adm, 0.0)}));
  };
  EXPECT_TRUE(tick(1, 4).empty());        // 0.25 <= 0.5
  EXPECT_TRUE(tick(0, 0).empty());        // no traffic -> no verdict
  const std::vector<Alert> fired = tick(3, 4);  // 0.75 > 0.5
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0].value, 0.75);
}

TEST(SloEngine, BurnRateWindowsDeltasOverWallTime) {
  SloEngine engine;
  SloRule rule;
  rule.name = "rej.burn";
  rule.kind = SloRule::Kind::kBurnRate;
  rule.metric = "rej";
  rule.threshold = 1.0;  // events/s over the window
  rule.window_samples = 2;
  engine.add_rule(rule);

  auto tick = [&](std::uint64_t delta, double dt) {
    return engine.evaluate(
        make_tick(1'000'000'000, dt, {counter_series("rej", delta, 0.0)}));
  };
  EXPECT_TRUE(tick(1, 1.0).empty());  // window burn 1/1 = 1.0, not > 1
  const std::vector<Alert> fired = tick(3, 1.0);  // (1+3)/2 = 2.0 > 1
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0].value, 2.0);
  // Window slides: (3+0)/2 = 1.5 still breaching, stays active, no re-fire.
  EXPECT_TRUE(tick(0, 1.0).empty());
  EXPECT_EQ(engine.active().size(), 1u);
  // (0+0)/2 = 0 -> clears (clear_samples defaults to 1).
  EXPECT_TRUE(tick(0, 1.0).empty());
  EXPECT_TRUE(engine.active().empty());
}

TEST(SloEngine, HistogramQuantileRuleUsesIntervalDeltas) {
  SloEngine engine;
  SloRule rule;
  rule.name = "lat.p99";
  rule.metric = "lat";
  rule.quantile = 0.99;
  rule.threshold = 1.5;
  engine.add_rule(rule);

  auto hist_tick = [&](std::vector<std::uint64_t> bucket_delta) {
    TickSeries s;
    s.name = "lat";
    s.kind = MetricKind::kHistogram;
    s.bounds = {1.0, 2.0};
    s.bucket_delta = std::move(bucket_delta);
    std::uint64_t d = 0;
    for (const std::uint64_t b : s.bucket_delta) d += b;
    s.delta = d;
    s.value = histogram_quantile(s.bounds, s.bucket_delta, 0.99);
    return engine.evaluate(make_tick(1'000'000'000, 1.0, {s}));
  };
  // All mass in (0,1]: p99 <= 1.0, healthy.
  EXPECT_TRUE(hist_tick({10, 0, 0}).empty());
  // Empty interval: no verdict, still healthy.
  EXPECT_TRUE(hist_tick({0, 0, 0}).empty());
  // Overflow-heavy interval: p99 clamps to 2.0 > 1.5, fires.
  EXPECT_EQ(hist_tick({0, 0, 10}).size(), 1u);
}

TEST(SloEngine, DefaultServeRulesCoverEveryShard) {
  const std::vector<SloRule> rules = default_serve_rules(3);
  // Stock set: latency p99 + shed ratio + reject burn + one per shard.
  EXPECT_EQ(rules.size(), 6u);
  int shard_rules = 0;
  for (const SloRule& r : rules) {
    if (r.name.find("shard") != std::string::npos) ++shard_rules;
  }
  EXPECT_EQ(shard_rules, 3);
}

// ---------------------------------------------------------------------------
// Serve-path integration: bit identity and rollback forensics
// ---------------------------------------------------------------------------

struct ServeFixture {
  std::unique_ptr<core::ProjectRuntime> runtime;
  std::string root;

  explicit ServeFixture(const std::string& tag) {
    warehouse::ProjectArchetype a;
    a.name = "serve";
    a.seed = 5;
    a.n_tables = 14;
    a.n_templates = 8;
    a.queries_per_day = 50.0;
    a.stats_coverage = 0.15;
    a.cluster_machines = 24;
    core::RuntimeConfig rc;
    rc.seed = 31;
    runtime = std::make_unique<core::ProjectRuntime>(a, rc);
    runtime->simulate_history(5, 50);
    root = (fs::temp_directory_path() /
            ("loam_recorder_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~ServeFixture() { fs::remove_all(root); }

  serve::ServeConfig config() const {
    serve::ServeConfig cfg;
    cfg.predictor.epochs = 4;
    cfg.predictor.hidden_dim = 16;
    cfg.predictor.embed_dim = 16;
    cfg.predictor.tcn_layers = 2;
    cfg.gate.sample_queries = 6;
    cfg.gate.replay_runs = 2;
    cfg.min_train_examples = 20;
    cfg.bootstrap_candidate_queries = 10;
    cfg.bootstrap_from_history = false;
    cfg.bootstrap_train = false;
    cfg.auto_retrain = false;
    cfg.registry_root = root + "/registry";
    cfg.journal_path = root + "/feedback.jnl";
    return cfg;
  }

  warehouse::ExecutionResult execute(const warehouse::Plan& plan,
                                     std::uint64_t seed) const {
    warehouse::FlightingEnv env(runtime->config().cluster,
                                runtime->config().executor, seed);
    return env.replay_once(plan);
  }
};

std::unique_ptr<core::AdaptiveCostPredictor> untrained_model(
    const serve::OptimizerService& service) {
  return std::make_unique<core::AdaptiveCostPredictor>(
      service.encoder().feature_dim(), service.config().predictor);
}

serve::ModelVersionMeta approved_meta() {
  serve::ModelVersionMeta meta;
  meta.approved = true;
  return meta;
}

// The obs house rule, recorder edition: a FlightRecorder actively sampling
// (background thread + SLO evaluation) next to the serve path must leave
// model-path decisions bit-identical to a run with observability fully off.
// The TSan gate re-certifies this suite, so the sampler's concurrent
// registry reads are also proven race-free against serving.
TEST(FlightRecorder, RecorderOnDecisionsBitIdenticalToRecorderOff) {
  ObsGuard guard;
  ServeFixture fx("identity");
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 16);
  ASSERT_GE(queries.size(), 8u);

  // Reference: observability off, no recorder.
  std::vector<serve::ServeDecision> want(queries.size());
  {
    serve::ServeConfig cfg = fx.config();
    cfg.registry_root = fx.root + "/registry_ref";
    cfg.journal_path = fx.root + "/feedback_ref.jnl";
    serve::OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    ASSERT_EQ(
        service.publish_and_swap(untrained_model(service), approved_meta()),
        1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      want[i] = service.optimize(queries[i]);
      ASSERT_EQ(want[i].model_version, 1);
    }
    service.stop();
  }

  // Same run with metrics on and a started FlightRecorder sampling at 1ms.
  set_metrics_enabled(true);
  FlightRecorderConfig fc;
  fc.recorder.interval_ns = 1'000'000;
  fc.rules = default_serve_rules(1);
  FlightRecorder flight(std::move(fc));
  flight.start();
  {
    serve::ServeConfig cfg = fx.config();
    cfg.registry_root = fx.root + "/registry_rec";
    cfg.journal_path = fx.root + "/feedback_rec.jnl";
    cfg.flight_recorder = &flight;
    serve::OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    ASSERT_EQ(
        service.publish_and_swap(untrained_model(service), approved_meta()),
        1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const serve::ServeDecision d = service.optimize(queries[i]);
      ASSERT_EQ(d.model_version, 1);
      ASSERT_EQ(d.predicted.size(), want[i].predicted.size());
      for (std::size_t k = 0; k < d.predicted.size(); ++k) {
        EXPECT_EQ(d.predicted[k], want[i].predicted[k]);  // exact doubles
      }
      EXPECT_EQ(d.chosen, want[i].chosen);
      EXPECT_EQ(d.predicted_cost, want[i].predicted_cost);
    }
    service.stop();
  }
  flight.stop();
  EXPECT_GT(flight.recorder().samples(), 0u);
}

// A forced deviance rollback on a sharded service must leave one forensic
// bundle on disk: well-formed JSON carrying the loam.serve metric history,
// the alert state, and the serve state-provider table.
TEST(FlightRecorder, DevianceRollbackWritesWellFormedDumpBundle) {
  ObsGuard guard;
  ServeFixture fx("rollback");
  set_metrics_enabled(true);

  const std::string dump_dir = fx.root + "/dumps";
  fs::create_directories(dump_dir);
  FlightRecorderConfig fc;
  fc.recorder.interval_ns = 5'000'000;
  fc.rules = default_serve_rules(2);
  fc.dump_dir = dump_dir;
  FlightRecorder flight(std::move(fc));
  flight.start();

  serve::ServeConfig cfg = fx.config();
  cfg.num_shards = 2;
  cfg.monitor.window = 8;
  cfg.monitor.min_samples = 3;
  cfg.monitor.max_mean_overrun = 0.5;
  cfg.flight_recorder = &flight;
  serve::OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  // An untrained predictor's unfitted scaler predicts costs near 1 while
  // real executions land orders of magnitude higher: the one-sided log
  // overrun trips the monitor deterministically.
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 24);
  std::size_t i = 0;
  while (service.stats().rollbacks == 0 && i < queries.size()) {
    const serve::ServeDecision d = service.optimize(queries[i]);
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
    ++i;
  }
  ASSERT_EQ(service.stats().rollbacks, 1u);

  // The rollback hook wrote a bundle named for its reason.
  EXPECT_GE(flight.dumps_written(), 1u);
  const std::string path = flight.last_dump_path();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("deviance_rollback"), std::string::npos);
  ASSERT_TRUE(fs::exists(path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string bundle = buf.str();
  EXPECT_TRUE(json_well_formed(bundle));
  EXPECT_NE(bundle.find("\"schema\":\"loam.flight.v1\""), std::string::npos);
  EXPECT_NE(bundle.find("\"reason\":\"deviance_rollback\""),
            std::string::npos);
  EXPECT_NE(bundle.find("\"history\""), std::string::npos);
  EXPECT_NE(bundle.find("loam.serve.request_seconds"), std::string::npos);
  EXPECT_NE(bundle.find("loam.deviance.mean_overrun"), std::string::npos);
  // The serve state provider contributed its pacing/per-shard table.
  EXPECT_NE(bundle.find("\"state\""), std::string::npos);
  EXPECT_NE(bundle.find("\"num_shards\":2"), std::string::npos);

  service.stop();
  flight.stop();
}

}  // namespace
}  // namespace loam::obs
