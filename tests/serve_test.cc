// Tests of the online optimizer service: native fallback, bootstrap +
// gated promotion, hot-swap safety under concurrent serving (the TSan gate
// certifies this suite), deviance-triggered rollback, restart continuity
// from the durable registry + journal, and the registry meta parser.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "serve/service.h"
#include "warehouse/flighting.h"

namespace loam::serve {
namespace {

namespace fs = std::filesystem;

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
            ("loam_serve_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~ServeFixture() { fs::remove_all(root); }

  // Small everything: tiny predictor, short gate, low thresholds — the suite
  // runs inside the tier-1 budget (and again under TSan).
  ServeConfig config() const {
    ServeConfig cfg;
    cfg.predictor.epochs = 4;
    cfg.predictor.hidden_dim = 16;
    cfg.predictor.embed_dim = 16;
    cfg.predictor.tcn_layers = 2;
    cfg.gate.sample_queries = 6;
    cfg.gate.replay_runs = 2;
    cfg.min_train_examples = 20;
    cfg.bootstrap_candidate_queries = 10;
    cfg.registry_root = root + "/registry";
    cfg.journal_path = root + "/feedback.jnl";
    return cfg;
  }

  // Ground truth for record_feedback: replay the served plan in flighting.
  warehouse::ExecutionResult execute(const warehouse::Plan& plan,
                                     std::uint64_t seed) const {
    warehouse::FlightingEnv env(runtime->config().cluster,
                                runtime->config().executor, seed);
    return env.replay_once(plan);
  }
};

std::unique_ptr<core::AdaptiveCostPredictor> untrained_model(
    const OptimizerService& service) {
  return std::make_unique<core::AdaptiveCostPredictor>(
      service.encoder().feature_dim(), service.config().predictor);
}

ModelVersionMeta approved_meta() {
  ModelVersionMeta meta;
  meta.approved = true;
  return meta;
}

TEST(OptimizerService, NativeFallbackServesDefaultPlans) {
  ServeFixture fx("fallback");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  OptimizerService service(fx.runtime.get(), cfg);

  // Before start() admission is closed.
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 5, 4);
  ASSERT_GE(queries.size(), 2u);
  std::future<ServeDecision> future;
  EXPECT_FALSE(service.try_submit(queries[0], &future));
  EXPECT_THROW(service.optimize(queries[0]), std::runtime_error);
  EXPECT_GE(service.stats().rejected, 2u);

  service.start();
  EXPECT_EQ(service.active_version(), -1);
  for (const warehouse::Query& q : queries) {
    const ServeDecision d = service.optimize(q);
    EXPECT_EQ(d.model_version, -1);
    EXPECT_EQ(d.chosen, d.generation.default_index);
    EXPECT_TRUE(d.predicted.empty());
    EXPECT_GE(d.batch_size, 1);
  }
  const OptimizerService::Stats stats = service.stats();
  EXPECT_EQ(stats.fallback_decisions, queries.size());
  EXPECT_GE(stats.batches, 1u);

  // An empty journal is below min_train_examples: retrain skips, no version.
  EXPECT_FALSE(service.retrain_sync());
  EXPECT_EQ(service.stats().retrain_skipped, 1u);
  EXPECT_EQ(service.active_version(), -1);
  service.stop();
}

TEST(OptimizerService, BootstrapTrainsGatesAndPromotes) {
  ServeFixture fx("bootstrap");
  ServeConfig cfg = fx.config();
  cfg.auto_retrain = false;
  // Lenient gate: this test exercises the promotion plumbing, not the
  // model's quality.
  cfg.gate.max_regression = 1e9;
  cfg.gate.max_regression_ratio = 1e9;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  EXPECT_GT(service.journal().records(), 0u);
  EXPECT_GT(service.journal().executed_records(), 0u);
  ASSERT_EQ(service.active_version(), 1);
  const OptimizerService::Stats stats = service.stats();
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.retrain_approved, 1u);
  EXPECT_GE(stats.swaps, 1u);

  const auto meta = service.registry().latest_approved();
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->version, 1);
  EXPECT_TRUE(meta->approved);
  EXPECT_EQ(meta->watermark_day, 4);  // history covers days 0..4
  EXPECT_GT(meta->journal_records, 0u);
  EXPECT_FALSE(meta->gate_json.empty());
  EXPECT_TRUE(fs::exists(meta->checkpoint_path));

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(8, 8, 3);
  for (const warehouse::Query& q : queries) {
    const ServeDecision d = service.optimize(q);
    EXPECT_EQ(d.model_version, 1);
    ASSERT_EQ(d.predicted.size(), d.generation.plans.size());
    EXPECT_GE(d.chosen, 0);
    EXPECT_LT(d.chosen, static_cast<int>(d.generation.plans.size()));
    // Feedback flows back into the journal.
    const std::uint64_t before = service.journal().executed_records();
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 99));
    EXPECT_EQ(service.journal().executed_records(), before + 1);
  }
  service.stop();
}

TEST(OptimizerService, GateRejectionKeepsFallbackButAuditsVersion) {
  ServeFixture fx("reject");
  ServeConfig cfg = fx.config();
  cfg.auto_retrain = false;
  cfg.gate.max_regression = -0.99;  // demand an impossible 99% gain
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  EXPECT_EQ(service.active_version(), -1);
  EXPECT_EQ(service.stats().retrain_rejected, 1u);
  EXPECT_FALSE(service.registry().latest_approved().has_value());
  // The rejected model is still in the registry for auditing.
  const std::vector<ModelVersionMeta> versions = service.registry().versions();
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_FALSE(versions[0].approved);
  EXPECT_TRUE(fs::exists(versions[0].checkpoint_path));

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(8, 8, 2);
  for (const warehouse::Query& q : queries) {
    EXPECT_EQ(service.optimize(q).model_version, -1);
  }
  service.stop();
}

TEST(OptimizerService, HotSwapStressEveryRequestServedByExactlyOneVersion) {
  ServeFixture fx("swapstress");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.max_batch = 4;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  ModelVersionMeta m1;  // v1 stays promotable for the swap loop
  m1.approved = true;
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), m1), 1);
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            2);

  // Pre-generate all queries on the main thread: make_queries mutates the
  // runtime's RNG and must not race the submitters.
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 24);
  ASSERT_GE(queries.size(), 8u);
  const std::size_t half = queries.size() / 2;

  std::atomic<bool> swapping{true};
  std::vector<ServeDecision> decisions(queries.size());
  auto submitter = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      decisions[i] = service.optimize(queries[i]);
    }
  };
  std::thread swapper([&] {
    int k = 0;
    while (swapping.load(std::memory_order_relaxed)) {
      switch (k++ % 3) {
        case 0: service.swap_to_version(1); break;
        case 1: service.swap_to_version(2); break;
        default: service.swap_to_fallback(); break;
      }
      std::this_thread::yield();
    }
  });
  std::thread a(submitter, 0, half);
  std::thread b(submitter, half, queries.size());
  a.join();
  b.join();
  swapping.store(false, std::memory_order_relaxed);
  swapper.join();

  for (const ServeDecision& d : decisions) {
    // Exactly one registry version (or the fallback) served each request,
    // and the decision payload is internally consistent with it.
    EXPECT_TRUE(d.model_version == -1 || d.model_version == 1 ||
                d.model_version == 2);
    if (d.model_version >= 0) {
      EXPECT_EQ(d.predicted.size(), d.generation.plans.size());
    } else {
      EXPECT_TRUE(d.predicted.empty());
      EXPECT_EQ(d.chosen, d.generation.default_index);
    }
    EXPECT_GE(d.chosen, 0);
    EXPECT_LT(d.chosen, static_cast<int>(d.generation.plans.size()));
  }
  const OptimizerService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_GE(stats.swaps, 2u);
  service.stop();
}

TEST(OptimizerService, HotSwapInvalidatesScoreCacheStructurally) {
  ServeFixture fx("cacheswap");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  ModelVersionMeta m1;  // v1 stays promotable for the rollback leg below
  m1.approved = true;
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), m1), 1);

  // One query served repeatedly: exploration is deterministic, so every pass
  // presents the same (signature-unique) candidate set.
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 5, 1);
  ASSERT_FALSE(queries.empty());
  const warehouse::Query& q = queries.front();

  const ServeDecision cold = service.optimize(q);
  ASSERT_EQ(cold.model_version, 1);
  const std::uint64_t n = cold.generation.plans.size();
  EXPECT_EQ(service.inference_cache().score_stats().hits, 0u);
  const ServeDecision warm = service.optimize(q);
  const std::uint64_t hits_v1 = service.inference_cache().score_stats().hits;
  EXPECT_GE(hits_v1, n);  // the whole candidate set re-served from cache
  // ... and bit-identical to the cold pass.
  EXPECT_EQ(warm.chosen, cold.chosen);
  ASSERT_EQ(warm.predicted.size(), cold.predicted.size());
  for (std::size_t i = 0; i < warm.predicted.size(); ++i) {
    EXPECT_EQ(warm.predicted[i], cold.predicted[i]);
  }

  // Hot-swap: score keys carry the registry version, so v1's entries cannot
  // match a single lookup made on behalf of v2 — zero stale hits, by
  // construction rather than by flushing.
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            2);
  const ServeDecision post_swap = service.optimize(q);
  EXPECT_EQ(post_swap.model_version, 2);
  EXPECT_EQ(service.inference_cache().score_stats().hits, hits_v1);
  service.optimize(q);  // the cache resumes working under v2
  EXPECT_GT(service.inference_cache().score_stats().hits, hits_v1);

  // Rolling back to v1 re-hits its still-valid entries: same checkpoint,
  // same scores — a legitimate reuse, not staleness.
  service.swap_to_version(1);
  const std::uint64_t before_rollback =
      service.inference_cache().score_stats().hits;
  const ServeDecision rolled = service.optimize(q);
  EXPECT_EQ(rolled.model_version, 1);
  EXPECT_GE(service.inference_cache().score_stats().hits, before_rollback + n);
  EXPECT_EQ(rolled.chosen, cold.chosen);
  service.stop();
}

TEST(OptimizerService, DevianceRollbackStepsDownThroughVersions) {
  ServeFixture fx("rollback");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.monitor.window = 8;
  cfg.monitor.min_samples = 3;
  cfg.monitor.max_mean_overrun = 0.5;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  // Two approved versions of an UNTRAINED predictor: its unfitted scaler
  // predicts costs near 1 while real executions land orders of magnitude
  // higher, so the one-sided log overrun trips the monitor deterministically.
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            2);
  ASSERT_EQ(service.active_version(), 2);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 40);
  ASSERT_GE(queries.size(), 10u);
  std::size_t i = 0;
  // Phase 1: regress v2 -> automatic step-down to the previous approved v1.
  while (service.active_version() == 2 && i < queries.size()) {
    const ServeDecision d = service.optimize(queries[i]);
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
    ++i;
  }
  ASSERT_EQ(service.active_version(), 1);
  EXPECT_EQ(service.stats().rollbacks, 1u);
  ASSERT_TRUE(service.registry().find(2).has_value());
  EXPECT_TRUE(service.registry().find(2)->rolled_back);

  // Phase 2: v1 is as bad -> final fallback to the native optimizer.
  while (service.active_version() == 1 && i < queries.size()) {
    const ServeDecision d = service.optimize(queries[i]);
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
    ++i;
  }
  ASSERT_EQ(service.active_version(), -1);
  EXPECT_EQ(service.stats().rollbacks, 2u);
  EXPECT_TRUE(service.registry().find(1)->rolled_back);
  EXPECT_FALSE(service.registry().latest_approved().has_value());

  // Rolled-back versions stay demoted; serving continues on the fallback.
  const ServeDecision d = service.optimize(queries.at(i));
  EXPECT_EQ(d.model_version, -1);
  EXPECT_EQ(d.chosen, d.generation.default_index);
  service.stop();
}

TEST(OptimizerService, RestartResumesLatestApprovedAndJournal) {
  ServeFixture fx("restart");
  ServeConfig cfg = fx.config();
  cfg.auto_retrain = false;
  cfg.gate.max_regression = 1e9;
  cfg.gate.max_regression_ratio = 1e9;

  std::uint64_t journal_records = 0;
  {
    OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    ASSERT_EQ(service.active_version(), 1);
    journal_records = service.journal().records();
    ASSERT_GT(journal_records, 0u);
    service.stop();
  }
  // A restarted service finds the approved version in the registry and the
  // feedback in the journal: no re-bootstrap, no retrain, model hot from
  // the checkpoint.
  OptimizerService service(fx.runtime.get(), cfg);
  EXPECT_EQ(service.active_version(), 1);
  service.start();
  EXPECT_EQ(service.active_version(), 1);
  EXPECT_EQ(service.stats().retrains, 0u);
  EXPECT_EQ(service.journal().records(), journal_records);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(9, 9, 2);
  for (const warehouse::Query& q : queries) {
    const ServeDecision d = service.optimize(q);
    EXPECT_EQ(d.model_version, 1);
    EXPECT_EQ(d.predicted.size(), d.generation.plans.size());
  }
  service.stop();
}

// Pacing knobs scaled for a test-sized service: short filter windows and
// probe intervals so the controller moves through its states within the
// soak's wall time.
PacingConfig test_pacing() {
  PacingConfig p;
  p.enabled = true;
  p.bw_window_ticks = 50'000'000;       // 50ms
  p.delay_window_ticks = 200'000'000;   // 200ms
  p.min_round_ticks = 200'000;          // 0.2ms
  p.probe_interval_ticks = 20'000'000;  // 20ms
  p.min_inflight = 2.0;
  p.max_batch = 8;
  return p;
}

// Overload soak: a 10x-style burst from several submitter threads against a
// paced service. Nothing is ever rejected — excess load is shed to the
// native fallback, counted in stats().shed and the
// loam.serve.pacing.shed_total counter, and every future resolves.
TEST(OptimizerService, PacingOverloadShedsToFallbackWithoutDrops) {
  ServeFixture fx("paceshed");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;  // small: overflow converts to shed, not reject
  cfg.pacing = test_pacing();
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);

  // Metrics on for this soak (the obs house rule: recording is off the
  // decision path and bit-identical on/off), so the shed counter can be
  // checked against stats(). Handles are process-global: compare deltas.
  obs::set_metrics_enabled(true);
  obs::Counter* shed_counter =
      obs::Registry::instance().counter("loam.serve.pacing.shed_total");
  const std::uint64_t shed_before = shed_counter->value();

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 64);
  ASSERT_GE(queries.size(), 16u);
  std::vector<std::future<ServeDecision>> futures(queries.size());
  std::vector<char> admitted(queries.size(), 0);

  // Burst submission: all requests at once from 4 threads — far beyond the
  // cold-start admission window, so the controller must shed.
  const std::size_t n_threads = 4;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < n_threads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += n_threads) {
        admitted[i] = service.try_submit(queries[i], &futures[i]) ? 1 : 0;
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  std::uint64_t shed_seen = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(admitted[i]) << "request " << i << " was rejected";
    const ServeDecision d = futures[i].get();
    EXPECT_TRUE(d.paced);
    ASSERT_GE(d.chosen, 0);
    ASSERT_LT(d.chosen, static_cast<int>(d.generation.plans.size()));
    if (d.shed) {
      ++shed_seen;
      // Shed = the native fallback path: default plan, no model, no batch.
      EXPECT_EQ(d.model_version, -1);
      EXPECT_TRUE(d.predicted.empty());
      EXPECT_EQ(d.chosen, d.generation.default_index);
      EXPECT_EQ(d.batch_size, 0);
      EXPECT_EQ(d.generation.plans.size(), 1u);
    } else {
      EXPECT_EQ(d.model_version, 1);
      EXPECT_EQ(d.predicted.size(), d.generation.plans.size());
      EXPECT_GE(d.batch_size, 1);
    }
  }
  obs::set_metrics_enabled(false);

  const OptimizerService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, shed_seen);
  EXPECT_EQ(shed_counter->value() - shed_before, shed_seen);
  // A synchronized burst against the cold-start window must shed some load.
  EXPECT_GT(shed_seen, 0u);
  EXPECT_LT(shed_seen, queries.size());  // ... but not everything

  const OptimizerService::PacingSnapshot snap = service.pacing_snapshot();
  EXPECT_TRUE(snap.enabled);
  EXPECT_GT(snap.rounds, 0);
  EXPECT_GE(snap.batch_target, 1);
  EXPECT_GE(snap.cwnd, cfg.pacing.min_inflight);
  service.stop();
  EXPECT_EQ(service.pacing_snapshot().inflight, 0);
}

// The pacing house rule: pacing changes which path serves a request and when
// it is scored — never the scores. Whatever subset of a paced burst reaches
// the model must carry decisions bit-identical to an unpaced service scoring
// the same queries, at every submitter thread count; so must an unpaced
// burst, whose batches the batcher coalesces.
TEST(OptimizerService, PacedModelDecisionsBitIdenticalToUnpaced) {
  ServeFixture fx("paceident");
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 24);
  ASSERT_GE(queries.size(), 8u);

  ServeConfig base = fx.config();
  base.bootstrap_from_history = false;
  base.bootstrap_train = false;
  base.auto_retrain = false;
  base.max_batch = 4;
  base.queue_capacity = 8;

  // Reference: pacing off, served serially — every decision on the model.
  std::vector<ServeDecision> want(queries.size());
  {
    ServeConfig cfg = base;
    cfg.registry_root = fx.root + "/registry_ref";
    cfg.journal_path = fx.root + "/feedback_ref.jnl";
    OptimizerService service(fx.runtime.get(), cfg);
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

  // Paced bursts at 1/2/4 submitter threads, plus one unpaced burst: with
  // nothing shed every request reaches the model, and the work-conserving
  // batcher, which never waits for company, must still coalesce the requests
  // that queue behind a batch in service, capped at max_batch.
  struct Leg {
    bool paced;
    std::size_t n_threads;
  };
  for (const Leg leg : {Leg{true, 1}, Leg{true, 2}, Leg{true, 4},
                        Leg{false, 1}}) {
    const std::size_t n_threads = leg.n_threads;
    const std::string tag = std::string(leg.paced ? "paced" : "unpaced") +
                            "_t" + std::to_string(n_threads);
    SCOPED_TRACE(tag);
    ServeConfig cfg = base;
    if (leg.paced) {
      cfg.pacing = test_pacing();
    } else {
      cfg.queue_capacity = queries.size();
    }
    cfg.registry_root = fx.root + "/registry_" + tag;
    cfg.journal_path = fx.root + "/feedback_" + tag + ".jnl";
    OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    ASSERT_EQ(
        service.publish_and_swap(untrained_model(service), approved_meta()),
        1);

    std::vector<std::future<ServeDecision>> futures(queries.size());
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < n_threads; ++t) {
      submitters.emplace_back([&, t] {
        for (std::size_t i = t; i < queries.size(); i += n_threads) {
          ASSERT_TRUE(service.try_submit(queries[i], &futures[i]));
        }
      });
    }
    for (std::thread& th : submitters) th.join();

    std::size_t model_served = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const ServeDecision d = futures[i].get();
      if (d.shed) continue;  // the fallback path is allowed to differ
      ++model_served;
      ASSERT_EQ(d.model_version, 1);
      // Bit-identical scoring: same candidates, same predictions (exact
      // double equality), same choice — regardless of how pacing batched or
      // interleaved the requests.
      ASSERT_EQ(d.generation.plans.size(), want[i].generation.plans.size());
      ASSERT_EQ(d.predicted.size(), want[i].predicted.size());
      for (std::size_t k = 0; k < d.predicted.size(); ++k) {
        EXPECT_EQ(d.predicted[k], want[i].predicted[k]);
      }
      EXPECT_EQ(d.chosen, want[i].chosen);
      EXPECT_EQ(d.predicted_cost, want[i].predicted_cost);
      if (!leg.paced) {
        EXPECT_LE(d.batch_size, base.max_batch);
      }
    }
    // The point of pacing: overload sheds instead of distorting the model
    // path, but an un-overloaded trickle still reaches the model.
    EXPECT_GT(model_served, 0u);
    if (!leg.paced) {
      EXPECT_EQ(model_served, queries.size());
      EXPECT_LT(service.stats().batches, queries.size());
    }
    service.stop();
  }
}

// The injected virtual clock drives every latency field: with a clock that
// advances exactly 1ms per reading, queue_seconds/total_seconds come out as
// exact step multiples — impossible under a wall clock, so this proves no
// code path on the decision's timeline consults real time.
TEST(OptimizerService, VirtualClockMakesLatencyFieldsDeterministic) {
  ServeFixture fx("virtclock");
  ServeConfig cfg = fx.config();
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.pacing = test_pacing();
  constexpr std::int64_t kStepNs = 1'000'000;  // 1ms per clock reading
  auto ticks = std::make_shared<std::atomic<std::int64_t>>(0);
  cfg.clock = [ticks] {
    return ticks->fetch_add(kStepNs, std::memory_order_relaxed) + kStepNs;
  };
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 5, 6);
  ASSERT_GE(queries.size(), 2u);
  for (const warehouse::Query& q : queries) {
    const ServeDecision d = service.optimize(q);
    // Enqueue, pickup, and completion are distinct readings of a strictly
    // increasing clock: at least one step in the queue, two end to end.
    EXPECT_GE(d.queue_seconds, 1e-9 * static_cast<double>(kStepNs));
    EXPECT_GE(d.total_seconds,
              d.queue_seconds + 1e-9 * static_cast<double>(kStepNs));
    const double queue_ms = d.queue_seconds * 1e3;
    const double total_ms = d.total_seconds * 1e3;
    EXPECT_NEAR(queue_ms, std::round(queue_ms), 1e-9);
    EXPECT_NEAR(total_ms, std::round(total_ms), 1e-9);
  }

  // The pacing filters consumed the same virtual timeline: the windowed min
  // delay is a whole number of steps too.
  const OptimizerService::PacingSnapshot snap = service.pacing_snapshot();
  EXPECT_GT(snap.rounds, 0);
  EXPECT_GT(snap.est_min_delay_seconds, 0.0);
  const double delay_ms = snap.est_min_delay_seconds * 1e3;
  EXPECT_NEAR(delay_ms, std::round(delay_ms), 1e-9);
  service.stop();
}

TEST(ModelRegistry, MetaParserRejectsQuantizedAndMalformedFields) {
  const std::string root =
      (fs::temp_directory_path() /
       ("loam_registry_meta_test_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(root);
  core::PredictorConfig pc;
  pc.hidden_dim = 8;
  pc.embed_dim = 8;
  {
    ModelRegistry registry(root);
    registry.publish(core::AdaptiveCostPredictor(6, pc), approved_meta());
  }
  const std::string meta_path = root + "/v000001.meta";
  std::vector<std::string> lines;
  {
    std::ifstream in(meta_path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  // The writer no longer emits the key at all.
  for (const std::string& line : lines) {
    EXPECT_NE(line.rfind("quantized\t", 0), 0u) << line;
  }

  // Each case swaps the line for `key` (or appends one) and rescans.
  struct Case {
    const char* key;
    const char* value;  // nullptr: the key is absent
    bool throws;
  };
  const Case cases[] = {
      {"quantized", "1", true},       {"quantized", "0", false},
      {"quantized", nullptr, false},  {"version", "12abc", true},
      {"gate_gain", "x", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.key) + "=" + (c.value ? c.value : "<absent>"));
    {
      std::ofstream out(meta_path, std::ios::trunc);
      bool replaced = false;
      for (const std::string& line : lines) {
        if (line.rfind(std::string(c.key) + "\t", 0) == 0) {
          if (c.value != nullptr) out << c.key << '\t' << c.value << '\n';
          replaced = true;
        } else {
          out << line << '\n';
        }
      }
      if (!replaced && c.value != nullptr) {
        out << c.key << '\t' << c.value << '\n';
      }
    }
    if (c.throws) {
      try {
        ModelRegistry reopened(root);
        ADD_FAILURE() << "scan accepted the meta";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(meta_path), std::string::npos) << what;
        EXPECT_NE(what.find(c.key), std::string::npos) << what;
      }
    } else {
      ModelRegistry reopened(root);
      const auto meta = reopened.find(1);
      ASSERT_TRUE(meta.has_value());
      EXPECT_TRUE(meta->approved);
      ASSERT_TRUE(reopened.latest_approved().has_value());
      EXPECT_EQ(reopened.latest_approved()->version, 1);
    }
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace loam::serve
