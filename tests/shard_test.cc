// Tests of the shard-per-core serve scale-out: deterministic query routing,
// per-shard feedback journal files, cross-shard hot-swap safety under
// concurrent serving (the TSan gate certifies this suite), rollback while
// sharded, per-shard overload shedding, and the house rule — for a fixed
// shard count, model-path decisions are bit-identical at any submitter
// thread count — plus bit-identity of the explore memo across cache on/off,
// shard counts, and a hot swap.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "warehouse/flighting.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LOAM_TEST_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define LOAM_TEST_TSAN 1
#endif

namespace loam::serve {
namespace {

namespace fs = std::filesystem;

// The 1ms applied-swap budget is a claim about real hardware (enforced in
// Release by bench_micro --serve-scaling). Under TSan's slowdown a preempted
// swapper can hold the announcement slot across a scheduling quantum, so the
// shard's measured pause includes the wait — keep only a sanity bound there.
#ifdef LOAM_TEST_TSAN
constexpr std::int64_t kSwapPauseBudgetNs = 100'000'000;
#else
constexpr std::int64_t kSwapPauseBudgetNs = 1'000'000;
#endif

struct ShardFixture {
  std::unique_ptr<core::ProjectRuntime> runtime;
  std::string root;

  explicit ShardFixture(const std::string& tag) {
    warehouse::ProjectArchetype a;
    a.name = "shard";
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
            ("loam_shard_test_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(root);
    fs::create_directories(root);
  }
  ~ShardFixture() { fs::remove_all(root); }

  ServeConfig config(int num_shards) const {
    ServeConfig cfg;
    cfg.num_shards = num_shards;
    cfg.predictor.epochs = 4;
    cfg.predictor.hidden_dim = 16;
    cfg.predictor.embed_dim = 16;
    cfg.predictor.tcn_layers = 2;
    cfg.gate.sample_queries = 6;
    cfg.gate.replay_runs = 2;
    cfg.min_train_examples = 20;
    cfg.bootstrap_candidate_queries = 10;
    cfg.batch_linger_us = 100;
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
    const OptimizerService& service) {
  return std::make_unique<core::AdaptiveCostPredictor>(
      service.encoder().feature_dim(), service.config().predictor);
}

ModelVersionMeta approved_meta() {
  ModelVersionMeta meta;
  meta.approved = true;
  return meta;
}

TEST(ShardedService, RoutingIsDeterministicAndCoversShards) {
  ShardFixture fx("routing");
  ServeConfig cfg = fx.config(4);
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  OptimizerService service(fx.runtime.get(), cfg);
  ASSERT_EQ(service.num_shards(), 4);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 64);
  ASSERT_GE(queries.size(), 32u);
  std::set<std::size_t> seen;
  for (const warehouse::Query& q : queries) {
    const std::size_t s = service.shard_of(q);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(service.shard_of(q), s);  // stable
    seen.insert(s);
  }
  // A salted-hash router over 8 templates x many bindings must not leave a
  // shard cold across 64 queries.
  EXPECT_EQ(seen.size(), 4u);

  // Serving tags each decision with the shard that handled it.
  service.start();
  for (std::size_t i = 0; i < 8; ++i) {
    const ServeDecision d = service.optimize(queries[i]);
    EXPECT_EQ(d.shard, static_cast<int>(service.shard_of(queries[i])));
  }
  service.stop();
}

TEST(ShardedService, CrossShardHotSwapMidBurstExactlyOneVersion) {
  ShardFixture fx("swapburst");
  ServeConfig cfg = fx.config(4);
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
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 48);
  ASSERT_GE(queries.size(), 16u);

  // Swaps land mid-burst while four submitters spray requests across every
  // shard; each shard applies the epoch broadcast at its own batch boundary.
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
      service.swap_to_version(1 + (k++ & 1));
      std::this_thread::yield();
    }
  });
  {
    const std::size_t quarter = queries.size() / 4;
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      const std::size_t begin = static_cast<std::size_t>(t) * quarter;
      const std::size_t end =
          t == 3 ? queries.size() : begin + quarter;
      submitters.emplace_back(submitter, begin, end);
    }
    for (std::thread& t : submitters) t.join();
  }
  swapping.store(false, std::memory_order_relaxed);
  swapper.join();

  std::set<int> shards_used;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const ServeDecision& d = decisions[i];
    // Exactly one registry version served each request — never the fallback
    // (both announced versions have models) and never a torn mix.
    EXPECT_TRUE(d.model_version == 1 || d.model_version == 2) << d.model_version;
    EXPECT_EQ(d.predicted.size(), d.generation.plans.size());
    EXPECT_EQ(d.shard, static_cast<int>(service.shard_of(queries[i])));
    shards_used.insert(d.shard);
  }
  EXPECT_GT(shards_used.size(), 1u);  // the burst really was cross-shard

  // Every shard that served a batch after the first broadcast picked the
  // swap up; per-shard pause stays far under the 1ms budget.
  std::uint64_t swaps_applied = 0;
  for (int k = 0; k < service.num_shards(); ++k) {
    const ShardStats ss = service.shard_stats(k);
    swaps_applied += ss.swaps_applied;
    EXPECT_LT(ss.swap_pause_max_ns, kSwapPauseBudgetNs) << "shard " << k;
  }
  EXPECT_GE(swaps_applied, 1u);
  EXPECT_GE(service.stats().swaps, 2u);
  service.stop();
}

TEST(ShardedService, RollbackWhileShardedStepsDownChain) {
  ShardFixture fx("shardroll");
  ServeConfig cfg = fx.config(4);
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.monitor.window = 8;
  cfg.monitor.min_samples = 3;
  cfg.monitor.max_mean_overrun = 0.5;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();

  // Two approved versions of an UNTRAINED predictor (costs predicted near 1,
  // realized orders of magnitude higher): the monitor trips deterministically
  // whichever shard served the feedback.
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            2);
  ASSERT_EQ(service.active_version(), 2);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 60);
  ASSERT_GE(queries.size(), 10u);
  std::size_t i = 0;
  std::set<int> fed_shards;
  // Phase 1: regress v2 -> automatic step-down to the previous approved v1.
  // The rollback broadcast must reach every shard: keep serving until each
  // shard's OWN slot has stepped down.
  while (i < queries.size()) {
    const ServeDecision d = service.optimize(queries[i]);
    if (d.model_version >= 0) {
      service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
      fed_shards.insert(d.shard);
    }
    ++i;
    if (service.active_version() == 1) break;
  }
  ASSERT_EQ(service.active_version(), 1);
  EXPECT_EQ(service.stats().rollbacks, 1u);
  EXPECT_TRUE(service.registry().find(2)->rolled_back);

  // Phase 2: v1 is as bad -> final fallback to the native optimizer.
  while (service.active_version() == 1 && i < queries.size()) {
    const ServeDecision d = service.optimize(queries[i]);
    if (d.model_version >= 0) {
      service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 7 + i));
    }
    ++i;
  }
  ASSERT_EQ(service.active_version(), -1);
  EXPECT_EQ(service.stats().rollbacks, 2u);
  EXPECT_TRUE(service.registry().find(1)->rolled_back);
  EXPECT_FALSE(service.registry().latest_approved().has_value());

  // The fallback broadcast reaches every shard that serves again: route one
  // query to each shard and confirm its applied slot stepped all the way
  // down.
  std::map<std::size_t, warehouse::Query> one_per_shard;
  for (; i < queries.size() && one_per_shard.size() < 4u; ++i) {
    one_per_shard.emplace(service.shard_of(queries[i]), queries[i]);
  }
  for (const auto& [shard, query] : one_per_shard) {
    const ServeDecision d = service.optimize(query);
    EXPECT_EQ(d.model_version, -1);
    EXPECT_EQ(d.chosen, d.generation.default_index);
    EXPECT_EQ(service.shard(static_cast<int>(shard)).serving_version(), -1);
  }
  service.stop();
}

// House rule, sharded: for a FIXED shard count, model-path decisions are
// bit-identical at any submitter thread count. Runs under TSan in the
// sanitizer ctest passes.
TEST(ShardedService, FixedShardCountDecisionsBitIdenticalAtAnyThreadCount) {
  ShardFixture fx("sharddet");
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 7, 32);
  ASSERT_GE(queries.size(), 16u);

  auto run = [&](int submitter_threads) {
    ServeConfig cfg = fx.config(4);
    cfg.bootstrap_from_history = false;
    cfg.bootstrap_train = false;
    cfg.auto_retrain = false;
    cfg.registry_root = fx.root + "/registry_t" +
                        std::to_string(submitter_threads);
    cfg.journal_path = fx.root + "/feedback_t" +
                       std::to_string(submitter_threads) + ".jnl";
    OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    // One deterministic version: publish_and_swap assigns v1 from a fresh
    // registry, and the untrained predictor's weights are a pure function of
    // (feature_dim, predictor config).
    EXPECT_EQ(service.publish_and_swap(untrained_model(service),
                                       approved_meta()),
              1);
    std::vector<ServeDecision> decisions(queries.size());
    std::vector<std::thread> threads;
    const std::size_t n = queries.size();
    for (int t = 0; t < submitter_threads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = static_cast<std::size_t>(t); i < n;
             i += static_cast<std::size_t>(submitter_threads)) {
          decisions[i] = service.optimize(queries[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    service.stop();
    return decisions;
  };

  const std::vector<ServeDecision> serial = run(1);
  for (const int threads : {2, 4}) {
    const std::vector<ServeDecision> parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].model_version, serial[i].model_version) << i;
      EXPECT_EQ(parallel[i].shard, serial[i].shard) << i;
      EXPECT_EQ(parallel[i].chosen, serial[i].chosen) << i;
      ASSERT_EQ(parallel[i].predicted.size(), serial[i].predicted.size()) << i;
      for (std::size_t c = 0; c < serial[i].predicted.size(); ++c) {
        // Bit-identical, not approximately equal: batch composition, cache
        // hits, and submitter interleaving must never perturb a score.
        EXPECT_EQ(parallel[i].predicted[c], serial[i].predicted[c])
            << i << ":" << c;
      }
    }
  }
}

// The explore memo is performance-only, like the score and encoding tables:
// a stream of repeated queries decides bit-identically with the cache on and
// off, at 1 and 2 shards, across a mid-stream hot swap. With the cache on, a
// query is memoized on its second miss and hits from then on under either
// version, while the first pass under the new version re-scores every plan
// it has not yet scored under it.
TEST(ShardedService, ExploreMemoBitIdenticalWithCacheOnAndOff) {
  ShardFixture fx("explorememo");
  // Distinct instances by provenance, not by signature, so a memo key that
  // conflated two of them would serve one the other's candidates.
  std::vector<warehouse::Query> queries;
  std::set<std::pair<std::string, std::uint64_t>> distinct;
  for (warehouse::Query& q : fx.runtime->make_queries(5, 7, 12)) {
    if (distinct.emplace(q.template_id, q.param_signature).second) {
      queries.push_back(std::move(q));
    }
  }
  ASSERT_GE(queries.size(), 8u);
  const std::uint64_t n = queries.size();

  auto run = [&](int shards, bool cache_on) {
    const std::string tag =
        std::to_string(shards) + (cache_on ? "_on" : "_off");
    ServeConfig cfg = fx.config(shards);
    cfg.bootstrap_from_history = false;
    cfg.bootstrap_train = false;
    cfg.auto_retrain = false;
    cfg.cache.enabled = cache_on;
    cfg.registry_root = fx.root + "/registry_" + tag;
    cfg.journal_path = fx.root + "/feedback_" + tag + ".jnl";
    OptimizerService service(fx.runtime.get(), cfg);
    service.start();
    EXPECT_EQ(service.publish_and_swap(untrained_model(service),
                                       approved_meta()),
              1);
    auto summed = [&](bool explore) {
      cache::CacheStats sum;
      for (int k = 0; k < service.num_shards(); ++k) {
        const cache::CacheStats st =
            explore ? service.shard(k).explore_stats()
                    : service.shard(k).inference_cache().score_stats();
        sum.hits += st.hits;
        sum.misses += st.misses;
      }
      return sum;
    };

    std::vector<ServeDecision> out;
    for (int pass = 0; pass < 3; ++pass) {
      for (const warehouse::Query& q : queries) {
        out.push_back(service.optimize(q));
      }
    }
    const cache::CacheStats explore_v1 = summed(true);
    if (cache_on) {
      // The first two passes explore (the second one memoizes); the third
      // is served from the memo.
      EXPECT_EQ(explore_v1.misses, 2 * n) << tag;
      EXPECT_EQ(explore_v1.hits, n) << tag;
    } else {
      EXPECT_EQ(explore_v1.hits + explore_v1.misses, 0u) << tag;
    }

    core::PredictorConfig pc = service.config().predictor;
    pc.seed += 1;
    EXPECT_EQ(service.publish_and_swap(
                  std::make_unique<core::AdaptiveCostPredictor>(
                      service.encoder().feature_dim(), pc),
                  approved_meta()),
              2);
    // Score keys carry the version: under v2 a plan hits only once this
    // pass has scored it on the same shard.
    std::set<std::pair<int, std::uint64_t>> scored_v2;
    for (const warehouse::Query& q : queries) {
      const std::uint64_t score_hits = summed(false).hits;
      const ServeDecision d = service.optimize(q);
      EXPECT_EQ(d.model_version, 2) << tag;
      std::uint64_t expected_hits = 0;
      for (const warehouse::Plan& p : d.generation.plans) {
        expected_hits += scored_v2.emplace(d.shard, p.signature()).second ? 0 : 1;
      }
      if (cache_on) {
        EXPECT_EQ(summed(false).hits - score_hits, expected_hits) << tag;
      }
      out.push_back(d);
    }
    if (cache_on) {
      const cache::CacheStats explore_v2 = summed(true);
      EXPECT_EQ(explore_v2.hits - explore_v1.hits, n) << tag;
      EXPECT_EQ(explore_v2.misses, explore_v1.misses) << tag;
    }
    service.stop();
    return out;
  };

  const std::vector<ServeDecision> reference = run(1, false);
  ASSERT_EQ(reference.size(), 4 * n);
  for (const auto& [shards, cache_on] :
       std::vector<std::pair<int, bool>>{{1, true}, {2, false}, {2, true}}) {
    const std::vector<ServeDecision> got = run(shards, cache_on);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const ServeDecision& a = reference[i];
      const ServeDecision& b = got[i];
      SCOPED_TRACE(::testing::Message() << "shards " << shards << " cache "
                                        << cache_on << " request " << i);
      ASSERT_EQ(b.model_version, a.model_version);
      EXPECT_EQ(b.chosen, a.chosen);
      EXPECT_EQ(b.generation.default_index, a.generation.default_index);
      ASSERT_EQ(b.generation.plans.size(), a.generation.plans.size());
      for (std::size_t c = 0; c < a.generation.plans.size(); ++c) {
        EXPECT_EQ(b.generation.plans[c].signature(),
                  a.generation.plans[c].signature());
      }
      ASSERT_EQ(b.predicted.size(), a.predicted.size());
      for (std::size_t c = 0; c < a.predicted.size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.predicted[c]),
                  std::bit_cast<std::uint64_t>(a.predicted[c]));
      }
    }
  }
}

TEST(ShardedService, FeedbackLandsInServingShardsJournalFile) {
  ShardFixture fx("shardjnl");
  ServeConfig cfg = fx.config(4);
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);

  // Every shard file exists from construction, under the journal.s<K> naming.
  for (int k = 0; k < 4; ++k) {
    const std::string path =
        ShardedFeedbackJournal::shard_path(cfg.journal_path, 4, k);
    EXPECT_EQ(path, cfg.journal_path + ".s" + std::to_string(k));
    EXPECT_TRUE(fs::exists(path)) << path;
    EXPECT_EQ(service.journal().shard(k).records(), 0u);
  }

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 24);
  std::map<int, std::uint64_t> executed_per_shard;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const ServeDecision d = service.optimize(queries[i]);
    ASSERT_EQ(d.model_version, 1);
    service.record_feedback(d, fx.execute(d.generation.plans[d.chosen], 11 + i));
    ++executed_per_shard[d.shard];
  }
  std::uint64_t total_executed = 0;
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(service.journal().shard(k).executed_records(),
              executed_per_shard[k])
        << "shard " << k;
    total_executed += service.journal().shard(k).executed_records();
  }
  EXPECT_EQ(total_executed, queries.size());
  EXPECT_EQ(service.journal().executed_records(), total_executed);
  service.stop();
}

TEST(ShardedService, PacedOverloadShedsPerShardNeverRejects) {
  ShardFixture fx("shardshed");
  ServeConfig cfg = fx.config(4);
  cfg.bootstrap_from_history = false;
  cfg.bootstrap_train = false;
  cfg.auto_retrain = false;
  cfg.max_batch = 4;
  cfg.queue_capacity = 8;  // small: overflow converts to shed, not reject
  cfg.pacing.enabled = true;
  cfg.pacing.min_inflight = 2.0;
  OptimizerService service(fx.runtime.get(), cfg);
  service.start();
  ASSERT_EQ(service.publish_and_swap(untrained_model(service), approved_meta()),
            1);

  std::vector<warehouse::Query> queries = fx.runtime->make_queries(5, 8, 64);
  const int kRepeat = 6;
  std::vector<std::thread> submitters;
  std::atomic<std::uint64_t> resolved{0};
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kRepeat; ++r) {
        for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
             i += 4) {
          std::future<ServeDecision> f;
          ASSERT_TRUE(service.try_submit(queries[i], &f));
          const ServeDecision d = f.get();
          EXPECT_TRUE(d.shed ? d.model_version == -1 : true);
          resolved.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : submitters) th.join();

  const OptimizerService::Stats stats = service.stats();
  EXPECT_EQ(resolved.load(), queries.size() * kRepeat);
  EXPECT_EQ(stats.requests, queries.size() * kRepeat);
  EXPECT_EQ(stats.rejected, 0u);  // paced overload never rejects
  // Per-shard stats sum to the service view.
  std::uint64_t shard_requests = 0, shard_shed = 0;
  for (int k = 0; k < 4; ++k) {
    shard_requests += service.shard_stats(k).requests;
    shard_shed += service.shard_stats(k).shed;
  }
  EXPECT_EQ(shard_requests, stats.requests);
  EXPECT_EQ(shard_shed, stats.shed);
  service.stop();
}

}  // namespace
}  // namespace loam::serve
