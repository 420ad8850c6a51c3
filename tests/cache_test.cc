// loam::cache tests: LRU semantics, concurrent stress (run under TSan),
// semantic-signature keying, and bit-identity of every memoized path —
// encoder node rows, deployment selection, and parallel gate replay.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "cache/lru.h"
#include "core/gate.h"
#include "core/loam.h"
#include "warehouse/flighting.h"

namespace loam {
namespace {

using cache::CacheConfig;
using cache::CacheStats;
using cache::InferenceCache;
using cache::ShardedLru;
using warehouse::OpType;
using warehouse::Plan;
using warehouse::PlanNode;

// ---------------------------------------------------------------------------
// ShardedLru unit semantics
// ---------------------------------------------------------------------------

TEST(ShardedLruTest, GetPutUpdateRoundTrip) {
  ShardedLru<int> lru(8, 1);  // one stripe: deterministic eviction order
  EXPECT_FALSE(lru.get(1).has_value());
  EXPECT_EQ(lru.put(1, 10), ShardedLru<int>::PutOutcome::kInserted);
  EXPECT_EQ(lru.put(2, 20), ShardedLru<int>::PutOutcome::kInserted);
  ASSERT_TRUE(lru.get(1).has_value());
  EXPECT_EQ(*lru.get(1), 10);
  EXPECT_EQ(lru.put(1, 11), ShardedLru<int>::PutOutcome::kUpdated);
  EXPECT_EQ(*lru.get(1), 11);
  EXPECT_EQ(lru.size(), 2u);
  const CacheStats st = lru.stats();
  EXPECT_EQ(st.inserts, 2u);
  EXPECT_EQ(st.updates, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 3u);
}

TEST(ShardedLruTest, EvictsLeastRecentlyUsed) {
  ShardedLru<int> lru(3, 1);
  lru.put(1, 1);
  lru.put(2, 2);
  lru.put(3, 3);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(lru.get(1).has_value());
  EXPECT_EQ(lru.put(4, 4), ShardedLru<int>::PutOutcome::kInsertedEvicting);
  EXPECT_FALSE(lru.get(2).has_value());  // evicted
  EXPECT_TRUE(lru.get(1).has_value());
  EXPECT_TRUE(lru.get(3).has_value());
  EXPECT_TRUE(lru.get(4).has_value());
  EXPECT_EQ(lru.stats().evictions, 1u);
  EXPECT_EQ(lru.size(), 3u);
}

TEST(ShardedLruTest, ZeroCapacityDisables) {
  ShardedLru<int> lru(0);
  EXPECT_EQ(lru.put(1, 1), ShardedLru<int>::PutOutcome::kDropped);
  EXPECT_FALSE(lru.get(1).has_value());
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.capacity(), 0u);
}

TEST(ShardedLruTest, ShardCountRoundsToPowerOfTwo) {
  ShardedLru<int> lru(64, 6);
  EXPECT_EQ(lru.shard_count(), 8);
  EXPECT_GE(lru.capacity(), 64u);
  // Tiny caches collapse to one stripe rather than 8 one-entry stripes.
  ShardedLru<int> tiny(2, 8);
  EXPECT_EQ(tiny.shard_count(), 1);
}

TEST(ShardedLruTest, ClearDropsEntriesKeepsStats) {
  ShardedLru<int> lru(16);
  for (std::uint64_t k = 0; k < 10; ++k) lru.put(k, static_cast<int>(k));
  EXPECT_EQ(lru.size(), 10u);
  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.stats().inserts, 10u);  // lifetime counters survive clear()
  EXPECT_FALSE(lru.get(3).has_value());
}

// Run under TSan by the tools/check.sh matrix: concurrent gets/puts on one
// instance must be race-free, and the always-on stats must account for every
// operation exactly once.
TEST(ShardedLruTest, ConcurrentMixedLoadIsCoherent) {
  ShardedLru<std::uint64_t> lru(256, 8);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 4000;
  std::atomic<std::uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t local_hits = 0;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = (i * 31 + static_cast<std::uint64_t>(t)) % 512;
        if (i % 3 == 0) {
          lru.put(key, key * 2);
        } else if (std::optional<std::uint64_t> v = lru.get(key)) {
          EXPECT_EQ(*v, key * 2);  // values are never torn or mismatched
          ++local_hits;
        }
      }
      observed_hits.fetch_add(local_hits);
    });
  }
  for (std::thread& th : threads) th.join();
  const CacheStats st = lru.stats();
  EXPECT_EQ(st.hits, observed_hits.load());
  EXPECT_EQ(st.hits + st.misses, kThreads * (kOpsPerThread - kOpsPerThread / 3 - 1));
  EXPECT_LE(lru.size(), lru.capacity());
}

// ---------------------------------------------------------------------------
// Key construction
// ---------------------------------------------------------------------------

TEST(CacheKeyTest, CombineIsOrderSensitive) {
  EXPECT_NE(cache::combine(1, 2), cache::combine(2, 1));
  EXPECT_NE(cache::combine(0, 0), 0u);
}

TEST(CacheKeyTest, FingerprintIsBitExact) {
  const double a[4] = {0.5, 0.25, 0.125, 0.0};
  double b[4] = {0.5, 0.25, 0.125, 0.0};
  EXPECT_EQ(cache::fingerprint(a), cache::fingerprint(b));
  b[3] = 1e-300;  // any bit flip changes the key
  EXPECT_NE(cache::fingerprint(a), cache::fingerprint(b));
  const double short3[3] = {0.5, 0.25, 0.125};
  EXPECT_NE(cache::fingerprint(a), cache::fingerprint(short3));
}

TEST(CacheKeyTest, EncodingAndScoreTablesNeverAlias) {
  // Same (plan, env) pair must produce distinct keys for the two tables, and
  // the score key must move with the model epoch.
  const std::uint64_t plan_key = 0xabcdefull, env = 0x1234ull;
  EXPECT_NE(InferenceCache::encoding_key(plan_key, env),
            InferenceCache::score_key(plan_key, env, 0));
  EXPECT_NE(InferenceCache::score_key(plan_key, env, 1),
            InferenceCache::score_key(plan_key, env, 2));
  EXPECT_NE(InferenceCache::encoding_key(plan_key, env),
            InferenceCache::encoding_key(plan_key, env + 1));
}

TEST(InferenceCacheTest, DisabledCacheNeverHits) {
  CacheConfig cc;
  cc.enabled = false;
  InferenceCache cache("test_disabled", cc);
  cache.put_score(1, 2.0);
  EXPECT_FALSE(cache.get_score(1).has_value());
  cache.put_encoding(1, std::make_shared<const nn::Tree>());
  EXPECT_EQ(cache.get_encoding(1), nullptr);
}

TEST(InferenceCacheTest, ScoreRoundTripAndStats) {
  InferenceCache cache("test_scores", CacheConfig{});
  const std::uint64_t k = InferenceCache::score_key(7, 9, 1);
  EXPECT_FALSE(cache.get_score(k).has_value());
  cache.put_score(k, 123.5);
  ASSERT_TRUE(cache.get_score(k).has_value());
  EXPECT_EQ(*cache.get_score(k), 123.5);
  const CacheStats st = cache.score_stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 1u);
  cache.clear();
  EXPECT_FALSE(cache.get_score(k).has_value());
}

// ---------------------------------------------------------------------------
// Semantic signatures as cache keys
// ---------------------------------------------------------------------------

Plan make_plan(int table_a, int table_b, double est_a, OpType join_op) {
  Plan p;
  PlanNode scan_a;
  scan_a.op = OpType::kTableScan;
  scan_a.table_id = table_a;
  scan_a.partitions_accessed = 4;
  scan_a.columns_accessed = 3;
  scan_a.est_rows = est_a;
  const int a = p.add_node(scan_a);
  PlanNode scan_b;
  scan_b.op = OpType::kTableScan;
  scan_b.table_id = table_b;
  scan_b.partitions_accessed = 2;
  scan_b.columns_accessed = 2;
  scan_b.est_rows = 500;
  const int b = p.add_node(scan_b);
  PlanNode join;
  join.op = join_op;
  join.left = a;
  join.right = b;
  join.join_columns = {"t.a", "t.b"};
  join.est_rows = est_a * 2;
  const int j = p.add_node(join);
  PlanNode sink;
  sink.op = OpType::kSink;
  sink.left = j;
  p.set_root(p.add_node(sink));
  return p;
}

TEST(SignatureKeyTest, DistinctSemanticsNeverCollide) {
  // Sweep a grid of semantically distinct plans (leaf tables x estimate
  // buckets x join operators) and require every signature to be unique —
  // the collision test backing the cache's correctness argument.
  std::set<std::uint64_t> sigs;
  int plans = 0;
  const OpType joins[] = {OpType::kHashJoin, OpType::kMergeJoin,
                          OpType::kBroadcastHashJoin};
  for (int ta = 0; ta < 8; ++ta) {
    for (int tb = 8; tb < 16; ++tb) {
      for (double est : {10.0, 1000.0, 100000.0}) {
        for (OpType j : joins) {
          sigs.insert(make_plan(ta, tb, est, j).signature());
          ++plans;
        }
      }
    }
  }
  EXPECT_EQ(static_cast<int>(sigs.size()), plans);
}

TEST(SignatureKeyTest, JoinColumnOrderAndContentMatter) {
  Plan a = make_plan(0, 1, 100, OpType::kHashJoin);
  Plan b = make_plan(0, 1, 100, OpType::kHashJoin);
  EXPECT_EQ(a.signature(), b.signature());
  b.mutable_node(2).join_columns = {"t.b", "t.a"};  // swapped order
  EXPECT_NE(a.signature(), b.signature());
  Plan c = make_plan(0, 1, 100, OpType::kHashJoin);
  c.mutable_node(2).join_columns = {"t.a", "t.c"};
  EXPECT_NE(a.signature(), c.signature());
}

warehouse::Query make_query() {
  warehouse::Query q;
  q.tables = {3, 5, 7};
  q.joins = {{3, 5, 0, 1, warehouse::JoinForm::kInner},
             {5, 7, 2, 0, warehouse::JoinForm::kLeft}};
  q.predicates = {{3, 1, {warehouse::FilterFn::kEq}, 0.25},
                  {7, 2, {warehouse::FilterFn::kGe, warehouse::FilterFn::kLt},
                   0.5}};
  warehouse::Aggregation agg;
  agg.fn = warehouse::AggFn::kSum;
  agg.table_id = 5;
  agg.column = 3;
  agg.group_by = {{3, 2}};
  q.aggregation = agg;
  q.template_id = "tpl_a";
  q.param_signature = 42;
  q.submit_day = 1;
  return q;
}

// The explore memo's key: every field the optimizer reads must move it, and
// the provenance fields it never reads must not.
TEST(SignatureKeyTest, QuerySignatureCoversOptimizerInputsOnly) {
  using warehouse::Query;
  const std::uint64_t base = make_query().signature();
  EXPECT_EQ(make_query().signature(), base);

  std::vector<std::pair<const char*, void (*)(Query&)>> perturbations = {
      {"table", [](Query& q) { q.tables[1] = 6; }},
      {"table order", [](Query& q) { std::swap(q.tables[0], q.tables[1]); }},
      {"table dropped", [](Query& q) { q.tables.pop_back(); }},
      {"join left table", [](Query& q) { q.joins[0].left_table = 7; }},
      {"join right table", [](Query& q) { q.joins[0].right_table = 3; }},
      {"join left column", [](Query& q) { q.joins[0].left_column = 4; }},
      {"join right column", [](Query& q) { q.joins[1].right_column = 1; }},
      {"join form",
       [](Query& q) { q.joins[1].form = warehouse::JoinForm::kFullOuter; }},
      {"join dropped", [](Query& q) { q.joins.pop_back(); }},
      {"predicate table", [](Query& q) { q.predicates[0].table_id = 5; }},
      {"predicate column", [](Query& q) { q.predicates[0].column = 2; }},
      {"predicate fn",
       [](Query& q) { q.predicates[0].fns[0] = warehouse::FilterFn::kNe; }},
      {"predicate fn added",
       [](Query& q) {
         q.predicates[0].fns.push_back(warehouse::FilterFn::kLike);
       }},
      {"selectivity bits",
       [](Query& q) {
         q.predicates[1].selectivity =
             std::nextafter(q.predicates[1].selectivity, 1.0);
       }},
      {"predicate dropped", [](Query& q) { q.predicates.pop_back(); }},
      {"agg fn", [](Query& q) { q.aggregation->fn = warehouse::AggFn::kMax; }},
      {"agg table", [](Query& q) { q.aggregation->table_id = 7; }},
      {"agg column", [](Query& q) { q.aggregation->column = 1; }},
      {"group by",
       [](Query& q) { q.aggregation->group_by[0] = {3, 1}; }},
      {"group by added",
       [](Query& q) { q.aggregation->group_by.push_back({7, 0}); }},
      {"agg dropped", [](Query& q) { q.aggregation.reset(); }},
  };
  std::set<std::uint64_t> seen = {base};
  for (const auto& [name, perturb] : perturbations) {
    Query q = make_query();
    perturb(q);
    const std::uint64_t sig = q.signature();
    EXPECT_NE(sig, base) << name;
    EXPECT_TRUE(seen.insert(sig).second) << name << " collides";
  }

  Query provenance = make_query();
  provenance.template_id = "tpl_b";
  provenance.param_signature = 43;
  provenance.submit_day = 9;
  EXPECT_EQ(provenance.signature(), base);
}

// ---------------------------------------------------------------------------
// Pipeline bit-identity: cached vs uncached must be indistinguishable
// ---------------------------------------------------------------------------

struct PipelineFixture {
  std::unique_ptr<core::ProjectRuntime> runtime;

  PipelineFixture() {
    warehouse::ProjectArchetype a;
    a.name = "cachefx";
    a.seed = 11;
    a.n_tables = 12;
    a.n_templates = 7;
    a.queries_per_day = 40.0;
    a.stats_coverage = 0.2;
    a.cluster_machines = 16;
    core::RuntimeConfig rc;
    rc.seed = 77;
    runtime = std::make_unique<core::ProjectRuntime>(a, rc);
    runtime->simulate_history(4, 40);
  }

  core::LoamConfig config(bool cache_on) const {
    core::LoamConfig cfg;
    cfg.train_first_day = 0;
    cfg.train_last_day = 3;
    cfg.max_train_queries = 120;
    cfg.candidate_sample_queries = 10;
    cfg.predictor.epochs = 4;
    cfg.predictor.hidden_dim = 16;
    cfg.cache.enabled = cache_on;
    return cfg;
  }
};

TEST(PipelineBitIdentity, EncoderRowCacheReproducesTrees) {
  PipelineFixture fx;
  core::EncodingConfig cold_cfg;
  core::EncodingConfig warm_cfg;
  warm_cfg.row_cache_capacity = 1024;
  core::PlanEncoder cold(&fx.runtime->project().catalog, cold_cfg);
  core::PlanEncoder warm(&fx.runtime->project().catalog, warm_cfg);

  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&fx.runtime->optimizer(), ec);
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(0, 1, 12);
  const warehouse::EnvFeatures env;  // defaults
  for (int pass = 0; pass < 2; ++pass) {  // second pass = warm memo
    for (const warehouse::Query& q : queries) {
      core::CandidateGeneration gen = explorer.explore(q);
      for (const Plan& plan : gen.plans) {
        const nn::Tree a = cold.encode(plan, nullptr, env);
        const nn::Tree b = warm.encode(plan, nullptr, env);
        ASSERT_EQ(a.features.rows(), b.features.rows());
        ASSERT_EQ(a.features.cols(), b.features.cols());
        for (int r = 0; r < a.features.rows(); ++r) {
          auto ra = a.features.row(r);
          auto rb = b.features.row(r);
          for (std::size_t c = 0; c < ra.size(); ++c) {
            ASSERT_EQ(ra[c], rb[c]) << "row " << r << " col " << c;
          }
        }
        EXPECT_EQ(a.left, b.left);
        EXPECT_EQ(a.right, b.right);
      }
    }
  }
  const CacheStats st = warm.row_cache_stats();
  EXPECT_GT(st.hits, 0u);            // shared subtrees actually memoized
  EXPECT_EQ(cold.row_cache_stats().hits, 0u);
}

TEST(PipelineBitIdentity, SelectionIdenticalWithCacheOnAndOff) {
  PipelineFixture fx;
  core::LoamDeployment cached(fx.runtime.get(), fx.config(true));
  core::LoamDeployment plain(fx.runtime.get(), fx.config(false));
  cached.train();
  plain.train();

  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&fx.runtime->optimizer(), ec);
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(4, 5, 10);
  // Two passes: the second hits the warm score cache, and must STILL match
  // the uncached deployment exactly.
  for (int pass = 0; pass < 2; ++pass) {
    for (const warehouse::Query& q : queries) {
      core::CandidateGeneration gen = explorer.explore(q);
      // Candidate sets carry pairwise distinct semantic signatures (the
      // explorer dedups on the common estimate face).
      std::set<std::uint64_t> sigs;
      for (const Plan& p : gen.plans) sigs.insert(p.signature());
      EXPECT_EQ(sigs.size(), gen.plans.size());

      std::vector<double> pred_cached, pred_plain;
      const int sel_cached = cached.select(gen, &pred_cached);
      const int sel_plain = plain.select(gen, &pred_plain);
      EXPECT_EQ(sel_cached, sel_plain);
      ASSERT_EQ(pred_cached.size(), pred_plain.size());
      for (std::size_t i = 0; i < pred_cached.size(); ++i) {
        EXPECT_EQ(pred_cached[i], pred_plain[i]) << "candidate " << i;
      }
    }
  }
  EXPECT_GT(cached.inference_cache().score_stats().hits, 0u);
  EXPECT_EQ(plain.inference_cache().score_stats().hits, 0u);
}

TEST(PipelineBitIdentity, RetrainEpochInvalidatesScores) {
  PipelineFixture fx;
  core::LoamDeployment loam(fx.runtime.get(), fx.config(true));
  loam.train();
  EXPECT_EQ(loam.model_epoch(), 1);
  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&fx.runtime->optimizer(), ec);
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(4, 4, 1);
  ASSERT_FALSE(queries.empty());
  const core::CandidateGeneration gen = explorer.explore(queries.front());
  loam.select(gen);  // populate
  loam.select(gen);  // warm: every candidate hits
  const std::uint64_t hits_warm = loam.inference_cache().score_stats().hits;
  EXPECT_GE(hits_warm, gen.plans.size());
  loam.train();  // epoch bump + clear: every prior score key is dead
  EXPECT_EQ(loam.model_epoch(), 2);
  // Candidates within one generation are signature-unique, so the first
  // post-retrain select cannot hit anything: no entries exist under the new
  // epoch and the old epoch's keys no longer match.
  loam.select(gen);
  EXPECT_EQ(loam.inference_cache().score_stats().hits, hits_warm);
  loam.select(gen);  // and the cache resumes working under the new epoch
  EXPECT_GT(loam.inference_cache().score_stats().hits, hits_warm);
}

TEST(PipelineBitIdentity, SchemaMigrationStrandsEveryPreMigrationCacheKey) {
  PipelineFixture fx;
  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&fx.runtime->optimizer(), ec);
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(4, 4, 6);
  ASSERT_FALSE(queries.empty());

  std::set<std::uint64_t> pre_sigs;
  std::vector<std::size_t> pre_counts;
  for (const warehouse::Query& q : queries) {
    const core::CandidateGeneration gen = explorer.explore(q);
    pre_counts.push_back(gen.plans.size());
    for (const Plan& p : gen.plans) pre_sigs.insert(p.signature());
  }

  // A SHAPE-PRESERVING migration on every base table: no columns change, no
  // rows change — only Table::schema_epoch bumps, exactly the case where a
  // structural signature without the epoch term would keep serving stale
  // cache entries for byte-identical plan trees.
  warehouse::Project& project = fx.runtime->project();
  Rng mig_rng(5);
  for (int id = 0; id < project.catalog.table_count(); ++id) {
    if (project.catalog.table(id).alias_of >= 0) continue;
    warehouse::migrate_table(project, id, 0, 0, 1.0, mig_rng);
    EXPECT_EQ(project.catalog.table(id).schema_epoch, 1);
  }

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const core::CandidateGeneration gen = explorer.explore(queries[i]);
    // Same query, same knobs, same catalog shape: the candidate set is
    // structurally unchanged...
    EXPECT_EQ(gen.plans.size(), pre_counts[i]);
    for (const Plan& p : gen.plans) {
      // ...but every post-migration signature is new, so every cache key
      // derived from it (encoding AND score, any env, any model epoch) can
      // only miss — zero stale hits by construction.
      EXPECT_EQ(pre_sigs.count(p.signature()), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel flighting replay determinism
// ---------------------------------------------------------------------------

TEST(ParallelReplay, PairedReplayBitIdenticalAcrossThreadCounts) {
  PipelineFixture fx;
  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  core::PlanExplorer explorer(&fx.runtime->optimizer(), ec);
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(0, 0, 3);
  ASSERT_FALSE(queries.empty());
  const warehouse::ClusterConfig& cluster_cfg = fx.runtime->config().cluster;
  for (const warehouse::Query& q : queries) {
    core::CandidateGeneration gen = explorer.explore(q);
    const auto serial = warehouse::paired_replay(
        gen.plans, cluster_cfg, fx.runtime->config().executor, 4, 99, nullptr);
    util::ThreadPool pool(3);
    const auto parallel = warehouse::paired_replay(
        gen.plans, cluster_cfg, fx.runtime->config().executor, 4, 99, &pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      ASSERT_EQ(serial[p].size(), parallel[p].size());
      for (std::size_t r = 0; r < serial[p].size(); ++r) {
        EXPECT_EQ(serial[p][r], parallel[p][r]) << "plan " << p << " run " << r;
      }
    }
  }
}

TEST(ParallelReplay, PrepareEvaluationBitIdenticalAcrossThreadCounts) {
  PipelineFixture fx;
  core::PlanExplorer::Config ec;
  ec.num_threads = 1;
  std::vector<warehouse::Query> queries = fx.runtime->make_queries(0, 1, 6);
  const auto serial =
      core::prepare_evaluation(*fx.runtime, queries, ec, 3, 1234, 1);
  const auto parallel =
      core::prepare_evaluation(*fx.runtime, queries, ec, 3, 1234, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].default_index, parallel[i].default_index);
    ASSERT_EQ(serial[i].cost_samples.size(), parallel[i].cost_samples.size());
    for (std::size_t p = 0; p < serial[i].cost_samples.size(); ++p) {
      ASSERT_EQ(serial[i].cost_samples[p], parallel[i].cost_samples[p]);
    }
    ASSERT_EQ(serial[i].mean_cost, parallel[i].mean_cost);
  }
}

TEST(ParallelReplay, GateVerdictsBitIdenticalAcrossThreadCounts) {
  PipelineFixture fx;
  core::LoamDeployment loam(fx.runtime.get(), fx.config(true));
  loam.train();
  core::DeploymentGateConfig serial_gate;
  serial_gate.sample_queries = 8;
  serial_gate.replay_runs = 3;
  serial_gate.replay_threads = 1;
  core::DeploymentGateConfig parallel_gate = serial_gate;
  parallel_gate.replay_threads = 8;
  // make_queries mutates the runtime RNG; evaluate from identical state by
  // re-running against the same runtime is NOT possible, so compare two
  // freshly constructed identical runtimes instead.
  PipelineFixture fx2;
  core::LoamDeployment loam2(fx2.runtime.get(), fx2.config(true));
  loam2.train();
  const core::DeploymentGateReport a =
      core::evaluate_deployment(*fx.runtime, loam, serial_gate);
  const core::DeploymentGateReport b =
      core::evaluate_deployment(*fx2.runtime, loam2, parallel_gate);
  EXPECT_EQ(a.approved, b.approved);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.improved, b.improved);
  EXPECT_EQ(a.regressed, b.regressed);
  EXPECT_EQ(a.default_cost, b.default_cost);
  EXPECT_EQ(a.model_cost, b.model_cost);
  EXPECT_EQ(a.gain, b.gain);
}

}  // namespace
}  // namespace loam
