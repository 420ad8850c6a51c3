// loam::cache — memoized inference across the pipeline.
//
// One InferenceCache instance bundles the two memo tables the scoring path
// needs (Bao's observation: plan-choice workloads are dominated by repeated
// plan structures, so caching learned-model evaluations is the lever on
// optimizer overhead):
//
//   * encodings — Plan::signature() ⊕ environment fingerprint
//                   -> shared_ptr<const nn::Tree> (the featurized plan);
//   * scores    — Plan::signature() ⊕ environment fingerprint ⊕ model epoch
//                   -> double (the predictor's cost for that plan).
//
// The model epoch in the score key is what makes hot-swap invalidation
// structural rather than operational: serve keys scores by the REGISTRY
// VERSION that produced them, so after a swap every lookup under the new
// version misses by construction — a stale entry cannot be served, it can
// only age out of the LRU. Offline deployments bump a local epoch on every
// (re)train for the same effect.
//
// Caching is bit-exact, never approximate: a hit returns a value previously
// computed by the exact code path a miss would run, and both PlanEncoder
// and predict_batch are deterministic functions of the key's inputs. Tests
// assert that explorer candidate sets, gate verdicts, and served plan
// choices are bit-identical with the cache on and off.
//
// Metrics: loam.cache.<name>.{enc,score}.{hits,misses,inserts,evictions}
// counters plus loam.cache.<name>.{enc,score}.size gauges (obs-gated; the
// always-on CacheStats counters on the LRU itself serve tests and
// BENCH_cache.json). MemoTable packages an LRU with that mirror so other
// memo tables in a cache scope (serve's explore memo) export alike.
#ifndef LOAM_CACHE_CACHE_H_
#define LOAM_CACHE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "cache/lru.h"
#include "nn/tree_conv.h"

namespace loam::obs {
class Counter;
class Gauge;
}  // namespace loam::obs

namespace loam::cache {

// Order-sensitive key combinator (distinct from XOR-folding: combine(a, b)
// != combine(b, a)), splitmix-finalized at every step.
std::uint64_t combine(std::uint64_t a, std::uint64_t b);

// Fingerprint of a small numeric vector (e.g. the four environment
// features) by exact bit pattern — two environments key alike only when
// every double is bit-identical, which is exactly when the encoder would
// produce the same rows.
std::uint64_t fingerprint(std::span<const double> values);

struct CacheConfig {
  bool enabled = true;
  std::size_t encoding_capacity = 4096;   // featurized plans
  std::size_t score_capacity = 1 << 16;   // final ranker/predictor scores
  int shards = 8;                         // lock stripes per table
};

// Obs mirror of one memo table: loam.cache.<scope>.<table>.{hits,misses,
// inserts,evictions} counters plus a .size gauge.
class TableMetrics {
 public:
  // `prefix` is the full series stem, e.g. "loam.cache.serve.score".
  explicit TableMetrics(const std::string& prefix);
  void on_get(bool hit) const;
  // Returns true when the caller should refresh the size gauge (obs on and
  // the put created an entry) — size() walks every stripe, so it is only
  // paid when someone is recording.
  bool on_put(PutOutcome outcome) const;
  void set_size(std::size_t size) const;

 private:
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
  obs::Gauge* size_;
};

// One metered memo table: a ShardedLru plus its TableMetrics. A disabled
// table (CacheConfig::enabled == false) is never consulted — every get is
// an uncounted miss and every put is dropped.
template <typename Value>
class MemoTable {
 public:
  MemoTable(const std::string& prefix, std::size_t capacity,
            const CacheConfig& config)
      : enabled_(config.enabled),
        lru_(config.enabled ? capacity : 0, config.shards),
        metrics_(prefix) {}

  std::optional<Value> get(std::uint64_t key) {
    if (!enabled_) return std::nullopt;
    std::optional<Value> hit = lru_.get(key);
    metrics_.on_get(hit.has_value());
    return hit;
  }

  void put(std::uint64_t key, Value value) {
    if (!enabled_) return;
    if (metrics_.on_put(lru_.put(key, std::move(value)))) {
      metrics_.set_size(lru_.size());
    }
  }

  void clear() { lru_.clear(); }
  CacheStats stats() const { return lru_.stats(); }
  std::size_t size() const { return lru_.size(); }

 private:
  bool enabled_;
  ShardedLru<Value> lru_;
  TableMetrics metrics_;
};

class InferenceCache {
 public:
  // `name` scopes the obs series: loam.cache.<name>.*
  InferenceCache(const std::string& name, CacheConfig config);

  bool enabled() const { return config_.enabled; }
  const CacheConfig& config() const { return config_; }

  // --- key builders (pure) ---
  static std::uint64_t encoding_key(std::uint64_t plan_key, std::uint64_t env_fp);
  // `model_epoch` is the registry version (serve) or a local retrain epoch
  // (offline deployments); it MUST change whenever the model's weights or
  // scaler change.
  static std::uint64_t score_key(std::uint64_t plan_key, std::uint64_t env_fp,
                                 std::int64_t model_epoch);

  // --- encodings ---
  std::shared_ptr<const nn::Tree> get_encoding(std::uint64_t key);
  void put_encoding(std::uint64_t key, std::shared_ptr<const nn::Tree> tree);

  // --- scores ---
  std::optional<double> get_score(std::uint64_t key);
  void put_score(std::uint64_t key, double score);

  // Drops all entries from both tables (used when the ENCODER itself
  // changes, e.g. refit normalizers — epoch keying already covers model
  // changes).
  void clear();

  CacheStats encoding_stats() const { return encodings_.stats(); }
  CacheStats score_stats() const { return scores_.stats(); }
  std::size_t encoding_size() const { return encodings_.size(); }
  std::size_t score_size() const { return scores_.size(); }

 private:
  CacheConfig config_;
  MemoTable<std::shared_ptr<const nn::Tree>> encodings_;
  MemoTable<double> scores_;
};

}  // namespace loam::cache

#endif  // LOAM_CACHE_CACHE_H_
