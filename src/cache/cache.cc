#include "cache/cache.h"

#include <cstring>

#include "obs/obs.h"

namespace loam::cache {

std::uint64_t combine(std::uint64_t a, std::uint64_t b) {
  // splitmix-finalize a keyed mix of both words; the 0x9e37... rotation keeps
  // combine order-sensitive.
  return mix64(a ^ (b * 0x9e3779b97f4a7c15ull) ^ 0x7f4a7c15ull);
}

std::uint64_t fingerprint(std::span<const double> values) {
  std::uint64_t h = 0x1000193ull + values.size();
  for (double v : values) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    h = combine(h, bits);
  }
  return h;
}

namespace {

// One salt per table keeps an encoding key from ever colliding with a score
// key built over the same (plan, env) pair.
constexpr std::uint64_t kEncodingSalt = 0xe2c0d1f6ull;
constexpr std::uint64_t kScoreSalt = 0x5c0e5a17ull;

}  // namespace

std::uint64_t InferenceCache::encoding_key(std::uint64_t plan_key,
                                           std::uint64_t env_fp) {
  return combine(combine(kEncodingSalt, plan_key), env_fp);
}

std::uint64_t InferenceCache::score_key(std::uint64_t plan_key,
                                        std::uint64_t env_fp,
                                        std::int64_t model_epoch) {
  return combine(combine(combine(kScoreSalt, plan_key), env_fp),
                 static_cast<std::uint64_t>(model_epoch));
}

TableMetrics::TableMetrics(const std::string& prefix) {
  obs::Registry& reg = obs::Registry::instance();
  hits_ = reg.counter(prefix + ".hits");
  misses_ = reg.counter(prefix + ".misses");
  inserts_ = reg.counter(prefix + ".inserts");
  evictions_ = reg.counter(prefix + ".evictions");
  size_ = reg.gauge(prefix + ".size");
}

void TableMetrics::on_get(bool hit) const { (hit ? hits_ : misses_)->add(); }

bool TableMetrics::on_put(PutOutcome outcome) const {
  if (outcome != PutOutcome::kInserted &&
      outcome != PutOutcome::kInsertedEvicting) {
    return false;
  }
  inserts_->add();
  if (outcome == PutOutcome::kInsertedEvicting) evictions_->add();
  return obs::metrics_on();
}

void TableMetrics::set_size(std::size_t size) const {
  size_->set(static_cast<double>(size));
}

InferenceCache::InferenceCache(const std::string& name, CacheConfig config)
    : config_(config),
      encodings_("loam.cache." + name + ".enc", config.encoding_capacity,
                 config),
      scores_("loam.cache." + name + ".score", config.score_capacity, config) {}

std::shared_ptr<const nn::Tree> InferenceCache::get_encoding(std::uint64_t key) {
  std::optional<std::shared_ptr<const nn::Tree>> hit = encodings_.get(key);
  return hit ? std::move(*hit) : nullptr;
}

void InferenceCache::put_encoding(std::uint64_t key,
                                  std::shared_ptr<const nn::Tree> tree) {
  if (tree != nullptr) encodings_.put(key, std::move(tree));
}

std::optional<double> InferenceCache::get_score(std::uint64_t key) {
  return scores_.get(key);
}

void InferenceCache::put_score(std::uint64_t key, double score) {
  scores_.put(key, score);
}

void InferenceCache::clear() {
  encodings_.clear();
  scores_.clear();
}

}  // namespace loam::cache
