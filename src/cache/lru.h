// Sharded, lock-striped LRU cache — the memoization primitive behind
// loam::cache (encoded-plan and ranker-score caches, PlanEncoder node rows).
//
// Design constraints, in order:
//   * Correctness under concurrency: callers are the serve batcher, the
//     retrain gate, and parallel explorer workers, all hitting one instance.
//     Keys shard by a mixed hash onto independent stripes, each a mutex +
//     intrusive LRU list + open-addressed map; cross-shard operations do not
//     exist (get/put touch exactly one stripe), so stripes never deadlock.
//   * Values are returned BY COPY (or shared_ptr) — nothing the caller holds
//     can dangle when an eviction lands on another thread.
//   * Statistics are always-on relaxed atomics: tests assert hit/miss/evict
//     counts without enabling the obs layer, and the obs mirror (see
//     cache.h) reads the same numbers.
//
// A cache is a performance object, never a correctness one: every caller
// must produce bit-identical results with the cache removed. Keys therefore
// have to cover EVERY input of the memoized computation (see
// docs/CACHING.md for the keying scheme).
#ifndef LOAM_CACHE_LRU_H_
#define LOAM_CACHE_LRU_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace loam::cache {

// Monotonic counters aggregated across shards. `hits + misses` counts gets;
// `inserts` counts puts that created a new entry; `updates` puts that
// overwrote an existing key; `evictions` LRU displacements.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t updates = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// What a put() did — callers mirroring the event into obs counters need
// the outcome, and racing on before/after stats() deltas would miscount.
enum class PutOutcome { kInserted, kUpdated, kInsertedEvicting, kDropped };

template <typename Value>
class ShardedLru {
 public:
  // `capacity` entries total, spread over `shards` stripes (each stripe gets
  // ceil(capacity/shards)). Shard count is rounded up to a power of two so
  // shard selection is a mask, not a division. capacity == 0 disables the
  // cache: every get misses, every put is dropped.
  explicit ShardedLru(std::size_t capacity, int shards = 8) {
    std::size_t n = 1;
    while (n < static_cast<std::size_t>(shards < 1 ? 1 : shards)) n <<= 1;
    if (capacity > 0 && n > capacity) n = 1;  // tiny caches: one stripe
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
    shard_capacity_ = capacity == 0 ? 0 : (capacity + n - 1) / n;
    mask_ = n - 1;
  }

  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  // Copy-out lookup; promotes the entry to most-recently-used.
  std::optional<Value> get(std::uint64_t key) {
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it == s.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second->second;
  }

  using PutOutcome = cache::PutOutcome;

  // Inserts or overwrites; the entry becomes most-recently-used. Evicts the
  // stripe's least-recently-used entry when the stripe is full.
  PutOutcome put(std::uint64_t key, Value value) {
    if (shard_capacity_ == 0) return PutOutcome::kDropped;
    Shard& s = shard(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(key);
    if (it != s.index.end()) {
      it->second->second = std::move(value);
      s.lru.splice(s.lru.begin(), s.lru, it->second);
      updates_.fetch_add(1, std::memory_order_relaxed);
      return PutOutcome::kUpdated;
    }
    bool evicted = false;
    if (s.lru.size() >= shard_capacity_) {
      s.index.erase(s.lru.back().first);
      s.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evicted = true;
    }
    s.lru.emplace_front(key, std::move(value));
    s.index[key] = s.lru.begin();
    inserts_.fetch_add(1, std::memory_order_relaxed);
    return evicted ? PutOutcome::kInsertedEvicting : PutOutcome::kInserted;
  }

  // Drops every entry (statistics keep accumulating — they describe the
  // cache's lifetime, not its current contents).
  void clear() {
    for (const std::unique_ptr<Shard>& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->lru.clear();
      s->index.clear();
    }
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const std::unique_ptr<Shard>& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      n += s->lru.size();
    }
    return n;
  }

  std::size_t capacity() const { return shard_capacity_ * shards_.size(); }
  int shard_count() const { return static_cast<int>(shards_.size()); }

  CacheStats stats() const {
    CacheStats st;
    st.hits = hits_.load(std::memory_order_relaxed);
    st.misses = misses_.load(std::memory_order_relaxed);
    st.inserts = inserts_.load(std::memory_order_relaxed);
    st.updates = updates_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    // front = most recent. The index maps key -> list node; the list owns
    // key + value so eviction needs no second lookup.
    std::list<std::pair<std::uint64_t, Value>> lru;
    std::unordered_map<std::uint64_t, typename std::list<std::pair<std::uint64_t, Value>>::iterator> index;
  };

  Shard& shard(std::uint64_t key) {
    // Keys are already well-mixed hashes; remix anyway so adversarially
    // aligned key sets cannot pile onto one stripe.
    return *shards_[static_cast<std::size_t>(mix64(key)) & mask_];
  }

  // unique_ptr elements because Shard owns a mutex (immovable).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_capacity_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, inserts_{0}, updates_{0},
      evictions_{0};
};

}  // namespace loam::cache

#endif  // LOAM_CACHE_LRU_H_
