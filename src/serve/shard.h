// loam::serve shard — the shared-nothing unit of the scale-out service.
//
// Seastar-style shard-per-core: OptimizerService is now a thin router over N
// independent ServeShards. Each shard owns EVERYTHING its request path
// touches —
//
//   * a bounded FIFO + condition variable + its own batcher thread,
//   * its own PlanExplorer (same config as every other shard's, so a query
//     explores identically wherever it lands),
//   * its own PacingController, windowed filters, and cached cwnd /
//     batch-target atomics (the lock-free admission fast path),
//   * its own InferenceCache stripe (obs scope loam.cache.serve.s<K>.*)
//     and explore memo (loam.cache.serve.s<K>.explore.*),
//   * its own ModelSnapshot slot, shed/fallback counters, and
//     loam.serve.shard<K>.* obs series —
//
// so two shards never share a mutex, a cache line of counters, or a filter
// state. The only cross-shard state is immutable after construction (config,
// encoder, env context, native optimizer) or message-like (the swap epoch
// broadcast below).
//
// Hot-swap is an epoch broadcast, not a global lock: the service installs the
// new snapshot in its announcement slot and bumps an atomic epoch; each shard
// checks the epoch at its next BATCH BOUNDARY (one relaxed load per batch on
// the fast path) and, on change, exchanges its own slot — a shared_ptr copy,
// microseconds, measured per shard into loam.serve.shard<K>.swap_pause_seconds.
// Requests in a batch still see exactly one version, and no shard ever waits
// on another shard's swap.
//
// House rule (asserted under TSan): for a FIXED shard count, model-path
// decisions are bit-identical at any submitter thread count. Routing is a
// pure hash of the query's identity, each shard's explorer/encoder/scoring
// path is deterministic per request, and caches only memoize values they
// would recompute bit-identically.
#ifndef LOAM_SERVE_SHARD_H_
#define LOAM_SERVE_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "core/deviance.h"
#include "core/gate.h"
#include "core/loam.h"
#include "obs/registry.h"
#include "serve/pacing.h"

namespace loam::obs {
class FlightRecorder;
}  // namespace loam::obs

namespace loam::serve {

// Immutable view of "the model serving right now". version -1 with a null
// model is the native-optimizer fallback snapshot.
struct ModelSnapshot {
  int version = -1;
  std::shared_ptr<const core::CostModel> model;
};

struct ServeConfig {
  // Shard-per-core scale-out: requests hash to one of `num_shards`
  // independent shards (queue + batcher + pacing + cache stripe each).
  // 1 (default) reproduces the single-shard service exactly — same journal
  // file, same obs series, same decisions. 0 = one shard per hardware
  // thread. The journal layout and replay order depend on the shard count,
  // so restart a service with the shard count it journaled under.
  int num_shards = 1;

  // Admission / batching (per shard).
  std::size_t queue_capacity = 256;
  // Most requests coalesced into one inference batch. The batcher is
  // work-conserving: it never waits for company, it takes up to this many
  // of whatever has queued, so batch size follows the backlog. With pacing
  // on, this seeds the adaptive batch target and sets the two-batch
  // admission floor (PacingController::inflight_floor()).
  int max_batch = 8;

  // Feedback / retraining.
  bool bootstrap_from_history = true;  // seed the journal from the repository
  bool bootstrap_train = true;         // synchronous initial retrain on start()
  bool auto_retrain = true;            // schedule retrains from feedback volume
  int retrain_min_new_records = 64;    // executed records between retrains
  int min_train_examples = 40;         // below this a retrain is skipped
  int max_journal_examples = 4000;     // freshest executed records per retrain
  int candidate_records_per_request = 2;
  int bootstrap_candidate_queries = 40;  // history queries explored for
                                         // candidate records during bootstrap

  core::PredictorConfig predictor;
  core::EncodingConfig encoding;
  core::PlanExplorer::Config explorer;
  core::DeploymentGateConfig gate;
  core::OnlineDevianceMonitor::Config monitor;
  // Cross-request memo (loam::cache): score keys carry the registry version
  // that produced them, so a hot-swap invalidates every cached score
  // structurally — post-swap lookups miss by construction and a stale entry
  // can never serve. Encoding keys are version-free (the encoder is fixed
  // after construction). Performance-only: decisions are bit-identical with
  // caching off. Each shard keeps its own stripe.
  cache::CacheConfig cache;

  // BBR-style adaptive admission + batch pacing (serve/pacing.h). When
  // enabled, `max_batch` becomes the STARTUP seed of an adaptive batch
  // target, and load beyond the estimated bandwidth-delay product is shed to
  // the native-optimizer fallback path instead of rejected — admission never
  // fails while the fallback can absorb it. Pacing changes which path serves
  // a request and when it is scored, never the scores: model-served
  // decisions are bit-identical with pacing on or off. Every shard runs its
  // own controller over its own traffic.
  PacingConfig pacing;

  // Monotonic clock used for ServeDecision::queue_seconds/total_seconds and
  // for feeding the pacing filters, returning nanoseconds. Null (default)
  // uses the process steady clock; tests inject deterministic virtual time
  // so latency fields and every pacing state transition are reproducible
  // without wall-clock sleeps.
  std::function<std::int64_t()> clock;

  // Optional flight recorder (obs/slo.h). Non-owning; must outlive the
  // service. When set, the service registers a "serve" state provider
  // (pacing + per-shard tables in every dump bundle) and forensic dumps
  // fire on deviance rollback, retrain gate rejection, and bounded-queue
  // rejection. Purely observational: no decision consults it.
  obs::FlightRecorder* flight_recorder = nullptr;

  std::string registry_root = "loam_registry";
  std::string journal_path = "loam_feedback.jnl";
  std::uint64_t seed = 0x5eedbeefull;
};

struct ServeDecision {
  std::uint64_t request_id = 0;
  int submit_day = 0;
  core::CandidateGeneration generation;
  int chosen = 0;
  int model_version = -1;       // registry version that served this request;
                                // -1 = native-optimizer fallback
  double predicted_cost = 0.0;  // model's cost for the chosen plan (0 if fallback)
  std::vector<double> predicted;  // per-candidate predictions (empty if fallback)
  int shard = 0;                // shard that served (or shed) this request
  int batch_size = 0;           // requests that shared this inference batch
  double queue_seconds = 0.0;   // admission -> batch pickup
  double total_seconds = 0.0;   // admission -> decision ready
  bool paced = false;           // admission went through the pacing controller
  bool shed = false;            // pacing diverted this request to the native
                                // fallback path (model_version == -1)
};

// Point-in-time view of one shard's pacing controller (tests, bench, CLI).
struct PacingSnapshot {
  bool enabled = false;
  PacingController::State state = PacingController::State::kStartup;
  double est_bw_per_sec = 0.0;       // windowed max service bandwidth
  double est_min_delay_seconds = 0.0;  // windowed min base delay
  double bdp_requests = 0.0;
  double cwnd = 0.0;                 // admission window (requests)
  int batch_target = 0;
  std::int64_t inflight = 0;
  int rounds = 0;
};

// Per-shard counter snapshot (the service's Stats sums these).
struct ShardStats {
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;       // bounded-queue admission failures
  std::uint64_t shed = 0;           // pacing diversions to the native path
  std::uint64_t batches = 0;
  std::uint64_t fallback_decisions = 0;
  std::uint64_t swaps_applied = 0;  // epoch broadcasts this shard picked up
  std::int64_t swap_pause_max_ns = 0;  // worst single snapshot exchange
};

// Active model slot. A mutex whose critical section is a shared_ptr copy,
// NOT std::atomic<shared_ptr>: libstdc++ 12 implements the latter with a
// lock-bit spinlock whose load-side unlock is memory_order_relaxed, which
// leaves the internal pointer read formally unsynchronized with the next
// swap's write — TSan flags it, correctly per the C++ memory model. The
// mutex is uncontended (one load per batch) and the swap pause stays in
// the microseconds (asserted by bench_micro --serve). Leaf lock: neither
// method touches anything else, so it nests under every other mutex.
class SnapshotSlot {
 public:
  std::shared_ptr<const ModelSnapshot> load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }
  // Installs `next`, returning the previously active snapshot.
  std::shared_ptr<const ModelSnapshot> exchange(
      std::shared_ptr<const ModelSnapshot> next) {
    std::lock_guard<std::mutex> lock(mu_);
    snap_.swap(next);
    return next;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> snap_;
};

// One shared-nothing serving shard. Constructed by OptimizerService with a
// read-only Env; everything mutable lives inside.
class ServeShard {
 public:
  // The shard's window onto the service. Pointers are non-owning and outlive
  // the shard; everything reachable through them is either immutable after
  // service construction (config, encoder, native optimizer) or safe for
  // concurrent use (the epoch atomic, the announcement slot behind the
  // callback).
  struct Env {
    int index = 0;
    int num_shards = 1;
    const ServeConfig* config = nullptr;
    const core::PlanEncoder* encoder = nullptr;
    // Environment every inference-path encode uses (none under the no-env
    // ablation); resolved by the service.
    std::optional<warehouse::EnvFeatures> serving_env;
    const warehouse::NativeOptimizer* native = nullptr;
    // Swap broadcast: bumped (release) by the service after it installs a new
    // snapshot in the announcement slot; `announcement()` loads that slot.
    const std::atomic<std::uint64_t>* swap_epoch = nullptr;
    std::function<std::shared_ptr<const ModelSnapshot>()> announcement;
    std::function<std::int64_t()> clock;  // resolved by the service, never null
  };

  explicit ServeShard(Env env);
  ~ServeShard();

  ServeShard(const ServeShard&) = delete;
  ServeShard& operator=(const ServeShard&) = delete;

  // Launches the batcher thread. Idempotent.
  void start();
  // Raises the stop flag and wakes the batcher (does not join) — the service
  // signals every shard before joining any, so shards drain in parallel.
  void stop_async();
  // Joins the batcher after stop_async(). The queue is drained first.
  void join();

  // Admission (see OptimizerService::try_submit for the contract). The fast
  // path reads only this shard's cached pacing atomics and queue.
  bool try_submit(std::uint64_t id, warehouse::Query query,
                  std::future<ServeDecision>* out);

  int index() const { return env_.index; }
  ShardStats stats() const;
  PacingSnapshot pacing_snapshot() const;
  // Version this shard is currently serving (-1 = native fallback). The
  // announced version may be one epoch ahead until the next batch boundary.
  int serving_version() const { return slot_.load()->version; }
  const cache::InferenceCache& inference_cache() const { return infer_cache_; }
  cache::CacheStats explore_stats() const { return explore_memo_.stats(); }

 private:
  // A queued model-path request. Shed requests never become queue entries —
  // they are served at admission, on the submitting thread.
  struct Pending {
    std::uint64_t id = 0;
    warehouse::Query query;
    std::promise<ServeDecision> promise;
    std::int64_t enqueue_ns = 0;
  };

  std::int64_t now_ns() const { return env_.clock(); }

  void batcher_loop();
  void process_batch(std::vector<Pending> batch);
  // Serves a shed request on the native fallback path: one optimize() call,
  // a single-plan generation, no model inference. Runs on the submitting
  // thread (the native optimizer is const and thread-safe, as the parallel
  // explorer already relies on).
  void process_shed(Pending pending, std::int64_t pickup_ns);
  // Feeds the pacing controller after a batch and refreshes the cached
  // admission window, batch target, and pacing gauges (per-shard + merged).
  void pacing_round(std::int64_t end_ns, int requests, int plans,
                    std::int64_t service_ticks, std::int64_t delay_ticks);
  // Batch-boundary epoch check: applies a pending announcement to this
  // shard's slot (measuring the pause), then returns the serving snapshot.
  std::shared_ptr<const ModelSnapshot> snapshot_for_batch();

  // Explore-memo capacity, in queries. Sized from measured entry sizes
  // (~17.9 KB per query on the recurring perfbench workload, ~8.7 KB on
  // adhoc): at most ~18 MB per shard, and twice the 512-instance recurring
  // pool even if the whole pool routed to one shard.
  static constexpr std::size_t kExploreMemoCapacity = 1024;
  // Doorkeeper capacity, in query signatures: a query is admitted if it
  // misses again within this many distinct misses of its first one.
  static constexpr std::size_t kDoorkeeperCapacity = 4 * kExploreMemoCapacity;

  // The exploration of `query`: a copy of the memoized one on a hit, a
  // fresh explore on a miss. A miss is memoized only when the doorkeeper has
  // seen the query before. Sound only because everything explore() reads
  // besides the query — catalog, native optimizer, explorer config — is
  // immutable for the shard's lifetime (see Env).
  core::CandidateGeneration explore_memoized(const warehouse::Query& query);

  Env env_;
  // Per-shard explorer: same config as every other shard's, so exploration
  // is bit-identical wherever a query routes; owning one per shard keeps the
  // serving path shared-nothing.
  core::PlanExplorer explorer_;
  // Thread-safe internally (sharded LRUs); only this shard's batcher writes,
  // tests and stats readers may probe concurrently.
  mutable cache::InferenceCache infer_cache_;
  // Query::signature() -> exploration. Written only by the batcher; off
  // together with infer_cache_ (CacheConfig::enabled).
  cache::MemoTable<std::shared_ptr<const core::CandidateGeneration>> explore_memo_;
  // Explore-memo doorkeeper: signatures of queries that missed once. A
  // query enters the memo on its second miss, so never-repeated traffic
  // pays no entry copy and keeps no entry resident: on the adhoc perfbench
  // workload, memoizing every miss raised decide p50 by 25%. Capacity 0 (it
  // remembers nothing) when the cache is disabled.
  cache::ShardedLru<bool> seen_once_;
  // Fingerprint of env_.serving_env in the score/encoding keys.
  const std::uint64_t env_fp_;

  SnapshotSlot slot_;
  std::uint64_t last_epoch_ = 0;  // batcher-thread state (+ ctor)

  // Lock hierarchy within a shard (outer to inner): queue_mu_ -> slot_;
  // pacing_mu_ is a leaf. Nothing here is ever held across a call into
  // another shard or the service.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stop_ = true;  // start() flips to false
  std::thread batcher_;

  // Pacing. The controller itself is only ever touched under pacing_mu_ (the
  // batcher writes each round, snapshot readers probe); the admission fast
  // path reads the two cached atomics instead of taking the lock. Inflight
  // counts admitted-but-unresolved model-path requests (shed requests bypass
  // the window — their service cost is what the window protects).
  mutable std::mutex pacing_mu_;
  PacingController pacing_;
  std::atomic<double> cwnd_cached_{0.0};
  std::atomic<int> batch_target_cached_{1};
  std::atomic<std::int64_t> inflight_{0};

  std::atomic<std::uint64_t> n_requests_{0}, n_rejected_{0}, n_shed_{0},
      n_batches_{0}, n_fallback_{0}, n_swaps_applied_{0};
  std::atomic<std::int64_t> swap_pause_max_ns_{0};

  // loam.serve.shard<K>.* handles (pointer-stable, resolved once in the
  // ctor; merged loam.serve.* series are function-local statics in the .cc).
  obs::Counter* c_admitted_;
  obs::Counter* c_rejected_;
  obs::Counter* c_shed_;
  obs::Counter* c_batches_;
  obs::Counter* c_fallback_;
  obs::Counter* c_swaps_applied_;
  obs::Gauge* g_version_;
  obs::Gauge* g_cwnd_;
  obs::Gauge* g_batch_target_;
  obs::Histogram* h_swap_pause_;
};

}  // namespace loam::serve

#endif  // LOAM_SERVE_SHARD_H_
