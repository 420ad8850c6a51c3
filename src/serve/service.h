// loam::serve — the long-lived optimizer service (the serving/training-
// lifecycle half of the stack).
//
// One OptimizerService per project hosts the full learned-optimizer
// lifecycle the offline pipeline only runs once. Since the shard-per-core
// scale-out it is a thin ROUTER over `num_shards` shared-nothing ServeShards
// (serve/shard.h) plus the service-wide lifecycle no shard owns:
//
//   * Routing & admission — a request hashes to one shard by its query
//     identity (salted util::hash over template id + parameter signature —
//     the pre-exploration proxy for Plan::signature), and that shard's
//     bounded queue, batcher thread, pacing controller, and cache stripe
//     serve it end to end. Admission is the shard's lock-free fast path;
//     shards never contend with each other.
//   * Versioned serving — the active model is an immutable ModelSnapshot.
//     The service owns the ANNOUNCEMENT slot + swap epoch; each shard holds
//     its own serving slot and applies a pending announcement at its next
//     batch boundary (epoch broadcast — no global lock, per-shard pause in
//     the microseconds). Every request in a batch is served by exactly one
//     registry version. Snapshots come from the durable ModelRegistry.
//   * Feedback & monitoring — record_feedback() appends each execution
//     outcome to the serving shard's crash-recoverable FeedbackJournal file
//     (journal.s<K>; appends on different shards only touch their own file's
//     leaf mutex) and feeds the core::OnlineDevianceMonitor; when the
//     monitor detects regression the service auto-rolls back to the previous
//     approved registry version (or to the native optimizer when none
//     remains) and durably marks the bad version so it is never re-promoted.
//   * Continuous retraining — every `retrain_min_new_records` executed
//     feedback records, a background task on the retrain pool replays the
//     journal shard-major into TrainingData, fits a fresh
//     AdaptiveCostPredictor, pushes it through the flighting DeploymentGate
//     (core::evaluate_selection), publishes the result to the registry
//     (approved or not — a full audit trail), and broadcasts the swap on
//     approval.
//
// With no approved model the service serves the native optimizer's default
// plan — the paper's Section-3 fallback — so it can be started cold and
// bootstrap itself entirely from its own feedback.
#ifndef LOAM_SERVE_SERVICE_H_
#define LOAM_SERVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/deviance.h"
#include "core/gate.h"
#include "core/loam.h"
#include "serve/journal.h"
#include "serve/pacing.h"
#include "serve/registry.h"
#include "serve/shard.h"
#include "util/thread_pool.h"

namespace loam::serve {

class OptimizerService {
 public:
  OptimizerService(core::ProjectRuntime* runtime, ServeConfig config);
  ~OptimizerService();

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  // Bootstraps (journal seeding + optional initial train) and launches every
  // shard's batcher thread. Idempotent.
  void start();
  // Drains every shard's queue, completes any in-flight retrain, joins
  // threads.
  void stop();

  // Admission; false (and no future) when the target shard's queue is full
  // (pacing off) or the service is stopped. With pacing on it never fails
  // while running: load past a shard's admission window is served
  // synchronously on the CALLER's thread by the native fallback (one
  // optimize() call, the returned future already resolved) — shedding at the
  // source, so the fallback path cannot build a standing queue behind the
  // model path under overload.
  bool try_submit(warehouse::Query query, std::future<ServeDecision>* out);
  // Blocking convenience: admit + wait. Throws std::runtime_error when the
  // queue is full.
  ServeDecision optimize(warehouse::Query query);

  // Reports the execution outcome of a served decision: journals the
  // feedback (into the serving shard's file), updates the deviance monitor
  // (possibly triggering rollback), and schedules a retrain when enough new
  // feedback accumulated. Safe to call from many threads concurrently —
  // journal appends for different shards do not serialize on each other.
  void record_feedback(const ServeDecision& decision,
                       const warehouse::ExecutionResult& exec);

  // Synchronous retrain: journal -> fit -> deployment gate -> publish;
  // broadcasts the swap and returns true when the gate approves. Also the
  // bootstrap path. Thread-safe with serving.
  bool retrain_sync();

  // Publishes `model` to the registry with `meta` (version assigned by the
  // registry) and, when meta.approved, broadcasts the swap. Returns the
  // assigned version. Exposed for tests and operational tooling (manual
  // promotion).
  int publish_and_swap(std::unique_ptr<core::AdaptiveCostPredictor> model,
                       ModelVersionMeta meta);
  // Broadcasts a swap to a registry version (loading its checkpoint if
  // needed), or to the native fallback with swap_to_fallback().
  void swap_to_version(int version);
  void swap_to_fallback();

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t rejected = 0;       // bounded-queue admission failures
    std::uint64_t shed = 0;           // pacing diversions to the native path
    std::uint64_t batches = 0;
    std::uint64_t fallback_decisions = 0;
    std::uint64_t swaps = 0;          // announcements broadcast
    std::uint64_t rollbacks = 0;
    std::uint64_t retrains = 0;        // attempts that reached the gate
    std::uint64_t retrain_approved = 0;
    std::uint64_t retrain_rejected = 0;
    std::uint64_t retrain_skipped = 0;  // not enough journal data
  };
  // Request-path fields are summed across shards.
  Stats stats() const;

  // Shard topology + per-shard introspection.
  int num_shards() const { return static_cast<int>(shards_.size()); }
  // The shard `query` routes to: salted hash of (template id, parameter
  // signature) — stable for the life of the service, uniform across shards.
  std::size_t shard_of(const warehouse::Query& query) const;
  ShardStats shard_stats(int shard) const;
  const ServeShard& shard(int k) const { return *shards_.at(static_cast<std::size_t>(k)); }

  // ANNOUNCED version (-1 = native fallback): what the registry lifecycle
  // last broadcast. A shard picks it up at its next batch boundary;
  // shard(k).serving_version() reads one shard's applied view.
  int active_version() const;
  double monitor_mean_overrun() const;

  using PacingSnapshot = ::loam::serve::PacingSnapshot;
  // Shard 0's controller (the whole service when num_shards == 1).
  PacingSnapshot pacing_snapshot() const { return pacing_snapshot(0); }
  PacingSnapshot pacing_snapshot(int shard) const;

  ShardedFeedbackJournal& journal() { return journal_; }
  ModelRegistry& registry() { return registry_; }
  // Shard 0's score/encoding memo (exposed for tests + bench).
  const cache::InferenceCache& inference_cache() const {
    return shards_.front()->inference_cache();
  }
  const core::PlanEncoder& encoder() const { return encoder_; }
  const core::EnvContext& env_context() const { return env_context_; }
  const ServeConfig& config() const { return config_; }

 private:
  // Monotonic now: the injected virtual clock when configured, else the
  // process steady clock.
  std::int64_t now_ns() const {
    return config_.clock ? config_.clock() : obs_now_ns();
  }
  static std::int64_t obs_now_ns();

  // Model selection as serving does it — candidates encoded under the
  // representative environment, lowest predicted cost wins — for the
  // deployment gate's replays.
  int select_with(const core::CostModel& model,
                  const core::CandidateGeneration& generation) const;
  // Environment every serving-time encode uses: the representative one, or
  // none under the no-env ablation.
  std::optional<warehouse::EnvFeatures> serving_env() const;

  void bootstrap_journal();
  void retrain_task();
  // The "serve" state-provider payload for flight-recorder dump bundles:
  // active version, service stats, monitor overrun, and a per-shard table
  // (counters + pacing controller snapshot). Takes only introspection locks.
  std::string serve_state_json() const;
  // Installs `next` in the announcement slot and bumps the swap epoch — the
  // broadcast every shard observes at its next batch boundary. Returns the
  // previously announced snapshot.
  std::shared_ptr<const ModelSnapshot> swap_snapshot(
      std::shared_ptr<const ModelSnapshot> next);
  // Loads a checkpointed version into memory (no-op if cached).
  std::shared_ptr<const ModelSnapshot> snapshot_for(const ModelVersionMeta& meta);
  void rollback(int bad_version);

  core::ProjectRuntime* runtime_;
  ServeConfig config_;  // num_shards resolved (>= 1) before members init
  core::PlanEncoder encoder_;
  core::PlanExplorer explorer_;
  core::EnvContext env_context_;
  ShardedFeedbackJournal journal_;
  ModelRegistry registry_;

  // Swap broadcast state: the announcement slot holds what the lifecycle
  // last published; the epoch (bumped with release AFTER the slot is
  // written) tells shards an announcement is pending. Shards load the epoch
  // with acquire, so a changed epoch guarantees they read at least that
  // announcement.
  SnapshotSlot announce_slot_;
  std::atomic<std::uint64_t> swap_epoch_{0};

  // Lock hierarchy (outer to inner): swap_mu_ -> monitor_mu_ ->
  // announce_slot_. The journal files and registry carry their own leaf
  // mutexes; per-shard locks (queue, pacing, slot) never nest with the
  // service's.
  std::mutex swap_mu_;
  std::map<int, std::shared_ptr<const ModelSnapshot>> loaded_;  // version cache

  mutable std::mutex monitor_mu_;
  core::OnlineDevianceMonitor monitor_;

  std::mutex runtime_mu_;  // guards runtime_->make_queries (shared RNG)

  util::ThreadPool retrain_pool_;  // one worker: the background retrain loop
  std::atomic<bool> retrain_inflight_{false};

  // The shards. Created in the ctor (after the announcement slot holds the
  // restart snapshot), started/stopped by start()/stop(). The vector itself
  // is immutable once constructed, so lock-free access from submitters is
  // safe.
  std::vector<std::unique_ptr<ServeShard>> shards_;

  // Flight-recorder state-provider registration (config_.flight_recorder);
  // -1 = no recorder configured. Registered at the end of construction,
  // removed in the dtor after stop().
  int flight_provider_ = -1;

  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<int> executed_since_retrain_{0};
  std::atomic<std::uint64_t> n_swaps_{0}, n_rollbacks_{0}, n_retrains_{0},
      n_retrain_approved_{0}, n_retrain_rejected_{0}, n_retrain_skipped_{0};
};

}  // namespace loam::serve

#endif  // LOAM_SERVE_SERVICE_H_
