#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/obs.h"

namespace loam::serve {

using core::CandidateGeneration;
using warehouse::EnvFeatures;
using warehouse::Query;

namespace {

std::string shard_series(int index, const char* suffix) {
  return "loam.serve.shard" + std::to_string(index) + "." + suffix;
}

// Single-shard services keep the pre-shard cache scope ("serve") so the
// loam.cache.serve.* series and any tooling built on them stay stable; a
// scale-out service stripes per shard.
std::string cache_scope(int index, int num_shards) {
  if (num_shards <= 1) return "serve";
  return "serve.s" + std::to_string(index);
}

// The no-env encoding reads none of the four values; give it its own
// fingerprint so it cannot alias an all-zero environment.
std::uint64_t env_fingerprint(const std::optional<EnvFeatures>& env) {
  if (!env) return 0x9e1debull;
  const double vals[4] = {env->cpu_idle, env->io_wait, env->load5_norm,
                          env->mem_usage};
  return cache::fingerprint(vals);
}

}  // namespace

ServeShard::ServeShard(Env env)
    : env_(std::move(env)),
      explorer_(env_.native, env_.config->explorer),
      infer_cache_(cache_scope(env_.index, env_.num_shards),
                   env_.config->cache),
      explore_memo_("loam.cache." + cache_scope(env_.index, env_.num_shards) +
                        ".explore",
                    kExploreMemoCapacity, env_.config->cache),
      seen_once_(kDoorkeeperCapacity, 1),
      env_fp_(env_fingerprint(env_.serving_env)),
      pacing_(env_.config->pacing, env_.config->max_batch),
      c_admitted_(obs::Registry::instance().counter(
          shard_series(env_.index, "requests_admitted"))),
      c_rejected_(obs::Registry::instance().counter(
          shard_series(env_.index, "requests_rejected"))),
      c_shed_(obs::Registry::instance().counter(
          shard_series(env_.index, "shed_total"))),
      c_batches_(obs::Registry::instance().counter(
          shard_series(env_.index, "batches"))),
      c_fallback_(obs::Registry::instance().counter(
          shard_series(env_.index, "fallback_decisions"))),
      c_swaps_applied_(obs::Registry::instance().counter(
          shard_series(env_.index, "swaps_applied"))),
      g_version_(obs::Registry::instance().gauge(
          shard_series(env_.index, "active_version"))),
      g_cwnd_(obs::Registry::instance().gauge(
          shard_series(env_.index, "pacing.cwnd"))),
      g_batch_target_(obs::Registry::instance().gauge(
          shard_series(env_.index, "pacing.batch_target"))),
      h_swap_pause_(obs::Registry::instance().histogram(
          shard_series(env_.index, "swap_pause_seconds"),
          obs::Histogram::exponential_bounds(1e-8, 4.0, 14))) {
  cwnd_cached_.store(pacing_.cwnd(), std::memory_order_relaxed);
  batch_target_cached_.store(pacing_.batch_target(), std::memory_order_relaxed);
  // Adopt the announcement that is current at construction. Epoch first,
  // announcement second: if a swap lands in between we hold a snapshot at
  // least as new as the epoch we recorded, and the next batch re-checks.
  last_epoch_ = env_.swap_epoch->load(std::memory_order_acquire);
  slot_.exchange(env_.announcement());
  g_version_->set(slot_.load()->version);
}

ServeShard::~ServeShard() {
  stop_async();
  join();
}

void ServeShard::start() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!stop_) return;  // already running
    stop_ = false;
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

void ServeShard::stop_async() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
}

void ServeShard::join() {
  if (batcher_.joinable()) batcher_.join();
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

bool ServeShard::try_submit(std::uint64_t id, Query query,
                            std::future<ServeDecision>* out) {
  static obs::Counter* const c_admitted =
      obs::Registry::instance().counter("loam.serve.requests_admitted");
  static obs::Counter* const c_rejected =
      obs::Registry::instance().counter("loam.serve.requests_rejected");
  static obs::Counter* const c_shed =
      obs::Registry::instance().counter("loam.serve.pacing.shed_total");
  if (out == nullptr) return false;
  const ServeConfig& config = *env_.config;
  const bool pacing = config.pacing.enabled;
  Pending pending;
  pending.id = id;
  pending.query = std::move(query);
  pending.enqueue_ns = now_ns();
  bool shed = false;
  bool reject = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      n_rejected_.fetch_add(1, std::memory_order_relaxed);
      c_rejected->add();
      c_rejected_->add();
      return false;
    }
    if (!pacing) {
      reject = queue_.size() >= config.queue_capacity;
    } else {
      // BBR-style admission: requests inside this shard's pacing window take
      // the model path; everything past it — or past the FIFO bound — is
      // SHED to the native fallback, never rejected. Shedding happens HERE,
      // at the source: a shed request never enters the queue, so the
      // fallback path cannot build a standing queue behind the model path
      // under overload (its latency stays one native optimize, paid on the
      // caller thread).
      shed = static_cast<double>(inflight_.load(std::memory_order_relaxed)) >=
                 cwnd_cached_.load(std::memory_order_relaxed) ||
             queue_.size() >= config.queue_capacity;
      if (!shed) inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!shed && !reject) {
      *out = pending.promise.get_future();
      queue_.push_back(std::move(pending));
    }
  }
  if (reject) {
    n_rejected_.fetch_add(1, std::memory_order_relaxed);
    c_rejected->add();
    c_rejected_->add();
    // A bounded-queue rejection with pacing off is the service visibly
    // failing admission — worth a black-box dump. Triggered OUTSIDE
    // queue_mu_: the dump's state provider walks every shard's stats and
    // the service monitor, none of which may nest under a queue lock. A
    // stopped service stays dump-free (shutdown is not an incident).
    if (config.flight_recorder != nullptr) {
      config.flight_recorder->trigger_dump("serve.reject");
    }
    return false;
  }
  if (shed) {
    n_shed_.fetch_add(1, std::memory_order_relaxed);
    c_shed->add();
    c_shed_->add();
    *out = pending.promise.get_future();
    process_shed(std::move(pending), now_ns());
  } else {
    queue_cv_.notify_one();
  }
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  c_admitted->add();
  c_admitted_->add();
  return true;
}

// ---------------------------------------------------------------------------
// Batching
// ---------------------------------------------------------------------------

void ServeShard::batcher_loop() {
  const ServeConfig& config = *env_.config;
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      // With pacing on, the batch target is whatever the controller last
      // computed (STARTUP grows it, DRAIN/STEADY pin it at the BDP).
      const int limit = std::max(
          1, config.pacing.enabled
                 ? batch_target_cached_.load(std::memory_order_relaxed)
                 : config.max_batch);
      // Linger briefly so closely spaced requests coalesce into one
      // predict_batch call instead of each paying a forward pass. The
      // deadline is computed ONCE from the linger start: the predicate form
      // of wait_until re-waits only the remaining time after a spurious or
      // not-yet-full wakeup, so a trickle of sub-batch arrivals can neither
      // cut the linger short (early batch) nor extend it past one linger
      // period (the pre-deadline wakeup bug this replaced wait_for guards
      // against).
      if (static_cast<int>(queue_.size()) < limit && !stop_ &&
          config.batch_linger_us > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(config.batch_linger_us);
        queue_cv_.wait_until(lock, deadline, [this, limit] {
          return stop_ || static_cast<int>(queue_.size()) >= limit;
        });
      }
      // FIFO drain: up to `limit` requests per inference batch. (Shed
      // requests never reach this queue — they are served at admission.)
      while (!queue_.empty() && static_cast<int>(batch.size()) < limit) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    process_batch(std::move(batch));
  }
}

std::shared_ptr<const ModelSnapshot> ServeShard::snapshot_for_batch() {
  // One relaxed-ish load per batch; only a bumped epoch pays the exchange.
  const std::uint64_t epoch =
      env_.swap_epoch->load(std::memory_order_acquire);
  if (epoch != last_epoch_) {
    std::shared_ptr<const ModelSnapshot> next = env_.announcement();
    const int version = next->version;
    const std::int64_t t0 = obs::Tracer::now_ns();
    slot_.exchange(std::move(next));
    const std::int64_t pause_ns = obs::Tracer::now_ns() - t0;
    last_epoch_ = epoch;
    n_swaps_applied_.fetch_add(1, std::memory_order_relaxed);
    c_swaps_applied_->add();
    g_version_->set(version);
    h_swap_pause_->observe(1e-9 * static_cast<double>(pause_ns));
    std::int64_t prev = swap_pause_max_ns_.load(std::memory_order_relaxed);
    while (pause_ns > prev && !swap_pause_max_ns_.compare_exchange_weak(
                                  prev, pause_ns, std::memory_order_relaxed)) {
    }
  }
  return slot_.load();
}

std::vector<std::uint64_t> ServeShard::explore_memoized(
    const Query& query, CandidateGeneration* generation) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t key = query.signature();
  if (std::optional<std::shared_ptr<const ExploreEntry>> hit =
          explore_memo_.get(key)) {
    // A copy of the candidate set a fresh explore would rebuild bit for
    // bit; generation_seconds is what this request spent obtaining it.
    *generation = (*hit)->generation;
    generation->generation_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return (*hit)->plan_sigs;
  }
  *generation = explorer_.explore(query);
  std::vector<std::uint64_t> plan_sigs;
  plan_sigs.reserve(generation->plans.size());
  for (const warehouse::Plan& plan : generation->plans) {
    plan_sigs.push_back(plan.signature());
  }
  if (seen_once_.get(key).has_value()) {
    explore_memo_.put(key, std::make_shared<const ExploreEntry>(
                               ExploreEntry{*generation, plan_sigs}));
  } else {
    seen_once_.put(key, true);
  }
  return plan_sigs;
}

void ServeShard::process_batch(std::vector<Pending> batch) {
  static obs::Counter* const c_batches =
      obs::Registry::instance().counter("loam.serve.batches");
  static obs::Counter* const c_fallback =
      obs::Registry::instance().counter("loam.serve.fallback_decisions");
  static obs::Counter* const c_quant_decisions =
      obs::Registry::instance().counter("loam.serve.quant.decisions");
  static obs::Histogram* const h_batch = obs::Registry::instance().histogram(
      "loam.serve.batch_size", obs::Histogram::linear_bounds(1.0, 1.0, 16));
  static obs::Histogram* const h_latency = obs::Registry::instance().histogram(
      "loam.serve.request_seconds",
      obs::Histogram::exponential_bounds(1e-4, 2.0, 16));
  const ServeConfig& config = *env_.config;
  const std::int64_t pickup_ns = now_ns();

  obs::Span span(obs::Cat::kServe, "batch",
                 static_cast<std::int64_t>(batch.size()), env_.index);
  n_batches_.fetch_add(1, std::memory_order_relaxed);
  c_batches->add();
  c_batches_->add();
  h_batch->observe(static_cast<double>(batch.size()));

  // ONE snapshot per batch: every request in it is served by exactly this
  // registry version, however many swap broadcasts land while the batch is
  // in flight. The epoch check above this load is where a pending hot-swap
  // is applied to THIS shard.
  const std::shared_ptr<const ModelSnapshot> snapshot = snapshot_for_batch();

  // Explore per request, then score the union of every request's candidates
  // with a single predict_batch call. With the cache on, a query the shard
  // has memoized skips exploration (explore memo), a candidate whose
  // (signature, env, registry-version) score is memoized skips encoding and
  // inference entirely, and a candidate with a memoized encoding skips
  // featurization; only true misses enter the forward pass.
  // Scores are keyed by snapshot->version, so entries written under an older
  // model CANNOT hit after a hot-swap — and entries for a version stay valid
  // if a rollback reinstates it (same checkpoint, same scores).
  std::vector<ServeDecision> decisions(batch.size());
  bool failed_any = false;
  std::vector<bool> failed(batch.size(), false);
  struct MissRef {
    std::size_t request = 0;   // index into batch/decisions
    std::size_t candidate = 0; // index into that request's candidate set
    std::uint64_t score_key = 0;
    std::shared_ptr<const nn::Tree> tree;  // keeps the cached encoding alive
  };
  std::vector<MissRef> misses;
  std::vector<nn::Tree> flat;  // cache-disabled path only
  std::vector<std::size_t> offsets(batch.size() + 1, 0);
  std::int64_t min_queue_ticks = -1;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServeDecision& d = decisions[i];
    d.request_id = batch[i].id;
    d.submit_day = batch[i].query.submit_day;
    d.shard = env_.index;
    d.batch_size = static_cast<int>(batch.size());
    d.paced = config.pacing.enabled;
    d.queue_seconds = 1e-9 * static_cast<double>(pickup_ns - batch[i].enqueue_ns);
    const std::int64_t queue_ticks = pickup_ns - batch[i].enqueue_ns;
    if (min_queue_ticks < 0 || queue_ticks < min_queue_ticks) {
      min_queue_ticks = queue_ticks;
    }
    try {
      std::vector<std::uint64_t> plan_sigs;
      if (!infer_cache_.enabled()) {
        d.generation = explorer_.explore(batch[i].query);
      } else {
        plan_sigs = explore_memoized(batch[i].query, &d.generation);
      }
      if (snapshot->model == nullptr) {
        // fall through to the fallback branch below
      } else if (!infer_cache_.enabled()) {
        std::vector<nn::Tree> trees = core::encode_candidates(
            *env_.encoder, d.generation.plans, env_.serving_env);
        for (nn::Tree& t : trees) flat.push_back(std::move(t));
      } else {
        d.predicted.assign(d.generation.plans.size(), 0.0);
        for (std::size_t c = 0; c < d.generation.plans.size(); ++c) {
          const std::uint64_t psig = plan_sigs[c];
          const std::uint64_t skey = cache::InferenceCache::score_key(
              psig, env_fp_, snapshot->version);
          if (std::optional<double> hit = infer_cache_.get_score(skey);
              hit.has_value()) {
            d.predicted[c] = *hit;
            continue;
          }
          const std::uint64_t ekey =
              cache::InferenceCache::encoding_key(psig, env_fp_);
          std::shared_ptr<const nn::Tree> tree = infer_cache_.get_encoding(ekey);
          if (tree == nullptr) {
            tree = std::make_shared<const nn::Tree>(env_.encoder->encode(
                d.generation.plans[c], nullptr, env_.serving_env));
            infer_cache_.put_encoding(ekey, tree);
          }
          misses.push_back(MissRef{i, c, skey, std::move(tree)});
        }
      }
    } catch (...) {
      failed[i] = true;
      failed_any = true;
      batch[i].promise.set_exception(std::current_exception());
    }
    offsets[i + 1] = flat.size();
  }

  std::vector<double> all_preds;
  if (snapshot->model != nullptr && !flat.empty()) {
    all_preds = snapshot->model->predict_batch(flat);
  }
  if (snapshot->model != nullptr && !misses.empty()) {
    std::vector<const nn::Tree*> ptrs;
    ptrs.reserve(misses.size());
    for (const MissRef& m : misses) ptrs.push_back(m.tree.get());
    const std::vector<double> fresh = snapshot->model->predict_batch_ptrs(ptrs);
    for (std::size_t j = 0; j < misses.size(); ++j) {
      decisions[misses[j].request].predicted[misses[j].candidate] = fresh[j];
      infer_cache_.put_score(misses[j].score_key, fresh[j]);
    }
  }

  int plans_scored = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (failed_any && failed[i]) continue;
    ServeDecision& d = decisions[i];
    if (snapshot->model != nullptr) {
      d.model_version = snapshot->version;
      if (snapshot->quantized) c_quant_decisions->add();
      if (!infer_cache_.enabled()) {
        d.predicted.assign(
            all_preds.begin() + static_cast<std::ptrdiff_t>(offsets[i]),
            all_preds.begin() + static_cast<std::ptrdiff_t>(offsets[i + 1]));
      }
      d.chosen = core::argmin(d.predicted);
      d.predicted_cost =
          d.predicted.empty() ? 0.0
                              : d.predicted[static_cast<std::size_t>(d.chosen)];
    } else {
      // Native-optimizer fallback: serve the default plan.
      d.model_version = -1;
      d.chosen = d.generation.default_index;
      n_fallback_.fetch_add(1, std::memory_order_relaxed);
      c_fallback->add();
      c_fallback_->add();
    }
    plans_scored += static_cast<int>(d.generation.plans.size());
    d.total_seconds =
        1e-9 * static_cast<double>(now_ns() - batch[i].enqueue_ns);
    h_latency->observe(d.total_seconds);
    batch[i].promise.set_value(std::move(d));
  }

  if (config.pacing.enabled) {
    // Every model-path request in this batch is resolved (value or
    // exception): release the admission window before the controller sees
    // the post-batch inflight.
    inflight_.fetch_sub(static_cast<std::int64_t>(batch.size()),
                        std::memory_order_relaxed);
    const std::int64_t end_ns = now_ns();
    const std::int64_t service_ticks = end_ns - pickup_ns;
    // The delay sample is the batch's best-case admission->decision time:
    // the min queue wait plus this batch's service time — the closest
    // observable analog of the unqueued base latency the min filter wants.
    pacing_round(end_ns, static_cast<int>(batch.size()), plans_scored,
                 service_ticks,
                 min_queue_ticks < 0 ? -1 : min_queue_ticks + service_ticks);
  }
}

void ServeShard::process_shed(Pending pending, std::int64_t pickup_ns) {
  static obs::Counter* const c_fallback =
      obs::Registry::instance().counter("loam.serve.fallback_decisions");
  static obs::Histogram* const h_latency = obs::Registry::instance().histogram(
      "loam.serve.request_seconds",
      obs::Histogram::exponential_bounds(1e-4, 2.0, 16));
  obs::Span span(obs::Cat::kServe, "shed", -1, env_.index);
  ServeDecision d;
  d.request_id = pending.id;
  d.submit_day = pending.query.submit_day;
  d.shard = env_.index;
  d.paced = true;
  d.shed = true;
  d.model_version = -1;
  d.batch_size = 0;  // no inference batch backed this decision
  d.queue_seconds =
      1e-9 * static_cast<double>(pickup_ns - pending.enqueue_ns);
  try {
    // The paper's always-available fallback: the native optimizer's default
    // plan, produced without candidate exploration or scoring — the shed
    // path's cost must stay independent of the model path it is protecting.
    d.generation.plans.push_back(env_.native->optimize(pending.query));
    d.generation.knobs.emplace_back();
    d.generation.rough_costs.push_back(0.0);
    d.generation.default_index = 0;
    d.chosen = 0;
    n_fallback_.fetch_add(1, std::memory_order_relaxed);
    c_fallback->add();
    c_fallback_->add();
    d.total_seconds =
        1e-9 * static_cast<double>(now_ns() - pending.enqueue_ns);
    h_latency->observe(d.total_seconds);
    pending.promise.set_value(std::move(d));
  } catch (...) {
    pending.promise.set_exception(std::current_exception());
  }
}

void ServeShard::pacing_round(std::int64_t end_ns, int requests, int plans,
                              std::int64_t service_ticks,
                              std::int64_t delay_ticks) {
  // Merged gauges are last-writer-wins across shards (point-in-time view of
  // SOME shard's controller); per-shard values live on the shard<K> series
  // and in pacing_snapshot().
  static obs::Gauge* const g_bw =
      obs::Registry::instance().gauge("loam.serve.pacing.est_bw");
  static obs::Gauge* const g_delay =
      obs::Registry::instance().gauge("loam.serve.pacing.est_min_delay");
  static obs::Gauge* const g_bdp =
      obs::Registry::instance().gauge("loam.serve.pacing.bdp");
  static obs::Gauge* const g_batch =
      obs::Registry::instance().gauge("loam.serve.pacing.batch_target");
  static obs::Gauge* const g_cwnd =
      obs::Registry::instance().gauge("loam.serve.pacing.cwnd");
  static obs::Gauge* const g_state =
      obs::Registry::instance().gauge("loam.serve.pacing.state");
  const double inflight =
      static_cast<double>(inflight_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lock(pacing_mu_);
  pacing_.on_batch_complete(end_ns, requests, plans, service_ticks,
                            delay_ticks, inflight);
  cwnd_cached_.store(pacing_.cwnd(), std::memory_order_relaxed);
  batch_target_cached_.store(pacing_.batch_target(), std::memory_order_relaxed);
  g_bw->set(pacing_.est_bw_per_sec());
  g_delay->set(pacing_.est_min_delay_seconds());
  g_bdp->set(pacing_.bdp_requests());
  g_batch->set(static_cast<double>(pacing_.batch_target()));
  g_cwnd->set(pacing_.cwnd());
  g_state->set(static_cast<double>(static_cast<int>(pacing_.state())));
  g_cwnd_->set(pacing_.cwnd());
  g_batch_target_->set(static_cast<double>(pacing_.batch_target()));
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

ShardStats ServeShard::stats() const {
  ShardStats s;
  s.requests = n_requests_.load(std::memory_order_relaxed);
  s.rejected = n_rejected_.load(std::memory_order_relaxed);
  s.shed = n_shed_.load(std::memory_order_relaxed);
  s.batches = n_batches_.load(std::memory_order_relaxed);
  s.fallback_decisions = n_fallback_.load(std::memory_order_relaxed);
  s.swaps_applied = n_swaps_applied_.load(std::memory_order_relaxed);
  s.swap_pause_max_ns = swap_pause_max_ns_.load(std::memory_order_relaxed);
  return s;
}

PacingSnapshot ServeShard::pacing_snapshot() const {
  PacingSnapshot s;
  s.enabled = env_.config->pacing.enabled;
  s.inflight = inflight_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(pacing_mu_);
  s.state = pacing_.state();
  s.est_bw_per_sec = pacing_.est_bw_per_sec();
  s.est_min_delay_seconds = pacing_.est_min_delay_seconds();
  s.bdp_requests = pacing_.bdp_requests();
  s.cwnd = pacing_.cwnd();
  s.batch_target = pacing_.batch_target();
  s.rounds = pacing_.rounds();
  return s;
}

}  // namespace loam::serve
