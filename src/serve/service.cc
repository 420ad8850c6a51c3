#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "util/hash.h"

namespace loam::serve {

using core::AdaptiveCostPredictor;
using core::CandidateGeneration;
using warehouse::EnvFeatures;
using warehouse::Query;
using warehouse::QueryRecord;

namespace {

// Salt for the query -> shard hash: routing must not correlate with any
// other salted use of the same identity fields (cache keys, signatures).
constexpr std::uint64_t kShardSalt = 0x5a17e0d5'ca77e2edull;

std::shared_ptr<const ModelSnapshot> fallback_snapshot() {
  return std::make_shared<const ModelSnapshot>();
}

// Resolves num_shards before any member (journal paths, shard vector) reads
// it: 0 = one shard per hardware thread, floor 1.
ServeConfig normalized(ServeConfig config) {
  if (config.num_shards <= 0) {
    config.num_shards =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }
  return config;
}

}  // namespace

OptimizerService::OptimizerService(core::ProjectRuntime* runtime,
                                   ServeConfig config)
    : runtime_(runtime),
      config_(normalized(std::move(config))),
      encoder_(&runtime->project().catalog, [this] {
        // The encoder's node-row memo follows the service cache switch.
        core::EncodingConfig enc = config_.encoding;
        enc.row_cache_capacity =
            config_.cache.enabled
                ? (enc.row_cache_capacity > 0 ? enc.row_cache_capacity
                                              : config_.cache.encoding_capacity)
                : 0;
        return enc;
      }()),
      explorer_(&runtime->optimizer(), config_.explorer),
      journal_(config_.journal_path, config_.num_shards, [this] {
        // Normalizers and the environment context come from the project's
        // history BEFORE the journal opens, so a fresh journal is stamped
        // with the final feature_dim.
        const warehouse::QueryRepository& repo = runtime_->repository();
        if (!repo.records().empty()) {
          std::vector<const warehouse::Plan*> plans;
          plans.reserve(repo.records().size());
          for (const QueryRecord& r : repo.records()) plans.push_back(&r.plan);
          encoder_.fit_normalizers(plans);
          env_context_ = core::build_env_context(
              repo, runtime_->cluster_env_history(), runtime_->cluster());
        }
        return encoder_.feature_dim();
      }()),
      registry_(config_.registry_root),
      monitor_(config_.monitor),
      retrain_pool_(1) {
  // Restart continuity: resume serving the latest approved registry version;
  // cold registries start on the native fallback.
  std::shared_ptr<const ModelSnapshot> initial = fallback_snapshot();
  if (const auto meta = registry_.latest_approved()) {
    std::lock_guard<std::mutex> lock(swap_mu_);
    initial = snapshot_for(*meta);
  }
  announce_slot_.exchange(std::move(initial));
  static obs::Gauge* const g_version =
      obs::Registry::instance().gauge("loam.serve.active_version");
  g_version->set(active_version());
  static obs::Gauge* const g_shards =
      obs::Registry::instance().gauge("loam.serve.num_shards");
  g_shards->set(static_cast<double>(config_.num_shards));

  // Shards come LAST: each adopts the announcement installed above.
  const std::function<std::int64_t()> clock =
      config_.clock ? config_.clock
                    : std::function<std::int64_t()>(&OptimizerService::obs_now_ns);
  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int k = 0; k < config_.num_shards; ++k) {
    ServeShard::Env env;
    env.index = k;
    env.num_shards = config_.num_shards;
    env.config = &config_;
    env.encoder = &encoder_;
    env.serving_env = serving_env();
    env.native = &runtime_->optimizer();
    env.swap_epoch = &swap_epoch_;
    env.announcement = [this] { return announce_slot_.load(); };
    env.clock = clock;
    shards_.push_back(std::make_unique<ServeShard>(std::move(env)));
  }

  // Flight-recorder hookup last (shards must exist: the provider reads
  // their stats). Purely observational — nothing on the request path ever
  // consults the recorder.
  if (config_.flight_recorder != nullptr) {
    flight_provider_ = config_.flight_recorder->add_state_provider(
        "serve", [this] { return serve_state_json(); });
  }
}

OptimizerService::~OptimizerService() {
  stop();
  // After this the recorder may keep running, but no dump will call back
  // into the (now dying) service.
  if (config_.flight_recorder != nullptr && flight_provider_ >= 0) {
    config_.flight_recorder->remove_state_provider(flight_provider_);
  }
}

std::int64_t OptimizerService::obs_now_ns() { return obs::Tracer::now_ns(); }

void OptimizerService::start() {
  if (config_.bootstrap_from_history && journal_.records() == 0 &&
      !runtime_->repository().records().empty()) {
    bootstrap_journal();
  }
  if (config_.bootstrap_train && active_version() < 0) {
    retrain_sync();
  }
  for (auto& shard : shards_) shard->start();
}

void OptimizerService::stop() {
  // Signal every shard before joining any: shards drain their queues in
  // parallel instead of serially.
  for (auto& shard : shards_) shard->stop_async();
  for (auto& shard : shards_) shard->join();
  // A scheduled retrain may still be running on the pool; wait it out so
  // stop() returns with the service fully quiescent.
  while (retrain_inflight_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Routing + admission
// ---------------------------------------------------------------------------

std::size_t OptimizerService::shard_of(const Query& query) const {
  if (shards_.size() <= 1) return 0;
  // Query identity (template + parameter signature) is the pre-exploration
  // proxy for Plan::signature(): all plans for one query live on one shard,
  // which also keeps that shard's score-cache stripe hot for the template.
  const std::uint64_t h = hash64(query.template_id, kShardSalt) ^
                          mix64(query.param_signature);
  return static_cast<std::size_t>(mix64(h) %
                                  static_cast<std::uint64_t>(shards_.size()));
}

bool OptimizerService::try_submit(Query query, std::future<ServeDecision>* out) {
  if (out == nullptr) return false;
  const std::uint64_t id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  ServeShard& shard = *shards_[shard_of(query)];
  return shard.try_submit(id, std::move(query), out);
}

ServeDecision OptimizerService::optimize(Query query) {
  std::future<ServeDecision> future;
  if (!try_submit(std::move(query), &future)) {
    throw std::runtime_error("OptimizerService: queue full or service stopped");
  }
  return future.get();
}

int OptimizerService::select_with(const core::CostModel& model,
                                  const CandidateGeneration& generation) const {
  return core::argmin(model.predict_batch(
      core::encode_candidates(encoder_, generation.plans, serving_env())));
}

std::optional<EnvFeatures> OptimizerService::serving_env() const {
  if (!config_.encoding.include_env) return std::nullopt;
  return env_context_.representative;
}

// ---------------------------------------------------------------------------
// Feedback + monitoring + rollback
// ---------------------------------------------------------------------------

void OptimizerService::record_feedback(const ServeDecision& decision,
                                       const warehouse::ExecutionResult& exec) {
  static obs::Counter* const c_feedback =
      obs::Registry::instance().counter("loam.serve.feedback_records");
  obs::Span span(obs::Cat::kServe, "feedback", -1, decision.shard);
  c_feedback->add();

  // Journal the executed plan with the environments its stages actually saw
  // (the same encoding the offline trainer uses for default plans). The
  // record goes to the SERVING shard's journal file: concurrent feedback for
  // different shards only contends on each file's own leaf mutex — the old
  // service-wide feedback mutex that serialized submitters against the
  // journal is gone (the encoder's row memo is lock-striped and the monitor
  // has its own leaf lock).
  const warehouse::Plan& plan =
      decision.generation.plans.at(static_cast<std::size_t>(decision.chosen));
  std::vector<EnvFeatures> stage_envs(exec.stages.size());
  for (const warehouse::StageExecution& s : exec.stages) {
    if (s.stage_id >= 0) stage_envs[static_cast<std::size_t>(s.stage_id)] = s.env;
  }
  FeedbackRecord record;
  record.kind = FeedbackRecord::Kind::kExecuted;
  record.day = decision.submit_day;
  record.cpu_cost = exec.cpu_cost;
  record.tree = encoder_.encode(plan, &stage_envs, std::nullopt);
  journal_.append(decision.shard, record);

  // A few unexecuted candidates keep the adversarial half of Eq. (1) fed.
  int added = 0;
  for (std::size_t c = 0; c < decision.generation.plans.size() &&
                          added < config_.candidate_records_per_request;
       ++c) {
    if (static_cast<int>(c) == decision.chosen ||
        static_cast<int>(c) == decision.generation.default_index) {
      continue;
    }
    FeedbackRecord cand;
    cand.kind = FeedbackRecord::Kind::kCandidate;
    cand.day = decision.submit_day;
    cand.tree =
        encoder_.encode(decision.generation.plans[c], nullptr, serving_env());
    journal_.append(decision.shard, cand);
    ++added;
  }

  // Deviance monitoring — only feedback attributable to the CURRENTLY active
  // version may trigger its rollback; stale feedback from an already-swapped
  // model is journaled but not held against the new one.
  bool trigger = false;
  if (decision.model_version >= 0 &&
      decision.model_version == active_version()) {
    static obs::Gauge* const g_overrun =
        obs::Registry::instance().gauge("loam.serve.monitor_mean_overrun");
    std::lock_guard<std::mutex> mlock(monitor_mu_);
    monitor_.observe(decision.predicted_cost, exec.cpu_cost);
    g_overrun->set(monitor_.mean_overrun());
    trigger = monitor_.regressed();
  }
  if (trigger) {
    rollback(decision.model_version);
    // Forensics AFTER the rollback completes: rollback() holds swap_mu_ /
    // monitor_mu_, and the dump's state provider takes monitor_mu_ itself —
    // triggering here (no service locks held) keeps the hierarchy clean. The
    // bundle's history rings still show the overrun trajectory that tripped
    // the monitor; only the post-swap registry state is "after the fact".
    if (config_.flight_recorder != nullptr) {
      config_.flight_recorder->trigger_dump("deviance_rollback");
    }
  }

  // Retraining cadence: every retrain_min_new_records executed records, one
  // background retrain (never more than one in flight — the exchange below
  // is the sole gate, so a racing double-trigger schedules once).
  if (config_.auto_retrain &&
      executed_since_retrain_.fetch_add(1, std::memory_order_relaxed) + 1 >=
          config_.retrain_min_new_records) {
    executed_since_retrain_.store(0, std::memory_order_relaxed);
    if (!retrain_inflight_.exchange(true, std::memory_order_acq_rel)) {
      retrain_pool_.submit([this] { retrain_task(); });
    }
  }
}

void OptimizerService::rollback(int bad_version) {
  static obs::Counter* const c_rollbacks =
      obs::Registry::instance().counter("loam.serve.rollbacks");
  obs::Span span(obs::Cat::kServe, "rollback");
  std::lock_guard<std::mutex> lock(swap_mu_);
  const std::shared_ptr<const ModelSnapshot> current = announce_slot_.load();
  if (current->version != bad_version) return;  // raced with another swap
  registry_.mark_rolled_back(bad_version);
  loaded_.erase(bad_version);
  std::shared_ptr<const ModelSnapshot> next = fallback_snapshot();
  if (const auto prev = registry_.latest_approved()) {
    next = snapshot_for(*prev);
  }
  swap_snapshot(std::move(next));
  n_rollbacks_.fetch_add(1, std::memory_order_relaxed);
  c_rollbacks->add();
  std::lock_guard<std::mutex> mlock(monitor_mu_);
  monitor_.reset();
}

// ---------------------------------------------------------------------------
// Retraining
// ---------------------------------------------------------------------------

void OptimizerService::retrain_task() {
  try {
    retrain_sync();
  } catch (...) {
    // A failed background retrain must never take the serving path down; the
    // journal keeps the data and the next cadence tick tries again.
  }
  retrain_inflight_.store(false, std::memory_order_release);
}

bool OptimizerService::retrain_sync() {
  static obs::Counter* const c_retrains =
      obs::Registry::instance().counter("loam.serve.retrains");
  static obs::Counter* const c_approved =
      obs::Registry::instance().counter("loam.serve.retrain_approved");
  static obs::Counter* const c_rejected =
      obs::Registry::instance().counter("loam.serve.retrain_rejected");
  static obs::Histogram* const h_seconds = obs::Registry::instance().histogram(
      "loam.serve.retrain_seconds",
      obs::Histogram::exponential_bounds(0.01, 2.0, 16));
  obs::Span span(obs::Cat::kServe, "retrain");
  obs::ScopedTimer timer(h_seconds);

  // Shard-major replay: deterministic for a fixed shard count, so the
  // training input does not depend on how submitter threads interleaved.
  core::TrainingData data = journal_.replay(config_.max_journal_examples);
  if (static_cast<int>(data.default_plans.size()) < config_.min_train_examples) {
    n_retrain_skipped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  const int next_version = registry_.next_version();
  core::PredictorConfig pc = config_.predictor;
  // Distinct, reproducible initialization per version.
  pc.seed = config_.predictor.seed ^
            mix64(config_.seed + static_cast<std::uint64_t>(next_version));
  auto model = std::make_unique<AdaptiveCostPredictor>(encoder_.feature_dim(), pc);
  model->fit(data.default_plans, data.candidate_plans);

  // Flighting gate on queries strictly after the training watermark.
  const int first_day = std::max(0, journal_.max_day()) + 1;
  core::DeploymentGateConfig gc = config_.gate;
  gc.seed = config_.gate.seed + static_cast<std::uint64_t>(next_version);
  const AdaptiveCostPredictor* raw = model.get();
  core::DeploymentGateReport report;
  {
    // make_queries consumes the runtime's RNG stream: serialize access.
    std::lock_guard<std::mutex> lock(runtime_mu_);
    report = core::evaluate_selection(
        *runtime_,
        [this, raw](const CandidateGeneration& gen) {
          return select_with(*raw, gen);
        },
        config_.explorer, first_day, gc);
  }
  n_retrains_.fetch_add(1, std::memory_order_relaxed);
  c_retrains->add();

  ModelVersionMeta meta;
  meta.watermark_day = journal_.max_day();
  meta.journal_records = journal_.executed_records();
  meta.approved = report.approved;
  meta.gate_gain = report.gain;
  meta.gate_json = report.to_json();
  if (report.approved) {
    publish_and_swap(std::move(model), meta);
    n_retrain_approved_.fetch_add(1, std::memory_order_relaxed);
    c_approved->add();
    return true;
  }
  // Rejected candidates are still published (approved = false) so the
  // registry keeps the complete audit trail; they are never served.
  registry_.publish(*model, meta);
  n_retrain_rejected_.fetch_add(1, std::memory_order_relaxed);
  c_rejected->add();
  if (config_.flight_recorder != nullptr) {
    config_.flight_recorder->trigger_dump("gate_rejection");
  }
  return false;
}

void OptimizerService::bootstrap_journal() {
  obs::Span span(obs::Cat::kServe, "bootstrap_journal");
  const warehouse::QueryRepository& repo = runtime_->repository();
  std::vector<const QueryRecord*> records =
      repo.deduplicated(0, repo.max_day());
  if (static_cast<int>(records.size()) > config_.max_journal_examples) {
    records.resize(static_cast<std::size_t>(config_.max_journal_examples));
  }
  // Bootstrap records land in the shard file their query ROUTES to — the
  // same file that query's live feedback will append to later.
  for (const QueryRecord* r : records) {
    std::vector<EnvFeatures> stage_envs(r->exec.stages.size());
    for (const warehouse::StageExecution& s : r->exec.stages) {
      if (s.stage_id >= 0) stage_envs[static_cast<std::size_t>(s.stage_id)] = s.env;
    }
    FeedbackRecord record;
    record.kind = FeedbackRecord::Kind::kExecuted;
    record.day = r->day;
    record.cpu_cost = r->exec.cpu_cost;
    record.tree = encoder_.encode(r->plan, &stage_envs, std::nullopt);
    journal_.append(static_cast<int>(shard_of(r->query)), record);
  }
  // Candidate records for a sample of history queries (generated, never
  // executed), so even the bootstrap retrain trains domain-adversarially.
  const int sample = std::min<int>(config_.bootstrap_candidate_queries,
                                   static_cast<int>(records.size()));
  for (int i = 0; i < sample; ++i) {
    const QueryRecord* r = records[static_cast<std::size_t>(i)];
    const CandidateGeneration gen = explorer_.explore(r->query);
    int added = 0;
    for (std::size_t c = 0; c < gen.plans.size() &&
                            added < config_.candidate_records_per_request;
         ++c) {
      if (static_cast<int>(c) == gen.default_index) continue;
      FeedbackRecord cand;
      cand.kind = FeedbackRecord::Kind::kCandidate;
      cand.day = r->day;
      cand.tree = encoder_.encode(gen.plans[c], nullptr, serving_env());
      journal_.append(static_cast<int>(shard_of(r->query)), cand);
      ++added;
    }
  }
}

// ---------------------------------------------------------------------------
// Swapping (epoch broadcast)
// ---------------------------------------------------------------------------

std::shared_ptr<const ModelSnapshot> OptimizerService::snapshot_for(
    const ModelVersionMeta& meta) {
  const auto it = loaded_.find(meta.version);
  if (it != loaded_.end()) return it->second;
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = meta.version;
  auto model = std::make_unique<AdaptiveCostPredictor>(encoder_.feature_dim(),
                                                       config_.predictor);
  model->load(meta.checkpoint_path);
  snap->model = std::shared_ptr<const core::CostModel>(model.release());
  loaded_[meta.version] = snap;
  return snap;
}

std::shared_ptr<const ModelSnapshot> OptimizerService::swap_snapshot(
    std::shared_ptr<const ModelSnapshot> next) {
  static obs::Counter* const c_swaps =
      obs::Registry::instance().counter("loam.serve.swaps");
  static obs::Gauge* const g_version =
      obs::Registry::instance().gauge("loam.serve.active_version");
  static obs::Histogram* const h_pause = obs::Registry::instance().histogram(
      "loam.serve.swap_pause_seconds",
      obs::Histogram::exponential_bounds(1e-8, 4.0, 14));
  const int version = next->version;
  // Announcement first, epoch second (release): a shard that sees the new
  // epoch is guaranteed to load at least this announcement. No shard is
  // paused here — each applies the swap at its own next batch boundary,
  // measuring its own pause into loam.serve.shard<K>.swap_pause_seconds.
  const std::int64_t t0 = obs::Tracer::now_ns();
  const std::shared_ptr<const ModelSnapshot> prev =
      announce_slot_.exchange(std::move(next));
  const std::int64_t pause_ns = obs::Tracer::now_ns() - t0;
  swap_epoch_.fetch_add(1, std::memory_order_release);
  h_pause->observe(1e-9 * static_cast<double>(pause_ns));
  c_swaps->add();
  g_version->set(version);
  n_swaps_.fetch_add(1, std::memory_order_relaxed);
  return prev;
}

int OptimizerService::publish_and_swap(
    std::unique_ptr<AdaptiveCostPredictor> model, ModelVersionMeta meta) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  meta = registry_.publish(*model, meta);
  auto snap = std::make_shared<ModelSnapshot>();
  snap->version = meta.version;
  snap->model = std::shared_ptr<const core::CostModel>(model.release());
  loaded_[meta.version] = snap;
  if (meta.approved) {
    swap_snapshot(std::move(snap));
    std::lock_guard<std::mutex> mlock(monitor_mu_);
    monitor_.reset();
  }
  return meta.version;
}

void OptimizerService::swap_to_version(int version) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  const auto meta = registry_.find(version);
  if (!meta) {
    throw std::runtime_error("registry has no version " + std::to_string(version));
  }
  swap_snapshot(snapshot_for(*meta));
  std::lock_guard<std::mutex> mlock(monitor_mu_);
  monitor_.reset();
}

void OptimizerService::swap_to_fallback() {
  std::lock_guard<std::mutex> lock(swap_mu_);
  swap_snapshot(fallback_snapshot());
  std::lock_guard<std::mutex> mlock(monitor_mu_);
  monitor_.reset();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

int OptimizerService::active_version() const {
  return announce_slot_.load()->version;
}

double OptimizerService::monitor_mean_overrun() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return monitor_.mean_overrun();
}

PacingSnapshot OptimizerService::pacing_snapshot(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->pacing_snapshot();
}

ShardStats OptimizerService::shard_stats(int shard) const {
  return shards_.at(static_cast<std::size_t>(shard))->stats();
}

namespace {

const char* pacing_state_json_name(PacingController::State s) {
  switch (s) {
    case PacingController::State::kStartup: return "startup";
    case PacingController::State::kDrain: return "drain";
    case PacingController::State::kSteady: return "steady";
    case PacingController::State::kProbe: return "probe";
  }
  return "unknown";
}

}  // namespace

std::string OptimizerService::serve_state_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("active_version", active_version());
  w.kv("num_shards", num_shards());
  w.kv("monitor_mean_overrun", monitor_mean_overrun());

  const Stats s = stats();
  w.key("stats").begin_object();
  w.kv("requests", s.requests);
  w.kv("rejected", s.rejected);
  w.kv("shed", s.shed);
  w.kv("batches", s.batches);
  w.kv("fallback_decisions", s.fallback_decisions);
  w.kv("swaps", s.swaps);
  w.kv("rollbacks", s.rollbacks);
  w.kv("retrains", s.retrains);
  w.kv("retrain_approved", s.retrain_approved);
  w.kv("retrain_rejected", s.retrain_rejected);
  w.kv("retrain_skipped", s.retrain_skipped);
  w.end_object();

  w.key("shards").begin_array();
  for (int k = 0; k < num_shards(); ++k) {
    const ServeShard& sh = *shards_[static_cast<std::size_t>(k)];
    const ShardStats ss = sh.stats();
    const PacingSnapshot ps = sh.pacing_snapshot();
    w.begin_object();
    w.kv("index", k);
    w.kv("serving_version", sh.serving_version());
    w.kv("requests", ss.requests);
    w.kv("rejected", ss.rejected);
    w.kv("shed", ss.shed);
    w.kv("batches", ss.batches);
    w.kv("fallback_decisions", ss.fallback_decisions);
    w.kv("swaps_applied", ss.swaps_applied);
    w.kv("swap_pause_max_ns", ss.swap_pause_max_ns);
    w.key("pacing").begin_object();
    w.kv("enabled", ps.enabled);
    w.kv("state", pacing_state_json_name(ps.state));
    w.kv("est_bw_per_sec", ps.est_bw_per_sec);
    w.kv("est_min_delay_seconds", ps.est_min_delay_seconds);
    w.kv("bdp_requests", ps.bdp_requests);
    w.kv("cwnd", ps.cwnd);
    w.kv("batch_target", ps.batch_target);
    w.kv("inflight", ps.inflight);
    w.kv("rounds", ps.rounds);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

OptimizerService::Stats OptimizerService::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    const ShardStats ss = shard->stats();
    s.requests += ss.requests;
    s.rejected += ss.rejected;
    s.shed += ss.shed;
    s.batches += ss.batches;
    s.fallback_decisions += ss.fallback_decisions;
  }
  s.swaps = n_swaps_.load(std::memory_order_relaxed);
  s.rollbacks = n_rollbacks_.load(std::memory_order_relaxed);
  s.retrains = n_retrains_.load(std::memory_order_relaxed);
  s.retrain_approved = n_retrain_approved_.load(std::memory_order_relaxed);
  s.retrain_rejected = n_retrain_rejected_.load(std::memory_order_relaxed);
  s.retrain_skipped = n_retrain_skipped_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace loam::serve
