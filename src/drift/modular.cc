#include "drift/modular.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace loam::drift {

namespace {

std::string module_dir(const std::string& state_dir, const std::string& key) {
  return state_dir + "/" + key;
}

}  // namespace

ModularLearner::ModularLearner(LearnerConfig config)
    : config_(std::move(config)) {
  if (config_.state_dir.empty()) {
    throw std::invalid_argument(
        "drift::ModularLearner requires a state_dir (journals and "
        "registries are file-backed)");
  }
  std::filesystem::create_directories(config_.state_dir);
}

void ModularLearner::onboard(const std::string& key,
                             core::ProjectRuntime* runtime) {
  if (runtime == nullptr) {
    throw std::invalid_argument("onboard(\"" + key + "\"): null runtime");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (modules_.count(key) != 0) {
    throw std::runtime_error("module \"" + key + "\" is already onboarded");
  }

  Module m;
  m.runtime = runtime;
  m.encoder = std::make_unique<core::PlanEncoder>(&runtime->catalog(),
                                                  config_.encoding);
  if (feature_dim_ == 0) {
    feature_dim_ = m.encoder->feature_dim();
  } else if (feature_dim_ != m.encoder->feature_dim()) {
    throw std::runtime_error("module \"" + key +
                             "\" feature_dim mismatch with learner");
  }

  // Normalizer probe: a deterministic slice of the project's own workload,
  // planned with default knobs. The encoder's hash blocks are
  // catalog-independent, so this is the only catalog-coupled fit.
  {
    std::vector<warehouse::Query> probe = runtime->make_queries(0, 2, 64);
    std::vector<warehouse::Plan> plans;
    plans.reserve(probe.size());
    for (const warehouse::Query& q : probe) {
      plans.push_back(runtime->optimizer().optimize(q));
    }
    std::vector<const warehouse::Plan*> ptrs;
    ptrs.reserve(plans.size());
    for (const warehouse::Plan& p : plans) ptrs.push_back(&p);
    m.encoder->fit_normalizers(ptrs);
  }

  m.explorer = std::make_unique<core::PlanExplorer>(&runtime->optimizer(),
                                                    config_.explorer);
  m.cache = std::make_unique<cache::InferenceCache>("drift." + key,
                                                    config_.cache);

  if (config_.modular) {
    const std::string dir = module_dir(config_.state_dir, key);
    std::filesystem::create_directories(dir);
    m.journal = std::make_unique<serve::FeedbackJournal>(dir + "/feedback.jnl",
                                                         feature_dim_);
    m.registry = std::make_unique<serve::ModelRegistry>(dir + "/registry");
    // Re-onboarding (or a restart) resumes from the module's own registry.
    if (auto latest = m.registry->latest_approved()) {
      auto model = std::make_shared<core::AdaptiveCostPredictor>(
          feature_dim_, config_.predictor);
      model->load(latest->checkpoint_path);
      model->set_scaler_frozen(true);
      m.model = std::move(model);
      m.version = latest->version;
      m.watermark_day = latest->watermark_day;
    }
  } else if (shared_.journal == nullptr) {
    const std::string dir = module_dir(config_.state_dir, "__shared__");
    std::filesystem::create_directories(dir);
    shared_.journal = std::make_unique<serve::FeedbackJournal>(
        dir + "/feedback.jnl", feature_dim_);
    shared_.registry = std::make_unique<serve::ModelRegistry>(dir + "/registry");
    if (auto latest = shared_.registry->latest_approved()) {
      auto model = std::make_shared<core::AdaptiveCostPredictor>(
          feature_dim_, config_.predictor);
      model->load(latest->checkpoint_path);
      shared_.model = std::move(model);
      shared_.version = latest->version;
      shared_.watermark_day = latest->watermark_day;
    }
  }

  modules_.emplace(key, std::move(m));
}

void ModularLearner::offboard(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = modules_.find(key);
  if (it == modules_.end()) {
    throw std::runtime_error("offboard: unknown module \"" + key + "\"");
  }
  modules_.erase(it);
}

bool ModularLearner::has_module(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return modules_.count(key) != 0;
}

std::vector<std::string> ModularLearner::keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& [key, m] : modules_) out.push_back(key);
  return out;
}

ModularLearner::Module& ModularLearner::module_at(const std::string& key) {
  auto it = modules_.find(key);
  if (it == modules_.end()) {
    throw std::runtime_error("unknown module \"" + key + "\"");
  }
  return it->second;
}

const ModularLearner::Module& ModularLearner::module_at(
    const std::string& key) const {
  auto it = modules_.find(key);
  if (it == modules_.end()) {
    throw std::runtime_error("unknown module \"" + key + "\"");
  }
  return it->second;
}

int ModularLearner::select_with(
    const core::AdaptiveCostPredictor& model, const core::PlanEncoder& encoder,
    const core::CandidateGeneration& generation) const {
  // The gate-closure twin of optimize()'s scoring loop: zero-filled
  // environment block, argmin with first-index tie break. predict_batch is
  // bit-identical per row to predict(), so gate verdicts replicate serving.
  return core::argmin(model.predict_batch(
      core::encode_candidates(encoder, generation.plans, std::nullopt)));
}

ModularLearner::Decision ModularLearner::optimize(
    const std::string& key, const warehouse::Query& query) {
  std::lock_guard<std::mutex> lock(mu_);
  Module& m = module_at(key);

  Decision d;
  d.generation = m.explorer->explore(query);
  d.default_index = d.generation.default_index;
  d.chosen = d.generation.default_index;

  const core::AdaptiveCostPredictor* model =
      config_.modular ? m.model.get() : shared_.model.get();
  const int version = config_.modular ? m.version : shared_.version;
  if (model == nullptr) return d;  // native fallback until a swap lands

  // Score every candidate through the module's caches. Keys fold the plan
  // signature (schema_epoch-aware), a zero environment fingerprint, and the
  // serving REGISTRY VERSION — a hot swap strands every pre-swap score by
  // construction, and a rollback's re-keyed lookups land on the restored
  // version's own (still valid) entries.
  int best = 0;
  double best_score = 0.0;
  for (int i = 0; i < static_cast<int>(d.generation.plans.size()); ++i) {
    const warehouse::Plan& plan = d.generation.plans[i];
    const std::uint64_t sig = plan.signature();
    const std::uint64_t skey = cache::InferenceCache::score_key(sig, 0, version);
    double score;
    if (auto hit = m.cache->get_score(skey)) {
      score = *hit;
    } else {
      const std::uint64_t ekey = cache::InferenceCache::encoding_key(sig, 0);
      std::shared_ptr<const nn::Tree> tree = m.cache->get_encoding(ekey);
      if (tree == nullptr) {
        tree = std::make_shared<const nn::Tree>(
            m.encoder->encode(plan, nullptr, std::nullopt));
        m.cache->put_encoding(ekey, tree);
      }
      score = model->predict(*tree);
      m.cache->put_score(skey, score);
    }
    if (i == 0 || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  d.chosen = best;
  d.used_model = true;
  d.model_version = version;
  return d;
}

void ModularLearner::record_feedback(const std::string& key,
                                     const Decision& decision, double cpu_cost,
                                     int day) {
  std::lock_guard<std::mutex> lock(mu_);
  Module& m = module_at(key);

  serve::FeedbackRecord record;
  record.kind = serve::FeedbackRecord::Kind::kExecuted;
  record.day = day;
  record.cpu_cost = cpu_cost;
  const warehouse::Plan& plan =
      decision.generation.plans.at(static_cast<std::size_t>(decision.chosen));
  record.tree = m.encoder->encode(plan, nullptr, std::nullopt);

  if (config_.modular) {
    m.journal->append(record);
    ++m.fresh;
  } else {
    shared_.journal->append(record);
    ++shared_.fresh;
  }
}

std::vector<ModularLearner::RetrainReport> ModularLearner::maybe_retrain(
    int day) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RetrainReport> reports;
  if (config_.modular) {
    for (auto& [key, m] : modules_) {
      if (m.fresh >= static_cast<std::uint64_t>(config_.retrain_min_fresh)) {
        reports.push_back(retrain_modular_locked(key, day));
      }
    }
  } else if (shared_.journal != nullptr &&
             shared_.fresh >=
                 static_cast<std::uint64_t>(config_.retrain_min_fresh)) {
    // Same per-record trigger as a module: the baseline gets at least as
    // many retrain opportunities, so slower recovery is attributable to
    // pooled training + global gating, never to fewer chances.
    reports.push_back(retrain_monolithic_locked(day));
  }
  return reports;
}

ModularLearner::RetrainReport ModularLearner::retrain_module(
    const std::string& key, int day) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.modular || key == "*") {
    if (shared_.journal == nullptr) {
      throw std::runtime_error("retrain_module: no shared journal yet");
    }
    return retrain_monolithic_locked(day);
  }
  module_at(key);  // validate
  return retrain_modular_locked(key, day);
}

ModularLearner::RetrainReport ModularLearner::retrain_modular_locked(
    const std::string& key, int day) {
  Module& m = module_at(key);
  RetrainReport r;
  r.key = key;
  m.fresh = 0;

  core::TrainingData data = m.journal->replay(config_.window_max_executed);
  r.examples = static_cast<int>(data.default_plans.size());
  if (r.examples < config_.min_train_examples) return r;
  r.attempted = true;
  ++m.retrains;

  // Candidate model: warm-start from the module's serving checkpoint when
  // one exists — frozen scaler, short epoch budget — else a full bootstrap
  // fit. Only THIS module's journal feeds it.
  auto candidate = std::make_shared<core::AdaptiveCostPredictor>(
      feature_dim_, config_.predictor);
  if (auto latest = m.registry->latest_approved()) {
    candidate->load(latest->checkpoint_path);
    candidate->set_scaler_frozen(true);
    candidate->set_epochs(config_.incremental_epochs);
    r.incremental = true;
  }
  candidate->fit(data.default_plans, data.candidate_plans);
  r.train_seconds = candidate->diagnostics().train_seconds;

  // Gate on THIS module's workload only — the structural isolation claim:
  // project A's verdict samples project A's queries, so drift on A can
  // neither reject nor roll back any other module.
  auto select = [this, &candidate, &m](const core::CandidateGeneration& g) {
    return select_with(*candidate, *m.encoder, g);
  };
  const core::DeploymentGateReport gate = core::evaluate_selection(
      *m.runtime, select, config_.explorer, day + 1, config_.gate);

  serve::ModelVersionMeta meta;
  meta.watermark_day = day;
  meta.journal_records = static_cast<std::uint64_t>(r.examples);
  meta.approved = gate.approved;
  meta.gate_gain = gate.gain;
  meta.gate_json = gate.to_json();
  meta = m.registry->publish(*candidate, meta);

  r.version = meta.version;
  r.approved = gate.approved;
  r.gate_gain = gate.gain;
  if (gate.approved) {
    m.model = std::move(candidate);
    m.version = meta.version;
    m.watermark_day = day;
    ++m.epoch;
    ++m.approvals;
  } else {
    ++m.rejections;
  }
  return r;
}

ModularLearner::RetrainReport ModularLearner::retrain_monolithic_locked(
    int day) {
  RetrainReport r;
  r.key = "*";
  shared_.fresh = 0;

  // Pooled window: the same per-project budget a modular fit gets.
  const int window = config_.window_max_executed *
                     std::max<int>(1, static_cast<int>(modules_.size()));
  core::TrainingData data = shared_.journal->replay(window);
  r.examples = static_cast<int>(data.default_plans.size());
  if (r.examples < config_.min_train_examples) return r;
  r.attempted = true;
  ++shared_.retrains;

  // The baseline retrains from scratch: one global model, one global scaler
  // re-based over every project's pooled records.
  auto candidate = std::make_shared<core::AdaptiveCostPredictor>(
      feature_dim_, config_.predictor);
  candidate->fit(data.default_plans, data.candidate_plans);
  r.train_seconds = candidate->diagnostics().train_seconds;

  // Global gate: EVERY onboarded project must approve before the swap —
  // which is exactly why localized drift stalls the monolith: the drifted
  // project drags the pooled fit while the healthy projects veto any
  // candidate that regresses them.
  bool approved = !modules_.empty();
  double min_gain = 0.0;
  bool first = true;
  obs::JsonWriter gates;
  gates.begin_object();
  for (auto& [key, m] : modules_) {
    auto select = [this, &candidate, &m](const core::CandidateGeneration& g) {
      return select_with(*candidate, *m.encoder, g);
    };
    const core::DeploymentGateReport gate = core::evaluate_selection(
        *m.runtime, select, config_.explorer, day + 1, config_.gate);
    approved = approved && gate.approved;
    if (first || gate.gain < min_gain) min_gain = gate.gain;
    first = false;
    gates.key(key);
    gates.raw(gate.to_json());
  }
  gates.end_object();

  serve::ModelVersionMeta meta;
  meta.watermark_day = day;
  meta.journal_records = static_cast<std::uint64_t>(r.examples);
  meta.approved = approved;
  meta.gate_gain = min_gain;
  meta.gate_json = gates.str();
  meta = shared_.registry->publish(*candidate, meta);

  r.version = meta.version;
  r.approved = approved;
  r.gate_gain = min_gain;
  if (approved) {
    shared_.model = std::move(candidate);
    shared_.version = meta.version;
    shared_.watermark_day = day;
    ++shared_.epoch;
    ++shared_.approvals;
  } else {
    ++shared_.rejections;
  }
  return r;
}

int ModularLearner::rollback_module(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.modular) {
    // The monolith can only demote its one global model — a per-project
    // rollback is structurally impossible, whatever `key` says.
    if (shared_.version == 0) return 0;
    const int rolled = shared_.version;
    shared_.registry->mark_rolled_back(rolled);
    ++shared_.rollbacks;
    ++shared_.epoch;
    if (auto latest = shared_.registry->latest_approved()) {
      auto model = std::make_shared<core::AdaptiveCostPredictor>(
          feature_dim_, config_.predictor);
      model->load(latest->checkpoint_path);
      shared_.model = std::move(model);
      shared_.version = latest->version;
    } else {
      shared_.model.reset();
      shared_.version = 0;
    }
    return rolled;
  }

  Module& m = module_at(key);
  if (m.version == 0) return 0;
  const int rolled = m.version;
  m.registry->mark_rolled_back(rolled);
  ++m.rollbacks;
  ++m.epoch;
  if (auto latest = m.registry->latest_approved()) {
    auto model = std::make_shared<core::AdaptiveCostPredictor>(
        feature_dim_, config_.predictor);
    model->load(latest->checkpoint_path);
    model->set_scaler_frozen(true);
    m.model = std::move(model);
    m.version = latest->version;
  } else {
    m.model.reset();
    m.version = 0;
  }
  return rolled;
}

void ModularLearner::status_into(const std::string& key, const Module& m,
                                 ModuleStatus& out) const {
  out.key = key;
  if (config_.modular) {
    out.version = m.version;
    out.epoch = m.epoch;
    out.executed_records = m.journal ? m.journal->executed_records() : 0;
    out.fresh_records = m.fresh;
    out.retrains = m.retrains;
    out.approvals = m.approvals;
    out.rejections = m.rejections;
    out.rollbacks = m.rollbacks;
    out.watermark_day = m.watermark_day;
  } else {
    out.version = shared_.version;
    out.epoch = shared_.epoch;
    out.executed_records =
        shared_.journal ? shared_.journal->executed_records() : 0;
    out.fresh_records = shared_.fresh;
    out.retrains = shared_.retrains;
    out.approvals = shared_.approvals;
    out.rejections = shared_.rejections;
    out.rollbacks = shared_.rollbacks;
    out.watermark_day = shared_.watermark_day;
  }
}

ModuleStatus ModularLearner::status(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  ModuleStatus out;
  if (key == "*" && !config_.modular) {
    status_into(key, Module{}, out);
    return out;
  }
  status_into(key, module_at(key), out);
  return out;
}

std::string ModularLearner::state_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::JsonWriter w;
  w.begin_object();
  w.kv("mode", config_.modular ? "modular" : "monolithic");
  w.key("modules");
  w.begin_array();
  for (const auto& [key, m] : modules_) {
    ModuleStatus s;
    status_into(key, m, s);
    w.begin_object();
    w.kv("key", s.key);
    w.kv("version", s.version);
    w.kv("epoch", s.epoch);
    w.kv("executed_records", s.executed_records);
    w.kv("fresh_records", s.fresh_records);
    w.kv("retrains", s.retrains);
    w.kv("approvals", s.approvals);
    w.kv("rejections", s.rejections);
    w.kv("rollbacks", s.rollbacks);
    w.kv("watermark_day", s.watermark_day);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace loam::drift
