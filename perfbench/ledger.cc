// Offline re-derivation of served decisions, paired-replay cost, and the
// direct per-layer timings of a traced run.
#include <bit>
#include <memory>
#include <optional>

#include "core/inference.h"
#include "obs/trace.h"
#include "perfbench.h"
#include "util/hash.h"
#include "warehouse/flighting.h"

namespace perfbench {

using loam::core::AdaptiveCostPredictor;
using loam::core::CandidateGeneration;
using loam::core::PlanEncoder;
using loam::core::PlanExplorer;
using loam::warehouse::EnvFeatures;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

int argmin(const std::vector<double>& v) {
  int best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

}  // namespace

CheckResult check_decisions(loam::core::ProjectRuntime& runtime,
                            OptimizerService& service,
                            const std::vector<const KeptDecision*>& sample) {
  CheckResult r;
  const loam::serve::ServeConfig& cfg = service.config();
  // An encoder of our own, without the node-row memo, fitted exactly as the
  // service fits its own: normalizers over every historical plan.
  loam::core::EncodingConfig enc_cfg = cfg.encoding;
  enc_cfg.row_cache_capacity = 0;
  PlanEncoder encoder(&runtime.project().catalog, enc_cfg);
  std::vector<const Plan*> plans;
  for (const loam::warehouse::QueryRecord& rec : runtime.repository().records()) {
    plans.push_back(&rec.plan);
  }
  encoder.fit_normalizers(plans);
  const EnvFeatures rep =
      loam::core::build_env_context(runtime.repository(),
                                    runtime.cluster_env_history(),
                                    runtime.cluster())
          .representative;
  const std::optional<EnvFeatures> env =
      enc_cfg.include_env ? std::optional<EnvFeatures>(rep) : std::nullopt;
  PlanExplorer explorer(&runtime.optimizer(), cfg.explorer);

  std::map<int, std::unique_ptr<AdaptiveCostPredictor>> models;
  for (const KeptDecision* k : sample) {
    const ServeDecision& d = k->decision;
    ++r.checked;
    auto it = models.find(d.model_version);
    if (it == models.end()) {
      const auto meta = service.registry().find(d.model_version);
      if (!meta) {
        ++r.mismatches;
        continue;
      }
      auto model = std::make_unique<AdaptiveCostPredictor>(encoder.feature_dim(),
                                                           cfg.predictor);
      const std::int64_t t0 = now_ns();
      model->load(meta->checkpoint_path);
      r.load_ms.observe(1e3 * seconds_since(t0));
      it = models.emplace(d.model_version, std::move(model)).first;
    }
    const CandidateGeneration gen = explorer.explore(k->query);
    bool ok = gen.plans.size() == d.generation.plans.size() &&
              gen.default_index == d.generation.default_index &&
              d.predicted.size() == gen.plans.size();
    for (std::size_t c = 0; ok && c < gen.plans.size(); ++c) {
      ok = gen.plans[c].signature() == d.generation.plans[c].signature();
    }
    if (ok) {
      std::vector<loam::nn::Tree> trees;
      for (const Plan& p : gen.plans) trees.push_back(encoder.encode(p, nullptr, env));
      const std::vector<double> preds = it->second->predict_batch(trees);
      const int chosen = argmin(preds);
      ok = chosen == d.chosen &&
           same_bits(preds[static_cast<std::size_t>(chosen)], d.predicted_cost);
      for (std::size_t c = 0; ok && c < preds.size(); ++c) {
        ok = same_bits(preds[c], d.predicted[c]);
      }
    }
    if (!ok) ++r.mismatches;
  }
  return r;
}

double cost_ratio(const CostSample& sample,
                  const loam::core::ProjectRuntime& runtime, int runs) {
  double served = 0.0;
  double native = 0.0;
  for (const CostSample::Entry& e : sample.entries) {
    const std::vector<std::vector<double>> cost = loam::warehouse::paired_replay(
        {e.served, e.native_default}, runtime.config().cluster,
        runtime.config().executor, runs, loam::mix64(e.id ^ 0xc057ull));
    double s = 0.0;
    double n = 0.0;
    for (int r = 0; r < runs; ++r) {
      s += cost[0][static_cast<std::size_t>(r)];
      n += cost[1][static_cast<std::size_t>(r)];
    }
    served += static_cast<double>(e.count) * s / runs;
    native += static_cast<double>(e.count) * n / runs;
  }
  return native > 0.0 ? served / native : 0.0;
}

LayerProbe probe_layers(const loam::core::ProjectRuntime& runtime,
                        const OptimizerService& service,
                        const std::vector<Query>& queries) {
  LayerProbe p;
  const loam::serve::ServeConfig& cfg = service.config();
  PlanExplorer explorer(&runtime.optimizer(), cfg.explorer);
  const std::optional<EnvFeatures> env =
      cfg.encoding.include_env
          ? std::optional<EnvFeatures>(service.env_context().representative)
          : std::nullopt;
  double trials = 0.0, candidates = 0.0, plans = 0.0, nodes = 0.0;
  double optimize_ns = 0.0, optimize_calls = 0.0, encode_ns = 0.0;
  for (const Query& q : queries) {
    std::int64_t t0 = now_ns();
    const CandidateGeneration gen = explorer.explore(q);
    p.explore_ms.observe(1e3 * seconds_since(t0));
    trials += gen.trials;
    candidates += static_cast<double>(gen.plans.size());
    for (const loam::warehouse::PlannerKnobs& knobs : gen.knobs) {
      t0 = now_ns();
      const Plan plan = runtime.optimizer().optimize(q, knobs);
      optimize_ns += static_cast<double>(now_ns() - t0);
      optimize_calls += 1.0;
    }
    for (const Plan& plan : gen.plans) {
      t0 = now_ns();
      const loam::nn::Tree tree = service.encoder().encode(plan, nullptr, env);
      encode_ns += static_cast<double>(now_ns() - t0);
      plans += 1.0;
      nodes += tree.node_count();
    }
  }
  const double n = std::max<double>(1.0, static_cast<double>(queries.size()));
  p.trials_per_query = trials / n;
  p.candidates_per_query = candidates / n;
  p.optimize_us = optimize_calls > 0.0 ? 1e-3 * optimize_ns / optimize_calls : 0.0;
  p.encode_us = plans > 0.0 ? 1e-3 * encode_ns / plans : 0.0;
  p.nodes_per_plan = plans > 0.0 ? nodes / plans : 0.0;
  return p;
}

double infer_mflop(const loam::core::PredictorConfig& config, int input_dim,
                   double nodes) {
  // Each tree convolution is three GEMMs (self, left, right child) per node.
  const double h = config.hidden_dim;
  const double e = config.embed_dim;
  double flop = nodes * 2.0 * 3.0 * input_dim * h;
  flop += nodes * 2.0 * 3.0 * h * h * std::max(0, config.tcn_layers - 1);
  flop += 2.0 * h * e + 2.0 * e;  // projection + cost head, once per plan
  return 1e-6 * flop;
}

void drain_spans(std::map<std::string, SpanStats>& into) {
  for (const loam::obs::TraceEvent& ev : loam::obs::Tracer::instance().drain()) {
    if (ev.name == nullptr) continue;
    const auto it = into.find(ev.name);
    if (it == into.end()) continue;
    it->second.dur_ms.observe(1e-6 * static_cast<double>(ev.dur_ns));
    it->second.arg_sum += static_cast<double>(ev.arg);
  }
  loam::obs::Tracer::instance().reset();
}

HistDelta hist_delta(const loam::obs::RegistrySnapshot& before,
                     const loam::obs::RegistrySnapshot& after,
                     const std::string& name) {
  HistDelta d;
  const loam::obs::MetricSnapshot* a = after.find(name);
  if (a == nullptr) return d;
  d.count = a->count;
  d.sum = a->value;
  if (const loam::obs::MetricSnapshot* b = before.find(name)) {
    d.count -= b->count;
    d.sum -= b->value;
  }
  return d;
}

}  // namespace perfbench
