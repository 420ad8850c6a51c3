// Common interface of every learned cost model in the evaluation: LOAM's
// adaptive predictor and the Transformer / GCN / XGBoost baselines.
//
// All models regress normalized log CPU cost (costs span 1e3..1e7, Section
// 2.2, so log-space is what makes a single MSE loss meaningful) and receive
// the same vectorized plans from PlanEncoder, mirroring the fairness
// adaptations of Section 7.1.
#ifndef LOAM_CORE_COST_MODEL_H_
#define LOAM_CORE_COST_MODEL_H_

#include <span>
#include <string>
#include <vector>

#include "nn/tree_conv.h"

namespace loam::core {

struct TrainingExample {
  nn::Tree tree;
  double cpu_cost = 0.0;
};

class CostModel {
 public:
  virtual ~CostModel() = default;

  // `default_plans` carry observed costs; `candidate_plans` are UNEXECUTED
  // vectorized candidate plans, consumed only by models that perform
  // domain-adaptive training (others may ignore them).
  virtual void fit(const std::vector<TrainingExample>& default_plans,
                   const std::vector<nn::Tree>& candidate_plans) = 0;

  virtual double predict(const nn::Tree& tree) const = 0;

  // Scores a whole candidate set at once, one cost per tree in input order.
  // The base implementation loops predict(); models with a batched forward
  // pass override it to encode the set into one matrix batch and run a
  // single forward per sub-network. Implementations must return the same
  // values as the per-plan path.
  virtual std::vector<double> predict_batch(const std::vector<nn::Tree>& trees) const {
    std::vector<double> out;
    out.reserve(trees.size());
    for (const nn::Tree& t : trees) out.push_back(predict(t));
    return out;
  }

  // Pointer form of predict_batch, for callers whose trees already live
  // elsewhere (e.g. shared_ptr encodings handed out by loam::cache) — scoring
  // a mixed cached/fresh batch then needs no deep Tree copies. Same contract:
  // one cost per tree, input order, values identical to predict().
  virtual std::vector<double> predict_batch_ptrs(
      const std::vector<const nn::Tree*>& trees) const {
    std::vector<double> out;
    out.reserve(trees.size());
    for (const nn::Tree* t : trees) out.push_back(predict(*t));
    return out;
  }

  virtual std::size_t model_bytes() const = 0;
  virtual std::string name() const = 0;
};

// Index of the lowest predicted cost; ties resolve to the first candidate.
// The selection rule of every serving-time scorer.
inline int argmin(std::span<const double> costs) {
  int best = 0;
  for (std::size_t i = 1; i < costs.size(); ++i) {
    if (costs[i] < costs[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

// Shared target transform: models regress z = (log1p(cost) - mu) / sd.
struct LogCostScaler {
  double mu = 0.0;
  double sd = 1.0;

  void fit(const std::vector<TrainingExample>& examples);
  double to_z(double cost) const;
  double to_cost(double z) const;
};

}  // namespace loam::core

#endif  // LOAM_CORE_COST_MODEL_H_
