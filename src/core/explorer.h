// Plan explorer (Section 3): steers the native optimizer with the six
// expert-selected flags (Bao-style) and with scaled cardinalities on >= 3
// input subqueries (Lero-style) to produce a diverse candidate set; keeps the
// top-k by the engine's rough cost estimate and always includes the default
// plan.
#ifndef LOAM_CORE_EXPLORER_H_
#define LOAM_CORE_EXPLORER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/thread_pool.h"
#include "warehouse/native_optimizer.h"

namespace loam::core {

struct CandidateGeneration {
  std::vector<warehouse::Plan> plans;
  // plans[c].signature(), computed once on the common estimate face; the
  // serve path keys its score and encoding caches on these.
  std::vector<std::uint64_t> plan_sigs;
  std::vector<warehouse::PlannerKnobs> knobs;
  // Engine rough cost of each kept plan on the common estimate face; the
  // parallel-determinism property tests compare these bit-for-bit.
  std::vector<double> rough_costs;
  int default_index = 0;        // position of the default plan in `plans`
  double generation_seconds = 0.0;
  int trials = 0;               // size of the trial list
  // Native optimize() calls actually made: a trial that agrees with an
  // earlier executed trial on that trial's knob read-set is elided, since
  // it would rebuild that trial's plan and dedup would drop it.
  int optimized = 0;
};

struct ExplorerConfig {
  int top_k = 5;
  // Lero-style scaling factors applied when the query has >= 3 inputs.
  std::vector<double> card_scales = {0.3, 3.0};
  // Also try a few expert flag combinations beyond single toggles.
  bool expert_combos = true;
  // Engine-side sanity pruning: a candidate whose rough cost on the COMMON
  // estimate face (card_scale = 1) exceeds this multiple of the default
  // plan's rough cost is discarded before ranking. This is how the engine
  // protects itself from steering trials its own estimates already condemn.
  double sanity_factor = 1.6;
  // Include the aggressive trials the domain experts rejected (sort-merge
  // pipelines on unsorted inputs, disabled filter pushdown, extreme
  // cardinality scales). Used by ablation studies of the explorer itself.
  bool risky_trials = false;
  // Worker threads for the independent native-optimizer trials. 0 resolves
  // to hardware_concurrency; 1 is the exact legacy serial path (no pool is
  // even constructed). Results are bit-identical for every value: each trial
  // writes its own slot and the dedup/prune/sort merge runs serially in
  // trial order.
  int num_threads = 0;
};

class PlanExplorer {
 public:
  using Config = ExplorerConfig;

  PlanExplorer(const warehouse::NativeOptimizer* optimizer,
               Config config = ExplorerConfig());

  CandidateGeneration explore(const warehouse::Query& query) const;

  // The knob settings explore() tries for `query`, in trial order; trial 0
  // is the shipping default.
  std::vector<warehouse::PlannerKnobs> trial_list(const warehouse::Query& query) const;

  const Config& config() const { return config_; }
  // Effective trial parallelism (config resolved against the hardware).
  int num_threads() const { return num_threads_; }

 private:
  const warehouse::NativeOptimizer* optimizer_;
  Config config_;
  int num_threads_ = 1;
  // Workers beyond the exploring thread itself; null when num_threads_ == 1.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace loam::core

#endif  // LOAM_CORE_EXPLORER_H_
