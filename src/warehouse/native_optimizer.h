// The native cost-based optimizer of the simulated warehouse: the component
// LOAM steers (Section 3) and the "MaxCompute" baseline of the evaluation.
//
// Pipeline:
//   1. join ordering — dynamic programming over connected subsets when
//      statistics are available for every referenced table and the query is
//      small enough; greedy expansion for large queries; when statistics are
//      missing, join reordering is DISABLED and the syntactic (FROM-clause)
//      order is used, exactly the degradation Section 2.1 describes;
//   2. physical operator selection — hash / merge / broadcast joins,
//      hash / sort aggregation, partial aggregation, spool reuse, filter
//      placement — all governed by the six steering flags of `flags.h`;
//   3. exchange placement at every co-partitioning boundary;
//   4. cardinality annotation (estimated + true faces).
//
// The Lero-style knob `PlannerKnobs::card_scale` biases the estimated
// cardinality of every >= 3-input subquery, perturbing the join-order search.
#ifndef LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_
#define LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_

#include <cstdint>

#include "warehouse/cardinality.h"
#include "warehouse/catalog.h"
#include "warehouse/flags.h"
#include "warehouse/plan.h"
#include "warehouse/query.h"

namespace loam::warehouse {

struct NativeOptimizerConfig {
  int dp_table_limit = 10;           // DP join ordering up to this many tables
  double broadcast_threshold = 2e5;  // max build-side rows for broadcast joins
  double sort_agg_ratio = 0.5;       // groups/input above which sort-agg wins
};

class NativeOptimizer {
 public:
  explicit NativeOptimizer(const Catalog& catalog,
                           NativeOptimizerConfig config = NativeOptimizerConfig());

  // Compiles and optimizes `query` under the given knob settings. The
  // returned plan is fully annotated (est_rows + true_rows) and staged
  // lazily by the executor. When `reads` is given it is reset and then
  // receives the knob fields this call consulted: every knob is read lazily,
  // at its point of use, so a field the plan does not depend on is never
  // recorded.
  Plan optimize(const Query& query, const PlannerKnobs& knobs = PlannerKnobs(),
                KnobReads* reads = nullptr) const;

  // The coarse cost the engine attaches to a plan from estimated
  // cardinalities; the plan explorer uses it to retain the top-k candidates
  // (Section 7.1: "top-5 candidates ... based on MaxCompute's rough cost
  // estimates").
  double rough_cost(const Plan& plan) const;

  // True whether join reordering is active for this query (all referenced
  // tables carry statistics).
  bool reordering_enabled(const Query& query) const;

  const Catalog& catalog() const { return catalog_; }

 private:
  // In-memory join tree produced by the ordering phase.
  struct JoinTreeNode {
    int table_pos = -1;  // leaf: position in query.tables
    int left = -1;
    int right = -1;
    int edge = -1;              // index into query.joins (internal nodes)
    std::uint32_t mask = 0;     // participating table positions
  };
  struct JoinTree {
    std::vector<JoinTreeNode> nodes;
    int root = -1;
  };

  // The only access optimize() and build_physical() have to the flag and
  // reorder knobs; each read is recorded in the caller's read-set, if any.
  // (card_scale is recorded by CardEstimator::subset_rows, where it applies.)
  class KnobView {
   public:
    KnobView(const PlannerKnobs& knobs, KnobReads* reads)
        : knobs_(knobs), reads_(reads) {}
    bool flag(Flag f) const {
      if (reads_ != nullptr) reads_->flags |= 1ull << static_cast<int>(f);
      return knobs_.flags.test(f);
    }
    bool force_reorder() const {
      if (reads_ != nullptr) reads_->force_reorder = true;
      return knobs_.force_reorder;
    }

   private:
    const PlannerKnobs& knobs_;
    KnobReads* reads_;
  };

  JoinTree order_dp(const Query& query, const CardEstimator& cards) const;
  JoinTree order_greedy(const Query& query, const CardEstimator& cards) const;
  JoinTree order_syntactic(const Query& query) const;

  Plan build_physical(const Query& query, const JoinTree& tree,
                      const KnobView& knobs, const CardEstimator& cards) const;

  const Catalog& catalog_;
  NativeOptimizerConfig config_;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_NATIVE_OPTIMIZER_H_
