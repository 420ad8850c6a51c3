// Cardinality model with two faces:
//
//   * the TRUE face — derived from ground-truth table sizes, NDVs, the
//     instantiated predicate selectivities, and hidden per-join correlation
//     factors; consumed only by the execution simulator;
//   * the ESTIMATED face — what the native optimizer's cost model can
//     compute from the (possibly missing or stale) statistics view. When
//     statistics are missing it falls back to coarse metadata-driven
//     approximations (historical row counts, default selectivities), which
//     is precisely what makes default plans suboptimal (Section 2.1).
//
// The Lero-style scaled-cardinality knob multiplies the ESTIMATED output of
// every join subquery with >= 3 base inputs by `card_scale`, steering the
// join-order search without touching the truth.
#ifndef LOAM_WAREHOUSE_CARDINALITY_H_
#define LOAM_WAREHOUSE_CARDINALITY_H_

#include <cstdint>

#include "warehouse/catalog.h"
#include "warehouse/flags.h"
#include "warehouse/plan.h"
#include "warehouse/query.h"

namespace loam::warehouse {

class CardEstimator {
 public:
  // `reads`, when given, records a read of `card_scale` each time
  // subset_rows applies it (the native optimizer's knob read-set).
  CardEstimator(const Catalog& catalog, const Query& query, double card_scale = 1.0,
                KnobReads* reads = nullptr);

  // Rows produced by scanning `table_id` after partition pruning (predicates
  // on the table's partition column, by convention column 0).
  double scan_rows(int table_id, bool truth) const;
  // Combined selectivity of the non-partition predicates on a table.
  double residual_filter_selectivity(int table_id, bool truth) const;
  // Per-edge join selectivity: 1 / max(ndv_l, ndv_r), corrected by the hidden
  // correlation factor on the true face.
  double join_selectivity(const JoinEdge& edge, bool truth) const;
  // Cardinality of the join of the table subset given by `mask` (bit i set =
  // query.tables[i] participates), with all filters applied. Used by the
  // join-order search on the estimated face; `truth` gives the ground truth.
  // The only member that applies card_scale.
  double subset_rows(std::uint32_t mask, bool truth) const;

  // Output rows of a grouped aggregation over `input_rows`.
  double aggregate_rows(const Aggregation& agg, double input_rows, bool truth) const;

  // Walks the plan in post order and fills both est_rows and true_rows for
  // every node.
  void annotate(Plan& plan) const;

  // Hidden correlation factor of a join edge; deterministic in the joined
  // column identifiers so recurring joins behave consistently across queries
  // (which is what lets LOAM infer it from history). Exposed for tests.
  double true_correlation(const JoinEdge& edge) const;

  const Query& query() const { return query_; }

 private:
  double ndv(int table_id, int column, bool truth) const;
  double base_rows(int table_id, bool truth) const;
  double pred_selectivity(const Predicate& pred, bool truth) const;

  const Catalog& catalog_;
  const Query& query_;
  double card_scale_ = 1.0;
  KnobReads* reads_ = nullptr;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_CARDINALITY_H_
