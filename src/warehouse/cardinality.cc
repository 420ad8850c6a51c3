#include "warehouse/cardinality.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"

namespace loam::warehouse {

namespace {

// Default selectivities the optimizer assumes when statistics are missing —
// deliberately coarse, mirroring metadata-driven fallbacks.
double default_selectivity(FilterFn fn) {
  switch (fn) {
    case FilterFn::kEq: return 0.05;
    case FilterFn::kNe: return 0.95;
    case FilterFn::kLt:
    case FilterFn::kLe:
    case FilterFn::kGt:
    case FilterFn::kGe: return 0.33;
    case FilterFn::kLike: return 0.10;
    case FilterFn::kIn: return 0.15;
    default: return 0.5;
  }
}

}  // namespace

CardEstimator::CardEstimator(const Catalog& catalog, const Query& query,
                             double card_scale, KnobReads* reads)
    : catalog_(catalog), query_(query), card_scale_(card_scale), reads_(reads) {}

double CardEstimator::base_rows(int table_id, bool truth) const {
  const Table& t = catalog_.table(table_id);
  if (truth) return static_cast<double>(t.row_count);
  const TableStats& s = catalog_.stats(table_id);
  // With or without collected statistics the optimizer knows *some* row
  // count: fresh when statistics are maintained, a stale metadata snapshot
  // otherwise.
  return static_cast<double>(std::max<long long>(1, s.observed_rows));
}

double CardEstimator::ndv(int table_id, int column, bool truth) const {
  const Table& t = catalog_.table(table_id);
  const double true_ndv =
      static_cast<double>(t.columns.at(static_cast<std::size_t>(column)).ndv);
  if (truth) return std::max(1.0, true_ndv);
  const TableStats& s = catalog_.stats(table_id);
  if (s.available) return std::max(1.0, true_ndv * s.ndv_drift);
  // No statistics: guess NDV from the observed row count with a sublinear
  // heuristic (many real engines guess sqrt- or power-law NDVs).
  return std::max(1.0, std::pow(base_rows(table_id, false), 0.7));
}

double CardEstimator::pred_selectivity(const Predicate& pred, bool truth) const {
  if (truth) return std::clamp(pred.selectivity, 1e-9, 1.0);
  const TableStats& s = catalog_.stats(pred.table_id);
  if (s.available) {
    // Histogram-backed estimate: right order of magnitude, mild drift.
    const double drift = 0.7 + 0.6 * (0.5 + 0.5 * std::sin(static_cast<double>(
                                                     mix64(pred.param_seed())) *
                                                 1e-19));
    return std::clamp(pred.selectivity * drift, 1e-9, 1.0);
  }
  double sel = 1.0;
  for (FilterFn fn : pred.fns) sel *= default_selectivity(fn);
  return std::clamp(sel, 1e-9, 1.0);
}

double CardEstimator::scan_rows(int table_id, bool truth) const {
  double rows = base_rows(table_id, truth);
  // Partition pruning: predicates on the partition column (column 0) reduce
  // the partitions actually read; engines can do this from metadata alone, so
  // even the estimated face applies the true pruning fraction.
  for (const Predicate& p : query_.predicates) {
    if (p.table_id == table_id && p.column == 0) {
      rows *= std::clamp(p.selectivity, 1e-9, 1.0);
    }
  }
  return std::max(1.0, rows);
}

double CardEstimator::residual_filter_selectivity(int table_id, bool truth) const {
  double sel = 1.0;
  for (const Predicate& p : query_.predicates) {
    if (p.table_id == table_id && p.column != 0) sel *= pred_selectivity(p, truth);
  }
  return std::clamp(sel, 1e-12, 1.0);
}

double CardEstimator::true_correlation(const JoinEdge& edge) const {
  // Deterministic pseudo-random factor keyed by the joined columns: a latent
  // data property unknown to the optimizer but stable across recurring
  // queries. Log-uniform in about [0.35, 2.8].
  const std::string key = catalog_.column_identifier(edge.left_table, edge.left_column) +
                          "|" +
                          catalog_.column_identifier(edge.right_table, edge.right_column);
  const double u =
      static_cast<double>(hash64(key, 77) % 1000003ull) / 1000003.0;  // [0,1)
  return std::exp((u - 0.5) * 1.2);
}

double CardEstimator::join_selectivity(const JoinEdge& edge, bool truth) const {
  const double ndv_l = ndv(edge.left_table, edge.left_column, truth);
  const double ndv_r = ndv(edge.right_table, edge.right_column, truth);
  double sel = 1.0 / std::max(ndv_l, ndv_r);
  if (truth) sel *= true_correlation(edge);
  return std::clamp(sel, 1e-15, 1.0);
}

double CardEstimator::subset_rows(std::uint32_t mask, bool truth) const {
  double rows = 1.0;
  int count = 0;
  for (std::size_t i = 0; i < query_.tables.size(); ++i) {
    if (!(mask & (1u << i))) continue;
    ++count;
    const int t = query_.tables[i];
    rows *= scan_rows(t, truth) * residual_filter_selectivity(t, truth);
  }
  if (count == 0) return 0.0;
  for (const JoinEdge& j : query_.joins) {
    const int a = query_.table_position(j.left_table);
    const int b = query_.table_position(j.right_table);
    if (a < 0 || b < 0) continue;
    if ((mask & (1u << a)) && (mask & (1u << b))) {
      rows *= join_selectivity(j, truth);
    }
  }
  if (!truth && count >= 3) {
    if (reads_ != nullptr) reads_->card_scale = true;
    rows *= card_scale_;
  }
  return std::max(1.0, rows);
}

double CardEstimator::aggregate_rows(const Aggregation& agg, double input_rows,
                                     bool truth) const {
  if (agg.group_by.empty()) return 1.0;
  double groups = 1.0;
  for (auto [t, c] : agg.group_by) groups *= ndv(t, c, truth);
  // Group count cannot exceed the input and distinct combinations saturate.
  return std::max(1.0, std::min(groups, input_rows));
}

void CardEstimator::annotate(Plan& plan) const {
  for (int id : plan.postorder()) {
    PlanNode& n = plan.mutable_node(id);
    const PlanNode* l = n.left >= 0 ? &plan.node(n.left) : nullptr;
    const PlanNode* r = n.right >= 0 ? &plan.node(n.right) : nullptr;
    auto set_both = [&n](double est, double truth) {
      n.est_rows = std::max(1.0, est);
      n.true_rows = std::max(1.0, truth);
    };
    switch (n.op) {
      case OpType::kTableScan:
      case OpType::kSpoolRead:
        set_both(scan_rows(n.table_id, false), scan_rows(n.table_id, true));
        break;
      case OpType::kFilter:
      case OpType::kCalc: {
        double est_sel = 1.0, true_sel = 1.0;
        for (int pi : n.filter_preds) {
          const Predicate& p = query_.predicates.at(static_cast<std::size_t>(pi));
          est_sel *= pred_selectivity(p, false);
          true_sel *= pred_selectivity(p, true);
        }
        set_both(l->est_rows * est_sel, l->true_rows * true_sel);
        break;
      }
      case OpType::kHashJoin:
      case OpType::kMergeJoin:
      case OpType::kNestedLoopJoin:
      case OpType::kBroadcastHashJoin: {
        const JoinEdge& e = query_.joins.at(static_cast<std::size_t>(n.join_edge));
        double est = l->est_rows * r->est_rows * join_selectivity(e, false);
        double truth = l->true_rows * r->true_rows * join_selectivity(e, true);
        // Outer joins emit at least the preserved side.
        if (e.form == JoinForm::kLeft || e.form == JoinForm::kFullOuter) {
          est = std::max(est, l->est_rows);
          truth = std::max(truth, l->true_rows);
        }
        if (e.form == JoinForm::kRight || e.form == JoinForm::kFullOuter) {
          est = std::max(est, r->est_rows);
          truth = std::max(truth, r->true_rows);
        }
        set_both(est, truth);
        break;
      }
      case OpType::kHashAggregate:
      case OpType::kSortAggregate:
        if (query_.aggregation) {
          set_both(aggregate_rows(*query_.aggregation, l->est_rows, false),
                   aggregate_rows(*query_.aggregation, l->true_rows, true));
        } else {
          set_both(l->est_rows, l->true_rows);
        }
        break;
      case OpType::kLocalHashAggregate:
        if (query_.aggregation) {
          // Partial aggregation reduces each instance's input but cannot go
          // below the global group count.
          set_both(
              std::max(aggregate_rows(*query_.aggregation, l->est_rows, false),
                       l->est_rows * 0.1),
              std::max(aggregate_rows(*query_.aggregation, l->true_rows, true),
                       l->true_rows * 0.1));
        } else {
          set_both(l->est_rows, l->true_rows);
        }
        break;
      case OpType::kLimit:
      case OpType::kTopN:
        set_both(std::min(l->est_rows, 1000.0), std::min(l->true_rows, 1000.0));
        break;
      default:
        // Pass-through operators (Exchange, Sort, Project, Sink, ...).
        if (l != nullptr) {
          set_both(l->est_rows, l->true_rows);
        } else {
          set_both(1.0, 1.0);
        }
        break;
    }
    if (l != nullptr) n.row_width = l->row_width;
  }
}

}  // namespace loam::warehouse
