#include "warehouse/native_optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <stdexcept>

namespace loam::warehouse {

namespace {

// Relative per-row cost weights of the engine's rough cost model.
double op_unit_cost(OpType op) {
  switch (op) {
    case OpType::kTableScan: return 1.0;
    case OpType::kSpoolRead: return 0.3;
    case OpType::kSpoolWrite: return 0.8;
    case OpType::kFilter: return 0.2;
    case OpType::kCalc: return 0.3;
    case OpType::kProject: return 0.1;
    case OpType::kHashJoin: return 2.0;
    case OpType::kMergeJoin: return 1.4;
    case OpType::kBroadcastHashJoin: return 1.6;
    case OpType::kNestedLoopJoin: return 12.0;
    case OpType::kHashAggregate: return 1.6;
    case OpType::kSortAggregate: return 1.2;
    case OpType::kLocalHashAggregate: return 0.9;
    case OpType::kSort: return 2.2;
    case OpType::kExchange: return 1.3;
    case OpType::kBroadcastExchange: return 2.2;
    case OpType::kLocalExchange: return 0.4;
    case OpType::kLimit: return 0.05;
    case OpType::kTopN: return 0.4;
    case OpType::kSink: return 0.05;
    default: return 0.5;
  }
}

int popcount(std::uint32_t x) { return std::popcount(x); }

}  // namespace

NativeOptimizer::NativeOptimizer(const Catalog& catalog, NativeOptimizerConfig config)
    : catalog_(catalog), config_(config) {}

bool NativeOptimizer::reordering_enabled(const Query& query) const {
  // Join reordering relies on per-table statistics; with any of them missing
  // the transformation rule is disabled (Section 2.1).
  for (int t : query.tables) {
    if (!catalog_.stats(t).available) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Join ordering
// ---------------------------------------------------------------------------

namespace {

struct JoinGraph {
  int n = 0;
  std::vector<std::uint32_t> adj;           // adjacency mask per position
  std::vector<std::pair<int, int>> edges;   // edge -> (pos_a, pos_b)

  explicit JoinGraph(const Query& query) {
    n = static_cast<int>(query.tables.size());
    adj.assign(static_cast<std::size_t>(n), 0);
    for (const JoinEdge& j : query.joins) {
      const int a = query.table_position(j.left_table);
      const int b = query.table_position(j.right_table);
      edges.emplace_back(a, b);
      if (a >= 0 && b >= 0) {
        adj[static_cast<std::size_t>(a)] |= (1u << b);
        adj[static_cast<std::size_t>(b)] |= (1u << a);
      }
    }
  }

  bool connected(std::uint32_t mask) const {
    if (mask == 0) return false;
    const std::uint32_t start = mask & (~mask + 1);
    std::uint32_t seen = start;
    std::uint32_t frontier = start;
    while (frontier != 0) {
      std::uint32_t next = 0;
      for (int i = 0; i < n; ++i) {
        if (frontier & (1u << i)) next |= adj[static_cast<std::size_t>(i)] & mask;
      }
      next &= ~seen;
      seen |= next;
      frontier = next;
    }
    return seen == mask;
  }

  // First edge with one endpoint in `a` and the other in `b`; -1 if none.
  int crossing_edge(std::uint32_t a, std::uint32_t b) const {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [x, y] = edges[e];
      if (x < 0 || y < 0) continue;
      const std::uint32_t bx = 1u << x, by = 1u << y;
      if (((a & bx) && (b & by)) || ((a & by) && (b & bx))) {
        return static_cast<int>(e);
      }
    }
    return -1;
  }
};

}  // namespace

NativeOptimizer::JoinTree NativeOptimizer::order_dp(const Query& query,
                                                    const CardEstimator& cards) const {
  const int n = static_cast<int>(query.tables.size());
  const JoinGraph graph(query);
  const std::uint32_t full = n >= 32 ? 0xffffffffu : (1u << n) - 1;

  JoinTree tree;
  std::vector<double> rows(static_cast<std::size_t>(full) + 1, -1.0);
  auto subset_rows = [&](std::uint32_t mask) {
    double& r = rows[mask];
    if (r < 0.0) r = cards.subset_rows(mask, /*truth=*/false);
    return r;
  };

  std::vector<double> best_cost(static_cast<std::size_t>(full) + 1,
                                std::numeric_limits<double>::infinity());
  std::vector<int> best_node(static_cast<std::size_t>(full) + 1, -1);

  for (int i = 0; i < n; ++i) {
    const std::uint32_t m = 1u << i;
    tree.nodes.push_back({i, -1, -1, -1, m});
    best_node[m] = static_cast<int>(tree.nodes.size()) - 1;
    best_cost[m] = subset_rows(m);  // scan cost
  }

  // Enumerate masks by population count so children are ready.
  std::vector<std::uint32_t> masks;
  for (std::uint32_t m = 1; m <= full; ++m) {
    if (popcount(m) >= 2) masks.push_back(m);
  }
  std::sort(masks.begin(), masks.end(), [](std::uint32_t a, std::uint32_t b) {
    const int pa = popcount(a), pb = popcount(b);
    return pa != pb ? pa < pb : a < b;
  });

  for (std::uint32_t mask : masks) {
    if (!graph.connected(mask)) continue;
    int chosen_sub = -1, chosen_edge = -1;
    double chosen_cost = std::numeric_limits<double>::infinity();
    for (std::uint32_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      const std::uint32_t rest = mask ^ sub;
      if (sub < rest) continue;  // each unordered split once
      if (best_node[sub] < 0 || best_node[rest] < 0) continue;
      const int edge = graph.crossing_edge(sub, rest);
      if (edge < 0) continue;
      const double join_cost =
          subset_rows(sub) + subset_rows(rest) + subset_rows(mask);
      const double cost = best_cost[sub] + best_cost[rest] + join_cost;
      if (cost < chosen_cost) {
        chosen_cost = cost;
        chosen_sub = static_cast<int>(sub);
        chosen_edge = edge;
      }
    }
    if (chosen_sub < 0) continue;
    const std::uint32_t sub = static_cast<std::uint32_t>(chosen_sub);
    tree.nodes.push_back({-1, best_node[sub], best_node[mask ^ sub], chosen_edge, mask});
    best_node[mask] = static_cast<int>(tree.nodes.size()) - 1;
    best_cost[mask] = chosen_cost;
  }

  if (best_node[full] < 0) {
    throw std::runtime_error("DP join ordering failed: join graph not connected");
  }
  tree.root = best_node[full];
  return tree;
}

NativeOptimizer::JoinTree NativeOptimizer::order_greedy(
    const Query& query, const CardEstimator& cards) const {
  const int n = static_cast<int>(query.tables.size());
  const JoinGraph graph(query);
  JoinTree tree;

  // Start from the smallest filtered table.
  int start = 0;
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    const double r = cards.subset_rows(1u << i, false);
    if (r < best) {
      best = r;
      start = i;
    }
  }
  tree.nodes.push_back({start, -1, -1, -1, 1u << start});
  int current = 0;
  std::uint32_t mask = 1u << start;

  while (popcount(mask) < n) {
    int pick = -1;
    double pick_rows = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const std::uint32_t bit = 1u << i;
      if (mask & bit) continue;
      if (graph.crossing_edge(mask, bit) < 0) continue;
      const double r = cards.subset_rows(mask | bit, false);
      if (r < pick_rows) {
        pick_rows = r;
        pick = i;
      }
    }
    if (pick < 0) throw std::runtime_error("greedy ordering: join graph disconnected");
    const std::uint32_t bit = 1u << pick;
    tree.nodes.push_back({pick, -1, -1, -1, bit});
    const int leaf = static_cast<int>(tree.nodes.size()) - 1;
    const int edge = graph.crossing_edge(mask, bit);
    tree.nodes.push_back({-1, current, leaf, edge, mask | bit});
    current = static_cast<int>(tree.nodes.size()) - 1;
    mask |= bit;
  }
  tree.root = current;
  return tree;
}

NativeOptimizer::JoinTree NativeOptimizer::order_syntactic(const Query& query) const {
  const int n = static_cast<int>(query.tables.size());
  const JoinGraph graph(query);
  JoinTree tree;
  tree.nodes.push_back({0, -1, -1, -1, 1u});
  int current = 0;
  std::uint32_t mask = 1u;
  while (popcount(mask) < n) {
    // First FROM-order table that connects to the prefix.
    int pick = -1;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t bit = 1u << i;
      if (mask & bit) continue;
      if (graph.crossing_edge(mask, bit) >= 0) {
        pick = i;
        break;
      }
    }
    if (pick < 0) throw std::runtime_error("syntactic ordering: disconnected joins");
    const std::uint32_t bit = 1u << pick;
    tree.nodes.push_back({pick, -1, -1, -1, bit});
    const int leaf = static_cast<int>(tree.nodes.size()) - 1;
    const int edge = graph.crossing_edge(mask, bit);
    tree.nodes.push_back({-1, current, leaf, edge, mask | bit});
    current = static_cast<int>(tree.nodes.size()) - 1;
    mask |= bit;
  }
  tree.root = current;
  return tree;
}

// ---------------------------------------------------------------------------
// Physical plan construction
// ---------------------------------------------------------------------------

Plan NativeOptimizer::build_physical(const Query& query, const JoinTree& tree,
                                     const KnobView& view,
                                     const CardEstimator& cards) const {
  Plan plan;

  // Columns each table contributes to the query (for columns_accessed).
  auto columns_used = [&](int table_id) {
    std::set<int> cols;
    for (const Predicate& p : query.predicates) {
      if (p.table_id == table_id) cols.insert(p.column);
    }
    for (const JoinEdge& j : query.joins) {
      if (j.left_table == table_id) cols.insert(j.left_column);
      if (j.right_table == table_id) cols.insert(j.right_column);
    }
    if (query.aggregation) {
      if (query.aggregation->table_id == table_id) cols.insert(query.aggregation->column);
      for (auto [t, c] : query.aggregation->group_by) {
        if (t == table_id) cols.insert(c);
      }
    }
    return static_cast<int>(std::max<std::size_t>(1, cols.size()));
  };

  std::set<int> scanned_tables;  // for spool reuse

  // Builds the access path for one base table (scan [+ pushed-down Calc]).
  auto build_leaf = [&](int table_pos) -> int {
    const int table_id = query.tables.at(static_cast<std::size_t>(table_pos));
    const Table& t = catalog_.table(table_id);

    PlanNode scan;
    // Spool reuse keys on the underlying storage, so a snapshot alias of an
    // already-scanned table also qualifies.
    const int storage_id = t.alias_of >= 0 ? t.alias_of : table_id;
    const bool reuse =
        scanned_tables.contains(storage_id) && view.flag(Flag::kSpoolReuse);
    scan.op = reuse ? OpType::kSpoolRead : OpType::kTableScan;
    scanned_tables.insert(storage_id);
    scan.table_id = table_id;
    scan.schema_epoch = t.schema_epoch;
    double prune = 1.0;
    for (const Predicate& p : query.predicates) {
      if (p.table_id == table_id && p.column == 0) {
        prune *= std::clamp(p.selectivity, 1e-9, 1.0);
      }
    }
    scan.partitions_accessed =
        std::max(1, static_cast<int>(std::ceil(t.num_partitions * prune)));
    scan.columns_accessed = columns_used(table_id);
    scan.row_width = t.row_width;
    int node = plan.add_node(scan);

    // With pushdown, residual predicates fuse into a Calc right above the
    // scan; the flag matters only to a table that has some.
    auto residual_here = [&](const Predicate& p) {
      return p.table_id == table_id && p.column != 0;
    };
    if (std::any_of(query.predicates.begin(), query.predicates.end(), residual_here) &&
        view.flag(Flag::kAggressiveFilterPushdown)) {
      PlanNode calc;
      calc.op = OpType::kCalc;
      calc.left = node;
      calc.table_id = table_id;
      for (std::size_t i = 0; i < query.predicates.size(); ++i) {
        const Predicate& p = query.predicates[i];
        if (!residual_here(p)) continue;
        calc.filter_preds.push_back(static_cast<int>(i));
        for (FilterFn fn : p.fns) calc.filter_fns.push_back(fn);
        calc.filter_columns.push_back(catalog_.column_identifier(p.table_id, p.column));
      }
      node = plan.add_node(calc);
    }
    return node;
  };

  auto add_exchange = [&](int input, OpType kind) {
    PlanNode ex;
    ex.op = kind;
    ex.left = input;
    return plan.add_node(ex);
  };

  // Recursive construction over the join tree.
  std::function<int(int)> build = [&](int jt_id) -> int {
    const JoinTreeNode& jt = tree.nodes.at(static_cast<std::size_t>(jt_id));
    if (jt.table_pos >= 0) return build_leaf(jt.table_pos);

    int left = build(jt.left);
    int right = build(jt.right);
    const double left_rows =
        cards.subset_rows(tree.nodes[static_cast<std::size_t>(jt.left)].mask, false);
    const double right_rows =
        cards.subset_rows(tree.nodes[static_cast<std::size_t>(jt.right)].mask, false);

    const JoinEdge& edge = query.joins.at(static_cast<std::size_t>(jt.edge));
    PlanNode join;
    join.join_edge = jt.edge;
    join.join_form = edge.form;
    join.join_columns = {
        catalog_.column_identifier(edge.left_table, edge.left_column),
        catalog_.column_identifier(edge.right_table, edge.right_column)};

    const double small = std::min(left_rows, right_rows);
    // Broadcasting a misestimated build side is catastrophic (the replica
    // volume scales with the consumer's parallelism), so like production
    // engines we only allow it when every table below the build side carries
    // collected statistics.
    const std::uint32_t build_mask =
        left_rows < right_rows ? tree.nodes[static_cast<std::size_t>(jt.left)].mask
                               : tree.nodes[static_cast<std::size_t>(jt.right)].mask;
    bool build_stats_ok = true;
    for (std::size_t i = 0; i < query.tables.size(); ++i) {
      if ((build_mask & (1u << i)) &&
          !catalog_.stats(query.tables[i]).available) {
        build_stats_ok = false;
        break;
      }
    }
    const bool broadcast = build_stats_ok && small <= config_.broadcast_threshold &&
                           edge.form == JoinForm::kInner &&
                           view.flag(Flag::kEnableBroadcastJoin);

    if (broadcast) {
      // Replicate the small side; the big side keeps its partitioning.
      join.op = OpType::kBroadcastHashJoin;
      if (left_rows < right_rows) std::swap(left, right);
      right = add_exchange(right, OpType::kBroadcastExchange);
    } else if (view.flag(Flag::kMergeJoinForSorted) &&
               !view.flag(Flag::kPreferHashJoin)) {
      join.op = OpType::kMergeJoin;
      left = add_exchange(left, OpType::kExchange);
      right = add_exchange(right, OpType::kExchange);
      PlanNode sl;
      sl.op = OpType::kSort;
      sl.left = left;
      left = plan.add_node(sl);
      PlanNode sr;
      sr.op = OpType::kSort;
      sr.left = right;
      right = plan.add_node(sr);
    } else {
      join.op = OpType::kHashJoin;
      // Build side (smaller input) goes right.
      if (left_rows < right_rows) std::swap(left, right);
      left = add_exchange(left, OpType::kExchange);
      right = add_exchange(right, OpType::kExchange);
    }
    join.left = left;
    join.right = right;
    return plan.add_node(join);
  };

  int node = build(tree.root);

  // Without pushdown, all residual predicates evaluate late, above the final
  // join.
  auto residual = [](const Predicate& p) { return p.column != 0; };
  if (std::any_of(query.predicates.begin(), query.predicates.end(), residual) &&
      !view.flag(Flag::kAggressiveFilterPushdown)) {
    PlanNode filter;
    filter.op = OpType::kFilter;
    filter.left = node;
    for (std::size_t i = 0; i < query.predicates.size(); ++i) {
      const Predicate& p = query.predicates[i];
      if (!residual(p)) continue;
      filter.filter_preds.push_back(static_cast<int>(i));
      for (FilterFn fn : p.fns) filter.filter_fns.push_back(fn);
      filter.filter_columns.push_back(catalog_.column_identifier(p.table_id, p.column));
    }
    node = plan.add_node(filter);
  }

  if (query.aggregation) {
    const Aggregation& agg = query.aggregation.value();
    auto fill_agg = [&](PlanNode& a) {
      a.agg_fn = agg.fn;
      a.agg_columns = {catalog_.column_identifier(agg.table_id, agg.column)};
      for (auto [t, c] : agg.group_by) {
        a.group_by_columns.push_back(catalog_.column_identifier(t, c));
      }
    };
    if (!agg.group_by.empty() && view.flag(Flag::kPartialAggregation)) {
      PlanNode partial;
      partial.op = OpType::kLocalHashAggregate;
      partial.left = node;
      fill_agg(partial);
      node = plan.add_node(partial);
    }
    if (!agg.group_by.empty()) node = add_exchange(node, OpType::kExchange);
    const double in_rows = cards.subset_rows(
        (query.tables.size() >= 32) ? 0xffffffffu
                                    : (1u << query.tables.size()) - 1,
        false);
    const double groups = cards.aggregate_rows(agg, in_rows, false);
    PlanNode final_agg;
    final_agg.op = (groups > config_.sort_agg_ratio * in_rows && in_rows > 1.0)
                       ? OpType::kSortAggregate
                       : OpType::kHashAggregate;
    if (final_agg.op == OpType::kSortAggregate) {
      PlanNode sort;
      sort.op = OpType::kSort;
      sort.left = node;
      node = plan.add_node(sort);
    }
    final_agg.left = node;
    fill_agg(final_agg);
    node = plan.add_node(final_agg);
  }

  PlanNode project;
  project.op = OpType::kProject;
  project.left = node;
  node = plan.add_node(project);
  PlanNode sink;
  sink.op = OpType::kSink;
  sink.left = node;
  plan.set_root(plan.add_node(sink));
  return plan;
}

Plan NativeOptimizer::optimize(const Query& query, const PlannerKnobs& knobs,
                               KnobReads* reads) const {
  if (query.tables.empty()) throw std::invalid_argument("query has no tables");
  if (reads != nullptr) *reads = KnobReads{};
  const KnobView view(knobs, reads);
  CardEstimator cards(catalog_, query, knobs.card_scale, reads);

  JoinTree tree;
  if (query.tables.size() == 1) {
    tree.nodes.push_back({0, -1, -1, -1, 1u});
    tree.root = 0;
  } else if (!(reordering_enabled(query) || view.force_reorder())) {
    tree = order_syntactic(query);
  } else if (static_cast<int>(query.tables.size()) <= config_.dp_table_limit) {
    tree = order_dp(query, cards);
  } else {
    tree = order_greedy(query, cards);
  }

  Plan plan = build_physical(query, tree, view, cards);
  cards.annotate(plan);
  return plan;
}

double NativeOptimizer::rough_cost(const Plan& plan) const {
  double cost = 0.0;
  for (const PlanNode& n : plan.nodes()) {
    double in_rows = 0.0;
    if (n.left >= 0) in_rows += plan.node(n.left).est_rows;
    if (n.right >= 0) in_rows += plan.node(n.right).est_rows;
    cost += op_unit_cost(n.op) * (in_rows + n.est_rows);
  }
  return cost;
}

}  // namespace loam::warehouse
