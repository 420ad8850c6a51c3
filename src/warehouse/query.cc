#include "warehouse/query.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "util/hash.h"
#include "warehouse/catalog.h"

namespace loam::warehouse {

const char* join_form_name(JoinForm f) {
  switch (f) {
    case JoinForm::kInner: return "inner";
    case JoinForm::kLeft: return "left";
    case JoinForm::kRight: return "right";
    case JoinForm::kFullOuter: return "full";
    default: return "?";
  }
}

const char* agg_fn_name(AggFn f) {
  switch (f) {
    case AggFn::kSum: return "SUM";
    case AggFn::kCount_: return "COUNT";
    case AggFn::kAvg: return "AVG";
    case AggFn::kMin: return "MIN";
    case AggFn::kMax: return "MAX";
    default: return "?";
  }
}

const char* filter_fn_name(FilterFn f) {
  switch (f) {
    case FilterFn::kEq: return "=";
    case FilterFn::kNe: return "!=";
    case FilterFn::kLt: return "<";
    case FilterFn::kLe: return "<=";
    case FilterFn::kGt: return ">";
    case FilterFn::kGe: return ">=";
    case FilterFn::kLike: return "LIKE";
    case FilterFn::kIn: return "IN";
    default: return "?";
  }
}

namespace {

// Order-sensitive combinator: lists hash by position, not as sets.
std::uint64_t sig_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ (v * 0x9e3779b97f4a7c15ull) ^ 0x7f4a7c15ull);
}

std::uint64_t sig_int(std::uint64_t h, int v) {
  return sig_combine(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
}

}  // namespace

std::uint64_t Query::signature() const {
  // Every list is prefixed by its length, so fields cannot shift into each
  // other's positions.
  std::uint64_t h = sig_combine(0x9e1e5157ull, tables.size());
  for (int t : tables) h = sig_int(h, t);
  h = sig_combine(h, joins.size());
  for (const JoinEdge& j : joins) {
    h = sig_int(h, j.left_table);
    h = sig_int(h, j.right_table);
    h = sig_int(h, j.left_column);
    h = sig_int(h, j.right_column);
    h = sig_combine(h, static_cast<std::uint64_t>(j.form));
  }
  h = sig_combine(h, predicates.size());
  for (const Predicate& p : predicates) {
    h = sig_int(h, p.table_id);
    h = sig_int(h, p.column);
    h = sig_combine(h, p.fns.size());
    for (FilterFn f : p.fns) h = sig_combine(h, static_cast<std::uint64_t>(f));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &p.selectivity, sizeof(bits));
    h = sig_combine(h, bits);
  }
  h = sig_combine(h, aggregation.has_value() ? 1 : 0);
  if (aggregation) {
    h = sig_combine(h, static_cast<std::uint64_t>(aggregation->fn));
    h = sig_int(h, aggregation->table_id);
    h = sig_int(h, aggregation->column);
    h = sig_combine(h, aggregation->group_by.size());
    for (auto [t, c] : aggregation->group_by) {
      h = sig_int(h, t);
      h = sig_int(h, c);
    }
  }
  return h;
}

int Query::table_position(int table_id) const {
  auto it = std::find(tables.begin(), tables.end(), table_id);
  return it == tables.end() ? -1 : static_cast<int>(it - tables.begin());
}

std::vector<const Predicate*> Query::predicates_on(int table_id) const {
  std::vector<const Predicate*> out;
  for (const Predicate& p : predicates) {
    if (p.table_id == table_id) out.push_back(&p);
  }
  return out;
}

bool Query::joins_connected() const {
  if (tables.size() <= 1) return true;
  // Union-find over table positions.
  std::vector<int> parent(tables.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      x = parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    }
    return x;
  };
  for (const JoinEdge& j : joins) {
    const int a = table_position(j.left_table);
    const int b = table_position(j.right_table);
    if (a < 0 || b < 0) return false;
    parent[static_cast<std::size_t>(find(a))] = find(b);
  }
  const int root = find(0);
  for (std::size_t i = 1; i < parent.size(); ++i) {
    if (find(static_cast<int>(i)) != root) return false;
  }
  return true;
}

std::string Query::to_sql(const Catalog& catalog) const {
  std::ostringstream out;
  auto col = [&catalog](int table, int column) {
    return catalog.column_identifier(table, column);
  };
  out << "SELECT ";
  if (aggregation) {
    const Aggregation& a = *aggregation;
    for (auto [t, c] : a.group_by) out << col(t, c) << ", ";
    out << agg_fn_name(a.fn) << "(" << col(a.table_id, a.column) << ")";
  } else {
    out << "*";
  }
  out << "\nFROM ";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    out << (i ? ", " : "") << catalog.table(tables[i]).name;
  }
  bool first = true;
  auto conj = [&out, &first]() -> std::ostream& {
    out << (first ? "\nWHERE " : "\n  AND ");
    first = false;
    return out;
  };
  for (const JoinEdge& j : joins) {
    conj() << col(j.left_table, j.left_column) << " = "
           << col(j.right_table, j.right_column);
    if (j.form != JoinForm::kInner) {
      out << " /* " << join_form_name(j.form) << " join */";
    }
  }
  int param = 1;
  for (const Predicate& p : predicates) {
    conj();
    if (p.fns.size() == 1) {
      out << col(p.table_id, p.column) << " " << filter_fn_name(p.fns[0]) << " ?"
          << param++;
    } else {
      for (std::size_t f = 0; f < p.fns.size(); ++f) {
        if (f) out << " AND ";
        out << col(p.table_id, p.column) << " " << filter_fn_name(p.fns[f])
            << " ?" << param++;
      }
    }
  }
  if (aggregation && !aggregation->group_by.empty()) {
    out << "\nGROUP BY ";
    for (std::size_t g = 0; g < aggregation->group_by.size(); ++g) {
      auto [t, c] = aggregation->group_by[g];
      out << (g ? ", " : "") << col(t, c);
    }
  }
  out << ";";
  return out.str();
}

std::string Query::to_string() const {
  std::ostringstream out;
  out << "Query[" << template_id << "#" << param_signature << "] tables={";
  for (std::size_t i = 0; i < tables.size(); ++i) {
    out << (i ? "," : "") << tables[i];
  }
  out << "} joins=" << joins.size() << " preds=" << predicates.size();
  if (aggregation) out << " agg=" << agg_fn_name(aggregation->fn);
  return out.str();
}

}  // namespace loam::warehouse
