// Logical query model: join-graph queries with predicates and an optional
// aggregation, produced by parameterized templates (the pervasive workload
// pattern in MaxCompute production — Section 4).
#ifndef LOAM_WAREHOUSE_QUERY_H_
#define LOAM_WAREHOUSE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace loam::warehouse {

enum class JoinForm : std::uint8_t { kInner = 0, kLeft, kRight, kFullOuter, kCount };
enum class AggFn : std::uint8_t { kSum = 0, kCount_, kAvg, kMin, kMax, kNumFns };
enum class FilterFn : std::uint8_t {
  kEq = 0, kNe, kLt, kLe, kGt, kGe, kLike, kIn, kNumFns,
};

const char* join_form_name(JoinForm f);
const char* agg_fn_name(AggFn f);
const char* filter_fn_name(FilterFn f);

// A conjunctive predicate on one column. `selectivity` is the TRUE fraction
// of rows passing under the instantiated parameter; it is derived by the
// workload generator from the column's value distribution and is consumed
// only by the execution simulator — optimizers never read it directly.
struct Predicate {
  int table_id = -1;
  int column = -1;
  std::vector<FilterFn> fns;
  double selectivity = 1.0;

  // Deterministic seed derived from the predicate's identity and parameter
  // binding; used to make statistics-backed estimation drift reproducible.
  std::uint64_t param_seed() const {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(selectivity));
    __builtin_memcpy(&bits, &selectivity, sizeof(bits));
    return bits ^ (static_cast<std::uint64_t>(table_id) << 32) ^
           static_cast<std::uint64_t>(column);
  }
};

// An equi-join edge between two base tables.
struct JoinEdge {
  int left_table = -1;
  int right_table = -1;
  int left_column = -1;
  int right_column = -1;
  JoinForm form = JoinForm::kInner;
};

struct Aggregation {
  AggFn fn = AggFn::kSum;
  int table_id = -1;
  int column = -1;
  // (table_id, column) pairs.
  std::vector<std::pair<int, int>> group_by;
};

struct Query {
  // Base tables in syntactic (FROM-clause) order; catalog ids.
  std::vector<int> tables;
  std::vector<JoinEdge> joins;
  std::vector<Predicate> predicates;
  std::optional<Aggregation> aggregation;

  // Provenance: which template produced this query and with which parameter
  // binding; identical (template_id, param_signature) pairs are reruns of the
  // same recurring query.
  std::string template_id;
  std::uint64_t param_signature = 0;
  int submit_day = 0;

  // Hash of every field the explorer and native optimizer read: tables,
  // joins, predicates (selectivity by exact bits) and the aggregation. The
  // provenance fields above are excluded — no optimizer reads them — so two
  // instantiations that plan identically share a signature. Keys serve's
  // explore memo (docs/CACHING.md).
  std::uint64_t signature() const;

  int table_position(int table_id) const;
  // Predicates applying to a given base table.
  std::vector<const Predicate*> predicates_on(int table_id) const;
  bool joins_connected() const;  // sanity: the join graph spans all tables
  std::string to_string() const;
  // Renders the query as the SQL statement a user would have submitted
  // (selectivities become placeholder bind parameters). Needs the catalog to
  // resolve table and column names.
  std::string to_sql(const class Catalog& catalog) const;
};

}  // namespace loam::warehouse

#endif  // LOAM_WAREHOUSE_QUERY_H_
