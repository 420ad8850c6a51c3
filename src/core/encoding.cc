#include "core/encoding.h"

#include <algorithm>
#include <span>

#include "cache/cache.h"

namespace loam::core {

using warehouse::AggFn;
using warehouse::EnvFeatures;
using warehouse::FilterFn;
using warehouse::JoinForm;
using warehouse::OpType;
using warehouse::Plan;
using warehouse::PlanNode;

PlanEncoder::PlanEncoder(const warehouse::Catalog* catalog, EncodingConfig config)
    : catalog_(catalog), config_(config) {
  Layout l;
  l.op = 0;
  l.table = l.op + static_cast<int>(OpType::kCount);
  l.scan_numeric = l.table + config_.table_hash.dim();
  l.join_form = l.scan_numeric + 2;
  l.join_cols = l.join_form + static_cast<int>(JoinForm::kCount);
  l.agg_fn = l.join_cols + config_.column_hash.dim();
  l.agg_cols = l.agg_fn + static_cast<int>(AggFn::kNumFns);
  l.filter_fns = l.agg_cols + config_.column_hash.dim();
  l.filter_cols = l.filter_fns + static_cast<int>(FilterFn::kNumFns);
  l.env = l.filter_cols + config_.column_hash.dim();
  l.total = l.env + (config_.include_env ? 4 : 0);
  layout_ = l;
  // Sensible priors until fit_normalizers() runs.
  partitions_norm_ = {0.0, std::log(1025.0)};
  columns_norm_ = {0.0, std::log(65.0)};
  if (config_.row_cache_capacity > 0) {
    row_cache_ = std::make_unique<
        cache::ShardedLru<std::shared_ptr<const std::vector<float>>>>(
        config_.row_cache_capacity);
  }
}

int PlanEncoder::feature_dim() const { return layout_.total; }

void PlanEncoder::fit_normalizers(const std::vector<const Plan*>& plans) {
  std::vector<double> partitions, columns;
  for (const Plan* p : plans) {
    for (const PlanNode& n : p->nodes()) {
      if (n.op == OpType::kTableScan || n.op == OpType::kSpoolRead) {
        partitions.push_back(static_cast<double>(n.partitions_accessed));
        columns.push_back(static_cast<double>(n.columns_accessed));
      }
    }
  }
  if (!partitions.empty()) partitions_norm_ = LogMinMax::fit(partitions);
  if (!columns.empty()) columns_norm_ = LogMinMax::fit(columns);
  // Memoized rows were produced under the old normalizers.
  if (row_cache_ != nullptr) row_cache_->clear();
}

cache::CacheStats PlanEncoder::row_cache_stats() const {
  return row_cache_ != nullptr ? row_cache_->stats() : cache::CacheStats{};
}

std::uint64_t PlanEncoder::node_row_key(const PlanNode& node) {
  // Covers EVERY input of encode_attr_row: the operator plus the scan, join,
  // aggregation and filter surfaces. Cardinalities, child links and stage ids
  // are deliberately absent — the attribute prefix never reads them. The
  // 0xa11* words separate adjacent variable-length lists so (a|bc) cannot
  // alias (ab|c).
  using cache::combine;
  std::uint64_t h = combine(0x5e11a6e5ull, static_cast<std::uint64_t>(node.op));
  h = combine(h, static_cast<std::uint64_t>(node.table_id + 2));
  h = combine(h, static_cast<std::uint64_t>(node.partitions_accessed + 1));
  h = combine(h, static_cast<std::uint64_t>(node.columns_accessed + 1));
  h = combine(h, static_cast<std::uint64_t>(node.join_form));
  for (const std::string& c : node.join_columns) h = combine(h, hash64(c, 3));
  h = combine(h, static_cast<std::uint64_t>(node.agg_fn) + 0xa110ull);
  for (const std::string& c : node.agg_columns) h = combine(h, hash64(c, 3));
  h = combine(h, 0xa111ull);
  for (const std::string& c : node.group_by_columns) h = combine(h, hash64(c, 3));
  for (const FilterFn f : node.filter_fns) {
    h = combine(h, static_cast<std::uint64_t>(f) + 0xf0ull);
  }
  h = combine(h, 0xa112ull);
  for (const std::string& c : node.filter_columns) h = combine(h, hash64(c, 3));
  return h;
}

nn::Tree PlanEncoder::encode(const Plan& plan,
                             const std::vector<EnvFeatures>* stage_envs,
                             const std::optional<EnvFeatures>& fixed_env) const {
  nn::Tree tree;
  const int n = plan.node_count();
  tree.features = nn::Mat(n, layout_.total);
  tree.left.assign(static_cast<std::size_t>(n), -1);
  tree.right.assign(static_cast<std::size_t>(n), -1);
  tree.root = plan.root();

  for (int id = 0; id < n; ++id) {
    const PlanNode& node = plan.node(id);
    tree.left[static_cast<std::size_t>(id)] = node.left;
    tree.right[static_cast<std::size_t>(id)] = node.right;
    auto row = tree.features.row(id);

    // Attribute prefix [0, env): memoized across plans when the row cache is
    // on. A hit copies the exact floats a miss would have computed — the
    // prefix is a pure function of the attributes in the key.
    if (row_cache_ != nullptr) {
      const std::uint64_t key = node_row_key(node);
      if (auto hit = row_cache_->get(key); hit.has_value()) {
        std::copy((*hit)->begin(), (*hit)->end(), row.begin());
      } else {
        encode_attr_row(node, row);
        row_cache_->put(key, std::make_shared<const std::vector<float>>(
                                 row.begin(),
                                 row.begin() + static_cast<std::size_t>(layout_.env)));
      }
    } else {
      encode_attr_row(node, row);
    }

    // Execution environment (stage-shared).
    if (config_.include_env) {
      EnvFeatures env;  // zero-information default
      bool have = false;
      if (stage_envs != nullptr && node.stage >= 0 &&
          node.stage < static_cast<int>(stage_envs->size())) {
        env = (*stage_envs)[static_cast<std::size_t>(node.stage)];
        have = true;
      } else if (fixed_env.has_value()) {
        env = *fixed_env;
        have = true;
      }
      if (have) {
        row[static_cast<std::size_t>(layout_.env + 0)] =
            static_cast<float>(env.cpu_idle);
        row[static_cast<std::size_t>(layout_.env + 1)] =
            static_cast<float>(env.io_wait);
        row[static_cast<std::size_t>(layout_.env + 2)] =
            static_cast<float>(env.load5_norm);
        row[static_cast<std::size_t>(layout_.env + 3)] =
            static_cast<float>(env.mem_usage);
      }
    }
  }
  return tree;
}

void PlanEncoder::encode_attr_row(const PlanNode& node, std::span<float> row) const {
  // Operator type one-hot.
  row[static_cast<std::size_t>(layout_.op + static_cast<int>(node.op))] = 1.0f;

  // TableScan attributes.
  if (node.op == OpType::kTableScan || node.op == OpType::kSpoolRead) {
    encode_identifier(catalog_->table(node.table_id).name, config_.table_hash,
                      row.subspan(static_cast<std::size_t>(layout_.table),
                                  static_cast<std::size_t>(config_.table_hash.dim())));
    row[static_cast<std::size_t>(layout_.scan_numeric)] = static_cast<float>(
        partitions_norm_.normalize(static_cast<double>(node.partitions_accessed)));
    row[static_cast<std::size_t>(layout_.scan_numeric + 1)] = static_cast<float>(
        columns_norm_.normalize(static_cast<double>(node.columns_accessed)));
  }

  // Join attributes.
  if (warehouse::is_join(node.op)) {
    row[static_cast<std::size_t>(layout_.join_form +
                                 static_cast<int>(node.join_form))] = 1.0f;
    auto seg = row.subspan(static_cast<std::size_t>(layout_.join_cols),
                           static_cast<std::size_t>(config_.column_hash.dim()));
    for (const std::string& c : node.join_columns) {
      encode_identifier(c, config_.column_hash, seg);
    }
  }

  // Aggregation attributes.
  if (warehouse::is_aggregate(node.op)) {
    row[static_cast<std::size_t>(layout_.agg_fn + static_cast<int>(node.agg_fn))] =
        1.0f;
    auto seg = row.subspan(static_cast<std::size_t>(layout_.agg_cols),
                           static_cast<std::size_t>(config_.column_hash.dim()));
    for (const std::string& c : node.agg_columns) {
      encode_identifier(c, config_.column_hash, seg);
    }
    for (const std::string& c : node.group_by_columns) {
      encode_identifier(c, config_.column_hash, seg);
    }
  }

  // Filter attributes (Filter and Calc alike).
  if (warehouse::is_filter_like(node.op)) {
    for (FilterFn fn : node.filter_fns) {
      row[static_cast<std::size_t>(layout_.filter_fns + static_cast<int>(fn))] =
          1.0f;
    }
    auto seg = row.subspan(static_cast<std::size_t>(layout_.filter_cols),
                           static_cast<std::size_t>(config_.column_hash.dim()));
    for (const std::string& c : node.filter_columns) {
      encode_identifier(c, config_.column_hash, seg);
    }
  }
}

std::vector<nn::Tree> encode_candidates(
    const PlanEncoder& encoder, const std::vector<warehouse::Plan>& plans,
    const std::optional<warehouse::EnvFeatures>& env) {
  std::vector<nn::Tree> trees;
  trees.reserve(plans.size());
  for (const warehouse::Plan& plan : plans) {
    trees.push_back(encoder.encode(plan, nullptr, env));
  }
  return trees;
}

}  // namespace loam::core
