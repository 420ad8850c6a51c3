// Exactness of trial elision in the plan explorer.
//
// explore() skips a trial when it agrees with an earlier executed trial on
// every knob field that trial's optimize() read. That is sound only if the
// recorded read-set is complete: a knob the optimizer consults but does not
// record would let two trials with different plans look interchangeable.
// These tests check
//   (a) soundness of the read-set itself — over generated queries from every
//       evaluation archetype plus a 14-table low-statistics fixture, any two
//       trials whose knobs agree on the earlier one's read-set produce the
//       same plan, node for node and bit for bit; and
//   (b) that explore(), serial and parallel, returns exactly what the full,
//       unelided trial list gives under the dedup/prune/top-k merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "util/rng.h"
#include "warehouse/workload.h"

namespace loam::core {
namespace {

using warehouse::KnobReads;
using warehouse::Plan;
using warehouse::PlanNode;
using warehouse::PlannerKnobs;
using warehouse::Query;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Empty when the plans are identical; otherwise names the first difference.
std::string plan_difference(const Plan& a, const Plan& b) {
  if (a.node_count() != b.node_count()) return "node count";
  if (a.root() != b.root()) return "root";
  for (int n = 0; n < a.node_count(); ++n) {
    const PlanNode& x = a.node(n);
    const PlanNode& y = b.node(n);
    const std::string at = " at node " + std::to_string(n);
    if (x.op != y.op) return "op" + at;
    if (x.left != y.left || x.right != y.right) return "children" + at;
    if (x.table_id != y.table_id || x.schema_epoch != y.schema_epoch) return "table" + at;
    if (x.partitions_accessed != y.partitions_accessed ||
        x.columns_accessed != y.columns_accessed) {
      return "access path" + at;
    }
    if (x.join_form != y.join_form || x.join_edge != y.join_edge ||
        x.join_columns != y.join_columns) {
      return "join" + at;
    }
    if (x.agg_fn != y.agg_fn || x.agg_columns != y.agg_columns ||
        x.group_by_columns != y.group_by_columns) {
      return "aggregation" + at;
    }
    if (x.filter_fns != y.filter_fns || x.filter_columns != y.filter_columns ||
        x.filter_preds != y.filter_preds) {
      return "filter" + at;
    }
    if (!same_bits(x.est_rows, y.est_rows) || !same_bits(x.true_rows, y.true_rows) ||
        !same_bits(x.row_width, y.row_width)) {
      return "rows" + at;
    }
  }
  if (a.signature() != b.signature()) return "signature";
  return "";
}

// A query source: one project and its optimizer.
struct Source {
  std::string name;
  warehouse::WorkloadGenerator gen;
  warehouse::Project project;
  std::unique_ptr<warehouse::NativeOptimizer> optimizer;

  Source(const warehouse::ProjectArchetype& a, std::uint64_t seed)
      : name(a.name), gen(seed) {
    project = gen.make_project(a);
    optimizer = std::make_unique<warehouse::NativeOptimizer>(project.catalog);
  }

  Query query(int i) {
    Rng rng(9000 + static_cast<std::uint64_t>(i));
    const std::size_t t = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<int>(project.templates.size()) - 1));
    return gen.instantiate(project, project.templates[t], 0, rng);
  }
};

// Every evaluation archetype plus the 14-table, 30%-statistics fixture of
// explorer_parallel_test (joins of ~4 tables, mostly syntactic orders).
std::vector<std::unique_ptr<Source>> all_sources() {
  std::vector<std::unique_ptr<Source>> out;
  std::uint64_t seed = 31;
  for (const warehouse::ProjectArchetype& a : warehouse::evaluation_archetypes()) {
    out.push_back(std::make_unique<Source>(a, seed++));
  }
  warehouse::ProjectArchetype wide;
  wide.name = "parallel";
  wide.seed = 12;
  wide.n_tables = 14;
  wide.n_templates = 10;
  wide.stats_coverage = 0.3;
  wide.join_tables_mean = 4.0;
  out.push_back(std::make_unique<Source>(wide, 11));
  return out;
}

TEST(ExplorerElision, ReadSetAgreementImpliesIdenticalPlan) {
  const std::vector<std::unique_ptr<Source>> sources = all_sources();
  constexpr int kQueriesPerSource = 170;
  int queries = 0;
  long agreeing_pairs = 0;
  long differing_pairs = 0;
  for (const std::unique_ptr<Source>& src : sources) {
    for (bool risky : {false, true}) {
      ExplorerConfig cfg;
      cfg.num_threads = 1;
      cfg.risky_trials = risky;
      const PlanExplorer explorer(src->optimizer.get(), cfg);
      for (int q = 0; q < kQueriesPerSource; ++q) {
        const Query query = src->query(q);
        const std::vector<PlannerKnobs> trials = explorer.trial_list(query);
        std::vector<Plan> plans(trials.size());
        std::vector<KnobReads> reads(trials.size());
        for (std::size_t i = 0; i < trials.size(); ++i) {
          plans[i] = src->optimizer->optimize(query, trials[i], &reads[i]);
        }
        for (std::size_t i = 1; i < trials.size(); ++i) {
          for (std::size_t j = 0; j < i; ++j) {
            if (!reads[j].agree(trials[i], trials[j])) {
              ++differing_pairs;
              continue;
            }
            ++agreeing_pairs;
            const std::string diff = plan_difference(plans[i], plans[j]);
            ASSERT_EQ(diff, "") << src->name << " query " << q << " risky " << risky
                                << ": trial " << i << " (" << trials[i].to_string()
                                << ") agrees with trial " << j << " ("
                                << trials[j].to_string() << ") on its read-set";
            // Same knob values read along the same path: same read-set.
            EXPECT_EQ(reads[i].flags, reads[j].flags);
            EXPECT_EQ(reads[i].card_scale, reads[j].card_scale);
            EXPECT_EQ(reads[i].force_reorder, reads[j].force_reorder);
          }
        }
        ++queries;
      }
    }
  }
  EXPECT_GE(queries / 2, 1000);
  // Both outcomes must be common, or the property says little.
  EXPECT_GT(agreeing_pairs, queries);
  EXPECT_GT(differing_pairs, queries);
}

TEST(ExplorerElision, ReadSetRecordsOnlyConsultedKnobs) {
  // Knobs are read lazily: a one-table query never consults the reorder or
  // scale knobs, a query without grouping never consults partial
  // aggregation, and optimize() resets the read-set it is handed.
  Source src(warehouse::evaluation_archetypes().front(), 31);
  for (int q = 0; q < 200; ++q) {
    const Query query = src.query(q);
    KnobReads reads;
    reads.flags = ~0ull;
    src.optimizer->optimize(query, PlannerKnobs(), &reads);
    if (query.tables.size() == 1) {
      EXPECT_FALSE(reads.force_reorder);
      EXPECT_FALSE(reads.card_scale);
    }
    if (!query.aggregation || query.aggregation->group_by.empty()) {
      EXPECT_EQ(reads.flags & (1ull << static_cast<int>(
                                   warehouse::Flag::kPartialAggregation)),
                0u);
    }
    EXPECT_NE(reads.flags, ~0ull);
  }
}

struct Reference {
  std::vector<Plan> plans;
  std::vector<PlannerKnobs> knobs;
  std::vector<double> rough_costs;
  int default_index = 0;
  int trials = 0;
};

// explore()'s merge, restated over the full trial list with no elision:
// first occurrence of each plan signature, sanity pruning against the
// default plan, default first then ascending rough cost, top-k.
Reference reference_explore(const warehouse::NativeOptimizer& optimizer,
                            const PlanExplorer& explorer, const Query& query) {
  const ExplorerConfig& cfg = explorer.config();
  struct Cand {
    Plan plan;
    PlannerKnobs knobs;
    double rough = 0.0;
    bool is_default = false;
  };
  const std::vector<PlannerKnobs> trials = explorer.trial_list(query);
  std::vector<Cand> cands;
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    Plan plan = optimizer.optimize(query, trials[i]);
    if (!seen.insert(plan.signature()).second) continue;
    const double rough = optimizer.rough_cost(plan);
    cands.push_back(Cand{std::move(plan), trials[i], rough, i == 0});
  }
  const double default_rough = cands.front().rough;
  if (cfg.sanity_factor > 0.0 && default_rough > 0.0) {
    std::erase_if(cands, [&](const Cand& c) {
      return !c.is_default && c.rough > cfg.sanity_factor * default_rough;
    });
  }
  std::stable_sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.is_default != b.is_default) return a.is_default;
    return a.rough < b.rough;
  });
  if (static_cast<int>(cands.size()) > cfg.top_k) {
    cands.resize(static_cast<std::size_t>(cfg.top_k));
  }
  Reference ref;
  ref.trials = static_cast<int>(trials.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (cands[c].is_default) ref.default_index = static_cast<int>(c);
    ref.plans.push_back(std::move(cands[c].plan));
    ref.knobs.push_back(cands[c].knobs);
    ref.rough_costs.push_back(cands[c].rough);
  }
  return ref;
}

TEST(ExplorerElision, ExploreEqualsFullTrialListReference) {
  const std::vector<std::unique_ptr<Source>> sources = all_sources();
  int compared = 0;
  bool some_elided = false;
  for (const std::unique_ptr<Source>& src : sources) {
    for (bool risky : {false, true}) {
      ExplorerConfig serial;
      serial.num_threads = 1;
      serial.risky_trials = risky;
      ExplorerConfig parallel = serial;
      parallel.num_threads = 4;
      const PlanExplorer e1(src->optimizer.get(), serial);
      const PlanExplorer e4(src->optimizer.get(), parallel);
      for (int q = 0; q < 25; ++q) {
        const Query query = src->query(q);
        const Reference ref = reference_explore(*src->optimizer, e1, query);
        for (const PlanExplorer* e : {&e1, &e4}) {
          const CandidateGeneration gen = e->explore(query);
          const std::string label = src->name + " query " + std::to_string(q) +
                                    " risky " + std::to_string(risky) +
                                    " threads " + std::to_string(e->num_threads());
          EXPECT_EQ(gen.trials, ref.trials) << label;
          EXPECT_GE(gen.optimized, 1) << label;
          EXPECT_LE(gen.optimized, gen.trials) << label;
          some_elided = some_elided || gen.optimized < gen.trials;
          EXPECT_EQ(gen.default_index, ref.default_index) << label;
          ASSERT_EQ(gen.plans.size(), ref.plans.size()) << label;
          ASSERT_EQ(gen.plan_sigs.size(), ref.plans.size()) << label;
          ASSERT_EQ(gen.knobs.size(), ref.plans.size()) << label;
          ASSERT_EQ(gen.rough_costs.size(), ref.plans.size()) << label;
          for (std::size_t c = 0; c < ref.plans.size(); ++c) {
            EXPECT_EQ(plan_difference(gen.plans[c], ref.plans[c]), "")
                << label << " candidate " << c;
            EXPECT_EQ(gen.plan_sigs[c], ref.plans[c].signature())
                << label << " candidate " << c;
            EXPECT_EQ(gen.knobs[c], ref.knobs[c]) << label << " candidate " << c;
            EXPECT_TRUE(same_bits(gen.rough_costs[c], ref.rough_costs[c]))
                << label << " candidate " << c;
          }
        }
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 250);
  EXPECT_TRUE(some_elided);
}

}  // namespace
}  // namespace loam::core
