#include "core/explorer.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "obs/obs.h"

namespace loam::core {

using warehouse::Flag;
using warehouse::FlagSet;
using warehouse::Plan;
using warehouse::PlannerKnobs;
using warehouse::Query;

PlanExplorer::PlanExplorer(const warehouse::NativeOptimizer* optimizer, Config config)
    : optimizer_(optimizer), config_(config) {
  num_threads_ = config.num_threads > 0
                     ? config.num_threads
                     : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // The pool holds the workers beyond the exploring thread, which always
  // participates in parallel_for; num_threads == 1 keeps everything on the
  // caller with no pool at all (the escape hatch back to legacy behavior).
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_ - 1);
  }
}

std::vector<PlannerKnobs> PlanExplorer::trial_list(const Query& query) const {
  // Expert-curated trial list (Section 3: the six flags were "selected by
  // MaxCompute's domain experts because they are more likely to yield diverse
  // candidate plans, while remaining safe enough to avoid drastically bad
  // plans"). Toggles whose only possible effect is pessimization — disabling
  // filter pushdown, forcing sort-merge pipelines onto unsorted fact inputs —
  // are deliberately absent.
  std::vector<PlannerKnobs> trials;
  const PlannerKnobs def;  // shipping defaults
  trials.push_back(def);

  {
    // Shuffle-related: fall back from broadcast to repartitioning.
    PlannerKnobs k = def;
    k.flags.set(Flag::kEnableBroadcastJoin, false);
    trials.push_back(k);
  }
  {
    // Data-flow: partial (pre-shuffle) aggregation.
    PlannerKnobs k = def;
    k.flags.set(Flag::kPartialAggregation);
    trials.push_back(k);
  }
  {
    // Spool: share repeated scans.
    PlannerKnobs k = def;
    k.flags.set(Flag::kSpoolReuse);
    trials.push_back(k);
  }
  if (config_.expert_combos) {
    PlannerKnobs k = def;
    k.flags.set(Flag::kPartialAggregation).set(Flag::kSpoolReuse);
    trials.push_back(k);
  }
  if (config_.risky_trials) {
    // The trials the expert pass rejected: kept behind a switch for the
    // explorer ablations.
    PlannerKnobs merge = def;
    merge.flags.set(Flag::kPreferHashJoin, false).set(Flag::kMergeJoinForSorted);
    trials.push_back(merge);
    PlannerKnobs late = def;
    late.flags.set(Flag::kAggressiveFilterPushdown, false);
    trials.push_back(late);
    if (query.tables.size() >= 3) {
      for (double s : {0.05, 20.0}) {
        PlannerKnobs k = def;
        k.card_scale = s;
        k.force_reorder = true;
        trials.push_back(k);
      }
    }
  }
  // Join-order steering: reordering on coarse metadata estimates — the only
  // way to repair a bad syntactic order when statistics are missing.
  if (query.tables.size() >= 2) {
    PlannerKnobs k = def;
    k.force_reorder = true;
    trials.push_back(k);
    if (config_.expert_combos) {
      PlannerKnobs kp = k;
      kp.flags.set(Flag::kPartialAggregation);
      trials.push_back(kp);
    }
  }
  // Lero-style scaled cardinalities for queries with >= 3 inputs. Scaling
  // only perturbs the join-order search, so these trials force reordering.
  if (query.tables.size() >= 3) {
    for (double s : config_.card_scales) {
      PlannerKnobs k = def;
      k.card_scale = s;
      k.force_reorder = true;
      trials.push_back(k);
      if (config_.expert_combos) {
        PlannerKnobs kb = k;
        kb.flags.set(Flag::kPartialAggregation);
        trials.push_back(kb);
      }
    }
  }
  return trials;
}

CandidateGeneration PlanExplorer::explore(const Query& query) const {
  // Handles are registered once; recording below is branch-gated relaxed
  // atomics and never feeds back into plan selection.
  static obs::Counter* const c_explores =
      obs::Registry::instance().counter("loam.explorer.explores");
  static obs::Counter* const c_trials =
      obs::Registry::instance().counter("loam.explorer.trials");
  static obs::Counter* const c_elided =
      obs::Registry::instance().counter("loam.explorer.trials_elided");
  static obs::Counter* const c_kept =
      obs::Registry::instance().counter("loam.explorer.candidates_kept");
  static obs::Counter* const c_pruned =
      obs::Registry::instance().counter("loam.explorer.candidates_pruned");
  static obs::Histogram* const h_seconds = obs::Registry::instance().histogram(
      "loam.explorer.explore_seconds",
      obs::Histogram::exponential_bounds(1e-5, 4.0, 10));
  obs::Span span(obs::Cat::kExplorer, "explore");
  obs::ScopedTimer timer(h_seconds);

  const auto start = std::chrono::steady_clock::now();
  const std::vector<PlannerKnobs> trials = trial_list(query);

  // Optimize the trials — concurrently when the pool exists. Trials are
  // independent: each one reads only the (const) catalog and query and
  // writes its own result slot; a trial that ever needs randomness must
  // derive it as Rng(seed).fork(i), never from a shared stream. Rough costs
  // and signatures are taken on the plans as optimize() annotates them,
  // which is the COMMON estimate face (card_scale = 1): annotation never
  // applies the scale, so trials that only deluded their own search face do
  // not get to flatter themselves, and structurally identical plans found
  // under different scales share a signature.
  struct TrialResult {
    Plan plan;
    warehouse::KnobReads reads;
    std::uint64_t sig = 0;
    double rough = 0.0;
    bool ran = false;
  };
  std::vector<TrialResult> results(trials.size());
  auto run_trial = [&](std::size_t i) {
    // Per-flag-set timing: the trial index deterministically identifies the
    // knob setting within this query's trial list.
    obs::Span trial_span(obs::Cat::kExplorer, "optimize_trial",
                         static_cast<std::int64_t>(i));
    TrialResult& r = results[i];
    r.plan = optimizer_->optimize(query, trials[i], &r.reads);
    r.sig = r.plan.signature();
    r.rough = optimizer_->rough_cost(r.plan);
    r.ran = true;
  };
  // Trial elision: a trial that agrees with an earlier executed trial j on
  // every knob j's optimize() read would rebuild j's plan, and the merge
  // below keeps only the first occurrence of a plan, so skipping it leaves
  // the output unchanged.
  auto repeats = [&](std::size_t i, std::size_t j) {
    return results[j].ran && results[j].reads.agree(trials[i], trials[j]);
  };
  int optimized = 0;
  if (pool_ != nullptr) {
    // Elide against the default trial only, then optimize the survivors
    // concurrently.
    run_trial(0);
    std::vector<std::size_t> survivors;
    for (std::size_t i = 1; i < trials.size(); ++i) {
      if (!repeats(i, 0)) survivors.push_back(i);
    }
    pool_->parallel_for(survivors.size(),
                        [&](std::size_t s) { run_trial(survivors[s]); });
    optimized = 1 + static_cast<int>(survivors.size());
  } else {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      bool elide = false;
      for (std::size_t j = 0; j < i && !elide; ++j) elide = repeats(i, j);
      if (elide) continue;
      run_trial(i);
      ++optimized;
    }
  }

  // Serial merge in trial order: dedup by plan signature, keeping the first
  // occurrence, so the candidate set, ordering and costs depend neither on
  // the thread count nor on which duplicates were elided.
  struct Candidate {
    Plan plan;
    PlannerKnobs knobs;
    std::uint64_t sig = 0;
    double rough = 0.0;
    bool is_default = false;
  };
  std::vector<Candidate> candidates;
  std::set<std::uint64_t> seen;
  double default_rough = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (!results[i].ran || !seen.insert(results[i].sig).second) continue;
    Candidate c;
    c.sig = results[i].sig;
    c.rough = results[i].rough;
    if (i == 0) default_rough = c.rough;
    c.plan = std::move(results[i].plan);
    c.knobs = trials[i];
    c.is_default = (i == 0);
    candidates.push_back(std::move(c));
  }
  // Sanity pruning against the default plan's rough cost.
  if (config_.sanity_factor > 0.0 && default_rough > 0.0) {
    std::erase_if(candidates, [&](const Candidate& c) {
      return !c.is_default && c.rough > config_.sanity_factor * default_rough;
    });
  }

  // Keep the top-k by rough cost; the default plan is always retained
  // (Section 7.1: candidate sets include the default plan).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.is_default != b.is_default) return a.is_default;
                     return a.rough < b.rough;
                   });
  if (static_cast<int>(candidates.size()) > config_.top_k) {
    candidates.resize(static_cast<std::size_t>(config_.top_k));
  }

  CandidateGeneration out;
  out.trials = static_cast<int>(trials.size());
  out.optimized = optimized;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].is_default) out.default_index = static_cast<int>(i);
    out.plans.push_back(std::move(candidates[i].plan));
    out.plan_sigs.push_back(candidates[i].sig);
    out.knobs.push_back(candidates[i].knobs);
    out.rough_costs.push_back(candidates[i].rough);
  }
  out.generation_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  c_explores->add();
  c_trials->add(trials.size());
  c_elided->add(trials.size() - static_cast<std::size_t>(optimized));
  c_kept->add(out.plans.size());
  c_pruned->add(trials.size() - out.plans.size());
  return out;
}

}  // namespace loam::core
