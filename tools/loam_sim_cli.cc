// loam-sim — command-line driver for the simulated warehouse + LOAM.
//
// Subcommands:
//   inspect   <archetype-index>             show a generated project's shape
//   history   <archetype-index> <days> <out.tsv>
//                                           simulate production, export cost log
//   train     <archetype-index> <days> [ckpt-path]
//                                           train LOAM, print gate report,
//                                           optionally checkpoint the model
//   steer     <archetype-index> <n-queries> show steered vs default plans
//   serve     <archetype-index> <n-requests> [state-dir]
//                                           run the online optimizer service:
//                                           bootstrap from history, serve a
//                                           request stream with execution
//                                           feedback, print latency + version
//                                           stats (state-dir holds the model
//                                           registry and feedback journal);
//                                           --paced enables BBR-style batch
//                                           pacing and prints the controller
//                                           snapshot + shed count;
//                                           --shards=N runs the shard-per-core
//                                           scale-out (N shared-nothing
//                                           shards, 0 = one per hardware
//                                           thread) and prints a per-shard
//                                           stats table
//   drift     <archetype-index> <days> [state-dir] --drift-script=<file>
//                                           run a declarative workload-drift
//                                           timeline (JSON; see docs/DRIFT.md)
//                                           against the lifelong modular
//                                           learner: the archetype serves as
//                                           project "main", the script's
//                                           events fire on their scheduled
//                                           days, and a per-day cost-ratio +
//                                           retrain table is printed;
//                                           --monolithic swaps in the pooled
//                                           single-model baseline; --record /
//                                           --dump-on-alert / --dump-out work
//                                           as in serve (bundles include the
//                                           "drift" scenario state provider).
//                                           Malformed scripts — including any
//                                           unknown key — are rejected with a
//                                           non-zero exit, matching the
//                                           unknown-flag policy.
//
// Archetype indices 0-4 are the paper's evaluation projects; 5+ draw from the
// sampled population.
//
// Global flags (any position):
//   --metrics-out=<path>  enable metrics; write the registry JSON on exit
//   --trace-out=<path>    enable tracing; write Chrome trace_event JSON on
//                         exit (load in chrome://tracing or ui.perfetto.dev)
//
// Unknown `--flags` are rejected with usage and a non-zero exit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gate.h"
#include "core/loam.h"
#include "drift/scenario.h"
#include "obs/obs.h"
#include "serve/service.h"
#include "util/table_printer.h"
#include "warehouse/repository_io.h"

using namespace loam;

namespace {

warehouse::ProjectArchetype pick_archetype(int index) {
  if (index < 5) {
    return warehouse::evaluation_archetypes()[static_cast<std::size_t>(index)];
  }
  const auto pool = warehouse::sampled_archetypes(index + 1, 4040);
  return pool[static_cast<std::size_t>(index)];
}

int cmd_inspect(int index) {
  warehouse::WorkloadGenerator gen(17);
  const warehouse::Project project = gen.make_project(pick_archetype(index));
  long long rows = 0, columns = 0;
  int temps = 0, with_stats = 0;
  for (int t = 0; t < project.catalog.table_count(); ++t) {
    const warehouse::Table& table = project.catalog.table(t);
    rows += table.row_count;
    columns += static_cast<long long>(table.columns.size());
    temps += table.is_temp;
    with_stats += project.catalog.stats(t).available;
  }
  std::printf("project %s\n", project.name.c_str());
  TablePrinter t({"property", "value"});
  t.add_row({"tables", TablePrinter::fmt_int(project.catalog.table_count())});
  t.add_row({"columns", TablePrinter::fmt_int(columns)});
  t.add_row({"total rows", TablePrinter::fmt_int(rows)});
  t.add_row({"temp tables", TablePrinter::fmt_int(temps)});
  t.add_row({"tables with statistics", TablePrinter::fmt_int(with_stats)});
  t.add_row({"query templates",
             TablePrinter::fmt_int(static_cast<long long>(project.templates.size()))});
  t.print();
  // Show one template as SQL.
  Rng rng(3);
  const warehouse::Query q = gen.instantiate(project, project.templates[0], 0, rng);
  std::printf("\nexample recurring query (%s):\n%s\n", q.template_id.c_str(),
              q.to_sql(project.catalog).c_str());
  return 0;
}

int cmd_history(int index, int days, const char* out_path) {
  core::RuntimeConfig rc;
  rc.seed = 99;
  core::ProjectRuntime runtime(pick_archetype(index), rc);
  runtime.simulate_history(days, 200);
  warehouse::write_cost_log_file(warehouse::to_cost_log(runtime.repository()),
                                 out_path);
  std::printf("simulated %d days (%zu queries) -> %s\n", days,
              runtime.repository().size(), out_path);
  return 0;
}

int cmd_train(int index, int days, const char* ckpt) {
  core::RuntimeConfig rc;
  rc.seed = 99;
  core::ProjectRuntime runtime(pick_archetype(index), rc);
  std::printf("simulating %d days of history...\n", days);
  runtime.simulate_history(days, 200);

  const core::FilterDecision filter =
      core::apply_filter(core::summarize_workload(runtime, 0, days - 1));
  std::printf("filter: n_query=%.0f/day inc=%.2f stable=%.2f -> %s\n",
              filter.n_query, filter.inc_ratio, filter.stable_ratio,
              filter.pass ? "PASS" : "FAIL (training challenges likely)");

  core::LoamConfig cfg;
  cfg.train_first_day = 0;
  cfg.train_last_day = days - 1;
  cfg.max_train_queries = 2500;
  core::LoamDeployment loam(&runtime, cfg);
  loam.train();
  std::printf("trained on %zu default plans (+%zu candidates) in %.1fs, model "
              "%.1f KB\n",
              loam.data().default_plans.size(), loam.data().candidate_plans.size(),
              loam.train_seconds(), loam.model().model_bytes() / 1024.0);

  core::DeploymentGateConfig gate_cfg;
  gate_cfg.sample_queries = 16;
  const core::DeploymentGateReport report =
      core::evaluate_deployment(runtime, loam, gate_cfg);
  std::printf("%s\n", report.to_string().c_str());

  if (ckpt != nullptr) {
    dynamic_cast<core::AdaptiveCostPredictor&>(loam.model()).save(ckpt);
    std::printf("checkpoint written to %s\n", ckpt);
  }
  return report.approved ? 0 : 2;
}

int cmd_steer(int index, int n_queries) {
  core::RuntimeConfig rc;
  rc.seed = 99;
  core::ProjectRuntime runtime(pick_archetype(index), rc);
  runtime.simulate_history(8, 150);
  core::LoamConfig cfg;
  cfg.train_first_day = 0;
  cfg.train_last_day = 7;
  cfg.max_train_queries = 1200;
  cfg.predictor.epochs = 10;
  core::LoamDeployment loam(&runtime, cfg);
  loam.train();

  warehouse::FlightingEnv flighting(runtime.config().cluster,
                                    runtime.config().executor, 555);
  for (const warehouse::Query& q : runtime.make_queries(8, 9, n_queries)) {
    const core::LoamDeployment::Choice choice = loam.optimize(q);
    const double def = flighting.replay_mean(
        choice.generation.plans[static_cast<std::size_t>(
            choice.generation.default_index)],
        5);
    const double steered = flighting.replay_mean(
        choice.generation.plans[static_cast<std::size_t>(choice.chosen)], 5);
    std::printf("%-16s %zu candidates | default %.0f | steered %.0f (%+.1f%%) "
                "[%s]\n",
                q.template_id.c_str(), choice.generation.plans.size(), def,
                steered, 100.0 * (steered - def) / def,
                choice.generation.knobs[static_cast<std::size_t>(choice.chosen)]
                    .to_string().c_str());
  }
  return 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

std::string fmt_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

const char* pacing_state_name(serve::PacingController::State s) {
  switch (s) {
    case serve::PacingController::State::kStartup: return "STARTUP";
    case serve::PacingController::State::kDrain: return "DRAIN";
    case serve::PacingController::State::kSteady: return "STEADY";
    case serve::PacingController::State::kProbe: return "PROBE";
  }
  return "?";
}

// Flight-recorder options for `serve` (--record and friends).
struct RecordOptions {
  bool record = false;
  int interval_ms = 50;
  bool dump_on_alert = false;
  std::string dump_out;  // empty = the serve state dir
  int burst = 0;         // burst size, in multiples of the request pool
};

int cmd_serve(int index, int n_requests, const char* state_dir, bool paced,
              int shards, const RecordOptions& rec) {
  core::RuntimeConfig rc;
  rc.seed = 99;
  core::ProjectRuntime runtime(pick_archetype(index), rc);
  std::printf("simulating 5 days of history...\n");
  runtime.simulate_history(5, 150);

  const std::string dir = state_dir != nullptr ? state_dir : "loam_serve_state";
  serve::ServeConfig cfg;
  cfg.registry_root = dir + "/registry";
  cfg.journal_path = dir + "/feedback.jnl";
  cfg.predictor.epochs = 10;
  cfg.gate.sample_queries = 12;
  cfg.retrain_min_new_records = std::max(16, n_requests / 2);
  cfg.pacing.enabled = paced;
  cfg.num_shards = shards;

  // The flight recorder must OUTLIVE the service: the service registers its
  // "serve" state provider with it and removes it in its destructor.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (rec.record) {
    obs::set_metrics_enabled(true);  // nothing to record otherwise
    const int resolved_shards =
        shards > 0 ? shards
                   : std::max(1, static_cast<int>(
                                     std::thread::hardware_concurrency()));
    obs::FlightRecorderConfig fc;
    fc.recorder.interval_ns =
        static_cast<std::int64_t>(std::max(1, rec.interval_ms)) * 1'000'000;
    fc.rules = obs::default_serve_rules(resolved_shards);
    fc.dump_on_alert = rec.dump_on_alert;
    fc.dump_dir = rec.dump_out.empty() ? dir : rec.dump_out;
    flight = std::make_unique<obs::FlightRecorder>(std::move(fc));
    cfg.flight_recorder = flight.get();
    flight->start();
  }

  // The request stream and the burst are pre-generated: make_queries
  // consumes the runtime's RNG, which the service's retrain gate also draws
  // from. Burst queries are fresh instances from later days, so none of them
  // is in any shard's explore memo.
  std::vector<warehouse::Query> requests = runtime.make_queries(5, 8, n_requests);
  std::vector<warehouse::Query> burst_queries;
  if (rec.burst > 0) {
    burst_queries = runtime.make_queries(9, 9 + 365, rec.burst * n_requests);
  }

  serve::OptimizerService service(&runtime, cfg);
  service.start();
  std::printf("service up: journal %llu records, active version %d\n",
              static_cast<unsigned long long>(service.journal().records()),
              service.active_version());

  warehouse::FlightingEnv production(runtime.config().cluster,
                                     runtime.config().executor, 555);
  std::vector<double> latencies;
  std::map<int, int> served_by_version;
  double model_cost = 0.0, default_cost = 0.0;
  for (const warehouse::Query& q : requests) {
    const serve::ServeDecision d = service.optimize(q);
    latencies.push_back(d.total_seconds);
    ++served_by_version[d.model_version];
    const warehouse::ExecutionResult exec = production.replay_once(
        d.generation.plans[static_cast<std::size_t>(d.chosen)]);
    model_cost += exec.cpu_cost;
    default_cost += production.replay_once(
        d.generation.plans[static_cast<std::size_t>(d.generation.default_index)])
        .cpu_cost;
    service.record_feedback(d, exec);
  }

  // Optional overload burst: --burst times the pool size in fresh queries,
  // submitted all at once by one thread per shard, each spraying its own
  // shard. The burst overloads every shard by construction: a model-path
  // request costs a whole exploration (one native optimize per flag trial,
  // ~11) on the shard's batcher, while a shed request costs one native
  // optimize on its submitter, so each submitter outruns its batcher several
  // times over and, past the admission window, most of the burst is shed to
  // the native fallback — which is exactly what drives the serve.shed_ratio
  // SLO rule over its threshold. The explicit tick() afterwards guarantees
  // the rules see the burst interval even when the background cadence would
  // have sampled later.
  std::uint64_t burst_shed = 0;
  if (!burst_queries.empty()) {
    const std::uint64_t shed_before = service.stats().shed;
    const int n_shards = service.num_shards();
    std::vector<std::vector<const warehouse::Query*>> by_shard(
        static_cast<std::size_t>(n_shards));
    for (const warehouse::Query& q : burst_queries) {
      by_shard[service.shard_of(q)].push_back(&q);
    }
    std::vector<std::vector<std::future<serve::ServeDecision>>> futures(
        by_shard.size());
    std::vector<std::thread> submitters;
    for (std::size_t k = 0; k < by_shard.size(); ++k) {
      submitters.emplace_back([&, k] {
        for (const warehouse::Query* q : by_shard[k]) {
          std::future<serve::ServeDecision> fut;
          if (service.try_submit(*q, &fut)) {
            futures[k].push_back(std::move(fut));
          }
        }
      });
    }
    for (std::thread& th : submitters) th.join();
    std::size_t submitted = 0;
    for (auto& shard_futures : futures) {
      for (std::future<serve::ServeDecision>& fut : shard_futures) fut.get();
      submitted += shard_futures.size();
    }
    burst_shed = service.stats().shed - shed_before;
    if (flight) flight->tick();
    std::printf("burst: %dx pool (%zu fresh requests from %d threads), shed "
                "%llu to fallback\n",
                rec.burst, submitted, n_shards,
                static_cast<unsigned long long>(burst_shed));
  }
  service.stop();

  const serve::OptimizerService::Stats stats = service.stats();
  TablePrinter t({"metric", "value"});
  t.add_row({"requests served", TablePrinter::fmt_int(stats.requests)});
  t.add_row({"inference batches", TablePrinter::fmt_int(stats.batches)});
  t.add_row({"p50 latency (ms)",
             fmt_double(1e3 * percentile(latencies, 0.50), 3)});
  t.add_row({"p99 latency (ms)",
             fmt_double(1e3 * percentile(latencies, 0.99), 3)});
  t.add_row({"hot swaps", TablePrinter::fmt_int(stats.swaps)});
  t.add_row({"rollbacks", TablePrinter::fmt_int(stats.rollbacks)});
  t.add_row({"retrains (approved/rejected)",
             TablePrinter::fmt_int(stats.retrain_approved) + "/" +
                 TablePrinter::fmt_int(stats.retrain_rejected)});
  t.add_row({"journal records",
             TablePrinter::fmt_int(service.journal().records())});
  t.add_row({"served cost vs default (%)",
             fmt_double(
                 default_cost > 0.0
                     ? 100.0 * (model_cost - default_cost) / default_cost
                     : 0.0,
                 2)});
  if (paced) {
    const serve::OptimizerService::PacingSnapshot snap =
        service.pacing_snapshot();
    t.add_row({"pacing state", pacing_state_name(snap.state)});
    t.add_row({"pacing est bw (plans/s)", fmt_double(snap.est_bw_per_sec, 0)});
    t.add_row({"pacing min delay (ms)",
               fmt_double(1e3 * snap.est_min_delay_seconds, 3)});
    t.add_row({"pacing bdp (requests)", fmt_double(snap.bdp_requests, 1)});
    t.add_row({"pacing batch target", TablePrinter::fmt_int(snap.batch_target)});
    t.add_row({"pacing cwnd", fmt_double(snap.cwnd, 1)});
    t.add_row({"shed to fallback", TablePrinter::fmt_int(stats.shed)});
  }
  t.print();
  if (service.num_shards() > 1) {
    std::printf("\nper-shard stats (%d shared-nothing shards):\n",
                service.num_shards());
    TablePrinter st({"shard", "requests", "batches", "shed", "fallback",
                     "swaps applied", "swap pause max (us)"});
    for (int k = 0; k < service.num_shards(); ++k) {
      const serve::ShardStats s = service.shard_stats(k);
      st.add_row({TablePrinter::fmt_int(k), TablePrinter::fmt_int(s.requests),
                  TablePrinter::fmt_int(s.batches),
                  TablePrinter::fmt_int(s.shed),
                  TablePrinter::fmt_int(s.fallback_decisions),
                  TablePrinter::fmt_int(s.swaps_applied),
                  fmt_double(1e-3 * static_cast<double>(s.swap_pause_max_ns),
                             2)});
    }
    st.print();
  }
  for (const auto& [version, count] : served_by_version) {
    if (version < 0) {
      std::printf("  served by native fallback: %d\n", count);
    } else {
      std::printf("  served by model v%d: %d\n", version, count);
    }
  }
  std::printf("state in %s (registry %zu versions)\n", dir.c_str(),
              service.registry().versions().size());

  if (flight) {
    // Final checkpoint bundle: whatever happened this run, the last flight
    // recording is on disk next to the alert-triggered ones.
    flight->trigger_dump("shutdown");
    flight->stop();
    std::printf(
        "\nflight recorder: %llu samples, %llu ring overwrites, %llu dumps "
        "(last: %s)\n",
        static_cast<unsigned long long>(flight->recorder().samples()),
        static_cast<unsigned long long>(flight->recorder().overwrites()),
        static_cast<unsigned long long>(flight->dumps_written()),
        flight->last_dump_path().c_str());
    const std::vector<obs::Alert> alert_log = flight->alert_log();
    if (!alert_log.empty()) {
      std::printf("alert timeline:\n");
      TablePrinter at({"rule", "metric", "fired (ms)", "cleared (ms)", "value",
                       "threshold"});
      for (const obs::Alert& a : alert_log) {
        at.add_row({a.rule, a.metric,
                    fmt_double(1e-6 * static_cast<double>(a.fired_t_ns), 1),
                    a.cleared_t_ns >= 0
                        ? fmt_double(1e-6 * static_cast<double>(a.cleared_t_ns), 1)
                        : std::string("active"),
                    fmt_double(a.value, 3), fmt_double(a.threshold, 3)});
      }
      at.print();
    } else {
      std::printf("alert timeline: empty (no SLO rule fired)\n");
    }
  }
  return 0;
}

int cmd_drift(int index, int days, const char* state_dir,
              const std::string& script_path, bool monolithic,
              const RecordOptions& rec) {
  if (script_path.empty()) {
    std::fprintf(stderr, "drift requires --drift-script=<file>\n");
    return 1;
  }
  // Loud-failure policy: a malformed script (unknown key, unknown kind, bad
  // value) must exit non-zero naming the offender, same as an unknown flag.
  drift::DriftScript script;
  try {
    script = drift::DriftScript::load(script_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drift script rejected: %s\n", e.what());
    return 1;
  }

  const std::string dir = state_dir != nullptr ? state_dir : "loam_drift_state";

  // Same recorder lifetime rule as serve: the engine registers its "drift"
  // state provider and removes it in its destructor.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (rec.record) {
    obs::set_metrics_enabled(true);
    obs::FlightRecorderConfig fc;
    fc.recorder.interval_ns =
        static_cast<std::int64_t>(std::max(1, rec.interval_ms)) * 1'000'000;
    fc.rules = obs::default_serve_rules(1);
    fc.dump_on_alert = rec.dump_on_alert;
    fc.dump_dir = rec.dump_out.empty() ? dir : rec.dump_out;
    flight = std::make_unique<obs::FlightRecorder>(std::move(fc));
    flight->start();
  }

  drift::LearnerConfig lc;
  lc.modular = !monolithic;
  lc.state_dir = dir;
  lc.predictor.epochs = 6;
  lc.predictor.hidden_dim = 16;
  lc.predictor.embed_dim = 8;
  lc.predictor.tcn_layers = 2;
  lc.predictor.batch_size = 16;
  lc.predictor.adversarial = false;
  lc.predictor.num_threads = 1;
  lc.explorer.top_k = 3;
  lc.explorer.card_scales = {0.5};
  lc.explorer.num_threads = 1;
  lc.gate.sample_queries = 6;
  lc.gate.replay_runs = 2;
  lc.gate.replay_threads = 1;
  lc.retrain_min_fresh = 12;
  lc.window_max_executed = 96;
  lc.incremental_epochs = 4;
  lc.min_train_examples = 24;
  drift::ModularLearner learner(lc);

  drift::ScenarioConfig sc;
  sc.queries_per_day = 12;
  sc.seed = 99;
  sc.recorder = flight.get();
  drift::ScenarioEngine engine(sc, &learner);

  // The chosen archetype serves as project "main" — the stable name drift
  // scripts target regardless of the archetype index.
  warehouse::ProjectArchetype arch = pick_archetype(index);
  arch.name = "main";
  engine.register_archetype(arch);
  engine.add_project("main");
  engine.set_script(std::move(script));

  std::printf("drift run: %s learner, %d days, %zu scripted events, project "
              "\"main\" (archetype %d)\n",
              monolithic ? "monolithic" : "modular", days,
              engine.script().events.size(), index);
  TablePrinter t({"day", "events", "queries", "cost vs default (%)",
                  "retrains", "approved"});
  for (int day = 0; day < days; ++day) {
    const drift::ScenarioEngine::DayStats stats = engine.step();
    int approved = 0;
    for (const drift::ModularLearner::RetrainReport& r : stats.retrains) {
      approved += r.approved;
    }
    double ratio = 1.0;
    const auto it = stats.regression.find("main");
    if (it != stats.regression.end()) ratio = it->second;
    t.add_row({TablePrinter::fmt_int(stats.day),
               TablePrinter::fmt_int(stats.events_applied),
               TablePrinter::fmt_int(stats.queries),
               fmt_double(100.0 * (ratio - 1.0), 2),
               TablePrinter::fmt_int(
                   static_cast<long long>(stats.retrains.size())),
               TablePrinter::fmt_int(approved)});
  }
  t.print();

  std::printf("\nmodule table (%s):\n", monolithic ? "pooled" : "per-project");
  TablePrinter mt({"module", "version", "epoch", "executed", "retrains",
                   "approved", "rejected", "rollbacks"});
  for (const std::string& key : learner.keys()) {
    const drift::ModuleStatus s = learner.status(key);
    mt.add_row({s.key, TablePrinter::fmt_int(s.version),
                TablePrinter::fmt_int(s.epoch),
                TablePrinter::fmt_int(
                    static_cast<long long>(s.executed_records)),
                TablePrinter::fmt_int(s.retrains),
                TablePrinter::fmt_int(s.approvals),
                TablePrinter::fmt_int(s.rejections),
                TablePrinter::fmt_int(s.rollbacks)});
  }
  mt.print();
  std::printf("applied %d of %zu scripted events; state in %s\n",
              engine.applied_events(), engine.script().events.size(),
              dir.c_str());

  if (flight) {
    flight->trigger_dump("shutdown");
    flight->stop();
    std::printf("flight recorder: %llu samples, %llu dumps (last: %s)\n",
                static_cast<unsigned long long>(flight->recorder().samples()),
                static_cast<unsigned long long>(flight->dumps_written()),
                flight->last_dump_path().c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: loam_sim_cli inspect <archetype>\n"
               "       loam_sim_cli history <archetype> <days> <out.tsv>\n"
               "       loam_sim_cli train   <archetype> <days> [ckpt]\n"
               "       loam_sim_cli steer   <archetype> <n-queries>\n"
               "       loam_sim_cli serve   <archetype> <n-requests> [state-dir]"
               " [--paced] [--shards=N]\n"
               "               [--record] [--record-interval=<ms>]"
               " [--dump-on-alert]\n"
               "               [--dump-out=<dir>] [--burst=N]\n"
               "               (--record samples metric history + SLO rules;\n"
               "                dumps land in --dump-out, default state-dir;\n"
               "                --burst=N submits N x n-requests fresh\n"
               "                queries at once, one thread per shard, to\n"
               "                exercise shedding under the recorder)\n"
               "       loam_sim_cli drift   <archetype> <days> [state-dir]"
               " --drift-script=<file>\n"
               "               [--monolithic] [--record] [--dump-on-alert]"
               " [--dump-out=<dir>]\n"
               "               (replays a JSON drift timeline against the\n"
               "                modular lifelong learner; scripts target\n"
               "                project \"main\"; unknown script keys are\n"
               "                rejected — see docs/DRIFT.md)\n"
               "global flags: --metrics-out=<path> --trace-out=<path>\n");
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content << '\n';
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out, trace_out, drift_script;
  bool paced = false;
  bool monolithic = false;
  int shards = 1;
  RecordOptions rec;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--paced") == 0) {
      paced = true;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strcmp(argv[i], "--record") == 0) {
      rec.record = true;
    } else if (std::strncmp(argv[i], "--record-interval=", 18) == 0) {
      rec.interval_ms = std::atoi(argv[i] + 18);
    } else if (std::strcmp(argv[i], "--dump-on-alert") == 0) {
      rec.dump_on_alert = true;
    } else if (std::strncmp(argv[i], "--dump-out=", 11) == 0) {
      rec.dump_out = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--burst=", 8) == 0) {
      rec.burst = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--drift-script=", 15) == 0) {
      drift_script = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--monolithic") == 0) {
      monolithic = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      usage();
      return 1;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::set_tracing_enabled(true);

  const int nargs = static_cast<int>(args.size());
  int rc = 1;
  if (nargs < 3) {
    usage();
    return 1;
  }
  const std::string cmd = args[1];
  const int index = std::atoi(args[2]);
  if (cmd == "inspect") {
    rc = cmd_inspect(index);
  } else if (cmd == "history" && nargs >= 5) {
    rc = cmd_history(index, std::atoi(args[3]), args[4]);
  } else if (cmd == "train" && nargs >= 4) {
    rc = cmd_train(index, std::atoi(args[3]), nargs >= 5 ? args[4] : nullptr);
  } else if (cmd == "steer" && nargs >= 4) {
    rc = cmd_steer(index, std::atoi(args[3]));
  } else if (cmd == "serve" && nargs >= 4) {
    rc = cmd_serve(index, std::atoi(args[3]), nargs >= 5 ? args[4] : nullptr,
                   paced, shards, rec);
  } else if (cmd == "drift" && nargs >= 4) {
    rc = cmd_drift(index, std::atoi(args[3]), nargs >= 5 ? args[4] : nullptr,
                   drift_script, monolithic, rec);
  } else {
    usage();
    return 1;
  }

  if (!metrics_out.empty()) {
    if (!write_file(metrics_out, obs::Registry::instance().to_json())) return 1;
    std::printf("metrics written to %s (%zu series)\n", metrics_out.c_str(),
                obs::Registry::instance().size());
  }
  if (!trace_out.empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (!write_file(trace_out, tracer.to_chrome_json())) return 1;
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
  }
  return rc;
}
