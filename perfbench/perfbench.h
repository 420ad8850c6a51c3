// Shared declarations of the serve-and-learn benchmark runner.
//
// The runner runs one workload against a live serve::OptimizerService from a
// single open-loop generator thread, prints every metric by name and unit,
// and re-derives a sample of decisions offline to check they are correct.
// See perfbench/README.md for the workloads, metrics and output contract.
#ifndef LOAM_PERFBENCH_PERFBENCH_H_
#define LOAM_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/quantile.h"
#include "serve/service.h"
#include "warehouse/workload.h"

namespace perfbench {

using loam::serve::OptimizerService;
using loam::serve::ServeDecision;
using loam::warehouse::ExecutionResult;
using loam::warehouse::Plan;
using loam::warehouse::Query;

// Every percentile the benchmark reports comes from the estimator the SLO
// engine reads (obs::FixedBucketQuantile). 4% exponential buckets from 1e-4
// to ~1e6 bound the interpolation error far below the metrics' bounds.
loam::obs::FixedBucketQuantile make_quantile();

// Thread budget, pinned so generator + service threads <= nproc (4 on the
// reference host): two shard batchers, one retrain worker (the service's
// fixed pool) and the one generator thread. Exploration, training and gate
// replays run on the thread that calls them.
constexpr int kShards = 2;
constexpr int kExplorerThreads = 1;
constexpr int kPredictorThreads = 1;
constexpr int kGateReplayThreads = 1;
constexpr int kRetrainWorkers = 1;
constexpr int kGeneratorThreads = 1;
constexpr int kTotalThreads = kShards + kRetrainWorkers + kGeneratorThreads;

enum class Traffic { kRecurring, kAdhoc, kLearn };

struct WorkloadSpec {
  const char* name;
  Traffic traffic;
  int archetype;          // index into warehouse::evaluation_archetypes()
  double steady_rps;      // well under the seed's model-path capacity
  double saturation_rps;  // 1.3-2x that capacity
};

// nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

// Query identity: the (template_id, param_signature) pair that makes two
// requests reruns of the same recurring job.
std::uint64_t identity(const Query& query);

// The request streams of one run, generated from the workload seed alone.
// Segments are consecutive slices of one stream, so a recurring pool is
// shared by every phase and ad-hoc identities never repeat across phases.
struct Streams {
  std::vector<Query> warmup;
  std::vector<Query> steady;
  std::vector<Query> steady_traced;  // second steady pass of a traced run
  std::vector<Query> saturation;
  // Share of steady-phase requests whose identity appeared earlier in the
  // stream (warm-up included).
  double steady_repeat_share = 0.0;
};

struct StreamSizes {
  std::size_t warmup = 0;
  std::size_t steady = 0;
  std::size_t steady_traced = 0;
  std::size_t saturation = 0;
};

Streams make_streams(const WorkloadSpec& spec,
                     const loam::warehouse::Project& project, int first_day,
                     std::uint64_t seed, const StreamSizes& sizes);

// Execution results the generator hands to record_feedback, precomputed per
// (query identity, plan signature) in a FlightingEnv outside every timed
// window.
class ExecTable {
 public:
  void add(std::uint64_t id, const Plan& plan, ExecutionResult exec);
  const ExecutionResult* find(std::uint64_t id, const Plan& plan) const;

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, ExecutionResult> table_;
};

// A model-served decision kept for the offline correctness check, with the
// query that produced it.
struct KeptDecision {
  Query query;
  ServeDecision decision;
};

// Paired-replay cost sample: distinct (identity, served plan) keys in first
// appearance order, each weighted by how often it was served.
struct CostSample {
  struct Entry {
    std::uint64_t id = 0;
    std::size_t count = 0;
    Plan served;
    Plan native_default;
  };
  std::size_t max_keys = 0;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> index;
  std::vector<Entry> entries;

  void add(const Query& query, const ServeDecision& d);
};

// Live feedback for the learn workload (and the feedback epilogue of the
// others): times every record_feedback call and mirrors the service's
// retrain cadence to time each background retrain from the call that
// scheduled it to the registry outcome.
class FeedbackLoop {
 public:
  FeedbackLoop(const ExecTable* execs, int retrain_every)
      : execs_(execs), retrain_every_(retrain_every) {}

  // Records `d`'s execution outcome; false when no precomputed result exists
  // for the served plan (a correctness failure: the served candidate set
  // differs from the offline one).
  bool record(OptimizerService& service, const Query& query,
              const ServeDecision& d);
  // Notes a finished background retrain (call between requests).
  void poll(const OptimizerService& service);
  // Waits for the in-flight retrain, if any, to reach the registry.
  void finish(const OptimizerService& service);

  std::vector<double> feedback_ms;  // per call, in call order
  std::vector<double> retrain_s;

 private:
  static std::uint64_t outcomes(const OptimizerService& service);

  const ExecTable* execs_;
  int retrain_every_;
  int since_retrain_ = 0;
  bool inflight_ = false;
  std::uint64_t outcomes_at_start_ = 0;
  double started_s_ = 0.0;
};

// Counter deltas of one phase, from the service's always-on stats.
struct CacheDelta {
  std::uint64_t score_hits = 0, score_lookups = 0;
  std::uint64_t enc_hits = 0, enc_lookups = 0;
};

struct PhaseResult {
  std::string name;
  double offered_rps = 0.0;
  double window_s = 0.0;  // first due time -> last submission
  std::size_t sent = 0, model_served = 0, shed = 0, fallback = 0;
  std::size_t rejected = 0, failed = 0;
  loam::obs::FixedBucketQuantile decide_ms = make_quantile();
  loam::obs::FixedBucketQuantile late_ms = make_quantile();
  loam::obs::FixedBucketQuantile queue_ms = make_quantile();  // model path
  // Per decision, in the order decisions settled: decision time (ms) and,
  // for model-served ones, when the decision was ready (s since the phase's
  // first due time).
  std::vector<double> decide_ms_seq;
  std::vector<double> model_done_s;
  std::uint64_t batches = 0;
  CacheDelta cache;
  double candidates_sum = 0.0;  // over model-served decisions
  std::vector<KeptDecision> kept;  // correctness sample (+ feedback epilogue)
  std::int64_t swap_pause_max_ns = 0;
};

// Median, over consecutive chunks of `chunk` samples, of each chunk's
// q-quantile (a single chunk when there are fewer samples). A host stall
// then moves one chunk instead of the reported figure.
double chunked_quantile(const std::vector<double>& samples, std::size_t chunk,
                        double q);
// Median over `bin_s`-second bins of [0, window_s) of events per second.
double binned_rate(const std::vector<double>& at_s, double window_s,
                   double bin_s);
double median(std::vector<double> v);

// What a phase keeps beyond its counters.
struct PhaseSinks {
  std::size_t check_stride = 0;   // keep every n-th model-served decision
  std::size_t check_max = 0;
  std::size_t keep_first = 0;     // plus the first n model-served decisions
  CostSample* cost = nullptr;     // model-served decisions' paired-replay sample
  FeedbackLoop* feedback = nullptr;  // live feedback as decisions resolve
};

// Open loop: request i is due at start + i / rps regardless of earlier
// decisions; its decision time counts from when it was due.
PhaseResult run_phase(OptimizerService& service, const char* name,
                      const std::vector<Query>& queries, double rps,
                      PhaseSinks sinks);

double seconds_since(std::int64_t start_ns);
std::int64_t now_ns();

// ---------------------------------------------------------------------------
// Offline checks (ledger.cc)
// ---------------------------------------------------------------------------

struct CheckResult {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  loam::obs::FixedBucketQuantile load_ms = make_quantile();  // registry loads
};

// Re-derives each decision with an independent explorer, encoder and the
// registry checkpoint of the version that served it; a decision matches only
// with the same candidate plans, the same chosen index and bit-identical
// predicted costs. Call with no retrain in flight.
CheckResult check_decisions(loam::core::ProjectRuntime& runtime,
                            OptimizerService& service,
                            const std::vector<const KeptDecision*>& sample);

// Paired-replay mean CPU cost of the served plans over that of the native
// default plans, each key replayed `runs` times under environments shared by
// both plans and weighted by how often it was served.
double cost_ratio(const CostSample& sample,
                  const loam::core::ProjectRuntime& runtime, int runs);

// Direct timings of the layers a decision passes through, on the stream's
// own queries: explore, each native optimize trial of the kept candidates,
// and encoding of every candidate with the service's encoder.
struct LayerProbe {
  loam::obs::FixedBucketQuantile explore_ms = make_quantile();
  double trials_per_query = 0.0;
  double candidates_per_query = 0.0;
  double optimize_us = 0.0;      // mean per trial
  double encode_us = 0.0;        // mean per plan
  double nodes_per_plan = 0.0;
};
LayerProbe probe_layers(const loam::core::ProjectRuntime& runtime,
                        const OptimizerService& service,
                        const std::vector<Query>& queries);

// Forward-pass floating-point work of one plan of `nodes` nodes through the
// predictor's tree convolutions, projection and cost head (dense count).
double infer_mflop(const loam::core::PredictorConfig& config, int input_dim,
                   double nodes);

// Durations (and args) of the spans the program records, by span name.
struct SpanStats {
  loam::obs::FixedBucketQuantile dur_ms = make_quantile();
  double arg_sum = 0.0;
};
// Adds every resident span whose name is a key of `into`, then empties the
// tracer's rings (so call it before a ring can wrap, with no request or
// retrain in flight).
void drain_spans(std::map<std::string, SpanStats>& into);

// Difference of one registry histogram between two snapshots.
struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HistDelta hist_delta(const loam::obs::RegistrySnapshot& before,
                     const loam::obs::RegistrySnapshot& after,
                     const std::string& name);

}  // namespace perfbench

#endif  // LOAM_PERFBENCH_PERFBENCH_H_
