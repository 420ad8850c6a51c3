// loam::serve pacing — BBR-style adaptive admission control and batch pacing
// for the optimizer service.
//
// The source paper's core loop maps one-to-one onto a serving queue: the
// "pipe" is the inference path (explore -> encode -> predict_batch), its
// *bottleneck bandwidth* is how many candidate plans it scores per second,
// and its *propagation delay* is the base admission->decision latency of an
// unqueued request. Instead of the loss-based policy the bounded FIFO gives
// us for free (fill up, then reject), the PacingController estimates both
// quantities with windowed max/min filters — the `maxQueue` idiom from the
// reference BBR implementation, repaired to the Linux win_minmax semantics
// its comment points at — and drives admission and batch size at the
// estimated bandwidth-delay product:
//
//   STARTUP  grow the batch target geometrically (gain 2x per round) while
//            each round still raises the windowed max bandwidth by at least
//            `full_bw_threshold`; `full_bw_rounds` flat rounds = plateau.
//   DRAIN    the startup overshoot left a standing queue: cap admission AT
//            the BDP until inflight sinks back to it.
//   STEADY   batch target = BDP, admission window = cwnd_gain * BDP.
//   PROBE    every `probe_interval_ticks`, run one round-trip with gain
//            `probe_gain` so a capacity increase can raise the max filter.
//
// In every state the admission window holds at least two batch quanta
// (inflight_floor()).
//
// Load beyond the admission window is SHED, never dropped: a shed request is
// served by the native optimizer's default plan (the paper's always-available
// fallback), so overload degrades the served-by-model fraction, not
// availability. The controller itself is pure state + arithmetic over
// caller-supplied timestamps ("ticks"; the service feeds steady-clock
// nanoseconds, tests feed virtual time), which makes every filter decision
// and state transition exactly reproducible.
//
// House rule: pacing changes *which path* (model vs. native) serves a request
// and *when* it is scored — never the scores. Model-served decisions are
// bit-identical with pacing on or off (asserted in tests/serve_test.cc).
#ifndef LOAM_SERVE_PACING_H_
#define LOAM_SERVE_PACING_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

namespace loam::serve {

// Windowed running-best filter over (timestamp, value) samples, tracking the
// best plus the second- and third-best "aging" samples so the estimate decays
// gracefully when the best leaves the window — win_minmax's repair of the
// three-slot maxQueue: a new sample that beats (or ties) a slot replaces it
// and everything after it; the 2nd/3rd best are promoted into sub-windows of
// a quarter and half the period so a stale runner-up cannot linger a full
// window behind the front sample. `Better(a, b)` orders a strictly better
// than b; expiry is strictly *after* the window edge (a sample exactly
// `window` ticks old still counts).
template <typename Better>
class WindowedFilter {
 public:
  struct Sample {
    std::int64_t t = 0;
    double v = 0.0;
  };

  explicit WindowedFilter(std::int64_t window) : window_(window) {}

  bool empty() const { return !has_; }
  std::int64_t window() const { return window_; }
  // The windowed best; 0.0 before the first sample.
  double best() const { return has_ ? s_[0].v : 0.0; }
  // Aging slots, best first (exposed for the table-driven filter tests).
  const Sample& slot(int i) const { return s_[i]; }

  void clear() { has_ = false; }

  void reset(std::int64_t t, double v) {
    s_[0] = s_[1] = s_[2] = Sample{t, v};
    has_ = true;
  }

  // Inserts a sample and returns the new windowed best.
  double update(std::int64_t t, double v) {
    if (!has_ || !Better{}(s_[0].v, v) || t - s_[2].t > window_) {
      // First sample, a new (or tied) best, or the whole window went stale.
      reset(t, v);
      return s_[0].v;
    }
    if (!Better{}(s_[1].v, v)) {
      s_[2] = s_[1] = Sample{t, v};
    } else if (!Better{}(s_[2].v, v)) {
      s_[2] = Sample{t, v};
    }
    if (t - s_[0].t > window_) {
      // The best expired: promote the aging runners-up.
      s_[0] = s_[1];
      s_[1] = s_[2];
      s_[2] = Sample{t, v};
      if (t - s_[0].t > window_) {
        s_[0] = s_[1];
        s_[1] = s_[2];
        s_[2] = Sample{t, v};
      }
    } else if (s_[1].t == s_[0].t && t - s_[0].t > window_ / 4) {
      // A lone best has held a quarter window: start aging a successor.
      s_[2] = s_[1] = Sample{t, v};
    } else if (s_[2].t == s_[1].t && t - s_[1].t > window_ / 2) {
      s_[2] = Sample{t, v};
    }
    return s_[0].v;
  }

 private:
  std::int64_t window_;
  Sample s_[3];
  bool has_ = false;
};

using WindowedMaxFilter = WindowedFilter<std::greater<double>>;
using WindowedMinFilter = WindowedFilter<std::less<double>>;

// All pacing timestamps/durations are in "ticks": steady-clock nanoseconds in
// the live service, arbitrary virtual units in tests. `ticks_per_second` is
// used only to report bandwidth in human units (plans/sec) to observability.
struct PacingConfig {
  bool enabled = false;

  std::int64_t bw_window_ticks = 500'000'000;      // max-filter window
  std::int64_t delay_window_ticks = 2'000'000'000; // min-filter window

  double startup_gain = 2.0;       // batch growth per STARTUP round
  double drain_gain = 0.5;         // DRAIN admission = drain_gain*cwnd_gain*BDP
  double probe_gain = 1.25;        // PROBE overshoot
  double cwnd_gain = 2.0;          // STEADY admission window, in BDPs
  double full_bw_threshold = 1.25; // STARTUP must keep growing by this factor
  int full_bw_rounds = 3;          // flat rounds before DRAIN

  int min_batch = 1;
  int max_batch = 64;              // ceiling for the adaptive batch target
  // Admission-window floor (requests). The controller never goes below
  // two batch quanta either (see inflight_floor()), so this only binds when
  // it exceeds twice the initial batch.
  double min_inflight = 4.0;

  // Oscillation floor: no state transition faster than one RTT-equivalent,
  // round_ticks() = max(min_round_ticks, windowed min delay).
  std::int64_t min_round_ticks = 1'000'000;
  std::int64_t probe_interval_ticks = 250'000'000;
  double ticks_per_second = 1e9;
};

class PacingController {
 public:
  enum class State : int { kStartup = 0, kDrain = 1, kSteady = 2, kProbe = 3 };

  // `initial_batch` seeds the batch target (typically ServeConfig::max_batch)
  // and sets the batch quantum of the admission floor.
  PacingController(const PacingConfig& config, int initial_batch);

  // One round = one completed inference batch. `requests`/`plans` are the
  // model-path counts of the batch, `service_ticks` its wall time,
  // `delay_ticks` the best observed admission->decision latency in the batch
  // (< 0 when the batch carried no model-path request), and `inflight` the
  // number of admitted-but-unresolved requests after the batch.
  void on_batch_complete(std::int64_t now, int requests, int plans,
                         std::int64_t service_ticks, std::int64_t delay_ticks,
                         double inflight);

  // Admission: false means shed this request to the native fallback path.
  bool admit(double inflight) const { return inflight < cwnd_; }

  int batch_target() const { return batch_target_; }
  double cwnd() const { return cwnd_; }
  State state() const { return state_; }
  std::int64_t state_since() const { return state_since_; }
  int rounds() const { return rounds_; }
  bool full_bw_reached() const { return full_bw_reached_; }

  double est_bw() const { return bw_filter_.best(); }  // plans per tick
  double est_bw_per_sec() const {
    return bw_filter_.best() * config_.ticks_per_second;
  }
  // Windowed base delay in ticks (0 before the first sample).
  std::int64_t est_min_delay_ticks() const {
    return static_cast<std::int64_t>(delay_filter_.best());
  }
  double est_min_delay_seconds() const {
    return delay_filter_.best() / config_.ticks_per_second;
  }
  double bdp_plans() const { return bw_filter_.best() * delay_filter_.best(); }
  // BDP converted to requests via the running plans-per-request estimate.
  double bdp_requests() const {
    return ppr_ > 0.0 ? bdp_plans() / ppr_ : 0.0;
  }
  double plans_per_request() const { return ppr_; }

  // Lowest admission window in any state: max(min_inflight, 2 x the
  // initial batch), one batch in service plus one forming. This is BBR's
  // quantization budget (Linux adds send quanta to cwnd so end hosts stay
  // busy): when the base delay is far below one batch's service time the
  // BDP falls under one request, and a window at the BDP would starve the
  // batcher while shedding everything else.
  double inflight_floor() const { return inflight_floor_; }

  // One RTT-equivalent: the transition dwell floor.
  std::int64_t round_ticks() const {
    return std::max(config_.min_round_ticks, est_min_delay_ticks());
  }

  const PacingConfig& config() const { return config_; }

  void reset(int initial_batch);

 private:
  void enter(State next, std::int64_t now);
  void advance_state(std::int64_t now, double inflight);
  void recompute_targets();
  int clamp_batch(double target) const;

  PacingConfig config_;
  WindowedMaxFilter bw_filter_;
  WindowedMinFilter delay_filter_;

  State state_ = State::kStartup;
  std::int64_t state_since_ = 0;
  std::int64_t last_probe_ = 0;
  double full_bw_ = 0.0;
  int flat_rounds_ = 0;
  bool full_bw_reached_ = false;
  double ppr_ = 0.0;  // EWMA of plans per request
  int rounds_ = 0;

  int batch_target_ = 1;
  double cwnd_ = 0.0;
  double inflight_floor_ = 0.0;
};

}  // namespace loam::serve

#endif  // LOAM_SERVE_PACING_H_
