#include "serve/pacing.h"

namespace loam::serve {

PacingController::PacingController(const PacingConfig& config,
                                   int initial_batch)
    : config_(config),
      bw_filter_(config.bw_window_ticks),
      delay_filter_(config.delay_window_ticks) {
  reset(initial_batch);
}

void PacingController::reset(int initial_batch) {
  bw_filter_.clear();
  delay_filter_.clear();
  state_ = State::kStartup;
  state_since_ = 0;
  last_probe_ = 0;
  full_bw_ = 0.0;
  flat_rounds_ = 0;
  full_bw_reached_ = false;
  ppr_ = 0.0;
  rounds_ = 0;
  batch_target_ = clamp_batch(initial_batch);
  inflight_floor_ =
      std::max(config_.min_inflight, 2.0 * static_cast<double>(batch_target_));
  // Before any sample the window is permissive (STARTUP must be able to fill
  // the pipe to measure it); the floor still bounds a cold-start stampede.
  cwnd_ = std::max(inflight_floor_,
                   config_.startup_gain * static_cast<double>(batch_target_));
}

int PacingController::clamp_batch(double target) const {
  const double up = std::ceil(target);
  const double lo = static_cast<double>(std::max(1, config_.min_batch));
  const double hi = static_cast<double>(std::max(config_.min_batch,
                                                 config_.max_batch));
  return static_cast<int>(std::clamp(up, lo, hi));
}

void PacingController::on_batch_complete(std::int64_t now, int requests,
                                         int plans,
                                         std::int64_t service_ticks,
                                         std::int64_t delay_ticks,
                                         double inflight) {
  if (requests > 0 && service_ticks > 0) {
    bw_filter_.update(now, static_cast<double>(plans) /
                               static_cast<double>(service_ticks));
    const double batch_ppr =
        static_cast<double>(plans) / static_cast<double>(requests);
    ppr_ = ppr_ == 0.0 ? batch_ppr : 0.75 * ppr_ + 0.25 * batch_ppr;
  }
  if (delay_ticks >= 0) {
    delay_filter_.update(now, static_cast<double>(std::max<std::int64_t>(
                                  delay_ticks, 1)));
  }
  ++rounds_;
  advance_state(now, inflight);
  recompute_targets();
}

void PacingController::enter(State next, std::int64_t now) {
  state_ = next;
  state_since_ = now;
}

void PacingController::advance_state(std::int64_t now, double inflight) {
  // The dwell floor: every transition waits out at least one RTT-equivalent
  // window, so the machine cannot flap on per-batch noise.
  const bool dwelled = now - state_since_ >= round_ticks();
  switch (state_) {
    case State::kStartup: {
      // Plateau detection: a round that fails to raise the windowed max by
      // full_bw_threshold is "flat"; full_bw_rounds flat rounds in a row
      // mean the pipe is full and the overshoot must be drained.
      const double bw = bw_filter_.best();
      if (bw >= full_bw_ * config_.full_bw_threshold || full_bw_ == 0.0) {
        full_bw_ = bw;
        flat_rounds_ = 0;
      } else if (++flat_rounds_ >= config_.full_bw_rounds && dwelled) {
        full_bw_reached_ = true;
        enter(State::kDrain, now);
      }
      break;
    }
    case State::kDrain:
      // The standing queue built during STARTUP has drained once inflight is
      // back at (or under) the BDP.
      if (dwelled && inflight <= std::max(bdp_requests(), inflight_floor_)) {
        enter(State::kSteady, now);
        last_probe_ = now;
      }
      break;
    case State::kSteady:
      if (dwelled && now - last_probe_ >= config_.probe_interval_ticks) {
        enter(State::kProbe, now);
      }
      break;
    case State::kProbe:
      // One round-trip of overshoot, then settle; the max filter keeps any
      // bandwidth the probe uncovered.
      if (dwelled) {
        last_probe_ = now;
        enter(State::kSteady, now);
      }
      break;
  }
}

void PacingController::recompute_targets() {
  const double bdp_r = bdp_requests();
  switch (state_) {
    case State::kStartup:
      // Geometric growth per round, BBR's high-gain ramp: overshoot is the
      // point — the plateau cannot be seen without driving past it.
      batch_target_ = clamp_batch(
          std::max(static_cast<double>(batch_target_) * config_.startup_gain,
                   static_cast<double>(batch_target_ + 1)));
      cwnd_ = std::max({inflight_floor_,
                        config_.startup_gain * static_cast<double>(batch_target_),
                        config_.cwnd_gain * bdp_r});
      break;
    case State::kDrain:
      batch_target_ = clamp_batch(bdp_r);
      // Admission capped at drain_gain * the steady window (= 1 BDP with the
      // defaults): arrivals beyond it shed while the backlog empties.
      cwnd_ = std::max(inflight_floor_,
                       config_.drain_gain * config_.cwnd_gain * bdp_r);
      break;
    case State::kSteady:
      batch_target_ = clamp_batch(bdp_r);
      cwnd_ = std::max(inflight_floor_, config_.cwnd_gain * bdp_r);
      break;
    case State::kProbe:
      batch_target_ = clamp_batch(config_.probe_gain * bdp_r);
      cwnd_ = std::max(inflight_floor_,
                       config_.probe_gain * config_.cwnd_gain * bdp_r);
      break;
  }
}

}  // namespace loam::serve
