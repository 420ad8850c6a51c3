// State-machine tests for the BBR-style PacingController: unit checks of the
// admission window and STARTUP growth, a property test that drives seeded
// random load traces (Rng::fork) through a synthetic service model and
// asserts the machine's invariants after every round, the two-batch
// admission floor at a sub-request BDP, and a golden-trace regression for one
// fixed configuration (values pinned from a reference run; the sim keeps
// queue arithmetic integral so the trace is stable across optimization
// levels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/pacing.h"
#include "util/rng.h"

namespace loam::serve {
namespace {

using State = PacingController::State;

PacingConfig test_config() {
  PacingConfig cfg;
  cfg.enabled = true;
  cfg.bw_window_ticks = 2000;
  cfg.delay_window_ticks = 8000;
  cfg.min_round_ticks = 10;
  cfg.probe_interval_ticks = 1000;
  cfg.ticks_per_second = 1e6;
  return cfg;
}

// One round of the synthetic service: the batch target is always fillable
// (overload), service time is a fixed per-batch overhead plus plans/capacity,
// and queued arrivals stretch the observed delay proportionally. Returns the
// inflight value fed to the controller.
struct Sim {
  double capacity;        // plans per tick
  int ppr;                // plans per request
  std::int64_t overhead;  // fixed per-batch service overhead, ticks
  std::int64_t now = 0;

  double step(PacingController& pc, double offered) {
    const int requests = pc.batch_target();
    const int plans = requests * ppr;
    const std::int64_t service =
        overhead + static_cast<std::int64_t>(
                       std::ceil(static_cast<double>(plans) / capacity));
    const double inflight = std::min(offered, pc.cwnd());
    const std::int64_t infl_i = static_cast<std::int64_t>(inflight);
    const std::int64_t queue_extra =
        infl_i > requests ? (infl_i - requests) * service / requests : 0;
    now += service;
    pc.on_batch_complete(now, requests, plans, service, service + queue_extra,
                         inflight);
    return inflight;
  }
};

TEST(PacingController, InitialStateAndAdmissionBoundary) {
  PacingController pc(test_config(), 4);
  EXPECT_EQ(pc.state(), State::kStartup);
  EXPECT_EQ(pc.batch_target(), 4);
  EXPECT_EQ(pc.rounds(), 0);
  EXPECT_FALSE(pc.full_bw_reached());
  // Cold-start window: startup_gain * batch (= 8), floored at min_inflight.
  EXPECT_EQ(pc.cwnd(), 8.0);
  EXPECT_TRUE(pc.admit(0.0));
  EXPECT_TRUE(pc.admit(7.9));
  EXPECT_FALSE(pc.admit(8.0));  // admission is strict: inflight < cwnd
  EXPECT_FALSE(pc.admit(9.0));
}

TEST(PacingController, StartupGrowsBatchGeometrically) {
  PacingConfig cfg = test_config();
  cfg.max_batch = 64;
  PacingController pc(cfg, 4);
  Sim sim{/*capacity=*/4.0, /*ppr=*/8, /*overhead=*/5};
  std::vector<int> targets;
  for (int i = 0; i < 5; ++i) {
    sim.step(pc, /*offered=*/1000.0);
    targets.push_back(pc.batch_target());
  }
  // 4 doubles each round until the ceiling.
  EXPECT_EQ(targets, (std::vector<int>{8, 16, 32, 64, 64}));
  EXPECT_EQ(pc.state(), State::kStartup);
}

TEST(PacingController, ShedOnlyRoundsDoNotPoisonTheFilters) {
  PacingController pc(test_config(), 4);
  // A batch that carried only shed requests reports no model-path work:
  // requests == 0, no service time, delay < 0.
  for (int i = 0; i < 10; ++i) {
    pc.on_batch_complete(/*now=*/100 * (i + 1), /*requests=*/0, /*plans=*/0,
                         /*service_ticks=*/0, /*delay_ticks=*/-1,
                         /*inflight=*/0.0);
  }
  EXPECT_EQ(pc.est_bw(), 0.0);
  EXPECT_EQ(pc.est_min_delay_ticks(), 0);
  EXPECT_EQ(pc.bdp_requests(), 0.0);
  EXPECT_EQ(pc.rounds(), 10);
  EXPECT_GE(pc.batch_target(), 1);
  EXPECT_GE(pc.cwnd(), pc.config().min_inflight);
}

TEST(PacingController, ResetRestoresColdStart) {
  PacingController pc(test_config(), 4);
  Sim sim{4.0, 8, 5};
  for (int i = 0; i < 50; ++i) sim.step(pc, 40.0);
  ASSERT_NE(pc.state(), State::kStartup);
  ASSERT_GT(pc.est_bw(), 0.0);
  pc.reset(4);
  EXPECT_EQ(pc.state(), State::kStartup);
  EXPECT_EQ(pc.batch_target(), 4);
  EXPECT_EQ(pc.cwnd(), 8.0);
  EXPECT_EQ(pc.rounds(), 0);
  EXPECT_EQ(pc.est_bw(), 0.0);
  EXPECT_EQ(pc.est_min_delay_ticks(), 0);
  EXPECT_FALSE(pc.full_bw_reached());
}

// Property test: seeded random service shapes and offered-load traces. After
// every round the controller must satisfy its invariants; over the whole
// trace the state machine must take the canonical path.
TEST(PacingController, RandomTracesHoldInvariants) {
  Rng base(1234);
  for (std::uint64_t trace = 0; trace < 6; ++trace) {
    Rng rng = base.fork(trace);
    SCOPED_TRACE("trace " + std::to_string(trace));
    PacingConfig cfg = test_config();
    PacingController pc(cfg, 4);
    Sim sim{/*capacity=*/static_cast<double>(rng.uniform_int(1, 8)),
            /*ppr=*/static_cast<int>(rng.uniform_int(2, 20)),
            /*overhead=*/rng.uniform_int(1, 20)};

    State prev = pc.state();
    std::int64_t last_transition = 0;
    bool seen_drain = false;
    bool seen_steady = false;
    for (int round = 0; round < 300; ++round) {
      const double offered = static_cast<double>(rng.uniform_int(1, 200));
      sim.step(pc, offered);
      SCOPED_TRACE("round " + std::to_string(round));

      // The batch target and admission window never leave their bounds.
      ASSERT_GE(pc.batch_target(), 1);
      ASSERT_LE(pc.batch_target(), cfg.max_batch);
      ASSERT_GE(pc.cwnd(), cfg.min_inflight);
      // The bandwidth estimate cannot exceed the simulated bottleneck.
      ASSERT_LE(pc.est_bw(), sim.capacity + 1e-12);

      if (pc.state() != prev) {
        // No oscillation faster than one RTT-equivalent window: every
        // transition waits out at least the dwell floor.
        ASSERT_GE(sim.now - last_transition, cfg.min_round_ticks);
        // DRAIN is only entered from STARTUP, and only after the bandwidth
        // plateau was detected.
        if (pc.state() == State::kDrain) {
          ASSERT_EQ(prev, State::kStartup);
          ASSERT_TRUE(pc.full_bw_reached());
          seen_drain = true;
        }
        // The first exit from STARTUP is into DRAIN, never directly beyond.
        if (prev == State::kStartup) {
          ASSERT_EQ(pc.state(), State::kDrain);
        }
        if (pc.state() == State::kSteady) seen_steady = true;
        last_transition = sim.now;
        prev = pc.state();
      } else {
        // While parked in a state, the machine must not silently restart its
        // dwell clock.
        ASSERT_EQ(pc.state_since(), last_transition);
      }
    }
    EXPECT_TRUE(seen_drain);
    EXPECT_TRUE(seen_steady);
    EXPECT_TRUE(pc.full_bw_reached());
  }
}

// A base delay far below one batch's service time puts the BDP under one
// request. The admission window must still hold two batch quanta (one in
// service, one forming) in every state — otherwise cwnd collapses to
// min_inflight and the controller sheds load the shard could serve.
TEST(PacingController, AdmissionFloorHoldsTwoBatchesWhenBdpIsTiny) {
  PacingConfig cfg = test_config();
  cfg.min_inflight = 2.0;
  const int initial_batch = 8;
  PacingController pc(cfg, initial_batch);
  const double floor = 2.0 * initial_batch;
  EXPECT_EQ(pc.inflight_floor(), floor);

  std::int64_t now = 0;
  bool seen[4] = {false, false, false, false};
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // 10 plans per request at 125 ticks per request (a constant 0.08
    // plans/tick), while the delay sample is only 10 ticks: BDP = 0.08
    // requests. Offered load always fills the window.
    const int requests = pc.batch_target();
    const std::int64_t service = 125 * requests;
    now += service;
    pc.on_batch_complete(now, requests, 10 * requests, service,
                         /*delay_ticks=*/10, /*inflight=*/pc.cwnd());
    ASSERT_LT(pc.bdp_requests(), 1.0);
    ASSERT_GE(pc.cwnd(), floor);
    // At a sub-request BDP the steady window is exactly the floor.
    if (pc.state() == State::kSteady) {
      ASSERT_EQ(pc.cwnd(), floor);
    }
    seen[static_cast<int>(pc.state())] = true;
  }
  // The floor must not trap the machine: it still drains, settles, and
  // probes.
  EXPECT_TRUE(seen[static_cast<int>(State::kDrain)]);
  EXPECT_TRUE(seen[static_cast<int>(State::kSteady)]);
  EXPECT_TRUE(seen[static_cast<int>(State::kProbe)]);
}

// Golden-trace regression: fixed service shape, constant offered load. The
// transition schedule and final estimates are pinned from a reference run;
// any change to filter or state-machine arithmetic shows up here.
TEST(PacingController, GoldenTraceRegression) {
  PacingController pc(test_config(), 4);
  Sim sim{/*capacity=*/4.0, /*ppr=*/8, /*overhead=*/5};

  struct Transition {
    int round;
    std::int64_t now;
    State from, to;
    int batch;
    double cwnd;
  };
  std::vector<Transition> got;
  State prev = pc.state();
  for (int round = 1; round <= 120; ++round) {
    sim.step(pc, /*offered=*/40.0);
    if (pc.state() != prev) {
      got.push_back(
          {round, sim.now, prev, pc.state(), pc.batch_target(), pc.cwnd()});
      prev = pc.state();
    }
  }

  const std::vector<Transition> want = {
      {6, 406, State::kStartup, State::kDrain, 13, 12.511278},
      {7, 437, State::kDrain, State::kSteady, 13, 25.022556},
      {40, 1460, State::kSteady, State::kProbe, 16, 31.278195},
      {41, 1497, State::kProbe, State::kSteady, 13, 25.022556},
      {74, 2514, State::kSteady, State::kProbe, 15, 28.108108},
      {75, 2549, State::kProbe, State::kSteady, 12, 22.486486},
      {110, 3564, State::kSteady, State::kProbe, 14, 27.857143},
      {111, 3597, State::kProbe, State::kSteady, 12, 22.285714},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    EXPECT_EQ(got[i].round, want[i].round);
    EXPECT_EQ(got[i].now, want[i].now);
    EXPECT_EQ(got[i].from, want[i].from);
    EXPECT_EQ(got[i].to, want[i].to);
    EXPECT_EQ(got[i].batch, want[i].batch);
    EXPECT_NEAR(got[i].cwnd, want[i].cwnd, 1e-6);
  }

  EXPECT_EQ(sim.now, 3858);
  EXPECT_EQ(pc.state(), State::kSteady);
  EXPECT_EQ(pc.batch_target(), 12);
  EXPECT_NEAR(pc.cwnd(), 22.285714285714285, 1e-9);
  EXPECT_NEAR(pc.est_bw(), 3.4285714285714284, 1e-12);
  EXPECT_EQ(pc.est_min_delay_ticks(), 26);
  EXPECT_NEAR(pc.bdp_requests(), 11.142857142857142, 1e-9);
  EXPECT_EQ(pc.plans_per_request(), 8.0);
  EXPECT_EQ(pc.rounds(), 120);
}

}  // namespace
}  // namespace loam::serve
