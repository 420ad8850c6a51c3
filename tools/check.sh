#!/usr/bin/env bash
# CI-style verification: build and test the tree three times —
#   1. Release (the tier-1 configuration), full ctest suite, plus a
#      forced-scalar leg (LOAM_SIMD=off) re-running the dense-math and
#      serving suites with the SIMD dispatch pinned to the scalar arm;
#   2. ThreadSanitizer (-DLOAM_SANITIZE=thread), ctest minus `slow` label;
#   3. ASan+UBSan (-DLOAM_SANITIZE=address+undefined), ctest minus `slow`,
#      plus a per-arm alignment pass cycling LOAM_SIMD over
#      portable/avx2/avx512 for the SIMD kernel suites.
# The `slow` label marks the drift scenario suites (whole simulated days per
# test); Release runs them, the 10-20x sanitizer passes skip them — their
# concurrency surface (journal/registry/cache) is already covered by the
# serve suites that do run under both sanitizers.
# The TSan pass is what certifies the parallel explorer, the thread pool, the
# obs tracing rings, and the loam::serve hot-swap path free of data races; the
# ASan+UBSan pass catches lifetime and UB bugs in the journal/registry binary
# IO. The determinism property tests run under every configuration.
#
# Between the builds, Release smoke steps run:
#   - dense-math core perf (BENCH_nn_core.json, fails on non-bit-identity
#     or a blocked-GEMM speedup below 4x when a vector arm is dispatched);
#   - obs overhead (BENCH_obs.json, fails if disabled sites cost > 50 ns);
#   - CLI observability export (--metrics-out/--trace-out JSON validated with
#     python3 -m json.tool, trace summarized by tools/trace_summary.py, and
#     0 < loam.explorer.trials_elided < loam.explorer.trials asserted);
#   - CLI flag hygiene (an unknown flag must fail with usage, not be ignored);
#   - serving soak (loam_sim_cli serve) and serving latency/swap-pause bench
#     (BENCH_serve.json, fails if a swap ever pauses requests > 1 ms or the
#     queue-wait p50 reaches 0.2 ms);
#   - memoized-inference bench (BENCH_cache.json, fails on any cached-vs-
#     uncached or parallel-vs-serial divergence, if the warm selection
#     speedup falls below 1.5x, or unless the warm serve pass is served
#     entirely from the explore memo and decides as the cold pass did);
#   - overload/pacing bench (BENCH_pacing.json, fails if any request is
#     rejected at any load, or if p99 under 10x offered load exceeds 2x the
#     1x baseline — the BBR-style shed-to-fallback claim);
#   - multi-shard serving soak (loam_sim_cli serve --shards=4; per-shard
#     journal files must appear);
#   - workload-drift smoke (loam_sim_cli drift: a scripted schema migration +
#     flash crowd replayed under the flight recorder, dump validated by
#     obs_report.py; a script with an unknown key must be rejected);
#   - drift recovery bench (BENCH_drift.json, fails unless the modular
#     learner's time-to-recover beats the monolithic baseline on BOTH
#     localized-drift scenarios with the control project never rolled back).
# After the sanitizer passes, the last Release step runs:
#   - shard scale-out bench (BENCH_serve_scaling.json, fails if any request
#     is rejected, any shard's applied-swap pause exceeds 1 ms, or — on a
#     machine with >= 4 hardware threads — 4-shard model-path throughput
#     falls below 2.5x 1-shard).
# The pacing filter/state-machine tests (pacing_filter_test,
# pacing_controller_test), the serve overload soak, and the shard suite
# (shard_test: cross-shard hot-swap soak, rollback-while-sharded,
# fixed-shard-count bit-identity) run in every ctest pass above — the TSan
# pass is the 4-shard concurrency soak.
#
# Usage: tools/check.sh [jobs]
# Environment:
#   CHECK_JOBS       parallelism when no [jobs] argument is given
#                    (default: nproc)
#   BUILD_DIR        Release build directory (default: build-release)
#   TSAN_BUILD_DIR   TSan build directory   (default: build-tsan)
#   ASAN_BUILD_DIR   ASan+UBSan build directory (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-${CHECK_JOBS:-$(nproc)}}"
BUILD_DIR="${BUILD_DIR:-build-release}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"

echo "== Release build + tests =="
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== Forced-scalar leg (LOAM_SIMD=off) =="
# Re-run the dense-math, predictor, and serving suites with the SIMD
# dispatch pinned to the scalar arm: the fp32 results must be bit-identical
# to the vector arms (the single-fmaf-chain contract), so every suite that
# passed above must pass unchanged here.
LOAM_SIMD=off ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -j "${JOBS}" -R "Simd|Mat|Nn|Predictor|Serve|Service|Shard|Pacing"

echo "== Dense-math core perf smoke (BENCH_nn_core.json) =="
# Dispatched SIMD GEMM vs in-binary blocked + naive replicas and
# serial-vs-parallel training; the binary exits non-zero if parallel
# training is not bit-identical to serial, or if a vector arm (avx2/avx512)
# is dispatched and the best blocked-GEMM speedup falls below 4x (the gate
# self-skips with a notice on hosts without AVX2). The JSON is re-checked
# here so a stale file can never green-wash a failure.
"./${BUILD_DIR}/bench/bench_micro" --nn-core-only \
  --nn-core-json="${BUILD_DIR}/BENCH_nn_core.json"
python3 - "${BUILD_DIR}/BENCH_nn_core.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["simd_arch"] in {"scalar", "scalar+fma", "avx2", "avx512"}, doc
gate = doc["gemm_gate"]
if gate["binding"]:
    assert gate["best_speedup_vs_blocked"] >= 4.0, gate
else:
    print("NOTICE: 4x GEMM gate not binding (arm %s)" % doc["simd_arch"])
EOF

echo "== Observability overhead smoke (BENCH_obs.json) =="
# Disabled sites must stay in the nanoseconds (the one-branch contract).
"./${BUILD_DIR}/bench/bench_micro" --obs-overhead \
  --obs-json="${BUILD_DIR}/BENCH_obs.json"
python3 -m json.tool "${BUILD_DIR}/BENCH_obs.json" > /dev/null

echo "== Observability export smoke (loam_sim_cli --metrics-out/--trace-out) =="
# train exits 2 when the deployment gate rejects the model; for this smoke
# both 0 and 2 mean the pipeline ran end to end.
rc=0
"./${BUILD_DIR}/tools/loam_sim_cli" train 1 4 \
  --metrics-out="${BUILD_DIR}/obs_metrics.json" \
  --trace-out="${BUILD_DIR}/obs_trace.json" || rc=$?
if [[ "${rc}" != 0 && "${rc}" != 2 ]]; then
  echo "loam_sim_cli train failed with ${rc}" >&2
  exit "${rc}"
fi
python3 -m json.tool "${BUILD_DIR}/obs_metrics.json" > /dev/null
python3 -m json.tool "${BUILD_DIR}/obs_trace.json" > /dev/null
python3 tools/trace_summary.py "${BUILD_DIR}/obs_trace.json" --top 10
# Trial elision must be live: some trials elided, never all of them. The
# bit-identity suites cannot see elision being switched off; this can.
python3 - "${BUILD_DIR}/obs_metrics.json" <<'EOF'
import json, sys
counters = {m["name"]: m["value"] for m in json.load(open(sys.argv[1]))["metrics"]
            if m["type"] == "counter"}
trials = counters["loam.explorer.trials"]
elided = counters["loam.explorer.trials_elided"]
assert 0 < elided < trials, (elided, trials)
print("explorer trials elided: %d of %d" % (elided, trials))
EOF

echo "== CLI flag hygiene smoke (unknown flag must be rejected) =="
rc=0
"./${BUILD_DIR}/tools/loam_sim_cli" inspect 1 --definitely-not-a-flag \
  > /dev/null 2>&1 || rc=$?
if [[ "${rc}" == 0 ]]; then
  echo "loam_sim_cli accepted an unknown flag (expected non-zero exit)" >&2
  exit 1
fi

echo "== Serving soak smoke (loam_sim_cli serve) =="
rm -rf "${BUILD_DIR}/serve_state"
"./${BUILD_DIR}/tools/loam_sim_cli" serve 1 48 "${BUILD_DIR}/serve_state"
test -s "${BUILD_DIR}/serve_state/feedback.jnl"

echo "== Serving latency/hot-swap bench (BENCH_serve.json) =="
# Submits a request stream while hot-swapping model versions; exits non-zero
# if any swap pauses the request path for more than 1 ms. The sequential
# stream's queue-wait p50 must stay under 0.2 ms (the batch linger the
# work-conserving batcher replaced): a lone request is picked up at once.
"./${BUILD_DIR}/bench/bench_micro" --serve \
  --serve-json="${BUILD_DIR}/BENCH_serve.json"
python3 - "${BUILD_DIR}/BENCH_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["queue_wait_ms"]["p50"] < 0.2, doc["queue_wait_ms"]
EOF

echo "== Memoized-inference bench (BENCH_cache.json) =="
# Paired uncached-vs-cached selection sweep (bit-identity asserted in the
# binary), cold-vs-warm serve soak, serial-vs-parallel gate replay; exits
# non-zero on divergence or a warm selection speedup below 1.5x. The soak
# serves one stream three times (cold, a repeat that admits it into the
# explore memo, warm): every warm request must hit the explore memo and
# decide exactly as the cold pass did.
"./${BUILD_DIR}/bench/bench_micro" --cache \
  --cache-json="${BUILD_DIR}/BENCH_cache.json"
python3 - "${BUILD_DIR}/BENCH_cache.json" <<'EOF'
import json, sys
soak = json.load(open(sys.argv[1]))["serve_soak"]
explore = soak["explore"]
assert explore["warm_misses"] == 0 and explore["warm_hit_rate"] == 1.0, explore
assert explore["warm_hits"] == soak["requests_per_pass"], explore
assert soak["warm_matches_cold"] is True, soak
EOF

echo "== Overload/pacing bench (BENCH_pacing.json) =="
# Open-loop arrival phases at 1x/2x/5x/10x the saturated model-path capacity;
# the binary exits non-zero if anything is rejected or the 10x p99 blows past
# 2x the 1x baseline. The JSON gate is re-checked here so a stale file from
# an earlier run can never green-wash a failure.
"./${BUILD_DIR}/bench/bench_micro" --overload \
  --pacing-json="${BUILD_DIR}/BENCH_pacing.json"
python3 - "${BUILD_DIR}/BENCH_pacing.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["gate"]["pass"] is True, doc["gate"]
assert all(p["rejected"] == 0 for p in doc["phases"]), doc["phases"]
assert any(p["multiplier"] == 10 and p["shed"] > 0 for p in doc["phases"]), \
    "10x phase did not shed anything"
EOF

echo "== Multi-shard serving soak smoke (loam_sim_cli serve --shards=4) =="
rm -rf "${BUILD_DIR}/serve_state_sharded"
"./${BUILD_DIR}/tools/loam_sim_cli" serve 1 48 \
  "${BUILD_DIR}/serve_state_sharded" --paced --shards=4
for k in 0 1 2 3; do
  test -s "${BUILD_DIR}/serve_state_sharded/feedback.jnl.s${k}"
done

echo "== Flight-recorder smoke (--record --dump-on-alert + obs_report) =="
# Paced 4-shard soak with the recorder sampling at 25ms and a 32x burst at
# the end: 1024 fresh queries submitted by one thread per shard. A
# model-path request costs an exploration (a native optimize for each trial
# whose knob read-set does not repeat an earlier trial's, ~4-8 of ~10) plus
# scoring, a shed one a single native optimize, so every shard is overloaded
# by construction and sheds most of the burst (~0.8-0.9 in 10 of 10 runs
# before trial elision, 0.92 after it, on a 4-vCPU host). The
# serve.shed_ratio SLO rule must fire and leave an alert dump on disk
# (alongside any other incident and shutdown bundles).
# Every bundle must pass the obs_report schema validator and render.
rm -rf "${BUILD_DIR}/flight_state" "${BUILD_DIR}/flight_dumps"
mkdir -p "${BUILD_DIR}/flight_dumps"
"./${BUILD_DIR}/tools/loam_sim_cli" serve 1 32 "${BUILD_DIR}/flight_state" \
  --paced --shards=4 --record --record-interval=25 --dump-on-alert \
  --dump-out="${BUILD_DIR}/flight_dumps" --burst=32
ls "${BUILD_DIR}/flight_dumps"/*alert*.json > /dev/null
for dump in "${BUILD_DIR}/flight_dumps"/*.json; do
  python3 tools/obs_report.py --validate "${dump}"
done
dump=$(ls "${BUILD_DIR}/flight_dumps"/*.json | head -n 1)
python3 tools/obs_report.py "${dump}" --series loam.serve > /dev/null

echo "== Workload-drift smoke (loam_sim_cli drift --drift-script) =="
# A scripted schema migration plus a flash crowd replayed against the modular
# lifelong learner under the flight recorder; the shutdown bundle must carry
# the "drift" scenario state table and loam.drift.* metric history.
rm -rf "${BUILD_DIR}/drift_state" "${BUILD_DIR}/drift_dumps"
mkdir -p "${BUILD_DIR}/drift_dumps"
cat > "${BUILD_DIR}/drift_script.json" <<'EOF'
{"events": [
  {"kind": "schema_migration", "day": 2, "project": "main", "table": 0,
   "add_columns": 2, "drop_columns": 1, "row_growth": 4.0},
  {"kind": "flash_crowd", "day": 3, "project": "main", "multiplier": 4.0,
   "duration_days": 2}
]}
EOF
"./${BUILD_DIR}/tools/loam_sim_cli" drift 1 5 "${BUILD_DIR}/drift_state" \
  --drift-script="${BUILD_DIR}/drift_script.json" \
  --record --record-interval=25 --dump-on-alert \
  --dump-out="${BUILD_DIR}/drift_dumps"
test -s "${BUILD_DIR}/drift_state/main/feedback.jnl"
for dump in "${BUILD_DIR}/drift_dumps"/*.json; do
  python3 tools/obs_report.py --validate "${dump}"
done
dump=$(ls "${BUILD_DIR}/drift_dumps"/*.json | head -n 1)
python3 tools/obs_report.py "${dump}" --series loam.drift \
  | grep -q "loam.drift.migrations"
# Unknown-key rejection: a typo'd script field must fail loudly, matching
# the unknown-flag policy.
cat > "${BUILD_DIR}/drift_script_bad.json" <<'EOF'
{"events": [
  {"kind": "flash_crowd", "day": 1, "project": "main", "multipler": 2.0}
]}
EOF
rc=0
"./${BUILD_DIR}/tools/loam_sim_cli" drift 1 2 "${BUILD_DIR}/drift_state" \
  --drift-script="${BUILD_DIR}/drift_script_bad.json" \
  > /dev/null 2>&1 || rc=$?
if [[ "${rc}" == 0 ]]; then
  echo "loam_sim_cli accepted a drift script with an unknown key" >&2
  exit 1
fi

echo "== Drift recovery bench (BENCH_drift.json) =="
# Two localized-drift scenarios x (modular | monolithic); the binary exits
# non-zero unless modular time-to-recover is strictly better on both and the
# control project is never rolled back. The JSON gate is re-checked here so a
# stale file from an earlier run can never green-wash a failure.
"./${BUILD_DIR}/bench/bench_micro" --drift \
  --drift-json="${BUILD_DIR}/BENCH_drift.json"
python3 - "${BUILD_DIR}/BENCH_drift.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["gate"]["pass"] is True, doc["gate"]
assert doc["gate"]["modular_faster_everywhere"] is True, doc["gate"]
assert doc["gate"]["control_clean"] is True, doc["gate"]
names = {s["name"] for s in doc["scenarios"]}
assert names == {"schema_migration", "template_rotation"}, names
for s in doc["scenarios"]:
    assert s["modular"]["ttr_days"] < s["monolithic"]["ttr_days"], s["name"]
    assert s["modular"]["control_rollbacks"] == 0, s["name"]
EOF

echo "== ThreadSanitizer build + tests =="
cmake -B "${TSAN_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLOAM_SANITIZE=thread
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" -LE slow

echo "== ASan+UBSan build + tests =="
cmake -B "${ASAN_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLOAM_SANITIZE=address+undefined
cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" -LE slow

echo "== UBSan alignment pass over the SIMD kernels, per arm =="
# The kernel suites under ASan+UBSan with the dispatch pinned to each arm
# in turn: unaligned vector loads/stores and masked-tail overruns trip the
# sanitizer here. Arms
# the host cannot run are skipped by the dispatch fallback.
for arm in portable avx2 avx512; do
  LOAM_SIMD="${arm}" ctest --test-dir "${ASAN_BUILD_DIR}" \
    --output-on-failure -j "${JOBS}" -R "Simd|MatKernel"
done

echo "== Shard scale-out bench (BENCH_serve_scaling.json) =="
# Runs last so that a failure here cannot stop the drift legs and the
# sanitizer passes above it: on a 4-vCPU host the 4-vs-1 throughput leg has
# measured 1.7-2.0x since the batcher became work-conserving (ROADMAP item
# 1), and the script still exits non-zero when it fails.
# Closed-loop sweep over 1/2/4/8 shards with continuous hot-swap plus a
# burst phase; the binary exits non-zero on any rejection, a per-shard
# applied-swap pause over 1 ms, or (with >= 4 hardware threads) a 4-shard
# speedup below 2.5x. The JSON gate is re-checked here so a stale file from
# an earlier run can never green-wash a failure.
"./${BUILD_DIR}/bench/bench_micro" --serve-scaling \
  --serve-scaling-json="${BUILD_DIR}/BENCH_serve_scaling.json"
python3 - "${BUILD_DIR}/BENCH_serve_scaling.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["gate"]["pass"] is True, doc["gate"]
assert doc["gate"]["rejected"] == 0, doc["gate"]
assert doc["gate"]["swap_pause_max_us"] < 1000.0, doc["gate"]
sweeps = {s["num_shards"]: s for s in doc["sweeps"]}
assert set(sweeps) == {1, 2, 4, 8}, sorted(sweeps)
if doc["hardware_concurrency"] >= 4:
    assert sweeps[4]["model_rps"] >= 2.5 * sweeps[1]["model_rps"], doc["gate"]
# Every sweep's burst must shed on at least one shard instead of rejecting.
for s in sweeps.values():
    assert s["rejected"] == 0, s
    assert any(r > 0 for r in s["burst_shed_rate"]), s
EOF

echo "== check.sh: all configurations green =="
