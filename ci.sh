#!/usr/bin/env bash
# CI entry point: a release build plus sanitizer builds, all gated on the
# full test suite.  The TSan pass is what keeps the threaded engine and the
# lock-free-by-affinity transport stack honest; the ASan pass covers the
# rollback/recovery machinery, whose failure mode is use-after-free of
# checkpointed or fossil-collected event history rather than a data race.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "==> Release build"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DVSIM_SANITIZE= \
  > /dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> Contention: round barrier, threaded and distributed engines beside a CPU hog"
# The threaded engine's round barrier spins for a few microseconds before it
# parks, and load is what can break a spin: a waiter burning the core its
# late partner needs.  So the barrier's tests, the threaded suite and the
# threaded crash-recovery rows run again next to three busy-loop processes,
# and so do the fault-free distributed rows and the distributed seed sweep:
# their ranks keep executing through open GVT cuts, so a slow rank delays
# reports instead of stopping everyone, and load is what stretches that.
# The distributed crash-recovery rows run three times each beside the hog
# too: deaths are judged from EOF on the dead rank's sockets, so a slow
# rank must never be taken for a dead one.  On a failure their log --
# including any watchdog report -- is printed.
# Each hog is bounded by `timeout` and killed by PID when the step ends.
hog_pids=()
stop_hogs() {
  for pid in "${hog_pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${hog_pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  hog_pids=()
}
trap stop_hogs EXIT
for _ in 1 2 3; do
  timeout 900 sh -c 'while :; do :; done' &
  hog_pids+=("$!")
done
./build/tests/test_round_barrier
./build/tests/test_threaded
./build/tests/test_checkpoint --gtest_filter='CheckpointThreaded.*'
./build/tests/test_distributed --gtest_filter='Distributed.FourRankSocketRunMatchesOracle:Distributed.NativeCodegenFourRankMatchesOracle'
./build/tests/test_distributed_sweep
crash_log=build/contention_crash_rows.log
if ! ./build/tests/test_distributed --gtest_repeat=3 \
    --gtest_filter='Distributed.SigkilledRankRecoversToOracle:Distributed.NativeCodegenSigkillRecoversToOracle:Distributed.CascadingCoordinatorDeaths:Distributed.TwoDeathsTwoRecoveries' \
    > "$crash_log" 2>&1; then
  cat "$crash_log"
  exit 1
fi
stop_hogs
trap - EXIT

echo "==> Stress: 200-seed equivalence matrix vs the sequential oracle"
# The default ctest entry above ran the fast smoke sweep; this is the full
# determinism matrix (seeds x configurations x ordering modes) the hot-path
# overhaul is gated on.
VSIM_STRESS_SEEDS="${VSIM_STRESS_SEEDS:-200}" \
  ctest --test-dir build -L stress --output-on-failure

echo "==> Distributed smoke: 4-rank UDS mesh vs oracle + SIGKILL recovery"
# The full distributed suite already ran inside the ctest sweep above; this
# repeats the load-bearing scenarios as a named gate: a plain 4-process
# socket run must match the sequential oracle bit-exactly, a run whose
# rank 2 is SIGKILLed mid-flight must recover from the shipped checkpoints
# to the very same trace, and a run whose COORDINATOR (rank 0) is SIGKILLed
# must fail over to rank 1 and still commit the oracle trace exactly once.
# Chaos plus a kill must still match the oracle now that recovery resets
# the channel stack and the fault RNGs run on instead of rewinding.  Two
# more pin that deaths come from the kernel, not from a clock: with a
# one-minute heartbeat timeout, a killed worker and a killed coordinator
# are each recovered around in seconds, from the EOF on their sockets.
# The seed sweep runs the asynchronous GVT cuts over 12 random netlists
# and the IIR under kDynamic, all-optimistic and all-conservative, each
# against the oracle.
./build/tests/test_distributed --gtest_filter='Distributed.FourRankSocketRunMatchesOracle:Distributed.SigkilledRankRecoversToOracle:Distributed.CoordinatorKillRecoversToOracle:Distributed.ChaosPlusKillStillMatchesOracle:Distributed.WorkerDeathDetectedFromEof:Distributed.CoordinatorDeathDetectedFromEof'
./build/tests/test_distributed_sweep

echo "==> Codegen smoke: native backend bit-identical to the interpreter"
# The ctest sweep above already ran these rows; the named gate keeps the
# native-backend proof visible: the compiled counter design must trace
# bit-identically to the interpreter, and a warm re-elaboration must hit
# the .so cache instead of recompiling.  The full randomized differential
# matrix runs under the stress label above (CodegenDiff.* x 200 seeds).
ctest --test-dir build -L codegen_smoke --output-on-failure

echo "==> Clustered smoke: fused ClusterLps, threaded + 4-rank distributed"
# The full cluster suite (incl. the 100k-signal scale rows) already ran in
# the ctest sweep; this named gate re-runs the two load-bearing clustered
# equivalence rows -- a clustered threaded run and a clustered 4-process
# socket run must both match the flat sequential oracle bit-exactly.
ctest --test-dir build -L cluster_smoke --output-on-failure

echo "==> Adaptation smoke: IIR slice, dynamic vs all-optimistic at P=16"
# The regression gate for the kDynamic collapse on the feedback lattice:
# on the deterministic machine model, dynamic at P=16 must land within 80%
# of all-optimistic's makespan on the IIR (it used to collapse to ~26%).
ctest --test-dir build -L adapt_smoke --output-on-failure

echo "==> Scheduler smoke: ready queue vs reference scan, activity-bound rounds"
# The ctest sweep above already ran it; the named gate keeps the scheduler
# proof visible.  All three engines select through the one ReadyQueue, which
# must select in exactly the reference scan's (key, lp) order under random
# updates, parks, re-arms, fossil holds, migrations and rebuilds, and its
# fossil heap must hand a round exactly the held LPs strictly below GVT.
# On a ~20k-LP netlist, a threaded P=1 run and a machine-model P=16 run must
# each match the oracle while their round sweeps visit at most three LPs
# per processed event: round work tracks activity and commits, not
# rounds x LPs.  The label also carries the threaded round barrier's tests
# (completion step, leave, spin and park paths).
ctest --test-dir build -L sched --output-on-failure

echo "==> Doc links: no dangling DESIGN.md/README anchors or section refs"
# Section titles get renamed; quoted references in prose and code comments
# do not follow automatically.  The checker fails on markdown links to
# missing files/anchors and on quoted section references whose phrase no
# longer occurs in the named document.
python3 tools/check_doc_links.py

echo "==> Observability smoke: traced bench + report schema"
# One bench in trace mode: the FSM figure is the cheapest full sweep.  The
# run must produce both a Chrome-trace JSON and a valid BENCH_*.json; both
# are kept as CI artefacts (artifacts/ is the conventional upload dir).
ARTIFACTS="${ARTIFACTS:-artifacts}"
mkdir -p "$ARTIFACTS"
VSIM_TRACE="$ARTIFACTS/trace_fig6_fsm.json" VSIM_BENCH_DIR="$ARTIFACTS" \
  ./build/bench/bench_fig6_fsm > /dev/null
python3 tools/bench_diff.py --validate "$ARTIFACTS"/BENCH_*.json
python3 - "$ARTIFACTS/trace_fig6_fsm.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "empty trace"
assert all("ph" in e and "pid" in e for e in events), "malformed event"
print("OK %s (%d events)" % (sys.argv[1], len(events)))
EOF

echo "==> Perf gate: microbench, placement and figure reports vs committed baselines"
# The deterministic model_fsm speedup rows gate hard (>5% drop fails); the
# wall-clock micro rows are warn-only at 25% because this host is shared.
# The ablation binary runs its placement + adaptation sections only: the
# placement rows gate the dynamic rebalancer (and the static schemes it is
# measured against) so a planner change that costs placement quality shows
# up as a speedup drop; the adaptation rows gate the rate-based kDynamic
# controller against its ablated variants on the IIR collapse cell.
VSIM_BENCH_DIR="$ARTIFACTS" ./build/bench/bench_microbench \
  --benchmark_min_time=0.1 > /dev/null
VSIM_BENCH_DIR="$ARTIFACTS" ./build/bench/bench_ablation placement \
  adaptation > /dev/null
# Native-codegen speedup row: the committed baseline floor (1.4x) trips the
# diff below when the backend silently stops beating the interpreter.
VSIM_BENCH_DIR="$ARTIFACTS" ./build/bench/bench_codegen > /dev/null
# The four paper figures (~35 s together): their speedups gate here too, and
# the model identity step below checks them field for field.
for fig in fig4_ordering fig6_fsm fig8_iir fig10_dct; do
  VSIM_BENCH_DIR="$ARTIFACTS" "./build/bench/bench_$fig" > /dev/null
done
python3 tools/bench_diff.py --validate "$ARTIFACTS/BENCH_microbench.json" \
  "$ARTIFACTS/BENCH_ablation.json" "$ARTIFACTS/BENCH_codegen.json"
python3 tools/bench_diff.py bench/baseline "$ARTIFACTS"

echo "==> Model identity: bench_ablation and figure rows equal the baseline"
# The machine model is deterministic, so its rows must reproduce the
# baseline field for field -- every speedup and every counter, not just a
# speedup within tolerance.  A changed counter or checkpointing row means
# the modelled protocol changed; regenerate bench/baseline deliberately.
# Every ablation section but `clustering` (minutes on its own), plus the
# four paper figures the perf gate wrote.
mkdir -p "$ARTIFACTS/model"
VSIM_BENCH_DIR="$ARTIFACTS/model" ./build/bench/bench_ablation gvt_interval \
  partitioning cancellation transport_faults checkpointing history_cap \
  placement adaptation > /dev/null
cp "$ARTIFACTS"/BENCH_fig*.json "$ARTIFACTS/model/"
python3 tools/bench_diff.py --exact bench/baseline "$ARTIFACTS/model"

echo "==> AddressSanitizer build"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVSIM_SANITIZE=address > /dev/null
cmake --build build-asan -j "$JOBS"
# Sanitized binaries run several times slower, so the engine's wall-clock
# budgets (heartbeat timeout, connect deadline) are stretched via
# VSIM_TIME_SCALE -- otherwise a merely-slow rank under ASan is judged
# unresponsive and the run fails.
VSIM_TIME_SCALE="${VSIM_TIME_SCALE_ASAN:-4}" \
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
# The socket layer is the one module whose bugs UBSan is best placed to
# catch (raw byte decoding, offset arithmetic on frames); the ASan build
# above compiles with -fsanitize=address,undefined, so running the
# distributed label once more by name keeps the UBSan-over-net/ gate
# visible even if the aggregate suite is ever split.
VSIM_TIME_SCALE="${VSIM_TIME_SCALE_ASAN:-4}" \
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  ctest --test-dir build-asan -L distributed --output-on-failure

echo "==> ThreadSanitizer build"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVSIM_SANITIZE=thread > /dev/null
cmake --build build-tsan -j "$JOBS"
VSIM_TIME_SCALE="${VSIM_TIME_SCALE_TSAN:-8}" \
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
# The batch-mailbox corner tests once more, by label: the suite above runs
# them inside test_threaded, but the lock-light MPSC path is the piece TSan
# exists to keep honest, so its gate stays visible even if the aggregate
# binary is ever split.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan -L mailbox --output-on-failure
# Likewise the round barrier every threaded GVT round crosses: its spin,
# park and completion paths are plain atomics and one condition variable.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan -R '^test_round_barrier$' --output-on-failure

echo "==> Sanitizer fallback: native backend must refuse to dlopen"
# A TSan binary must never load the uninstrumented .so the codegen backend
# produces -- the sanitizer runtime cannot see into it and would report
# nonsense (or miss real races).  Asking the sanitized pipeline for the
# native backend has to print the one-time fallback notice and complete on
# the interpreter.
fallback_notice=$(cd "$ARTIFACTS" && VSIM_BACKEND=native \
    "$OLDPWD/build-tsan/examples/vhdl_source_sim" 2>&1 >/dev/null)
grep -q "falling back to interpreter" <<<"$fallback_notice"

echo "==> OK"
