#!/usr/bin/env bash
# Repo CI gate: staged pipeline with per-stage timing. Run from anywhere.
#
#   lint -> fmt -> unit -> integration -> docs -> bench-smoke -> ingest-bench
#     -> obs-smoke -> sweeps -> daemon-smoke -> pmbench
#
# Every run writes target/ci_timings.json (override: PM_CI_TIMINGS_JSON), a
# machine-readable ledger of {stage, seconds, status} rows plus an overall
# verdict — on early exit the in-flight stage is recorded as "fail" and its
# name printed, so a red pipeline names its culprit without log spelunking.
# The chaos sweeps share one wall-clock knob, PM_CI_BUDGET_SECS (default
# 120 per sweep run) — turn it down for a quick local pass, up for a soak
# run.
#
# lint        clippy over all targets, warnings are errors
# fmt         rustfmt check
# unit        library unit tests
# integration integration-test binaries (includes the parallel-determinism
#             and metrics-differential property suites and the
#             golden-snapshot fixtures)
# docs        doc tests (asserting pm-obs contributes documented examples),
#             then rustdoc with warnings as errors
# bench-smoke regenerates the parallel-pipeline benchmark in smoke mode and
#             gates on the committed baseline (scripts/bench_gate.sh):
#             report-equivalent and baseline report hashes on every
#             workload, and a measured wall-clock speedup of at least
#             1.0x on rows whose threads fit both the host's cores and
#             the workload's plan components
# ingest-bench
#             regenerates the ingest-throughput benchmark (stream decoder
#             vs zero-copy walker) in smoke mode and gates on the committed
#             baseline (scripts/bench_gate.sh ingest): identical=true on
#             every workload, stable report hashes, and the zero-copy
#             speedup within tolerance of scripts/ingest_baseline.json
# obs-smoke   metrics-overhead benchmark in smoke mode, failing if the
#             metrics-on slowdown exceeds PM_OBS_MAX_OVERHEAD_PCT (5%)
# sweeps      one loop runs each seeded chaos sweep as its own `sweep-<name>`
#             stage (`scripts/ci.sh sweep-serve` runs one): `pmdbg chaos
#             --sweep <name> --plans <n> --json` at the default seed, gated
#             on "ok":true, "aborts":0, "plans_run":<n>, the [zero]
#             counters and the {pinned} tallies (exact values; a
#             `group.name` pin matches inside that tally group). A violation
#             names its plan; `pmdbg chaos --sweep <name> --replay
#             <seed>:<index>` reruns exactly that plan.
#               name          plans  seed        faults -> violation kinds [zero] {pinned}
#               corrupt       500x2  806405      bit flips, cuts, splices, junk
#                             (both fixtures)    prefixes -> floor-violation
#                                                prefix-mismatch detector-mismatch
#                                                [panics]
#               supervise     200    0x5AFE0001  worker panics/delays/alloc
#                                                pressure -> casualty-mismatch
#                                                lost-event-mismatch survivor-
#                                                divergence {degraded_runs
#                                                faults_injected lost_events
#                                                quarantined_shards retries}
#               serve         200    0x5E551085  hostile clients -> hash-
#                                                divergence loss-mismatch ...
#                                                {ok_sessions quarantined_sessions
#                                                hash_checks frames_lost_total
#                                                retries_total}
#               thread-crash  100    0x7C4A5AD0  killed thread subsets ->
#                                                survivor-divergence
#                                                {killed_threads reports_agreed
#                                                surviving_events}
#               daemon-crash  100    0x7C4A5AD0  daemon kills, damaged journals
#                                                -> verdict-recomputed verdict-
#                                                diverged phantom-verdict
#                                                [verdicts_lost verdicts_duplicated]
#                                                {replayed_from_ledger resumed_from_
#                                                checkpoint torn_discarded_total}
#               mem-pressure  100    0x7C4A5AD0  starved budgets, allocator vetoes
#                                                -> verdict-divergence tracked-
#                                                bytes-leak ... [verdict_divergence]
#               crash-points  71     0xC4A05     crashes at every boundary of the
#                             (memcached x64)    CI trace -> unrecoverable
#                                                detector-finding {boundaries
#                                                images untested}
#               perturb       119    0xC4A05     one-event flush/fence/store/epoch
#                             (memcached x64)    faults -> tallies only
#                                                {<class>.injected .benign
#                                                .escaped for all 7 classes,
#                                                untested}
#             (every sweep can also report `abort`; full kinds: `pmdbg help`)
# daemon-smoke
#             start `pmdbg serve` as a real process, push the committed
#             btree fixture, assert the bug summary matches the golden
#             batch verdict, SIGTERM-drain, and check the exit-code
#             contract end to end
# pmbench     build release `pmdbg` and run the benchmark harness's own
#             tests: `pmbench/` is a separate cargo workspace that
#             `cargo test --workspace` never compiles, so this is what
#             catches an API change that breaks the benchmark
#
# Select a subset of stages by name: `scripts/ci.sh lint fmt unit`.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(lint fmt unit integration docs bench-smoke ingest-bench obs-smoke sweeps daemon-smoke pmbench)
fi

# Shared wall-clock budget for each chaos sweep run, in seconds.
PM_CI_BUDGET_SECS="${PM_CI_BUDGET_SECS:-120}"
BUDGET_MS=$((PM_CI_BUDGET_SECS * 1000))

TIMINGS_JSON="${PM_CI_TIMINGS_JSON:-target/ci_timings.json}"
declare -a TIMINGS=()
declare -a STAGE_NAMES=()
declare -a STAGE_SECS=()
declare -a STAGE_STATUS=()
CURRENT_STAGE=""
CURRENT_START=0

# Written on every exit path: one row per stage that ran, in order, with
# the in-flight stage (if the pipeline died mid-stage) recorded as "fail".
write_timings() {
  local code=$?
  if [ -n "${CURRENT_STAGE}" ]; then
    STAGE_NAMES+=("${CURRENT_STAGE}")
    STAGE_SECS+=($(($(date +%s) - CURRENT_START)))
    STAGE_STATUS+=("fail")
    echo "CI FAILED in stage: ${CURRENT_STAGE}" >&2
  fi
  mkdir -p "$(dirname "${TIMINGS_JSON}")"
  local ok="true"
  [ "${code}" -eq 0 ] || ok="false"
  {
    printf '{"schema":"pmdebugger-ci-timings-v1","ok":%s,"stages":[' "${ok}"
    local i
    for i in "${!STAGE_NAMES[@]}"; do
      [ "${i}" -gt 0 ] && printf ','
      printf '{"stage":"%s","seconds":%d,"status":"%s"}' \
        "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "${STAGE_STATUS[$i]}"
    done
    printf ']}\n'
  } >"${TIMINGS_JSON}"
  echo "stage timings written to ${TIMINGS_JSON}"
}
trap write_timings EXIT

run_stage() {
  local name="$1"
  shift
  echo "== ${name} =="
  CURRENT_STAGE="${name}"
  CURRENT_START=$(date +%s)
  "$@"
  local secs=$(($(date +%s) - CURRENT_START))
  CURRENT_STAGE=""
  STAGE_NAMES+=("${name}")
  STAGE_SECS+=("${secs}")
  STAGE_STATUS+=("pass")
  TIMINGS+=("$(printf '%-14s %4ds' "${name}" "${secs}")")
}

docs_stage() {
  cargo test -q --offline --workspace --doc
  # The observability crate's public API must stay documented-by-example:
  # its doctests are the executable half of the manifest schema doc.
  local obs_doctests
  obs_doctests=$(cargo test -q --offline -p pm-obs --doc 2>&1 | tee /dev/stderr |
    sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' | head -n1)
  if [ -z "${obs_doctests}" ] || [ "${obs_doctests}" -lt 3 ]; then
    echo "pm-obs must keep at least 3 passing doctests (found: ${obs_doctests:-none})" >&2
    exit 1
  fi
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q
}

# The sweep runs CI gates, one row each: sweep name, plan count, gated
# counters ("-" for none), then extra pmdbg args. A bare counter must be
# present and zero; `key=value` pins a tally to exactly that value, and
# `group.key=value` pins it inside the `group` object. Per fault class of
# the perturb sweep: injections, benign ones, and semantic ones that
# escaped all four detectors (the one torn store is a known blind spot).
PERTURB_PINS="drop-flush.injected=20,drop-flush.benign=0,drop-flush.escaped=0"
PERTURB_PINS+=",drop-fence.injected=14,drop-fence.benign=13,drop-fence.escaped=0"
PERTURB_PINS+=",duplicate-flush.injected=20,duplicate-flush.benign=20,duplicate-flush.escaped=0"
PERTURB_PINS+=",duplicate-fence.injected=14,duplicate-fence.benign=14,duplicate-fence.escaped=0"
PERTURB_PINS+=",reorder-flush-fence.injected=14,reorder-flush-fence.benign=13"
PERTURB_PINS+=",reorder-flush-fence.escaped=0,tear-store.injected=37,tear-store.benign=36"
PERTURB_PINS+=",tear-store.escaped=1,swap-epoch-markers.injected=0"
PERTURB_PINS+=",swap-epoch-markers.benign=0,swap-epoch-markers.escaped=0,untested=0"
SWEEP_NAMES=(corrupt supervise serve thread-crash daemon-crash mem-pressure crash-points perturb)
SWEEP_RUNS=(
  "corrupt 500 panics --trace tests/fixtures/btree_96.pmt2"
  "corrupt 500 panics --trace tests/fixtures/hashmap_atomic_48.trace"
  "supervise 200 degraded_runs=95,faults_injected=798,lost_events=13388,quarantined_shards=142,retries=225"
  "serve 200 ok_sessions=150,quarantined_sessions=25,hash_checks=175,frames_lost_total=910,retries_total=54"
  "thread-crash 100 killed_threads=283,reports_agreed=312,surviving_events=56410"
  "daemon-crash 100 verdicts_lost,verdicts_duplicated,replayed_from_ledger=119,resumed_from_checkpoint=71,torn_discarded_total=42"
  "mem-pressure 100 verdict_divergence"
  "crash-points 71 boundaries=71,images=149,untested=0"
  "perturb 119 ${PERTURB_PINS}"
)

sweep_stage() {
  local name="$1" row row_name plans zeros extra report gate key pin ran=0 rc
  for row in "${SWEEP_RUNS[@]}"; do
    read -r row_name plans zeros extra <<<"${row}"
    [ "${row_name}" = "${name}" ] || continue
    ran=$((ran + 1))
    [ "${zeros}" = "-" ] && zeros=""
    rc=0
    # shellcheck disable=SC2086 # extra is a word list by design
    report=$(cargo run -q --offline -p pm-cli -- chaos --sweep "${name}" \
      --plans "${plans}" --budget-ms "${BUDGET_MS}" --json ${extra}) || rc=$?
    # Every plan ran inside the budget, cleanly, each zero counter is
    # reported and never non-zero (corrupt reports `panics` per class), and
    # each pinned tally matches exactly.
    local gates=('"ok":true' '"aborts":0' "\"plans_run\":${plans}[,}]")
    for key in ${zeros//,/ }; do
      if [[ "${key}" == *=* ]]; then
        pin="${key%%=*}"
        if [[ "${pin}" == *.* ]]; then
          gates+=("\"${pin%%.*}\":{[^}]*\"${pin#*.}\":${key#*=}[,}]")
        else
          gates+=("\"${pin}\":${key#*=}[,}]")
        fi
        continue
      fi
      gates+=("\"${key}\":0")
      if grep -Eq "\"${key}\":[1-9]" <<<"${report}"; then rc=1; fi
    done
    for gate in "${gates[@]}"; do
      if [ "${rc}" -ne 0 ] || ! grep -q "${gate}" <<<"${report}"; then
        echo "sweep-${name} ${extra}: failed at ${gate} (exit ${rc}); rerun a" \
          "violation's plan with --replay <seed>:<plan_index>:" >&2
        echo "${report}" >&2
        exit 1
      fi
    done
    echo "sweep-${name} ${extra}: ok"
  done
  if [ "${ran}" -eq 0 ]; then
    echo "unknown sweep: ${name} (one of: ${SWEEP_NAMES[*]})" >&2
    exit 2
  fi
}

daemon_smoke_stage() {
  # Daemon smoke test: a real `pmdbg serve` process with real signals.
  # Push the committed fixture, check the bug summary against the golden
  # batch verdict (26 multiple-overwrites, the `pmdbg replay` hash), then
  # SIGTERM and check the drain and the exit-code contract (1 = bugs).
  cargo build -q --offline -p pm-cli
  local sock manifest response push_rc=0 serve_rc=0 serve_pid
  sock="/tmp/pmdbg-ci-$$.sock"
  manifest="/tmp/pmdbg-ci-$$.manifest.json"
  rm -f "${sock}" "${manifest}"
  target/debug/pmdbg serve --listen "${sock}" --metrics "${manifest}" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -S "${sock}" ] && break
    sleep 0.1
  done
  if [ ! -S "${sock}" ]; then
    echo "daemon-smoke: daemon never bound ${sock}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  response=$(target/debug/pmdbg push --addr "${sock}" \
    --trace tests/fixtures/btree_96.pmt2 --json) || push_rc=$?
  if [ "${push_rc}" -ne 1 ]; then
    echo "daemon-smoke: push should exit 1 (bugs found), got ${push_rc}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  if ! grep -q '"report_hash":"4fc95a913f0f9819"' <<<"${response}" ||
    ! grep -q '"kinds":{"multiple-overwrites":26}' <<<"${response}"; then
    echo "daemon-smoke: bug summary drifted from the golden batch verdict:" >&2
    echo "${response}" >&2
    kill "${serve_pid}" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "${serve_pid}"
  wait "${serve_pid}" || serve_rc=$?
  if [ "${serve_rc}" -ne 1 ]; then
    echo "daemon-smoke: serve should exit 1 (bugs across sessions), got ${serve_rc}" >&2
    exit 1
  fi
  if ! grep -q '"tool":"pmdbg-serve"' "${manifest}"; then
    echo "daemon-smoke: final manifest missing or malformed: ${manifest}" >&2
    exit 1
  fi
  if [ -S "${sock}" ]; then
    echo "daemon-smoke: socket not unlinked after drain" >&2
    exit 1
  fi
  rm -f "${manifest}"
  echo "daemon-smoke: ok"
}

pmbench_stage() {
  # The benchmark builds release `pmdbg` itself; build it first so the
  # harness tests exercise the binary this tree produces.
  cargo build --release --offline -p pm-cli
  cargo test --release --offline --manifest-path pmbench/Cargo.toml
}

obs_smoke_stage() {
  # Metrics-overhead gate: smoke-sized run, fail when metrics-on costs
  # more than PM_OBS_MAX_OVERHEAD_PCT (default 5% — the smoke inputs are
  # small enough that scheduler noise dominates below that).
  PM_BENCH_SMOKE=1 \
  PM_BENCH_JSON="${PM_OBS_JSON:-$(pwd)/target/obs_smoke.json}" \
  PM_OBS_MAX_OVERHEAD_PCT="${PM_OBS_MAX_OVERHEAD_PCT:-5}" \
    cargo bench -q --offline -p pm-bench --bench metrics_overhead
}

for stage in "${STAGES[@]}"; do
  case "${stage}" in
    lint)
      run_stage lint cargo clippy --workspace --all-targets --offline -- -D warnings
      ;;
    fmt)
      run_stage fmt cargo fmt --check
      ;;
    unit)
      run_stage unit cargo test -q --offline --workspace --lib
      ;;
    integration)
      run_stage integration cargo test -q --offline --workspace --tests
      ;;
    docs)
      run_stage docs docs_stage
      ;;
    bench-smoke)
      run_stage bench-smoke scripts/bench_gate.sh parallel
      ;;
    ingest-bench)
      run_stage ingest-bench scripts/bench_gate.sh ingest
      ;;
    obs-smoke)
      run_stage obs-smoke obs_smoke_stage
      ;;
    sweeps)
      for name in "${SWEEP_NAMES[@]}"; do
        run_stage "sweep-${name}" sweep_stage "${name}"
      done
      ;;
    sweep-*)
      run_stage "${stage}" sweep_stage "${stage#sweep-}"
      ;;
    daemon-smoke)
      run_stage daemon-smoke daemon_smoke_stage
      ;;
    pmbench)
      run_stage pmbench pmbench_stage
      ;;
    *)
      echo "unknown stage: ${stage}" >&2
      exit 2
      ;;
  esac
done

echo
echo "stage timings:"
for t in "${TIMINGS[@]}"; do
  echo "  ${t}"
done
echo "CI OK"
