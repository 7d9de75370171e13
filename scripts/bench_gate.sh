#!/usr/bin/env bash
# Perf-regression gate for the benchmark suites, one schema per suite.
#
#   scripts/bench_gate.sh [parallel|ingest] [--update-baseline]
#
# parallel (default) — the parallel_pipeline bench in smoke mode vs
#   scripts/bench_baseline.json. Every speedup is measured wall clock
#   (1-thread time over N-thread time on this machine):
#
#   * every workload must be report-equivalent (parallel == sequential
#     hash) and its report_hash must match the baseline: the smoke inputs
#     are deterministic, so a drifting hash means the detection rules or
#     the merge changed without a baseline refresh — always a hard failure
#   * a (workload, threads>1) row is speed-gated only when a measurement
#     can show a speedup: threads <= the fresh run's `cores` and the
#     workload's plan has components >= threads. A gated row fails below
#     1.0x, i.e. when N workers are slower than one. Oversubscribed rows
#     (more threads than cores) and rows with fewer components than
#     threads are printed for information but not gated
#
# ingest — the ingest_throughput bench (stream decoder vs zero-copy
#   walker) in smoke mode vs scripts/ingest_baseline.json:
#
#   * every workload must report identical=true (the walker's events,
#     accounting and detection hash match the stream decoder's) — always
#     a hard failure, never tolerance-gated
#   * every workload's report_hash must match the baseline: the smoke
#     inputs are deterministic, so a drifting hash means the decoder or
#     the detection rules changed without a baseline refresh
#   * workloads with >= 100k events are speed-gated: the fresh zero-copy
#     speedup must be within 10% (minus the 0.12x absolute margin) of
#     the baseline. The tiny fixture workloads decode in microseconds,
#     where timer noise swamps any real regression — printed as info.
#     Note the smoke-sized input is cache-resident, unlike the
#     full-size run committed as BENCH_ingest.json; the gate tracks the
#     smoke baseline, it does not re-assert the full-size numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

SCHEMA="parallel"
if [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; then
  SCHEMA="$1"
  shift
fi

TOLERANCE="0.10"
ABS_MARGIN="0.12"

case "${SCHEMA}" in
  parallel)
    BASELINE="scripts/bench_baseline.json"
    FRESH="target/bench_smoke.json"
    BENCH="parallel_pipeline"
    GATE_FLOOR="1.0"
    ;;
  ingest)
    BASELINE="scripts/ingest_baseline.json"
    FRESH="target/ingest_smoke.json"
    BENCH="ingest_throughput"
    GATE_MIN_EVENTS="100000"
    ;;
  *)
    echo "bench_gate: unknown schema '${SCHEMA}' (expected parallel or ingest)" >&2
    exit 2
    ;;
esac

mkdir -p target
PM_BENCH_SMOKE=1 PM_BENCH_JSON="$(pwd)/${FRESH}" \
  cargo bench -q --offline -p pm-bench --bench "${BENCH}"

if [ "${1:-}" = "--update-baseline" ]; then
  cp "${FRESH}" "${BASELINE}"
  echo "bench_gate: ${SCHEMA} baseline updated (${BASELINE})"
  exit 0
fi

if [ ! -f "${BASELINE}" ]; then
  echo "bench_gate: missing ${BASELINE}; run with --update-baseline" >&2
  exit 1
fi

if [ "${SCHEMA}" = "parallel" ]; then
  python3 - "${BASELINE}" "${FRESH}" "${GATE_FLOOR}" <<'PY'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
floor = float(sys.argv[3])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))
cores = fresh["cores"]

base = {w["name"]: w for w in baseline["workloads"]}
cur = {w["name"]: w for w in fresh["workloads"]}
failures = []

for name, b in sorted(base.items()):
    c = cur.get(name)
    if c is None:
        failures.append(f"{name}: missing from fresh run")
        continue
    if not c["equivalent"]:
        failures.append(f"{name}: parallel reports diverged from sequential")
    if c["report_hash"] != b["report_hash"]:
        failures.append(
            f"{name}: report_hash {c['report_hash']} != baseline "
            f"{b['report_hash']} (detection or merge drift)"
        )
    rows = {r["threads"]: r for r in c["rows"]}
    for threads in sorted(r["threads"] for r in b["rows"]):
        if threads == 1:
            continue
        crow = rows.get(threads)
        if crow is None:
            failures.append(f"{name} t={threads}: row missing from fresh run")
            continue
        line = f"  {name:<16} t={threads}  measured {crow['speedup']:.2f}x"
        if threads > cores:
            print(f"{line}  info (oversubscribed: {cores} cores, not gated)")
            continue
        if c["components"] < threads:
            print(f"{line}  info ({c['components']} components, not gated)")
            continue
        status = "ok" if crow["speedup"] >= floor else "FAIL"
        print(f"{line}  floor {floor:.2f}x  {status}")
        if crow["speedup"] < floor:
            failures.append(
                f"{name} t={threads}: {threads} workers slower than one "
                f"({crow['speedup']:.2f}x < {floor:.2f}x)"
            )

if failures:
    print("bench_gate: FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"bench_gate: parallel OK (report hashes stable, gated rows >= {floor:.2f}x "
      f"on {cores} cores)")
PY
else
  python3 - "${BASELINE}" "${FRESH}" "${TOLERANCE}" "${ABS_MARGIN}" "${GATE_MIN_EVENTS}" <<'PY'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
tol, abs_margin = float(sys.argv[3]), float(sys.argv[4])
gate_min_events = int(sys.argv[5])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

base = {w["name"]: w for w in baseline["workloads"]}
cur = {w["name"]: w for w in fresh["workloads"]}
failures = []

for name, b in sorted(base.items()):
    c = cur.get(name)
    if c is None:
        failures.append(f"{name}: missing from fresh run")
        continue
    if not c["identical"]:
        failures.append(f"{name}: zero-copy walker diverged from the stream decoder")
    if c["report_hash"] != b["report_hash"]:
        failures.append(
            f"{name}: report_hash {c['report_hash']} != baseline "
            f"{b['report_hash']} (decoder or detection drift)"
        )
    if b["events"] < gate_min_events:
        print(
            f"  {name:<18} baseline {b['speedup']:.2f}x  fresh {c['speedup']:.2f}x  "
            f"info ({b['events']} events, below {gate_min_events}, not speed-gated)"
        )
        continue
    floor = b["speedup"] * (1.0 - tol) - abs_margin
    status = "ok" if c["speedup"] >= floor else "FAIL"
    print(
        f"  {name:<18} baseline {b['speedup']:.2f}x  fresh {c['speedup']:.2f}x  "
        f"floor {floor:.2f}x  {status}"
    )
    if c["speedup"] < floor:
        failures.append(
            f"{name}: zero-copy speedup {c['speedup']:.2f}x below floor "
            f"{floor:.2f}x (baseline {b['speedup']:.2f}x)"
        )

if failures:
    print("bench_gate: FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print("bench_gate: ingest OK (identical on all workloads, speed within "
      "±{:.0f}% of baseline)".format(tol * 100))
PY
fi
