#!/usr/bin/env bash
# Perf-regression gate for the benchmark suites, one schema per suite.
#
#   scripts/bench_gate.sh [parallel|ingest] [--update-baseline]
#
# parallel (default) — the parallel_pipeline bench in smoke mode vs
#   scripts/bench_baseline.json:
#
#   * every workload must be report-equivalent (parallel == sequential hash)
#   * for every (workload, threads>1) row whose baseline speedup is at
#     least 1.25x, the fresh critical-path speedup must be within 10% of
#     the baseline (improvements always pass); a small absolute margin
#     (0.12x) is subtracted from the floor to absorb scheduler noise.
#     Rows below 1.25x baseline (the low-parallelism contrast workloads)
#     hover around 1.0x, where run-to-run noise exceeds any real signal —
#     they are printed for information but not gated
#
#   Speedups are derived from the critical-path profile rather than wall
#   clock so the gate measures partition quality, not the CI host's core
#   count (see crates/bench/benches/parallel_pipeline.rs).
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
    GATE_MIN_SPEEDUP="1.25"
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
  python3 - "${BASELINE}" "${FRESH}" "${TOLERANCE}" "${ABS_MARGIN}" "${GATE_MIN_SPEEDUP}" <<'PY'
import json
import sys

baseline_path, fresh_path = sys.argv[1], sys.argv[2]
tol, abs_margin, gate_min = (float(a) for a in sys.argv[3:6])
baseline = json.load(open(baseline_path))
fresh = json.load(open(fresh_path))

def rows_by_workload(doc):
    out = {}
    for w in doc["workloads"]:
        out[w["name"]] = {
            "equivalent": w["equivalent"],
            "rows": {r["threads"]: r for r in w["rows"]},
        }
    return out

base = rows_by_workload(baseline)
cur = rows_by_workload(fresh)
failures = []

for name, b in sorted(base.items()):
    c = cur.get(name)
    if c is None:
        failures.append(f"{name}: missing from fresh run")
        continue
    if not c["equivalent"]:
        failures.append(f"{name}: parallel reports diverged from sequential")
    for threads, brow in sorted(b["rows"].items()):
        if threads == 1:
            continue
        crow = c["rows"].get(threads)
        if crow is None:
            failures.append(f"{name} t={threads}: row missing from fresh run")
            continue
        if brow["speedup"] < gate_min:
            print(
                f"  {name:<16} t={threads}  baseline {brow['speedup']:.2f}x  "
                f"fresh {crow['speedup']:.2f}x  info (below {gate_min:.2f}x, not gated)"
            )
            continue
        floor = brow["speedup"] * (1.0 - tol) - abs_margin
        status = "ok" if crow["speedup"] >= floor else "FAIL"
        print(
            f"  {name:<16} t={threads}  baseline {brow['speedup']:.2f}x  "
            f"fresh {crow['speedup']:.2f}x  floor {floor:.2f}x  {status}"
        )
        if crow["speedup"] < floor:
            failures.append(
                f"{name} t={threads}: speedup {crow['speedup']:.2f}x "
                f"below floor {floor:.2f}x (baseline {brow['speedup']:.2f}x)"
            )

if failures:
    print("bench_gate: FAIL")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print("bench_gate: parallel OK (within ±{:.0f}% of baseline)".format(tol * 100))
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
