//! Parallel sharded pipeline — throughput, scaling and report equivalence.
//!
//! Replays Figure 10's multi-threaded memcached traces, one single-stream
//! hashmap workload (a low-component contrast) and a strict B-tree run
//! (the workload that actually produces reports) through the parallel
//! pipeline at 1/2/4/8 detection threads and emits `BENCH_parallel.json`;
//! `scripts/bench_gate.sh` compares it against the committed baseline.
//!
//! Every number is wall clock of the threaded [`detect_parallel`] run on
//! this machine (best of the repeats): `speedup` is the 1-thread time over
//! the N-thread time. The JSON records `cores` and each workload's plan
//! `components`, so a reader (and the gate) can tell which rows a
//! measurement can show a speedup for: with more threads than cores the
//! workers time-slice, and with fewer components than threads some
//! workers have nothing to do.
//!
//! Report equivalence (`equivalent`) is asserted from the same runs: every
//! thread count must produce the sequential report hash. The `b_tree`
//! workload must report bugs, so the hash compares non-empty lists.
//!
//! Env knobs: `PM_BENCH_SMOKE` shrinks inputs for the CI smoke stage,
//! `PM_BENCH_FULL` grows them; `PM_BENCH_JSON` overrides the output path.

use std::time::Instant;

use pm_bench::{banner, TextTable};
use pm_trace::{report_hash, Trace};
use pm_workloads::{memcached_multithread_trace, record_trace, BTree, HashmapAtomic, Memcached};
use pmdebugger::{detect_parallel, DebuggerConfig, ParallelConfig, PersistencyModel};

const THREAD_POINTS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    threads: usize,
    wall_ms: f64,
    events_per_sec: f64,
    speedup: f64,
}

struct WorkloadResult {
    name: &'static str,
    events: usize,
    components: usize,
    reports: usize,
    report_hash: u64,
    equivalent: bool,
    rows: Vec<Row>,
}

fn measure(
    name: &'static str,
    model: PersistencyModel,
    trace: &Trace,
    repeats: usize,
) -> WorkloadResult {
    let config = DebuggerConfig::for_model(model);
    let events = trace.len();
    // Repeats alternate over the thread counts (1, 2, 4, 8, 1, 2, ...), so
    // host drift during the measurement lands on every row alike instead
    // of on whichever thread count happened to run last.
    let mut wall_best = [f64::MAX; THREAD_POINTS.len()];
    let mut outcomes = Vec::new();
    for repeat in 0..repeats {
        for (i, &threads) in THREAD_POINTS.iter().enumerate() {
            let par = ParallelConfig::with_threads(threads);
            let start = Instant::now();
            let out = detect_parallel(&config, &par, trace);
            wall_best[i] = wall_best[i].min(start.elapsed().as_secs_f64());
            if repeat + 1 == repeats {
                outcomes.push(out);
            }
        }
    }

    let hashes: Vec<u64> = outcomes.iter().map(|o| report_hash(&o.reports)).collect();
    let base_secs = wall_best[0];
    let rows = THREAD_POINTS
        .iter()
        .zip(wall_best)
        .map(|(&threads, wall)| Row {
            threads,
            wall_ms: wall * 1e3,
            events_per_sec: events as f64 / wall.max(1e-9),
            speedup: base_secs / wall.max(1e-9),
        })
        .collect();

    WorkloadResult {
        name,
        events,
        components: outcomes.last().expect("at least one repeat").components,
        reports: outcomes[0].reports.len(),
        report_hash: hashes[0],
        equivalent: hashes.iter().all(|&h| h == hashes[0]),
        rows,
    }
}

fn to_json(results: &[WorkloadResult], cores: usize, smoke: bool) -> String {
    let mut out = String::from("{\"schema\":\"pmdebugger-parallel-bench-v3\"");
    out.push_str(&format!(",\"mode\":\"wall\",\"cores\":{cores}"));
    out.push_str(&format!(",\"smoke\":{smoke}"));
    out.push_str(",\"workloads\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"events\":{},\"components\":{},\"reports\":{},\
             \"report_hash\":\"{:#018x}\",\"equivalent\":{},\"rows\":[",
            r.name, r.events, r.components, r.reports, r.report_hash, r.equivalent
        ));
        for (j, row) in r.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"threads\":{},\"wall_ms\":{:.3},\
                 \"events_per_sec\":{:.0},\"speedup\":{:.3}}}",
                row.threads, row.wall_ms, row.events_per_sec, row.speedup
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn main() {
    banner(
        "Parallel sharded pipeline — throughput & equivalence",
        "new experiment over Figure 10's workloads, Section 7.5",
    );

    let smoke = std::env::var_os("PM_BENCH_SMOKE").is_some();
    let full = std::env::var_os("PM_BENCH_FULL").is_some();
    let (mc_ops, hm_ops, repeats) = if smoke {
        (5_000, 40_000, 5)
    } else if full {
        (60_000, 400_000, 3)
    } else {
        (25_000, 150_000, 2)
    };

    let memcached = Memcached::default().with_set_percent(20);
    let mc4 = memcached_multithread_trace(&memcached, 4, mc_ops, 8);
    let mc6 = memcached_multithread_trace(&memcached, 6, mc_ops, 8);
    let hashmap = record_trace(&HashmapAtomic::default(), hm_ops);
    let btree = record_trace(&BTree::default(), 1_000);

    let results = vec![
        measure("memcached_mt4", PersistencyModel::Strict, &mc4, repeats),
        measure("memcached_mt6", PersistencyModel::Strict, &mc6, repeats),
        measure("hashmap_atomic", PersistencyModel::Epoch, &hashmap, repeats),
        measure("b_tree", PersistencyModel::Strict, &btree, repeats),
    ];

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut table = TextTable::new(vec![
        "workload", "events", "threads", "wall ms", "Mev/s", "speedup", "equal",
    ]);
    for r in &results {
        for row in &r.rows {
            table.row(vec![
                r.name.to_owned(),
                r.events.to_string(),
                row.threads.to_string(),
                format!("{:.1}", row.wall_ms),
                format!("{:.2}", row.events_per_sec / 1e6),
                format!("{:.2}x", row.speedup),
                if r.equivalent { "yes" } else { "NO" }.to_owned(),
            ]);
        }
    }
    print!("{}", table.render());
    println!("speedup = 1-thread wall / N-thread wall, measured on {cores} cores");

    let path = std::env::var("PM_BENCH_JSON").unwrap_or_else(|_| "BENCH_parallel.json".to_owned());
    let json = to_json(&results, cores, smoke);
    std::fs::write(&path, format!("{json}\n")).expect("write bench JSON");
    println!("wrote {path}");

    for r in &results {
        assert!(
            r.equivalent,
            "{}: parallel reports diverged from sequential",
            r.name
        );
        if r.name == "b_tree" {
            assert!(
                r.reports > 0,
                "b_tree: the sequential run reported nothing, so equivalence is vacuous"
            );
        }
    }
}
