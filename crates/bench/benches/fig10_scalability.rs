//! Figure 10 — scalability with memcached thread count.
//!
//! Interleaves 1/2/4/6 memcached worker streams into one event stream
//! (fixed per-thread work, so total work grows with thread count —
//! "larger number of threads means higher PM-operation intensity") and
//! measures each detector's processing time, normalized per processed
//! event against the single-thread point.
//!
//! Paper shape: Pmemcheck's slowdown grows almost linearly with threads;
//! PMDebugger grows much more slowly.

use pm_baselines::PmemcheckLike;
use pm_bench::{banner, TextTable};
use pm_trace::{replay_finish, Detector};
use pm_workloads::{memcached_multithread_trace, Memcached};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};
use std::time::Instant;

fn main() {
    banner(
        "Figure 10 — memcached thread scalability",
        "Figure 10, Section 7.5",
    );

    let full = std::env::var_os("PM_BENCH_FULL").is_some();
    let ops_per_thread = if full { 40_000 } else { 10_000 };
    let workload = Memcached::default().with_set_percent(20);
    let repeats = 3;

    let mut table = TextTable::new(vec![
        "threads",
        "events",
        "pmdebugger ms",
        "pmemcheck ms",
        "pmdebugger x",
        "pmemcheck x",
    ]);
    let mut base: Option<(f64, f64)> = None; // per-event ns at 1 thread

    for &threads in &[1usize, 2, 4, 6] {
        let trace = memcached_multithread_trace(&workload, threads, ops_per_thread, 8);
        let events = trace.len() as f64;

        let time_one = |factory: &dyn Fn() -> Box<dyn Detector>| {
            let mut best = f64::MAX;
            for _ in 0..repeats {
                let mut det = factory();
                let start = Instant::now();
                let _ = replay_finish(&trace, det.as_mut());
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        };
        let t_pmd = time_one(&|| {
            Box::new(PmDebugger::new(DebuggerConfig::for_model(
                PersistencyModel::Strict,
            )))
        });
        let t_pmc = time_one(&|| Box::new(PmemcheckLike::new()));

        let per_event = (t_pmd / events, t_pmc / events);
        let (b_pmd, b_pmc) = *base.get_or_insert(per_event);
        table.row(vec![
            threads.to_string(),
            format!("{}", trace.len()),
            format!("{:.1}", t_pmd * 1e3),
            format!("{:.1}", t_pmc * 1e3),
            format!("{:.2}", per_event.0 / b_pmd),
            format!("{:.2}", per_event.1 / b_pmc),
        ]);
    }

    print!("{}", table.render());
    println!("(x columns: per-event cost normalized to the 1-thread run)");
    println!("paper shape: Pmemcheck's cost grows with thread count much faster than");
    println!("PMDebugger's (interleaving from more threads keeps more locations live,");
    println!("which tree-only bookkeeping pays for on every operation)");
}
