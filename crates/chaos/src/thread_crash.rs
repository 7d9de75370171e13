//! Thread-crash chaos sweep for the concurrent lock-free workloads.
//!
//! Real PM crash images rarely catch every thread at a quiescent point: a
//! power failure lands while some threads are mid-publication. Following
//! Memento-style thread-crash stress (§6.1), each seeded plan here builds
//! an interleaved multi-thread trace from one of the concurrent lock-free
//! workloads, picks a crash boundary, kills a random thread subset at
//! that boundary, and keeps only the survivors' events afterwards — a
//! crash image covering *partial-thread progress*, where killed threads
//! stop mid-protocol (stores flushed but never fenced, nodes published
//! but never persisted, and so on).
//!
//! Each truncated stream then runs through all four detection engines —
//! sequential, parallel, supervised and the streaming session (with a
//! checkpoint/resume mid-stream) — under two oracles:
//!
//! * **zero aborts**: every engine completes; the sweep runner's
//!   `catch_unwind` counts an escaped panic, never fatal to the sweep;
//! * **survivor divergence**: all four engines must produce byte-identical
//!   reports ([`pm_trace::report_hash`]) on the survivor stream. Killed
//!   threads may legitimately leave bugs behind — the invariant is that
//!   every engine sees *the same* bugs.
//!
//! Plans are drawn from one rolling splitmix state, and each plan's crash
//! boundary is drawn modulo the length of the trace it just generated, so
//! plan `i` is `plans(seed).nth(i)` (which builds the `i` traces before
//! it) rather than a closed-form function of `i`.

use pm_trace::{report_hash, splitmix64, BugReport, PmEvent, Trace};
use pm_workloads::{
    concurrent_multithread_trace, CasHash, ConcurrentWorkload, MsQueue, TreiberStack,
};
use pmdebugger::{
    detect_parallel_from, detect_supervised_from, DebuggerConfig, DetectSession, FailMode,
    ParallelConfig, PersistencyModel, SupervisorConfig,
};

use crate::sweep::{batch_reports, Sweep, SweepViolation, Tallies};

/// Worker-thread widths cycled across plans.
const THREADS: [usize; 3] = [2, 4, 8];

/// Operations per worker thread in each generated trace.
const OPS_PER_THREAD: usize = 24;

/// The thread-crash sweep over the concurrent lock-free workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadCrashSweep;

/// One crash: a generated interleaved trace with a thread subset killed
/// at a boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCrashPlan {
    /// Workload the trace came from.
    pub workload: &'static str,
    /// Worker threads the trace used.
    pub threads: usize,
    /// Events before this index happened on every thread.
    pub boundary: usize,
    /// Thread ids killed at the boundary.
    pub killed: Vec<u32>,
    /// The surviving event stream.
    pub events: Vec<PmEvent>,
}

/// Reports from the four detection engines over one survivor stream.
#[derive(Debug)]
pub struct ThreadCrashOutcome {
    sequential: Vec<BugReport>,
    parallel: Vec<BugReport>,
    supervised: Result<Vec<BugReport>, String>,
    session: Vec<BugReport>,
}

/// The workload plan `index` exercises (cycled over the three lock-free
/// structures, each reseeded per plan).
fn workload_for(index: usize, seed: u64) -> Box<dyn ConcurrentWorkload> {
    match index % 3 {
        0 => Box::new(TreiberStack::new(seed)),
        1 => Box::new(MsQueue::new(seed)),
        _ => Box::new(CasHash::new(seed)),
    }
}

/// Applies a thread crash to `trace`: events before `boundary` happened
/// on every thread; after it, only `survivors`' events (and thread-less
/// events) remain.
pub fn crash_threads(trace: &Trace, boundary: usize, killed: &[u32]) -> Vec<PmEvent> {
    let boundary = boundary.min(trace.len());
    let mut out: Vec<PmEvent> = trace.events()[..boundary].to_vec();
    for event in &trace.events()[boundary..] {
        match event.tid() {
            Some(tid) if killed.contains(&tid.0) => {}
            _ => out.push(event.clone()),
        }
    }
    out
}

/// Streaming-session reports over three chunks with a checkpoint/resume
/// between the first two — the crash image flows through the exact code a
/// long-lived detection service runs.
fn session_reports(config: &DebuggerConfig, events: &[PmEvent]) -> Vec<BugReport> {
    let third = events.len() / 3;
    let mut reports = Vec::new();
    let mut session = DetectSession::new(config.clone());
    reports.extend(session.feed(&events[..third]));
    let mut session = DetectSession::resume(session.checkpoint());
    reports.extend(session.feed(&events[third..2 * third]));
    reports.extend(session.feed(&events[2 * third..]));
    reports.extend(session.finish());
    reports
}

impl Sweep for ThreadCrashSweep {
    const NAME: &'static str = "thread-crash";
    const DEFAULT_SEED: u64 = 0x7C4A_5AD0;
    const DEFAULT_PLANS: usize = 100;
    type Plan = ThreadCrashPlan;
    type Outcome = ThreadCrashOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = ThreadCrashPlan>> {
        let mut state = seed ^ 0x7D_C4A5_4D00_D15E;
        Box::new((0..).map(move |index: usize| {
            let threads = THREADS[index % THREADS.len()];
            let plan_seed = splitmix64(&mut state);
            let workload = workload_for(index, plan_seed);
            let trace = concurrent_multithread_trace(
                workload.as_ref(),
                threads,
                OPS_PER_THREAD,
                plan_seed,
                4,
            );
            // Crash boundary anywhere in the stream; kill 1..=threads workers.
            let boundary = (splitmix64(&mut state) as usize) % (trace.len() + 1);
            let kill_count = (splitmix64(&mut state) as usize) % threads + 1;
            let mut killed: Vec<u32> = Vec::with_capacity(kill_count);
            while killed.len() < kill_count {
                let victim = (splitmix64(&mut state) as usize % threads) as u32;
                if !killed.contains(&victim) {
                    killed.push(victim);
                }
            }
            killed.sort_unstable();
            let events = crash_threads(&trace, boundary, &killed);
            ThreadCrashPlan {
                workload: workload.name(),
                threads,
                boundary,
                killed,
                events,
            }
        }))
    }

    fn kind(plan: &ThreadCrashPlan) -> &'static str {
        plan.workload
    }

    fn run(&mut self, plan: &ThreadCrashPlan) -> ThreadCrashOutcome {
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let events = &plan.events;
        let par = ParallelConfig::with_threads(plan.threads.min(pmdebugger::MAX_THREADS));
        ThreadCrashOutcome {
            sequential: batch_reports(&config, events),
            parallel: detect_parallel_from(&config, &par, events, 0).reports,
            // Strict, so a genuine worker failure surfaces as an error
            // instead of a quietly smaller report set.
            supervised: detect_supervised_from(
                &config,
                &par,
                &SupervisorConfig::default().with_fail_mode(FailMode::Strict),
                None,
                events,
                0,
            )
            .map(|outcome| outcome.outcome.reports)
            .map_err(|e| format!("{e:?}")),
            session: session_reports(&config, events),
        }
    }

    fn check(
        &self,
        plan: &ThreadCrashPlan,
        outcome: &ThreadCrashOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        tallies.add("killed_threads", plan.killed.len() as u64);
        tallies.add("surviving_events", plan.events.len() as u64);
        let context = format!(
            "{} x{} threads, killed {:?} at {}",
            plan.workload, plan.threads, plan.killed, plan.boundary
        );
        let baseline = report_hash(&outcome.sequential);
        let engines = [
            ("parallel", Ok(&outcome.parallel)),
            ("supervised", outcome.supervised.as_ref()),
            ("session", Ok(&outcome.session)),
        ];
        let mut violations = Vec::new();
        for (engine, reports) in engines {
            match reports.map(|r| report_hash(r)) {
                Ok(h) if h == baseline => {}
                Ok(h) => violations.push(SweepViolation::new(
                    "survivor-divergence",
                    format!(
                        "{context}: {engine} diverged from sequential on the survivor stream \
                         ({h:#018x} != {baseline:#018x}, {} sequential reports)",
                        outcome.sequential.len()
                    ),
                )),
                Err(err) => violations.push(SweepViolation::new(
                    "survivor-divergence",
                    format!("{context}: {engine} returned an error on the survivor stream: {err}"),
                )),
            }
        }
        tallies.add("reports_agreed", outcome.sequential.len() as u64);
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_preserves_prefix_and_filters_suffix() {
        let workload = TreiberStack::new(1);
        let trace = concurrent_multithread_trace(&workload, 2, 10, 1, 4);
        let boundary = trace.len() / 2;
        let events = crash_threads(&trace, boundary, &[1]);
        assert_eq!(&events[..boundary], &trace.events()[..boundary]);
        assert!(events[boundary..]
            .iter()
            .all(|e| e.tid().map(|t| t.0) != Some(1)));
        assert!(events.len() < trace.len());
    }

    #[test]
    fn partial_thread_progress_can_leave_bugs_every_engine_agrees_on() {
        // Killing a thread right after a flush (before its fence) leaves a
        // no-durability residual; the sweep's invariant is agreement, so a
        // clean report here must also come with surviving bugs somewhere
        // across seeds. Find one seed that produces reports.
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let mut found = false;
        for seed in 0..20u64 {
            let workload = TreiberStack::new(seed);
            let trace = concurrent_multithread_trace(&workload, 2, 10, seed, 4);
            for boundary in [trace.len() / 3, trace.len() / 2, 2 * trace.len() / 3] {
                let events = crash_threads(&trace, boundary, &[0]);
                if !batch_reports(&config, &events).is_empty() {
                    found = true;
                }
            }
        }
        assert!(found, "no crash point ever left a residual bug");
    }
}
