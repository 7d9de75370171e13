//! Parallel sharded detection pipeline.
//!
//! The sequential [`PmDebugger`] already meets the paper's per-event cost
//! targets; this module scales it across worker threads for heavy traces.
//! The design exploits the same property WITCHER-style tools use: PM
//! crash-consistency state is partitionable by address. A
//! [`pm_trace::ShardPlan`] groups granularity blocks into connected
//! components (ranges that ever share a block end up together), whole
//! components are assigned to workers by balanced greedy placement, and
//! every event of the stream is labeled with a routing key. Workers then
//! *route themselves*: each scans the shared event slice in lockstep with
//! the key array, consuming the events whose key maps to it plus every
//! broadcast event (fences, epoch/strand markers, crash points — the
//! paper's ordering rules must be observed at the correct stream
//! position). There is no splitter thread, no channel and no copying: the
//! only serial work is the two-pass plan build, and the per-event routing
//! test each worker performs is two array reads.
//!
//! Because every pair of events that can interact through a detection rule
//! shares a component, each worker's verdicts are exactly the sequential
//! verdicts for its addresses; the merge then reassembles the sequential
//! report list:
//!
//! * mid-stream reports are merged by `(event, intra-event emission rank,
//!   address, size)` — the order the sequential debugger emits them;
//! * end-of-run reports (no-durability residuals) are merged by
//!   `(originating store, address, size)`, matching the sequential
//!   `finish`'s canonical order;
//! * reports derived purely from broadcast events (redundant epoch fences
//!   and redundant logging — tx-log appends broadcast because they feed
//!   per-thread epoch state) are emitted identically by every worker, so
//!   only worker 0's copies are kept; the same holds for the
//!   malformed-event counter.
//!
//! The result is byte-identical to the sequential run — property-tested in
//! `crates/core/tests/parallel_determinism.rs`.

use std::thread;

use pm_obs::MetricsSnapshot;
use pm_trace::{
    BugKind, BugReport, Detector, KeyedChunk, PlanBuilder, PmEvent, ShardPlan, Trace, KEY_BROADCAST,
};

use crate::config::DebuggerConfig;
use crate::debugger::PmDebugger;
use crate::stats::DebuggerStats;
use crate::supervisor::{detect_supervised_from, ShardFailure, ShardGuard, SupervisorConfig};

/// Hard ceiling on worker threads (a runaway `--threads` guard).
pub const MAX_THREADS: usize = 64;

/// Tuning knobs for the parallel pipeline.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Worker threads (clamped to `1..=`[`MAX_THREADS`]). One thread runs
    /// the sequential engine inline.
    pub threads: usize,
}

impl ParallelConfig {
    /// Defaults with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ParallelConfig { threads }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        }
    }
}

/// Result of one parallel detection run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged reports, byte-identical to the sequential run's.
    pub reports: Vec<BugReport>,
    /// Merged statistics: `events_processed` is the true input length;
    /// bookkeeping counters are summed over workers (the work actually
    /// performed, which differs from the sequential run's because each
    /// worker's array sees less pressure).
    pub stats: DebuggerStats,
    /// Structurally invalid events tolerated (identical on every worker —
    /// malformedness is a property of the broadcast stream — so reported
    /// once, not summed).
    pub malformed_events: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Bridged address components discovered by the plan — block groups
    /// connected by block-crossing spans; singleton blocks are not counted
    /// (0 on the 1-thread path).
    pub components: usize,
    /// Events routed to exactly one worker.
    pub routed_events: u64,
    /// Events broadcast to all workers.
    pub broadcast_events: u64,
    /// One metric snapshot per worker, in worker order. Event counters
    /// (`events.<kind>`) attribute each event to exactly one worker — its
    /// routing owner, or worker 0 for broadcast events — so the per-kind
    /// sums across workers equal a sequential run's counts at any thread
    /// count (property-tested in `metrics_differential.rs`).
    pub worker_metrics: Vec<MetricsSnapshot>,
    /// The worker snapshots merged in worker order (merging is commutative,
    /// so the order is presentational only).
    pub metrics: MetricsSnapshot,
}

/// Emission rank of a report kind within a single event's handler, in the
/// order the sequential debugger pushes them (e.g. at a flush: redundant
/// flush, then flush-nothing, then strand-ordering; at an epoch end:
/// redundant fence, then durability residuals). The merge key uses it so
/// reports from different workers interleave exactly as sequentially.
fn intra_event_rank(kind: BugKind) -> u8 {
    match kind {
        BugKind::NoDurabilityGuarantee
        | BugKind::MultipleOverwrites
        | BugKind::RedundantFlushes
        | BugKind::RedundantLogging
        | BugKind::RedundantEpochFence
        | BugKind::CrossFailureSemantic => 0,
        // The cross-thread kinds fire inside the CAS handler *after* its
        // store bookkeeping may have pushed a multiple-overwrites report.
        BugKind::FlushNothing
        | BugKind::LackDurabilityInEpoch
        | BugKind::PublishedUnflushed
        | BugKind::UnpublishedVisible => 1,
        BugKind::LackOrderingInStrands => 2,
        BugKind::NoOrderGuarantee => 3,
    }
}

fn mid_key(r: &BugReport) -> (u64, u8, u64, u64) {
    (
        r.at_event.unwrap_or(u64::MAX),
        intra_event_rank(r.kind),
        r.addr.unwrap_or(0),
        r.size.unwrap_or(0),
    )
}

fn end_key(r: &BugReport) -> (u64, u64, u64) {
    (
        r.at_event.unwrap_or(u64::MAX),
        r.addr.unwrap_or(0),
        r.size.unwrap_or(0),
    )
}

pub(crate) struct WorkerOut {
    /// Reports pushed while consuming the stream (chronological).
    mid: Vec<BugReport>,
    /// Reports appended by `finish` (end-of-run residuals).
    end: Vec<BugReport>,
    stats: DebuggerStats,
    malformed: u64,
    metrics: MetricsSnapshot,
}

/// Converts a flat per-kind count array (indexed like
/// [`PmEvent::KIND_NAMES`]) into `events.<kind>` counters. Workers count
/// into plain local `u64`s while scanning — zero atomics on the hot path —
/// and convert once here.
fn kind_counts_snapshot(counts: &[u64; PmEvent::KIND_NAMES.len()]) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 {
            snap.set_counter(&format!("events.{}", PmEvent::KIND_NAMES[i]), n);
        }
    }
    snap
}

/// Runs the full sequential engine inline (the 1-thread path, and the
/// reference the determinism property compares against).
fn detect_inline(config: &DebuggerConfig, events: &[PmEvent], base_seq: u64) -> ParallelOutcome {
    let mut det = PmDebugger::new(config.clone());
    let mut kind_counts = [0u64; PmEvent::KIND_NAMES.len()];
    for (idx, event) in events.iter().enumerate() {
        kind_counts[event.kind_index()] += 1;
        det.on_event(base_seq + idx as u64, event);
    }
    let malformed_events = det.malformed_events();
    let reports = det.finish();
    let metrics = kind_counts_snapshot(&kind_counts);
    ParallelOutcome {
        reports,
        stats: det.stats(),
        malformed_events,
        threads: 1,
        components: 0,
        routed_events: events.len() as u64,
        broadcast_events: 0,
        worker_metrics: vec![metrics.clone()],
        metrics,
    }
}

/// One worker's pass behind a [`ShardGuard`]: scan the shared key array,
/// detect over own and broadcast events, firing injected faults and
/// checking the deadline and memory budget as it goes. With no
/// fault or limit configured the per-event overhead is one increment and
/// a few always-false branches.
pub(crate) fn run_worker_guarded(
    config: &DebuggerConfig,
    plan: &ShardPlan,
    events: &[PmEvent],
    base_seq: u64,
    me: u32,
    mut guard: ShardGuard,
) -> Result<WorkerOut, ShardFailure> {
    let mut det = PmDebugger::new(config.clone());
    let keys = plan.keys();
    let table = plan.key_workers();
    let mut kind_counts = [0u64; PmEvent::KIND_NAMES.len()];
    for (idx, &key) in keys.iter().enumerate() {
        let broadcast = key == KEY_BROADCAST;
        if broadcast || table[key as usize] == me {
            guard.before_consume(&det)?;
            // Every event is *attributed* to exactly one worker — its
            // routing owner, or worker 0 for broadcasts — even though all
            // workers observe broadcasts. Per-kind sums across workers
            // therefore equal the sequential run's counts.
            if !broadcast || me == 0 {
                kind_counts[events[idx].kind_index()] += 1;
            }
            det.on_event(base_seq + idx as u64, &events[idx]);
        }
    }
    guard.finish_scan(&det)?;
    let mid_len = det.reports().len();
    let malformed = det.malformed_events();
    let mut mid = det.finish();
    let end = mid.split_off(mid_len);
    Ok(WorkerOut {
        mid,
        end,
        stats: det.stats(),
        malformed,
        metrics: kind_counts_snapshot(&kind_counts),
    })
}

/// Reassembles the sequential report list from the outputs of the workers
/// that survived, tagged with their worker index. With every worker
/// present the result is byte-identical to the sequential run; with
/// survivors missing it is exactly the sequential list minus the lost
/// shards' reports (the supervisor's degradation contract).
pub(crate) fn merge_survivors(
    results: Vec<(usize, WorkerOut)>,
    plan: &ShardPlan,
    events_len: usize,
    threads: usize,
) -> ParallelOutcome {
    // Broadcast-derived reports and the malformed counter are identical on
    // every worker; keep them from the lowest survivor (worker 0 when
    // nothing was lost, preserving the historical merge exactly).
    let representative = results.iter().map(|(w, _)| *w).min();
    let mut stats = DebuggerStats::default();
    let mut malformed_events = 0;
    let mut mid = Vec::new();
    let mut end = Vec::new();
    let mut worker_metrics = vec![MetricsSnapshot::new(); threads];
    let mut metrics = MetricsSnapshot::new();
    for (worker, out) in results {
        stats.add(&out.stats);
        metrics.merge(&out.metrics);
        if let Some(slot) = worker_metrics.get_mut(worker) {
            *slot = out.metrics;
        }
        if Some(worker) == representative {
            malformed_events = out.malformed;
            mid.extend(out.mid);
        } else {
            // Redundant-epoch-fence and redundant-logging reports derive
            // purely from broadcast events (fences, epoch markers, tx-log
            // appends), so every worker emits identical copies; keep the
            // set from the representative only.
            mid.extend(out.mid.into_iter().filter(|r| {
                r.kind != BugKind::RedundantEpochFence && r.kind != BugKind::RedundantLogging
            }));
        }
        end.extend(out.end);
    }
    // Stable sorts: ties (possible only within one worker, since components
    // never split across workers) keep their sequential relative order.
    mid.sort_by_key(mid_key);
    end.sort_by_key(end_key);
    let mut reports = mid;
    reports.append(&mut end);

    stats.events_processed = events_len as u64;
    ParallelOutcome {
        reports,
        stats,
        malformed_events,
        threads,
        components: plan.component_count(),
        routed_events: plan.routed_events(),
        broadcast_events: plan.broadcast_events(),
        worker_metrics,
        metrics,
    }
}

/// Plan build with the key pass fanned out over `threads` chunk workers.
/// Chunking never changes the result (keying is pure per event), so this
/// equals [`ShardPlan::build`] exactly. A panicked chunk worker is
/// tolerated by re-keying its chunk on the calling thread — keying is a
/// pure function of the frozen segments, so the retry is exact (and if the
/// re-key panics too, the panic unwinds into the supervisor's plan-build
/// `catch_unwind` instead of aborting the process).
pub(crate) fn build_plan_parallel(
    events: &[PmEvent],
    threads: usize,
    pin_named: bool,
) -> ShardPlan {
    let builder = PlanBuilder::observe(events, threads, pin_named);
    let size = events.len().div_ceil(threads).max(1);
    let chunks: Vec<KeyedChunk> = thread::scope(|scope| {
        let builder = &builder;
        let handles: Vec<_> = events
            .chunks(size)
            .map(|chunk| scope.spawn(move || builder.key_chunk(chunk)))
            .collect();
        handles
            .into_iter()
            .zip(events.chunks(size))
            .map(|(h, chunk)| match h.join() {
                Ok(keyed) => keyed,
                Err(_) => builder.key_chunk(chunk),
            })
            .collect()
    });
    builder.finish(chunks)
}

/// Detects over `events` numbered from `base_seq` (the sequence number the
/// first event would carry on a live runtime — reports then locate events
/// exactly as a directly-attached sequential debugger would).
///
/// Multi-threaded runs go through the supervisor with the default
/// [`SupervisorConfig`]: a genuinely poisoned worker is retried and, at
/// worst, quarantined — it degrades the verdict set instead of aborting
/// the process. Callers that need to *observe* degradation (or configure
/// budgets and fail modes) use [`crate::detect_supervised`] directly.
pub fn detect_parallel_from(
    config: &DebuggerConfig,
    par: &ParallelConfig,
    events: &[PmEvent],
    base_seq: u64,
) -> ParallelOutcome {
    let threads = par.threads.clamp(1, MAX_THREADS);
    if threads == 1 || events.len() < 2 {
        return detect_inline(config, events, base_seq);
    }

    match detect_supervised_from(
        config,
        par,
        &SupervisorConfig::default(),
        None,
        events,
        base_seq,
    ) {
        Ok(result) => result.outcome,
        // Only a plan-build panic lands here (degrade mode never returns a
        // shard error); the engine is deterministic, so fall back to the
        // sequential path rather than guessing at a plan.
        Err(_) => detect_inline(config, events, base_seq),
    }
}

/// Runs parallel detection over a recorded trace.
///
/// # Example
///
/// ```
/// use pm_trace::{PmEvent, ThreadId, Trace};
/// use pmdebugger::{detect_parallel, DebuggerConfig, ParallelConfig, PersistencyModel};
///
/// let mut trace = Trace::new();
/// trace.push(PmEvent::Store { addr: 0, size: 8, tid: ThreadId(0), strand: None, in_epoch: false });
/// let config = DebuggerConfig::for_model(PersistencyModel::Strict);
/// let outcome = detect_parallel(&config, &ParallelConfig::with_threads(4), &trace);
/// assert_eq!(outcome.reports.len(), 1); // the store was never persisted
/// ```
pub fn detect_parallel(
    config: &DebuggerConfig,
    par: &ParallelConfig,
    trace: &Trace,
) -> ParallelOutcome {
    detect_parallel_from(config, par, trace.events(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersistencyModel;
    use pm_trace::{FenceKind, FlushKind, StrandId, ThreadId};

    fn store(addr: u64, size: u32, tid: u32, in_epoch: bool) -> PmEvent {
        PmEvent::Store {
            addr,
            size,
            tid: ThreadId(tid),
            strand: None,
            in_epoch,
        }
    }

    fn flush(addr: u64, size: u32, tid: u32) -> PmEvent {
        PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr,
            size,
            tid: ThreadId(tid),
            strand: None,
        }
    }

    fn fence(tid: u32) -> PmEvent {
        PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(tid),
            strand: None,
            in_epoch: false,
        }
    }

    /// A messy multi-thread trace that exercises most mid-stream and
    /// end-of-run rules across many address components.
    fn messy_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..40u64 {
            let tid = (i % 3) as u32;
            let addr = (i % 8) * 4096 + (i % 5) * 64;
            t.push(store(addr, 16, tid, false));
            t.push(store(addr + 8, 16, tid, false)); // overlap: overwrites
            if i % 3 != 0 {
                t.push(flush(addr & !63, 64, tid));
            }
            if i % 4 == 0 {
                t.push(flush(addr & !63, 64, tid)); // sometimes redundant
            }
            if i % 2 == 0 {
                t.push(fence(tid));
            }
        }
        t.push(PmEvent::Crash);
        t.push(PmEvent::RecoveryRead {
            addr: 4096,
            size: 64,
        });
        t
    }

    fn assert_matches_sequential(trace: &Trace, config: &DebuggerConfig, threads: usize) {
        let seq = detect_inline(config, trace.events(), 0);
        let par = detect_parallel(config, &ParallelConfig::with_threads(threads), trace);
        assert_eq!(
            par.reports, seq.reports,
            "{threads}-thread run diverged from sequential"
        );
        assert_eq!(par.malformed_events, seq.malformed_events);
        assert_eq!(par.stats.events_processed, trace.len() as u64);
    }

    #[test]
    fn strict_reports_match_sequential() {
        let trace = messy_trace();
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        for threads in [2, 3, 4, 8] {
            assert_matches_sequential(&trace, &config, threads);
        }
    }

    #[test]
    fn epoch_reports_match_sequential_without_duplicated_fence_reports() {
        let mut t = Trace::new();
        t.push(PmEvent::EpochBegin { tid: ThreadId(0) });
        for i in 0..4u64 {
            t.push(store(i * 4096, 8, 0, true));
            t.push(flush(i * 4096, 64, 0));
            t.push(PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            });
        }
        t.push(store(9 * 4096, 8, 0, true)); // left undurable in epoch
        t.push(PmEvent::EpochEnd { tid: ThreadId(0) });
        let config = DebuggerConfig::for_model(PersistencyModel::Epoch);
        let seq = detect_inline(&config, t.events(), 0);
        let par = detect_parallel(&config, &ParallelConfig::with_threads(4), &t);
        assert_eq!(par.reports, seq.reports);
        let fence_reports = par
            .reports
            .iter()
            .filter(|r| r.kind == BugKind::RedundantEpochFence)
            .count();
        assert_eq!(fence_reports, 1, "broadcast-derived report duplicated");
    }

    #[test]
    fn order_spec_pins_rules_to_one_worker() {
        let mut spec = pm_trace::OrderSpec::new();
        spec.add_rule("value", "key", None);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict).with_order_spec(spec);
        let mut t = Trace::new();
        t.push(PmEvent::NameRange {
            name: "value".into(),
            addr: 0,
            size: 8,
        });
        t.push(PmEvent::NameRange {
            name: "key".into(),
            addr: 1 << 16,
            size: 8,
        });
        t.push(store(0, 8, 0, false));
        t.push(store(1 << 16, 8, 0, false));
        t.push(flush(1 << 16, 64, 0));
        t.push(fence(0)); // key durable before value: order violation
        t.push(flush(0, 64, 0));
        t.push(fence(0));
        for threads in [2, 4, 8] {
            assert_matches_sequential(&t, &config, threads);
        }
        let par = detect_parallel(&config, &ParallelConfig::with_threads(4), &t);
        assert!(par
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NoOrderGuarantee));
    }

    #[test]
    fn malformed_counter_propagates_through_merge() {
        let mut t = Trace::new();
        t.push(PmEvent::StrandBegin {
            strand: StrandId(0),
            tid: ThreadId(0),
        });
        t.push(PmEvent::Store {
            addr: 0,
            size: 8,
            tid: ThreadId(0),
            strand: Some(StrandId(0)),
            in_epoch: false,
        });
        t.push(PmEvent::StrandEnd {
            strand: StrandId(0),
            tid: ThreadId(0),
        });
        // Persist barrier outside any strand after strands were seen: one
        // malformed event, counted once per worker but reported once.
        t.push(PmEvent::Fence {
            kind: FenceKind::PersistBarrier,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        });
        let config = DebuggerConfig::for_model(PersistencyModel::Strand);
        let seq = detect_inline(&config, t.events(), 0);
        assert_eq!(seq.malformed_events, 1);
        for threads in [2, 4] {
            let par = detect_parallel(&config, &ParallelConfig::with_threads(threads), &t);
            assert_eq!(par.malformed_events, 1, "counter lost or multiplied");
            assert_eq!(par.reports, seq.reports);
        }
    }

    #[test]
    fn outcome_counts_routing() {
        let trace = messy_trace();
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let par = detect_parallel(&config, &ParallelConfig::with_threads(4), &trace);
        assert_eq!(par.threads, 4);
        assert_eq!(par.routed_events + par.broadcast_events, trace.len() as u64);
        assert!(par.broadcast_events > 0); // the fences and the crash
    }

    #[test]
    fn worker_metrics_sum_to_sequential_counts() {
        let trace = messy_trace();
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let seq = detect_inline(&config, trace.events(), 0);
        for threads in [2, 4, 8] {
            let par = detect_parallel(&config, &ParallelConfig::with_threads(threads), &trace);
            assert_eq!(par.worker_metrics.len(), threads);
            let mut summed = pm_obs::MetricsSnapshot::new();
            for worker in &par.worker_metrics {
                summed.merge(worker);
            }
            assert_eq!(
                summed, seq.metrics,
                "{threads}-thread worker metrics diverged from sequential"
            );
            assert_eq!(par.metrics, seq.metrics);
            let total: u64 = par.metrics.counters.values().sum();
            assert_eq!(total, trace.len() as u64);
        }
    }

    #[test]
    fn single_thread_path_is_sequential() {
        let trace = messy_trace();
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let one = detect_parallel(&config, &ParallelConfig::with_threads(1), &trace);
        let seq = detect_inline(&config, trace.events(), 0);
        assert_eq!(one.reports, seq.reports);
        assert_eq!(one.threads, 1);
    }
}
