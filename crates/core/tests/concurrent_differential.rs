//! Determinism oracle for the concurrent lock-free suite: for any seeded
//! interleaving of the Treiber stack, Michael-Scott queue or CAS-published
//! hash — clean or carrying the seeded cross-thread handoff bug — the four
//! engines (sequential `PmDebugger`, `detect_parallel`,
//! `detect_supervised`, streaming `DetectSession` with a mid-stream
//! checkpoint/resume) produce byte-identical report lists at 1, 2, 4 and
//! 8 worker threads; clean variants report nothing, and the bug variant
//! reports exactly the unpublished-but-visible handoff at the exact CAS
//! event and store range.

use proptest::prelude::*;

use pm_trace::{report_hash, BugKind, BugReport, Detector, FenceKind, PmEvent, ThreadId, Trace};
use pm_workloads::{
    concurrent_multithread_trace, handoff_event, CasHash, ConcurrentWorkload, MsQueue,
    TreiberStack, HANDOFF_NODE,
};
use pmdebugger::{
    detect_parallel, detect_supervised, DebuggerConfig, DetectSession, FailMode, ParallelConfig,
    PersistencyModel, PmDebugger, SupervisorConfig,
};

fn config() -> DebuggerConfig {
    DebuggerConfig::for_model(PersistencyModel::Strict)
}

fn sequential(trace: &Trace) -> Vec<BugReport> {
    let mut det = PmDebugger::new(config());
    for (seq, event) in trace.events().iter().enumerate() {
        det.on_event(seq as u64, event);
    }
    det.finish()
}

/// Streaming-session reports over three chunks with a checkpoint/resume
/// after the first.
fn session(trace: &Trace) -> Vec<BugReport> {
    let events = trace.events();
    let third = events.len() / 3;
    let mut reports = Vec::new();
    let mut live = DetectSession::new(config());
    reports.extend(live.feed(&events[..third]));
    let mut live = DetectSession::resume(live.checkpoint());
    reports.extend(live.feed(&events[third..2 * third]));
    reports.extend(live.feed(&events[2 * third..]));
    reports.extend(live.finish());
    reports
}

/// Runs all four engines at `threads` workers and asserts their report
/// lists are byte-identical; returns the agreed list.
fn engines_agree(trace: &Trace, threads: usize) -> Vec<BugReport> {
    let cfg = config();
    let baseline = sequential(trace);
    let base_hash = report_hash(&baseline);
    let par_cfg = ParallelConfig::with_threads(threads);

    let parallel = detect_parallel(&cfg, &par_cfg, trace).reports;
    assert_eq!(parallel, baseline, "parallel diverged at {threads} threads");
    assert_eq!(report_hash(&parallel), base_hash);

    let strict = SupervisorConfig::default().with_fail_mode(FailMode::Strict);
    let supervised = detect_supervised(&cfg, &par_cfg, &strict, None, trace)
        .expect("fault-free supervision cannot fail")
        .outcome
        .reports;
    assert_eq!(
        supervised, baseline,
        "supervised diverged at {threads} threads"
    );
    assert_eq!(report_hash(&supervised), base_hash);

    let streamed = session(trace);
    assert_eq!(streamed, baseline, "session diverged ({threads} threads)");
    assert_eq!(report_hash(&streamed), base_hash);

    baseline
}

fn workload_for(which: usize, seed: u64, bug: bool) -> Box<dyn ConcurrentWorkload> {
    match (which % 3, bug) {
        (0, false) => Box::new(TreiberStack::new(seed)),
        (0, true) => Box::new(TreiberStack::new(seed).with_cross_thread_bug()),
        (1, false) => Box::new(MsQueue::new(seed)),
        (1, true) => Box::new(MsQueue::new(seed).with_cross_thread_bug()),
        (_, false) => Box::new(CasHash::new(seed)),
        (_, true) => Box::new(CasHash::new(seed).with_cross_thread_bug()),
    }
}

/// The acceptance scenario, built by hand: a store flushed on thread A,
/// a fence and CAS publication on thread B before A's fence. Every engine
/// must report exactly one unpublished-but-visible bug at the CAS event
/// with the store's exact range.
#[test]
fn flush_on_a_fence_on_b_is_caught_by_every_engine() {
    let node: u64 = 0x4_0000;
    let anchor: u64 = 0x100;
    let a = ThreadId(0);
    let b = ThreadId(1);
    let mut trace = Trace::new();
    trace.push(PmEvent::Store {
        addr: node,
        size: 8,
        tid: a,
        strand: None,
        in_epoch: false,
    });
    trace.push(PmEvent::Flush {
        kind: pmem_sim::FlushKind::Clwb,
        addr: node,
        size: 8,
        tid: a,
        strand: None,
    });
    trace.push(PmEvent::Fence {
        kind: FenceKind::Sfence,
        tid: b,
        strand: None,
        in_epoch: false,
    });
    trace.push(PmEvent::Cas {
        addr: anchor,
        size: 8,
        tid: b,
        old: 0,
        new: node,
        success: true,
    });
    trace.push(PmEvent::Flush {
        kind: pmem_sim::FlushKind::Clwb,
        addr: anchor,
        size: 8,
        tid: b,
        strand: None,
    });
    trace.push(PmEvent::Fence {
        kind: FenceKind::Sfence,
        tid: b,
        strand: None,
        in_epoch: false,
    });
    trace.push(PmEvent::Fence {
        kind: FenceKind::Sfence,
        tid: a,
        strand: None,
        in_epoch: false,
    });

    for threads in [1usize, 2, 4, 8] {
        let reports = engines_agree(&trace, threads);
        assert_eq!(reports.len(), 1, "threads {threads}: {reports:?}");
        let report = &reports[0];
        assert_eq!(report.kind, BugKind::UnpublishedVisible);
        assert_eq!(report.at_event, Some(3));
        assert_eq!(report.addr, Some(node));
        assert_eq!(report.size, Some(8));
        assert!(report.message.contains("thread 0"), "{}", report.message);
        assert!(report.message.contains("thread 1"), "{}", report.message);
    }
}

#[test]
fn clean_workloads_report_nothing_at_every_width() {
    for which in 0..3usize {
        let workload = workload_for(which, 0xD1FF, false);
        for threads in [1usize, 2, 4, 8] {
            let trace = concurrent_multithread_trace(workload.as_ref(), threads, 20, 42, 4);
            let reports = engines_agree(&trace, threads);
            assert!(
                reports.is_empty(),
                "{} x{threads}: {reports:?}",
                workload.name()
            );
        }
    }
}

#[test]
fn seeded_bug_is_reported_identically_at_every_width() {
    for which in 0..3usize {
        let workload = workload_for(which, 0xB06, true);
        for threads in [2usize, 4, 8] {
            let trace = concurrent_multithread_trace(workload.as_ref(), threads, 20, 42, 4);
            let reports = engines_agree(&trace, threads);
            assert_eq!(reports.len(), 1, "{} x{threads}", workload.name());
            let report = &reports[0];
            assert_eq!(report.kind, BugKind::UnpublishedVisible);
            assert_eq!(report.at_event, handoff_event(&trace));
            assert_eq!(report.addr, Some(HANDOFF_NODE));
            assert_eq!(report.size, Some(8));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any workload, seed, interleaving and width: the four engines agree
    /// byte-for-byte, clean traces are clean, and the bug variant reports
    /// exactly the handoff.
    #[test]
    fn engines_are_byte_identical_on_any_interleaving(
        which in 0usize..3,
        workload_seed in any::<u64>(),
        interleave_seed in any::<u64>(),
        width_pick in 0usize..4,
        max_quantum in 1usize..8,
        ops in 5usize..30,
        bug in any::<bool>(),
    ) {
        let threads = [1usize, 2, 4, 8][width_pick];
        let bug = bug && threads >= 2;
        let workload = workload_for(which, workload_seed, bug);
        let trace = concurrent_multithread_trace(
            workload.as_ref(),
            threads,
            ops,
            interleave_seed,
            max_quantum,
        );
        let reports = engines_agree(&trace, threads);
        if bug {
            prop_assert_eq!(reports.len(), 1);
            prop_assert_eq!(reports[0].kind, BugKind::UnpublishedVisible);
            prop_assert_eq!(reports[0].at_event, handoff_event(&trace));
            prop_assert_eq!(reports[0].addr, Some(HANDOFF_NODE));
        } else {
            prop_assert!(reports.is_empty(), "clean run reported {:?}", reports);
        }
    }
}
