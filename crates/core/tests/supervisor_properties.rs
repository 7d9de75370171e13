//! Degradation properties of the supervised pipeline: for arbitrary
//! recorded traces and arbitrary seeded `FaultPlan`s, at 1/2/4/8 threads,
//!
//! * a degrade-mode run always completes (no panic, no abort),
//! * the quarantined shard set equals `FaultPlan::dooms`' prediction
//!   exactly — every injected casualty is named, nothing else is,
//! * the degradation report's lost-event count equals the sum of the
//!   doomed shards' `ShardPlan::worker_loads` entries exactly,
//! * the surviving reports are byte-identical to the sequential reports
//!   owned by surviving shards (so in particular a subset of the
//!   sequential bug list), and
//! * strict mode converts the first doomed shard into a typed
//!   `SupervisorError` — or, with no doomed shard, returns the full
//!   sequential verdict set.
//!
//! Mirrors the trace generator of `parallel_determinism.rs`.

use std::time::Duration;

use proptest::prelude::*;

use pm_trace::{Detector, FenceKind, FlushKind, PmEvent, StrandId, ThreadId, Trace};
use pmdebugger::{
    detect_supervised, expected_surviving_reports, DebuggerConfig, FailMode, FaultPlan,
    ParallelConfig, PersistencyModel, PmDebugger, SupervisorConfig, SupervisorError,
};

/// Addresses live on a small set of cache lines so shard components
/// collide and the routing table actually splits work across workers.
const LINES: u64 = 24;

#[derive(Debug, Clone)]
enum Op {
    Store {
        line: u64,
        offset: u64,
        size: u32,
        tid: u32,
        strand: Option<u32>,
        in_epoch: bool,
    },
    Flush {
        line: u64,
        lines: u32,
        tid: u32,
        strand: Option<u32>,
    },
    Fence {
        kind: FenceKind,
        tid: u32,
        strand: Option<u32>,
        in_epoch: bool,
    },
    EpochBegin(u32),
    EpochEnd(u32),
    TxLog {
        line: u64,
        size: u32,
        tid: u32,
    },
    Crash,
    RecoveryRead {
        line: u64,
        size: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let strand = || proptest::option::of(0u32..3);
    prop_oneof![
        8 => (0..LINES, 0u64..56, 1u32..100, 0u32..3, strand(), any::<bool>()).prop_map(
            |(line, offset, size, tid, strand, in_epoch)| Op::Store {
                line,
                offset,
                size,
                tid,
                strand,
                in_epoch,
            }
        ),
        5 => (0..LINES, 1u32..3, 0u32..3, strand()).prop_map(|(line, lines, tid, strand)| {
            Op::Flush {
                line,
                lines,
                tid,
                strand,
            }
        }),
        3 => (any::<bool>(), 0u32..3, strand(), any::<bool>()).prop_map(
            |(sfence, tid, strand, in_epoch)| Op::Fence {
                kind: if sfence {
                    FenceKind::Sfence
                } else {
                    FenceKind::PersistBarrier
                },
                tid,
                strand,
                in_epoch,
            }
        ),
        1 => (0u32..3).prop_map(Op::EpochBegin),
        1 => (0u32..3).prop_map(Op::EpochEnd),
        1 => (0..LINES, 1u32..80, 0u32..3).prop_map(|(line, size, tid)| Op::TxLog {
            line,
            size,
            tid
        }),
        1 => Just(Op::Crash),
        1 => (0..LINES, 1u32..80).prop_map(|(line, size)| Op::RecoveryRead { line, size }),
    ]
}

fn to_event(op: &Op) -> PmEvent {
    let strand = |s: &Option<u32>| s.map(StrandId);
    match op {
        Op::Store {
            line,
            offset,
            size,
            tid,
            strand: s,
            in_epoch,
        } => PmEvent::Store {
            addr: line * 64 + offset,
            size: *size,
            tid: ThreadId(*tid),
            strand: strand(s),
            in_epoch: *in_epoch,
        },
        Op::Flush {
            line,
            lines,
            tid,
            strand: s,
        } => PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: line * 64,
            size: lines * 64,
            tid: ThreadId(*tid),
            strand: strand(s),
        },
        Op::Fence {
            kind,
            tid,
            strand: s,
            in_epoch,
        } => PmEvent::Fence {
            kind: *kind,
            tid: ThreadId(*tid),
            strand: strand(s),
            in_epoch: *in_epoch,
        },
        Op::EpochBegin(tid) => PmEvent::EpochBegin {
            tid: ThreadId(*tid),
        },
        Op::EpochEnd(tid) => PmEvent::EpochEnd {
            tid: ThreadId(*tid),
        },
        Op::TxLog { line, size, tid } => PmEvent::TxLog {
            obj_addr: line * 64,
            size: *size,
            tid: ThreadId(*tid),
        },
        Op::Crash => PmEvent::Crash,
        Op::RecoveryRead { line, size } => PmEvent::RecoveryRead {
            addr: line * 64,
            size: *size,
        },
    }
}

fn build_trace(ops: &[Op]) -> Trace {
    ops.iter().map(to_event).collect()
}

fn sequential_reports(config: &DebuggerConfig, trace: &Trace) -> Vec<pm_trace::BugReport> {
    let mut det = PmDebugger::new(config.clone());
    for (seq, event) in trace.events().iter().enumerate() {
        det.on_event(seq as u64, &event.as_ref());
    }
    det.finish()
}

/// Multiset inclusion by stringified report (order-insensitive).
fn is_multisubset(sub: &[pm_trace::BugReport], sup: &[pm_trace::BugReport]) -> bool {
    let mut counts = std::collections::BTreeMap::new();
    for r in sup {
        *counts.entry(r.to_string()).or_insert(0i64) += 1;
    }
    sub.iter().all(|r| {
        let slot = counts.entry(r.to_string()).or_insert(0);
        *slot -= 1;
        *slot >= 0
    })
}

fn supervisor_config(
    retries: u32,
    fallback: bool,
    use_deadline: bool,
    use_mem_budget: bool,
    mode: FailMode,
) -> SupervisorConfig {
    let mut sup = SupervisorConfig::default()
        .with_max_retries(retries)
        .with_sequential_fallback(fallback)
        .with_fail_mode(mode);
    if use_deadline {
        // Far above any real shard scan in this suite; only the injected
        // (virtual) hour-long delays can trip it.
        sup = sup.with_shard_deadline(Duration::from_secs(30));
    }
    if use_mem_budget {
        // Far above the bookkeeping estimate of a <=140-event trace; only
        // the injected 32 MiB allocations can trip it.
        sup = sup.with_max_shard_bytes(8 << 20);
    }
    sup
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn degrade_mode_quarantines_exactly_the_doomed_shards(
        ops in proptest::collection::vec(op_strategy(), 0..140),
        fault_seed in any::<u64>(),
        retries in 0u32..3,
        fallback in any::<bool>(),
        use_deadline in any::<bool>(),
        use_mem_budget in any::<bool>(),
    ) {
        let trace = build_trace(&ops);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let seq = sequential_reports(&config, &trace);
        let sup = supervisor_config(retries, fallback, use_deadline, use_mem_budget, FailMode::Degrade);
        for threads in [1usize, 2, 4, 8] {
            let faults = FaultPlan::seeded(fault_seed, threads, sup.total_attempts());
            let doomed = faults.doomed_workers(threads, &sup);
            let result = detect_supervised(
                &config,
                &ParallelConfig::with_threads(threads),
                &sup,
                Some(&faults),
                &trace,
            );
            let result = match result {
                Ok(r) => r,
                Err(err) => return Err(TestCaseError::fail(format!(
                    "degrade mode failed at {threads} threads: {err}"
                ))),
            };

            // Quarantine decisions match the oracle's prediction exactly.
            let quarantined: Vec<u32> = result
                .degraded
                .as_ref()
                .map(|d| d.quarantined.iter().map(|q| q.worker).collect())
                .unwrap_or_default();
            prop_assert_eq!(&quarantined, &doomed, "casualties diverged at {} threads", threads);

            // Lost-event accounting matches the plan's ledger exactly.
            let predicted_lost: u64 = doomed
                .iter()
                .map(|&w| result.plan.worker_loads()[w as usize])
                .sum();
            let reported_lost = result.degraded.as_ref().map_or(0, |d| d.lost_events);
            prop_assert_eq!(reported_lost, predicted_lost);

            // Surviving verdicts are byte-identical to the sequential
            // reports owned by surviving shards...
            let expected = expected_surviving_reports(&seq, &result.plan, &doomed, threads);
            prop_assert_eq!(
                &result.outcome.reports,
                &expected,
                "surviving reports diverged at {} threads",
                threads
            );
            // ...and in particular a multiset subset of the sequential set.
            prop_assert!(is_multisubset(&result.outcome.reports, &seq));

            // Fault-free plans must be flagged clean.
            if doomed.is_empty() {
                prop_assert!(!result.is_degraded());
                prop_assert_eq!(&result.outcome.reports, &seq);
            }
        }
    }

    #[test]
    fn strict_mode_types_the_first_doomed_shard(
        ops in proptest::collection::vec(op_strategy(), 0..100),
        fault_seed in any::<u64>(),
        retries in 0u32..2,
        fallback in any::<bool>(),
    ) {
        let trace = build_trace(&ops);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        let seq = sequential_reports(&config, &trace);
        let sup = supervisor_config(retries, fallback, false, false, FailMode::Strict);
        for threads in [1usize, 2, 4, 8] {
            let faults = FaultPlan::seeded(fault_seed, threads, sup.total_attempts());
            let doomed = faults.doomed_workers(threads, &sup);
            let result = detect_supervised(
                &config,
                &ParallelConfig::with_threads(threads),
                &sup,
                Some(&faults),
                &trace,
            );
            match (doomed.first(), result) {
                (Some(&first), Err(SupervisorError::ShardFailed { worker, failures, .. })) => {
                    prop_assert_eq!(worker, first);
                    prop_assert_eq!(failures.len() as u32, sup.total_attempts());
                }
                (Some(_), Err(other)) => {
                    return Err(TestCaseError::fail(format!("unexpected error kind: {other}")));
                }
                (Some(&first), Ok(_)) => {
                    return Err(TestCaseError::fail(format!(
                        "strict run succeeded although worker {first} was doomed"
                    )));
                }
                (None, Ok(result)) => {
                    prop_assert!(!result.is_degraded());
                    prop_assert_eq!(&result.outcome.reports, &seq);
                }
                (None, Err(err)) => {
                    return Err(TestCaseError::fail(format!(
                        "fault-survivable strict run failed: {err}"
                    )));
                }
            }
        }
    }
}
