//! Determinism property for the parallel sharded pipeline: for arbitrary
//! recorded traces — clean, buggy, multi-threaded, epoch- or strand-marked,
//! even structurally malformed — detection at 1/2/4/8 threads yields a
//! report list byte-identical to the sequential `PmDebugger`, with the
//! input length and malformed-event counter preserved through the merge.

use proptest::prelude::*;

use pm_trace::{Detector, FenceKind, FlushKind, PmEvent, StrandId, ThreadId, Trace};
use pmdebugger::{detect_parallel, DebuggerConfig, ParallelConfig, PersistencyModel, PmDebugger};

/// Addresses live on a small set of cache lines so that components collide,
/// ranges straddle lines, and cross-thread interactions actually happen.
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
    StrandBegin(u32, u32),
    StrandEnd(u32, u32),
    JoinStrand(u32),
    TxLog {
        line: u64,
        size: u32,
        tid: u32,
    },
    Cas {
        line: u64,
        offset: u64,
        size: u32,
        tid: u32,
        old: u64,
        new_line: u64,
        success: bool,
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
        1 => (0u32..3, 0u32..3).prop_map(|(s, t)| Op::StrandBegin(s, t)),
        1 => (0u32..3, 0u32..3).prop_map(|(s, t)| Op::StrandEnd(s, t)),
        1 => (0u32..3).prop_map(Op::JoinStrand),
        1 => (0..LINES, 1u32..80, 0u32..3).prop_map(|(line, size, tid)| Op::TxLog {
            line,
            size,
            tid
        }),
        3 => (0..LINES, 0u64..56, 1u32..9, 0u32..3, (any::<u64>(), any::<bool>()), 0..LINES)
            .prop_map(|(line, offset, size, tid, (old, success), new_line)| Op::Cas {
                line,
                offset,
                size,
                tid,
                old,
                new_line,
                success,
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
        Op::StrandBegin(s, tid) => PmEvent::StrandBegin {
            strand: StrandId(*s),
            tid: ThreadId(*tid),
        },
        Op::StrandEnd(s, tid) => PmEvent::StrandEnd {
            strand: StrandId(*s),
            tid: ThreadId(*tid),
        },
        Op::JoinStrand(tid) => PmEvent::JoinStrand {
            tid: ThreadId(*tid),
        },
        Op::TxLog { line, size, tid } => PmEvent::TxLog {
            obj_addr: line * 64,
            size: *size,
            tid: ThreadId(*tid),
        },
        // The published value points at another sampled line so that CAS
        // publication windows overlap stores routed to other components.
        Op::Cas {
            line,
            offset,
            size,
            tid,
            old,
            new_line,
            success,
        } => PmEvent::Cas {
            addr: line * 64 + offset,
            size: *size,
            tid: ThreadId(*tid),
            old: *old,
            new: new_line * 64,
            success: *success,
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

/// Sequential reference: a plain `PmDebugger` driven event by event.
fn sequential(config: &DebuggerConfig, trace: &Trace) -> (Vec<String>, u64, u64) {
    let mut det = PmDebugger::new(config.clone());
    for (seq, event) in trace.events().iter().enumerate() {
        det.on_event(seq as u64, &event.as_ref());
    }
    let malformed = det.malformed_events();
    let reports: Vec<String> = det.finish().iter().map(|r| r.to_string()).collect();
    let events = det.stats().events_processed;
    (reports, malformed, events)
}

fn assert_all_thread_counts_match(
    config: &DebuggerConfig,
    trace: &Trace,
) -> Result<(), TestCaseError> {
    let (seq_reports, seq_malformed, seq_events) = sequential(config, trace);
    for threads in [1usize, 2, 4, 8] {
        let par = detect_parallel(config, &ParallelConfig::with_threads(threads), trace);
        let par_reports: Vec<String> = par.reports.iter().map(|r| r.to_string()).collect();
        prop_assert_eq!(
            &par_reports,
            &seq_reports,
            "reports diverged at {} threads",
            threads
        );
        prop_assert_eq!(par.malformed_events, seq_malformed);
        prop_assert_eq!(par.stats.events_processed, seq_events);
        prop_assert_eq!(par.stats.events_processed, trace.len() as u64);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strict_parallel_detection_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        let trace = build_trace(&ops);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict);
        assert_all_thread_counts_match(&config, &trace)?;
    }

    #[test]
    fn epoch_parallel_detection_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        let trace = build_trace(&ops);
        let config = DebuggerConfig::for_model(PersistencyModel::Epoch);
        assert_all_thread_counts_match(&config, &trace)?;
    }

    #[test]
    fn strand_parallel_detection_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        let trace = build_trace(&ops);
        let config = DebuggerConfig::for_model(PersistencyModel::Strand);
        assert_all_thread_counts_match(&config, &trace)?;
    }

    #[test]
    fn order_spec_parallel_detection_is_deterministic(
        ops in proptest::collection::vec(op_strategy(), 0..80),
        bind_a in 0..LINES,
        bind_b in 0..LINES,
    ) {
        // Bind two order-spec names to arbitrary lines, forcing the planner
        // to pin their components (and all order rules) onto worker 0.
        let mut spec = pm_trace::OrderSpec::new();
        spec.add_rule("A", "B", None);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict).with_order_spec(spec);
        let mut trace = Trace::new();
        trace.push(PmEvent::NameRange { name: "A".into(), addr: bind_a * 64, size: 16 });
        trace.push(PmEvent::NameRange { name: "B".into(), addr: bind_b * 64, size: 16 });
        trace.extend(ops.iter().map(to_event));
        assert_all_thread_counts_match(&config, &trace)?;
    }
}
