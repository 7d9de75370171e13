//! Property-based tests for [`pmdebugger::DetectSession`]: incremental
//! detection with arbitrary chunk splits — and checkpoint/resume cycles
//! between chunks — must be byte-identical to the batch detector.

use pm_trace::{report_hash, FenceKind, PmEvent, ThreadId, Trace};
use pmdebugger::{DebuggerConfig, DetectSession, PersistencyModel, PmDebugger};
use pmem_sim::FlushKind;
use proptest::prelude::*;

/// Events biased toward the patterns the rules trigger on: a small
/// address space so stores, flushes and fences actually interact, plus
/// epoch sections, transaction logging, crashes and recovery reads so
/// every rule family can fire mid-stream and at finish.
fn any_event() -> impl Strategy<Value = PmEvent> {
    prop_oneof![
        4 => (0u64..512, 1u32..64, 0u32..3, any::<bool>()).prop_map(
            |(addr, size, tid, in_epoch)| PmEvent::Store {
                addr,
                size,
                tid: ThreadId(tid),
                strand: None,
                in_epoch,
            }
        ),
        3 => (0u64..512, 0u32..3).prop_map(|(addr, tid)| PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: addr & !63,
            size: 64,
            tid: ThreadId(tid),
            strand: None,
        }),
        2 => (0u32..3, any::<bool>()).prop_map(|(tid, in_epoch)| PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(tid),
            strand: None,
            in_epoch,
        }),
        1 => (0u32..3).prop_map(|tid| PmEvent::EpochBegin { tid: ThreadId(tid) }),
        1 => (0u32..3).prop_map(|tid| PmEvent::EpochEnd { tid: ThreadId(tid) }),
        1 => (0u64..512, 1u32..64, 0u32..3).prop_map(|(addr, size, tid)| PmEvent::TxLog {
            obj_addr: addr,
            size,
            tid: ThreadId(tid),
        }),
        1 => Just(PmEvent::Crash),
        1 => (0u64..512, 1u32..64).prop_map(|(addr, size)| PmEvent::RecoveryRead { addr, size }),
        1 => ("[a-c]", 0u64..512, 1u32..64)
            .prop_map(|(name, addr, size)| PmEvent::NameRange { name, addr, size }),
        1 => ("fn_[a-c]", 0u32..3)
            .prop_map(|(name, tid)| PmEvent::FuncEnter { name, tid: ThreadId(tid) }),
    ]
}

fn models() -> impl Strategy<Value = PersistencyModel> {
    prop_oneof![
        Just(PersistencyModel::Strict),
        Just(PersistencyModel::Epoch),
    ]
}

fn batch(model: PersistencyModel, events: &[PmEvent]) -> Vec<pm_trace::BugReport> {
    PmDebugger::new(DebuggerConfig::for_model(model)).detect_stream(events.iter())
}

/// Splits `events` into chunks whose sizes cycle through `splits`.
fn chunked<'a>(events: &'a [PmEvent], splits: &[usize]) -> Vec<&'a [PmEvent]> {
    let mut out = Vec::new();
    let mut off = 0;
    let mut i = 0;
    while off < events.len() {
        let n = splits[i % splits.len()].max(1).min(events.len() - off);
        out.push(&events[off..off + n]);
        off += n;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// feed() under arbitrary chunk splits (including 1-event chunks)
    /// reproduces the batch report list exactly.
    #[test]
    fn arbitrary_chunking_is_byte_identical_to_batch(
        events in proptest::collection::vec(any_event(), 1..120),
        splits in proptest::collection::vec(1usize..17, 1..6),
        model in models(),
    ) {
        let expect = batch(model, &events);
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let mut got = Vec::new();
        for chunk in chunked(&events, &splits) {
            got.extend(session.feed(chunk));
        }
        got.extend(session.finish());
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report_hash(&got), report_hash(&expect));
    }

    /// Checkpointing and resuming between every chunk changes nothing:
    /// the resumed session continues exactly where the original stood.
    #[test]
    fn checkpoint_resume_between_chunks_is_byte_identical(
        events in proptest::collection::vec(any_event(), 1..100),
        splits in proptest::collection::vec(1usize..13, 1..5),
        model in models(),
    ) {
        let expect = batch(model, &events);
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let mut got = Vec::new();
        for chunk in chunked(&events, &splits) {
            got.extend(session.feed(chunk));
            session = DetectSession::resume(session.checkpoint());
        }
        got.extend(session.finish());
        prop_assert_eq!(&got, &expect);
    }

    /// The crash-retry path: after every chunk, feed a corrupted "doomed
    /// attempt" of the remaining tail, abandon it, resume from the
    /// checkpoint, and continue with the real tail. The committed output
    /// must still equal the batch run — the exact contract the serve
    /// supervision envelope relies on.
    #[test]
    fn doomed_attempts_then_resume_are_invisible(
        events in proptest::collection::vec(any_event(), 2..80),
        splits in proptest::collection::vec(1usize..11, 1..4),
        model in models(),
    ) {
        let expect = batch(model, &events);
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let mut got = Vec::new();
        let chunks = chunked(&events, &splits);
        for (i, chunk) in chunks.iter().enumerate() {
            got.extend(session.feed(*chunk));
            if i + 1 < chunks.len() {
                let ckpt = session.checkpoint();
                // Doomed attempt: feed the next chunk, then throw the
                // session away as a panic handler would.
                let _ = session.feed(chunks[i + 1]);
                session = DetectSession::resume(ckpt);
            }
        }
        got.extend(session.finish());
        prop_assert_eq!(&got, &expect);
    }

    /// Session accounting matches reality under chunking: events_fed is
    /// the stream length, reports_emitted is the total handed out, and
    /// detect_stream on a Trace of the same events agrees.
    #[test]
    fn session_accounting_is_exact(
        events in proptest::collection::vec(any_event(), 1..60),
        splits in proptest::collection::vec(1usize..9, 1..4),
    ) {
        let trace: Trace = events.iter().cloned().collect();
        let expect = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict))
            .detect_stream(trace.events().iter());
        let mut session =
            DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut got = Vec::new();
        for chunk in chunked(&events, &splits) {
            got.extend(session.feed(chunk));
        }
        got.extend(session.finish());
        prop_assert_eq!(session.events_fed(), events.len() as u64);
        prop_assert_eq!(session.reports_emitted(), got.len() as u64);
        prop_assert_eq!(got, expect);
    }

    /// Borrowed events are byte-identical to owned ones: `detect_stream`
    /// over `PmEvent::as_ref` views reproduces the report list (and hash)
    /// of the owned slice exactly, for every model.
    #[test]
    fn ref_path_is_byte_identical_to_owned_path(
        events in proptest::collection::vec(any_event(), 1..120),
        model in models(),
    ) {
        let expect = batch(model, &events);
        let got = PmDebugger::new(DebuggerConfig::for_model(model))
            .detect_stream(events.iter().map(PmEvent::as_ref));
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report_hash(&got), report_hash(&expect));
    }

    /// A session fed through an arbitrary interleaving of owned slices and
    /// borrowed-event iterators still matches the batch run.
    #[test]
    fn mixed_owned_and_ref_chunks_are_byte_identical(
        events in proptest::collection::vec(any_event(), 1..100),
        splits in proptest::collection::vec(1usize..13, 1..5),
        model in models(),
    ) {
        let expect = batch(model, &events);
        let mut session = DetectSession::new(DebuggerConfig::for_model(model));
        let mut got = Vec::new();
        for (i, chunk) in chunked(&events, &splits).into_iter().enumerate() {
            if i % 2 == 0 {
                got.extend(session.feed(chunk.iter().map(PmEvent::as_ref)));
            } else {
                got.extend(session.feed(chunk));
            }
        }
        got.extend(session.finish());
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report_hash(&got), report_hash(&expect));
    }
}
