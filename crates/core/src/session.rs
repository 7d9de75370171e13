//! Resumable detection sessions: the incremental form of
//! [`PmDebugger::detect_stream`].
//!
//! The batch entry point needs the full event iterator up front. A
//! long-running service (`pmdbg serve`) has the opposite shape: frames
//! arrive over a socket in chunks, detection must make progress between
//! reads, and a session that panics or times out mid-stream must be
//! restartable from its last known-good state without replaying the whole
//! stream. [`DetectSession`] provides exactly that:
//!
//! * [`DetectSession::feed`] runs a chunk of events through the engine and
//!   returns the reports those events fired, preserving the batch
//!   detector's report order;
//! * [`DetectSession::checkpoint`] deep-copies the full detection state
//!   (bookkeeping spaces, order tracker, epoch state, pending reports,
//!   counters) into a [`SessionCheckpoint`];
//! * [`DetectSession::resume`] rebuilds a session from a checkpoint,
//!   discarding everything fed after it — the retry primitive the serve
//!   supervision envelope is built on.
//!
//! **Byte-identity invariant** (property-tested in
//! `crates/core/tests/session_properties.rs`): for any split of an event
//! stream into chunks — including 1-event chunks, and including
//! checkpoint/resume cycles between chunks — the concatenation of every
//! `feed` result plus the final [`DetectSession::finish`] result is
//! identical to [`PmDebugger::detect_stream`] over the whole stream.

use pm_trace::{BugReport, Detector, PmEventRef};

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};
use crate::config::DebuggerConfig;
use crate::debugger::PmDebugger;
use crate::stats::DebuggerStats;

/// A deep copy of a session's detection state at a chunk boundary.
///
/// Cheap enough to take every few thousand events (the state is the
/// bookkeeping structures, not the trace), and self-contained: resuming
/// from it needs nothing but the checkpoint itself.
#[derive(Debug)]
pub struct SessionCheckpoint {
    state: PmDebugger,
    events_fed: u64,
    reports_emitted: u64,
}

impl Clone for SessionCheckpoint {
    fn clone(&self) -> Self {
        SessionCheckpoint {
            state: self.state.fork_state(),
            events_fed: self.events_fed,
            reports_emitted: self.reports_emitted,
        }
    }
}

impl SessionCheckpoint {
    /// Events the session had processed when this checkpoint was taken.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// Reports the session had already handed out at checkpoint time.
    pub fn reports_emitted(&self) -> u64 {
        self.reports_emitted
    }

    /// Estimated heap bytes the checkpointed state will occupy once
    /// resumed (see [`PmDebugger::tracked_bytes`]).
    pub fn tracked_bytes(&self) -> u64 {
        self.state.tracked_bytes()
    }

    /// Serializes the checkpoint into a self-contained binary blob:
    /// `PMCKPT` magic, a version field, the full detection state as LEB128
    /// payload fields (v2 framing discipline), and a trailing CRC32 over
    /// the payload. [`SessionCheckpoint::from_bytes`] is the exact inverse.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.varint(self.events_fed);
        w.varint(self.reports_emitted);
        self.state.encode_into(&mut w);
        ckpt::seal(w.into_bytes())
    }

    /// Rebuilds a checkpoint from [`SessionCheckpoint::to_bytes`] output.
    ///
    /// Decoding is total: arbitrary (including bit-flipped or truncated)
    /// input returns a typed [`CheckpointDecodeError`], never a panic, and
    /// blobs written by a different format version are rejected with a
    /// clear message before any payload is interpreted.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionCheckpoint, CheckpointDecodeError> {
        let payload = ckpt::unseal(bytes)?;
        let mut r = CkptReader::new(payload);
        let events_fed = r.varint()?;
        let reports_emitted = r.varint()?;
        let state = PmDebugger::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(ckpt::corrupt("trailing bytes after checkpoint state"));
        }
        Ok(SessionCheckpoint {
            state,
            events_fed,
            reports_emitted,
        })
    }
}

/// An incremental, checkpointable detection run over one event stream.
///
/// Sessions deliberately do not expose
/// [`crate::debugger::CustomRule`] registration: custom rules are boxed
/// trait objects that cannot be deep-copied, and a session whose state
/// cannot be checkpointed exactly cannot honor the resume contract.
/// Custom rules remain available on the batch [`PmDebugger`] API.
///
/// # Example
///
/// ```
/// use pmdebugger::{DebuggerConfig, DetectSession, PersistencyModel};
/// use pm_trace::{PmEvent, ThreadId};
///
/// let mut session = DetectSession::new(
///     DebuggerConfig::for_model(PersistencyModel::Strict),
/// );
/// let chunk = [PmEvent::Store {
///     addr: 0, size: 8, tid: ThreadId(0), strand: None, in_epoch: false,
/// }];
/// let mid = session.feed(&chunk);      // no report yet: store may persist later
/// let ckpt = session.checkpoint();     // restartable from here
/// let end = session.finish();          // never flushed -> reported now
/// assert!(mid.is_empty());
/// assert_eq!(end.len(), 1);
/// let mut retry = DetectSession::resume(ckpt);
/// assert_eq!(retry.finish().len(), 1); // the resumed session agrees
/// ```
#[derive(Debug)]
pub struct DetectSession {
    inner: PmDebugger,
    events_fed: u64,
    reports_emitted: u64,
    finished: bool,
}

impl DetectSession {
    /// Starts a fresh session with the given detector configuration.
    pub fn new(config: DebuggerConfig) -> Self {
        DetectSession {
            inner: PmDebugger::new(config),
            events_fed: 0,
            reports_emitted: 0,
            finished: false,
        }
    }

    /// Rebuilds a session from a checkpoint. Everything fed to the
    /// original session after the checkpoint was taken is forgotten; the
    /// caller re-feeds (or abandons) those events.
    pub fn resume(checkpoint: SessionCheckpoint) -> Self {
        DetectSession {
            inner: checkpoint.state,
            events_fed: checkpoint.events_fed,
            reports_emitted: checkpoint.reports_emitted,
            finished: false,
        }
    }

    /// Runs one chunk of events through the detector and returns the
    /// reports they fired, in the batch detector's report order. Chunk
    /// boundaries are invisible to detection: sequence numbers continue
    /// across calls. A chunk is any iterator of owned (`&PmEvent`) or
    /// borrowed ([`PmEventRef`]) events — a slice of a recorded trace and
    /// a batch decoded straight out of a mapped file take the same path.
    ///
    /// # Panics
    ///
    /// If called after [`DetectSession::finish`] — a finished session's
    /// end-of-stream rules have already fired, so feeding it more events
    /// could only produce reports the batch detector would never emit.
    pub fn feed<'a, I>(&mut self, events: I) -> Vec<BugReport>
    where
        I: IntoIterator,
        I::Item: Into<PmEventRef<'a>>,
    {
        assert!(!self.finished, "DetectSession::feed after finish");
        self.events_fed += self.inner.feed_events(self.events_fed, events);
        let out = self.inner.drain_reports();
        self.reports_emitted += out.len() as u64;
        out
    }

    /// Runs the end-of-stream rules (no-durability residuals, metrics
    /// export) and returns the final reports. Idempotent: a second call
    /// returns an empty list.
    pub fn finish(&mut self) -> Vec<BugReport> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        let out = self.inner.finish();
        self.reports_emitted += out.len() as u64;
        out
    }

    /// Deep-copies the current detection state.
    ///
    /// # Panics
    ///
    /// If the session is already finished: the end-of-stream rules are
    /// destructive (they drain residuals into reports), so a
    /// post-`finish` checkpoint could not honor the resume contract.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        assert!(!self.finished, "DetectSession::checkpoint after finish");
        SessionCheckpoint {
            state: self.inner.fork_state(),
            events_fed: self.events_fed,
            reports_emitted: self.reports_emitted,
        }
    }

    /// Total events processed so far.
    pub fn events_fed(&self) -> u64 {
        self.events_fed
    }

    /// Total reports handed out so far (across `feed` and `finish`).
    pub fn reports_emitted(&self) -> u64 {
        self.reports_emitted
    }

    /// Whether [`DetectSession::finish`] has run.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The active detector configuration.
    pub fn config(&self) -> &DebuggerConfig {
        self.inner.config()
    }

    /// Live bookkeeping statistics (see [`PmDebugger::stats`]).
    pub fn stats(&self) -> DebuggerStats {
        self.inner.stats()
    }

    /// Estimated heap bytes held by the session's detection state (see
    /// [`PmDebugger::tracked_bytes`]). This is the number memory governors
    /// account against session budgets.
    pub fn tracked_bytes(&self) -> u64 {
        self.inner.tracked_bytes()
    }

    /// Structurally invalid events tolerated so far (see
    /// [`PmDebugger::malformed_events`]).
    pub fn malformed_events(&self) -> u64 {
        Detector::malformed_events(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersistencyModel;
    use crate::debugger::{CustomRule, SpaceView};
    use pm_trace::{report_hash, BugKind, FenceKind, FlushKind, PmEvent, ThreadId};

    fn store(addr: u64) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn flush(addr: u64) -> PmEvent {
        PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr,
            size: 64,
            tid: ThreadId(0),
            strand: None,
        }
    }

    fn fence() -> PmEvent {
        PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    /// A stream that fires mid-stream rules (redundant flush, flush
    /// nothing) and end-of-stream residuals.
    fn sample_stream() -> Vec<PmEvent> {
        vec![
            store(0),
            flush(0),
            flush(0), // redundant flush
            fence(),
            store(64), // never persisted -> residual at finish
            store(128),
            flush(192), // flush nothing
            flush(128),
            fence(),
            store(256), // flushed but never fenced -> residual
            flush(256),
        ]
    }

    fn batch(events: &[PmEvent]) -> Vec<BugReport> {
        PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict))
            .detect_stream(events.iter())
    }

    #[test]
    fn single_feed_matches_batch() {
        let events = sample_stream();
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut got = session.feed(&events);
        got.extend(session.finish());
        assert_eq!(got, batch(&events));
        assert_eq!(session.events_fed(), events.len() as u64);
        assert_eq!(session.reports_emitted(), got.len() as u64);
    }

    #[test]
    fn one_event_chunks_match_batch() {
        let events = sample_stream();
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut got = Vec::new();
        for event in &events {
            got.extend(session.feed(std::slice::from_ref(event)));
        }
        got.extend(session.finish());
        assert_eq!(got, batch(&events));
    }

    #[test]
    fn checkpoint_resume_between_every_chunk_matches_batch() {
        let events = sample_stream();
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut got = Vec::new();
        for chunk in events.chunks(3) {
            got.extend(session.feed(chunk));
            session = DetectSession::resume(session.checkpoint());
        }
        got.extend(session.finish());
        assert_eq!(got, batch(&events));
    }

    #[test]
    fn resume_discards_post_checkpoint_feeds() {
        let events = sample_stream();
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut committed = session.feed(&events[..4]);
        let ckpt = session.checkpoint();
        // A doomed attempt: feed the tail, then abandon it.
        let _ = session.feed(&events[4..]);
        // Retry from the checkpoint; the replayed tail must produce
        // exactly what an uninterrupted run would have.
        let mut retry = DetectSession::resume(ckpt);
        assert_eq!(retry.events_fed(), 4);
        committed.extend(retry.feed(&events[4..]));
        committed.extend(retry.finish());
        assert_eq!(committed, batch(&events));
    }

    #[test]
    fn checkpoint_clone_is_independent() {
        let events = sample_stream();
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let mut head = session.feed(&events[..6]);
        let ckpt = session.checkpoint();
        let ckpt2 = ckpt.clone();

        // Drive the first copy to completion...
        let mut a = DetectSession::resume(ckpt);
        let mut a_out = head.clone();
        a_out.extend(a.feed(&events[6..]));
        a_out.extend(a.finish());

        // ...and the clone independently; both must agree with batch.
        let mut b = DetectSession::resume(ckpt2);
        head.extend(b.feed(&events[6..]));
        head.extend(b.finish());
        let expect = batch(&events);
        assert_eq!(a_out, expect);
        assert_eq!(head, expect);
        assert_eq!(report_hash(&a_out), report_hash(&expect));
    }

    /// Fires on every flush that finds the line already tracked, and
    /// reports the tracked-location count at the end.
    struct TrackedFlush;

    impl CustomRule for TrackedFlush {
        fn name(&self) -> &str {
            "tracked-flush"
        }

        fn on_event(
            &mut self,
            seq: u64,
            event: &PmEventRef<'_>,
            view: &SpaceView<'_>,
        ) -> Vec<BugReport> {
            match event {
                PmEventRef::Flush { addr, size, .. }
                    if view.is_tracked(*addr, u64::from(*size)) =>
                {
                    vec![
                        BugReport::new(BugKind::RedundantFlushes, "flush of a tracked line")
                            .with_event(seq),
                    ]
                }
                _ => Vec::new(),
            }
        }

        fn finish(&mut self, view: &SpaceView<'_>) -> Vec<BugReport> {
            vec![BugReport::new(
                BugKind::NoDurabilityGuarantee,
                format!("{} locations tracked at the end", view.tracked_count()),
            )]
        }
    }

    #[test]
    fn owned_slices_and_borrowed_iterators_share_one_feed() {
        let events = sample_stream();
        let mut expect_engine =
            PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        expect_engine.add_custom_rule(Box::new(TrackedFlush));
        let expect = expect_engine.detect_stream(&events);
        assert!(expect
            .iter()
            .any(|r| r.message == "flush of a tracked line"));

        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        session.inner.add_custom_rule(Box::new(TrackedFlush));
        let mut got = Vec::new();
        for (i, chunk) in events.chunks(3).enumerate() {
            got.extend(match i % 3 {
                0 => session.feed(chunk),
                1 => session.feed(chunk.iter().map(PmEvent::as_ref)),
                _ => session.feed(&chunk.to_vec()),
            });
        }
        got.extend(session.finish());
        assert_eq!(got, expect);
        assert_eq!(report_hash(&got), report_hash(&expect));
        assert_eq!(session.events_fed(), events.len() as u64);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let _ = session.feed(&[store(0)]);
        let first = session.finish();
        assert_eq!(first.len(), 1);
        assert!(session.finish().is_empty());
        assert!(session.finished());
    }

    #[test]
    #[should_panic(expected = "feed after finish")]
    fn feed_after_finish_panics() {
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        session.finish();
        session.feed(&[store(0)]);
    }

    #[test]
    #[should_panic(expected = "checkpoint after finish")]
    fn checkpoint_after_finish_panics() {
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        session.finish();
        let _ = session.checkpoint();
    }
}
