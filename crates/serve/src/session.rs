//! Per-connection session host: the supervision envelope around one
//! streaming detection run.
//!
//! Each connection gets one host running on its own thread. The host
//! pulls socket chunks through a [`StreamDecoder`], feeds decoded events
//! into a [`DetectSession`] in bounded batches, and commits results by
//! checkpointing after every successful batch. All detection work runs
//! behind [`std::panic::catch_unwind`]; a panic rolls the session back
//! to its last checkpoint and re-feeds the in-flight batch (linear
//! backoff), so transient faults are invisible to the client. When the
//! retry budget is exhausted the session is quarantined: the response
//! still carries every committed result plus an *exact* lost-frame
//! count (`frames_ok - events_committed`).
//!
//! Backpressure is structural: the host never reads the next socket
//! chunk while a full batch is waiting to be fed, so per-session memory
//! is bounded by one read chunk + one decode buffer + one batch of
//! events, regardless of how fast the client pushes.

use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pm_obs::MetricsRegistry;
use pm_trace::{IngestError, PmEvent, ReportDigest, StreamDecoder};
use pmdebugger::{
    panic_message, DebuggerConfig, DetectSession, FailMode, MemGovernor, MemPressure,
    SessionCheckpoint, SessionGrant,
};

use crate::config::{FaultPoint, ServeConfig};
use crate::error::SessionError;
use crate::journal::{Begin, Journal, SessionJournal};
use crate::protocol::{
    valid_session_key, PushResponse, SessionStatus, MAX_SESSION_KEY, SESSION_PREFIX, STATS_REQUEST,
};

/// Socket read size.
const READ_CHUNK: usize = 8 * 1024;

/// Poll granularity for read timeouts (lets the host notice deadlines,
/// drain requests and hard stops while a slow client stalls).
const POLL_MS: u64 = 25;

/// The socket operations the host needs, implemented by both
/// `UnixStream` and `TcpStream`.
pub(crate) trait SessionIo: Read + Write {
    /// Read timeout (`None` blocks forever).
    fn set_read_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()>;
    /// Write timeout (`None` blocks forever).
    fn set_write_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()>;
}

impl SessionIo for std::os::unix::net::UnixStream {
    fn set_read_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
    fn set_write_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
        self.set_write_timeout(ms.map(Duration::from_millis))
    }
}

impl SessionIo for std::net::TcpStream {
    fn set_read_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
    fn set_write_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
        self.set_write_timeout(ms.map(Duration::from_millis))
    }
}

/// Server-wide shutdown state shared with every session host.
#[derive(Debug, Default)]
pub(crate) struct ShutdownFlags {
    /// Stop accepting; let running sessions finish.
    pub drain: AtomicBool,
    /// Drain deadline passed: sessions abandon their sockets now.
    pub hard: AtomicBool,
}

/// Per-session wiring handed to the host by the accept loop.
pub(crate) struct SessionCtx {
    /// Server-assigned session id (1-based).
    pub id: u64,
    pub flags: Arc<ShutdownFlags>,
    /// This session's undecoded buffered bytes, summed by the accept
    /// loop for the global bytes-in-flight shed decision.
    pub buffered: Arc<AtomicU64>,
    pub registry: MetricsRegistry,
    /// The write-ahead journal, when the server runs with one. Only
    /// sessions that announce a key (`SESSION <key>\n`) use it.
    pub journal: Option<Arc<Journal>>,
    /// Shared memory-governance accounting: the host charges its tracked
    /// bytes here and obeys its pause/spill pressure signals.
    pub governor: MemGovernor,
    /// Learned bytes-per-session admission estimate, updated with this
    /// session's peak tracked bytes when it finishes.
    pub session_cost: Arc<AtomicU64>,
}

/// How one session ended, for the server's summary accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    Ok,
    Quarantined,
    Errored,
    Stats,
}

/// The detection half of the host: decoder → batches → checkpointed
/// session, with the retry envelope. Socket-free so it can be driven by
/// unit tests directly.
struct DetectPump<'a> {
    cfg: &'a ServeConfig,
    session_id: u64,
    session: Option<DetectSession>,
    checkpoint: SessionCheckpoint,
    pending: Vec<PmEvent>,
    /// Counts and hash of every committed report (fixed-size: the
    /// reports themselves are not kept).
    committed: ReportDigest,
    /// Events whose results are committed (mirrors the checkpoint).
    events_committed: u64,
    /// Total panics absorbed (attempt n is the n-th panic).
    attempts: u32,
    failure: Option<SessionError>,
    /// Journal handle for keyed sessions (checkpoints appended at every
    /// commit boundary; verdict ledgered by the host at end-of-stream).
    journal: Option<SessionJournal>,
    /// Decoded events to drop before feeding: a resumed client re-sends
    /// the full stream, and the first `skip` events are already
    /// committed in the recovered checkpoint.
    skip: u64,
    /// Where this session's state goes under Hard memory pressure.
    spill_dir: Option<PathBuf>,
    /// The live spill file while the session's state is on disk.
    spilled: Option<PathBuf>,
    /// Governor handle for spill/rehydration accounting, when hosted.
    governor: Option<MemGovernor>,
}

impl<'a> DetectPump<'a> {
    fn new(cfg: &'a ServeConfig, session_id: u64) -> Self {
        let session = DetectSession::new(DebuggerConfig::for_model(cfg.model));
        let checkpoint = session.checkpoint();
        DetectPump {
            cfg,
            session_id,
            session: Some(session),
            checkpoint,
            pending: Vec::new(),
            committed: ReportDigest::default(),
            events_committed: 0,
            attempts: 0,
            failure: None,
            journal: None,
            skip: 0,
            spill_dir: cfg.effective_spill_dir().cloned(),
            spilled: None,
            governor: None,
        }
    }

    fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Live heap footprint of the detection state: the in-memory session
    /// plus its rollback checkpoint. Zero-ish while spilled.
    fn tracked_bytes(&self) -> u64 {
        let session = self
            .session
            .as_ref()
            .map_or(0, DetectSession::tracked_bytes);
        session + self.checkpoint.tracked_bytes()
    }

    /// Spills the committed detection state to disk (temp file + atomic
    /// rename) and frees the live session and rollback checkpoint. The
    /// pending batch — bounded by `checkpoint_every` — stays in memory,
    /// and the next batch rehydrates transparently. Best-effort: on any
    /// I/O error the state simply stays in memory.
    fn spill(&mut self) -> bool {
        if self.spilled.is_some() || self.failed() {
            return false;
        }
        let Some(dir) = self.spill_dir.clone() else {
            return false;
        };
        // Between batches the live session and the checkpoint are the
        // same state (feeding happens only inside `run_batch`, which
        // re-checkpoints on commit), so persisting the checkpoint loses
        // nothing.
        let path = dir.join(format!("session-{}.spill", self.session_id));
        let tmp = dir.join(format!("session-{}.spill.tmp", self.session_id));
        let bytes = self.checkpoint.to_bytes();
        if std::fs::write(&tmp, &bytes)
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_err()
        {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        self.session = None;
        self.checkpoint =
            DetectSession::new(DebuggerConfig::for_model(self.cfg.model)).checkpoint();
        self.spilled = Some(path);
        if let Some(governor) = &self.governor {
            governor.note_spill();
        }
        true
    }

    /// Brings a spilled session back: reads the spill file, restores the
    /// rollback checkpoint and resumes detection from it.
    fn rehydrate(&mut self) -> Result<(), String> {
        let Some(path) = self.spilled.take() else {
            return Ok(());
        };
        let bytes = std::fs::read(&path).map_err(|e| format!("spill read failed: {e}"))?;
        let checkpoint = SessionCheckpoint::from_bytes(&bytes)
            .map_err(|e| format!("spill decode failed: {e}"))?;
        let _ = std::fs::remove_file(&path);
        self.session = Some(DetectSession::resume(checkpoint.clone()));
        self.checkpoint = checkpoint;
        if let Some(governor) = &self.governor {
            governor.note_rehydration();
        }
        Ok(())
    }

    /// Removes the on-disk spill file when the session ended while
    /// spilled (failure paths — success rehydrates before finishing).
    fn cleanup_spill(&mut self) {
        if let Some(path) = self.spilled.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Attaches a keyed session's journal. When a durable checkpoint
    /// was recovered, the pump resumes from it: detection state, the
    /// committed reports' digest and the commit counter are restored, and
    /// the first `events_committed` re-sent events are skipped.
    fn attach_journal(&mut self, mut journal: SessionJournal) {
        if let Some(resume) = journal.take_resume() {
            self.session = Some(DetectSession::resume(resume.checkpoint.clone()));
            self.checkpoint = resume.checkpoint;
            self.committed = resume.committed;
            self.events_committed = resume.events_committed;
            self.skip = resume.events_committed;
        }
        self.journal = Some(journal);
    }

    /// Queues one decoded event, flushing a full batch through the
    /// detector first when the in-flight queue is at capacity.
    /// (`checkpoint_every >= 1` is enforced by `ServeConfig::validate`
    /// before the server starts.)
    fn push_event(&mut self, event: PmEvent) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        if self.pending.len() >= self.cfg.checkpoint_every {
            self.run_batch(false);
        }
        if !self.failed() {
            self.pending.push(event);
        }
    }

    /// Feeds the pending batch (and on `at_finish` the end-of-stream
    /// rules) through the guarded detector, committing on success and
    /// retrying from the last checkpoint on panic. The batch is cloned
    /// per attempt: a panic destroys the in-flight copy, and the retry
    /// must replay exactly the same events.
    fn run_batch(&mut self, at_finish: bool) {
        if self.failed() || (self.pending.is_empty() && !at_finish) {
            return;
        }
        if self.spilled.is_some() {
            if let Err(message) = self.rehydrate() {
                self.fail(SessionError::Io { message });
                return;
            }
        }
        loop {
            let session = match self.session.take() {
                Some(s) => s,
                None => DetectSession::resume(self.checkpoint.clone()),
            };
            let hook = self.cfg.fault_hook.clone();
            let point = FaultPoint {
                session: self.session_id,
                attempt: self.attempts,
                events_fed: session.events_fed(),
                at_finish,
            };
            let batch = self.pending.clone();
            let outcome = catch_unwind(AssertUnwindSafe(move || {
                if let Some(hook) = hook {
                    if hook(point) {
                        panic!("injected session fault");
                    }
                }
                let mut session = session;
                let mut reports = session.feed(&batch);
                if at_finish {
                    reports.extend(session.finish());
                }
                (session, reports)
            }));
            match outcome {
                Ok((session, reports)) => {
                    for report in &reports {
                        self.committed.push(report);
                    }
                    self.events_committed = session.events_fed();
                    if !at_finish {
                        self.checkpoint = session.checkpoint();
                        // Commit boundary: make the checkpoint (and the
                        // committed reports' digest) durable before
                        // acknowledging more of the stream.
                        if let Some(journal) = self.journal.as_mut() {
                            journal.append_checkpoint(
                                self.events_committed,
                                &self.checkpoint,
                                &self.committed,
                            );
                        }
                    }
                    self.session = Some(session);
                    self.pending.clear();
                    return;
                }
                Err(payload) => {
                    // The in-flight session died inside the closure; roll
                    // back to the checkpoint and replay the same batch.
                    self.attempts += 1;
                    if self.attempts > self.cfg.max_retries {
                        self.failure = Some(SessionError::Faulted {
                            attempts: self.attempts,
                            message: panic_message(&*payload),
                        });
                        self.pending.clear();
                        return;
                    }
                    if !self.cfg.retry_backoff.is_zero() {
                        let jitter =
                            retry_jitter(self.session_id, self.attempts, self.cfg.retry_backoff);
                        thread::sleep(backoff_delay(self.cfg.retry_backoff, self.attempts, jitter));
                    }
                    self.session = Some(DetectSession::resume(self.checkpoint.clone()));
                }
            }
        }
    }

    /// Marks the session failed with a non-panic cause (deadline, socket
    /// loss, drain) unless a failure is already recorded.
    fn fail(&mut self, error: SessionError) {
        if self.failure.is_none() {
            self.failure = Some(error);
            self.pending.clear();
        }
    }

    /// Decoded-but-uncommitted frames: the exact loss a quarantine
    /// response must report. `frames_decoded` is the decoder's
    /// `frames_ok`.
    fn frames_lost(&self, frames_decoded: u64) -> u64 {
        frames_decoded.saturating_sub(self.events_committed)
    }
}

/// Linear retry backoff, saturating end to end: `base * attempt + jitter`
/// must never panic, even with `retry_backoff` and `max_retries`
/// configured at their extremes (`Duration * u32` aborts on overflow).
fn backoff_delay(base: Duration, attempt: u32, jitter: Duration) -> Duration {
    base.saturating_mul(attempt).saturating_add(jitter)
}

/// Deterministic retry jitter: a splitmix64-mixed fraction of the base
/// backoff, derived from (session, attempt). Sessions that fault
/// together don't retry in lockstep, while any given (session, attempt)
/// pair always waits the same amount — seeded chaos plans stay
/// reproducible.
fn retry_jitter(session_id: u64, attempt: u32, base: Duration) -> Duration {
    let base_ns = base.as_nanos() as u64;
    if base_ns == 0 {
        return Duration::ZERO;
    }
    // `splitmix64` adds one increment before mixing, so attempt `a`
    // starts `a - 1` increments past the session's seed.
    let mut state = session_id
        .rotate_left(32)
        .wrapping_add(u64::from(attempt.wrapping_sub(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    Duration::from_nanos(pm_trace::splitmix64(&mut state) % base_ns)
}

/// What the head bytes of a connection turned out to be.
enum Preface {
    /// Not enough bytes to decide yet.
    NeedMore,
    /// `STATS\n` — answer with the metrics snapshot.
    Stats,
    /// `SESSION <key>\n` — a keyed (journalable) push; `consumed` bytes
    /// of the head belong to the preface, the rest is trace data.
    Session { key: String, consumed: usize },
    /// Anything else — an anonymous push.
    Push,
}

/// Classifies the sniffed head bytes. With `eof` set the decision is
/// forced (a partial leader at end-of-stream is a tiny push).
fn sniff_preface(head: &[u8], eof: bool) -> Preface {
    if head.starts_with(STATS_REQUEST) {
        return Preface::Stats;
    }
    if head.starts_with(SESSION_PREFIX) {
        let rest = &head[SESSION_PREFIX.len()..];
        if let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            return match std::str::from_utf8(&rest[..nl]) {
                Ok(key) if valid_session_key(key) => Preface::Session {
                    key: key.to_owned(),
                    consumed: SESSION_PREFIX.len() + nl + 1,
                },
                // A malformed key is not silently an anonymous push of
                // ambiguous bytes — but salvage decode of the preface
                // text yields zero frames, which is the same answer.
                _ => Preface::Push,
            };
        }
        if eof || rest.len() > MAX_SESSION_KEY {
            return Preface::Push;
        }
        return Preface::NeedMore;
    }
    let may_be_stats = head.len() < STATS_REQUEST.len() && STATS_REQUEST.starts_with(head);
    let may_be_session = head.len() < SESSION_PREFIX.len() && SESSION_PREFIX.starts_with(head);
    if !eof && (may_be_stats || may_be_session) {
        return Preface::NeedMore;
    }
    Preface::Push
}

/// Handles one accepted connection end to end: sniffs push vs stats
/// vs keyed session, runs the detection pump, writes the one-line
/// response. Never panics out (the server additionally wraps it in
/// `catch_unwind` as a last-resort zero-abort guarantee).
pub(crate) fn handle_conn<S: SessionIo>(
    mut stream: S,
    cfg: &ServeConfig,
    ctx: &SessionCtx,
    stats_snapshot: &dyn Fn() -> String,
) -> SessionEnd {
    let start = Instant::now();
    let _ = stream.set_read_timeout_ms(Some(POLL_MS));
    let _ = stream.set_write_timeout_ms(Some(2_000));

    let mut decoder = StreamDecoder::new(cfg.mode, cfg.limits.clone());
    let mut pump = DetectPump::new(cfg, ctx.id);
    pump.governor = Some(ctx.governor.clone());
    let mut grant = ctx.governor.register_session(ctx.id);
    let mut peak_tracked: u64 = 0;
    let mut paused_last = false;
    let mut head: Vec<u8> = Vec::with_capacity(STATS_REQUEST.len());
    let mut sniffing = true;
    let mut eof = false;
    let mut chunk = [0u8; READ_CHUNK];

    while !eof && !pump.failed() {
        // Deadline / shutdown checks happen between reads, so even a
        // client that trickles one byte per poll cannot pin the session.
        if let Some(limit) = cfg.session_deadline {
            if start.elapsed() >= limit {
                pump.fail(SessionError::Deadline {
                    limit_ms: limit.as_millis() as u64,
                });
                break;
            }
        }
        if ctx.flags.hard.load(Ordering::Relaxed) {
            pump.fail(SessionError::Drained);
            break;
        }
        // Soft pressure: throttle ingest on the largest session,
        // alternating pause and read so a lone whale still drains
        // instead of deadlocking on its own footprint.
        if !paused_last
            && ctx.governor.pressure() == MemPressure::Soft
            && ctx.governor.is_largest(ctx.id)
        {
            ctx.governor.note_pause(POLL_MS);
            thread::sleep(Duration::from_millis(POLL_MS));
            paused_last = true;
            continue;
        }
        paused_last = false;
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                eof = true;
                0
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                pump.fail(SessionError::Io {
                    message: e.to_string(),
                });
                break;
            }
        };
        if sniffing {
            head.extend_from_slice(&chunk[..n]);
            match sniff_preface(&head, eof) {
                Preface::NeedMore => continue,
                Preface::Stats => {
                    ctx.registry.counter("serve.stats_requests").inc();
                    let _ = stream.write_all(stats_snapshot().as_bytes());
                    let _ = stream.write_all(b"\n");
                    return SessionEnd::Stats;
                }
                Preface::Session { key, consumed } => {
                    sniffing = false;
                    if let Some(end) = begin_keyed(&mut stream, cfg, ctx, &mut pump, &key) {
                        return end;
                    }
                    let sniffed = std::mem::take(&mut head);
                    decoder.push(&sniffed[consumed..]);
                }
                Preface::Push => {
                    sniffing = false;
                    let sniffed = std::mem::take(&mut head);
                    decoder.push(&sniffed);
                }
            }
        } else {
            decoder.push(&chunk[..n]);
        }
        if let Err(e) = drain_decoder(&mut decoder, &mut pump, cfg) {
            return respond_decode_error(&mut stream, ctx, &mut decoder, &mut pump, start, e);
        }
        ctx.buffered
            .store(decoder.buffered_bytes() as u64, Ordering::Relaxed);
        govern(ctx, &mut pump, &mut grant, &mut peak_tracked);
    }

    if sniffing && !head.is_empty() {
        // Stream ended inside the sniff window; the decision is forced.
        match sniff_preface(&head, true) {
            Preface::Stats => {
                ctx.registry.counter("serve.stats_requests").inc();
                let _ = stream.write_all(stats_snapshot().as_bytes());
                let _ = stream.write_all(b"\n");
                return SessionEnd::Stats;
            }
            Preface::Session { key, consumed } => {
                if let Some(end) = begin_keyed(&mut stream, cfg, ctx, &mut pump, &key) {
                    return end;
                }
                let sniffed = std::mem::take(&mut head);
                decoder.push(&sniffed[consumed..]);
            }
            Preface::NeedMore | Preface::Push => {
                let sniffed = std::mem::take(&mut head);
                decoder.push(&sniffed);
            }
        }
    }

    if !pump.failed() {
        decoder.finish();
        if let Err(e) = drain_decoder(&mut decoder, &mut pump, cfg) {
            return respond_decode_error(&mut stream, ctx, &mut decoder, &mut pump, start, e);
        }
        // End-of-stream rules (no-durability residuals) under the same
        // retry envelope as every other batch.
        pump.run_batch(true);
    }
    ctx.buffered.store(0, Ordering::Relaxed);
    peak_tracked = peak_tracked.max(pump.tracked_bytes());
    drop(grant);
    pump.cleanup_spill();
    observe_cost(&ctx.session_cost, peak_tracked);

    let response = build_response(cfg, ctx, &mut decoder, &pump, start);
    // Verdict ledger: only content-terminal outcomes — a clean end of
    // stream or a quarantine after exhausted retries — fence replay.
    // Deadline/io/drain failures leave the key resumable instead, so a
    // crashed daemon's interrupted sessions pick up from their last
    // durable checkpoint on the next push.
    if let Some(mut journal) = pump.journal.take() {
        if matches!(pump.failure, None | Some(SessionError::Faulted { .. })) {
            let line = response.to_json_line();
            journal.append_verdict(&line);
            journal.finish(Some(line));
        } else {
            journal.finish(None);
        }
    }
    let end = match response.status {
        SessionStatus::Ok => SessionEnd::Ok,
        SessionStatus::Quarantined => SessionEnd::Quarantined,
        _ => SessionEnd::Errored,
    };
    export_metrics(ctx, &response);
    let _ = stream.write_all(response.to_json_line().as_bytes());
    let _ = stream.write_all(b"\n");
    end
}

/// Post-drain governance: charge the grant with the session's live
/// tracked bytes, then spill under Hard pressure — a per-session budget
/// overrun, or global Hard pressure when this session holds the largest
/// footprint.
fn govern(ctx: &SessionCtx, pump: &mut DetectPump<'_>, grant: &mut SessionGrant, peak: &mut u64) {
    let tracked = pump.tracked_bytes();
    *peak = (*peak).max(tracked);
    grant.update(tracked);
    let hard = grant.pressure() >= MemPressure::Hard
        || (ctx.governor.pressure() >= MemPressure::Hard && ctx.governor.is_largest(ctx.id));
    if hard && pump.spill() {
        grant.release_all();
    }
}

/// Folds one finished session's peak tracked bytes into the learned
/// admission estimate (EWMA, weight 1/4 to the new observation).
fn observe_cost(cell: &AtomicU64, observed: u64) {
    if observed == 0 {
        return;
    }
    let old = cell.load(Ordering::Relaxed);
    let new = old.saturating_mul(3).saturating_add(observed) / 4;
    cell.store(new.max(1), Ordering::Relaxed);
}

/// Begins a keyed session against the journal. `Some(end)` means the
/// connection was already answered (replayed verdict, or duplicate-key
/// busy) and the host should return; `None` means detection proceeds —
/// with the journal attached when the server runs one.
fn begin_keyed<S: SessionIo>(
    stream: &mut S,
    cfg: &ServeConfig,
    ctx: &SessionCtx,
    pump: &mut DetectPump<'_>,
    key: &str,
) -> Option<SessionEnd> {
    let journal = ctx.journal.as_ref()?;
    match journal.begin(key) {
        Begin::Replay(line) => {
            ctx.registry.counter("serve.sessions").inc();
            ctx.registry.counter("serve.sessions_ok").inc();
            let answer = match PushResponse::from_json(&line) {
                Ok(mut response) => {
                    response.replayed = true;
                    response.to_json_line()
                }
                // A ledger line that no longer parses is still the
                // verdict of record; replay it verbatim.
                Err(_) => line,
            };
            let _ = stream.write_all(answer.as_bytes());
            let _ = stream.write_all(b"\n");
            Some(SessionEnd::Ok)
        }
        Begin::Busy => {
            ctx.registry.counter("serve.session_key_busy").inc();
            let mut response = PushResponse::empty(SessionStatus::Busy);
            response.error = Some(format!("session key `{key}` is already active"));
            response.retry_after_ms = Some(cfg.retry_after.as_millis() as u64);
            let _ = stream.write_all(response.to_json_line().as_bytes());
            let _ = stream.write_all(b"\n");
            Some(SessionEnd::Errored)
        }
        Begin::Fresh(journal) => {
            pump.attach_journal(*journal);
            None
        }
    }
}

/// Pulls every currently decodable event into the pump. Only strict
/// ingest mode can return an error.
fn drain_decoder(
    decoder: &mut StreamDecoder,
    pump: &mut DetectPump<'_>,
    _cfg: &ServeConfig,
) -> Result<(), IngestError> {
    loop {
        if pump.failed() {
            return Ok(());
        }
        match decoder.next_event()? {
            Some(event) => pump.push_event(event),
            None => return Ok(()),
        }
    }
}

fn respond_decode_error<S: SessionIo>(
    stream: &mut S,
    ctx: &SessionCtx,
    decoder: &mut StreamDecoder,
    pump: &mut DetectPump<'_>,
    start: Instant,
    error: IngestError,
) -> SessionEnd {
    pump.cleanup_spill();
    let mut response = PushResponse::empty(SessionStatus::Error);
    let report = decoder.report();
    response.session = ctx.id;
    response.frames_ok = report.frames_ok;
    response.frames_clean = report.frames_clean;
    response.frames_resynced = report.frames_resynced;
    response.frames_skipped = report.frames_skipped;
    response.resyncs = report.resyncs;
    response.bytes_read = report.bytes_read;
    response.frames_lost = pump.frames_lost(report.frames_ok);
    response.retries = pump.attempts;
    response.elapsed_ms = start.elapsed().as_millis() as u64;
    response.error = Some(error.to_string());
    response.error_kind = Some("corrupt".to_owned());
    export_metrics(ctx, &response);
    let _ = stream.write_all(response.to_json_line().as_bytes());
    let _ = stream.write_all(b"\n");
    SessionEnd::Errored
}

fn build_response(
    cfg: &ServeConfig,
    ctx: &SessionCtx,
    decoder: &mut StreamDecoder,
    pump: &DetectPump<'_>,
    start: Instant,
) -> PushResponse {
    let report = decoder.report().clone();
    let status = match (&pump.failure, cfg.fail_mode) {
        (None, _) => SessionStatus::Ok,
        (Some(_), FailMode::Degrade) => SessionStatus::Quarantined,
        (Some(_), FailMode::Strict) => SessionStatus::Error,
    };
    let mut response = PushResponse::empty(status);
    response.session = ctx.id;
    response.frames_ok = report.frames_ok;
    response.frames_clean = report.frames_clean;
    response.frames_resynced = report.frames_resynced;
    response.frames_skipped = report.frames_skipped;
    response.resyncs = report.resyncs;
    response.bytes_read = report.bytes_read;
    response.events_committed = pump.events_committed;
    response.frames_lost = pump.frames_lost(report.frames_ok);
    response.retries = pump.attempts;
    response.elapsed_ms = start.elapsed().as_millis() as u64;
    response.truncated = report.truncated.map(|t| t.to_string());
    if let Some(error) = &pump.failure {
        response.error = Some(error.to_string());
        response.error_kind = Some(error.tag().to_owned());
    }
    if status != SessionStatus::Error {
        // Committed results travel even on quarantine (degrade mode's
        // whole point); strict mode withholds partial results.
        let bugs = pump.committed.to_bug_digest();
        response.bugs_total = bugs.total;
        response.bug_kinds = bugs.kinds;
        response.report_hash = bugs.report_hash;
    }
    response
}

fn export_metrics(ctx: &SessionCtx, response: &PushResponse) {
    let m = &ctx.registry;
    m.counter("serve.sessions").inc();
    let status_counter = match response.status {
        SessionStatus::Ok => "serve.sessions_ok",
        SessionStatus::Quarantined => "serve.sessions_quarantined",
        _ => "serve.sessions_errored",
    };
    m.counter(status_counter).inc();
    m.counter("serve.frames_ok").add(response.frames_ok);
    m.counter("serve.frames_clean").add(response.frames_clean);
    m.counter("serve.frames_resynced")
        .add(response.frames_resynced);
    m.counter("serve.frames_skipped")
        .add(response.frames_skipped);
    m.counter("serve.resyncs").add(response.resyncs);
    m.counter("serve.bytes_read").add(response.bytes_read);
    m.counter("serve.events_committed")
        .add(response.events_committed);
    m.counter("serve.frames_lost").add(response.frames_lost);
    m.counter("serve.retries").add(u64::from(response.retries));
    m.counter("serve.bugs").add(response.bugs_total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Listen;
    use pm_trace::{to_binary, FenceKind, FlushKind, ThreadId, Trace};

    /// The jitter for sessions 0..32 at attempts 1..=4 on a 5 ms base, as
    /// the hand-inlined finalizer computed it before `retry_jitter` called
    /// `pm_trace::splitmix64`.
    #[test]
    fn retry_jitter_is_pinned() {
        let pinned: [[u64; 4]; 32] = [
            [3607535, 4355700, 1545679, 542444],
            [3000056, 4693437, 514069, 2547701],
            [2495282, 89532, 3896216, 3177067],
            [305595, 4793508, 3112149, 1386200],
            [921743, 3128925, 968497, 4659429],
            [4775146, 3858857, 1140863, 1083907],
            [4686044, 230198, 3013927, 3844939],
            [1273489, 1611828, 461018, 4554989],
            [199074, 1384283, 297912, 1840718],
            [4098353, 425415, 3885516, 3510490],
            [1575989, 4968989, 2811534, 3333459],
            [2160810, 3529955, 1391869, 505462],
            [718839, 1325875, 4839377, 3856602],
            [58908, 3584909, 3692278, 3107912],
            [1001610, 4854655, 2227068, 4644541],
            [523899, 3174303, 1734862, 2899581],
            [1381742, 1236809, 2612136, 1477048],
            [1224259, 604959, 2915162, 3430108],
            [180839, 874472, 1833190, 1376583],
            [1872918, 1598362, 1433150, 3052540],
            [1142183, 266641, 3441823, 251592],
            [3576008, 147909, 4072044, 4819252],
            [2484245, 1830520, 2504949, 3670630],
            [4851860, 2915387, 155890, 230541],
            [3943271, 4200618, 4019392, 1633550],
            [583498, 3139608, 1782883, 2678700],
            [3273324, 4299121, 1271851, 1431896],
            [2864493, 2343994, 2003602, 1052918],
            [3616588, 3631192, 829242, 3534361],
            [1072184, 4197895, 1635432, 4603630],
            [316515, 4317066, 3038151, 2489508],
            [663445, 4258440, 4755081, 4755431],
        ];
        for (session, row) in pinned.iter().enumerate() {
            for (attempt, &ns) in (1u32..).zip(row) {
                let jitter = retry_jitter(session as u64, attempt, Duration::from_millis(5));
                assert_eq!(
                    jitter,
                    Duration::from_nanos(ns),
                    "session {session} attempt {attempt}"
                );
            }
        }
    }

    /// In-memory duplex: the test writes the request up front; the host
    /// reads it, then writes its response into `out`.
    struct Loopback {
        input: std::io::Cursor<Vec<u8>>,
        out: Vec<u8>,
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }
    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl SessionIo for Loopback {
        fn set_read_timeout_ms(&mut self, _ms: Option<u64>) -> std::io::Result<()> {
            Ok(())
        }
        fn set_write_timeout_ms(&mut self, _ms: Option<u64>) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sample_events() -> Vec<PmEvent> {
        // 48 events: 16 × (store, flush, fence) — fully persisted, so a
        // clean run reports zero bugs.
        (0..16u64)
            .flat_map(|i| {
                [
                    PmEvent::Store {
                        addr: i * 64,
                        size: 8,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                    PmEvent::Flush {
                        kind: FlushKind::Clwb,
                        addr: i * 64,
                        size: 64,
                        tid: ThreadId(0),
                        strand: None,
                    },
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                ]
            })
            .collect()
    }

    fn sample_bytes() -> Vec<u8> {
        let trace: Trace = sample_events().into_iter().collect();
        to_binary(&trace)
    }

    fn anon_ctx(id: u64) -> SessionCtx {
        SessionCtx {
            id,
            flags: Arc::new(ShutdownFlags::default()),
            buffered: Arc::new(AtomicU64::new(0)),
            registry: MetricsRegistry::new(),
            journal: None,
            governor: MemGovernor::unlimited(),
            session_cost: Arc::new(AtomicU64::new(0)),
        }
    }

    fn run(cfg: &ServeConfig, input: Vec<u8>) -> (SessionEnd, PushResponse) {
        let ctx = anon_ctx(1);
        let mut io = Loopback {
            input: std::io::Cursor::new(input),
            out: Vec::new(),
        };
        let end = handle_conn(&mut io, cfg, &ctx, &|| "{}".to_owned());
        let text = String::from_utf8(io.out).unwrap();
        (end, PushResponse::from_json(&text).unwrap())
    }

    impl<S: SessionIo> SessionIo for &mut S {
        fn set_read_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
            (**self).set_read_timeout_ms(ms)
        }
        fn set_write_timeout_ms(&mut self, ms: Option<u64>) -> std::io::Result<()> {
            (**self).set_write_timeout_ms(ms)
        }
    }

    fn test_config() -> ServeConfig {
        let mut cfg = ServeConfig::new(Listen::Tcp("127.0.0.1:0".into()));
        cfg.checkpoint_every = 8;
        cfg.retry_backoff = Duration::from_millis(0);
        cfg
    }

    #[test]
    fn clean_push_is_ok_with_exact_counts() {
        let bytes = sample_bytes();
        let (end, resp) = run(&test_config(), bytes.clone());
        assert_eq!(end, SessionEnd::Ok);
        assert_eq!(resp.status, SessionStatus::Ok);
        assert_eq!(resp.frames_ok, 48);
        assert_eq!(resp.events_committed, 48);
        assert_eq!(resp.frames_lost, 0);
        assert_eq!(resp.bytes_read, bytes.len() as u64);
        assert_eq!(resp.bugs_total, 0);
    }

    #[test]
    fn transient_fault_retries_and_matches_clean_run() {
        let (_, clean) = run(&test_config(), sample_bytes());
        let mut cfg = test_config();
        // Panic on the first attempt of every batch; retries succeed.
        cfg.fault_hook = Some(Arc::new(|p: FaultPoint| p.attempt == 0 && !p.at_finish));
        let (end, resp) = run(&cfg, sample_bytes());
        assert_eq!(end, SessionEnd::Ok);
        assert_eq!(resp.status, SessionStatus::Ok);
        assert!(resp.retries >= 1);
        assert_eq!(resp.frames_lost, 0);
        assert_eq!(resp.report_hash, clean.report_hash);
        assert_eq!(resp.events_committed, clean.events_committed);
    }

    #[test]
    fn permanent_fault_quarantines_with_exact_loss() {
        let mut cfg = test_config();
        cfg.max_retries = 2;
        // Always panic once 16 events have been committed.
        cfg.fault_hook = Some(Arc::new(|p: FaultPoint| p.events_fed >= 16));
        let (end, resp) = run(&cfg, sample_bytes());
        assert_eq!(end, SessionEnd::Quarantined);
        assert_eq!(resp.status, SessionStatus::Quarantined);
        assert_eq!(resp.retries, 3, "1 attempt + 2 retries");
        assert_eq!(resp.events_committed, 16);
        // Backpressure stops decoding once the session fails: the third
        // batch's trigger event (25 = 3*8 + 1) is the last one decoded.
        assert_eq!(resp.frames_ok, 25);
        assert_eq!(resp.frames_lost, 9, "exact loss accounting");
        assert_eq!(resp.error_kind.as_deref(), Some("faulted"));
    }

    #[test]
    fn strict_fail_mode_withholds_partial_results() {
        let mut cfg = test_config();
        cfg.fail_mode = FailMode::Strict;
        cfg.fault_hook = Some(Arc::new(|p: FaultPoint| p.events_fed >= 16));
        let (end, resp) = run(&cfg, sample_bytes());
        assert_eq!(end, SessionEnd::Errored);
        assert_eq!(resp.status, SessionStatus::Error);
        assert_eq!(resp.bugs_total, 0);
    }

    #[test]
    fn corrupt_stream_salvages_and_stays_ok() {
        let mut bytes = sample_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let (end, resp) = run(&test_config(), bytes);
        assert_eq!(end, SessionEnd::Ok, "salvage mode keeps the session ok");
        assert!(resp.frames_skipped >= 1);
        assert!(resp.frames_clean > 0);
        assert_eq!(resp.frames_lost, 0);
    }

    #[test]
    fn stats_request_returns_snapshot_not_push_response() {
        let ctx = anon_ctx(9);
        let mut io = Loopback {
            input: std::io::Cursor::new(STATS_REQUEST.to_vec()),
            out: Vec::new(),
        };
        let end = handle_conn(&mut io, &test_config(), &ctx, &|| {
            "{\"live\":true}".to_owned()
        });
        assert_eq!(end, SessionEnd::Stats);
        assert_eq!(String::from_utf8(io.out).unwrap(), "{\"live\":true}\n");
    }

    #[test]
    fn tiny_garbage_push_is_answered_not_hung() {
        let (end, resp) = run(&test_config(), b"xy".to_vec());
        // Salvage mode: nothing decodable, zero frames, still a clean
        // (empty) session — the server answers rather than aborting.
        assert_eq!(end, SessionEnd::Ok);
        assert_eq!(resp.frames_ok, 0);
    }

    #[test]
    fn backoff_delay_saturates_instead_of_panicking() {
        assert_eq!(
            backoff_delay(Duration::from_millis(5), 3, Duration::from_millis(1)),
            Duration::from_millis(16)
        );
        // max_retries / retry_backoff configured at their extremes: the
        // product and the jitter add must saturate, never abort.
        let huge = Duration::from_secs(u64::MAX / 2);
        assert_eq!(backoff_delay(huge, u32::MAX, Duration::MAX), Duration::MAX);
        assert_eq!(
            backoff_delay(Duration::MAX, 2, Duration::ZERO),
            Duration::MAX
        );
        assert_eq!(
            backoff_delay(Duration::MAX, 1, Duration::from_nanos(1)),
            Duration::MAX
        );
    }

    #[test]
    fn spill_and_rehydrate_is_byte_identical_mid_stream() {
        let dir = journal_tmp("pump-spill");
        let mut cfg = test_config();
        cfg.spill_dir = Some(dir.clone());
        let events = sample_events();
        let mut clean = DetectPump::new(&cfg, 7);
        for e in events.clone() {
            clean.push_event(e);
        }
        clean.run_batch(true);

        // Spill mid-stream (16 of 48 events committed, 8 pending in
        // memory), keep feeding: the next batch rehydrates and the run
        // must end byte-identical to the unspilled one.
        let mut pump = DetectPump::new(&cfg, 7);
        for e in events.iter().take(24).cloned() {
            pump.push_event(e);
        }
        assert!(pump.spill(), "state must move to disk");
        assert!(pump.spilled.is_some());
        assert!(pump.session.is_none(), "live session freed");
        for e in events.iter().skip(24).cloned() {
            pump.push_event(e);
        }
        pump.run_batch(true);
        assert!(pump.spilled.is_none(), "rehydrated transparently");
        assert_eq!(pump.committed, clean.committed);
        assert_eq!(pump.events_committed, clean.events_committed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn whale_session_spills_and_matches_unpressured_run() {
        use pmdebugger::GovernorConfig;
        let (_, clean) = run(&test_config(), sample_bytes());
        let dir = journal_tmp("whale");
        let mut cfg = test_config();
        cfg.spill_dir = Some(dir.clone());
        // A budget far under one session's baseline: the whale crosses it
        // immediately, so the host must spill and still answer exactly
        // like the unpressured run.
        let gov = MemGovernor::new(GovernorConfig::with_global_budget(4096));
        let mut ctx = anon_ctx(1);
        ctx.governor = gov.clone();
        let mut io = Loopback {
            input: std::io::Cursor::new(sample_bytes()),
            out: Vec::new(),
        };
        let end = handle_conn(&mut io, &cfg, &ctx, &|| "{}".to_owned());
        let resp = PushResponse::from_json(&String::from_utf8(io.out).unwrap()).unwrap();
        assert_eq!(end, SessionEnd::Ok);
        assert_eq!(resp.status, SessionStatus::Ok);
        assert_eq!(resp.report_hash, clean.report_hash);
        assert_eq!(resp.events_committed, clean.events_committed);
        let counters = gov.counters();
        assert!(counters.spills >= 1, "whale must spill: {counters:?}");
        assert!(counters.rehydrations >= 1, "and rehydrate: {counters:?}");
        assert_eq!(gov.tracked_bytes(), 0, "grant fully released at teardown");
        assert_eq!(gov.session_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(5);
        for session in 0..32u64 {
            for attempt in 1..4u32 {
                let a = retry_jitter(session, attempt, base);
                assert_eq!(a, retry_jitter(session, attempt, base), "deterministic");
                assert!(a < base, "jitter stays under one base backoff");
            }
        }
        // Different sessions de-correlate (not all equal).
        let spread: std::collections::HashSet<_> =
            (0..32u64).map(|s| retry_jitter(s, 1, base)).collect();
        assert!(spread.len() > 16, "jitter varies across sessions");
        assert_eq!(retry_jitter(3, 1, Duration::ZERO), Duration::ZERO);
    }

    fn journal_tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pmdbg-sess-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn keyed_ctx(dir: &std::path::Path, registry: MetricsRegistry) -> SessionCtx {
        let journal = Arc::new(
            crate::journal::Journal::open(
                dir.to_path_buf(),
                Arc::new(crate::journal::FsJournalEnv),
                registry.clone(),
            )
            .unwrap(),
        );
        SessionCtx {
            id: 1,
            flags: Arc::new(ShutdownFlags::default()),
            buffered: Arc::new(AtomicU64::new(0)),
            registry,
            journal: Some(journal),
            governor: MemGovernor::unlimited(),
            session_cost: Arc::new(AtomicU64::new(0)),
        }
    }

    fn run_keyed(
        cfg: &ServeConfig,
        ctx: &SessionCtx,
        input: Vec<u8>,
    ) -> (SessionEnd, PushResponse) {
        let mut io = Loopback {
            input: std::io::Cursor::new(input),
            out: Vec::new(),
        };
        let end = handle_conn(&mut io, cfg, ctx, &|| "{}".to_owned());
        let text = String::from_utf8(io.out).unwrap();
        (end, PushResponse::from_json(&text).unwrap())
    }

    #[test]
    fn keyed_push_journals_and_replays_exactly_once() {
        let dir = journal_tmp("replay");
        let cfg = test_config();
        let registry = MetricsRegistry::new();
        let ctx = keyed_ctx(&dir, registry.clone());

        let mut input = crate::protocol::session_preface("k1");
        input.extend_from_slice(&sample_bytes());

        let (end, first) = run_keyed(&cfg, &ctx, input.clone());
        assert_eq!(end, SessionEnd::Ok);
        assert!(!first.replayed);
        assert_eq!(first.frames_ok, 48);
        assert!(registry.counter("journal.records_appended").get() >= 2);

        // Second push of the same key: answered from the ledger, with
        // identical results and no recomputation.
        let (end, second) = run_keyed(&cfg, &ctx, input.clone());
        assert_eq!(end, SessionEnd::Ok);
        assert!(second.replayed);
        assert_eq!(second.report_hash, first.report_hash);
        assert_eq!(second.events_committed, first.events_committed);
        assert_eq!(registry.counter("journal.verdicts_replayed").get(), 1);

        // The replay fence survives a full restart over the same dir.
        let ctx = keyed_ctx(&dir, MetricsRegistry::new());
        let (_, third) = run_keyed(&cfg, &ctx, input);
        assert!(third.replayed);
        assert_eq!(third.report_hash, first.report_hash);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_same_key_is_answered_busy() {
        let dir = journal_tmp("busy");
        let cfg = test_config();
        let ctx = keyed_ctx(&dir, MetricsRegistry::new());
        let journal = ctx.journal.clone().unwrap();
        // Hold the key open as another in-flight connection would.
        let Begin::Fresh(holder) = journal.begin("k3") else {
            panic!("expected fresh session");
        };
        let mut input = crate::protocol::session_preface("k3");
        input.extend_from_slice(&sample_bytes());
        let (end, resp) = run_keyed(&cfg, &ctx, input);
        assert_eq!(end, SessionEnd::Errored);
        assert_eq!(resp.status, SessionStatus::Busy);
        assert!(resp.retry_after_ms.is_some());
        drop(holder);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_keyed_session_resumes_from_list_or_digest_checkpoint() {
        use crate::journal::{checkpoint_payload, encode_record, REC_CHECKPOINT_LIST};
        use pm_workloads::{record_trace, BTree};
        use pmdebugger::encode_reports;
        let cfg = test_config();
        let trace = record_trace(&BTree::new(3), 500);
        let bytes = to_binary(&trace);
        let (_, clean) = run(&cfg, bytes.clone());
        let events = trace.events();
        let mut session = DetectSession::new(DebuggerConfig::for_model(cfg.model));
        let first = session.feed(&events[..4096]);
        // A type-1 record as older daemons wrote it: the cumulative
        // committed report list where type 3 has the digest.
        let (ckpt, list) = (session.checkpoint().to_bytes(), encode_reports(&first));
        let legacy = encode_record(
            REC_CHECKPOINT_LIST,
            &checkpoint_payload("k", 4096, &ckpt, &list),
        );
        let mut second = first.clone();
        second.extend(session.feed(&events[4096..8192]));
        assert!(!first.is_empty() && second.len() > first.len());

        // A daemon crashed mid-session, leaving no verdict: the client
        // re-pushes the full stream and the pump skips the committed
        // prefix. A lone type-1 record resumes; a type-3 record after it
        // wins.
        for later in [None, Some((8192, session.checkpoint(), &second))] {
            let dir = journal_tmp(if later.is_some() {
                "legacy-then-3"
            } else {
                "legacy"
            });
            let mut wal = crate::journal::JOURNAL_FILE_MAGIC.to_vec();
            wal.extend_from_slice(&legacy);
            std::fs::write(dir.join("k.wal"), wal).unwrap();
            let (committed, reports) = match &later {
                None => (4096, first.len()),
                Some((at, checkpoint, reports)) => {
                    let ctx = keyed_ctx(&dir, MetricsRegistry::new());
                    let Begin::Fresh(mut sj) = ctx.journal.as_ref().unwrap().begin("k") else {
                        panic!("expected resumable session");
                    };
                    sj.append_checkpoint(*at, checkpoint, &ReportDigest::of(reports));
                    sj.finish(None);
                    (*at, reports.len())
                }
            };
            // What `pmdbg recover --json` prints for the key.
            let json = crate::journal::recover_dir(&dir).unwrap().to_json();
            let want = format!("\"events_committed\":{committed},\"reports\":{reports},");
            assert!(json.contains(&want), "{json}");

            let registry = MetricsRegistry::new();
            let ctx = keyed_ctx(&dir, registry.clone());
            let mut input = crate::protocol::session_preface("k");
            input.extend_from_slice(&bytes);
            let (end, resp) = run_keyed(&cfg, &ctx, input);
            assert_eq!(end, SessionEnd::Ok);
            assert!(!resp.replayed);
            assert_eq!(registry.counter("journal.sessions_resumed").get(), 1);
            assert_eq!(resp.events_committed, clean.events_committed);
            assert_eq!(resp.bugs_total, clean.bugs_total);
            assert_eq!(resp.bug_kinds, clean.bug_kinds);
            assert_eq!(resp.report_hash, clean.report_hash);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Drives `events` through a keyed pump journaling into a fresh
    /// directory. Returns the committed digest and, for every checkpoint
    /// record in the journal file, the length of its committed-reports
    /// field (the field that follows the `SessionCheckpoint` blob).
    fn journaled_report_fields(tag: &str, events: &[PmEvent]) -> (ReportDigest, Vec<usize>) {
        let dir = journal_tmp(tag);
        let cfg = ServeConfig::new(Listen::Tcp("127.0.0.1:0".into()));
        let ctx = keyed_ctx(&dir, MetricsRegistry::new());
        let Begin::Fresh(journal) = ctx.journal.as_ref().unwrap().begin("k") else {
            panic!("expected fresh session");
        };
        let mut pump = DetectPump::new(&cfg, 1);
        pump.attach_journal(*journal);
        for event in events {
            pump.push_event(event.clone());
        }
        pump.run_batch(true);
        let committed = pump.committed;
        drop(pump);
        let bytes = std::fs::read(dir.join("k.wal")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let mut fields = Vec::new();
        let mut pos = crate::journal::JOURNAL_FILE_MAGIC.len();
        while pos < bytes.len() {
            // [magic u32][type u8][len u32][payload][crc u32]; the payload
            // is key field, events varint, checkpoint field, reports field.
            let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().unwrap()) as usize;
            let payload = &bytes[pos + 9..pos + 9 + len];
            let mut p = 0;
            for field in 0..3 {
                let (value, used) = pm_trace::read_varint(&payload[p..]).unwrap();
                p += used + if field == 1 { 0 } else { value as usize };
            }
            fields.push(payload.len() - p);
            pos += 9 + len + 4;
        }
        (committed, fields)
    }

    #[test]
    fn checkpoint_records_do_not_grow_with_committed_reports() {
        use pm_workloads::{record_trace, BTree};
        let small = record_trace(&BTree::new(5), 500);
        let large = record_trace(&BTree::new(5), 8_000);
        let (few, small_fields) = journaled_report_fields("size-small", small.events());
        let (many, large_fields) = journaled_report_fields("size-large", large.events());
        assert!(few.total() > 0, "the small stream commits reports");
        assert!(
            many.total() >= 16 * few.total(),
            "{} vs {}",
            many.total(),
            few.total()
        );
        // The reports field is the fixed-size digest: every record of
        // both runs carries the same number of bytes for it, at N and at
        // 16N committed reports alike.
        let width = small_fields[0];
        assert!(
            small_fields
                .iter()
                .chain(&large_fields)
                .all(|&len| len == width),
            "{small_fields:?} {large_fields:?}"
        );

        // The journaled digest is the uninterrupted run's verdict.
        let mut session = DetectSession::new(DebuggerConfig::for_model(
            pmdebugger::PersistencyModel::Strict,
        ));
        let mut reports = session.feed(large.events());
        reports.extend(session.finish());
        assert_eq!(many, ReportDigest::of(&reports));
    }
}
