//! Bounded-memory trace ingestion with graceful degradation.
//!
//! `pmdbg` consumes recorded traces that may be multi-GB, partially
//! written (a recorder that died mid-run), or bit-rotted. Every input is
//! classified in one place, [`zero_copy`]: it looks at the first bytes and
//! picks the v1 text line reader or the v2 binary frame walker; unknown
//! input produces a diagnostic naming both expected formats and what was
//! found instead. v2 frames are then read by exactly two readers, both
//! stepping through the same frame parser:
//!
//! * [`FrameWalker`](crate::FrameWalker) for bytes already in memory
//!   (`pmdbg replay`, and [`ingest_bytes`], which drains it into an owned
//!   [`Trace`]);
//! * [`StreamDecoder`] for chunks pushed as they arrive (`pmdbg serve`).
//!
//! Both share the same contract, and are property-tested against each
//! other:
//!
//! * **Two modes** — [`IngestMode::Strict`] aborts on the first corrupt
//!   frame/line (with offset and reason); [`IngestMode::Salvage`] skips
//!   it, resynchronizes on the next frame magic (binary) or line boundary
//!   (text), and keeps going. Salvage always recovers every frame that
//!   precedes the first corruption point — the invariant the corruption
//!   torture harness in `pm-chaos` sweeps.
//! * **Hard budgets** — [`IngestLimits`] caps decoded events, consumed
//!   bytes and wall-clock time, so no input — however adversarial — can
//!   hang or OOM the CLI. Hitting a budget is reported as a truncation on
//!   a useful partial result, never an error.
//! * **Accounting** — every read returns an [`IngestReport`]
//!   (frames ok/skipped, resyncs, bytes salvaged, first/last error), which
//!   the CLI surfaces as `ingest.*` metrics in the run manifest.
//!   In-memory reads grow `bytes_read` one 64 KiB read chunk at a time,
//!   so a read an event budget stops early reports what a decoder fed
//!   read-chunk pieces would.

use std::fmt;
use std::time::{Duration, Instant};

use crate::binfmt::{self, FrameStepRef, FILE_MAGIC, FRAME_MAGIC};
use crate::events::PmEvent;
use crate::format;
use crate::recorder::Trace;
use crate::zerocopy::{zero_copy, ZeroCopy};

/// Read chunk size: the granularity at which the text reader and the
/// zero-copy walker grow `bytes_read`, and the decoder's initial buffer.
pub(crate) const CHUNK: usize = 64 * 1024;

/// Longest text line the streaming reader accepts before declaring the
/// line corrupt (the text format's analogue of [`binfmt::MAX_FRAME_LEN`]).
const MAX_LINE_LEN: usize = 64 * 1024;

/// Bytes inspected when sniffing the format.
const SNIFF_LEN: usize = 4096;

/// On-disk trace formats the reader understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `# pm-trace v1` line-oriented text ([`crate::format`]).
    TextV1,
    /// `PMTRACE2` framed binary ([`crate::binfmt`]).
    BinV2,
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormat::TextV1 => write!(f, "pm-trace v1 (text)"),
            TraceFormat::BinV2 => write!(f, "pm-trace v2 (binary)"),
        }
    }
}

/// How the reader treats corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestMode {
    /// Abort on the first corrupt frame or line.
    Strict,
    /// Skip corrupt frames, resync on the next frame magic (binary) or
    /// line boundary (text), and return what was recovered.
    Salvage,
}

/// Hard resource budgets for one ingestion. Every budget that bites turns
/// into an [`IngestTruncation`] on the report rather than an error: a
/// partial trace with explicit accounting beats an OOM kill.
#[derive(Debug, Clone)]
pub struct IngestLimits {
    /// Maximum events decoded into the returned [`Trace`].
    pub max_events: u64,
    /// Maximum bytes consumed from the input.
    pub max_bytes: u64,
    /// Wall-clock ceiling for the whole read; `None` means unbounded.
    pub deadline: Option<Duration>,
}

impl Default for IngestLimits {
    fn default() -> Self {
        IngestLimits {
            // ~50M events ≈ a few GB of decoded trace: far above every
            // workload here, low enough to keep a laptop alive.
            max_events: 50_000_000,
            max_bytes: 4 << 30,
            deadline: None,
        }
    }
}

impl IngestLimits {
    /// Sets the decoded-event cap.
    pub fn with_max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the consumed-byte cap.
    pub fn with_max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = n;
        self
    }

    /// Sets the wall-clock ceiling.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }
}

/// A budget that actually bit during ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestTruncation {
    /// The decoded-event cap was reached.
    Events {
        /// The configured cap.
        limit: u64,
    },
    /// The consumed-byte cap was reached.
    Bytes {
        /// The configured cap.
        limit: u64,
    },
    /// The wall-clock ceiling expired.
    Deadline {
        /// The configured ceiling, in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for IngestTruncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestTruncation::Events { limit } => {
                write!(f, "stopped at the {limit}-event budget")
            }
            IngestTruncation::Bytes { limit } => {
                write!(f, "stopped at the {limit}-byte budget")
            }
            IngestTruncation::Deadline { limit_ms } => {
                write!(f, "stopped at the {limit_ms} ms deadline")
            }
        }
    }
}

/// One corruption the reader observed: where, and what was wrong. For the
/// binary format `locus` is a byte offset; for text it is a 1-based line
/// number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset (binary) or 1-based line number (text).
    pub locus: u64,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.locus, self.reason)
    }
}

/// Accounting for one ingestion, shared between the binary and text paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Detected (or forced) input format.
    pub format: TraceFormat,
    /// Mode the read ran under.
    pub mode: IngestMode,
    /// Frames (binary) or event lines (text) decoded successfully.
    pub frames_ok: u64,
    /// Frames/lines decoded before any corruption was observed — the
    /// stream's pristine prefix. `frames_ok = frames_clean +
    /// frames_resynced`, so a session's salvage decisions are auditable
    /// from the report alone.
    pub frames_clean: u64,
    /// Frames/lines decoded *after* at least one corruption, i.e. frames
    /// that exist in the output only because salvage mode re-locked onto
    /// the stream instead of aborting.
    pub frames_resynced: u64,
    /// Corrupt frames/lines skipped (Salvage mode only).
    pub frames_skipped: u64,
    /// Times the binary reader re-locked onto a frame magic after
    /// corruption (text recovers at line granularity and never counts
    /// resyncs).
    pub resyncs: u64,
    /// Total bytes consumed from the input.
    pub bytes_read: u64,
    /// Bytes of frames/lines successfully decoded into events.
    pub bytes_salvaged: u64,
    /// Wall-clock time the ingestion took.
    pub elapsed: Duration,
    /// The budget that stopped the read early, if any.
    pub truncated: Option<IngestTruncation>,
    /// First corruption observed.
    pub first_error: Option<FrameError>,
    /// Last corruption observed.
    pub last_error: Option<FrameError>,
}

impl IngestReport {
    pub(crate) fn new(format: TraceFormat, mode: IngestMode) -> Self {
        IngestReport {
            format,
            mode,
            frames_ok: 0,
            frames_clean: 0,
            frames_resynced: 0,
            frames_skipped: 0,
            resyncs: 0,
            bytes_read: 0,
            bytes_salvaged: 0,
            elapsed: Duration::ZERO,
            truncated: None,
            first_error: None,
            last_error: None,
        }
    }

    pub(crate) fn record_error(&mut self, locus: u64, reason: String) {
        let err = FrameError { locus, reason };
        if self.first_error.is_none() {
            self.first_error = Some(err.clone());
        }
        self.last_error = Some(err);
    }

    /// Counts one successfully decoded frame/line of `bytes` bytes,
    /// attributing it to the clean prefix or the post-corruption tail.
    pub(crate) fn record_frame(&mut self, bytes: u64) {
        self.frames_ok += 1;
        self.bytes_salvaged += bytes;
        if self.first_error.is_none() {
            self.frames_clean += 1;
        } else {
            self.frames_resynced += 1;
        }
    }

    /// Shared end-of-read bookkeeping: total bytes pulled from the input
    /// and wall-clock elapsed since `start`. Every ingestion path — the
    /// text reader, the streaming decoder's report refresh, and the
    /// zero-copy walker — funnels through this, so `elapsed` is always
    /// populated no matter which reader ran.
    pub(crate) fn finalize(&mut self, bytes_read: u64, start: Instant) {
        self.bytes_read = bytes_read;
        self.elapsed = start.elapsed();
    }

    /// `true` when nothing was skipped or truncated — the input was
    /// wholly clean within budget.
    pub fn clean(&self) -> bool {
        self.frames_skipped == 0 && self.truncated.is_none() && self.first_error.is_none()
    }

    /// One-line human summary for the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "ingest [{}, {}]: {} frame(s) ok, {} skipped, {} resync(s), {} of {} byte(s) salvaged",
            self.format,
            match self.mode {
                IngestMode::Strict => "strict",
                IngestMode::Salvage => "salvage",
            },
            self.frames_ok,
            self.frames_skipped,
            self.resyncs,
            self.bytes_salvaged,
            self.bytes_read,
        );
        if let Some(t) = &self.truncated {
            out.push_str(&format!("; {t}"));
        }
        if let Some(e) = &self.first_error {
            out.push_str(&format!("; first error {e}"));
        }
        if let (Some(first), Some(last)) = (&self.first_error, &self.last_error) {
            if first != last {
                out.push_str(&format!("; last error {last}"));
            }
        }
        out
    }
}

/// Why an ingestion failed outright (as opposed to degrading).
#[derive(Debug)]
pub enum IngestError {
    /// The input is empty.
    Empty,
    /// The input matches neither known format.
    UnknownFormat {
        /// What the sniffer saw.
        detail: String,
    },
    /// Strict mode hit corruption.
    Corrupt {
        /// Format being parsed when the corruption appeared.
        format: TraceFormat,
        /// Byte offset (binary) or line number (text).
        locus: u64,
        /// Frames/lines decoded before the corruption.
        frames_ok: u64,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Empty => write!(
                f,
                "empty trace file: expected a `{}` text header or `PMTRACE2` binary magic",
                format::HEADER
            ),
            IngestError::UnknownFormat { detail } => write!(
                f,
                "unrecognized trace format: expected a `{}` text header or `PMTRACE2` \
                 binary magic; {detail}",
                format::HEADER
            ),
            IngestError::Corrupt {
                format,
                locus,
                frames_ok,
                reason,
            } => {
                let where_ = match format {
                    TraceFormat::TextV1 => format!("line {locus}"),
                    TraceFormat::BinV2 => format!("byte {locus}"),
                };
                write!(
                    f,
                    "corrupt {format} input at {where_} (after {frames_ok} clean frame(s)): \
                     {reason}; re-run with --salvage to recover the readable frames"
                )
            }
        }
    }
}

impl std::error::Error for IngestError {}

pub(crate) fn first_line_of(head: &[u8]) -> String {
    let window = &head[..head.len().min(SNIFF_LEN)];
    let line = match window.iter().position(|&b| b == b'\n') {
        Some(idx) => &window[..idx],
        None => window,
    };
    String::from_utf8_lossy(line).trim_end_matches('\r').into()
}

pub(crate) fn looks_textual(head: &[u8]) -> bool {
    let window = &head[..head.len().min(SNIFF_LEN)];
    if window.is_empty() {
        return false;
    }
    let printable = window
        .iter()
        .filter(|&&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7F).contains(&b))
        .count();
    printable * 10 >= window.len() * 9
}

pub(crate) fn contains_frame_magic(haystack: &[u8]) -> Option<usize> {
    haystack
        .windows(FRAME_MAGIC.len())
        .position(|w| w == FRAME_MAGIC)
}

/// The text reader's view of an in-memory image: a window that grows one
/// read chunk at a time (so `bytes_read` keeps its chunk granularity when
/// a budget stops the read early) and never past the byte budget.
struct Window<'a> {
    data: &'a [u8],
    /// Input offset of the first unconsumed byte.
    base: usize,
    /// Bytes made visible so far — the report's `bytes_read`.
    avail: usize,
    /// No more input (true EOF).
    eof: bool,
    /// The byte budget stopped us before true EOF.
    capped: bool,
    max_bytes: u64,
}

impl<'a> Window<'a> {
    /// The unconsumed visible bytes.
    fn buf(&self) -> &'a [u8] {
        &self.data[self.base..self.avail]
    }

    /// Whether the parser should treat the buffer end as final.
    fn at_end(&self) -> bool {
        self.eof || self.capped
    }

    /// Makes one more chunk visible (respecting the byte budget); a
    /// refill that adds nothing marks EOF or budget exhaustion.
    fn refill(&mut self) {
        if self.at_end() {
            return;
        }
        let room = (self.max_bytes - self.avail as u64).min(CHUNK as u64) as usize;
        if room == 0 {
            self.capped = true;
            return;
        }
        let n = room.min(self.data.len() - self.avail);
        self.avail += n;
        if n == 0 {
            self.eof = true;
        }
    }

    /// Drops the first `n` visible bytes.
    fn consume(&mut self, n: usize) {
        self.base += n;
    }
}

struct Clock {
    start: Instant,
    deadline: Option<Duration>,
}

impl Clock {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.start.elapsed() >= d)
    }

    fn truncation(&self) -> IngestTruncation {
        IngestTruncation::Deadline {
            limit_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
        }
    }
}

/// Reads an in-memory trace image of either format. [`zero_copy`] sniffs
/// it; v2 binary is drained from the [`FrameWalker`](crate::FrameWalker)
/// into owned events, v1 text goes through the line reader.
///
/// Salvage mode additionally accepts two degraded inputs strict mode
/// rejects: headerless v1 text whose first line parses as an event, and
/// binary images whose file header is damaged but that still contain
/// frame magics to lock onto.
///
/// # Errors
///
/// [`IngestError::Empty`] / [`IngestError::UnknownFormat`] when the input
/// can't be identified, and [`IngestError::Corrupt`] in strict mode only.
pub fn ingest_bytes(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Trace, IngestReport), IngestError> {
    match zero_copy(bytes, mode, limits)? {
        ZeroCopy::Binary(mut walker) => {
            let mut trace = Trace::new();
            walker.for_each_ref(|event| trace.push(event.to_owned()))?;
            Ok((trace, walker.into_report()))
        }
        ZeroCopy::Text => ingest_text(bytes, mode, limits),
    }
}

/// The v1 text line reader over an image [`zero_copy`] classified as text.
fn ingest_text(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Trace, IngestReport), IngestError> {
    let clock = Clock {
        start: Instant::now(),
        deadline: limits.deadline,
    };
    let mut window = Window {
        data: bytes,
        base: 0,
        avail: 0,
        eof: false,
        capped: false,
        max_bytes: limits.max_bytes,
    };
    // The first chunk is visible up front, as it was to the sniffer.
    window.refill();
    let mut trace = Trace::new();
    let mut report = IngestReport::new(TraceFormat::TextV1, mode);
    let mut line_no = 0u64;
    loop {
        if clock.expired() {
            report.truncated = Some(clock.truncation());
            break;
        }
        if report.frames_ok >= limits.max_events {
            report.truncated = Some(IngestTruncation::Events {
                limit: limits.max_events,
            });
            break;
        }
        // Pull until the buffer holds a full line (or the input ends).
        let nl = loop {
            match window.buf().iter().position(|&b| b == b'\n') {
                Some(idx) => break Some(idx),
                None if window.at_end() => break None,
                None => {
                    if window.buf().len() > MAX_LINE_LEN {
                        break None; // handled as an oversized line below
                    }
                    window.refill();
                }
            }
        };
        let (line_end, consumed) = match nl {
            Some(idx) => (idx, idx + 1),
            None if window.buf().is_empty() => break,
            None if window.buf().len() > MAX_LINE_LEN && !window.at_end() => {
                // A line longer than any legitimate event: corrupt. Skip
                // to the next newline without buffering the monster.
                line_no += 1;
                let reason = format!("line exceeds the {MAX_LINE_LEN}-byte cap");
                if mode == IngestMode::Strict {
                    return Err(IngestError::Corrupt {
                        format: TraceFormat::TextV1,
                        locus: line_no,
                        frames_ok: report.frames_ok,
                        reason,
                    });
                }
                report.record_error(line_no, reason);
                report.frames_skipped += 1;
                // Drain until the newline shows up.
                loop {
                    window.consume(window.buf().len());
                    window.refill();
                    if let Some(idx) = window.buf().iter().position(|&b| b == b'\n') {
                        window.consume(idx + 1);
                        break;
                    }
                    if window.at_end() {
                        window.consume(window.buf().len());
                        break;
                    }
                    if clock.expired() {
                        break;
                    }
                }
                continue;
            }
            None => (window.buf().len(), window.buf().len()),
        };
        line_no += 1;
        let raw = &window.buf()[..line_end];
        let parsed = match std::str::from_utf8(raw) {
            Ok(text) => format::parse_line(line_no as usize, text).map_err(|e| e.to_string()),
            Err(_) => Err(format!("trace line {line_no}: line is not UTF-8")),
        };
        match parsed {
            Ok(Some(event)) => {
                report.record_frame(consumed as u64);
                trace.push(event);
            }
            Ok(None) => {}
            Err(reason) => {
                if mode == IngestMode::Strict {
                    return Err(IngestError::Corrupt {
                        format: TraceFormat::TextV1,
                        locus: line_no,
                        frames_ok: report.frames_ok,
                        reason,
                    });
                }
                report.record_error(line_no, reason);
                report.frames_skipped += 1;
            }
        }
        window.consume(consumed);
    }
    if report.truncated.is_none() && window.capped {
        report.truncated = Some(IngestTruncation::Bytes {
            limit: limits.max_bytes,
        });
    }
    report.finalize(window.avail as u64, clock.start);
    Ok((trace, report))
}

/// Push-based incremental decoder for the v2 binary frame stream, for
/// callers that do not own the read loop (the `pmdbg serve` session host
/// feeds it socket chunks as they arrive and drains events into the
/// detection state machine between reads, so per-session memory stays
/// bounded by the decoder's rolling buffer plus one read chunk).
///
/// The decoder keeps its own salvage state machine, independent of the
/// in-memory [`FrameWalker`](crate::FrameWalker): feeding the same byte
/// stream through [`StreamDecoder::push`] / [`StreamDecoder::next_event`]
/// — under any chunking whatsoever — yields the same events and the same
/// [`IngestReport`] accounting as [`ingest_bytes`] over the whole image
/// (property-tested in `crates/trace/tests/ingest_properties.rs` and
/// `zerocopy_properties.rs`). Budgets behave the same way too: bytes past
/// `max_bytes` are dropped at the door, events past `max_events` stop
/// decoding, and both mark the report truncated instead of erroring.
#[derive(Debug)]
pub struct StreamDecoder {
    mode: IngestMode,
    limits: IngestLimits,
    buf: Vec<u8>,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
    /// Parse cursor within `buf`.
    pos: usize,
    /// Still waiting for (and validating) the 8-byte `PMTRACE2` header.
    expect_header: bool,
    /// Skipping forward to the next frame magic after corruption.
    resyncing: bool,
    /// [`StreamDecoder::finish`] was called: the buffer end is final.
    eof: bool,
    /// The byte budget dropped input.
    capped: bool,
    start: Instant,
    report: IngestReport,
}

impl StreamDecoder {
    /// A decoder for one v2 binary stream. The deadline in `limits`
    /// starts counting immediately.
    pub fn new(mode: IngestMode, limits: IngestLimits) -> Self {
        StreamDecoder {
            mode,
            limits: limits.clone(),
            buf: Vec::with_capacity(CHUNK),
            base: 0,
            pos: 0,
            expect_header: true,
            resyncing: false,
            eof: false,
            capped: false,
            start: Instant::now(),
            report: IngestReport::new(TraceFormat::BinV2, mode),
        }
    }

    /// Appends a chunk of the stream. Bytes beyond the `max_bytes` budget
    /// are dropped (and the report marked truncated) rather than buffered;
    /// pushing after [`StreamDecoder::finish`] is ignored.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.eof || self.capped {
            return;
        }
        let room = (self.limits.max_bytes - self.report.bytes_read).min(bytes.len() as u64);
        self.buf.extend_from_slice(&bytes[..room as usize]);
        self.report.bytes_read += room;
        if room < bytes.len() as u64 || self.report.bytes_read >= self.limits.max_bytes {
            self.capped = true;
        }
    }

    /// Declares end of stream: a trailing partial frame becomes corruption
    /// (truncation) on the next [`StreamDecoder::next_event`] drain.
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Bytes currently buffered but not yet consumed — the session host's
    /// backpressure signal.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Live accounting so far. `elapsed` is refreshed on every call.
    pub fn report(&mut self) -> &IngestReport {
        if self.report.truncated.is_none() && self.capped {
            self.report.truncated = Some(IngestTruncation::Bytes {
                limit: self.limits.max_bytes,
            });
        }
        let bytes_read = self.report.bytes_read;
        self.report.finalize(bytes_read, self.start);
        &self.report
    }

    fn expired(&self) -> bool {
        self.limits
            .deadline
            .is_some_and(|d| self.start.elapsed() >= d)
    }

    fn truncate(&mut self, t: IngestTruncation) {
        if self.report.truncated.is_none() {
            self.report.truncated = Some(t);
        }
    }

    /// Pulls the next decoded event. `Ok(None)` means "need more input"
    /// (or, after [`StreamDecoder::finish`] / a budget stop, "stream
    /// drained").
    ///
    /// # Errors
    ///
    /// In [`IngestMode::Strict`] only: [`IngestError::Corrupt`] at the
    /// first bad frame, [`IngestError::UnknownFormat`] / [`IngestError::Empty`]
    /// when the stream does not open with the `PMTRACE2` magic.
    pub fn next_event(&mut self) -> Result<Option<PmEvent>, IngestError> {
        loop {
            if self.expired() {
                let t = IngestTruncation::Deadline {
                    limit_ms: self.limits.deadline.map_or(0, |d| d.as_millis() as u64),
                };
                self.truncate(t);
                return Ok(None);
            }
            if self.report.frames_ok >= self.limits.max_events {
                self.truncate(IngestTruncation::Events {
                    limit: self.limits.max_events,
                });
                return Ok(None);
            }
            if self.expect_header {
                if self.buf.len() < FILE_MAGIC.len() {
                    if !self.at_end() {
                        return Ok(None);
                    }
                    if self.buf.is_empty() {
                        return if self.mode == IngestMode::Strict {
                            Err(IngestError::Empty)
                        } else {
                            Ok(None)
                        };
                    }
                }
                if self.buf.starts_with(&FILE_MAGIC) {
                    self.consume_to(FILE_MAGIC.len());
                } else {
                    if self.mode == IngestMode::Strict {
                        return Err(IngestError::UnknownFormat {
                            detail: "stream does not start with `PMTRACE2` binary magic".to_owned(),
                        });
                    }
                    // Damaged stream header: lock onto the first frame
                    // magic instead (the walker's salvage entry for
                    // headerless binary images).
                    self.report
                        .record_error(0, "missing/damaged `PMTRACE2` file header".to_owned());
                    self.report.frames_skipped += 1;
                    self.resyncing = true;
                }
                self.expect_header = false;
                continue;
            }
            if self.resyncing {
                match contains_frame_magic(&self.buf[self.pos..]) {
                    Some(j) => {
                        self.pos += j;
                        self.resyncing = false;
                        self.report.resyncs += 1;
                    }
                    None => {
                        // Keep a 3-byte tail in case a magic straddles the
                        // next chunk.
                        let keep = (self.buf.len() - self.pos).min(3);
                        self.consume_to(self.buf.len() - keep);
                        return Ok(None);
                    }
                }
            }
            if self.pos >= self.buf.len() && self.at_end() {
                return Ok(None);
            }
            match binfmt::step_frame_ref(&self.buf, self.pos, self.at_end()) {
                FrameStepRef::Ok { event, end } => {
                    let event = event.to_owned();
                    self.report.record_frame((end - self.pos) as u64);
                    self.pos = end;
                    if self.pos >= CHUNK {
                        self.consume_to(self.pos);
                    }
                    return Ok(Some(event));
                }
                FrameStepRef::Incomplete => {
                    self.consume_to(self.pos);
                    return Ok(None);
                }
                FrameStepRef::Corrupt { reason } => {
                    let locus = self.base + self.pos as u64;
                    if self.mode == IngestMode::Strict {
                        return Err(IngestError::Corrupt {
                            format: TraceFormat::BinV2,
                            locus,
                            frames_ok: self.report.frames_ok,
                            reason,
                        });
                    }
                    self.report.record_error(locus, reason);
                    self.report.frames_skipped += 1;
                    self.pos += 1;
                    self.resyncing = true;
                }
            }
        }
    }

    fn at_end(&self) -> bool {
        self.eof || self.capped
    }

    fn consume_to(&mut self, n: usize) {
        self.buf.drain(..n);
        self.base += n as u64;
        self.pos = self.pos.saturating_sub(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::to_binary;
    use crate::events::{FenceKind, PmEvent, ThreadId};
    use crate::format::to_text;

    fn store(addr: u64) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
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

    fn sample_trace(n: u64) -> Trace {
        (0..n).flat_map(|i| [store(i * 64), fence()]).collect()
    }

    #[test]
    fn sniffs_both_formats() {
        let trace = sample_trace(2);
        let limits = IngestLimits::default();
        let bytes = to_binary(&trace);
        let text = to_text(&trace);
        assert!(matches!(
            zero_copy(&bytes, IngestMode::Strict, &limits),
            Ok(ZeroCopy::Binary(_))
        ));
        assert!(matches!(
            zero_copy(text.as_bytes(), IngestMode::Strict, &limits),
            Ok(ZeroCopy::Text)
        ));
        assert!(zero_copy(b"hello world", IngestMode::Strict, &limits).is_err());
        assert!(zero_copy(b"", IngestMode::Strict, &limits).is_err());
    }

    #[test]
    fn clean_binary_ingests_identically_to_from_binary() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap();
        assert_eq!(got, trace);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames_ok, trace.len() as u64);
        assert_eq!(report.bytes_read, bytes.len() as u64);
        assert_eq!(
            report.bytes_salvaged,
            (bytes.len() - FILE_MAGIC.len()) as u64
        );
    }

    #[test]
    fn clean_text_ingests_identically_to_from_text() {
        let trace = sample_trace(50);
        let text = to_text(&trace);
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got, trace);
        assert!(report.clean());
        assert_eq!(report.format, TraceFormat::TextV1);
        assert_eq!(report.frames_ok, trace.len() as u64);
    }

    #[test]
    fn empty_input_is_a_clear_error() {
        let err = ingest_bytes(b"", IngestMode::Salvage, &IngestLimits::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("# pm-trace v1"), "{text}");
        assert!(text.contains("PMTRACE2"), "{text}");
    }

    #[test]
    fn unknown_format_names_expectations_and_detection() {
        let err = ingest_bytes(
            b"\x7fELF\x02\x01\x01\0junk",
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("# pm-trace v1"), "{text}");
        assert!(text.contains("binary data"), "{text}");

        let err = ingest_bytes(
            b"once upon a time\nthere was a trace\n",
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("once upon a time"), "{err}");
    }

    #[test]
    fn unsupported_header_version_is_called_out() {
        let err = ingest_bytes(
            b"# pm-trace v9\nstore addr=0x0 size=8 tid=0\n",
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("# pm-trace v9"), "{err}");
    }

    #[test]
    fn salvage_accepts_headerless_text_strict_rejects_it() {
        let body = "store addr=0x0 size=8 tid=0\nfence sfence tid=0\n";
        let err = ingest_bytes(
            body.as_bytes(),
            IngestMode::Strict,
            &IngestLimits::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("headerless"), "{err}");
        let (trace, report) = ingest_bytes(
            body.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(trace.len(), 2);
        assert!(report.clean());
    }

    #[test]
    fn strict_mode_reports_offset_and_suggests_salvage() {
        let trace = sample_trace(10);
        let mut bytes = to_binary(&trace);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("--salvage"), "{text}");
        assert!(matches!(err, IngestError::Corrupt { frames_ok, .. } if frames_ok > 0));
    }

    #[test]
    fn salvage_skips_one_flipped_frame_and_resyncs() {
        let trace = sample_trace(20); // 40 events
        let mut bytes = to_binary(&trace);
        // Flip a payload byte of some middle frame.
        let spans = crate::binfmt::frame_spans(&to_binary(&trace)).unwrap();
        let (start, end) = spans[17];
        bytes[end - 1] ^= 0x01;
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got.len(), trace.len() - 1);
        assert_eq!(report.frames_ok, trace.len() as u64 - 1);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 1);
        assert!(report.first_error.is_some());
        assert_eq!(report.first_error.as_ref().unwrap().locus, start as u64);
        // Everything before the corruption survived, in order.
        assert_eq!(got.events()[..17], trace.events()[..17]);
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_binary() {
        let trace = sample_trace(20);
        let bytes = to_binary(&trace);
        let spans = crate::binfmt::frame_spans(&bytes).unwrap();
        // Cut mid-way through frame 30.
        let cut = spans[30].0 + 5;
        let (got, report) =
            ingest_bytes(&bytes[..cut], IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got.events(), &trace.events()[..30]);
        assert_eq!(report.frames_ok, 30);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 0, "nothing to resync to after the cut");
    }

    #[test]
    fn salvage_survives_garbage_prefix_via_frame_magic() {
        let trace = sample_trace(10);
        let clean = to_binary(&trace);
        let mut bytes = b"this is definitely not a trace".to_vec();
        bytes.extend_from_slice(&clean);
        let (got, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        assert_eq!(got, trace, "all frames recoverable after the prefix");
        assert!(report.resyncs >= 1);
        assert!(report.frames_skipped >= 1);
    }

    #[test]
    fn salvage_skips_corrupt_text_lines() {
        let trace = sample_trace(5);
        let mut text = to_text(&trace);
        text.push_str("wat wat wat\n");
        text.push_str("store addr=0x1000 size=8 tid=0\n");
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got.len(), trace.len() + 1);
        assert_eq!(report.frames_skipped, 1);
        assert_eq!(report.resyncs, 0);
        let first = report.first_error.unwrap();
        assert_eq!(first.locus, trace.len() as u64 + 2, "1 header + events + 1");
        assert!(first.reason.contains("wat"), "{}", first.reason);
    }

    #[test]
    fn event_budget_truncates_with_report() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_max_events(25);
        let (got, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert_eq!(got.len(), 25);
        assert_eq!(
            report.truncated,
            Some(IngestTruncation::Events { limit: 25 })
        );
    }

    #[test]
    fn byte_budget_truncates_without_error() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_max_bytes(bytes.len() as u64 / 2);
        let (got, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert!(got.len() < trace.len());
        assert!(!got.is_empty());
        assert!(matches!(
            report.truncated,
            Some(IngestTruncation::Bytes { .. }) | Some(IngestTruncation::Events { .. })
        ));
    }

    #[test]
    fn zero_deadline_terminates_immediately_but_cleanly() {
        let trace = sample_trace(100);
        let bytes = to_binary(&trace);
        let limits = IngestLimits::default().with_deadline(Duration::ZERO);
        let (_, report) = ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        assert!(matches!(
            report.truncated,
            Some(IngestTruncation::Deadline { .. })
        ));
    }

    #[test]
    fn oversized_text_line_is_skipped_not_buffered() {
        let mut text = String::from("# pm-trace v1\nstore addr=0x0 size=8 tid=0\n");
        text.push_str(&"z".repeat(MAX_LINE_LEN * 2 + 100));
        text.push('\n');
        text.push_str("store addr=0x40 size=8 tid=0\n");
        let (got, report) = ingest_bytes(
            text.as_bytes(),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(report.frames_skipped, 1);
        assert!(report.first_error.unwrap().reason.contains("cap"));
    }

    #[test]
    fn report_summary_mentions_the_interesting_numbers() {
        let trace = sample_trace(20);
        let mut bytes = to_binary(&trace);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let (_, report) =
            ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default()).unwrap();
        let line = report.summary();
        assert!(line.contains("salvage"), "{line}");
        assert!(line.contains("skipped"), "{line}");
        assert!(line.contains("first error"), "{line}");
    }

    #[test]
    fn streaming_matches_in_memory_across_chunk_boundaries() {
        // A trace big enough to span several read chunks.
        let trace = sample_trace(4_000);
        let bytes = to_binary(&trace);
        assert!(bytes.len() > 2 * CHUNK);
        let mut dec = StreamDecoder::new(IngestMode::Strict, IngestLimits::default());
        let mut got = Trace::new();
        let (mut off, mut i) = (0, 0);
        while off < bytes.len() {
            // Adversarially tiny pushes: 1..=7 bytes at a time.
            let n = (i % 7 + 1).min(bytes.len() - off);
            dec.push(&bytes[off..off + n]);
            off += n;
            i += 1;
            while let Some(event) = dec.next_event().unwrap() {
                got.push(event);
            }
        }
        dec.finish();
        assert!(dec.next_event().unwrap().is_none());
        assert_eq!(got, trace);
        assert!(dec.report().clean());
    }
}
