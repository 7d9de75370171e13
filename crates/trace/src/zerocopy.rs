//! Zero-copy ingestion for pm-trace v2 — detection directly over framed
//! bytes — and the one place a trace image is classified.
//!
//! [`zero_copy`] sniffs an in-memory image (v2 binary, v1 text, or in
//! salvage mode a degraded form of either) and, for binary, returns a
//! [`FrameWalker`] over it. Every in-memory read goes through it:
//! `pmdbg replay` drives the walker straight into the detector, and
//! [`ingest_bytes`](crate::ingest_bytes) drains it into an owned
//! [`Trace`](crate::Trace).
//!
//! * [`MappedTrace`] maps (or, on failure/foreign platforms, reads) a trace
//!   file and hands out its bytes as one borrowable slice;
//! * [`FrameWalker`] walks the framed bytes in place, yielding borrowed
//!   [`PmEventRef`]s whose name strings point into the trace image —
//!   the hot loop performs **zero per-event allocations**;
//! * CRC verification runs through the slicing-by-8 kernel
//!   ([`crate::binfmt::crc32_fast`]) and LEB128 decoding through
//!   [`decode_payload_ref`](crate::binfmt::decode_payload_ref), batched
//!   word-at-a-time over whole frames; anything the batch pass does not
//!   accept is re-stepped by the frame parser the push-based
//!   [`StreamDecoder`](crate::StreamDecoder) also uses.
//!
//! **Reader-equivalence invariant** (property-tested in
//! `crates/trace/tests/zerocopy_properties.rs`): for any input — clean,
//! bit-flipped, truncated, or headerless — a full [`FrameWalker`] drain
//! yields the same event sequence and the same [`IngestReport`] (every
//! counter, every error locus, the same truncation verdict) as the
//! [`StreamDecoder`](crate::StreamDecoder) fed the same bytes in any
//! chunking. The two keep independent salvage state machines, so each
//! checks the other. `bytes_read` grows one 64 KiB read chunk at a time,
//! so a walk an event budget stops early matches a decoder fed in
//! read-chunk pieces.

use std::time::Instant;

use crate::binfmt::{self, FrameStepRef, FILE_MAGIC};
use crate::events::PmEventRef;
use crate::format;
use crate::ingest::{
    contains_frame_magic, first_line_of, looks_textual, IngestError, IngestLimits, IngestMode,
    IngestReport, IngestTruncation, TraceFormat, CHUNK,
};

/// How [`zero_copy`] classified the input.
// The walker variant is large (inline batch scratch), but the enum is a
// transient return value that every caller destructures on the spot —
// boxing it would put a heap allocation on the zero-allocation entry path
// to save stack bytes nothing ever stores.
#[allow(clippy::large_enum_variant)]
pub enum ZeroCopy<'a> {
    /// A v2 binary image (or, in salvage mode, a headerless one with frame
    /// magics to lock onto): walk it in place.
    Binary(FrameWalker<'a>),
    /// v1 text (or salvage-accepted headerless text). Text parsing builds
    /// owned strings line by line anyway, so there is no zero-copy win:
    /// callers read it with [`crate::ingest_bytes`].
    Text,
}

/// Classifies an in-memory trace image and, for v2 binary input, returns
/// the zero-copy [`FrameWalker`] over it.
///
/// The sniffing window is the first read chunk, capped by the byte
/// budget. Salvage mode adds two degraded entries strict mode rejects:
/// headerless text whose first line parses as an event, and a binary image
/// with a damaged file header but a frame magic in the window.
///
/// # Errors
///
/// [`IngestError::Empty`] for an empty input, and
/// [`IngestError::UnknownFormat`] naming what was found when the input
/// matches neither format.
pub fn zero_copy<'a>(
    bytes: &'a [u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<ZeroCopy<'a>, IngestError> {
    let start = Instant::now();
    // Sniff the first read chunk at most, never more than the byte budget.
    let view_len =
        usize::try_from((bytes.len() as u64).min(limits.max_bytes)).unwrap_or(usize::MAX);
    let window = &bytes[..view_len.min(CHUNK)];
    if window.is_empty() {
        return Err(IngestError::Empty);
    }

    if window.starts_with(&FILE_MAGIC) {
        return Ok(ZeroCopy::Binary(FrameWalker::new(
            bytes, view_len, mode, limits, start, false,
        )));
    }
    let first_line = first_line_of(window);
    if first_line.trim() == format::HEADER {
        return Ok(ZeroCopy::Text);
    }
    if first_line.trim_start().starts_with("# pm-trace") {
        return Err(IngestError::UnknownFormat {
            detail: format!("found unsupported header `{}`", first_line.trim()),
        });
    }
    let headerless_event = format::parse_line(1, &first_line).ok().flatten().is_some();
    if mode == IngestMode::Salvage {
        if headerless_event {
            return Ok(ZeroCopy::Text);
        }
        if contains_frame_magic(window).is_some() {
            return Ok(ZeroCopy::Binary(FrameWalker::new(
                bytes, view_len, mode, limits, start, true,
            )));
        }
    }
    let detail = if headerless_event {
        format!(
            "first line `{}` parses as a trace event, so this looks like headerless v1 \
             text (--salvage accepts it)",
            first_line.trim()
        )
    } else if looks_textual(window) {
        format!("input is text whose first line is `{}`", first_line.trim())
    } else {
        "input looks like unrecognized binary data".to_owned()
    };
    Err(IngestError::UnknownFormat { detail })
}

/// An in-place walk over a v2 binary image, yielding borrowed events.
///
/// The walker runs the same salvage state machine as
/// [`StreamDecoder`](crate::StreamDecoder) over the borrowed slice: the
/// same resync scans, the same corruption skips, the same budget checks in
/// the same order — but events are decoded straight out of the image with
/// no rolling-buffer copies, no event materialization and no per-event
/// heap traffic. `avail` grows one read chunk at a time, so `bytes_read`
/// keeps its chunk granularity when an event budget stops the read
/// mid-file.
pub struct FrameWalker<'a> {
    data: &'a [u8],
    /// Parse ceiling: `min(input length, byte budget)`.
    view_len: usize,
    /// Bytes made visible so far, one read chunk at a time — `bytes_read`.
    avail: usize,
    pos: usize,
    /// Where the next resync scan starts (avoids rescanning on growth).
    scan_from: usize,
    mode: IngestMode,
    max_events: u64,
    max_bytes: u64,
    deadline: Option<std::time::Duration>,
    start: Instant,
    resyncing: bool,
    done: bool,
    report: IngestReport,
    /// Frames validated and decoded ahead of the cursor by one tight
    /// batch pass (CRC + LEB128 over whole frames, no per-frame state
    /// checks). Entries are `(event, frame length)`; accounting (`pos`,
    /// `record_frame`) is applied as each entry is *served*, so the
    /// observable state never runs ahead of the events handed out. The
    /// buffer is allocated once — the per-event hot path stays
    /// allocation-free.
    batch: Vec<(PmEventRef<'a>, u32)>,
    batch_next: usize,
    /// Scratch for [`FrameWalker::refill`]'s header pass: `(payload start,
    /// payload len)` per candidate frame. A field so the allocation
    /// happens once per walker, not once per batch.
    spans: Vec<(usize, usize)>,
}

/// Upper bound on frames prevalidated per batch pass.
const BATCH: usize = 128;

impl<'a> FrameWalker<'a> {
    fn new(
        data: &'a [u8],
        view_len: usize,
        mode: IngestMode,
        limits: &IngestLimits,
        start: Instant,
        headerless: bool,
    ) -> Self {
        let mut report = IngestReport::new(TraceFormat::BinV2, mode);
        let mut pos = 0;
        let mut scan_from = 0;
        if headerless {
            // Damaged file header: the sniffer found frame magic further
            // in; lock onto it (and account the skip) like the stream
            // decoder's damaged-header entry.
            report.record_error(0, "missing/damaged `PMTRACE2` file header".to_owned());
            report.frames_skipped += 1;
        } else {
            pos = FILE_MAGIC.len();
            scan_from = pos;
        }
        FrameWalker {
            data,
            view_len,
            avail: view_len.min(CHUNK),
            pos,
            scan_from,
            mode,
            max_events: limits.max_events,
            max_bytes: limits.max_bytes,
            deadline: limits.deadline,
            start,
            resyncing: headerless,
            done: false,
            report,
            batch: Vec::with_capacity(BATCH),
            batch_next: 0,
            spans: Vec::with_capacity(BATCH),
        }
    }

    /// Serves one prevalidated frame, applying its accounting, or returns
    /// `None` when the batch is drained.
    #[inline(always)]
    fn serve(&mut self) -> Option<PmEventRef<'a>> {
        let &(event, len) = self.batch.get(self.batch_next)?;
        self.batch_next += 1;
        self.report.record_frame(u64::from(len));
        self.pos += len as usize;
        Some(event)
    }

    /// Batch prevalidation: CRC-checks and LEB128-decodes up to [`BATCH`]
    /// consecutive clean frames in one tight pass with no per-frame state
    /// checks. The fill budget is capped by the remaining event budget so
    /// `avail` growth and `Events` truncation land on exactly the frame
    /// the slow path would pick, and the pass never grows `avail` or
    /// consumes a corrupt frame — anything but a clean in-bounds frame
    /// ends the batch and is re-stepped (and diagnosed) by the slow path.
    fn refill(&mut self) {
        self.batch.clear();
        self.batch_next = 0;
        let budget = (self.max_events - self.report.frames_ok).min(BATCH as u64) as usize;
        // Reborrow at the full lifetime: the slice outlives `self` borrows.
        let data: &'a [u8] = self.data;
        let view = &data[..self.avail];

        // Pass 1 — header scan: frame boundaries only (magic, length cap,
        // bounds), no payload reads. Each check mirrors one
        // `step_frame_ref` rejection, so any frame this pass skips is
        // re-stepped (and diagnosed, with the right error string) by the
        // slow path.
        self.spans.clear();
        let magic = u32::from_le_bytes(binfmt::FRAME_MAGIC);
        let mut pos = self.pos;
        while self.spans.len() < budget {
            let Some(header) = view.get(pos..pos + binfmt::FRAME_HEADER_LEN) else {
                break;
            };
            if u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) != magic {
                break;
            }
            let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
            if len > binfmt::MAX_FRAME_LEN || view.len() - pos - binfmt::FRAME_HEADER_LEN < len {
                break;
            }
            self.spans.push((pos + binfmt::FRAME_HEADER_LEN, len));
            pos += binfmt::FRAME_HEADER_LEN + len;
        }

        // Pass 2 — batch CRC32: one tight sweep so the checksum chains of
        // adjacent frames overlap instead of being serialized through the
        // per-frame branch logic. First mismatch truncates the batch.
        let mut ok = self.spans.len();
        for (i, &(start, len)) in self.spans.iter().enumerate() {
            let stored = u32::from_le_bytes(view[start - 4..start].try_into().expect("4 bytes"));
            if binfmt::crc32_fast(&view[start..start + len]) != stored {
                ok = i;
                break;
            }
        }

        // Pass 3 — batch LEB128 decode of the CRC-verified payloads. A
        // payload the decoder rejects truncates the batch; the slow path
        // re-steps it into the exact `undecodable payload` diagnostic.
        for &(start, len) in &self.spans[..ok] {
            match binfmt::decode_payload_ref(&view[start..start + len]) {
                Ok(event) => self
                    .batch
                    .push((event, (binfmt::FRAME_HEADER_LEN + len) as u32)),
                Err(_) => break,
            }
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.start.elapsed() >= d)
    }

    /// Makes one more read chunk visible, capped at the parse ceiling.
    fn grow(&mut self) {
        self.avail = (self.avail + CHUNK).min(self.view_len);
    }

    fn stop(&mut self, truncation: Option<IngestTruncation>) {
        if let Some(t) = truncation {
            if self.report.truncated.is_none() {
                self.report.truncated = Some(t);
            }
        }
        // A drained walk always reaches the parse ceiling, so the byte
        // budget bit exactly when it is no larger than the input.
        if self.report.truncated.is_none() && self.data.len() as u64 >= self.max_bytes {
            self.report.truncated = Some(IngestTruncation::Bytes {
                limit: self.max_bytes,
            });
        }
        self.report.finalize(self.avail as u64, self.start);
        self.done = true;
    }

    fn deadline_truncation(&self) -> IngestTruncation {
        IngestTruncation::Deadline {
            limit_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
        }
    }

    /// Pulls the next decoded event, borrowed from the underlying bytes.
    /// `Ok(None)` means the walk is over (drained, truncated by a budget,
    /// or previously errored); consult [`FrameWalker::report`].
    ///
    /// # Errors
    ///
    /// In [`IngestMode::Strict`] only: [`IngestError::Corrupt`] at the
    /// first bad frame, with its byte offset and reason.
    #[inline]
    pub fn next_ref(&mut self) -> Result<Option<PmEventRef<'a>>, IngestError> {
        if self.done {
            return Ok(None);
        }
        // Hot path: hand out the next prevalidated frame. The fill budget
        // guarantees the event cap cannot be hit mid-batch, and a batch is
        // only filled when no deadline is set, so skipping the per-event
        // state checks is observably identical to the slow loop.
        if let Some(event) = self.serve() {
            return Ok(Some(event));
        }
        loop {
            if self.expired() {
                self.stop(Some(self.deadline_truncation()));
                return Ok(None);
            }
            if self.report.frames_ok >= self.max_events {
                self.stop(Some(IngestTruncation::Events {
                    limit: self.max_events,
                }));
                return Ok(None);
            }
            if self.resyncing {
                loop {
                    if let Some(j) = contains_frame_magic(&self.data[self.scan_from..self.avail]) {
                        self.pos = self.scan_from + j;
                        self.resyncing = false;
                        self.report.resyncs += 1;
                        break;
                    }
                    if self.avail >= self.view_len {
                        // Nothing left to lock onto: the stream is drained.
                        self.pos = self.avail;
                        self.stop(None);
                        return Ok(None);
                    }
                    // A frame magic may straddle the chunk boundary: keep
                    // a 3-byte overlap, like the stream decoder's tail.
                    self.scan_from = self.avail.saturating_sub(3).max(self.scan_from);
                    self.grow();
                    if self.expired() {
                        self.stop(Some(self.deadline_truncation()));
                        return Ok(None);
                    }
                }
            }
            if self.pos >= self.avail && self.avail >= self.view_len {
                self.stop(None);
                return Ok(None);
            }
            // Batch CRC32 + LEB128 over whole frames. Deadline-limited
            // walks stay on the single-step path so the expiry check keeps
            // its per-event granularity.
            if self.deadline.is_none() {
                self.refill();
                if let Some(event) = self.serve() {
                    return Ok(Some(event));
                }
            }
            match binfmt::step_frame_ref(
                &self.data[..self.avail],
                self.pos,
                self.avail >= self.view_len,
            ) {
                FrameStepRef::Ok { event, end } => {
                    self.report.record_frame((end - self.pos) as u64);
                    self.pos = end;
                    return Ok(Some(event));
                }
                FrameStepRef::Incomplete => self.grow(),
                FrameStepRef::Corrupt { reason } => {
                    let locus = self.pos as u64;
                    if self.mode == IngestMode::Strict {
                        self.done = true;
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
                    self.scan_from = self.pos;
                    self.resyncing = true;
                }
            }
        }
    }

    /// Drives the walk to completion, invoking `f` on every remaining
    /// event — the bulk form of [`FrameWalker::next_ref`]. Observably
    /// equivalent to calling `next_ref` in a loop (same events in the same
    /// order, same error on a strict failure, bit-identical final report),
    /// but whole prevalidated batches are served through one tight slice
    /// loop with batch-granular accounting, so no per-event bookkeeping
    /// remains on the hot path.
    ///
    /// # Errors
    ///
    /// Exactly [`FrameWalker::next_ref`]'s: [`IngestError::Corrupt`] at
    /// the first bad frame in [`IngestMode::Strict`].
    pub fn for_each_ref<F>(&mut self, mut f: F) -> Result<(), IngestError>
    where
        F: FnMut(PmEventRef<'a>),
    {
        loop {
            if self.batch_next < self.batch.len() {
                let served = (self.batch.len() - self.batch_next) as u64;
                let mut bytes = 0u64;
                for &(event, len) in &self.batch[self.batch_next..] {
                    bytes += u64::from(len);
                    f(event);
                }
                self.batch_next = self.batch.len();
                self.pos += bytes as usize;
                // `record_frame`, applied batch-wide: the clean/resynced
                // split cannot change mid-batch because serving records no
                // errors.
                self.report.frames_ok += served;
                self.report.bytes_salvaged += bytes;
                if self.report.first_error.is_none() {
                    self.report.frames_clean += served;
                } else {
                    self.report.frames_resynced += served;
                }
                continue;
            }
            // Refill (or finish) through the slow path; this also serves
            // the first event of the next batch.
            match self.next_ref()? {
                Some(event) => f(event),
                None => return Ok(()),
            }
        }
    }

    /// The accounting so far; final once [`FrameWalker::next_ref`] has
    /// returned `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Consumes the walker and returns its final report, finalizing the
    /// accounting if the walk was abandoned mid-stream.
    pub fn into_report(mut self) -> IngestReport {
        if !self.done {
            self.report.finalize(self.avail as u64, self.start);
        }
        self.report
    }
}

/// A trace file made borrowable: memory-mapped when the platform allows,
/// read into an owned buffer otherwise. Either way the bytes are reachable
/// as one `&[u8]` for [`zero_copy`].
pub struct MappedTrace {
    inner: Mapping,
}

enum Mapping {
    #[cfg(unix)]
    Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

// The mapping is read-only and owned exclusively by this struct.
#[cfg(unix)]
unsafe impl Send for MappedTrace {}
#[cfg(unix)]
unsafe impl Sync for MappedTrace {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl MappedTrace {
    /// Opens `path` for zero-copy reading. On Unix this memory-maps the
    /// file (read-only, private), so multi-GB traces cost address space,
    /// not RSS; anywhere the map cannot be established (empty file, map
    /// failure, non-Unix platform) it falls back to reading the file into
    /// memory, which preserves the API at the cost of one copy.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening or reading the file.
    pub fn open(path: &std::path::Path) -> std::io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len > 0 && len <= usize::MAX as u64 {
                let len = len as usize;
                // SAFETY: mapping a freshly opened file descriptor
                // read-only/private; the fd may be closed after mmap
                // returns (the mapping keeps its own reference), and the
                // pointer is unmapped exactly once in Drop.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 && !ptr.is_null() {
                    return Ok(MappedTrace {
                        inner: Mapping::Mmap { ptr, len },
                    });
                }
            }
            // Empty file or failed map: fall through to an owned read.
        }
        Ok(MappedTrace {
            inner: Mapping::Owned(std::fs::read(path)?),
        })
    }

    /// Wraps an already-owned byte image (useful for tests and for inputs
    /// that arrived over a socket).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        MappedTrace {
            inner: Mapping::Owned(bytes),
        }
    }

    /// The trace bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap that lives until
            // Drop; the mapping is never written through.
            Mapping::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts((*ptr).cast::<u8>(), *len)
            },
            Mapping::Owned(v) => v,
        }
    }

    /// Whether the bytes are an OS memory map (false: owned fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Mapping::Mmap { .. } => true,
            Mapping::Owned(_) => false,
        }
    }
}

impl Drop for MappedTrace {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Mapping::Mmap { ptr, len } = self.inner {
            // SAFETY: exactly one unmap of a successful map.
            unsafe {
                sys::munmap(ptr, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::to_binary;
    use crate::events::{FenceKind, PmEvent, ThreadId};
    use crate::ingest::StreamDecoder;
    use crate::recorder::Trace;

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

    /// Drains a walker into owned events plus its final report.
    fn drain(
        bytes: &[u8],
        mode: IngestMode,
        limits: &IngestLimits,
    ) -> (Vec<PmEvent>, IngestReport) {
        match zero_copy(bytes, mode, limits).expect("classifies as binary") {
            ZeroCopy::Binary(mut walker) => {
                let mut events = Vec::new();
                while let Some(event) = walker.next_ref().expect("no strict error") {
                    events.push(event.to_owned());
                }
                let report = walker.report().clone();
                (events, report)
            }
            ZeroCopy::Text => panic!("expected binary"),
        }
    }

    /// Feeds `bytes` to a [`StreamDecoder`] one read chunk at a time,
    /// draining between pushes and pushing nothing more once a budget has
    /// stopped it — the walker's own refill pattern, so even a
    /// budget-truncated `bytes_read` is comparable.
    fn decode_in_chunks(
        bytes: &[u8],
        mode: IngestMode,
        limits: &IngestLimits,
    ) -> Result<(Vec<PmEvent>, IngestReport), IngestError> {
        let mut dec = StreamDecoder::new(mode, limits.clone());
        let mut events = Vec::new();
        for chunk in bytes.chunks(CHUNK) {
            dec.push(chunk);
            while let Some(event) = dec.next_event()? {
                events.push(event);
            }
            if dec.report().truncated.is_some() {
                break;
            }
        }
        dec.finish();
        while let Some(event) = dec.next_event()? {
            events.push(event);
        }
        Ok((events, dec.report().clone()))
    }

    fn assert_identical(bytes: &[u8], mode: IngestMode, limits: &IngestLimits) {
        let (events, mut report) = drain(bytes, mode, limits);
        let (decoded, mut decoder_report) =
            decode_in_chunks(bytes, mode, limits).expect("decoder ingests");
        assert_eq!(events, decoded);
        // Wall-clock is the one inherently run-dependent field; everything
        // else must match bit for bit.
        assert!(report.elapsed > std::time::Duration::ZERO);
        assert!(decoder_report.elapsed > std::time::Duration::ZERO);
        report.elapsed = std::time::Duration::ZERO;
        decoder_report.elapsed = std::time::Duration::ZERO;
        assert_eq!(report, decoder_report);
    }

    #[test]
    fn clean_image_walks_identically_to_stream_decoder() {
        let bytes = to_binary(&sample_trace(500));
        assert_identical(&bytes, IngestMode::Strict, &IngestLimits::default());
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn corrupt_frame_salvages_identically() {
        let mut bytes = to_binary(&sample_trace(50));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn strict_error_matches_stream_decoder() {
        let mut bytes = to_binary(&sample_trace(50));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let walker_err = match zero_copy(&bytes, IngestMode::Strict, &IngestLimits::default()) {
            Ok(ZeroCopy::Binary(mut walker)) => loop {
                match walker.next_ref() {
                    Ok(Some(_)) => {}
                    Ok(None) => panic!("expected a strict error"),
                    Err(e) => break e,
                }
            },
            _ => panic!("expected binary"),
        };
        let decoder_err =
            decode_in_chunks(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap_err();
        assert_eq!(walker_err.to_string(), decoder_err.to_string());
    }

    #[test]
    fn headerless_binary_salvage_entry_matches() {
        let clean = to_binary(&sample_trace(10));
        let mut bytes = b"garbage prefix!".to_vec();
        bytes.extend_from_slice(&clean);
        assert_identical(&bytes, IngestMode::Salvage, &IngestLimits::default());
    }

    #[test]
    fn event_budget_matches_chunked_bytes_read() {
        // A trace spanning several 64 KiB chunks, stopped early by the
        // event budget: `bytes_read` must keep its chunk granularity.
        let bytes = to_binary(&sample_trace(4_000));
        assert!(bytes.len() > 2 * CHUNK);
        for cap in [1u64, 25, 1000, 7999, 8000] {
            let limits = IngestLimits::default().with_max_events(cap);
            assert_identical(&bytes, IngestMode::Salvage, &limits);
        }
    }

    #[test]
    fn byte_budget_matches_including_exact_boundary() {
        let bytes = to_binary(&sample_trace(200));
        for budget in [
            9u64,
            100,
            bytes.len() as u64 / 2,
            bytes.len() as u64 - 1,
            bytes.len() as u64, // equality still reports Bytes truncation
            bytes.len() as u64 + 1,
        ] {
            let limits = IngestLimits::default().with_max_bytes(budget);
            assert_identical(&bytes, IngestMode::Salvage, &limits);
        }
    }

    #[test]
    fn classification_errors_name_both_formats() {
        let cases: &[&[u8]] = &[
            b"",
            b"\x7fELF\x02\x01\x01\0junk",
            b"once upon a time\nthere was a trace\n",
            b"# pm-trace v9\nstore addr=0x0 size=8 tid=0\n",
        ];
        for case in cases {
            for mode in [IngestMode::Strict, IngestMode::Salvage] {
                let err = zero_copy(case, mode, &IngestLimits::default())
                    .map(|_| ())
                    .expect_err("classification error")
                    .to_string();
                assert!(err.contains("# pm-trace v1"), "{err}");
                assert!(err.contains("PMTRACE2"), "{err}");
            }
        }
    }

    #[test]
    fn text_inputs_classify_as_text() {
        let text = b"# pm-trace v1\nstore addr=0x0 size=8 tid=0\n";
        assert!(matches!(
            zero_copy(text, IngestMode::Strict, &IngestLimits::default()),
            Ok(ZeroCopy::Text)
        ));
        // Headerless text is a salvage-only entry.
        let headerless = b"store addr=0x0 size=8 tid=0\n";
        assert!(matches!(
            zero_copy(headerless, IngestMode::Salvage, &IngestLimits::default()),
            Ok(ZeroCopy::Text)
        ));
        assert!(zero_copy(headerless, IngestMode::Strict, &IngestLimits::default()).is_err());
    }

    #[test]
    fn walker_events_borrow_from_the_input() {
        let trace: Trace = vec![PmEvent::FuncEnter {
            name: "recover".into(),
            tid: ThreadId(0),
        }]
        .into_iter()
        .collect();
        let bytes = to_binary(&trace);
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        match zero_copy(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap() {
            ZeroCopy::Binary(mut walker) => {
                match walker.next_ref().unwrap() {
                    Some(PmEventRef::FuncEnter { name, .. }) => {
                        assert!(range.contains(&(name.as_ptr() as usize)));
                        assert_eq!(name, "recover");
                    }
                    other => panic!("unexpected {other:?}"),
                }
                assert!(walker.next_ref().unwrap().is_none());
                assert!(walker.report().clean());
            }
            ZeroCopy::Text => panic!("expected binary"),
        }
    }

    #[test]
    fn mapped_trace_round_trips_a_file() {
        let trace = sample_trace(64);
        let bytes = to_binary(&trace);
        let path = std::env::temp_dir().join(format!("pmdbg-zc-{}.pmt2", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MappedTrace::open(&path).unwrap();
        assert_eq!(mapped.bytes(), &bytes[..]);
        let (events, report) = {
            match zero_copy(mapped.bytes(), IngestMode::Strict, &IngestLimits::default()).unwrap() {
                ZeroCopy::Binary(mut walker) => {
                    let mut events = Vec::new();
                    while let Some(event) = walker.next_ref().unwrap() {
                        events.push(event.to_owned());
                    }
                    (events, walker.report().clone())
                }
                ZeroCopy::Text => panic!("expected binary"),
            }
        };
        assert_eq!(events, trace.events());
        assert!(report.clean());
        assert!(report.elapsed > std::time::Duration::ZERO || report.frames_ok > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_the_owned_fallback() {
        let path = std::env::temp_dir().join(format!("pmdbg-zc-empty-{}", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mapped = MappedTrace::open(&path).unwrap();
        assert!(mapped.bytes().is_empty());
        assert!(!mapped.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }
}
