//! Instrumentation substrate for persistent-memory bug detection.
//!
//! The PMDebugger paper instruments binaries with Valgrind to intercept
//! store, cache-line-flush (CLF) and fence instructions. This crate is the
//! equivalent substrate for Rust-native PM programs: workloads issue their
//! persistent operations through a [`PmRuntime`], which
//!
//! 1. applies them to a simulated persistent-memory pool
//!    ([`pmem_sim::PmPool`]) so that crash images can be taken, and
//! 2. emits a stream of [`PmEvent`]s — the same information a Valgrind tool
//!    would see — to any number of attached [`Detector`]s and/or a recorded
//!    [`Trace`].
//!
//! Detectors (PMDebugger itself lives in the `pmdebugger` crate; the
//! comparison baselines in `pm-baselines`) are pure consumers of this event
//! stream, mirroring how all the tools compared in the paper sit behind the
//! same instrumentation boundary.
//!
//! The crate also hosts:
//!
//! * [`TraceCharacterizer`] — the Figure 2 characterization (store→fence
//!   distance distribution, collective vs dispersed writebacks, instruction
//!   mix),
//! * [`OrderSpec`] — the configuration-file format for the paper's
//!   "no order guarantee" rule (§4.5, §8),
//! * [`Annotation`] — PMTest-style in-program assertions used by the
//!   PMTest-like baseline.
//!
//! # Example
//!
//! ```
//! use pm_trace::{PmRuntime, CountingDetector};
//!
//! # fn main() -> Result<(), pm_trace::RuntimeError> {
//! let mut rt = PmRuntime::with_pool(4096)?;
//! rt.attach(Box::new(CountingDetector::default()));
//! rt.store(0, &7u64.to_le_bytes())?;
//! rt.clwb(0)?;
//! rt.sfence();
//! let reports = rt.finish();
//! assert!(reports.is_empty()); // the counting detector never reports bugs
//! # Ok(())
//! # }
//! ```

pub mod annotations;
pub mod binfmt;
pub mod characterize;
pub mod detector;
pub mod events;
pub mod format;
pub mod ingest;
pub mod orderspec;
pub mod recorder;
pub mod runtime;
pub mod shard;
pub mod summary;
pub mod zerocopy;

pub use annotations::Annotation;
pub use binfmt::{
    crc32, crc32_fast, decode_payload, decode_payload_ref, encode_payload, frame_spans,
    from_binary, read_varint, to_binary, write_varint, BinParseError,
};
pub use characterize::{
    CharacterizationReport, DistanceHistogram, FenceIntervalHistogram, TraceCharacterizer,
};
pub use detector::{
    report_hash, BugKind, BugReport, CountingDetector, Detector, NopDetector, ReportDigest,
    Severity,
};
pub use events::{Addr, FenceKind, PmEvent, PmEventRef, StrandId, ThreadId, CAS_PUBLISH_WINDOW};
pub use format::{from_text, parse_line, to_text, ParseTraceError};
pub use ingest::{
    ingest_bytes, FrameError, IngestError, IngestLimits, IngestMode, IngestReport,
    IngestTruncation, StreamDecoder, TraceFormat,
};
pub use orderspec::{OrderRule, OrderSpec, ParseOrderSpecError};
pub use recorder::{
    interleave_round_robin, interleave_seeded, replay, replay_events, replay_finish,
    replay_finish_events, splitmix64, Trace, TraceStats,
};
pub use runtime::{PmRuntime, RunSummary, RuntimeError};
pub use shard::{
    EventColumns, KeyedChunk, PlanBuilder, Route, RouteCursor, ShardPlan, KEY_BROADCAST,
    SHARD_BLOCK,
};
pub use summary::BugSummary;
pub use zerocopy::{zero_copy, FrameWalker, MappedTrace, ZeroCopy};

pub use pmem_sim::FlushKind;
