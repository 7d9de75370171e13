//! The workload-facing runtime: the instrumentation boundary.
//!
//! PM workloads issue every persistent operation through a [`PmRuntime`].
//! The runtime plays the role Valgrind plays in the paper: it observes
//! stores, cache-line flushes and fences and forwards them — as
//! [`PmEvent`]s — to attached [`Detector`]s and/or a recorded [`Trace`],
//! while also applying them to a simulated [`PmPool`] so crash images can be
//! taken for cross-failure testing.

use std::error::Error;
use std::fmt;

use pm_obs::{Counter, MetricsRegistry};
use pmem_sim::{FlushKind, PmPool, PmemError, CACHE_LINE_SIZE};

use crate::annotations::Annotation;
use crate::detector::{BugReport, Detector};
use crate::events::{Addr, FenceKind, PmEvent, StrandId, ThreadId};
use crate::recorder::Trace;

/// Errors produced by the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The underlying simulated pool rejected the operation.
    Pmem(PmemError),
    /// Epoch/strand markers were not properly nested.
    RegionMismatch(&'static str),
    /// A recorded trace was requested but recording was never enabled.
    NotRecording,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Pmem(e) => write!(f, "pmem: {e}"),
            RuntimeError::RegionMismatch(what) => write!(f, "region mismatch: {what}"),
            RuntimeError::NotRecording => {
                write!(f, "trace requested but recording was never enabled")
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Pmem(e) => Some(e),
            RuntimeError::RegionMismatch(_) | RuntimeError::NotRecording => None,
        }
    }
}

impl From<PmemError> for RuntimeError {
    fn from(e: PmemError) -> Self {
        RuntimeError::Pmem(e)
    }
}

/// End-of-run result of a runtime with every diagnostic counter preserved
/// across the detector merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// All reports, grouped in detector attachment order.
    pub reports: Vec<BugReport>,
    /// Sum of [`Detector::malformed_events`] over attached detectors.
    pub malformed_events: u64,
    /// Sum of [`Detector::truncated_events`] over attached detectors.
    pub truncated_events: u64,
}

/// The instrumentation runtime workloads program against.
///
/// Mirrors the paper's software interface (Table 2): `register_pmem`,
/// `epoch_begin`/`epoch_end`, `strand_begin`/`strand_end`, plus the raw
/// instruction-level operations (`store`, `clwb`, `clflush`, `sfence`, …)
/// that Valgrind would intercept.
///
/// Nested epochs follow Pmemcheck's convention (§6): only the outermost
/// `epoch_begin`/`epoch_end` pair delineates the epoch.
pub struct PmRuntime {
    pool: Option<PmPool>,
    detectors: Vec<Box<dyn Detector>>,
    trace: Option<Trace>,
    tap: Option<Box<EventTap>>,
    seq: u64,
    tid: ThreadId,
    epoch_depth: u32,
    strand_stack: Vec<StrandId>,
    next_strand: u32,
}

/// Pre-resolved per-kind counter handles: the event tap pays one relaxed
/// increment per event and never touches the registry lock after
/// [`PmRuntime::observe`].
struct EventTap {
    by_kind: [Counter; PmEvent::KIND_NAMES.len()],
}

impl fmt::Debug for PmRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmRuntime")
            .field("pool", &self.pool.as_ref().map(|p| p.size()))
            .field("detectors", &self.detectors.len())
            .field("recording", &self.trace.is_some())
            .field("observed", &self.tap.is_some())
            .field("seq", &self.seq)
            .field("tid", &self.tid)
            .field("epoch_depth", &self.epoch_depth)
            .field("strand_stack", &self.strand_stack)
            .finish()
    }
}

impl PmRuntime {
    /// Creates a runtime backed by a simulated pool of `size` bytes and
    /// registers the whole pool as persistent memory.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] when the pool cannot be created.
    pub fn with_pool(size: u64) -> Result<Self, RuntimeError> {
        let pool = PmPool::new(size)?;
        let mut rt = Self::trace_only();
        rt.pool = Some(pool);
        rt.emit(PmEvent::RegisterPmem { base: 0, size });
        Ok(rt)
    }

    /// Creates a runtime with no backing pool: events are emitted (and
    /// optionally recorded) but no bytes are stored. This is the fast path
    /// for workload trace generation in benchmarks.
    pub fn trace_only() -> Self {
        PmRuntime {
            pool: None,
            detectors: Vec::new(),
            trace: None,
            tap: None,
            seq: 0,
            tid: ThreadId(0),
            epoch_depth: 0,
            strand_stack: Vec::new(),
            next_strand: 0,
        }
    }

    /// Starts recording events into an in-memory [`Trace`].
    pub fn record(&mut self) -> &mut Self {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
        self
    }

    /// Attaches an event-stream tap counting every subsequent event into
    /// `registry` as `events.<kind>` counters (see
    /// [`PmEvent::KIND_NAMES`]). Counter handles are resolved once here,
    /// so the per-event cost is a single relaxed increment.
    pub fn observe(&mut self, registry: &MetricsRegistry) -> &mut Self {
        self.tap = Some(Box::new(EventTap {
            by_kind: std::array::from_fn(|i| {
                registry.counter(&format!("events.{}", PmEvent::KIND_NAMES[i]))
            }),
        }));
        self
    }

    /// Attaches a detector; it observes every subsequent event.
    pub fn attach(&mut self, detector: Box<dyn Detector>) -> &mut Self {
        self.detectors.push(detector);
        self
    }

    /// Sets the thread id stamped on subsequent events (single-OS-thread
    /// simulation of multi-threaded workloads).
    pub fn set_thread(&mut self, tid: ThreadId) -> &mut Self {
        self.tid = tid;
        self
    }

    /// The thread id currently stamped on events.
    pub fn thread(&self) -> ThreadId {
        self.tid
    }

    /// Number of events emitted so far.
    pub fn event_count(&self) -> u64 {
        self.seq
    }

    /// The backing pool, when one exists.
    pub fn pool(&self) -> Option<&PmPool> {
        self.pool.as_ref()
    }

    /// Mutable access to the backing pool (e.g. for recovery code that
    /// re-initializes state after a simulated crash).
    pub fn pool_mut(&mut self) -> Option<&mut PmPool> {
        self.pool.as_mut()
    }

    fn emit(&mut self, event: PmEvent) {
        let seq = self.seq;
        self.seq += 1;
        if let Some(tap) = &self.tap {
            tap.by_kind[event.kind_index()].inc();
        }
        for det in &mut self.detectors {
            det.on_event(seq, &event.as_ref());
        }
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    fn current_strand(&self) -> Option<StrandId> {
        self.strand_stack.last().copied()
    }

    // ---- Table 2 interfaces -------------------------------------------------

    /// `Register_pmem`: registers `[base, base+size)` for debugging.
    pub fn register_pmem(&mut self, base: Addr, size: u64) {
        self.emit(PmEvent::RegisterPmem { base, size });
    }

    /// Marks the beginning of an epoch section (`TX_BEGIN`). Nested sections
    /// collapse into the outermost one (Pmemcheck's nested-transaction
    /// handling, §6).
    pub fn epoch_begin(&mut self) {
        self.epoch_depth += 1;
        if self.epoch_depth == 1 {
            let tid = self.tid;
            self.emit(PmEvent::EpochBegin { tid });
        }
    }

    /// Marks the end of an epoch section (`TX_END`).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionMismatch`] when no epoch is open.
    pub fn epoch_end(&mut self) -> Result<(), RuntimeError> {
        if self.epoch_depth == 0 {
            return Err(RuntimeError::RegionMismatch(
                "epoch_end without epoch_begin",
            ));
        }
        self.epoch_depth -= 1;
        if self.epoch_depth == 0 {
            let tid = self.tid;
            self.emit(PmEvent::EpochEnd { tid });
        }
        Ok(())
    }

    /// Whether an epoch section is currently open.
    pub fn in_epoch(&self) -> bool {
        self.epoch_depth > 0
    }

    /// Marks the beginning of a new strand section and returns its id.
    pub fn strand_begin(&mut self) -> StrandId {
        let id = StrandId(self.next_strand);
        self.next_strand += 1;
        self.strand_stack.push(id);
        let tid = self.tid;
        self.emit(PmEvent::StrandBegin { strand: id, tid });
        id
    }

    /// Marks the end of the innermost strand section.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionMismatch`] when no strand is open.
    pub fn strand_end(&mut self) -> Result<(), RuntimeError> {
        let id = self.strand_stack.pop().ok_or(RuntimeError::RegionMismatch(
            "strand_end without strand_begin",
        ))?;
        let tid = self.tid;
        self.emit(PmEvent::StrandEnd { strand: id, tid });
        Ok(())
    }

    /// `JoinStrand`: establishes explicit persist ordering across all
    /// strands ended so far.
    pub fn join_strand(&mut self) {
        let tid = self.tid;
        self.emit(PmEvent::JoinStrand { tid });
    }

    // ---- Instruction-level operations ---------------------------------------

    /// A store to persistent memory.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] if a backing pool exists and rejects
    /// the access.
    pub fn store(&mut self, addr: Addr, data: &[u8]) -> Result<(), RuntimeError> {
        if let Some(pool) = &mut self.pool {
            pool.store(addr, data)?;
        }
        let (tid, strand, in_epoch) = (self.tid, self.current_strand(), self.in_epoch());
        self.emit(PmEvent::Store {
            addr,
            size: data.len() as u32,
            tid,
            strand,
            in_epoch,
        });
        Ok(())
    }

    /// A store described by address and size only (no data bytes). On a
    /// trace-only runtime this avoids materializing buffers; on a
    /// pool-backed runtime it writes zeroes (the event stream, which is
    /// what detectors consume, is identical either way).
    pub fn store_untyped(&mut self, addr: Addr, size: u32) {
        if let Some(pool) = &mut self.pool {
            const ZEROES: [u8; 64] = [0; 64];
            let mut written = 0u64;
            while written < u64::from(size) {
                let chunk = (u64::from(size) - written).min(64) as usize;
                if pool.store(addr + written, &ZEROES[..chunk]).is_err() {
                    break; // out-of-pool untyped stores are trace-visible only
                }
                written += chunk as u64;
            }
        }
        let (tid, strand, in_epoch) = (self.tid, self.current_strand(), self.in_epoch());
        self.emit(PmEvent::Store {
            addr,
            size,
            tid,
            strand,
            in_epoch,
        });
    }

    /// A compare-and-swap on persistent memory, as issued by lock-free PM
    /// structures publishing nodes by pointer swing. On success the
    /// installed value is written to the backing pool (when one exists);
    /// a failed CAS writes nothing but is still trace-visible, since the
    /// cross-thread rules care about the attempt ordering.
    pub fn cas_untyped(&mut self, addr: Addr, size: u32, old: u64, new: u64, success: bool) {
        if success {
            if let Some(pool) = &mut self.pool {
                let width = (size as usize).min(8);
                let bytes = new.to_le_bytes();
                // out-of-pool CAS targets are trace-visible only
                let _ = pool.store(addr, &bytes[..width]);
            }
        }
        let tid = self.tid;
        self.emit(PmEvent::Cas {
            addr,
            size,
            tid,
            old,
            new,
            success,
        });
    }

    /// Reads from the volatile image of the backing pool.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] when out of bounds or when no pool is
    /// attached (reported as out-of-bounds on an empty pool).
    pub fn load(&self, addr: Addr, len: usize) -> Result<Vec<u8>, RuntimeError> {
        match &self.pool {
            Some(pool) => Ok(pool.load(addr, len)?.to_vec()),
            None => Err(RuntimeError::Pmem(PmemError::OutOfBounds {
                addr,
                len,
                pool_size: 0,
            })),
        }
    }

    fn flush_impl(&mut self, kind: FlushKind, addr: Addr, len: u32) -> Result<(), RuntimeError> {
        if let Some(pool) = &mut self.pool {
            pool.flush_range(kind, addr, len as usize)?;
        }
        let base = pmem_sim::line_base(addr);
        let end = addr + u64::from(len);
        let size = (end - base)
            .max(CACHE_LINE_SIZE)
            .next_multiple_of(CACHE_LINE_SIZE) as u32;
        let (tid, strand) = (self.tid, self.current_strand());
        self.emit(PmEvent::Flush {
            kind,
            addr: base,
            size,
            tid,
            strand,
        });
        Ok(())
    }

    /// `CLWB` of the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] on out-of-pool addresses.
    pub fn clwb(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        self.flush_impl(FlushKind::Clwb, addr, 1)
    }

    /// `CLFLUSH` of the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] on out-of-pool addresses.
    pub fn clflush(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        self.flush_impl(FlushKind::Clflush, addr, 1)
    }

    /// `CLFLUSHOPT` of the line containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] on out-of-pool addresses.
    pub fn clflushopt(&mut self, addr: Addr) -> Result<(), RuntimeError> {
        self.flush_impl(FlushKind::Clflushopt, addr, 1)
    }

    /// Flushes every line overlapping `[addr, addr+len)` — the
    /// `pmemobj_persist`-style range helper (one event per call, sized to
    /// the covered lines).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Pmem`] on out-of-pool ranges.
    pub fn flush_range(
        &mut self,
        kind: FlushKind,
        addr: Addr,
        len: u32,
    ) -> Result<(), RuntimeError> {
        self.flush_impl(kind, addr, len)
    }

    /// `SFENCE`.
    pub fn sfence(&mut self) {
        if let Some(pool) = &mut self.pool {
            pool.sfence();
        }
        let (tid, strand, in_epoch) = (self.tid, self.current_strand(), self.in_epoch());
        self.emit(PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid,
            strand,
            in_epoch,
        });
    }

    /// A persist barrier inside a strand (strand persistency model).
    pub fn persist_barrier(&mut self) {
        if let Some(pool) = &mut self.pool {
            pool.sfence();
        }
        let (tid, strand, in_epoch) = (self.tid, self.current_strand(), self.in_epoch());
        self.emit(PmEvent::Fence {
            kind: FenceKind::PersistBarrier,
            tid,
            strand,
            in_epoch,
        });
    }

    /// Records an undo-log append for the object at `obj_addr` (PMDK
    /// `pmemobj_tx_add_range`).
    pub fn tx_log(&mut self, obj_addr: Addr, size: u32) {
        let tid = self.tid;
        self.emit(PmEvent::TxLog {
            obj_addr,
            size,
            tid,
        });
    }

    /// Marks entry into an application function named in an order-spec
    /// configuration.
    pub fn func_enter(&mut self, name: &str) {
        let tid = self.tid;
        self.emit(PmEvent::FuncEnter {
            name: name.to_owned(),
            tid,
        });
    }

    /// Maps an order-spec variable name to an address range.
    pub fn name_range(&mut self, name: &str, addr: Addr, size: u32) {
        self.emit(PmEvent::NameRange {
            name: name.to_owned(),
            addr,
            size,
        });
    }

    /// Emits a PMTest-style annotation (consumed only by the PMTest-like
    /// baseline).
    pub fn annotate(&mut self, annotation: Annotation) {
        self.emit(PmEvent::Annotation(annotation));
    }

    /// Marks a simulated failure point: execution "crashes" here and the
    /// following events model post-failure recovery.
    pub fn crash(&mut self) {
        self.emit(PmEvent::Crash);
    }

    /// Records a post-failure recovery read of `[addr, addr+size)`.
    pub fn recovery_read(&mut self, addr: Addr, size: u32) {
        self.emit(PmEvent::RecoveryRead { addr, size });
    }

    /// Finishes the run: every attached detector runs its end-of-program
    /// checks; all reports are returned, grouped in attachment order.
    ///
    /// Diagnostic counters (malformed/truncated events) are dropped by this
    /// merge; use [`PmRuntime::finish_summary`] when they matter.
    pub fn finish(&mut self) -> Vec<BugReport> {
        self.finish_summary().reports
    }

    /// Like [`PmRuntime::finish`], but also carries each detector's
    /// malformed/truncated event counters through the merge instead of
    /// silently dropping them.
    pub fn finish_summary(&mut self) -> RunSummary {
        let mut summary = RunSummary::default();
        for det in &mut self.detectors {
            // Counters first: `finish` may consume internal state.
            summary.malformed_events += det.malformed_events();
            summary.truncated_events += det.truncated_events();
            summary.reports.extend(det.finish());
        }
        summary
    }

    /// Detaches and returns the recorded trace, if recording was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Like [`PmRuntime::take_trace`], but with a typed error instead of an
    /// `Option` — for call sites that propagate `Result`s.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NotRecording`] when [`PmRuntime::record`] was
    /// never called (or the trace was already taken).
    pub fn try_take_trace(&mut self) -> Result<Trace, RuntimeError> {
        self.trace.take().ok_or(RuntimeError::NotRecording)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::CountingDetector;

    #[test]
    fn runtime_forwards_to_pool_and_detector() {
        let mut rt = PmRuntime::with_pool(1024).unwrap();
        rt.record();
        rt.store(0, &[1, 2, 3, 4]).unwrap();
        rt.clwb(0).unwrap();
        rt.sfence();
        assert!(rt.pool().unwrap().is_persisted(0, 4));
        let trace = rt.take_trace().unwrap();
        // store + flush + fence (RegisterPmem was emitted before recording)
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn flush_event_is_line_aligned() {
        let mut rt = PmRuntime::with_pool(1024).unwrap();
        rt.record();
        rt.store(100, &[1]).unwrap();
        rt.clwb(100).unwrap();
        let trace = rt.take_trace().unwrap();
        match &trace.events()[1] {
            PmEvent::Flush { addr, size, .. } => {
                assert_eq!(*addr, 64);
                assert_eq!(*size, 64);
            }
            other => panic!("expected flush, got {other:?}"),
        }
    }

    #[test]
    fn flush_range_spans_lines() {
        let mut rt = PmRuntime::with_pool(1024).unwrap();
        rt.record();
        rt.flush_range(FlushKind::Clwb, 60, 8).unwrap();
        let trace = rt.take_trace().unwrap();
        match &trace.events()[0] {
            PmEvent::Flush { addr, size, .. } => {
                assert_eq!(*addr, 0);
                assert_eq!(*size, 128);
            }
            other => panic!("expected flush, got {other:?}"),
        }
    }

    #[test]
    fn nested_epochs_collapse_to_outermost() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.epoch_begin();
        rt.epoch_begin();
        assert!(rt.in_epoch());
        rt.epoch_end().unwrap();
        assert!(rt.in_epoch());
        rt.epoch_end().unwrap();
        assert!(!rt.in_epoch());
        let trace = rt.take_trace().unwrap();
        assert_eq!(trace.len(), 2); // one begin, one end
    }

    #[test]
    fn unbalanced_epoch_end_errors() {
        let mut rt = PmRuntime::trace_only();
        assert!(matches!(
            rt.epoch_end().unwrap_err(),
            RuntimeError::RegionMismatch(_)
        ));
    }

    #[test]
    fn stores_inside_epoch_are_flagged() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(0, 8);
        rt.epoch_begin();
        rt.store_untyped(8, 8);
        rt.epoch_end().unwrap();
        let trace = rt.take_trace().unwrap();
        let flags: Vec<bool> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                PmEvent::Store { in_epoch, .. } => Some(*in_epoch),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn strand_ids_are_fresh_and_stacked() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        let s0 = rt.strand_begin();
        rt.store_untyped(0, 8);
        rt.strand_end().unwrap();
        let s1 = rt.strand_begin();
        rt.store_untyped(64, 8);
        rt.strand_end().unwrap();
        assert_ne!(s0, s1);
        let trace = rt.take_trace().unwrap();
        let strands: Vec<Option<StrandId>> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                PmEvent::Store { strand, .. } => Some(*strand),
                _ => None,
            })
            .collect();
        assert_eq!(strands, vec![Some(s0), Some(s1)]);
    }

    #[test]
    fn strand_end_without_begin_errors() {
        let mut rt = PmRuntime::trace_only();
        assert!(rt.strand_end().is_err());
    }

    #[test]
    fn detector_sees_all_events() {
        let mut rt = PmRuntime::with_pool(1024).unwrap();
        rt.attach(Box::new(CountingDetector::default()));
        rt.store(0, &[0; 8]).unwrap();
        rt.store(64, &[0; 8]).unwrap();
        rt.clwb(0).unwrap();
        rt.sfence();
        assert_eq!(rt.event_count(), 5); // register + 2 stores + flush + fence
        assert!(rt.finish().is_empty());
    }

    #[test]
    fn observe_counts_events_by_kind() {
        let registry = MetricsRegistry::new();
        let mut rt = PmRuntime::trace_only();
        rt.observe(&registry);
        rt.store_untyped(0, 8);
        rt.store_untyped(64, 8);
        rt.clwb(0).unwrap();
        rt.sfence();
        rt.epoch_begin();
        rt.epoch_end().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("events.store"), 2);
        assert_eq!(snap.counter("events.flush"), 1);
        assert_eq!(snap.counter("events.fence"), 1);
        assert_eq!(snap.counter("events.epoch_begin"), 1);
        assert_eq!(snap.counter("events.epoch_end"), 1);
        assert_eq!(snap.counter("events.crash"), 0);
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("events."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, rt.event_count());
    }

    #[test]
    fn cas_untyped_writes_pool_only_on_success() {
        let mut rt = PmRuntime::with_pool(128).unwrap();
        rt.record();
        rt.cas_untyped(0, 8, 0, 0x4142_4344, true);
        assert_eq!(rt.load(0, 4).unwrap(), [0x44, 0x43, 0x42, 0x41]);
        rt.cas_untyped(8, 8, 0, u64::MAX, false);
        assert_eq!(rt.load(8, 8).unwrap(), [0u8; 8]);
        let trace = rt.take_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert!(matches!(
            trace.events()[0],
            PmEvent::Cas { success: true, .. }
        ));
        assert!(matches!(
            trace.events()[1],
            PmEvent::Cas { success: false, .. }
        ));
    }

    #[test]
    fn load_reflects_stores() {
        let mut rt = PmRuntime::with_pool(128).unwrap();
        rt.store(5, b"abc").unwrap();
        assert_eq!(rt.load(5, 3).unwrap(), b"abc");
    }

    #[test]
    fn trace_only_load_errors() {
        let rt = PmRuntime::trace_only();
        assert!(rt.load(0, 1).is_err());
    }

    #[test]
    fn thread_id_is_stamped() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.set_thread(ThreadId(3));
        rt.store_untyped(0, 4);
        let trace = rt.take_trace().unwrap();
        assert_eq!(trace.events()[0].tid(), Some(ThreadId(3)));
    }
}
