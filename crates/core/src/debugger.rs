//! The PMDebugger engine: hierarchical composition of the bookkeeping
//! data structures (§4.1), the store/CLF/fence processing algorithms
//! (§4.2–§4.4), and the detection rules (§4.5, §5.2).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use pm_obs::{Counter, MetricsRegistry};
use pm_trace::{
    Addr, BugKind, BugReport, Detector, FenceKind, PmEvent, PmEventRef, ReportDigest, StrandId,
    ThreadId,
};

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};
use crate::config::{DebuggerConfig, PersistencyModel};
use crate::order::{CrossThreadTracker, OrderTracker};
use crate::space::BookkeepingSpace;
use crate::stats::DebuggerStats;

/// A user-supplied detection rule (the "flexible" in the paper's title):
/// custom rules observe the same event stream and may inspect the
/// bookkeeping state through [`SpaceView`].
pub trait CustomRule {
    /// Rule name for reports.
    fn name(&self) -> &str;

    /// Observes one event with read access to the bookkeeping space.
    fn on_event(&mut self, seq: u64, event: &PmEvent, view: &SpaceView<'_>) -> Vec<BugReport>;

    /// End-of-program check.
    fn finish(&mut self, view: &SpaceView<'_>) -> Vec<BugReport> {
        let _ = view;
        Vec::new()
    }
}

/// Key of a bookkeeping space: per-strand under strand persistency (§5.1),
/// per-thread otherwise (an x86 `SFENCE` orders only the issuing thread's
/// flushes, so threads have independent persistency state).
///
/// `Ord` matters: spaces live in a `BTreeMap` so that every cross-space
/// walk (flush probing, residual collection) is deterministic — a
/// prerequisite for the parallel pipeline's byte-identical merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum SpaceKey {
    Thread(ThreadId),
    Strand(StrandId),
}

/// Read-only view over the debugger's bookkeeping spaces, exposed to custom
/// rules.
#[derive(Debug)]
pub struct SpaceView<'a> {
    spaces: &'a BTreeMap<SpaceKey, BookkeepingSpace>,
}

impl SpaceView<'_> {
    /// Whether any space tracks a not-yet-durable location overlapping
    /// `[addr, addr+len)`.
    pub fn is_tracked(&self, addr: Addr, len: u64) -> bool {
        self.spaces.values().any(|s| s.contains_overlap(addr, len))
    }

    /// Total number of tracked locations across all spaces.
    pub fn tracked_count(&self) -> usize {
        self.spaces
            .values()
            .map(|s| s.array_len() + s.tree_len())
            .sum()
    }
}

/// Cached per-space stat contributions; `agg` is their running sum (without
/// `events_processed`, which the debugger tracks directly). Spaces are
/// never removed from the map, so stale entries cannot linger.
#[derive(Debug, Default)]
struct StatsCache {
    agg: DebuggerStats,
    per_space: HashMap<SpaceKey, (u64, DebuggerStats)>,
}

#[derive(Debug, Clone, Default)]
struct EpochState {
    /// Explicit fences observed inside the current epoch section.
    fences: u32,
    /// Ranges logged in the current transaction (for redundant logging).
    logged: Vec<(Addr, u64)>,
}

/// The PMDebugger crash-consistency bug detector.
///
/// Implements [`Detector`], so it attaches to a [`pm_trace::PmRuntime`] or
/// replays recorded traces.
///
/// # Example
///
/// ```
/// use pm_trace::{PmRuntime, Detector};
/// use pmdebugger::PmDebugger;
///
/// # fn main() -> Result<(), pm_trace::RuntimeError> {
/// let mut rt = PmRuntime::with_pool(4096)?;
/// rt.attach(Box::new(PmDebugger::strict()));
/// rt.store(0, &1u64.to_le_bytes())?;   // never flushed!
/// let reports = rt.finish();
/// assert_eq!(reports.len(), 1);        // no-durability-guarantee
/// # Ok(())
/// # }
/// ```
pub struct PmDebugger {
    config: DebuggerConfig,
    /// Bookkeeping spaces: one per strand section under strand persistency
    /// (§5.1), one per thread otherwise. Ordered map — see [`SpaceKey`].
    spaces: BTreeMap<SpaceKey, BookkeepingSpace>,
    /// Incremental aggregate of per-space statistics, refreshed lazily from
    /// spaces whose version moved (keeps [`PmDebugger::stats`] O(1) per
    /// event under the pipeline's per-batch polling). Interior mutability
    /// because `stats()` is a read.
    stats_cache: RefCell<StatsCache>,
    order: OrderTracker,
    /// Cross-thread persistency ordering at CAS publication points.
    cross: CrossThreadTracker,
    /// Per-thread epoch state.
    epochs: HashMap<ThreadId, EpochState>,
    reports: Vec<BugReport>,
    custom_rules: Vec<Box<dyn CustomRule>>,
    /// Non-durable ranges at the simulated crash point.
    crash_residuals: Option<Vec<(Addr, u64)>>,
    events_processed: u64,
    strand_seen: bool,
    /// Structurally invalid events tolerated during the run (e.g. a persist
    /// barrier outside any strand in a perturbed stream).
    malformed_events: u64,
    /// Optional observability hookup (see [`PmDebugger::attach_metrics`]).
    metrics: Option<DebuggerMetrics>,
}

/// Pre-resolved handles for the instrumented engine. The hot path pays
/// nothing: the engine already counts events for its own statistics, and
/// everything (event total, rule firing counts, bookkeeping export) is
/// flushed once, in `finish`. `events_exported` makes that flush a delta
/// so a second `finish` cannot double-count.
struct DebuggerMetrics {
    registry: MetricsRegistry,
    events: Counter,
    events_exported: u64,
}

impl std::fmt::Debug for PmDebugger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmDebugger")
            .field("model", &self.config.model)
            .field("spaces", &self.spaces.len())
            .field("reports", &self.reports.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl PmDebugger {
    /// Creates a debugger from a full configuration.
    pub fn new(config: DebuggerConfig) -> Self {
        let order = OrderTracker::new(config.order_spec.clone());
        PmDebugger {
            config,
            spaces: BTreeMap::new(),
            stats_cache: RefCell::new(StatsCache::default()),
            order,
            cross: CrossThreadTracker::new(),
            epochs: HashMap::new(),
            reports: Vec::new(),
            custom_rules: Vec::new(),
            crash_residuals: None,
            events_processed: 0,
            strand_seen: false,
            malformed_events: 0,
            metrics: None,
        }
    }

    /// Attaches a metrics registry: on `finish` the engine exports its
    /// processed-event total (`engine.events`), per-rule firing counts
    /// (`rule.<bug-kind>`, `custom_rule.<name>`) and the bookkeeping
    /// statistics (`bookkeeping.*`, see [`DebuggerStats::export`]). The
    /// event hot path is untouched — live per-event counting belongs to
    /// the runtime tap (`PmRuntime::observe`), not the engine.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) -> &mut Self {
        self.metrics = Some(DebuggerMetrics {
            registry: registry.clone(),
            events: registry.counter("engine.events"),
            events_exported: 0,
        });
        self
    }

    /// [`PmDebugger::new`] plus [`PmDebugger::attach_metrics`] in one call.
    pub fn with_metrics(config: DebuggerConfig, registry: &MetricsRegistry) -> Self {
        let mut det = Self::new(config);
        det.attach_metrics(registry);
        det
    }

    /// Number of structurally invalid events tolerated so far. Non-zero on
    /// malformed (e.g. fault-injected) streams; the debugger keeps running
    /// and reporting rather than aborting on them.
    pub fn malformed_events(&self) -> u64 {
        self.malformed_events
    }

    /// Debugger with paper defaults for strict persistency.
    pub fn strict() -> Self {
        Self::new(DebuggerConfig::for_model(PersistencyModel::Strict))
    }

    /// Debugger with paper defaults for epoch persistency.
    pub fn epoch() -> Self {
        Self::new(DebuggerConfig::for_model(PersistencyModel::Epoch))
    }

    /// Debugger with paper defaults for strand persistency.
    pub fn strand() -> Self {
        Self::new(DebuggerConfig::for_model(PersistencyModel::Strand))
    }

    /// Registers a custom detection rule.
    pub fn add_custom_rule(&mut self, rule: Box<dyn CustomRule>) -> &mut Self {
        self.custom_rules.push(rule);
        self
    }

    /// Streams an event iterator through the debugger and returns the
    /// final reports. This is the ingestion-friendly entry point: callers
    /// holding a salvaged or budget-truncated stream (e.g. from
    /// `pm_trace::ingest`) can drive detection without first materializing
    /// a `Trace` slice. Equivalent to `replay_finish` over the same
    /// events.
    pub fn detect_stream<'a, I>(&mut self, events: I) -> Vec<BugReport>
    where
        I: IntoIterator<Item = &'a PmEvent>,
    {
        self.feed_events(0, events);
        self.finish()
    }

    /// [`PmDebugger::detect_stream`] over borrowed events — the zero-copy
    /// entry point. The detector never retains any part of an event (names
    /// are interned into the order tracker's own storage), so callers can
    /// stream [`PmEventRef`]s decoded straight out of a mapped trace file.
    /// Produces reports byte-identical to the owned path over the same
    /// stream.
    pub fn detect_stream_ref<'a, I>(&mut self, events: I) -> Vec<BugReport>
    where
        I: IntoIterator<Item = PmEventRef<'a>>,
    {
        self.feed_events_ref(0, events);
        self.finish()
    }

    /// Runs a chunk of events through the detector starting at sequence
    /// number `start_seq`, returning how many were processed. Shared by
    /// [`PmDebugger::detect_stream`] (one chunk from 0) and
    /// [`crate::session::DetectSession::feed`] (many chunks, resuming
    /// sequence numbers across them) so both paths are the same code.
    pub(crate) fn feed_events<'a, I>(&mut self, start_seq: u64, events: I) -> u64
    where
        I: IntoIterator<Item = &'a PmEvent>,
    {
        let mut n = 0;
        for event in events {
            self.on_event(start_seq + n, event);
            n += 1;
        }
        n
    }

    /// [`PmDebugger::feed_events`] over borrowed events; shared by
    /// [`PmDebugger::detect_stream_ref`] and
    /// [`crate::session::DetectSession::feed_ref`].
    pub(crate) fn feed_events_ref<'a, I>(&mut self, start_seq: u64, events: I) -> u64
    where
        I: IntoIterator<Item = PmEventRef<'a>>,
    {
        let mut n = 0;
        for event in events {
            self.on_event_ref(start_seq + n, &event);
            n += 1;
        }
        n
    }

    /// Processes one borrowed event. Identical detection semantics to
    /// [`Detector::on_event`]; an owned event is materialized only when
    /// custom rules are registered (their trait observes `&PmEvent`).
    pub fn on_event_ref(&mut self, seq: u64, event: &PmEventRef<'_>) {
        self.events_processed += 1;
        self.dispatch(seq, event);
        if !self.custom_rules.is_empty() {
            let owned = event.to_owned();
            self.run_custom_rules(seq, &owned);
        }
    }

    /// Takes the reports accumulated so far, leaving the detector running.
    /// Incremental counterpart of the drain at the end of
    /// [`Detector::finish`]: the concatenation of every drain plus the
    /// final `finish` output reproduces the batch report list exactly.
    pub(crate) fn drain_reports(&mut self) -> Vec<BugReport> {
        std::mem::take(&mut self.reports)
    }

    /// Deep-copies the detection state: bookkeeping spaces, order tracker,
    /// epoch state, pending reports and event counters. The copy starts
    /// with a cold stats cache, no metrics hookup, and — because
    /// `Box<dyn CustomRule>` is not clonable — no custom rules; callers
    /// that need checkpointing (the serve sessions) must not register
    /// custom rules on the source, which [`crate::session::DetectSession`]
    /// enforces by never exposing them.
    /// Serializes the full detection state into the checkpoint payload.
    /// Only fork-shaped state is encodable: custom rules are boxed trait
    /// objects with no wire form (and sessions — the only checkpoint
    /// producers — never register them), and metrics handles rebind on
    /// resume.
    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        debug_assert!(
            self.custom_rules.is_empty(),
            "checkpointed state never carries custom rules"
        );
        self.config.encode_into(w);
        w.usize(self.spaces.len());
        for (key, space) in &self.spaces {
            match key {
                SpaceKey::Thread(tid) => {
                    w.u8(0);
                    w.varint(u64::from(tid.0));
                }
                SpaceKey::Strand(strand) => {
                    w.u8(1);
                    w.varint(u64::from(strand.0));
                }
            }
            space.encode_into(w);
        }
        self.order.encode_into(w);
        self.cross.encode_into(w);
        let epochs = ckpt::sorted_entries(&self.epochs);
        w.usize(epochs.len());
        for (tid, state) in epochs {
            w.varint(u64::from(tid.0));
            w.varint(u64::from(state.fences));
            w.usize(state.logged.len());
            for &(addr, len) in &state.logged {
                w.varint(addr);
                w.varint(len);
            }
        }
        w.usize(self.reports.len());
        for report in &self.reports {
            ckpt::encode_report(w, report);
        }
        match &self.crash_residuals {
            None => w.u8(0),
            Some(residuals) => {
                w.u8(1);
                w.usize(residuals.len());
                for &(addr, len) in residuals {
                    w.varint(addr);
                    w.varint(len);
                }
            }
        }
        w.varint(self.events_processed);
        w.bool(self.strand_seen);
        w.varint(self.malformed_events);
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<PmDebugger, CheckpointDecodeError> {
        let config = DebuggerConfig::decode_from(r)?;
        let space_count = r.count()?;
        let mut spaces = BTreeMap::new();
        for _ in 0..space_count {
            let key = match r.u8()? {
                0 => SpaceKey::Thread(ThreadId(r.varint()? as u32)),
                1 => SpaceKey::Strand(StrandId(r.varint()? as u32)),
                b => return Err(ckpt::corrupt(format!("invalid space-key tag {b:#04x}"))),
            };
            spaces.insert(key, BookkeepingSpace::decode_from(r)?);
        }
        let order = OrderTracker::decode_from(r)?;
        let cross = CrossThreadTracker::decode_from(r)?;
        let epoch_count = r.count()?;
        let mut epochs = HashMap::new();
        for _ in 0..epoch_count {
            let tid = ThreadId(r.varint()? as u32);
            let fences = r.varint()? as u32;
            let logged_count = r.count()?;
            let mut logged = Vec::with_capacity(logged_count.min(4096));
            for _ in 0..logged_count {
                logged.push((r.varint()?, r.varint()?));
            }
            epochs.insert(tid, EpochState { fences, logged });
        }
        let report_count = r.count()?;
        let mut reports = Vec::with_capacity(report_count.min(4096));
        for _ in 0..report_count {
            reports.push(ckpt::decode_report(r)?);
        }
        let crash_residuals = match r.u8()? {
            0 => None,
            1 => {
                let count = r.count()?;
                let mut residuals = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    residuals.push((r.varint()?, r.varint()?));
                }
                Some(residuals)
            }
            b => {
                return Err(ckpt::corrupt(format!(
                    "invalid crash-residual tag {b:#04x}"
                )))
            }
        };
        let events_processed = r.varint()?;
        let strand_seen = r.bool()?;
        let malformed_events = r.varint()?;
        Ok(PmDebugger {
            config,
            spaces,
            stats_cache: RefCell::new(StatsCache::default()),
            order,
            cross,
            epochs,
            reports,
            custom_rules: Vec::new(),
            crash_residuals,
            events_processed,
            strand_seen,
            malformed_events,
            metrics: None,
        })
    }

    pub(crate) fn fork_state(&self) -> PmDebugger {
        PmDebugger {
            config: self.config.clone(),
            spaces: self.spaces.clone(),
            stats_cache: RefCell::new(StatsCache::default()),
            order: self.order.clone(),
            cross: self.cross.clone(),
            epochs: self.epochs.clone(),
            reports: self.reports.clone(),
            custom_rules: Vec::new(),
            crash_residuals: self.crash_residuals.clone(),
            events_processed: self.events_processed,
            strand_seen: self.strand_seen,
            malformed_events: self.malformed_events,
            metrics: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DebuggerConfig {
        &self.config
    }

    /// Reports accumulated so far (before `finish`).
    pub fn reports(&self) -> &[BugReport] {
        &self.reports
    }

    /// Aggregated bookkeeping statistics across all spaces.
    ///
    /// Incremental: each space's contribution is cached against its
    /// mutation version and re-absorbed only when the space changed, so
    /// polling after every event costs O(changed spaces) — in practice the
    /// one space the event touched — instead of a full recomputation.
    pub fn stats(&self) -> DebuggerStats {
        let mut cache = self.stats_cache.borrow_mut();
        let StatsCache { agg, per_space } = &mut *cache;
        for (key, space) in &self.spaces {
            let version = space.version();
            let entry = per_space.entry(*key).or_default();
            if entry.0 != version {
                agg.subtract(&entry.1);
                let mut fresh = DebuggerStats::default();
                fresh.absorb_space(space.stats(), space.tree_stats(), space.tree_len());
                agg.add(&fresh);
                *entry = (version, fresh);
            }
        }
        let mut out = *agg;
        out.events_processed = self.events_processed;
        out
    }

    /// Estimated heap bytes held by the detection state: every bookkeeping
    /// space plus the order/cross-thread/epoch trackers, per-rule dedup
    /// state and pending reports. Each space reports its size in O(1), so a
    /// call costs O(spaces) — the same profile as [`PmDebugger::stats`].
    pub fn tracked_bytes(&self) -> u64 {
        let spaces: u64 = self.spaces.values().map(|s| s.tracked_bytes()).sum();
        let epochs: u64 = self
            .epochs
            .values()
            .map(|e| {
                (std::mem::size_of::<EpochState>()
                    + e.logged.capacity() * std::mem::size_of::<(Addr, u64)>())
                    as u64
            })
            .sum();
        let reports = (self.reports.capacity() * std::mem::size_of::<BugReport>()) as u64
            + self
                .reports
                .iter()
                .map(|r| r.message.len() as u64)
                .sum::<u64>();
        let residuals = self
            .crash_residuals
            .as_ref()
            .map_or(0, |r| r.capacity() * std::mem::size_of::<(Addr, u64)>())
            as u64;
        spaces
            + self.order.tracked_bytes()
            + self.cross.tracked_bytes()
            + epochs
            + reports
            + residuals
    }

    fn space_key(&self, tid: ThreadId, strand: Option<StrandId>) -> SpaceKey {
        match strand {
            Some(s) if self.config.model == PersistencyModel::Strand => SpaceKey::Strand(s),
            _ => SpaceKey::Thread(tid),
        }
    }

    fn space_for(&mut self, tid: ThreadId, strand: Option<StrandId>) -> &mut BookkeepingSpace {
        let key = self.space_key(tid, strand);
        let (capacity, threshold) = (self.config.array_capacity, self.config.merge_threshold);
        self.spaces
            .entry(key)
            .or_insert_with(|| BookkeepingSpace::new(capacity, threshold))
    }

    fn strand_mode(&self) -> bool {
        self.config.model == PersistencyModel::Strand || self.strand_seen
    }

    fn handle_store(
        &mut self,
        seq: u64,
        addr: Addr,
        size: u64,
        tid: ThreadId,
        strand: Option<StrandId>,
        in_epoch: bool,
    ) {
        let check =
            self.config.rules.multiple_overwrites && self.config.model == PersistencyModel::Strict;
        let outcome = self
            .space_for(tid, strand)
            .on_store(addr, size, in_epoch, seq, check);
        if check && outcome.already_tracked {
            self.reports.push(
                BugReport::new(
                    BugKind::MultipleOverwrites,
                    "location written again before its durability was guaranteed",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
        self.order.on_store(addr, size, strand);
        if self.config.rules.cross_thread {
            self.cross.on_store(seq, addr, size, tid);
        }
    }

    /// A compare-and-swap. A successful CAS is a store to its target for
    /// regular durability bookkeeping, and a *publication point* for the
    /// cross-thread rules: the publish window starting at the installed
    /// value is probed for stores whose durability is not fenced. A failed
    /// CAS writes nothing and publishes nothing.
    fn handle_cas(
        &mut self,
        seq: u64,
        addr: Addr,
        size: u64,
        tid: ThreadId,
        new: u64,
        success: bool,
    ) {
        if success {
            self.handle_store(seq, addr, size, tid, None, false);
        }
        if self.config.rules.cross_thread {
            let reports = self.cross.on_cas(seq, addr, size, tid, new, success);
            self.reports.extend(reports);
        }
    }

    fn handle_flush(
        &mut self,
        seq: u64,
        addr: Addr,
        size: u64,
        tid: ThreadId,
        strand: Option<StrandId>,
    ) {
        let mut outcome = self.space_for(tid, strand).on_flush(addr, size);
        if !outcome.any_hit() && self.spaces.len() > 1 {
            // Cross-strand (Figure 7b) or cross-thread flush: the line may
            // be tracked by another space. Probed only on a local miss.
            let key = self.space_key(tid, strand);
            for (other_key, space) in self.spaces.iter_mut() {
                if *other_key == key {
                    continue;
                }
                let cross = space.on_flush(addr, size);
                outcome.newly_flushed += cross.newly_flushed;
                outcome.already_flushed += cross.already_flushed;
                if cross.any_hit() {
                    break;
                }
            }
        }

        if self.config.rules.redundant_flush
            && outcome.already_flushed > 0
            && outcome.newly_flushed == 0
        {
            self.reports.push(
                BugReport::new(
                    BugKind::RedundantFlushes,
                    "cache line flushed again before the nearest fence",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
        if self.config.rules.flush_nothing && !outcome.any_hit() {
            self.reports.push(
                BugReport::new(
                    BugKind::FlushNothing,
                    "flush does not persist any prior store",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }

        let strand_mode = self.strand_mode();
        let order_reports = self.order.on_flush(addr, size, strand, strand_mode, seq);
        if self.config.rules.lack_ordering_in_strands {
            self.reports.extend(order_reports);
        }
        if self.config.rules.cross_thread {
            self.cross.on_flush(addr, size, tid);
        }
    }

    fn handle_fence(&mut self, seq: u64, tid: ThreadId, strand: Option<StrandId>, in_epoch: bool) {
        self.space_for(tid, strand).on_fence();
        if in_epoch {
            if let Some(epoch) = self.epochs.get_mut(&tid) {
                epoch.fences += 1;
            }
        }
        let order_reports = self.order.on_fence_scoped(seq, strand);
        if self.config.rules.no_order {
            self.reports.extend(order_reports);
        }
        if self.config.rules.cross_thread {
            self.cross.on_fence(tid);
        }
    }

    fn handle_epoch_end(&mut self, seq: u64, tid: ThreadId) {
        let epoch = self.epochs.remove(&tid).unwrap_or_default();
        if self.config.rules.redundant_epoch_fence && epoch.fences > 1 {
            self.reports.push(
                BugReport::new(
                    BugKind::RedundantEpochFence,
                    format!(
                        "{} fences in one epoch section; one (at TX_END) suffices",
                        epoch.fences
                    ),
                )
                .with_event(seq),
            );
        }
        if self.config.rules.lack_durability_in_epoch {
            let mut residuals: Vec<_> = self
                .spaces
                .values()
                .filter(|s| s.has_epoch_entries())
                .flat_map(|s| s.residuals())
                .filter(|r| r.in_epoch)
                .collect();
            // Canonical order: reports at one event sort by address range,
            // so sequential and sharded runs emit identical lists.
            residuals.sort_by_key(|r| (r.addr, r.size, r.store_seq));
            for residual in residuals {
                self.reports.push(
                    BugReport::new(
                        BugKind::LackDurabilityInEpoch,
                        "location updated in the epoch is not durable at epoch end",
                    )
                    .with_range(residual.addr, residual.size)
                    .with_event(seq),
                );
            }
        }
        for space in self.spaces.values_mut() {
            space.clear_epoch_flags();
        }
    }

    fn handle_tx_log(&mut self, seq: u64, tid: ThreadId, addr: Addr, size: u64) {
        if !self.config.rules.redundant_logging {
            return;
        }
        let epoch = self.epochs.entry(tid).or_default();
        let already = epoch
            .logged
            .iter()
            .any(|(la, ll)| pm_trace::events::ranges_overlap(*la, *ll, addr, size));
        if already {
            self.reports.push(
                BugReport::new(
                    BugKind::RedundantLogging,
                    "object logged more than once in the same transaction",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        } else {
            epoch.logged.push((addr, size));
        }
    }

    fn handle_crash(&mut self) {
        let residuals: Vec<(Addr, u64)> = self
            .spaces
            .values()
            .flat_map(|s| s.residuals())
            .map(|r| (r.addr, r.size))
            .collect();
        self.crash_residuals = Some(residuals);
        for space in self.spaces.values_mut() {
            space.reset();
        }
    }

    fn handle_recovery_read(&mut self, seq: u64, addr: Addr, size: u64) {
        if !self.config.rules.cross_failure {
            return;
        }
        let Some(residuals) = &self.crash_residuals else {
            return;
        };
        let inconsistent = residuals
            .iter()
            .any(|(ra, rl)| pm_trace::events::ranges_overlap(*ra, *rl, addr, size));
        if inconsistent {
            self.reports.push(
                BugReport::new(
                    BugKind::CrossFailureSemantic,
                    "recovery reads data whose durability was not guaranteed at the failure point",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
    }

    /// Core event dispatch, shared verbatim by the owned
    /// ([`Detector::on_event`]) and borrowed ([`PmDebugger::on_event_ref`])
    /// paths: every handler takes scalars, and the two string-carrying
    /// variants reach the order tracker as `&str` either way.
    fn dispatch(&mut self, seq: u64, event: &PmEventRef<'_>) {
        match event {
            PmEventRef::Store {
                addr,
                size,
                tid,
                strand,
                in_epoch,
            } => self.handle_store(seq, *addr, u64::from(*size), *tid, *strand, *in_epoch),
            PmEventRef::Flush {
                addr,
                size,
                kind: _,
                tid,
                strand,
            } => self.handle_flush(seq, *addr, u64::from(*size), *tid, *strand),
            PmEventRef::Fence {
                kind,
                tid,
                strand,
                in_epoch,
            } => {
                // A persist barrier outside any strand is a malformed stream
                // (e.g. a perturbed torture trace); tolerate it — counting it
                // for diagnostics — rather than asserting, so adversarial
                // inputs degrade gracefully.
                if *kind == FenceKind::PersistBarrier && strand.is_none() && self.strand_seen {
                    self.malformed_events += 1;
                }
                self.handle_fence(seq, *tid, *strand, *in_epoch);
            }
            PmEventRef::EpochBegin { tid } => {
                self.epochs.insert(*tid, EpochState::default());
            }
            PmEventRef::EpochEnd { tid } => self.handle_epoch_end(seq, *tid),
            PmEventRef::StrandBegin { .. } => {
                self.strand_seen = true;
            }
            PmEventRef::StrandEnd { .. } => {}
            PmEventRef::JoinStrand { .. } => {
                // Explicit cross-strand ordering point: order all persists
                // issued so far (acts as a fence over every space).
                for space in self.spaces.values_mut() {
                    space.on_fence();
                }
                let order_reports = self.order.on_fence(seq);
                if self.config.rules.no_order {
                    self.reports.extend(order_reports);
                }
            }
            PmEventRef::TxLog {
                obj_addr,
                size,
                tid,
            } => self.handle_tx_log(seq, *tid, *obj_addr, u64::from(*size)),
            PmEventRef::FuncEnter { name, .. } => self.order.func_enter(name),
            PmEventRef::NameRange { name, addr, size } => {
                self.order.bind(name, *addr, u64::from(*size));
            }
            PmEventRef::Crash => self.handle_crash(),
            PmEventRef::RecoveryRead { addr, size } => {
                self.handle_recovery_read(seq, *addr, u64::from(*size));
            }
            PmEventRef::Cas {
                addr,
                size,
                tid,
                old: _,
                new,
                success,
            } => self.handle_cas(seq, *addr, u64::from(*size), *tid, *new, *success),
            PmEventRef::RegisterPmem { .. } | PmEventRef::Annotation(_) => {}
        }
    }

    /// Runs every registered custom rule over one event, crediting firings
    /// to the metrics registry when one is attached.
    fn run_custom_rules(&mut self, seq: u64, event: &PmEvent) {
        let view = SpaceView {
            spaces: &self.spaces,
        };
        let mut extra = Vec::new();
        for rule in &mut self.custom_rules {
            let fired = rule.on_event(seq, event, &view);
            if !fired.is_empty() {
                if let Some(metrics) = &self.metrics {
                    metrics
                        .registry
                        .counter(&format!("custom_rule.{}", rule.name()))
                        .add(fired.len() as u64);
                }
            }
            extra.extend(fired);
        }
        self.reports.extend(extra);
    }
}

impl Detector for PmDebugger {
    fn name(&self) -> &str {
        "pmdebugger"
    }

    fn on_event(&mut self, seq: u64, event: &PmEvent) {
        self.events_processed += 1;
        self.dispatch(seq, &event.as_ref());
        if !self.custom_rules.is_empty() {
            self.run_custom_rules(seq, event);
        }
    }

    fn finish(&mut self) -> Vec<BugReport> {
        if self.config.rules.no_durability {
            let mut residuals: Vec<_> = self.spaces.values().flat_map(|s| s.residuals()).collect();
            // Canonical order (originating store, then address range): makes
            // the end-of-run report list independent of space layout, so the
            // parallel merge can reproduce it exactly.
            residuals.sort_by_key(|r| (r.store_seq, r.addr, r.size));
            for residual in residuals {
                let (what, hint) = match residual.state {
                    crate::array::FlushState::Flushed => {
                        ("flushed but never fenced", "missing fence")
                    }
                    crate::array::FlushState::NotFlushed => {
                        ("never flushed", "missing CLWB/CLFLUSH")
                    }
                };
                self.reports.push(
                    BugReport::new(
                        BugKind::NoDurabilityGuarantee,
                        format!("location {what} at program end ({hint})"),
                    )
                    .with_range(residual.addr, residual.size)
                    .with_event(residual.store_seq),
                );
            }
        }
        if !self.custom_rules.is_empty() {
            let view = SpaceView {
                spaces: &self.spaces,
            };
            let mut extra = Vec::new();
            for rule in &mut self.custom_rules {
                let fired = rule.finish(&view);
                if !fired.is_empty() {
                    if let Some(metrics) = &self.metrics {
                        metrics
                            .registry
                            .counter(&format!("custom_rule.{}", rule.name()))
                            .add(fired.len() as u64);
                    }
                }
                extra.extend(fired);
            }
            self.reports.extend(extra);
        }
        if self.metrics.is_some() {
            // Computed before the mutable borrow of `self.metrics` below.
            let stats = self.stats();
            let events_processed = self.events_processed;
            let mut by_kind = ReportDigest::default();
            for report in &self.reports {
                by_kind.count(report);
            }
            if let Some(metrics) = self.metrics.as_mut() {
                for (kind, fired) in by_kind.kinds() {
                    let name = format!("rule.{}", kind.name());
                    metrics.registry.counter(&name).add(fired);
                }
                metrics
                    .events
                    .add(events_processed - metrics.events_exported);
                metrics.events_exported = events_processed;
                stats.export(&metrics.registry);
            }
        }
        std::mem::take(&mut self.reports)
    }

    fn malformed_events(&self) -> u64 {
        self.malformed_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::FlushKind;

    fn store(addr: Addr, size: u32) -> PmEvent {
        PmEvent::Store {
            addr,
            size,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn epoch_store(addr: Addr, size: u32) -> PmEvent {
        PmEvent::Store {
            addr,
            size,
            tid: ThreadId(0),
            strand: None,
            in_epoch: true,
        }
    }

    fn flush(addr: Addr) -> PmEvent {
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

    fn epoch_fence() -> PmEvent {
        PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: true,
        }
    }

    fn run(events: Vec<PmEvent>, mut debugger: PmDebugger) -> Vec<BugReport> {
        for (seq, event) in events.iter().enumerate() {
            debugger.on_event(seq as u64, event);
        }
        debugger.finish()
    }

    fn kinds(reports: &[BugReport]) -> Vec<BugKind> {
        reports.iter().map(|r| r.kind).collect()
    }

    #[test]
    fn clean_program_yields_no_reports() {
        let reports = run(vec![store(0, 8), flush(0), fence()], PmDebugger::strict());
        assert!(reports.is_empty(), "unexpected: {reports:?}");
    }

    #[test]
    fn missing_flush_reported_at_end() {
        let reports = run(vec![store(0, 8), fence()], PmDebugger::strict());
        assert_eq!(kinds(&reports), vec![BugKind::NoDurabilityGuarantee]);
        assert!(reports[0].message.contains("CLWB"));
    }

    #[test]
    fn missing_fence_reported_at_end() {
        let reports = run(vec![store(0, 8), flush(0)], PmDebugger::strict());
        assert_eq!(kinds(&reports), vec![BugKind::NoDurabilityGuarantee]);
        assert!(reports[0].message.contains("fence"));
    }

    #[test]
    fn multiple_overwrites_reported_in_strict_only() {
        let events = vec![store(0, 8), store(0, 8), flush(0), fence()];
        let strict = run(events.clone(), PmDebugger::strict());
        assert!(kinds(&strict).contains(&BugKind::MultipleOverwrites));
        let epoch = run(events, PmDebugger::epoch());
        assert!(!kinds(&epoch).contains(&BugKind::MultipleOverwrites));
    }

    #[test]
    fn redundant_flush_reported() {
        let reports = run(
            vec![store(0, 8), flush(0), flush(0), fence()],
            PmDebugger::strict(),
        );
        assert_eq!(kinds(&reports), vec![BugKind::RedundantFlushes]);
    }

    #[test]
    fn flush_nothing_reported() {
        let reports = run(
            vec![store(0, 8), flush(0), flush(128), fence()],
            PmDebugger::strict(),
        );
        assert_eq!(kinds(&reports), vec![BugKind::FlushNothing]);
    }

    #[test]
    fn flush_after_fence_is_flush_nothing() {
        let reports = run(
            vec![store(0, 8), flush(0), fence(), flush(0), fence()],
            PmDebugger::strict(),
        );
        assert_eq!(kinds(&reports), vec![BugKind::FlushNothing]);
    }

    #[test]
    fn order_violation_detected_via_spec() {
        let mut spec = pm_trace::OrderSpec::new();
        spec.add_rule("value", "key", None);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict).with_order_spec(spec);
        let events = vec![
            PmEvent::NameRange {
                name: "value".into(),
                addr: 0,
                size: 8,
            },
            PmEvent::NameRange {
                name: "key".into(),
                addr: 64,
                size: 8,
            },
            store(0, 8),  // write value (never persisted)
            store(64, 8), // write key
            flush(64),
            fence(), // key durable before value
            flush(0),
            fence(),
        ];
        let reports = run(events, PmDebugger::new(config));
        assert!(kinds(&reports).contains(&BugKind::NoOrderGuarantee));
    }

    #[test]
    fn redundant_epoch_fence_needs_more_than_one() {
        // One in-epoch fence (the TX_END one): fine.
        let one = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            epoch_store(0, 8),
            flush(0),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(one, PmDebugger::epoch());
        assert!(!kinds(&reports).contains(&BugKind::RedundantEpochFence));

        // Two in-epoch fences (Figure 7a): redundant.
        let two = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            epoch_store(0, 8),
            flush(0),
            epoch_fence(),
            epoch_store(64, 8),
            flush(64),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(two, PmDebugger::epoch());
        assert!(kinds(&reports).contains(&BugKind::RedundantEpochFence));
    }

    #[test]
    fn lack_durability_in_epoch_detected() {
        // Figure 7c: A written in epoch, only B flushed.
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            epoch_store(0, 8),  // A, never flushed
            epoch_store(64, 8), // B
            flush(64),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(events, PmDebugger::epoch());
        let lack: Vec<_> = reports
            .iter()
            .filter(|r| r.kind == BugKind::LackDurabilityInEpoch)
            .collect();
        assert_eq!(lack.len(), 1);
        assert_eq!(lack[0].addr, Some(0));
    }

    #[test]
    fn epoch_flags_do_not_leak_into_next_epoch() {
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            epoch_store(0, 8), // left undurable
            PmEvent::EpochEnd { tid: ThreadId(0) },
            PmEvent::EpochBegin { tid: ThreadId(0) },
            epoch_store(64, 8),
            flush(64),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(events, PmDebugger::epoch());
        let lack_count = reports
            .iter()
            .filter(|r| r.kind == BugKind::LackDurabilityInEpoch)
            .count();
        assert_eq!(lack_count, 1, "first epoch's leak must not re-report");
    }

    #[test]
    fn redundant_logging_detected() {
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::TxLog {
                obj_addr: 0,
                size: 8,
                tid: ThreadId(0),
            },
            PmEvent::TxLog {
                obj_addr: 0,
                size: 8,
                tid: ThreadId(0),
            },
            epoch_store(0, 8),
            flush(0),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(events, PmDebugger::epoch());
        assert!(kinds(&reports).contains(&BugKind::RedundantLogging));
    }

    #[test]
    fn logging_once_per_transaction_is_fine() {
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::TxLog {
                obj_addr: 0,
                size: 8,
                tid: ThreadId(0),
            },
            epoch_store(0, 8),
            flush(0),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
            // New transaction: logging the same object again is fine.
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::TxLog {
                obj_addr: 0,
                size: 8,
                tid: ThreadId(0),
            },
            epoch_store(0, 8),
            flush(0),
            epoch_fence(),
            PmEvent::EpochEnd { tid: ThreadId(0) },
        ];
        let reports = run(events, PmDebugger::epoch());
        assert!(!kinds(&reports).contains(&BugKind::RedundantLogging));
    }

    #[test]
    fn strand_spaces_are_independent() {
        // Store in strand 0 unflushed; persist barrier in strand 1 must not
        // persist it.
        let events = vec![
            PmEvent::StrandBegin {
                strand: StrandId(0),
                tid: ThreadId(0),
            },
            PmEvent::Store {
                addr: 0,
                size: 8,
                tid: ThreadId(0),
                strand: Some(StrandId(0)),
                in_epoch: false,
            },
            PmEvent::StrandEnd {
                strand: StrandId(0),
                tid: ThreadId(0),
            },
            PmEvent::StrandBegin {
                strand: StrandId(1),
                tid: ThreadId(0),
            },
            PmEvent::Fence {
                kind: FenceKind::PersistBarrier,
                tid: ThreadId(0),
                strand: Some(StrandId(1)),
                in_epoch: false,
            },
            PmEvent::StrandEnd {
                strand: StrandId(1),
                tid: ThreadId(0),
            },
        ];
        let reports = run(events, PmDebugger::strand());
        assert_eq!(kinds(&reports), vec![BugKind::NoDurabilityGuarantee]);
    }

    #[test]
    fn cross_strand_flush_reports_lack_ordering() {
        // Figure 7b: order requires A before B; strand 1 persists B while A
        // is still volatile.
        let mut spec = pm_trace::OrderSpec::new();
        spec.add_rule("A", "B", None);
        let config = DebuggerConfig::for_model(PersistencyModel::Strand).with_order_spec(spec);
        let events = vec![
            PmEvent::NameRange {
                name: "A".into(),
                addr: 0,
                size: 8,
            },
            PmEvent::NameRange {
                name: "B".into(),
                addr: 64,
                size: 8,
            },
            PmEvent::StrandBegin {
                strand: StrandId(0),
                tid: ThreadId(0),
            },
            PmEvent::Store {
                addr: 0,
                size: 8,
                tid: ThreadId(0),
                strand: Some(StrandId(0)),
                in_epoch: false,
            },
            PmEvent::Store {
                addr: 64,
                size: 8,
                tid: ThreadId(0),
                strand: Some(StrandId(0)),
                in_epoch: false,
            },
            PmEvent::StrandEnd {
                strand: StrandId(0),
                tid: ThreadId(0),
            },
            PmEvent::StrandBegin {
                strand: StrandId(1),
                tid: ThreadId(0),
            },
            // Strand 1 flushes B before A is durable.
            PmEvent::Flush {
                kind: FlushKind::Clwb,
                addr: 64,
                size: 64,
                tid: ThreadId(0),
                strand: Some(StrandId(1)),
            },
            PmEvent::Fence {
                kind: FenceKind::PersistBarrier,
                tid: ThreadId(0),
                strand: Some(StrandId(1)),
                in_epoch: false,
            },
            PmEvent::StrandEnd {
                strand: StrandId(1),
                tid: ThreadId(0),
            },
        ];
        let reports = run(events, PmDebugger::new(config));
        assert!(kinds(&reports).contains(&BugKind::LackOrderingInStrands));
    }

    #[test]
    fn cross_failure_read_of_lost_data_reported() {
        let events = vec![
            store(0, 8),
            flush(0),
            fence(),      // durable
            store(64, 8), // volatile at crash
            PmEvent::Crash,
            PmEvent::RecoveryRead { addr: 0, size: 8 }, // fine
            PmEvent::RecoveryRead { addr: 64, size: 8 }, // inconsistent
        ];
        let reports = run(events, PmDebugger::strict());
        assert_eq!(kinds(&reports), vec![BugKind::CrossFailureSemantic]);
        assert_eq!(reports[0].addr, Some(64));
    }

    #[test]
    fn custom_rule_runs_over_stream() {
        struct FenceBudget {
            fences: u64,
            budget: u64,
        }
        impl CustomRule for FenceBudget {
            fn name(&self) -> &str {
                "fence-budget"
            }
            fn on_event(
                &mut self,
                seq: u64,
                event: &PmEvent,
                _view: &SpaceView<'_>,
            ) -> Vec<BugReport> {
                if matches!(event, PmEvent::Fence { .. }) {
                    self.fences += 1;
                    if self.fences > self.budget {
                        return vec![BugReport::new(
                            BugKind::RedundantFlushes,
                            "fence budget exceeded",
                        )
                        .with_event(seq)];
                    }
                }
                Vec::new()
            }
        }
        let mut debugger = PmDebugger::strict();
        debugger.add_custom_rule(Box::new(FenceBudget {
            fences: 0,
            budget: 1,
        }));
        let reports = run(vec![store(0, 8), flush(0), fence(), fence()], debugger);
        assert!(reports.iter().any(|r| r.message.contains("fence budget")));
    }

    #[test]
    fn metrics_count_events_rules_and_bookkeeping() {
        let registry = pm_obs::MetricsRegistry::new();
        let mut debugger = PmDebugger::with_metrics(
            DebuggerConfig::for_model(PersistencyModel::Strict),
            &registry,
        );
        // One never-persisted store and one redundant flush.
        let events = [store(0, 8), store(64, 8), flush(64), flush(64), fence()];
        for (seq, event) in events.iter().enumerate() {
            debugger.on_event(seq as u64, event);
        }
        let reports = debugger.finish();
        assert_eq!(reports.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.events"), events.len() as u64);
        assert_eq!(snap.counter("rule.no-durability-guarantee"), 1);
        assert_eq!(snap.counter("rule.redundant-flushes"), 1);
        assert_eq!(
            snap.counter("bookkeeping.events_processed"),
            events.len() as u64
        );
        assert!(snap.counter("bookkeeping.array_stores") > 0);
    }

    #[test]
    fn metrics_count_custom_rule_firings() {
        struct EveryFence;
        impl CustomRule for EveryFence {
            fn name(&self) -> &str {
                "every-fence"
            }
            fn on_event(
                &mut self,
                seq: u64,
                event: &PmEvent,
                _view: &SpaceView<'_>,
            ) -> Vec<BugReport> {
                if matches!(event, PmEvent::Fence { .. }) {
                    vec![BugReport::new(BugKind::RedundantFlushes, "fence seen").with_event(seq)]
                } else {
                    Vec::new()
                }
            }
        }
        let registry = pm_obs::MetricsRegistry::new();
        let mut debugger = PmDebugger::with_metrics(
            DebuggerConfig::for_model(PersistencyModel::Strict),
            &registry,
        );
        debugger.add_custom_rule(Box::new(EveryFence));
        let _ = run(vec![store(0, 8), flush(0), fence(), fence()], debugger);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("custom_rule.every-fence"), 2);
    }

    #[test]
    fn ref_stream_reports_match_owned_stream_reports() {
        // A stream firing several rules (multiple-overwrites, redundant
        // flush, no-order via named ranges, end-of-run durability): the
        // borrowed path must reproduce the owned path's report list and
        // counters exactly.
        let mut spec = pm_trace::OrderSpec::new();
        spec.add_rule("value", "key", None);
        let config = DebuggerConfig::for_model(PersistencyModel::Strict).with_order_spec(spec);
        let events = vec![
            PmEvent::NameRange {
                name: "value".into(),
                addr: 0,
                size: 8,
            },
            PmEvent::NameRange {
                name: "key".into(),
                addr: 64,
                size: 8,
            },
            PmEvent::FuncEnter {
                name: "insert".into(),
                tid: ThreadId(0),
            },
            store(0, 8),
            store(0, 8), // multiple overwrites
            store(64, 8),
            flush(64),
            fence(), // key durable before value: no-order
            flush(0),
            flush(0), // redundant flush
            fence(),
            store(128, 8), // left undurable
        ];
        let mut owned = PmDebugger::new(config.clone());
        let owned_reports = owned.detect_stream(&events);
        let mut borrowed = PmDebugger::new(config);
        let ref_reports = borrowed.detect_stream_ref(events.iter().map(|e| e.as_ref()));
        assert_eq!(owned_reports, ref_reports);
        assert!(!owned_reports.is_empty());
        assert_eq!(owned.events_processed, borrowed.events_processed);
        assert_eq!(owned.malformed_events(), borrowed.malformed_events());
    }

    #[test]
    fn custom_rules_fire_on_the_ref_path() {
        struct EveryFence;
        impl CustomRule for EveryFence {
            fn name(&self) -> &str {
                "every-fence"
            }
            fn on_event(
                &mut self,
                seq: u64,
                event: &PmEvent,
                _view: &SpaceView<'_>,
            ) -> Vec<BugReport> {
                if matches!(event, PmEvent::Fence { .. }) {
                    vec![BugReport::new(BugKind::RedundantFlushes, "fence seen").with_event(seq)]
                } else {
                    Vec::new()
                }
            }
        }
        let events = [store(0, 8), flush(0), fence(), fence()];
        let mut debugger = PmDebugger::strict();
        debugger.add_custom_rule(Box::new(EveryFence));
        let reports = debugger.detect_stream_ref(events.iter().map(|e| e.as_ref()));
        assert_eq!(
            reports
                .iter()
                .filter(|r| r.message.contains("fence seen"))
                .count(),
            2
        );
    }

    #[test]
    fn stats_aggregate_spaces() {
        let mut debugger = PmDebugger::strict();
        for (seq, event) in [store(0, 8), flush(0), fence()].iter().enumerate() {
            debugger.on_event(seq as u64, event);
        }
        let stats = debugger.stats();
        assert_eq!(stats.events_processed, 3);
        assert_eq!(stats.fence_intervals, 1);
    }
}
