//! Recovery validators and the trace semantic fingerprint.
//!
//! A crash image is *unrecoverable* when it contradicts a durability
//! contract the program already relied on. Three contracts are checked,
//! matched to the persistency model of the workload that produced the
//! trace:
//!
//! * **Strict overwrite** ([`StrictOverwriteValidator`]) — once a cache
//!   line has been made durable, re-writing it and then crossing a fence
//!   without re-persisting it leaves recovery reading stale bytes while
//!   later (already-fenced) state references the new ones. This is exactly
//!   the memcached `ITEM_set_cas` bug shape (Figure 9a).
//! * **Epoch commit** ([`EpochCommitValidator`]) — everything stored inside
//!   a `TX_BEGIN`/`TX_END` epoch must be durable at `TX_END`; afterwards
//!   every reachable crash image must contain those bytes. This is the PMDK
//!   `array` lack-of-durability shape (Figure 9c).
//! * **Undo-log discipline** ([`TxLogValidator`]) — a logged object may not
//!   be modified before its undo-log record has at least been flushed,
//!   otherwise a mid-epoch crash can persist the modification with no log
//!   record to roll it back.
//!
//! [`semantic_fingerprint`] condenses a trace's persistence behaviour into
//! a comparable value: the differential oracle calls a perturbation benign
//! exactly when every line the perturbed trace stores keeps its fate
//! ([`Fingerprint::same_fate`]).

use std::collections::{BTreeMap, HashMap, HashSet};

use pm_trace::{PmEvent, Trace};
use pmem_sim::{line_base, lines_covering, CrashImage, CACHE_LINE_SIZE};

use crate::replay::ReplayContext;

/// One recovery-contract violation found in a crash image (or, for
/// event-time checks, at a replay position).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Validator that raised it.
    pub validator: &'static str,
    /// Original (workload-space) address of the violated range.
    pub addr: u64,
    /// Range length in bytes.
    pub size: u64,
    /// Human-readable description.
    pub detail: String,
}

/// A per-workload recovery contract checked against crash images.
///
/// `on_event` observes the replay (after the event is applied to the pool)
/// and may raise event-time violations; `check` inspects one post-crash
/// image at the current replay position.
pub trait RecoveryValidator {
    /// Validator name, used in reports.
    fn name(&self) -> &'static str;

    /// Observes one replayed event; returns event-time violations.
    fn on_event(&mut self, seq: u64, event: &PmEvent, ctx: &ReplayContext) -> Vec<Violation>;

    /// Checks one crash image at the current replay position.
    fn check(&self, image: &CrashImage, ctx: &ReplayContext) -> Vec<Violation>;
}

/// Per-line tracking for the strict-overwrite contract.
#[derive(Debug, Default, Clone)]
struct LineTrack {
    /// The line has been durable at least once.
    durable_once: bool,
    /// Sequence of the store that re-dirtied the durable line, if any.
    rearmed_at: Option<u64>,
    /// A flush covering the line happened after the re-dirtying store.
    flushed_since: bool,
    /// Sequence of the first fence that passed with the re-dirtied line
    /// still unflushed — the start of the unrecoverable window.
    violated_at: Option<u64>,
}

/// Strict-model contract: a durable line that is re-written must be
/// re-persisted before the next fence (the publish point).
#[derive(Debug, Default)]
pub struct StrictOverwriteValidator {
    lines: HashMap<u64, LineTrack>,
    /// Lines flushed since the last fence (the simulated WPQ).
    wpq: HashSet<u64>,
}

impl StrictOverwriteValidator {
    /// Creates the validator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RecoveryValidator for StrictOverwriteValidator {
    fn name(&self) -> &'static str {
        "strict-overwrite"
    }

    fn on_event(&mut self, seq: u64, event: &PmEvent, ctx: &ReplayContext) -> Vec<Violation> {
        match event {
            PmEvent::Store { addr, size, .. } => {
                for line in lines_covering(*addr, u64::from(*size).max(1) as usize) {
                    let Some(mapped) = ctx.map().mapped_line(line) else {
                        continue;
                    };
                    let track = self.lines.entry(mapped).or_default();
                    if track.durable_once && track.rearmed_at.is_none() {
                        track.rearmed_at = Some(seq);
                        track.flushed_since = false;
                    }
                    // A store drops any WPQ entry for the line (the cache
                    // model re-dirties it), so it must be re-flushed.
                    self.wpq.remove(&mapped);
                }
            }
            PmEvent::Flush { addr, size, .. } => {
                for line in lines_covering(*addr, u64::from(*size).max(1) as usize) {
                    let Some(mapped) = ctx.map().mapped_line(line) else {
                        continue;
                    };
                    // Only lines with content actually reach the WPQ.
                    if ctx.pool().line_state(mapped) == Some(pmem_sim::LineState::Pending) {
                        self.wpq.insert(mapped);
                    }
                    if let Some(track) = self.lines.get_mut(&mapped) {
                        if track.rearmed_at.is_some() {
                            track.flushed_since = true;
                        }
                    }
                }
            }
            PmEvent::Fence { .. } | PmEvent::JoinStrand { .. } => {
                for mapped in self.wpq.drain() {
                    self.lines.entry(mapped).or_default().durable_once = true;
                }
                for track in self.lines.values_mut() {
                    if track.rearmed_at.is_some() {
                        if track.flushed_since {
                            // Re-persisted in time: contract upheld.
                            track.rearmed_at = None;
                            track.flushed_since = false;
                            track.violated_at = None;
                        } else {
                            track.violated_at.get_or_insert(seq);
                        }
                    }
                }
            }
            _ => {}
        }
        Vec::new()
    }

    fn check(&self, image: &CrashImage, ctx: &ReplayContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for (&mapped, track) in &self.lines {
            let Some(fence_seq) = track.violated_at else {
                continue;
            };
            let volatile = ctx.pool().load(mapped, CACHE_LINE_SIZE as usize).ok();
            let imaged = image.try_read(mapped, CACHE_LINE_SIZE as usize);
            if let (Some(volatile), Some(imaged)) = (volatile, imaged) {
                if volatile != imaged {
                    out.push(Violation {
                        validator: self.name(),
                        addr: ctx.map().origin_of(mapped),
                        size: CACHE_LINE_SIZE,
                        detail: format!(
                            "durable line re-written then left unflushed across the fence at \
                             event {fence_seq}; recovery would read the stale bytes"
                        ),
                    });
                }
            }
        }
        out
    }
}

/// One epoch-end durability commitment.
#[derive(Debug, Clone)]
struct Commitment {
    /// Original range.
    addr: u64,
    size: u64,
    /// Sequence of the `EpochEnd` that committed it.
    committed_at: u64,
    /// Expected bytes per mapped segment: `(mapped_addr, bytes)`.
    expected: Vec<(u64, Vec<u8>)>,
    /// Cleared when a later store overwrites the range (the new value is
    /// governed by its own epoch's commitment).
    active: bool,
}

/// Epoch-model contract: everything stored in an epoch is durable at its
/// end and must appear in every later crash image.
#[derive(Debug, Default)]
pub struct EpochCommitValidator {
    /// Ranges stored in the currently open epoch, per thread.
    open: HashMap<u32, Vec<(u64, u64)>>,
    commitments: Vec<Commitment>,
}

impl EpochCommitValidator {
    /// Creates the validator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RecoveryValidator for EpochCommitValidator {
    fn name(&self) -> &'static str {
        "epoch-commit"
    }

    fn on_event(&mut self, seq: u64, event: &PmEvent, ctx: &ReplayContext) -> Vec<Violation> {
        match event {
            PmEvent::EpochBegin { tid } => {
                self.open.insert(tid.0, Vec::new());
            }
            PmEvent::Store {
                addr,
                size,
                tid,
                in_epoch,
                ..
            } => {
                let (addr, size) = (*addr, u64::from(*size));
                if *in_epoch {
                    if let Some(ranges) = self.open.get_mut(&tid.0) {
                        ranges.push((addr, size));
                    }
                }
                // Overwriting a committed range supersedes the old
                // commitment; the new bytes answer to their own epoch.
                for commitment in &mut self.commitments {
                    if commitment.active
                        && pm_trace::events::ranges_overlap(
                            commitment.addr,
                            commitment.size,
                            addr,
                            size,
                        )
                    {
                        commitment.active = false;
                    }
                }
            }
            PmEvent::EpochEnd { tid } => {
                let Some(ranges) = self.open.remove(&tid.0) else {
                    return Vec::new();
                };
                // Deduplicate exact repeats (e.g. a log slot written twice).
                let mut seen = HashSet::new();
                for (addr, size) in ranges {
                    if !seen.insert((addr, size)) {
                        continue;
                    }
                    let expected = ctx
                        .map()
                        .segments(addr, size)
                        .into_iter()
                        .map(|segment| {
                            let bytes = ctx
                                .pool()
                                .load(segment.mapped_addr, segment.len as usize)
                                .map(<[u8]>::to_vec)
                                .unwrap_or_default();
                            (segment.mapped_addr, bytes)
                        })
                        .collect();
                    self.commitments.push(Commitment {
                        addr,
                        size,
                        committed_at: seq,
                        expected,
                        active: true,
                    });
                }
            }
            _ => {}
        }
        Vec::new()
    }

    fn check(&self, image: &CrashImage, _ctx: &ReplayContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for commitment in self.commitments.iter().filter(|c| c.active) {
            let intact = commitment.expected.iter().all(|(mapped, bytes)| {
                image
                    .try_read(*mapped, bytes.len())
                    .is_some_and(|got| got == bytes)
            });
            if !intact {
                out.push(Violation {
                    validator: "epoch-commit",
                    addr: commitment.addr,
                    size: commitment.size,
                    detail: format!(
                        "range committed at epoch end (event {}) is missing from the crash image",
                        commitment.committed_at
                    ),
                });
            }
        }
        out
    }
}

/// A `TxLog` record awaiting its object's first modification.
#[derive(Debug)]
struct PendingLog {
    obj_addr: u64,
    obj_size: u64,
    logged_at: u64,
    /// Mapped lines holding the undo-log record bytes.
    record_lines: Vec<u64>,
}

/// Undo-log write-ahead discipline: the log record must be flushed before
/// the logged object is modified.
#[derive(Debug, Default)]
pub struct TxLogValidator {
    pending: Vec<PendingLog>,
}

impl TxLogValidator {
    /// Creates the validator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RecoveryValidator for TxLogValidator {
    fn name(&self) -> &'static str {
        "tx-log"
    }

    fn on_event(&mut self, seq: u64, event: &PmEvent, ctx: &ReplayContext) -> Vec<Violation> {
        match event {
            PmEvent::TxLog { obj_addr, size, .. } => {
                self.pending.push(PendingLog {
                    obj_addr: *obj_addr,
                    obj_size: u64::from(*size),
                    logged_at: seq,
                    record_lines: Vec::new(),
                });
            }
            PmEvent::Store { addr, size, .. } => {
                let (addr, size) = (*addr, u64::from(*size));
                let mut violations = Vec::new();
                self.pending.retain(|pending| {
                    if !pm_trace::events::ranges_overlap(
                        pending.obj_addr,
                        pending.obj_size,
                        addr,
                        size,
                    ) {
                        return true;
                    }
                    // First modification of the logged object: the record
                    // must already be at least flushed (Pending/Persisted).
                    let dirty = pending.record_lines.iter().any(|mapped| {
                        ctx.pool().line_state(*mapped) == Some(pmem_sim::LineState::Dirty)
                    });
                    if dirty {
                        violations.push(Violation {
                            validator: "tx-log",
                            addr: pending.obj_addr,
                            size: pending.obj_size,
                            detail: format!(
                                "object logged at event {} modified before its undo-log record \
                                 was flushed; a mid-epoch crash could persist the change with no \
                                 record to roll it back",
                                pending.logged_at
                            ),
                        });
                    }
                    false
                });
                // Stores not aimed at a logged object are (part of) the most
                // recent record's bytes.
                if violations.is_empty() {
                    if let Some(pending) = self.pending.last_mut() {
                        for line in lines_covering(addr, size.max(1) as usize) {
                            if let Some(mapped) = ctx.map().mapped_line(line) {
                                pending.record_lines.push(mapped);
                            }
                        }
                    }
                }
                return violations;
            }
            PmEvent::EpochEnd { .. } => {
                // Objects logged but never modified carry no obligation.
                self.pending.clear();
            }
            _ => {}
        }
        Vec::new()
    }

    fn check(&self, _image: &CrashImage, _ctx: &ReplayContext) -> Vec<Violation> {
        Vec::new()
    }
}

/// The validator stack for one campaign.
pub struct ValidatorSet {
    validators: Vec<Box<dyn RecoveryValidator>>,
}

impl ValidatorSet {
    /// Validators matched to a persistency model (by [`pmdebugger`] name):
    /// strict → overwrite contract; epoch → epoch-commit + undo-log
    /// discipline; strand → none (strand recovery contracts are encoded in
    /// order specs, which the detector side already checks).
    pub fn for_model(model: pmdebugger::PersistencyModel) -> ValidatorSet {
        use pmdebugger::PersistencyModel as M;
        let validators: Vec<Box<dyn RecoveryValidator>> = match model {
            M::Strict => vec![Box::new(StrictOverwriteValidator::new())],
            M::Epoch => vec![
                Box::new(EpochCommitValidator::new()),
                Box::new(TxLogValidator::new()),
            ],
            M::Strand => Vec::new(),
        };
        ValidatorSet { validators }
    }

    /// An explicit validator stack.
    pub fn from_validators(validators: Vec<Box<dyn RecoveryValidator>>) -> ValidatorSet {
        ValidatorSet { validators }
    }

    /// Number of validators in the stack.
    pub fn len(&self) -> usize {
        self.validators.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.validators.is_empty()
    }

    pub(crate) fn on_event(
        &mut self,
        seq: u64,
        event: &PmEvent,
        ctx: &ReplayContext,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for validator in &mut self.validators {
            out.extend(validator.on_event(seq, event, ctx));
        }
        out
    }

    pub(crate) fn check(&self, image: &CrashImage, ctx: &ReplayContext) -> Vec<Violation> {
        let mut out = Vec::new();
        for validator in &self.validators {
            out.extend(validator.check(image, ctx));
        }
        out
    }
}

impl std::fmt::Debug for ValidatorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ValidatorSet")
            .field(
                "validators",
                &self.validators.iter().map(|v| v.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// End state of one cache line in the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LineEnd {
    Dirty,
    Pending,
    Persisted,
}

/// Per-line persistence fate: what is durable, what was written last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineFate {
    end: LineEnd,
    /// Store ordinal (count of `Store` events, stable across flush/fence
    /// perturbations) whose bytes are durable, if any.
    durable_ord: Option<u64>,
    /// Store ordinal of the last write to the line.
    last_ord: u64,
}

/// Line-granular persistence semantics of a whole trace.
///
/// Two traces with equal fingerprints leave recovery in the same position:
/// the same line contents are durable, the same lines are in flight, and
/// the same epoch-end durability obligations were met. Perturbations that
/// preserve the fingerprint are *benign* for the differential oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    lines: BTreeMap<u64, (u8, Option<u64>, u64)>,
    /// Per epoch (in completion order): lines stored in the epoch whose
    /// content was not durable at epoch end.
    epoch_residuals: Vec<Vec<u64>>,
}

impl Fingerprint {
    /// Whether a `mutated` trace leaves recovery where this one does. Only
    /// the lines the mutated trace stores are compared: a line it never
    /// stores (the cut-off half of a torn store) has no fate there to
    /// differ, and no detector can flag a store that never happened.
    pub fn same_fate(&self, mutated: &Fingerprint) -> bool {
        self.epoch_residuals == mutated.epoch_residuals
            && mutated
                .lines
                .iter()
                .all(|(line, fate)| self.lines.get(line) == Some(fate))
    }
}

/// Computes the [`Fingerprint`] of a trace.
pub fn semantic_fingerprint(trace: &Trace) -> Fingerprint {
    let mut lines: BTreeMap<u64, LineFate> = BTreeMap::new();
    let mut store_ord = 0u64;
    let mut open_epochs: HashMap<u32, HashSet<u64>> = HashMap::new();
    let mut epoch_residuals = Vec::new();

    for event in trace.events() {
        match event {
            PmEvent::Store {
                addr,
                size,
                tid,
                in_epoch,
                ..
            } => {
                store_ord += 1;
                for line in lines_covering(*addr, u64::from(*size).max(1) as usize) {
                    let fate = lines.entry(line).or_insert(LineFate {
                        end: LineEnd::Dirty,
                        durable_ord: None,
                        last_ord: store_ord,
                    });
                    fate.end = LineEnd::Dirty;
                    fate.last_ord = store_ord;
                    if *in_epoch {
                        if let Some(open) = open_epochs.get_mut(&tid.0) {
                            open.insert(line);
                        }
                    }
                }
            }
            PmEvent::Flush { addr, size, .. } => {
                for line in lines_covering(*addr, u64::from(*size).max(1) as usize) {
                    if let Some(fate) = lines.get_mut(&line) {
                        if fate.end == LineEnd::Dirty {
                            fate.end = LineEnd::Pending;
                        }
                    }
                }
            }
            PmEvent::Fence { .. } | PmEvent::JoinStrand { .. } => {
                for fate in lines.values_mut() {
                    if fate.end == LineEnd::Pending {
                        fate.end = LineEnd::Persisted;
                        fate.durable_ord = Some(fate.last_ord);
                    }
                }
            }
            PmEvent::EpochBegin { tid } => {
                open_epochs.insert(tid.0, HashSet::new());
            }
            PmEvent::EpochEnd { tid } => {
                if let Some(open) = open_epochs.remove(&tid.0) {
                    let mut residual: Vec<u64> = open
                        .into_iter()
                        .filter(|line| {
                            lines
                                .get(line)
                                .map(|f| f.durable_ord != Some(f.last_ord))
                                .unwrap_or(true)
                        })
                        .collect();
                    residual.sort_unstable();
                    epoch_residuals.push(residual);
                }
            }
            _ => {}
        }
    }

    Fingerprint {
        lines: lines
            .into_iter()
            .map(|(line, fate)| {
                let state = match fate.end {
                    LineEnd::Dirty => 1u8,
                    LineEnd::Pending => 2,
                    LineEnd::Persisted => 3,
                };
                (line_base(line), (state, fate.durable_ord, fate.last_ord))
            })
            .collect(),
        epoch_residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::PmRuntime;
    use pmem_sim::FlushKind;

    fn clean_op_trace(ops: usize) -> Trace {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        for i in 0..ops {
            let addr = 4096 + (i as u64) * 64;
            rt.store_untyped(addr, 8);
            rt.flush_range(FlushKind::Clwb, addr, 8).unwrap();
            rt.sfence();
        }
        rt.try_take_trace().unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let a = semantic_fingerprint(&clean_op_trace(4));
        let b = semantic_fingerprint(&clean_op_trace(4));
        assert_eq!(a, b);
        let c = semantic_fingerprint(&clean_op_trace(5));
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_distinguishes_durable_from_inflight() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(0, 8);
        rt.flush_range(FlushKind::Clwb, 0, 8).unwrap();
        let pending = semantic_fingerprint(&rt.try_take_trace().unwrap());

        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(0, 8);
        rt.flush_range(FlushKind::Clwb, 0, 8).unwrap();
        rt.sfence();
        let durable = semantic_fingerprint(&rt.try_take_trace().unwrap());
        assert_ne!(pending, durable);
    }

    #[test]
    fn fingerprint_records_epoch_residuals() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.epoch_begin();
        rt.store_untyped(128, 8);
        rt.sfence();
        rt.epoch_end().unwrap();
        let fp = semantic_fingerprint(&rt.try_take_trace().unwrap());
        // Stored in the epoch but never flushed: a residual.
        assert_eq!(fp.epoch_residuals, vec![vec![128]]);
    }

    #[test]
    fn validator_set_matches_models() {
        use pmdebugger::PersistencyModel as M;
        assert_eq!(ValidatorSet::for_model(M::Strict).len(), 1);
        assert_eq!(ValidatorSet::for_model(M::Epoch).len(), 2);
        assert!(ValidatorSet::for_model(M::Strand).is_empty());
    }
}
