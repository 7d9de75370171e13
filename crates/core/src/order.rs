//! Persist-order tracking for the no-order-guarantee and
//! lack-ordering-in-strands rules (paper §4.5, §5.2), plus cross-thread
//! persistency ordering at CAS publication points
//! ([`CrossThreadTracker`]).
//!
//! Order requirements come from the configuration file ([`pm_trace::OrderSpec`]);
//! variables are bound to address ranges at runtime via `NameRange` events.
//! For each variable the tracker maintains whether it has been stored to,
//! how much of it has been flushed since, and whether it is durable.
//!
//! * Under strict/epoch persistency, violations are evaluated when fences
//!   make the *second* variable durable while the *first* is still volatile.
//! * Under strand persistency, a CLF covering the second variable while the
//!   first is not yet durable is itself the violation (persist barriers only
//!   order within a strand), and the report carries the strand that issued
//!   the offending flush.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use pm_trace::events::ranges_overlap;
use pm_trace::{Addr, BugKind, BugReport, OrderSpec, StrandId, ThreadId, CAS_PUBLISH_WINDOW};

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};
use crate::cover::RangeCover;

/// Persist state of one named variable.
#[derive(Debug, Clone, Default)]
struct VarState {
    range: Option<(Addr, u64)>,
    /// The variable has been stored to and is not yet durable.
    dirty: bool,
    /// The variable has been stored to at least once.
    ever_stored: bool,
    /// Flushed-but-not-fenced coverage since the last store.
    flushed: RangeCover,
    /// Strand that performed the last store, when inside a strand.
    store_strand: Option<StrandId>,
    /// Strand that issued the last covering flush (barriers only order
    /// their own strand's flushes).
    flush_strand: Option<StrandId>,
}

impl VarState {
    fn fully_flushed(&self) -> bool {
        match self.range {
            Some((addr, len)) => self.flushed.covers(addr, len),
            None => false,
        }
    }
}

/// Tracks named variables and evaluates order rules.
#[derive(Debug, Clone, Default)]
pub struct OrderTracker {
    spec: OrderSpec,
    vars: HashMap<String, VarState>,
    /// Functions named by at least one rule that have been entered.
    armed_functions: HashMap<String, bool>,
    /// Rules already reported (report each violation once).
    reported: Vec<bool>,
}

impl OrderTracker {
    /// Creates a tracker for the given specification.
    pub fn new(spec: OrderSpec) -> Self {
        let reported = vec![false; spec.rules().len()];
        let mut armed_functions = HashMap::new();
        for rule in spec.rules() {
            if let Some(func) = &rule.function {
                armed_functions.insert(func.clone(), false);
            }
        }
        OrderTracker {
            spec,
            vars: HashMap::new(),
            armed_functions,
            reported,
        }
    }

    /// Whether any rules are configured.
    pub fn is_empty(&self) -> bool {
        self.spec.rules().is_empty()
    }

    /// Estimated heap bytes held by the variable and function tables.
    /// Walks the maps, but both are bounded by the (small) order spec, so
    /// this stays cheap even when called per batch.
    pub fn tracked_bytes(&self) -> u64 {
        let vars: usize = self
            .vars
            .keys()
            .map(|name| name.len() + std::mem::size_of::<VarState>())
            .sum();
        let armed: usize = self
            .armed_functions
            .keys()
            .map(|name| name.len() + std::mem::size_of::<bool>())
            .sum();
        (vars + armed + self.reported.capacity()) as u64
    }

    /// Binds variable `name` to `[addr, addr+len)`.
    pub fn bind(&mut self, name: &str, addr: Addr, len: u64) {
        let state = self.vars.entry(name.to_owned()).or_default();
        state.range = Some((addr, len));
    }

    /// Marks entry into an application function (arms function-scoped rules).
    pub fn func_enter(&mut self, name: &str) {
        if let Some(armed) = self.armed_functions.get_mut(name) {
            *armed = true;
        }
    }

    /// Observes a store.
    pub fn on_store(&mut self, addr: Addr, len: u64, strand: Option<StrandId>) {
        for state in self.vars.values_mut() {
            if let Some((va, vl)) = state.range {
                if pm_trace::events::ranges_overlap(va, vl, addr, len) {
                    state.dirty = true;
                    state.ever_stored = true;
                    state.flushed.clear();
                    state.store_strand = strand;
                }
            }
        }
    }

    /// Observes a CLF. Under strand persistency (`strand_mode`), returns
    /// lack-ordering-in-strands reports triggered by this flush.
    pub fn on_flush(
        &mut self,
        addr: Addr,
        len: u64,
        strand: Option<StrandId>,
        strand_mode: bool,
        seq: u64,
    ) -> Vec<BugReport> {
        for state in self.vars.values_mut() {
            if let Some((va, vl)) = state.range {
                if state.dirty && pm_trace::events::ranges_overlap(va, vl, addr, len) {
                    state.flushed.add(addr, len);
                    state.flush_strand = strand;
                }
            }
        }
        if !strand_mode {
            return Vec::new();
        }
        // Strand model: flushing the second variable while the first is
        // still volatile violates the cross-strand order (§5.2, Figure 7b).
        let mut reports = Vec::new();
        for (i, rule) in self.spec.rules().iter().enumerate() {
            if self.reported[i] || !self.rule_armed(rule) {
                continue;
            }
            let Some(second) = self.vars.get(&rule.second) else {
                continue;
            };
            let Some((sa, sl)) = second.range else {
                continue;
            };
            if !pm_trace::events::ranges_overlap(sa, sl, addr, len) {
                continue;
            }
            let Some(first) = self.vars.get(&rule.first) else {
                continue;
            };
            if first.ever_stored && first.dirty && second.dirty {
                self.reported[i] = true;
                let strand_note = match (strand, first.store_strand) {
                    (Some(s), Some(fs)) if s != fs => {
                        format!(
                            " (flush in strand {}, first var written in strand {})",
                            s.0, fs.0
                        )
                    }
                    (Some(s), _) => format!(" (flush in strand {})", s.0),
                    _ => String::new(),
                };
                reports.push(
                    BugReport::new(
                        BugKind::LackOrderingInStrands,
                        format!(
                            "`{}` is being persisted before `{}` is durable{}",
                            rule.second, rule.first, strand_note
                        ),
                    )
                    .with_range(sa, sl)
                    .with_event(seq),
                );
            }
        }
        reports
    }

    /// Observes a fence: fully flushed variables become durable; rules whose
    /// second variable became durable while the first is still volatile are
    /// violated (§4.5).
    ///
    /// Under strand persistency a persist barrier orders only its own
    /// strand's flushes: pass the barrier's strand in `fence_strand`.
    /// Global fences (plain `SFENCE` outside strands, `JoinStrand`) pass
    /// `None` and complete every pending flush.
    pub fn on_fence_scoped(&mut self, seq: u64, fence_strand: Option<StrandId>) -> Vec<BugReport> {
        // Determine who becomes durable at this fence.
        let mut became_durable: Vec<String> = Vec::new();
        for (name, state) in self.vars.iter_mut() {
            let ordered_here = fence_strand.is_none() || state.flush_strand == fence_strand;
            if state.dirty && state.fully_flushed() && ordered_here {
                state.dirty = false;
                state.flushed.clear();
                became_durable.push(name.clone());
            }
        }
        if became_durable.is_empty() {
            return Vec::new();
        }
        let mut reports = Vec::new();
        for (i, rule) in self.spec.rules().iter().enumerate() {
            if self.reported[i] || !self.rule_armed(rule) {
                continue;
            }
            if !became_durable.contains(&rule.second) {
                continue;
            }
            let first_ok = self
                .vars
                .get(&rule.first)
                .map(|f| !f.dirty && f.ever_stored)
                .unwrap_or(false);
            let first_stored = self
                .vars
                .get(&rule.first)
                .map(|f| f.ever_stored)
                .unwrap_or(false);
            if !first_ok && first_stored {
                self.reported[i] = true;
                let range = self.vars.get(&rule.second).and_then(|s| s.range);
                let mut report = BugReport::new(
                    BugKind::NoOrderGuarantee,
                    format!(
                        "`{}` became durable at this fence but `{}` is not yet durable",
                        rule.second, rule.first
                    ),
                )
                .with_event(seq);
                if let Some((addr, len)) = range {
                    report = report.with_range(addr, len);
                }
                reports.push(report);
            }
        }
        reports
    }

    /// Observes a global fence (non-strand code paths).
    pub fn on_fence(&mut self, seq: u64) -> Vec<BugReport> {
        self.on_fence_scoped(seq, None)
    }

    fn rule_armed(&self, rule: &pm_trace::OrderRule) -> bool {
        match &rule.function {
            None => true,
            Some(func) => *self.armed_functions.get(func).unwrap_or(&false),
        }
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        ckpt::encode_order_spec(w, &self.spec);
        let vars = ckpt::sorted_entries(&self.vars);
        w.usize(vars.len());
        for (name, state) in vars {
            w.str(name);
            match state.range {
                None => w.u8(0),
                Some((addr, len)) => {
                    w.u8(1);
                    w.varint(addr);
                    w.varint(len);
                }
            }
            w.bool(state.dirty);
            w.bool(state.ever_stored);
            state.flushed.encode_into(w);
            w.opt_varint(state.store_strand.map(|s| u64::from(s.0)));
            w.opt_varint(state.flush_strand.map(|s| u64::from(s.0)));
        }
        let armed = ckpt::sorted_entries(&self.armed_functions);
        w.usize(armed.len());
        for (name, armed) in armed {
            w.str(name);
            w.bool(*armed);
        }
        w.usize(self.reported.len());
        for &reported in &self.reported {
            w.bool(reported);
        }
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let spec = ckpt::decode_order_spec(r)?;
        let var_count = r.count()?;
        let mut vars = HashMap::new();
        for _ in 0..var_count {
            let name = r.str()?;
            let range = match r.u8()? {
                0 => None,
                1 => Some((r.varint()?, r.varint()?)),
                b => return Err(ckpt::corrupt(format!("invalid range tag {b:#04x}"))),
            };
            let state = VarState {
                range,
                dirty: r.bool()?,
                ever_stored: r.bool()?,
                flushed: RangeCover::decode_from(r)?,
                store_strand: r.opt_varint()?.map(|s| StrandId(s as u32)),
                flush_strand: r.opt_varint()?.map(|s| StrandId(s as u32)),
            };
            vars.insert(name, state);
        }
        let armed_count = r.count()?;
        let mut armed_functions = HashMap::new();
        for _ in 0..armed_count {
            let name = r.str()?;
            armed_functions.insert(name, r.bool()?);
        }
        let reported_count = r.count()?;
        if reported_count != spec.rules().len() {
            return Err(ckpt::corrupt(format!(
                "reported-flag count {reported_count} does not match the {} rules",
                spec.rules().len()
            )));
        }
        let mut reported = Vec::with_capacity(reported_count.min(4096));
        for _ in 0..reported_count {
            reported.push(r.bool()?);
        }
        Ok(OrderTracker {
            spec,
            vars,
            armed_functions,
            reported,
        })
    }
}

/// Volatile-but-visible state of one store awaiting durability.
#[derive(Debug, Clone)]
struct PendingStore {
    /// Thread that issued the store.
    store_tid: ThreadId,
    /// Stream position of the store.
    store_seq: u64,
    /// Thread that flushed the store (and that thread's fence epoch at the
    /// flush), once some flush covered it. On x86 a fence completes only
    /// the *issuing* thread's writebacks, so the entry stays pending until
    /// this exact thread fences.
    flushed_by: Option<(ThreadId, u64)>,
    /// A publication bug was already reported for this entry.
    reported: bool,
}

/// Cross-thread persistency-ordering tracker for lock-free PM structures.
///
/// Lock-free structures publish nodes by swinging a shared pointer with a
/// CAS: after the swing, other threads (and post-crash recovery) can reach
/// the node. Correct code makes the node durable *before* the swing —
/// store, flush, fence on the same thread, then CAS. This tracker keeps a
/// per-thread fence-epoch vector and the set of stores whose durability is
/// not yet fenced, and probes the [`CAS_PUBLISH_WINDOW`] starting at the
/// installed value on every successful CAS:
///
/// * a probed store that was never flushed is [`BugKind::PublishedUnflushed`];
/// * a probed store flushed on thread A whose fence hasn't happened on A —
///   even if another thread fenced in between — is
///   [`BugKind::UnpublishedVisible`], carrying the thread pair.
///
/// Reports fire only at CAS events (never at end of run), so the tracker
/// behaves identically under sequential, sharded-parallel, supervised and
/// streaming execution: a CAS and every store its window can probe always
/// share a shard (the planner links them), and fences are broadcast.
///
/// No operation walks the whole pending set: a flush or CAS visits only
/// the keys whose range can overlap its own (bounded below by the largest
/// pending size), and a fence visits only the keys its thread flushed.
#[derive(Debug, Clone, Default)]
pub struct CrossThreadTracker {
    /// Fence epoch per thread: incremented at each of the thread's fences.
    fence_epochs: BTreeMap<ThreadId, u64>,
    /// Stores (keyed by exact range) that are not yet durably ordered.
    pending: BTreeMap<(Addr, u64), PendingStore>,
    /// At least the size of every pending store: a store overlapping
    /// `[addr, ..)` starts no lower than `addr - max_size`. A running
    /// maximum, reset when `pending` empties.
    max_size: u64,
    /// Per thread, the keys its flushes marked since its last fence: every
    /// pending entry whose `flushed_by` thread is `t` is listed under `t`.
    /// A key re-stored after the mark stays listed until `t`'s fence,
    /// which skips it unless `t` flushed it again.
    flushed: BTreeMap<ThreadId, Vec<(Addr, u64)>>,
}

/// The pending keys a probe of `[addr, addr+len)` must visit: every store
/// that overlaps it starts in `[addr - max_size, addr + len)`.
fn probe_keys(addr: Addr, len: u64, max_size: u64) -> Range<(Addr, u64)> {
    (addr.saturating_sub(max_size), 0)..(addr.saturating_add(len), 0)
}

impl CrossThreadTracker {
    /// A tracker with no pending state.
    pub fn new() -> Self {
        CrossThreadTracker::default()
    }

    /// Estimated heap bytes held by the fence-epoch vector and the pending
    /// store set. O(1): both maps expose their lengths.
    pub fn tracked_bytes(&self) -> u64 {
        let epochs = self.fence_epochs.len()
            * (std::mem::size_of::<ThreadId>() + std::mem::size_of::<u64>());
        let pending = self.pending.len()
            * (std::mem::size_of::<(Addr, u64)>() + std::mem::size_of::<PendingStore>());
        (epochs + pending) as u64
    }

    /// Current fence epoch of `tid`.
    fn epoch(&self, tid: ThreadId) -> u64 {
        self.fence_epochs.get(&tid).copied().unwrap_or(0)
    }

    /// Observes a store: it is now visible-when-published and not durable.
    pub fn on_store(&mut self, seq: u64, addr: Addr, size: u64, tid: ThreadId) {
        self.max_size = self.max_size.max(size);
        self.pending.insert(
            (addr, size),
            PendingStore {
                store_tid: tid,
                store_seq: seq,
                flushed_by: None,
                reported: false,
            },
        );
    }

    /// Observes a flush by `tid` of `[addr, addr+len)`: overlapped pending
    /// stores now await `tid`'s next fence.
    pub fn on_flush(&mut self, addr: Addr, len: u64, tid: ThreadId) {
        let epoch = self.epoch(tid);
        let flushed = self.flushed.entry(tid).or_default();
        for (&(sa, sl), entry) in self.pending.range_mut(probe_keys(addr, len, self.max_size)) {
            if entry.flushed_by.is_none() && ranges_overlap(sa, sl, addr, len) {
                entry.flushed_by = Some((tid, epoch));
                flushed.push((sa, sl));
            }
        }
    }

    /// Observes a fence by `tid`: every store `tid` flushed becomes durably
    /// ordered and leaves the pending set. Other threads' flushes are
    /// untouched — that asymmetry is exactly what the rules detect.
    pub fn on_fence(&mut self, tid: ThreadId) {
        *self.fence_epochs.entry(tid).or_insert(0) += 1;
        let Some(flushed) = self.flushed.get_mut(&tid) else {
            return;
        };
        for key in flushed.drain(..) {
            if let Entry::Occupied(entry) = self.pending.entry(key) {
                if entry.get().flushed_by.map(|(t, _)| t) == Some(tid) {
                    entry.remove();
                }
            }
        }
        if self.pending.is_empty() {
            self.max_size = 0;
        }
    }

    /// Observes a CAS by `tid` at stream position `seq`. On success, probes
    /// the publish window starting at `new` and reports every pending store
    /// it exposes (each once), then books the CAS target itself as a store.
    /// Failed CAS neither publishes nor stores.
    pub fn on_cas(
        &mut self,
        seq: u64,
        addr: Addr,
        size: u64,
        tid: ThreadId,
        new: u64,
        success: bool,
    ) -> Vec<BugReport> {
        if !success {
            return Vec::new();
        }
        let mut reports = Vec::new();
        let window = probe_keys(new, CAS_PUBLISH_WINDOW, self.max_size);
        for (&(sa, sl), entry) in self.pending.range_mut(window) {
            if entry.reported
                || entry.store_seq == seq
                || !ranges_overlap(sa, sl, new, CAS_PUBLISH_WINDOW)
            {
                continue;
            }
            entry.reported = true;
            let report = match entry.flushed_by {
                None => BugReport::new(
                    BugKind::PublishedUnflushed,
                    format!(
                        "CAS on thread {} publishes {new:#x}, exposing a store by \
                         thread {} (event #{}) that was never flushed",
                        tid.0, entry.store_tid.0, entry.store_seq
                    ),
                ),
                Some((flusher, flush_epoch)) => BugReport::new(
                    BugKind::UnpublishedVisible,
                    format!(
                        "CAS on thread {} publishes {new:#x}, exposing a store by \
                         thread {} (event #{}) flushed by thread {} (fence epoch \
                         {flush_epoch}) whose fence has not yet happened on thread {}",
                        tid.0, entry.store_tid.0, entry.store_seq, flusher.0, flusher.0
                    ),
                ),
            };
            reports.push(report.with_range(sa, sl).with_event(seq));
        }
        self.on_store(seq, addr, size, tid);
        reports
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        w.usize(self.fence_epochs.len());
        for (tid, epoch) in &self.fence_epochs {
            w.varint(u64::from(tid.0));
            w.varint(*epoch);
        }
        w.usize(self.pending.len());
        for (&(addr, size), entry) in &self.pending {
            w.varint(addr);
            w.varint(size);
            w.varint(u64::from(entry.store_tid.0));
            w.varint(entry.store_seq);
            match entry.flushed_by {
                None => w.u8(0),
                Some((tid, epoch)) => {
                    w.u8(1);
                    w.varint(u64::from(tid.0));
                    w.varint(epoch);
                }
            }
            w.bool(entry.reported);
        }
    }

    /// Decodes what [`encode_into`](Self::encode_into) wrote; the size
    /// bound and the per-thread flush lists are rebuilt from the pending
    /// set.
    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let epoch_count = r.count()?;
        let mut tracker = CrossThreadTracker::new();
        for _ in 0..epoch_count {
            let tid = ThreadId(r.varint()? as u32);
            tracker.fence_epochs.insert(tid, r.varint()?);
        }
        let pending_count = r.count()?;
        for _ in 0..pending_count {
            let key = (r.varint()?, r.varint()?);
            let store_tid = ThreadId(r.varint()? as u32);
            let store_seq = r.varint()?;
            let flushed_by = match r.u8()? {
                0 => None,
                1 => Some((ThreadId(r.varint()? as u32), r.varint()?)),
                b => return Err(ckpt::corrupt(format!("invalid flushed-by tag {b:#04x}"))),
            };
            let reported = r.bool()?;
            tracker.max_size = tracker.max_size.max(key.1);
            if let Some((flusher, _)) = flushed_by {
                tracker.flushed.entry(flusher).or_default().push(key);
            }
            tracker.pending.insert(
                key,
                PendingStore {
                    store_tid,
                    store_seq,
                    flushed_by,
                    reported,
                },
            );
        }
        Ok(tracker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(first: &str, second: &str) -> OrderSpec {
        let mut s = OrderSpec::new();
        s.add_rule(first, second, None);
        s
    }

    fn tracker(first: &str, second: &str) -> OrderTracker {
        let mut t = OrderTracker::new(spec(first, second));
        t.bind("a", 0, 8);
        t.bind("b", 64, 8);
        let _ = first;
        let _ = second;
        t
    }

    #[test]
    fn correct_order_produces_no_report() {
        let mut t = tracker("a", "b");
        t.on_store(0, 8, None); // write a
        t.on_flush(0, 64, None, false, 1);
        assert!(t.on_fence(2).is_empty()); // a durable
        t.on_store(64, 8, None); // write b
        t.on_flush(64, 64, None, false, 4);
        assert!(t.on_fence(5).is_empty()); // b durable after a: fine
    }

    #[test]
    fn wrong_order_reports_once() {
        let mut t = tracker("a", "b");
        t.on_store(0, 8, None); // write a (never persisted)
        t.on_store(64, 8, None); // write b
        t.on_flush(64, 64, None, false, 2);
        let reports = t.on_fence(3);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::NoOrderGuarantee);
        // Later fences do not re-report.
        t.on_flush(64, 64, None, false, 4);
        assert!(t.on_fence(5).is_empty());
    }

    #[test]
    fn both_durable_same_fence_counts_as_ordered() {
        // a and b flushed, one fence persists both: a is durable at the
        // same fence, so not reported (the fence guarantees X's durability
        // "before Y" in the paper's check).
        let mut t = tracker("a", "b");
        t.on_store(0, 8, None);
        t.on_store(64, 8, None);
        t.on_flush(0, 64, None, false, 2);
        t.on_flush(64, 64, None, false, 3);
        let reports = t.on_fence(4);
        // a became durable at the same fence -> dirty=false when evaluated.
        assert!(reports.is_empty());
    }

    #[test]
    fn unbound_second_variable_is_ignored() {
        let mut t = OrderTracker::new(spec("a", "b"));
        t.bind("a", 0, 8);
        t.on_store(0, 8, None);
        assert!(t.on_fence(1).is_empty());
    }

    #[test]
    fn first_never_stored_is_not_a_violation() {
        let mut t = tracker("a", "b");
        t.on_store(64, 8, None); // only b written
        t.on_flush(64, 64, None, false, 1);
        assert!(t.on_fence(2).is_empty());
    }

    #[test]
    fn partial_flush_does_not_make_durable() {
        let mut t = OrderTracker::new(spec("a", "b"));
        t.bind("a", 0, 8);
        t.bind("b", 0, 128); // spans two lines
        t.on_store(0, 128, None);
        t.on_flush(0, 64, None, false, 1); // half of b
        assert!(t.on_fence(2).is_empty()); // b not durable yet
    }

    #[test]
    fn restore_after_durability_resets_coverage() {
        let mut t = tracker("a", "b");
        t.on_store(0, 8, None);
        t.on_flush(0, 64, None, false, 1);
        t.on_fence(2); // a durable
        t.on_store(0, 8, None); // a dirty again
        t.on_store(64, 8, None);
        t.on_flush(64, 64, None, false, 5);
        let reports = t.on_fence(6);
        assert_eq!(reports.len(), 1, "a was re-dirtied and never re-persisted");
    }

    #[test]
    fn function_scoped_rule_armed_by_func_enter() {
        let mut s = OrderSpec::new();
        s.add_rule("a", "b", Some("insert"));
        let mut t = OrderTracker::new(s);
        t.bind("a", 0, 8);
        t.bind("b", 64, 8);
        t.on_store(0, 8, None);
        t.on_store(64, 8, None);
        t.on_flush(64, 64, None, false, 2);
        assert!(t.on_fence(3).is_empty(), "rule not armed yet");
        t.func_enter("insert");
        t.on_store(64, 8, None);
        t.on_flush(64, 64, None, false, 5);
        assert_eq!(t.on_fence(6).len(), 1, "armed after func_enter");
    }

    #[test]
    fn strand_mode_reports_at_flush() {
        let mut t = tracker("a", "b");
        t.on_store(0, 8, Some(StrandId(0)));
        t.on_store(64, 8, Some(StrandId(0)));
        let reports = t.on_flush(64, 64, Some(StrandId(1)), true, 3);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::LackOrderingInStrands);
        assert!(reports[0].message.contains("strand 1"));
    }

    #[test]
    fn strand_mode_ok_when_first_durable() {
        let mut t = tracker("a", "b");
        t.on_store(0, 8, Some(StrandId(0)));
        t.on_flush(0, 64, Some(StrandId(0)), true, 1);
        t.on_fence(2); // a durable
        t.on_store(64, 8, Some(StrandId(1)));
        let reports = t.on_flush(64, 64, Some(StrandId(1)), true, 4);
        assert!(reports.is_empty());
    }

    const A: ThreadId = ThreadId(0);
    const B: ThreadId = ThreadId(1);

    #[test]
    fn durable_before_publish_is_clean() {
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        t.on_flush(0x1000, 64, A);
        t.on_fence(A);
        assert!(t.on_cas(3, 0x40, 8, A, 0x1000, true).is_empty());
    }

    #[test]
    fn never_flushed_store_reports_published_unflushed() {
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        let reports = t.on_cas(1, 0x40, 8, B, 0x1000, true);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::PublishedUnflushed);
        assert_eq!(reports[0].addr, Some(0x1000));
        assert_eq!(reports[0].at_event, Some(1));
        // Reported once: a second publish of the same window is silent.
        assert!(t.on_cas(2, 0x40, 8, B, 0x1000, true).is_empty());
    }

    #[test]
    fn fence_on_wrong_thread_reports_unpublished_visible() {
        // The acceptance scenario: flush on A, fence on B, publish on B.
        // B's fence does not complete A's writeback, so the published node
        // is visible with unordered durability.
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        t.on_flush(0x1000, 64, A);
        t.on_fence(B);
        let reports = t.on_cas(3, 0x40, 8, B, 0x1000, true);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::UnpublishedVisible);
        assert!(reports[0].message.contains("thread 0"));
        assert!(reports[0].message.contains("thread 1"));
    }

    #[test]
    fn flusher_fence_clears_even_across_threads() {
        // Store on A, flushed by B, fenced by B: durable (B's fence orders
        // B's flush regardless of who stored).
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        t.on_flush(0x1000, 64, B);
        t.on_fence(B);
        assert!(t.on_cas(3, 0x40, 8, A, 0x1000, true).is_empty());
    }

    #[test]
    fn failed_cas_neither_probes_nor_stores() {
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        assert!(t.on_cas(1, 0x40, 8, B, 0x1000, false).is_empty());
        // The pending store is still unreported: a later successful CAS
        // finds it.
        assert_eq!(t.on_cas(2, 0x40, 8, B, 0x1000, true).len(), 1);
    }

    #[test]
    fn cas_target_itself_becomes_pending() {
        // A successful CAS writes its target; publishing a pointer *to the
        // CAS target* before the target's line is fenced is itself a bug.
        let mut t = CrossThreadTracker::new();
        assert!(t.on_cas(0, 0x2000, 8, A, 0, true).is_empty());
        let reports = t.on_cas(1, 0x40, 8, B, 0x2000, true);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, BugKind::PublishedUnflushed);
    }

    #[test]
    fn probe_only_sees_window_overlap() {
        let mut t = CrossThreadTracker::new();
        t.on_store(0, 0x1000, 8, A);
        // Window [0x2000, 0x2040) does not overlap the store at 0x1000.
        assert!(t.on_cas(1, 0x40, 8, B, 0x2000, true).is_empty());
        // Window ending exactly at the store is still disjoint.
        assert!(t
            .on_cas(2, 0x40, 8, B, 0x1000 - CAS_PUBLISH_WINDOW, true)
            .is_empty());
    }

    /// The full-scan tracker the indexed [`CrossThreadTracker`] replaced,
    /// kept verbatim as the differential oracle: every flush and CAS scans
    /// the whole pending map and every fence `retain`s over it.
    #[derive(Debug, Clone, Default)]
    struct ReferenceTracker {
        /// Fence epoch per thread: incremented at each of the thread's fences.
        fence_epochs: BTreeMap<ThreadId, u64>,
        /// Stores (keyed by exact range) that are not yet durably ordered.
        pending: BTreeMap<(Addr, u64), PendingStore>,
    }

    impl ReferenceTracker {
        /// A tracker with no pending state.
        fn new() -> Self {
            ReferenceTracker::default()
        }

        /// Estimated heap bytes held by the fence-epoch vector and the pending
        /// store set. O(1): both maps expose their lengths.
        fn tracked_bytes(&self) -> u64 {
            let epochs = self.fence_epochs.len()
                * (std::mem::size_of::<ThreadId>() + std::mem::size_of::<u64>());
            let pending = self.pending.len()
                * (std::mem::size_of::<(Addr, u64)>() + std::mem::size_of::<PendingStore>());
            (epochs + pending) as u64
        }

        /// Current fence epoch of `tid`.
        fn epoch(&self, tid: ThreadId) -> u64 {
            self.fence_epochs.get(&tid).copied().unwrap_or(0)
        }

        /// Observes a store: it is now visible-when-published and not durable.
        fn on_store(&mut self, seq: u64, addr: Addr, size: u64, tid: ThreadId) {
            self.pending.insert(
                (addr, size),
                PendingStore {
                    store_tid: tid,
                    store_seq: seq,
                    flushed_by: None,
                    reported: false,
                },
            );
        }

        /// Observes a flush by `tid` of `[addr, addr+len)`: overlapped pending
        /// stores now await `tid`'s next fence.
        fn on_flush(&mut self, addr: Addr, len: u64, tid: ThreadId) {
            let epoch = self.epoch(tid);
            for (&(sa, sl), entry) in self.pending.iter_mut() {
                if entry.flushed_by.is_none() && ranges_overlap(sa, sl, addr, len) {
                    entry.flushed_by = Some((tid, epoch));
                }
            }
        }

        /// Observes a fence by `tid`: every store `tid` flushed becomes durably
        /// ordered and leaves the pending set. Other threads' flushes are
        /// untouched — that asymmetry is exactly what the rules detect.
        fn on_fence(&mut self, tid: ThreadId) {
            *self.fence_epochs.entry(tid).or_insert(0) += 1;
            self.pending
                .retain(|_, entry| entry.flushed_by.map(|(t, _)| t) != Some(tid));
        }

        /// Observes a CAS by `tid` at stream position `seq`. On success, probes
        /// the publish window starting at `new` and reports every pending store
        /// it exposes (each once), then books the CAS target itself as a store.
        /// Failed CAS neither publishes nor stores.
        fn on_cas(
            &mut self,
            seq: u64,
            addr: Addr,
            size: u64,
            tid: ThreadId,
            new: u64,
            success: bool,
        ) -> Vec<BugReport> {
            if !success {
                return Vec::new();
            }
            let mut reports = Vec::new();
            for (&(sa, sl), entry) in self.pending.iter_mut() {
                if entry.reported
                    || entry.store_seq == seq
                    || !ranges_overlap(sa, sl, new, CAS_PUBLISH_WINDOW)
                {
                    continue;
                }
                entry.reported = true;
                let report = match entry.flushed_by {
                    None => BugReport::new(
                        BugKind::PublishedUnflushed,
                        format!(
                            "CAS on thread {} publishes {new:#x}, exposing a store by \
                             thread {} (event #{}) that was never flushed",
                            tid.0, entry.store_tid.0, entry.store_seq
                        ),
                    ),
                    Some((flusher, flush_epoch)) => BugReport::new(
                        BugKind::UnpublishedVisible,
                        format!(
                            "CAS on thread {} publishes {new:#x}, exposing a store by \
                             thread {} (event #{}) flushed by thread {} (fence epoch \
                             {flush_epoch}) whose fence has not yet happened on thread {}",
                            tid.0, entry.store_tid.0, entry.store_seq, flusher.0, flusher.0
                        ),
                    ),
                };
                reports.push(report.with_range(sa, sl).with_event(seq));
            }
            self.on_store(seq, addr, size, tid);
            reports
        }

        fn encode_into(&self, w: &mut CkptWriter) {
            w.usize(self.fence_epochs.len());
            for (tid, epoch) in &self.fence_epochs {
                w.varint(u64::from(tid.0));
                w.varint(*epoch);
            }
            w.usize(self.pending.len());
            for (&(addr, size), entry) in &self.pending {
                w.varint(addr);
                w.varint(size);
                w.varint(u64::from(entry.store_tid.0));
                w.varint(entry.store_seq);
                match entry.flushed_by {
                    None => w.u8(0),
                    Some((tid, epoch)) => {
                        w.u8(1);
                        w.varint(u64::from(tid.0));
                        w.varint(epoch);
                    }
                }
                w.bool(entry.reported);
            }
        }
    }

    /// One tracker input.
    #[derive(Debug, Clone)]
    enum Op {
        Store {
            addr: Addr,
            size: u64,
            tid: u32,
        },
        Flush {
            addr: Addr,
            len: u64,
            tid: u32,
        },
        Fence {
            tid: u32,
        },
        Cas {
            addr: Addr,
            tid: u32,
            new: u64,
            success: bool,
        },
    }

    /// Addresses that collide: a handful of overlapping slots on three
    /// lines, plus the very top of the address space.
    fn any_addr() -> impl Strategy<Value = Addr> {
        prop_oneof![
            4 => (0u64..12).prop_map(|slot| 0x1000 + slot * 16),
            1 => (0u64..96).prop_map(|below| u64::MAX - below),
        ]
    }

    fn any_op() -> impl Strategy<Value = Op> {
        let sizes = prop_oneof![Just(0u64), Just(1), Just(8), Just(64), Just(128)];
        let lens = prop_oneof![Just(0u64), Just(8), Just(64), Just(128)];
        prop_oneof![
            4 => (any_addr(), sizes, 0u32..4)
                .prop_map(|(addr, size, tid)| Op::Store { addr, size, tid }),
            3 => (any_addr(), lens, 0u32..4).prop_map(|(addr, len, tid)| Op::Flush { addr, len, tid }),
            2 => (0u32..4).prop_map(|tid| Op::Fence { tid }),
            2 => (any_addr(), 0u32..4, any_addr(), any::<bool>())
                .prop_map(|(addr, tid, new, success)| Op::Cas { addr, tid, new, success }),
        ]
    }

    /// Feeds `op` at stream position `seq` to either tracker, with thread
    /// ids folded into `0..threads`; returns the CAS reports (empty for
    /// every other op).
    macro_rules! apply {
        ($tracker:expr, $seq:expr, $op:expr, $threads:expr) => {{
            let t = |tid: u32| ThreadId(tid % $threads);
            match *$op {
                Op::Store { addr, size, tid } => {
                    $tracker.on_store($seq, addr, size, t(tid));
                    Vec::new()
                }
                Op::Flush { addr, len, tid } => {
                    $tracker.on_flush(addr, len, t(tid));
                    Vec::new()
                }
                Op::Fence { tid } => {
                    $tracker.on_fence(t(tid));
                    Vec::new()
                }
                Op::Cas {
                    addr,
                    tid,
                    new,
                    success,
                } => $tracker.on_cas($seq, addr, 8, t(tid), new, success),
            }
        }};
    }

    fn encoded(encode: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
        let mut w = CkptWriter::new();
        encode(&mut w);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The indexed tracker reports exactly what the full scan reports
        /// (kinds, ranges, order and message text), checkpoints to the
        /// same bytes, and a copy decoded mid-stream carries on identically.
        #[test]
        fn indexed_tracker_matches_full_scan_reference(
            threads in 1u32..5,
            ops in proptest::collection::vec(any_op(), 1..160),
            big in (0u64..0x1200, 8192u64..12288, 0u32..4, 0usize..160),
            mid in 0usize..161,
        ) {
            let mut ops = ops;
            let (addr, size, tid, at) = big;
            ops.insert(at % (ops.len() + 1), Op::Store { addr, size, tid });
            let mid = mid % ops.len();
            let mut reference = ReferenceTracker::new();
            let mut tracker = CrossThreadTracker::new();
            let mut resumed: Option<CrossThreadTracker> = None;
            for (seq, op) in ops.iter().enumerate() {
                let seq = seq as u64;
                if seq == mid as u64 {
                    let bytes = encoded(|w| tracker.encode_into(w));
                    prop_assert_eq!(&bytes, &encoded(|w| reference.encode_into(w)));
                    let mut r = CkptReader::new(&bytes);
                    resumed = Some(CrossThreadTracker::decode_from(&mut r).expect("decodes"));
                    prop_assert!(r.is_empty());
                }
                let expected = apply!(reference, seq, op, threads);
                prop_assert_eq!(&apply!(tracker, seq, op, threads), &expected, "event #{} {:?}", seq, op);
                if let Some(resumed) = resumed.as_mut() {
                    let got = apply!(resumed, seq, op, threads);
                    prop_assert_eq!(&got, &expected, "resumed, event #{} {:?}", seq, op);
                    prop_assert_eq!(resumed.tracked_bytes(), reference.tracked_bytes());
                }
                prop_assert_eq!(tracker.tracked_bytes(), reference.tracked_bytes());
            }
            prop_assert_eq!(
                encoded(|w| tracker.encode_into(w)),
                encoded(|w| reference.encode_into(w))
            );
        }
    }
}
