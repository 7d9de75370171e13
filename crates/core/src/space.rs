//! The bookkeeping space: memory location array + CLF-interval metadata +
//! AVL tree (paper §4.1–§4.4).
//!
//! This module implements the three processing algorithms:
//!
//! * **store** (§4.2): O(1) append to the array + O(1) interval-metadata
//!   update (spilling to the tree only when the array is full);
//! * **CLF** (§4.3): interval-granular state update — a covering CLF flips
//!   one interval state instead of touching every element; partial overlaps
//!   fall back to per-element updates with splits;
//! * **fence** (§4.4): tree first (drop persisted records), then the array —
//!   flushed intervals are dropped wholesale, surviving unflushed elements
//!   migrate to the tree, interval metadata is cleared, and node merging
//!   runs only above the merge threshold.

use pm_trace::Addr;

use crate::array::{FlushState, LocEntry, MemLocArray};
use crate::avl::{split_against_flush, AvlTree, SmallReplacement, TreeRecord};
use crate::ckpt::{CheckpointDecodeError, CkptReader, CkptWriter};
use crate::interval::{IntervalList, IntervalMeta, IntervalState};

/// Up to this many CLF intervals in the fence interval, the overlap check
/// walks them all instead of probing the interval line index.
const SCAN_INTERVALS_MAX: usize = 8;

/// Result of processing one store (input to the multiple-overwrites rule).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreOutcome {
    /// The stored-to range already existed (not yet durable) in the space.
    pub already_tracked: bool,
    /// The entry went to the tree because the array was full.
    pub spilled_to_tree: bool,
}

/// Result of processing one CLF (input to the redundant-flush and
/// flush-nothing rules).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushOutcome {
    /// Locations whose state advanced NotFlushed → Flushed.
    pub newly_flushed: usize,
    /// Locations that were already flushed and were covered again.
    pub already_flushed: usize,
}

impl FlushOutcome {
    /// The CLF covered at least one tracked location.
    pub fn any_hit(&self) -> bool {
        self.newly_flushed + self.already_flushed > 0
    }
}

/// Result of processing one fence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceOutcome {
    /// Records removed because their durability became guaranteed.
    pub persisted: usize,
    /// Unflushed array elements migrated to the tree.
    pub migrated_to_tree: usize,
    /// Tree size after processing (sampled for Figure 11).
    pub tree_nodes_after: usize,
}

/// A snapshot of one tracked-but-not-durable location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Residual {
    /// Start address.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Flush state (element state, with interval collective state applied).
    pub state: FlushState,
    /// Whether the originating store was inside an epoch section.
    pub in_epoch: bool,
    /// Event sequence of the originating store.
    pub store_seq: u64,
}

/// Aggregate bookkeeping statistics for one space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Stores appended to the array.
    pub array_stores: u64,
    /// Stores spilled to the tree because the array was full.
    pub array_spills: u64,
    /// Location splits caused by partially-overlapping CLFs.
    pub splits: u64,
    /// Fence intervals processed.
    pub fence_intervals: u64,
    /// Sum of tree sizes sampled at each fence (for the Figure 11 average).
    pub tree_node_sum: u64,
    /// Elements migrated from array to tree at fences.
    pub migrations: u64,
}

impl SpaceStats {
    /// Average tree node count per fence interval (Figure 11).
    pub fn avg_tree_nodes(&self) -> f64 {
        if self.fence_intervals == 0 {
            0.0
        } else {
            self.tree_node_sum as f64 / self.fence_intervals as f64
        }
    }
}

/// The hybrid array + tree bookkeeping space.
///
/// # Example
///
/// ```
/// use pmdebugger::BookkeepingSpace;
///
/// let mut space = BookkeepingSpace::new(1024, 500);
/// space.on_store(0x40, 8, false, 0, false);
/// let flush = space.on_flush(0x40, 64);
/// assert_eq!(flush.newly_flushed, 1);
/// let fence = space.on_fence();
/// assert_eq!(fence.persisted, 1);
/// assert!(space.residuals().is_empty()); // durable and forgotten
/// ```
#[derive(Debug, Clone)]
pub struct BookkeepingSpace {
    array: MemLocArray,
    intervals: IntervalList,
    tree: AvlTree,
    merge_threshold: usize,
    stats: SpaceStats,
    /// In-epoch entries currently staged in the array (lets epoch-end
    /// checks skip scanning when zero).
    array_epoch: usize,
    /// Zero-size stores currently staged in the array. They cover no cache
    /// line, so the interval line index cannot find them.
    array_zero_size: usize,
    /// Monotone mutation counter: bumped by every state-changing operation,
    /// so aggregate-stat callers can cache per-space contributions and
    /// refresh only spaces that actually changed.
    version: u64,
}

impl BookkeepingSpace {
    /// Creates a space with the given array capacity and merge threshold.
    pub fn new(array_capacity: usize, merge_threshold: usize) -> Self {
        BookkeepingSpace {
            array: MemLocArray::new(array_capacity),
            intervals: IntervalList::new(),
            tree: AvlTree::new(),
            merge_threshold,
            stats: SpaceStats::default(),
            array_epoch: 0,
            array_zero_size: 0,
            version: 0,
        }
    }

    /// Current mutation version (see the `version` field). A space whose
    /// version is unchanged has unchanged stats, tree stats and tree size.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Current tree size.
    pub fn tree_len(&self) -> usize {
        self.tree.len()
    }

    /// Current array occupancy.
    pub fn array_len(&self) -> usize {
        self.array.len()
    }

    /// Bookkeeping statistics.
    pub fn stats(&self) -> SpaceStats {
        self.stats
    }

    /// Heap bytes held by this space's array, interval metadata and tree.
    /// O(1): every component tracks its own size incrementally. Unchanged
    /// whenever [`BookkeepingSpace::version`] is unchanged, so aggregate
    /// callers can cache per-space contributions.
    pub fn tracked_bytes(&self) -> u64 {
        self.array.tracked_bytes() + self.intervals.tracked_bytes() + self.tree.tracked_bytes()
    }

    /// Tree maintenance statistics.
    pub fn tree_stats(&self) -> crate::avl::TreeOpStats {
        self.tree.stats()
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        self.array.encode_into(w);
        self.intervals.encode_into(w);
        self.tree.encode_into(w);
        w.usize(self.merge_threshold);
        w.varint(self.stats.array_stores);
        w.varint(self.stats.array_spills);
        w.varint(self.stats.splits);
        w.varint(self.stats.fence_intervals);
        w.varint(self.stats.tree_node_sum);
        w.varint(self.stats.migrations);
        w.usize(self.array_epoch);
        w.varint(self.version);
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let array = MemLocArray::decode_from(r)?;
        let intervals = IntervalList::decode_from(r)?;
        let tree = AvlTree::decode_from(r)?;
        let merge_threshold = r.varint()? as usize;
        let stats = SpaceStats {
            array_stores: r.varint()?,
            array_spills: r.varint()?,
            splits: r.varint()?,
            fence_intervals: r.varint()?,
            tree_node_sum: r.varint()?,
            migrations: r.varint()?,
        };
        let array_epoch = r.varint()? as usize;
        let version = r.varint()?;
        let array_zero_size = array.entries().iter().filter(|e| e.size == 0).count();
        Ok(BookkeepingSpace {
            array,
            intervals,
            tree,
            merge_threshold,
            stats,
            array_epoch,
            array_zero_size,
            version,
        })
    }

    /// The effective flush state of an array element, taking the interval's
    /// collective state into account (an `AllFlushed` interval implies every
    /// element is flushed even if element states were not updated).
    fn effective_state(entry: &LocEntry, interval_state: IntervalState) -> FlushState {
        match interval_state {
            IntervalState::AllFlushed => FlushState::Flushed,
            _ => entry.state,
        }
    }

    /// §4.2: processes a store of `[addr, addr+size)`.
    ///
    /// `check_existing` enables the overlap search needed by the
    /// multiple-overwrites rule (skipped when the rule is off, since the
    /// search is pure rule work, not bookkeeping).
    pub fn on_store(
        &mut self,
        addr: Addr,
        size: u64,
        in_epoch: bool,
        seq: u64,
        check_existing: bool,
    ) -> StoreOutcome {
        self.version += 1;
        let mut outcome = StoreOutcome::default();
        if check_existing {
            outcome.already_tracked = self.contains_overlap(addr, size);
        }
        let entry = LocEntry {
            addr,
            size,
            state: FlushState::NotFlushed,
            in_epoch,
            store_seq: seq,
        };
        match self.array.push(entry) {
            Some(idx) => {
                self.intervals.record_store(idx, addr, size);
                self.stats.array_stores += 1;
                if in_epoch {
                    self.array_epoch += 1;
                }
                if size == 0 {
                    self.array_zero_size += 1;
                }
            }
            None => {
                self.tree.insert(TreeRecord {
                    addr,
                    size,
                    state: FlushState::NotFlushed,
                    in_epoch,
                    store_seq: seq,
                });
                self.stats.array_spills += 1;
                outcome.spilled_to_tree = true;
            }
        }
        outcome
    }

    /// Returns `true` when any tracked (not yet durable) location overlaps
    /// `[addr, addr+size)`.
    pub fn contains_overlap(&self, addr: Addr, size: u64) -> bool {
        if self.tree.overlaps(addr, size) {
            return true;
        }
        let holds_overlap = |meta: &IntervalMeta| {
            meta.overlaps(addr, size)
                && self
                    .array
                    .overlapping_in(meta.start, meta.end, addr, size)
                    .next()
                    .is_some()
        };
        // A short list is cheaper to walk than the line index is to probe,
        // and a zero-size store covers no line, so the index cannot find it.
        if self.intervals.len() <= SCAN_INTERVALS_MAX || self.array_zero_size > 0 {
            return self.intervals.intervals().iter().any(holds_overlap);
        }
        // Two ranges overlap only on a line both cover (for a zero-size
        // probe, the line holding `addr`), so only the intervals that stored
        // to the probed lines can hold an overlapping element: the check
        // stays O(1) per store however many CLF intervals the fence
        // interval holds.
        self.intervals
            .line_candidates(addr, size.max(1))
            .any(holds_overlap)
    }

    /// §4.3: processes a CLF persisting `[addr, addr+size)`.
    pub fn on_flush(&mut self, addr: Addr, size: u64) -> FlushOutcome {
        self.version += 1;
        let mut outcome = FlushOutcome::default();

        // Array first, at CLF-interval granularity. Only intervals that
        // stored to the flushed lines can change state (the line index
        // keeps huge transactions linear).
        for i in self.intervals.candidates(addr, size) {
            let meta = self.intervals.intervals()[i];
            if !meta.overlaps(addr, size) {
                continue;
            }
            if meta.covered_by(addr, size) {
                // Collective update: one state flip for the whole interval.
                let elements = meta.end - meta.start + 1;
                match meta.state {
                    IntervalState::AllFlushed => outcome.already_flushed += elements,
                    IntervalState::NotFlushed => {
                        outcome.newly_flushed += elements;
                        self.intervals.intervals_mut()[i].state = IntervalState::AllFlushed;
                    }
                    IntervalState::PartiallyFlushed => {
                        // Elements carry their own states; settle individually.
                        let (newly, already) =
                            self.flush_elements(meta.start, meta.end, addr, size);
                        outcome.newly_flushed += newly;
                        outcome.already_flushed += already;
                        self.intervals.intervals_mut()[i].state = IntervalState::AllFlushed;
                    }
                }
            } else {
                // Partial overlap: examine elements individually (§4.3).
                match meta.state {
                    IntervalState::AllFlushed => {
                        // Everything already flushed; covered elements are
                        // redundant hits.
                        let hits = self
                            .array
                            .overlapping_in(meta.start, meta.end, addr, size)
                            .count();
                        outcome.already_flushed += hits;
                    }
                    _ => {
                        let (newly, already) =
                            self.flush_elements(meta.start, meta.end, addr, size);
                        outcome.newly_flushed += newly;
                        outcome.already_flushed += already;
                        if newly + already > 0 {
                            self.intervals.intervals_mut()[i].state =
                                IntervalState::PartiallyFlushed;
                        }
                    }
                }
            }
        }

        // Then the tree (§4.3: "After updating the flushing states in the
        // array, PMDebugger traverses the AVL tree").
        let (mut newly, mut already) = (0, 0);
        let mut splits = 0;
        self.tree.update_overlapping(addr, size, |record| {
            if record.state == FlushState::Flushed {
                already += 1;
                return SmallReplacement::One(record);
            }
            newly += 1;
            let replacement =
                split_against_flush(record, addr, addr.saturating_add(size), FlushState::Flushed);
            if !matches!(replacement, SmallReplacement::One(_)) {
                splits += 1;
            }
            replacement
        });
        self.stats.splits += splits;
        outcome.newly_flushed += newly;
        outcome.already_flushed += already;

        // §4.3: after updating states, a new CLF interval begins.
        self.intervals.close_current();
        outcome
    }

    /// Per-element flush processing inside `[start, end]`, splitting
    /// partially covered elements (the uncovered sub-range moves to the
    /// tree, §4.3).
    fn flush_elements(
        &mut self,
        start: usize,
        end: usize,
        addr: Addr,
        size: u64,
    ) -> (usize, usize) {
        let mut newly = 0;
        let mut already = 0;
        let f_end = addr.saturating_add(size);
        for idx in start..=end.min(self.array.len().saturating_sub(1)) {
            let entry = match self.array.get(idx) {
                Some(e) if e.overlaps(addr, size) => *e,
                _ => continue,
            };
            if entry.state == FlushState::Flushed {
                already += 1;
                continue;
            }
            if entry.contained_in(addr, size) {
                self.array.get_mut(idx).expect("index valid").state = FlushState::Flushed;
                newly += 1;
            } else {
                // Split: the covered sub-range stays in the array (flushed),
                // every uncovered sub-range goes to the tree (§4.3).
                newly += 1;
                self.stats.splits += 1;
                let e_end = entry.end();
                let cov_lo = entry.addr.max(addr);
                let cov_hi = e_end.min(f_end);
                {
                    let slot = self.array.get_mut(idx).expect("index valid");
                    slot.addr = cov_lo;
                    slot.size = cov_hi - cov_lo;
                    slot.state = FlushState::Flushed;
                }
                for (rem_lo, rem_hi) in [(entry.addr, cov_lo), (cov_hi, e_end)] {
                    if rem_lo < rem_hi {
                        self.tree.insert(TreeRecord {
                            addr: rem_lo,
                            size: rem_hi - rem_lo,
                            state: FlushState::NotFlushed,
                            in_epoch: entry.in_epoch,
                            store_seq: entry.store_seq,
                        });
                    }
                }
            }
        }
        (newly, already)
    }

    /// §4.4: processes a fence.
    ///
    /// Tree first (smaller tree accelerates the insertions that follow),
    /// then the array: flushed intervals are invalidated wholesale, flushed
    /// elements dropped, surviving unflushed elements migrated to the tree.
    /// Ends the fence interval.
    pub fn on_fence(&mut self) -> FenceOutcome {
        self.version += 1;
        let mut outcome = FenceOutcome::default();

        // 1. Tree: remove persisted records (skipped outright when the
        // flushed counter is zero — the common case).
        outcome.persisted += self.tree.drain_flushed();

        // 2. Array, via interval metadata.
        for meta in self.intervals.intervals() {
            match meta.state {
                IntervalState::AllFlushed => {
                    // Collective O(1) deletion: metadata invalidation only.
                    outcome.persisted += meta.end - meta.start + 1;
                }
                IntervalState::NotFlushed | IntervalState::PartiallyFlushed => {
                    for idx in meta.start..=meta.end.min(self.array.len().saturating_sub(1)) {
                        let entry = *self.array.get(idx).expect("interval indexes valid");
                        match entry.state {
                            FlushState::Flushed => outcome.persisted += 1,
                            FlushState::NotFlushed => {
                                self.tree.insert(TreeRecord {
                                    addr: entry.addr,
                                    size: entry.size,
                                    state: FlushState::NotFlushed,
                                    in_epoch: entry.in_epoch,
                                    store_seq: entry.store_seq,
                                });
                                outcome.migrated_to_tree += 1;
                            }
                        }
                    }
                }
            }
        }
        self.stats.migrations += outcome.migrated_to_tree as u64;

        // 3. Clear metadata and array; merge tree only above threshold.
        self.intervals.clear();
        self.array.clear();
        self.array_epoch = 0;
        self.array_zero_size = 0;
        self.tree.maybe_merge(self.merge_threshold);

        outcome.tree_nodes_after = self.tree.len();
        self.stats.fence_intervals += 1;
        self.stats.tree_node_sum += self.tree.len() as u64;
        outcome
    }

    /// Snapshot of every tracked-but-not-durable location (for the
    /// no-durability end-of-program rule, epoch checks and crash snapshots).
    pub fn residuals(&self) -> Vec<Residual> {
        let mut out = Vec::new();
        for record in self.tree.to_sorted_vec() {
            out.push(Residual {
                addr: record.addr,
                size: record.size,
                state: record.state,
                in_epoch: record.in_epoch,
                store_seq: record.store_seq,
            });
        }
        for meta in self.intervals.intervals() {
            for idx in meta.start..=meta.end.min(self.array.len().saturating_sub(1)) {
                if let Some(entry) = self.array.get(idx) {
                    out.push(Residual {
                        addr: entry.addr,
                        size: entry.size,
                        state: Self::effective_state(entry, meta.state),
                        in_epoch: entry.in_epoch,
                        store_seq: entry.store_seq,
                    });
                }
            }
        }
        out
    }

    /// Whether any tracked location carries the epoch flag (fast check for
    /// the epoch-end rules).
    pub fn has_epoch_entries(&self) -> bool {
        self.array_epoch > 0 || self.tree.epoch_len() > 0
    }

    /// Clears the epoch flag on every tracked location (after an epoch-end
    /// check, so the next epoch's check starts clean).
    pub fn clear_epoch_flags(&mut self) {
        self.version += 1;
        if self.array_epoch > 0 {
            for entry in self.array.entries_mut() {
                entry.in_epoch = false;
            }
            self.array_epoch = 0;
        }
        self.tree.clear_epoch_flags();
    }

    /// Drops every tracked location (used when a simulated crash wipes
    /// volatile state).
    pub fn reset(&mut self) {
        self.version += 1;
        self.array.clear();
        self.intervals.clear();
        self.array_epoch = 0;
        self.array_zero_size = 0;
        self.tree = AvlTree::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn space() -> BookkeepingSpace {
        BookkeepingSpace::new(1024, 500)
    }

    #[test]
    fn store_then_covering_flush_then_fence_clears_everything() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_store(8, 8, false, 1, false);
        let flush = s.on_flush(0, 64);
        assert_eq!(flush.newly_flushed, 2);
        assert!(flush.any_hit());
        let fence = s.on_fence();
        assert_eq!(fence.persisted, 2);
        assert_eq!(fence.migrated_to_tree, 0);
        assert!(s.residuals().is_empty());
    }

    #[test]
    fn unflushed_store_migrates_to_tree_at_fence() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        let fence = s.on_fence();
        assert_eq!(fence.migrated_to_tree, 1);
        assert_eq!(s.tree_len(), 1);
        let residuals = s.residuals();
        assert_eq!(residuals.len(), 1);
        assert_eq!(residuals[0].state, FlushState::NotFlushed);
    }

    #[test]
    fn flush_after_migration_hits_tree() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_fence();
        let flush = s.on_flush(0, 64);
        assert_eq!(flush.newly_flushed, 1);
        let fence = s.on_fence();
        assert_eq!(fence.persisted, 1);
        assert!(s.residuals().is_empty());
    }

    #[test]
    fn redundant_flush_detected_via_outcome() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_flush(0, 64);
        let second = s.on_flush(0, 64);
        assert_eq!(second.newly_flushed, 0);
        assert_eq!(second.already_flushed, 1);
    }

    #[test]
    fn flush_nothing_reports_no_hit() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        let miss = s.on_flush(128, 64);
        assert!(!miss.any_hit());
    }

    #[test]
    fn overlap_detection_covers_array_and_tree() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        assert!(s.contains_overlap(4, 2));
        assert!(!s.contains_overlap(64, 8));
        s.on_fence(); // migrate to tree
        assert!(s.contains_overlap(4, 2));
    }

    #[test]
    fn multiple_overwrite_outcome() {
        let mut s = space();
        let first = s.on_store(0, 8, false, 0, true);
        assert!(!first.already_tracked);
        let second = s.on_store(4, 8, false, 1, true);
        assert!(second.already_tracked);
    }

    #[test]
    fn overwrite_not_flagged_after_durability() {
        let mut s = space();
        s.on_store(0, 8, false, 0, true);
        s.on_flush(0, 64);
        s.on_fence();
        let next = s.on_store(0, 8, false, 2, true);
        assert!(!next.already_tracked);
    }

    #[test]
    fn array_spill_goes_to_tree() {
        let mut s = BookkeepingSpace::new(2, 500);
        s.on_store(0, 8, false, 0, false);
        s.on_store(64, 8, false, 1, false);
        let third = s.on_store(128, 8, false, 2, false);
        assert!(third.spilled_to_tree);
        assert_eq!(s.tree_len(), 1);
        assert_eq!(s.stats().array_spills, 1);
        // All three still tracked.
        assert!(s.contains_overlap(128, 8));
    }

    #[test]
    fn partial_flush_splits_array_element() {
        let mut s = space();
        // A 128-byte object spanning two lines.
        s.on_store(0, 128, false, 0, false);
        let flush = s.on_flush(0, 64); // only the first line
        assert_eq!(flush.newly_flushed, 1);
        // The uncovered half moved to the tree.
        assert_eq!(s.tree_len(), 1);
        let fence = s.on_fence();
        assert_eq!(fence.persisted, 1); // the covered half
        let residuals = s.residuals();
        assert_eq!(residuals.len(), 1);
        assert_eq!(residuals[0].addr, 64);
        assert_eq!(residuals[0].size, 64);
    }

    #[test]
    fn partial_flush_of_records_ending_past_u64_max_saturates() {
        let lo = u64::MAX - 63;
        let mut s = space();
        s.on_store(lo, 128, false, 0, false);
        assert_eq!(s.on_flush(lo, 32).newly_flushed, 1); // array element
        assert_eq!(s.on_fence().persisted, 1);
        let residuals = s.residuals();
        assert_eq!((residuals[0].addr, residuals[0].size), (lo + 32, 31));

        let mut s = space();
        s.on_store(lo, 128, false, 0, false);
        assert_eq!(s.on_fence().migrated_to_tree, 1);
        assert_eq!(s.on_flush(lo + 32, 8).newly_flushed, 1); // tree record
        assert_eq!(s.on_fence().persisted, 1);
        let kept: Vec<_> = s.residuals().iter().map(|r| (r.addr, r.size)).collect();
        assert_eq!(kept, vec![(lo, 32), (lo + 40, 23)]);
    }

    #[test]
    fn partial_flush_splits_tree_record() {
        let mut s = space();
        s.on_store(0, 128, false, 0, false);
        s.on_fence(); // migrate unflushed to tree
        let flush = s.on_flush(64, 64); // second line only
        assert_eq!(flush.newly_flushed, 1);
        let fence = s.on_fence();
        assert_eq!(fence.persisted, 1);
        let residuals = s.residuals();
        assert_eq!(residuals.len(), 1);
        assert_eq!((residuals[0].addr, residuals[0].size), (0, 64));
    }

    #[test]
    fn collective_interval_state_implies_flushed_residuals() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_store(8, 8, false, 1, false);
        s.on_flush(0, 64); // collective: element states untouched
        let residuals = s.residuals();
        assert!(residuals.iter().all(|r| r.state == FlushState::Flushed));
    }

    #[test]
    fn second_interval_not_affected_by_first_interval_flush() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_flush(0, 64); // closes interval 0
        s.on_store(64, 8, false, 2, false); // interval 1
        let fence = s.on_fence();
        assert_eq!(fence.persisted, 1);
        assert_eq!(fence.migrated_to_tree, 1);
    }

    #[test]
    fn fence_samples_tree_size() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_fence();
        s.on_store(64, 8, false, 2, false);
        s.on_fence();
        let stats = s.stats();
        assert_eq!(stats.fence_intervals, 2);
        assert_eq!(stats.tree_node_sum, 1 + 2);
        assert!((stats.avg_tree_nodes() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn epoch_flags_tracked_and_clearable() {
        let mut s = space();
        s.on_store(0, 8, true, 0, false);
        s.on_store(64, 8, false, 1, false);
        let epoch_residuals: Vec<_> = s.residuals().into_iter().filter(|r| r.in_epoch).collect();
        assert_eq!(epoch_residuals.len(), 1);
        s.clear_epoch_flags();
        assert!(s.residuals().iter().all(|r| !r.in_epoch));
    }

    #[test]
    fn reset_drops_all_state() {
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_fence();
        s.on_store(64, 8, false, 2, false);
        s.reset();
        assert!(s.residuals().is_empty());
        assert_eq!(s.tree_len(), 0);
        assert_eq!(s.array_len(), 0);
    }

    #[test]
    fn flush_of_second_store_same_line_after_flush() {
        // store A; clwb A; store A' (same line); clwb A' — the second CLF is
        // not redundant for A' (its state was NotFlushed).
        let mut s = space();
        s.on_store(0, 8, false, 0, false);
        s.on_flush(0, 64);
        s.on_store(8, 8, false, 2, false);
        let second = s.on_flush(0, 64);
        assert_eq!(second.newly_flushed, 1);
        assert_eq!(second.already_flushed, 1); // the first store re-covered
    }

    /// The overlap check before the line index: every CLF interval of the
    /// fence interval is examined.
    fn contains_overlap_by_scan(s: &BookkeepingSpace, addr: Addr, size: u64) -> bool {
        s.tree.overlaps(addr, size)
            || s.intervals.intervals().iter().any(|meta| {
                meta.overlaps(addr, size)
                    && s.array
                        .overlapping_in(meta.start, meta.end, addr, size)
                        .next()
                        .is_some()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The line-indexed overlap check answers exactly what the full scan
        /// answers, across zero-size stores and probes, partial flushes,
        /// array spills and a checkpoint round trip.
        #[test]
        fn indexed_overlap_check_matches_full_scan(
            ops in proptest::collection::vec(
                (0u8..4, 0u64..512, 0u64..140), 1..200),
            reload_at in 0usize..200,
        ) {
            let mut s = BookkeepingSpace::new(16, 500);
            for (i, &(op, addr, len)) in ops.iter().enumerate() {
                if i == reload_at {
                    let mut w = CkptWriter::new();
                    s.encode_into(&mut w);
                    let bytes = w.into_bytes();
                    s = BookkeepingSpace::decode_from(&mut CkptReader::new(&bytes))
                        .expect("decodes");
                }
                match op {
                    0 => {
                        s.on_store(addr, len % 24, false, i as u64, false);
                    }
                    1 => {
                        s.on_flush(addr, len);
                    }
                    2 if len < 20 => {
                        s.on_fence();
                    }
                    _ => {}
                }
                for (a, l) in [(addr, len), (addr, 0), (addr ^ 0x40, len % 8)] {
                    prop_assert_eq!(
                        s.contains_overlap(a, l),
                        contains_overlap_by_scan(&s, a, l),
                        "probe [{:#x}, +{}) after op #{}", a, l, i
                    );
                }
            }
        }
    }
}
