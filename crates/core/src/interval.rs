//! CLF-interval metadata (paper §4.1, Figure 5 right).
//!
//! Store instructions between two neighbouring CLF instructions form a CLF
//! interval. Per interval PMDebugger keeps: the array index range of its
//! stores, the min/max address of the locations it updated, and a collective
//! flushing state. The metadata enables collective O(1) state updates when a
//! single CLF covers the whole interval (pattern 2) and collective O(1)
//! deletion at fences (pattern 1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pm_trace::Addr;

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};

/// A multiplicative hasher for cache-line addresses (already well-mixed
/// keys); the store path runs once per store, so SipHash would dominate it.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type LineMap = HashMap<Addr, Vec<usize>, BuildHasherDefault<LineHasher>>;

/// Collective flushing state of a CLF interval (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntervalState {
    /// No location updated in the interval has been flushed.
    NotFlushed,
    /// Some but not all locations have been flushed.
    PartiallyFlushed,
    /// Every location updated in the interval has been flushed.
    AllFlushed,
}

/// Metadata for one CLF interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalMeta {
    /// Array index of the interval's first store.
    pub start: usize,
    /// Array index of the interval's last store (inclusive).
    pub end: usize,
    /// Minimum address updated in the interval.
    pub min_addr: Addr,
    /// One past the maximum address updated in the interval.
    pub max_end: Addr,
    /// Collective flushing state.
    pub state: IntervalState,
}

impl IntervalMeta {
    /// Returns `true` when `[addr, addr+len)` covers the interval's whole
    /// address range.
    #[inline]
    pub fn covered_by(&self, addr: Addr, len: u64) -> bool {
        addr <= self.min_addr
            && self.min_addr < self.max_end
            && self.max_end <= addr.saturating_add(len)
    }

    /// Returns `true` when `[addr, addr+len)` overlaps the interval's
    /// address range at all.
    #[inline]
    pub fn overlaps(&self, addr: Addr, len: u64) -> bool {
        self.min_addr < addr.saturating_add(len) && addr < self.max_end
    }
}

/// The per-fence-interval list of CLF-interval metadata.
///
/// The paper uses a linked list; a `Vec` preserves the same access pattern
/// (append at tail, in-order traversal, wholesale clear at fences) without
/// pointer chasing.
#[derive(Debug, Clone, Default)]
pub struct IntervalList {
    intervals: Vec<IntervalMeta>,
    /// Whether the tail interval is still accepting stores (no CLF seen
    /// since its first store).
    open: bool,
    /// Cache line → intervals that stored to it. CLF processing visits only
    /// the intervals whose stores the flush can actually touch, keeping
    /// giant transactions (thousands of CLF intervals per fence interval,
    /// e.g. a hashmap rehash) linear instead of quadratic. An interval's
    /// bounding box can only be covered by a flush that also covers its
    /// store lines, so the index loses no state transitions.
    line_map: LineMap,
    /// Total slots across all `line_map` values, maintained incrementally
    /// so memory accounting never walks the map.
    line_slots: usize,
}

impl IntervalList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a store at array index `idx` updating `[addr, addr+size)`.
    ///
    /// Opens a new interval if the previous one was closed by a CLF.
    pub fn record_store(&mut self, idx: usize, addr: Addr, size: u64) {
        let end_addr = addr.saturating_add(size);
        if self.open {
            let tail = self
                .intervals
                .last_mut()
                .expect("open flag implies a tail interval");
            tail.end = idx;
            tail.min_addr = tail.min_addr.min(addr);
            tail.max_end = tail.max_end.max(end_addr);
        } else {
            self.intervals.push(IntervalMeta {
                start: idx,
                end: idx,
                min_addr: addr,
                max_end: end_addr,
                state: IntervalState::NotFlushed,
            });
            self.open = true;
        }
        let interval_idx = self.intervals.len() - 1;
        for line in pmem_sim::lines_covering(addr, size as usize) {
            let slots = self.line_map.entry(line).or_default();
            if slots.last() != Some(&interval_idx) {
                slots.push(interval_idx);
                self.line_slots += 1;
            }
        }
    }

    /// Indices of intervals that stored to any line of `[addr, addr+len)`,
    /// ascending and deduplicated.
    pub fn candidates(&self, addr: Addr, len: u64) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for line in pmem_sim::lines_covering(addr, len as usize) {
            if let Some(slots) = self.line_map.get(&line) {
                out.extend_from_slice(slots);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Intervals that stored to any line of `[addr, addr+len)`, unordered
    /// and possibly repeated: the allocation-free form of
    /// [`candidates`](Self::candidates) for existence checks.
    pub(crate) fn line_candidates(
        &self,
        addr: Addr,
        len: u64,
    ) -> impl Iterator<Item = &IntervalMeta> {
        pmem_sim::lines_covering(addr, len as usize)
            .filter_map(|line| self.line_map.get(&line))
            .flatten()
            .map(|&i| &self.intervals[i])
    }

    /// Closes the current interval: the next store starts a new one.
    /// Called when processing a CLF (§4.3: "PMDebugger starts a new CLF
    /// interval").
    pub fn close_current(&mut self) {
        self.open = false;
    }

    /// The recorded intervals in order.
    pub fn intervals(&self) -> &[IntervalMeta] {
        &self.intervals
    }

    /// Mutable access to the recorded intervals.
    pub fn intervals_mut(&mut self) -> &mut [IntervalMeta] {
        &mut self.intervals
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Removes all metadata (end of fence interval, §4.4).
    pub fn clear(&mut self) {
        self.intervals.clear();
        self.line_map.clear();
        self.line_slots = 0;
        self.open = false;
    }

    /// Heap bytes held by the interval metadata and the line index.
    pub fn tracked_bytes(&self) -> u64 {
        let intervals = self.intervals.capacity() * std::mem::size_of::<IntervalMeta>();
        // One map entry per line (key + Vec header) plus the slot storage.
        let map_entries =
            self.line_map.len() * (std::mem::size_of::<Addr>() + std::mem::size_of::<Vec<usize>>());
        let slots = self.line_slots * std::mem::size_of::<usize>();
        (intervals + map_entries + slots) as u64
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        w.bool(self.open);
        w.usize(self.intervals.len());
        for meta in &self.intervals {
            w.usize(meta.start);
            w.usize(meta.end);
            w.varint(meta.min_addr);
            w.varint(meta.max_end);
            w.u8(match meta.state {
                IntervalState::NotFlushed => 0,
                IntervalState::PartiallyFlushed => 1,
                IntervalState::AllFlushed => 2,
            });
        }
        // The line map cannot be reconstructed from the intervals (flush
        // splits rewrite entry ranges after the map was populated from the
        // original store arguments), so it travels explicitly — in sorted
        // line order for a deterministic encoding.
        let lines = ckpt::sorted_entries(&self.line_map);
        w.usize(lines.len());
        for (line, slots) in lines {
            w.varint(*line);
            w.usize(slots.len());
            for slot in slots {
                w.usize(*slot);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let open = r.bool()?;
        let interval_count = r.count()?;
        if open && interval_count == 0 {
            return Err(ckpt::corrupt("interval list open with no tail interval"));
        }
        let mut intervals = Vec::with_capacity(interval_count.min(4096));
        for _ in 0..interval_count {
            let start = r.varint()? as usize;
            let end = r.varint()? as usize;
            let min_addr = r.varint()?;
            let max_end = r.varint()?;
            let state = match r.u8()? {
                0 => IntervalState::NotFlushed,
                1 => IntervalState::PartiallyFlushed,
                2 => IntervalState::AllFlushed,
                b => {
                    return Err(ckpt::corrupt(format!(
                        "invalid interval-state byte {b:#04x}"
                    )))
                }
            };
            intervals.push(IntervalMeta {
                start,
                end,
                min_addr,
                max_end,
                state,
            });
        }
        let line_count = r.count()?;
        let mut line_map = LineMap::default();
        let mut line_slots = 0;
        for _ in 0..line_count {
            let line = r.varint()?;
            let slot_count = r.count()?;
            let mut slots = Vec::with_capacity(slot_count.min(4096));
            for _ in 0..slot_count {
                let slot = r.varint()? as usize;
                if slot >= intervals.len() {
                    return Err(ckpt::corrupt(format!(
                        "line-map slot {slot} references a missing interval"
                    )));
                }
                slots.push(slot);
            }
            line_slots += slots.len();
            line_map.insert(line, slots);
        }
        Ok(IntervalList {
            intervals,
            open,
            line_map,
            line_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_accumulate_into_open_interval() {
        let mut list = IntervalList::new();
        list.record_store(0, 100, 8);
        list.record_store(1, 50, 4);
        list.record_store(2, 200, 16);
        assert_eq!(list.len(), 1);
        let meta = list.intervals()[0];
        assert_eq!(meta.start, 0);
        assert_eq!(meta.end, 2);
        assert_eq!(meta.min_addr, 50);
        assert_eq!(meta.max_end, 216);
    }

    #[test]
    fn clf_closes_interval_and_next_store_opens_new() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.close_current();
        list.record_store(1, 64, 8);
        assert_eq!(list.len(), 2);
        assert_eq!(list.intervals()[1].start, 1);
    }

    #[test]
    fn covered_by_requires_full_containment() {
        let mut list = IntervalList::new();
        list.record_store(0, 10, 10);
        list.record_store(1, 30, 10);
        let meta = list.intervals()[0];
        assert!(meta.covered_by(0, 64));
        assert!(meta.covered_by(10, 30));
        assert!(!meta.covered_by(10, 20));
        assert!(!meta.covered_by(15, 64));
    }

    #[test]
    fn overlaps_is_partial() {
        let mut list = IntervalList::new();
        list.record_store(0, 100, 50);
        let meta = list.intervals()[0];
        assert!(meta.overlaps(140, 20));
        assert!(meta.overlaps(0, 101));
        assert!(!meta.overlaps(0, 100));
        assert!(!meta.overlaps(150, 10));
    }

    #[test]
    fn clear_resets_everything() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.clear();
        assert!(list.is_empty());
        list.record_store(5, 64, 8);
        assert_eq!(list.intervals()[0].start, 5);
    }

    #[test]
    fn candidates_index_finds_storing_intervals() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8); // interval 0: line 0
        list.close_current();
        list.record_store(1, 128, 8); // interval 1: line 128
        list.close_current();
        list.record_store(2, 8, 8); // interval 2: line 0 again
        assert_eq!(list.candidates(0, 64), vec![0, 2]);
        assert_eq!(list.candidates(128, 8), vec![1]);
        assert!(list.candidates(256, 64).is_empty());
        assert_eq!(list.candidates(0, 256), vec![0, 1, 2]);
    }

    #[test]
    fn candidates_cleared_with_list() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.clear();
        assert!(list.candidates(0, 64).is_empty());
    }

    #[test]
    fn consecutive_clfs_do_not_create_empty_intervals() {
        let mut list = IntervalList::new();
        list.record_store(0, 0, 8);
        list.close_current();
        list.close_current();
        list.close_current();
        assert_eq!(list.len(), 1);
    }
}
