//! The memory location array (paper §4.1, Figure 5).
//!
//! A fixed-capacity array collecting one entry per store instruction in the
//! current fence interval. Appending is O(1) with no reorganization
//! (pattern 3: stores dominate); wholesale deletion at a fence is metadata
//! invalidation (pattern 1: most locations die at the nearest fence).

use pm_trace::Addr;

use crate::ckpt::{self, CheckpointDecodeError, CkptReader, CkptWriter};

/// Flush state of one tracked memory location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushState {
    /// No CLF covering the location has been seen since its store.
    NotFlushed,
    /// A CLF covering the location has been seen; the location persists at
    /// the next fence.
    Flushed,
}

/// Information collected from one store instruction (Figure 5, left).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocEntry {
    /// Start address of the stored-to location.
    pub addr: Addr,
    /// Location size in bytes.
    pub size: u64,
    /// Whether the location has been covered by a CLF since the store.
    pub state: FlushState,
    /// Whether the store was issued inside an epoch section (§5.1 extension).
    pub in_epoch: bool,
    /// Event sequence number of the originating store (for reports).
    pub store_seq: u64,
}

impl LocEntry {
    /// Returns `true` when this entry overlaps `[addr, addr+len)`.
    #[inline]
    pub fn overlaps(&self, addr: Addr, len: u64) -> bool {
        pm_trace::events::ranges_overlap(self.addr, self.size, addr, len)
    }

    /// Returns `true` when this entry is fully contained in `[addr, addr+len)`.
    #[inline]
    pub fn contained_in(&self, addr: Addr, len: u64) -> bool {
        pm_trace::events::range_contains(addr, len, self.addr, self.size)
    }

    /// One past the last byte, saturating at `u64::MAX`.
    pub(crate) fn end(&self) -> Addr {
        self.addr.saturating_add(self.size)
    }
}

/// The fixed-size memory location array.
///
/// Entries are appended in store order; the array is cleared (O(1)) at each
/// fence. When full, callers spill new locations to the AVL tree instead
/// (§4.1: "In the rare case when the array is not big enough, the new memory
/// locations are added into the AVL tree").
#[derive(Debug, Clone)]
pub struct MemLocArray {
    entries: Vec<LocEntry>,
    capacity: usize,
}

impl MemLocArray {
    /// Creates an array with the given fixed capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "memory location array capacity must be positive"
        );
        MemLocArray {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Attempts to append an entry; returns its index, or `None` when the
    /// array is full (caller spills to the tree).
    pub fn push(&mut self, entry: LocEntry) -> Option<usize> {
        if self.entries.len() >= self.capacity {
            return None;
        }
        self.entries.push(entry);
        Some(self.entries.len() - 1)
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the array is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes held by the backing storage. The array keeps its
    /// allocation across fences (clear is metadata invalidation), so this
    /// is the *allocated* capacity, not the live length.
    pub fn tracked_bytes(&self) -> u64 {
        (self.entries.capacity() * std::mem::size_of::<LocEntry>()) as u64
    }

    /// The valid entries in store order.
    pub fn entries(&self) -> &[LocEntry] {
        &self.entries
    }

    /// Mutable access to the valid entries.
    pub fn entries_mut(&mut self) -> &mut [LocEntry] {
        &mut self.entries
    }

    /// Entry at `index`.
    pub fn get(&self, index: usize) -> Option<&LocEntry> {
        self.entries.get(index)
    }

    /// Mutable entry at `index`.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut LocEntry> {
        self.entries.get_mut(index)
    }

    /// O(1) wholesale invalidation at a fence: the backing storage is kept,
    /// only the valid length is reset (§4.4 "PMDebugger only invalidates the
    /// array metadata and does not delete the array").
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over entries overlapping `[addr, addr+len)` within the index
    /// range `[start, end]` (a CLF interval).
    pub fn overlapping_in(
        &self,
        start: usize,
        end: usize,
        addr: Addr,
        len: u64,
    ) -> impl Iterator<Item = (usize, &LocEntry)> {
        self.entries
            .iter()
            .enumerate()
            .skip(start)
            .take(end.saturating_sub(start) + 1)
            .filter(move |(_, e)| e.overlaps(addr, len))
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        w.usize(self.capacity);
        w.usize(self.entries.len());
        for entry in &self.entries {
            encode_loc_entry(w, entry);
        }
    }

    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let capacity = r.varint()? as usize;
        if capacity == 0 {
            return Err(ckpt::corrupt("memory location array capacity is zero"));
        }
        let count = r.count()?;
        if count > capacity {
            return Err(ckpt::corrupt(format!(
                "array holds {count} entries but capacity is {capacity}"
            )));
        }
        let mut array = MemLocArray::new(capacity);
        for _ in 0..count {
            let entry = decode_loc_entry(r)?;
            array.push(entry).expect("count is within capacity");
        }
        Ok(array)
    }
}

pub(crate) fn encode_flush_state(w: &mut CkptWriter, state: FlushState) {
    w.u8(match state {
        FlushState::NotFlushed => 0,
        FlushState::Flushed => 1,
    });
}

pub(crate) fn decode_flush_state(r: &mut CkptReader) -> Result<FlushState, CheckpointDecodeError> {
    match r.u8()? {
        0 => Ok(FlushState::NotFlushed),
        1 => Ok(FlushState::Flushed),
        b => Err(ckpt::corrupt(format!("invalid flush-state byte {b:#04x}"))),
    }
}

pub(crate) fn encode_loc_entry(w: &mut CkptWriter, entry: &LocEntry) {
    w.varint(entry.addr);
    w.varint(entry.size);
    encode_flush_state(w, entry.state);
    w.bool(entry.in_epoch);
    w.varint(entry.store_seq);
}

pub(crate) fn decode_loc_entry(r: &mut CkptReader) -> Result<LocEntry, CheckpointDecodeError> {
    Ok(LocEntry {
        addr: r.varint()?,
        size: r.varint()?,
        state: decode_flush_state(r)?,
        in_epoch: r.bool()?,
        store_seq: r.varint()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr: Addr, size: u64) -> LocEntry {
        LocEntry {
            addr,
            size,
            state: FlushState::NotFlushed,
            in_epoch: false,
            store_seq: 0,
        }
    }

    #[test]
    fn push_returns_sequential_indexes() {
        let mut arr = MemLocArray::new(4);
        assert_eq!(arr.push(entry(0, 8)), Some(0));
        assert_eq!(arr.push(entry(8, 8)), Some(1));
        assert_eq!(arr.len(), 2);
    }

    #[test]
    fn push_at_capacity_returns_none() {
        let mut arr = MemLocArray::new(2);
        arr.push(entry(0, 8)).unwrap();
        arr.push(entry(8, 8)).unwrap();
        assert!(arr.is_full());
        assert_eq!(arr.push(entry(16, 8)), None);
        assert_eq!(arr.len(), 2);
    }

    #[test]
    fn clear_is_wholesale() {
        let mut arr = MemLocArray::new(8);
        for i in 0..5 {
            arr.push(entry(i * 8, 8)).unwrap();
        }
        arr.clear();
        assert!(arr.is_empty());
        assert_eq!(arr.push(entry(0, 8)), Some(0));
    }

    #[test]
    fn overlap_queries() {
        let e = entry(64, 16);
        assert!(e.overlaps(60, 8));
        assert!(e.overlaps(72, 100));
        assert!(!e.overlaps(0, 64));
        assert!(!e.overlaps(80, 8));
        assert!(e.contained_in(64, 16));
        assert!(e.contained_in(0, 128));
        assert!(!e.contained_in(64, 8));
    }

    #[test]
    fn overlapping_in_respects_interval_bounds() {
        let mut arr = MemLocArray::new(8);
        arr.push(entry(0, 8)).unwrap(); // idx 0
        arr.push(entry(64, 8)).unwrap(); // idx 1
        arr.push(entry(64, 8)).unwrap(); // idx 2
        let hits: Vec<usize> = arr.overlapping_in(1, 2, 64, 8).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![1, 2]);
        let hits: Vec<usize> = arr.overlapping_in(0, 0, 64, 8).map(|(i, _)| i).collect();
        assert!(hits.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        MemLocArray::new(0);
    }
}
