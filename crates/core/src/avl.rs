//! The AVL tree half of the bookkeeping space (paper §4.1, §4.4).
//!
//! Tracks memory locations whose durability is not guaranteed in the short
//! term (they survived one or more fences). Nodes are keyed by start
//! address and augmented with the subtree's maximum end address so overlap
//! queries prune correctly (an interval-tree AVL).
//!
//! Fences and epoch ends edit nodes in place. Node merging — combining
//! adjacent records into one covering a larger range, which traditional
//! tools do eagerly — is the only rebuild, and runs only when the node
//! count exceeds a threshold (500 in the paper), because merging comes
//! with tree restructuring cost (§4.4).

use std::cmp::Ordering;

use pm_trace::Addr;

use crate::array::FlushState;
use crate::ckpt::{CheckpointDecodeError, CkptReader, CkptWriter};

/// A tracked memory location stored in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeRecord {
    /// Start address.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Flush state since the last store to the range.
    pub state: FlushState,
    /// Whether the originating store was inside an epoch section.
    pub in_epoch: bool,
    /// Event sequence number of the originating store.
    pub store_seq: u64,
}

impl TreeRecord {
    fn end(&self) -> Addr {
        self.addr.saturating_add(self.size)
    }
}

#[derive(Debug, Clone)]
struct Node {
    record: TreeRecord,
    height: i32,
    /// Maximum `end()` over this subtree (interval-tree augmentation).
    max_end: Addr,
    /// Whether this subtree holds a flushed record (steers the fence drain).
    any_flushed: bool,
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
}

impl Node {
    fn new(record: TreeRecord) -> Box<Node> {
        let max_end = record.end();
        Box::new(Node {
            record,
            height: 1,
            max_end,
            any_flushed: record.state == FlushState::Flushed,
            left: None,
            right: None,
        })
    }

    fn update(&mut self) {
        let lh = self.left.as_ref().map_or(0, |n| n.height);
        let rh = self.right.as_ref().map_or(0, |n| n.height);
        self.height = lh.max(rh) + 1;
        self.max_end = self
            .record
            .end()
            .max(self.left.as_ref().map_or(0, |n| n.max_end))
            .max(self.right.as_ref().map_or(0, |n| n.max_end));
        self.any_flushed = self.flushed_below();
    }

    fn flushed_below(&self) -> bool {
        let child = |c: &Option<Box<Node>>| c.as_ref().is_some_and(|n| n.any_flushed);
        self.record.state == FlushState::Flushed || child(&self.left) || child(&self.right)
    }

    fn balance_factor(&self) -> i32 {
        self.left.as_ref().map_or(0, |n| n.height) - self.right.as_ref().map_or(0, |n| n.height)
    }
}

/// Counters describing tree maintenance work (used by Figure 11 and the
/// §7.5 "key insight" numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeOpStats {
    /// Rotations performed while balancing.
    pub rotations: u64,
    /// Node-merge reorganizations performed.
    pub merges: u64,
    /// Nodes inserted over the tree's lifetime.
    pub inserts: u64,
    /// Nodes removed over the tree's lifetime.
    pub removals: u64,
}

/// An AVL tree of memory-location records with interval-overlap queries and
/// threshold-gated node merging.
///
/// # Example
///
/// ```
/// use pmdebugger::avl::{AvlTree, TreeRecord};
/// use pmdebugger::FlushState;
///
/// let mut tree = AvlTree::new();
/// tree.insert(TreeRecord {
///     addr: 0x40,
///     size: 8,
///     state: FlushState::NotFlushed,
///     in_epoch: false,
///     store_seq: 0,
/// });
/// assert!(tree.overlaps(0x44, 2));
/// assert!(!tree.overlaps(0x48, 8));
/// ```
///
/// Two derived counters — flushed records and in-epoch records — let the
/// fence and epoch-end paths skip whole-tree sweeps when nothing matches
/// (the common case once most records die at the nearest fence).
#[derive(Debug, Clone, Default)]
pub struct AvlTree {
    root: Option<Box<Node>>,
    len: usize,
    flushed_len: usize,
    epoch_len: usize,
    stats: TreeOpStats,
}

impl AvlTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held by the tree's nodes (one boxed `Node` per record).
    pub fn tracked_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<Node>()) as u64
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 when empty).
    pub fn height(&self) -> i32 {
        self.root.as_ref().map_or(0, |n| n.height)
    }

    /// Maintenance counters.
    pub fn stats(&self) -> TreeOpStats {
        self.stats
    }

    /// Number of records currently marked [`FlushState::Flushed`].
    pub fn flushed_len(&self) -> usize {
        self.flushed_len
    }

    /// Number of records whose originating store was inside an epoch.
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    fn count_record(&mut self, record: &TreeRecord, delta: isize) {
        if record.state == FlushState::Flushed {
            self.flushed_len = (self.flushed_len as isize + delta) as usize;
        }
        if record.in_epoch {
            self.epoch_len = (self.epoch_len as isize + delta) as usize;
        }
    }

    /// Inserts a record (duplicate start addresses permitted; the new record
    /// goes to the right subtree).
    pub fn insert(&mut self, record: TreeRecord) {
        let root = self.root.take();
        let mut rotations = 0;
        self.root = Some(Self::insert_node(root, record, &mut rotations));
        self.len += 1;
        self.count_record(&record, 1);
        self.stats.inserts += 1;
        self.stats.rotations += rotations;
    }

    fn insert_node(node: Option<Box<Node>>, record: TreeRecord, rotations: &mut u64) -> Box<Node> {
        let mut node = match node {
            None => return Node::new(record),
            Some(node) => node,
        };
        if record.addr < node.record.addr {
            node.left = Some(Self::insert_node(node.left.take(), record, rotations));
        } else {
            node.right = Some(Self::insert_node(node.right.take(), record, rotations));
        }
        Self::rebalance(node, rotations)
    }

    fn rotate_right(mut node: Box<Node>) -> Box<Node> {
        let mut left = node.left.take().expect("rotate_right requires left child");
        node.left = left.right.take();
        node.update();
        left.right = Some(node);
        left.update();
        left
    }

    fn rotate_left(mut node: Box<Node>) -> Box<Node> {
        let mut right = node.right.take().expect("rotate_left requires right child");
        node.right = right.left.take();
        node.update();
        right.left = Some(node);
        right.update();
        right
    }

    fn rebalance(mut node: Box<Node>, rotations: &mut u64) -> Box<Node> {
        node.update();
        let bf = node.balance_factor();
        if bf > 1 {
            if node
                .left
                .as_ref()
                .expect("bf > 1 implies left")
                .balance_factor()
                < 0
            {
                node.left = Some(Self::rotate_left(node.left.take().expect("checked")));
                *rotations += 1;
            }
            *rotations += 1;
            Self::rotate_right(node)
        } else if bf < -1 {
            if node
                .right
                .as_ref()
                .expect("bf < -1 implies right")
                .balance_factor()
                > 0
            {
                node.right = Some(Self::rotate_right(node.right.take().expect("checked")));
                *rotations += 1;
            }
            *rotations += 1;
            Self::rotate_left(node)
        } else {
            node
        }
    }

    /// Visits every record overlapping `[addr, addr+len)`.
    pub fn for_each_overlapping<F: FnMut(&TreeRecord)>(&self, addr: Addr, len: u64, mut f: F) {
        Self::visit_overlapping(&self.root, addr, addr.saturating_add(len), &mut f);
    }

    fn visit_overlapping<F: FnMut(&TreeRecord)>(
        node: &Option<Box<Node>>,
        lo: Addr,
        hi: Addr,
        f: &mut F,
    ) {
        let Some(node) = node else { return };
        if node.max_end <= lo {
            return; // nothing in this subtree ends after lo
        }
        Self::visit_overlapping(&node.left, lo, hi, f);
        if node.record.addr < hi && node.record.end() > lo {
            f(&node.record);
        }
        if node.record.addr < hi {
            Self::visit_overlapping(&node.right, lo, hi, f);
        }
    }

    /// Returns `true` when any record overlaps `[addr, addr+len)`.
    pub fn overlaps(&self, addr: Addr, len: u64) -> bool {
        let mut found = false;
        self.for_each_overlapping(addr, len, |_| found = true);
        found
    }

    /// Applies `f` to every record overlapping `[addr, addr+len)`; `f`
    /// returns the record's replacement(s): keeping, mutating, splitting or
    /// deleting it. Used when processing CLF instructions (§4.3): fully
    /// covered records are marked flushed, partially covered ones split.
    ///
    /// Returns the number of records `f` was applied to.
    pub fn update_overlapping<F>(&mut self, addr: Addr, len: u64, mut f: F) -> usize
    where
        F: FnMut(TreeRecord) -> SmallReplacement,
    {
        // Collect matches, then rebuild affected entries. Simple and safe;
        // the per-CLF match count is small in practice.
        let mut matched = Vec::new();
        self.for_each_overlapping(addr, len, |r| matched.push(*r));
        let (lo, hi) = (addr, addr.saturating_add(len));
        for _ in &matched {
            // Unlink the first remaining match in address order.
            self.unlink(|n| {
                if n.left.as_ref().is_some_and(|l| l.max_end > lo) {
                    Some(Ordering::Less)
                } else if n.record.addr < hi && n.record.end() > lo {
                    Some(Ordering::Equal)
                } else {
                    (n.record.addr < hi).then_some(Ordering::Greater)
                }
            });
        }
        let count = matched.len();
        for record in matched {
            match f(record) {
                SmallReplacement::Drop => {}
                SmallReplacement::One(a) => self.insert(a),
                SmallReplacement::Two(a, b) => {
                    self.insert(a);
                    self.insert(b);
                }
                SmallReplacement::Three(a, b, c) => {
                    self.insert(a);
                    self.insert(b);
                    self.insert(c);
                }
            }
        }
        count
    }

    /// Unlinks the node `pick` steers to (`Less`/`Greater`: descend, `Equal`:
    /// this one) by standard AVL deletion; the caller guarantees one exists.
    fn unlink<P: Fn(&Node) -> Option<Ordering>>(&mut self, pick: P) {
        let mut removed = None;
        let mut rotations = 0;
        self.root = Self::unlink_node(self.root.take(), &pick, &mut removed, &mut rotations);
        let record = removed.expect("unlink steered to a record the tree holds");
        self.len -= 1;
        self.count_record(&record, -1);
        self.stats.removals += 1;
        self.stats.rotations += rotations;
    }

    fn unlink_node<P: Fn(&Node) -> Option<Ordering>>(
        node: Option<Box<Node>>,
        pick: &P,
        removed: &mut Option<TreeRecord>,
        rotations: &mut u64,
    ) -> Option<Box<Node>> {
        let mut node = node?;
        match pick(&node) {
            None => return Some(node),
            Some(Ordering::Less) => {
                node.left = Self::unlink_node(node.left.take(), pick, removed, rotations);
            }
            Some(Ordering::Greater) => {
                node.right = Self::unlink_node(node.right.take(), pick, removed, rotations);
            }
            Some(Ordering::Equal) => {
                *removed = Some(node.record);
                match (node.left.take(), node.right.take()) {
                    (None, None) => return None,
                    (Some(child), None) | (None, Some(child)) => return Some(child),
                    (Some(left), Some(right)) => {
                        // Take the in-order successor's record.
                        let (successor, right) = Self::pop_min(right, rotations);
                        node.record = successor;
                        node.left = Some(left);
                        node.right = right;
                    }
                }
            }
        }
        Some(Self::rebalance(node, rotations))
    }

    fn pop_min(mut node: Box<Node>, rotations: &mut u64) -> (TreeRecord, Option<Box<Node>>) {
        match node.left.take() {
            None => (node.record, node.right.take()),
            Some(left) => {
                let (min, rest) = Self::pop_min(left, rotations);
                node.left = rest;
                // Rebalance the whole extraction path: removing the minimum
                // can unbalance every ancestor by one.
                (min, Some(Self::rebalance(node, rotations)))
            }
        }
    }

    /// Removes every flushed record (the fence operation, §4.4), unlinking
    /// each flushed node where it sits, steered by the per-subtree flushed
    /// bit. Free when the flushed counter is zero.
    ///
    /// Returns the number of records removed.
    pub fn drain_flushed(&mut self) -> usize {
        let count = self.flushed_len;
        for _ in 0..count {
            self.unlink(|n| {
                if n.left.as_ref().is_some_and(|l| l.any_flushed) {
                    Some(Ordering::Less)
                } else if n.record.state == FlushState::Flushed {
                    Some(Ordering::Equal)
                } else {
                    n.any_flushed.then_some(Ordering::Greater)
                }
            });
        }
        count
    }

    /// Clears the epoch flag on every record in one in-place walk, skipped
    /// when no record carries the flag.
    pub fn clear_epoch_flags(&mut self) {
        fn clear(node: &mut Option<Box<Node>>) {
            if let Some(node) = node {
                node.record.in_epoch = false;
                clear(&mut node.left);
                clear(&mut node.right);
            }
        }
        if self.epoch_len > 0 {
            clear(&mut self.root);
            self.epoch_len = 0;
        }
    }

    /// In-order (address-sorted) snapshot of all records.
    pub fn to_sorted_vec(&self) -> Vec<TreeRecord> {
        let mut out = Vec::with_capacity(self.len);
        Self::in_order(&self.root, &mut out);
        out
    }

    fn in_order(node: &Option<Box<Node>>, out: &mut Vec<TreeRecord>) {
        if let Some(node) = node {
            Self::in_order(&node.left, out);
            out.push(node.record);
            Self::in_order(&node.right, out);
        }
    }

    pub(crate) fn encode_into(&self, w: &mut CkptWriter) {
        let records = self.to_sorted_vec();
        w.usize(records.len());
        for record in &records {
            w.varint(record.addr);
            w.varint(record.size);
            crate::array::encode_flush_state(w, record.state);
            w.bool(record.in_epoch);
            w.varint(record.store_seq);
        }
        w.varint(self.stats.rotations);
        w.varint(self.stats.merges);
        w.varint(self.stats.inserts);
        w.varint(self.stats.removals);
    }

    /// Decodes a tree serialized by `encode_into`. The rebuilt tree is the
    /// balanced form of the same record set; shape differences from the
    /// original are behaviorally invisible (all queries are order- and
    /// shape-insensitive), so byte-identity of detection output holds.
    pub(crate) fn decode_from(r: &mut CkptReader) -> Result<Self, CheckpointDecodeError> {
        let count = r.count()?;
        let mut records = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            let record = TreeRecord {
                addr: r.varint()?,
                size: r.varint()?,
                state: crate::array::decode_flush_state(r)?,
                in_epoch: r.bool()?,
                store_seq: r.varint()?,
            };
            if let Some(prev) = records.last() {
                let prev: &TreeRecord = prev;
                if record.addr < prev.addr {
                    return Err(crate::ckpt::corrupt("tree records are not address-sorted"));
                }
            }
            records.push(record);
        }
        let stats = TreeOpStats {
            rotations: r.varint()?,
            merges: r.varint()?,
            inserts: r.varint()?,
            removals: r.varint()?,
        };
        let mut tree = AvlTree::new();
        tree.rebuild_from_sorted(&records);
        tree.stats = stats;
        Ok(tree)
    }

    fn rebuild_from_sorted(&mut self, records: &[TreeRecord]) {
        self.root = Self::build_balanced(records);
        self.len = records.len();
        self.flushed_len = records
            .iter()
            .filter(|r| r.state == FlushState::Flushed)
            .count();
        self.epoch_len = records.iter().filter(|r| r.in_epoch).count();
    }

    fn build_balanced(records: &[TreeRecord]) -> Option<Box<Node>> {
        if records.is_empty() {
            return None;
        }
        let mid = records.len() / 2;
        let mut node = Node::new(records[mid]);
        node.left = Self::build_balanced(&records[..mid]);
        node.right = Self::build_balanced(&records[mid + 1..]);
        node.update();
        Some(node)
    }

    /// Merges adjacent records with identical state/epoch flags into single
    /// records covering the combined range, but only when the node count
    /// exceeds `threshold` (§4.4; the paper uses 500).
    ///
    /// A pass that coalesces nothing skips the rebuild: the reorganization
    /// cost is only paid when it buys a smaller tree.
    ///
    /// Returns `true` when a merge pass actually reorganized the tree.
    pub fn maybe_merge(&mut self, threshold: usize) -> bool {
        if self.len <= threshold {
            return false;
        }
        let sorted = self.to_sorted_vec();
        let mut merged: Vec<TreeRecord> = Vec::with_capacity(sorted.len());
        for record in sorted {
            match merged.last_mut() {
                Some(last)
                    if last.end() >= record.addr
                        && last.state == record.state
                        && last.in_epoch == record.in_epoch =>
                {
                    let new_end = last.end().max(record.end());
                    last.size = new_end - last.addr;
                    last.store_seq = last.store_seq.max(record.store_seq);
                }
                _ => merged.push(record),
            }
        }
        if merged.len() == self.len {
            return false;
        }
        self.stats.merges += 1;
        self.rebuild_from_sorted(&merged);
        true
    }

    /// Verifies AVL and interval-augmentation invariants (test support).
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        type SubtreeInfo = (i32, Addr, Option<(Addr, Addr)>);
        fn check(node: &Option<Box<Node>>) -> Result<SubtreeInfo, String> {
            let Some(node) = node else {
                return Ok((0, 0, None));
            };
            let (lh, lmax, lrange) = check(&node.left)?;
            let (rh, rmax, rrange) = check(&node.right)?;
            if (lh - rh).abs() > 1 {
                return Err(format!("imbalance at {:#x}", node.record.addr));
            }
            let height = lh.max(rh) + 1;
            if node.height != height {
                return Err(format!("stale height at {:#x}", node.record.addr));
            }
            if let Some((_, lmax_key)) = lrange {
                if lmax_key > node.record.addr {
                    return Err(format!("BST violation (left) at {:#x}", node.record.addr));
                }
            }
            if let Some((rmin_key, _)) = rrange {
                if rmin_key < node.record.addr {
                    return Err(format!("BST violation (right) at {:#x}", node.record.addr));
                }
            }
            let max_end = node.record.end().max(lmax).max(rmax);
            if node.max_end != max_end {
                return Err(format!("stale max_end at {:#x}", node.record.addr));
            }
            if node.any_flushed != node.flushed_below() {
                return Err(format!("stale flushed bit at {:#x}", node.record.addr));
            }
            let min_key = lrange.map_or(node.record.addr, |(lo, _)| lo);
            let max_key = rrange.map_or(node.record.addr, |(_, hi)| hi);
            Ok((height, max_end, Some((min_key, max_key))))
        }
        check(&self.root).map(|_| ())
    }
}

/// Replacement instruction for [`AvlTree::update_overlapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallReplacement {
    /// Remove the record.
    Drop,
    /// Replace the record with one record.
    One(TreeRecord),
    /// Replace the record with two records (a split).
    Two(TreeRecord, TreeRecord),
    /// Replace the record with three records (a middle split: prefix,
    /// covered middle, suffix).
    Three(TreeRecord, TreeRecord, TreeRecord),
}

/// Splits `record` against the flushed range `[f_lo, f_hi)`: the covered
/// part gets `covered_state`, uncovered prefix/suffix keep the original
/// state. Returns the appropriate replacement. The caller guarantees the
/// ranges overlap.
pub fn split_against_flush(
    record: TreeRecord,
    f_lo: u64,
    f_hi: u64,
    covered_state: FlushState,
) -> SmallReplacement {
    let r_lo = record.addr;
    let r_hi = record.end();
    let c_lo = r_lo.max(f_lo);
    let c_hi = r_hi.min(f_hi);
    let mut covered = record;
    covered.addr = c_lo;
    covered.size = c_hi - c_lo;
    covered.state = covered_state;
    let prefix = (r_lo < c_lo).then(|| {
        let mut p = record;
        p.size = c_lo - r_lo;
        p
    });
    let suffix = (c_hi < r_hi).then(|| {
        let mut sfx = record;
        sfx.addr = c_hi;
        sfx.size = r_hi - c_hi;
        sfx
    });
    match (prefix, suffix) {
        (None, None) => SmallReplacement::One(covered),
        (Some(p), None) => SmallReplacement::Two(p, covered),
        (None, Some(sfx)) => SmallReplacement::Two(covered, sfx),
        (Some(p), Some(sfx)) => SmallReplacement::Three(p, covered, sfx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: Addr, size: u64) -> TreeRecord {
        TreeRecord {
            addr,
            size,
            state: FlushState::NotFlushed,
            in_epoch: false,
            store_seq: 0,
        }
    }

    #[test]
    fn insert_and_query_overlap() {
        let mut tree = AvlTree::new();
        tree.insert(rec(0, 8));
        tree.insert(rec(64, 8));
        tree.insert(rec(128, 8));
        assert!(tree.overlaps(4, 4));
        assert!(tree.overlaps(0, 1000));
        assert!(!tree.overlaps(8, 56));
        assert!(!tree.overlaps(136, 100));
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn tree_stays_balanced_on_ascending_inserts() {
        let mut tree = AvlTree::new();
        for i in 0..1000u64 {
            tree.insert(rec(i * 64, 8));
        }
        tree.check_invariants().unwrap();
        assert!(tree.height() <= 12, "height {} too large", tree.height());
    }

    #[test]
    fn tree_stays_balanced_on_descending_inserts() {
        let mut tree = AvlTree::new();
        for i in (0..1000u64).rev() {
            tree.insert(rec(i * 64, 8));
        }
        tree.check_invariants().unwrap();
        assert!(tree.height() <= 12);
    }

    #[test]
    fn duplicate_keys_supported() {
        let mut tree = AvlTree::new();
        tree.insert(rec(64, 8));
        tree.insert(rec(64, 16));
        let mut hits = 0;
        tree.for_each_overlapping(64, 1, |_| hits += 1);
        assert_eq!(hits, 2);
    }

    #[test]
    fn drain_flushed_removes_only_flushed() {
        let mut tree = AvlTree::new();
        for i in 0..10u64 {
            let mut r = rec(i * 64, 8);
            if i % 2 == 0 {
                r.state = FlushState::Flushed;
            }
            tree.insert(r);
        }
        assert_eq!(tree.flushed_len(), 5);
        assert_eq!(tree.drain_flushed(), 5);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.flushed_len(), 0);
        assert_eq!(tree.stats().removals, 5);
        tree.check_invariants().unwrap();
        let kept: Vec<u64> = tree.to_sorted_vec().iter().map(|r| r.addr).collect();
        assert_eq!(kept, vec![64, 192, 320, 448, 576]);
        assert_eq!(tree.drain_flushed(), 0);
    }

    #[test]
    fn update_overlapping_marks_flushed() {
        let mut tree = AvlTree::new();
        tree.insert(rec(0, 8));
        tree.insert(rec(64, 8));
        let touched = tree.update_overlapping(0, 64, |mut r| {
            r.state = FlushState::Flushed;
            SmallReplacement::One(r)
        });
        assert_eq!(touched, 1);
        let sorted = tree.to_sorted_vec();
        assert_eq!(sorted[0].state, FlushState::Flushed);
        assert_eq!(sorted[1].state, FlushState::NotFlushed);
    }

    #[test]
    fn update_overlapping_can_split() {
        let mut tree = AvlTree::new();
        tree.insert(rec(0, 64));
        // Split into flushed [0,32) and unflushed [32,64).
        tree.update_overlapping(0, 32, |r| {
            let mut a = r;
            a.size = 32;
            a.state = FlushState::Flushed;
            let mut b = r;
            b.addr = 32;
            b.size = 32;
            SmallReplacement::Two(a, b)
        });
        assert_eq!(tree.len(), 2);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn update_overlapping_can_drop() {
        let mut tree = AvlTree::new();
        tree.insert(rec(0, 8));
        tree.update_overlapping(0, 8, |_| SmallReplacement::Drop);
        assert!(tree.is_empty());
    }

    #[test]
    fn merge_only_above_threshold() {
        let mut tree = AvlTree::new();
        for i in 0..10u64 {
            tree.insert(rec(i * 8, 8)); // contiguous
        }
        assert!(!tree.maybe_merge(10));
        assert_eq!(tree.len(), 10);
        assert!(tree.maybe_merge(9));
        assert_eq!(tree.len(), 1);
        let merged = tree.to_sorted_vec()[0];
        assert_eq!((merged.addr, merged.size), (0, 80));
        assert_eq!(tree.stats().merges, 1);
    }

    #[test]
    fn merge_respects_state_boundaries() {
        let mut tree = AvlTree::new();
        for i in 0..4u64 {
            let mut r = rec(i * 8, 8);
            if i >= 2 {
                r.state = FlushState::Flushed;
            }
            tree.insert(r);
        }
        tree.maybe_merge(0);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn merge_skips_noncontiguous() {
        let mut tree = AvlTree::new();
        tree.insert(rec(0, 8));
        tree.insert(rec(64, 8));
        tree.maybe_merge(0);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn stats_track_work() {
        let mut tree = AvlTree::new();
        for i in 0..100u64 {
            tree.insert(rec(i * 64, 8));
        }
        let stats = tree.stats();
        assert_eq!(stats.inserts, 100);
        assert!(stats.rotations > 0);
    }

    /// The tree's observable sequence as a sorted `Vec`: an insert lands
    /// at the end of its start-address run, and an update removes every
    /// match, then inserts the replacements in match order.
    #[derive(Default)]
    struct Model(Vec<TreeRecord>);

    impl Model {
        fn insert(&mut self, record: TreeRecord) {
            let at = self.0.partition_point(|r| r.addr <= record.addr);
            self.0.insert(at, record);
        }

        fn matches(&self, lo: Addr, hi: Addr) -> Vec<TreeRecord> {
            let hit = |r: &&TreeRecord| r.addr < hi && r.end() > lo;
            self.0.iter().filter(hit).copied().collect()
        }

        fn update(&mut self, lo: Addr, hi: Addr, f: impl Fn(TreeRecord) -> SmallReplacement) {
            let matched = self.matches(lo, hi);
            self.0.retain(|r| !(r.addr < hi && r.end() > lo));
            for record in matched {
                let replacements = match f(record) {
                    SmallReplacement::Drop => vec![],
                    SmallReplacement::One(a) => vec![a],
                    SmallReplacement::Two(a, b) => vec![a, b],
                    SmallReplacement::Three(a, b, c) => vec![a, b, c],
                };
                replacements.into_iter().for_each(|r| self.insert(r));
            }
        }

        fn merge(&mut self, threshold: usize) {
            if self.0.len() <= threshold {
                return;
            }
            let mut merged: Vec<TreeRecord> = Vec::new();
            for r in self.0.drain(..) {
                match merged.last_mut() {
                    Some(l)
                        if l.end() >= r.addr && (l.state, l.in_epoch) == (r.state, r.in_epoch) =>
                    {
                        l.size = l.end().max(r.end()) - l.addr;
                        l.store_seq = l.store_seq.max(r.store_seq);
                    }
                    _ => merged.push(r),
                }
            }
            self.0 = merged;
        }
    }

    /// The update closures exercised: flip, split, drop-or-flip, and the
    /// bookkeeping space's own flush rule.
    fn replacement(kind: u64, r: TreeRecord, lo: Addr, hi: Addr) -> SmallReplacement {
        let flip = TreeRecord {
            state: FlushState::Flushed,
            ..r
        };
        match kind {
            0 => SmallReplacement::One(flip),
            1 => split_against_flush(r, lo, hi, FlushState::Flushed),
            2 if r.store_seq.is_multiple_of(2) => SmallReplacement::Drop,
            2 => SmallReplacement::One(flip),
            _ if r.state == FlushState::Flushed => SmallReplacement::One(r),
            _ => split_against_flush(r, lo, hi, FlushState::Flushed),
        }
    }

    /// Small addresses collide into start-address runs; the top selectors
    /// sit within 40 bytes of `u64::MAX`, so their ends saturate.
    fn address(sel: u64) -> Addr {
        if sel < 40 {
            sel * 4
        } else {
            u64::MAX - (sel - 40) * 8
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tree_sequence_matches_sorted_vec_model(
            ops in proptest::collection::vec((0u64..10, 0u64..45, 0u64..40, 0u64..4), 1..120)
        ) {
            let mut tree = AvlTree::new();
            let mut model = Model::default();
            for (step, &(op, sel, size, kind)) in ops.iter().enumerate() {
                let (lo, hi) = (address(sel), address(sel).saturating_add(size));
                match op {
                    0..=2 => {
                        let record = TreeRecord {
                            addr: address(sel),
                            size,
                            state: if kind.is_multiple_of(2) { FlushState::NotFlushed } else { FlushState::Flushed },
                            in_epoch: kind >= 2,
                            store_seq: step as u64,
                        };
                        tree.insert(record);
                        model.insert(record);
                    }
                    3..=5 => {
                        let expected = model.matches(lo, hi).len();
                        let count = tree.update_overlapping(lo, size, |r| replacement(kind, r, lo, hi));
                        model.update(lo, hi, |r| replacement(kind, r, lo, hi));
                        prop_assert_eq!(count, expected);
                    }
                    6 => {
                        let expected = model.0.iter().filter(|r| r.state == FlushState::Flushed).count();
                        prop_assert_eq!(tree.drain_flushed(), expected);
                        model.0.retain(|r| r.state != FlushState::Flushed);
                    }
                    7 => {
                        tree.clear_epoch_flags();
                        model.0.iter_mut().for_each(|r| r.in_epoch = false);
                    }
                    8 => {
                        tree.maybe_merge(8);
                        model.merge(8);
                    }
                    _ => {
                        let mut w = CkptWriter::new();
                        tree.encode_into(&mut w);
                        let bytes = w.into_bytes();
                        tree = AvlTree::decode_from(&mut CkptReader::new(&bytes)).expect("decodes");
                    }
                }
                prop_assert_eq!(tree.to_sorted_vec(), model.0.clone(), "after op {} ({:?})", step, ops[step]);
                let mut visited = Vec::new();
                tree.for_each_overlapping(lo, size, |r| visited.push(*r));
                prop_assert_eq!(visited, model.matches(lo, hi));
                prop_assert_eq!(tree.len(), model.0.len());
                let flushed = model.0.iter().filter(|r| r.state == FlushState::Flushed).count();
                prop_assert_eq!(tree.flushed_len(), flushed);
                prop_assert_eq!(tree.epoch_len(), model.0.iter().filter(|r| r.in_epoch).count());
                tree.check_invariants().map_err(TestCaseError::fail)?;
            }
        }
    }

    #[test]
    fn empty_tree_queries() {
        let tree = AvlTree::new();
        assert!(!tree.overlaps(0, u64::MAX));
        assert!(tree.to_sorted_vec().is_empty());
        tree.check_invariants().unwrap();
    }
}
