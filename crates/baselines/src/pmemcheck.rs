//! The Pmemcheck-like baseline: tree-only bookkeeping with eager
//! reorganization.
//!
//! Pmemcheck (Intel's Valgrind tool) organizes every tracked store into a
//! tree keyed by address and reorganizes it from time to time — merging
//! neighbouring records — to keep searches fast (paper §2.2). That strategy
//! ignores the PM program patterns: most records die at the nearest fence,
//! so tree insertion and reorganization cost is rarely amortized (§3,
//! inspiration from pattern 1). This detector reproduces that architecture:
//!
//! * every store inserts into the AVL tree immediately (no staging array);
//! * every CLF searches the tree and updates per-record states;
//! * every fence sweeps the tree and rebuilds it;
//! * merging runs eagerly (every fence), not behind a threshold.
//!
//! Detected bug types (Table 6): no-durability-guarantee,
//! multiple-overwrites, redundant-flushes, flush-nothing.

use pm_trace::{Addr, BugKind, BugReport, Detector, PmEventRef};
use pmdebugger::avl::{split_against_flush, AvlTree, SmallReplacement, TreeRecord};
use pmdebugger::FlushState;

/// Bookkeeping statistics for the Pmemcheck-like detector (for the §7.5
/// reorganization comparison and Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmemcheckStats {
    /// Fences processed.
    pub fences: u64,
    /// Sum of tree sizes sampled at each fence.
    pub tree_node_sum: u64,
    /// Eager merge passes performed.
    pub merges: u64,
}

impl PmemcheckStats {
    /// Average tree node count per fence interval (Figure 11).
    pub fn avg_tree_nodes(&self) -> f64 {
        if self.fences == 0 {
            0.0
        } else {
            self.tree_node_sum as f64 / self.fences as f64
        }
    }
}

/// Pmemcheck-architecture detector. See the module docs.
#[derive(Debug, Default)]
pub struct PmemcheckLike {
    tree: AvlTree,
    reports: Vec<BugReport>,
    stats: PmemcheckStats,
}

impl PmemcheckLike {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bookkeeping statistics.
    pub fn stats(&self) -> PmemcheckStats {
        self.stats
    }

    /// Tree maintenance counters (rotations, merges, inserts, removals).
    pub fn tree_stats(&self) -> pmdebugger::TreeOpStats {
        self.tree.stats()
    }

    fn on_store(&mut self, seq: u64, addr: Addr, size: u64, in_epoch: bool) {
        // Pmemcheck understands PMDK transactions: stores inside a
        // transaction may legitimately overwrite logged data, so the
        // overwrite check applies outside transactions only.
        if !in_epoch && self.tree.overlaps(addr, size) {
            self.reports.push(
                BugReport::new(
                    BugKind::MultipleOverwrites,
                    "location written again before its durability was guaranteed",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
        self.tree.insert(TreeRecord {
            addr,
            size,
            state: FlushState::NotFlushed,
            in_epoch,
            store_seq: seq,
        });
    }

    fn on_flush(&mut self, seq: u64, addr: Addr, size: u64) {
        let mut newly = 0usize;
        let mut already = 0usize;
        let touched = self.tree.update_overlapping(addr, size, |record| {
            if record.state == FlushState::Flushed {
                already += 1;
                SmallReplacement::One(record)
            } else {
                newly += 1;
                split_against_flush(record, addr, addr.saturating_add(size), FlushState::Flushed)
            }
        });
        if touched == 0 {
            self.reports.push(
                BugReport::new(
                    BugKind::FlushNothing,
                    "flush does not persist any prior store",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        } else if newly == 0 && already > 0 {
            self.reports.push(
                BugReport::new(
                    BugKind::RedundantFlushes,
                    "cache line flushed again before the nearest fence",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
    }

    fn on_fence(&mut self) {
        // Sample the tree as the fence interval ends, before cleanup: with
        // no staging array, everything the interval touched lives in the
        // tree — which is why Figure 11 shows Pmemcheck's tree larger than
        // PMDebugger's.
        self.stats.fences += 1;
        self.stats.tree_node_sum += self.tree.len() as u64;
        self.tree.drain_flushed();
        // Eager reorganization: merge on every fence regardless of size —
        // the cost PMDebugger's threshold avoids.
        if self.tree.maybe_merge(0) {
            self.stats.merges += 1;
        }
    }
}

impl Detector for PmemcheckLike {
    fn name(&self) -> &str {
        "pmemcheck"
    }

    fn on_event(&mut self, seq: u64, event: &PmEventRef<'_>) {
        match event {
            PmEventRef::Store {
                addr,
                size,
                in_epoch,
                ..
            } => self.on_store(seq, *addr, u64::from(*size), *in_epoch),
            PmEventRef::Flush { addr, size, .. } => self.on_flush(seq, *addr, u64::from(*size)),
            PmEventRef::Fence { .. } | PmEventRef::JoinStrand { .. } => self.on_fence(),
            // Pmemcheck understands transactions only to silence
            // overwrite reports inside them is *not* modelled; it has no
            // epoch/strand/order/logging/cross-failure rules (Table 6).
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<BugReport> {
        for record in self.tree.to_sorted_vec() {
            let (what, hint) = match record.state {
                FlushState::Flushed => ("flushed but never fenced", "missing fence"),
                FlushState::NotFlushed => ("never flushed", "missing CLWB/CLFLUSH"),
            };
            self.reports.push(
                BugReport::new(
                    BugKind::NoDurabilityGuarantee,
                    format!("location {what} at program end ({hint})"),
                )
                .with_range(record.addr, record.size)
                .with_event(record.store_seq),
            );
        }
        std::mem::take(&mut self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::PmEvent;
    use pm_trace::{FenceKind, FlushKind, ThreadId};

    fn store(addr: Addr) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
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

    fn run(events: Vec<PmEvent>) -> Vec<BugReport> {
        let mut det = PmemcheckLike::new();
        for (seq, e) in events.iter().enumerate() {
            det.on_event(seq as u64, &e.as_ref());
        }
        det.finish()
    }

    #[test]
    fn clean_program_is_clean() {
        assert!(run(vec![store(0), flush(0), fence()]).is_empty());
    }

    #[test]
    fn detects_its_four_types() {
        // no durability
        let r = run(vec![store(0)]);
        assert_eq!(r[0].kind, BugKind::NoDurabilityGuarantee);
        // multiple overwrites
        let r = run(vec![store(0), store(0), flush(0), fence()]);
        assert!(r.iter().any(|b| b.kind == BugKind::MultipleOverwrites));
        // redundant flush
        let r = run(vec![store(0), flush(0), flush(0), fence()]);
        assert!(r.iter().any(|b| b.kind == BugKind::RedundantFlushes));
        // flush nothing
        let r = run(vec![store(0), flush(0), flush(128), fence()]);
        assert!(r.iter().any(|b| b.kind == BugKind::FlushNothing));
    }

    #[test]
    fn misses_epoch_bugs_by_design() {
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::Store {
                addr: 0,
                size: 8,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            PmEvent::Store {
                addr: 64,
                size: 8,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            flush(64),
            PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            PmEvent::EpochEnd { tid: ThreadId(0) },
            // Persist A later so the end-of-run check stays silent.
            flush(0),
            fence(),
        ];
        let reports = run(events);
        assert!(!reports
            .iter()
            .any(|b| b.kind == BugKind::LackDurabilityInEpoch));
    }

    #[test]
    fn eager_merging_counts_reorganizations() {
        let mut det = PmemcheckLike::new();
        let mut seq = 0u64;
        for round in 0..10u64 {
            // Two adjacent unflushed stores that survive each fence and
            // coalesce under the eager merge policy.
            det.on_event(seq, &store(round * 256).as_ref());
            seq += 1;
            det.on_event(seq, &store(round * 256 + 8).as_ref());
            seq += 1;
            det.on_event(seq, &fence().as_ref());
            seq += 1;
        }
        assert_eq!(det.stats().fences, 10);
        assert_eq!(det.stats().merges, 10, "merges every fence");
        assert!(det.stats().avg_tree_nodes() > 0.0);
    }

    #[test]
    fn tree_grows_without_array_staging() {
        let mut det = PmemcheckLike::new();
        for i in 0..100u64 {
            det.on_event(i, &store(i * 64).as_ref());
        }
        assert_eq!(det.tree_stats().inserts, 100);
    }
}
