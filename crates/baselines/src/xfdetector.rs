//! The XFDetector-like baseline: cross-failure testing via failure-point
//! examination.
//!
//! XFDetector (ASPLOS'20) detects bugs that only manifest *across* a
//! failure: it injects failure points into the pre-failure execution and,
//! for each one, runs the post-failure (recovery) execution to see whether
//! it consumes data whose durability was not guaranteed. The exhaustive
//! failure-point examination is why the real tool slows programs down by
//! orders of magnitude, and why it caps the number of instrumented failure
//! points (which in turn costs it coverage, §7.4).
//!
//! This re-implementation:
//!
//! * keeps full per-location state (like the Pmemcheck architecture);
//! * treats every fence as a failure point, and at each one performs a
//!   commit-examination sweep over all tracked state (the honest cost of
//!   the architecture), bounded by `max_failure_points`;
//! * consumes `Crash` / `RecoveryRead` events to detect cross-failure
//!   semantic bugs;
//! * detects the six Table 6 types: no-durability, multiple-overwrites,
//!   no-order (order spec), redundant-flushes, redundant-logging,
//!   cross-failure-semantic.

use std::collections::{BTreeSet, HashMap};

use pm_trace::{Addr, BugKind, BugReport, Detector, OrderSpec, PmEvent, ThreadId};
use pmdebugger::avl::{split_against_flush, AvlTree, SmallReplacement, TreeRecord};
use pmdebugger::{FlushState, OrderTracker};

/// Cost/operation statistics of the XFDetector-like run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XfdetectorStats {
    /// Failure points examined (fences, up to the cap).
    pub failure_points: u64,
    /// Records scanned across all failure-point examinations — the work
    /// that dominates the real tool's runtime.
    pub records_examined: u64,
}

/// XFDetector-architecture detector. See the module docs.
pub struct XfdetectorLike {
    tree: AvlTree,
    order: OrderTracker,
    reports: Vec<BugReport>,
    stats: XfdetectorStats,
    /// Cap on instrumented failure points (the real tool restricts these to
    /// stay tractable; the cap is what costs it bug coverage, §7.4).
    max_failure_points: u64,
    /// Ranges logged per thread in the current transaction.
    logged: HashMap<ThreadId, Vec<(Addr, u64)>>,
    /// Non-durable ranges at the simulated crash.
    crash_residuals: Option<Vec<(Addr, u64)>>,
    /// Every PM line written so far — the shadow image the post-failure
    /// execution consumes at each failure point.
    written_lines: BTreeSet<Addr>,
    /// Scratch buffer reused by failure-point sweeps.
    scratch: Vec<TreeRecord>,
}

impl std::fmt::Debug for XfdetectorLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XfdetectorLike")
            .field("tracked", &self.tree.len())
            .field("failure_points", &self.stats.failure_points)
            .finish()
    }
}

impl Default for XfdetectorLike {
    fn default() -> Self {
        Self::new(OrderSpec::new())
    }
}

impl XfdetectorLike {
    /// Creates the detector with an (optionally empty) order specification.
    pub fn new(order_spec: OrderSpec) -> Self {
        XfdetectorLike {
            tree: AvlTree::new(),
            order: OrderTracker::new(order_spec),
            reports: Vec::new(),
            stats: XfdetectorStats::default(),
            max_failure_points: u64::MAX,
            logged: HashMap::new(),
            crash_residuals: None,
            written_lines: BTreeSet::new(),
            scratch: Vec::new(),
        }
    }

    /// Restricts the number of examined failure points (the paper notes
    /// XFDetector "has to restrict the number of instrumented failure
    /// points to reduce its overhead, resulting in lower bug coverage").
    pub fn with_max_failure_points(mut self, cap: u64) -> Self {
        self.max_failure_points = cap;
        self
    }

    /// Cost statistics.
    pub fn stats(&self) -> XfdetectorStats {
        self.stats
    }

    fn examine_failure_point(&mut self) {
        if self.stats.failure_points >= self.max_failure_points {
            return;
        }
        self.stats.failure_points += 1;
        // At each failure point the real tool runs the post-failure
        // (recovery) execution over the shadow PM image — work proportional
        // to everything written so far, which is exactly what makes the
        // tool orders of magnitude slower than single-pass detectors.
        self.scratch.clear();
        self.scratch.extend(self.tree.to_sorted_vec());
        let mut image_checksum = 0u64;
        for line in &self.written_lines {
            image_checksum = image_checksum.wrapping_add(*line);
        }
        std::hint::black_box(image_checksum);
        self.stats.records_examined += self.written_lines.len() as u64;
    }

    fn on_store(&mut self, seq: u64, addr: Addr, size: u64, in_epoch: bool) {
        // Transaction-aware like the real tool: in-transaction overwrites
        // of logged data are the mechanism, not a bug.
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
        for line in pmem_sim::lines_covering(addr, size as usize) {
            self.written_lines.insert(line);
        }
        self.order.on_store(addr, size, None);
    }

    fn on_flush(&mut self, seq: u64, addr: Addr, size: u64) {
        let mut newly = 0usize;
        let mut already = 0usize;
        self.tree.update_overlapping(addr, size, |record| {
            if record.state == FlushState::Flushed {
                already += 1;
                SmallReplacement::One(record)
            } else {
                newly += 1;
                split_against_flush(record, addr, addr.saturating_add(size), FlushState::Flushed)
            }
        });
        if newly == 0 && already > 0 {
            self.reports.push(
                BugReport::new(
                    BugKind::RedundantFlushes,
                    "cache line flushed again before the nearest fence",
                )
                .with_range(addr, size)
                .with_event(seq),
            );
        }
        self.order.on_flush(addr, size, None, false, seq);
    }

    fn on_fence(&mut self, seq: u64) {
        self.tree.drain_flushed();
        self.reports.extend(self.order.on_fence(seq));
        self.examine_failure_point();
    }
}

impl Detector for XfdetectorLike {
    fn name(&self) -> &str {
        "xfdetector"
    }

    fn on_event(&mut self, seq: u64, event: &PmEvent) {
        // Once the failure-point budget is exhausted the remaining
        // execution is uninstrumented (the real tool only instruments a
        // bounded set of failure points; bugs past the horizon are missed,
        // §7.4).
        if self.stats.failure_points >= self.max_failure_points {
            return;
        }
        match event {
            PmEvent::Store {
                addr,
                size,
                in_epoch,
                ..
            } => self.on_store(seq, *addr, u64::from(*size), *in_epoch),
            PmEvent::Flush { addr, size, .. } => self.on_flush(seq, *addr, u64::from(*size)),
            PmEvent::Fence { .. } | PmEvent::JoinStrand { .. } => self.on_fence(seq),
            PmEvent::TxLog {
                obj_addr,
                size,
                tid,
            } => {
                let size = u64::from(*size);
                let logged = self.logged.entry(*tid).or_default();
                let duplicate = logged
                    .iter()
                    .any(|(la, ll)| pm_trace::events::ranges_overlap(*la, *ll, *obj_addr, size));
                if duplicate {
                    self.reports.push(
                        BugReport::new(
                            BugKind::RedundantLogging,
                            "object logged more than once in the same transaction",
                        )
                        .with_range(*obj_addr, size)
                        .with_event(seq),
                    );
                } else {
                    logged.push((*obj_addr, size));
                }
            }
            PmEvent::EpochEnd { tid } => {
                self.logged.remove(tid);
            }
            PmEvent::FuncEnter { name, .. } => self.order.func_enter(name),
            PmEvent::NameRange { name, addr, size } => {
                self.order.bind(name, *addr, u64::from(*size));
            }
            PmEvent::Crash => {
                let residuals: Vec<(Addr, u64)> = self
                    .tree
                    .to_sorted_vec()
                    .into_iter()
                    .map(|r| (r.addr, r.size))
                    .collect();
                self.crash_residuals = Some(residuals);
                self.tree = AvlTree::new();
            }
            PmEvent::RecoveryRead { addr, size } => {
                if let Some(residuals) = &self.crash_residuals {
                    let inconsistent = residuals.iter().any(|(ra, rl)| {
                        pm_trace::events::ranges_overlap(*ra, *rl, *addr, u64::from(*size))
                    });
                    if inconsistent {
                        self.reports.push(
                            BugReport::new(
                                BugKind::CrossFailureSemantic,
                                "recovery reads data whose durability was not guaranteed at the failure point",
                            )
                            .with_range(*addr, u64::from(*size))
                            .with_event(seq),
                        );
                    }
                }
            }
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
    use pm_trace::{FenceKind, FlushKind};

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
        let mut det = XfdetectorLike::default();
        for (seq, e) in events.iter().enumerate() {
            det.on_event(seq as u64, e);
        }
        det.finish()
    }

    #[test]
    fn clean_program_is_clean() {
        assert!(run(vec![store(0), flush(0), fence()]).is_empty());
    }

    #[test]
    fn detects_cross_failure_bug() {
        let events = vec![
            store(0),
            flush(0),
            fence(),
            store(64), // lost at crash
            PmEvent::Crash,
            PmEvent::RecoveryRead { addr: 64, size: 8 },
        ];
        let r = run(events);
        assert!(r.iter().any(|b| b.kind == BugKind::CrossFailureSemantic));
    }

    #[test]
    fn durable_recovery_read_is_fine() {
        let events = vec![
            store(0),
            flush(0),
            fence(),
            PmEvent::Crash,
            PmEvent::RecoveryRead { addr: 0, size: 8 },
        ];
        assert!(run(events).is_empty());
    }

    #[test]
    fn order_spec_violation_detected() {
        let mut spec = OrderSpec::new();
        spec.add_rule("a", "b", None);
        let mut det = XfdetectorLike::new(spec);
        let events = [
            PmEvent::NameRange {
                name: "a".into(),
                addr: 0,
                size: 8,
            },
            PmEvent::NameRange {
                name: "b".into(),
                addr: 64,
                size: 8,
            },
            store(0),
            store(64),
            flush(64),
            fence(),
            flush(0),
            fence(),
        ];
        for (seq, e) in events.iter().enumerate() {
            det.on_event(seq as u64, e);
        }
        let r = det.finish();
        assert!(r.iter().any(|b| b.kind == BugKind::NoOrderGuarantee));
    }

    #[test]
    fn failure_point_examination_costs_grow_with_state() {
        let mut det = XfdetectorLike::default();
        let mut seq = 0;
        for i in 0..50u64 {
            det.on_event(seq, &store(i * 64));
            seq += 1;
            det.on_event(seq, &fence()); // nothing persisted: state grows
            seq += 1;
        }
        let stats = det.stats();
        assert_eq!(stats.failure_points, 50);
        // The shadow image grows by one line per round: 1 + 2 + ... + 50.
        assert_eq!(stats.records_examined, 50 * 51 / 2);
    }

    #[test]
    fn failure_point_cap_respected() {
        let mut det = XfdetectorLike::default().with_max_failure_points(3);
        let mut seq = 0;
        for i in 0..10u64 {
            det.on_event(seq, &store(i * 64));
            seq += 1;
            det.on_event(seq, &fence());
            seq += 1;
        }
        assert_eq!(det.stats().failure_points, 3);
    }

    #[test]
    fn detects_redundant_logging_and_flush() {
        let events = vec![
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
            store(0),
            flush(0),
            flush(0),
            fence(),
        ];
        let r = run(events);
        assert!(r.iter().any(|b| b.kind == BugKind::RedundantLogging));
        assert!(r.iter().any(|b| b.kind == BugKind::RedundantFlushes));
    }

    #[test]
    fn misses_epoch_and_strand_bugs_by_design() {
        let events = vec![
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::Store {
                addr: 0,
                size: 8,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: true,
            },
            PmEvent::EpochEnd { tid: ThreadId(0) },
            flush(0),
            fence(),
        ];
        let r = run(events);
        assert!(!r.iter().any(|b| b.kind == BugKind::RedundantEpochFence));
        assert!(!r.iter().any(|b| b.kind == BugKind::LackDurabilityInEpoch));
    }
}
