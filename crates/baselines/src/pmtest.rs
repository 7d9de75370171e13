//! The PMTest-like baseline: annotation-driven assertion checking.
//!
//! PMTest (ASPLOS'19) trades coverage for speed: the program runs almost
//! uninstrumented, and checking happens only where the programmer inserted
//! assertion-like checkers (`isPersist`, `isOrderedBefore`, checker regions).
//! Bugs in unannotated code are missed — this is exactly how the paper's
//! comparison finds PMTest faster than PMDebugger but 38 bugs short.
//!
//! This re-implementation keeps a minimal per-line persistency state machine
//! (cheap, O(log n) per event) and evaluates assertions against it:
//!
//! * [`pm_trace::Annotation::AssertPersisted`] → no-durability-guarantee
//! * [`pm_trace::Annotation::AssertOrdered`] → no-order-guarantee
//! * checker regions → multiple-overwrites and redundant-flushes for
//!   locations touched inside the region
//! * [`pm_trace::Annotation::TrackLogging`] → redundant-logging for the
//!   tracked object
//!
//! Detected bug types (Table 6): no-durability, multiple-overwrites,
//! no-order, redundant-flushes, redundant-logging.

use std::collections::BTreeMap;

use pm_trace::{Addr, Annotation, BugKind, BugReport, Detector, PmEventRef};
use pmem_sim::line_base;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Dirty,
    Flushed,
    Durable,
}

/// One per-line tracking record.
#[derive(Debug, Clone, Copy)]
struct LineInfo {
    state: LineState,
    /// Fence index at which the line last became durable.
    durable_at: Option<u64>,
}

/// PMTest-architecture detector. See the module docs.
#[derive(Debug, Default)]
pub struct PmtestLike {
    lines: BTreeMap<Addr, LineInfo>,
    /// Lines flushed since the last fence (so fences cost O(pending), not
    /// O(all lines) — PMTest's analysis is deliberately lightweight).
    pending: Vec<Addr>,
    reports: Vec<BugReport>,
    fence_count: u64,
    /// Inside a checker region (CheckerStart..CheckerEnd)?
    in_checker: bool,
    /// Store ranges seen inside the current checker region, for the
    /// multiple-overwrites check.
    checker_stores: Vec<(Addr, u64)>,
    /// Objects whose logging is tracked, with their logged flag.
    tracked_logs: Vec<(Addr, u64, bool)>,
}

impl PmtestLike {
    /// Creates the detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lines currently tracked (cost-model introspection).
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    fn range_state(&self, addr: Addr, size: u64) -> (bool, Option<u64>) {
        // (durable, latest durable_at over the range)
        let mut durable = true;
        let mut latest = None;
        let mut line = line_base(addr);
        let end = addr.saturating_add(size);
        while line < end {
            match self.lines.get(&line) {
                None => {} // never stored: vacuously durable
                Some(info) => {
                    if info.state != LineState::Durable {
                        durable = false;
                    }
                    latest = match (latest, info.durable_at) {
                        (None, x) => x,
                        (x, None) => x,
                        (Some(a), Some(b)) => Some(a.max(b)),
                    };
                }
            }
            line += pmem_sim::CACHE_LINE_SIZE;
        }
        (durable, latest)
    }

    fn handle_annotation(&mut self, seq: u64, annotation: &Annotation) {
        match annotation {
            Annotation::CheckerStart => {
                self.in_checker = true;
                self.checker_stores.clear();
            }
            Annotation::CheckerEnd => {
                self.in_checker = false;
                self.checker_stores.clear();
            }
            Annotation::AssertPersisted { addr, size } => {
                let (durable, _) = self.range_state(*addr, u64::from(*size));
                if !durable {
                    self.reports.push(
                        BugReport::new(
                            BugKind::NoDurabilityGuarantee,
                            "isPersist assertion failed: range is not durable",
                        )
                        .with_range(*addr, u64::from(*size))
                        .with_event(seq),
                    );
                }
            }
            Annotation::AssertOrdered {
                first,
                first_size,
                second,
                second_size,
            } => {
                let (first_durable, first_at) = self.range_state(*first, u64::from(*first_size));
                let (second_durable, second_at) =
                    self.range_state(*second, u64::from(*second_size));
                let violated = match (first_durable, second_durable) {
                    (false, true) => true,
                    (true, true) => match (first_at, second_at) {
                        (Some(f), Some(s)) => f > s,
                        _ => false,
                    },
                    _ => false,
                };
                if violated {
                    self.reports.push(
                        BugReport::new(
                            BugKind::NoOrderGuarantee,
                            "isOrderedBefore assertion failed",
                        )
                        .with_range(*first, u64::from(*first_size))
                        .with_event(seq),
                    );
                }
            }
            Annotation::TrackLogging { addr, size } => {
                self.tracked_logs.push((*addr, u64::from(*size), false));
            }
        }
    }
}

impl Detector for PmtestLike {
    fn name(&self) -> &str {
        "pmtest"
    }

    fn on_event(&mut self, seq: u64, event: &PmEventRef<'_>) {
        match event {
            PmEventRef::Store { addr, size, .. } => {
                let size = u64::from(*size);
                if self.in_checker {
                    let overlap = self
                        .checker_stores
                        .iter()
                        .any(|(sa, sl)| pm_trace::events::ranges_overlap(*sa, *sl, *addr, size));
                    if overlap {
                        self.reports.push(
                            BugReport::new(
                                BugKind::MultipleOverwrites,
                                "checker region: location written again before durability",
                            )
                            .with_range(*addr, size)
                            .with_event(seq),
                        );
                    }
                    self.checker_stores.push((*addr, size));
                }
                let mut line = line_base(*addr);
                let end = addr.saturating_add(size);
                while line < end {
                    self.lines.insert(
                        line,
                        LineInfo {
                            state: LineState::Dirty,
                            durable_at: None,
                        },
                    );
                    line += pmem_sim::CACHE_LINE_SIZE;
                }
            }
            PmEventRef::Flush { addr, size, .. } => {
                let mut redundant_hit = false;
                let mut any_dirty = false;
                let mut line = line_base(*addr);
                let end = addr.saturating_add(u64::from(*size));
                while line < end {
                    if let Some(info) = self.lines.get_mut(&line) {
                        match info.state {
                            LineState::Dirty => {
                                info.state = LineState::Flushed;
                                any_dirty = true;
                                self.pending.push(line);
                            }
                            LineState::Flushed => redundant_hit = true,
                            LineState::Durable => {}
                        }
                    }
                    line += pmem_sim::CACHE_LINE_SIZE;
                }
                if self.in_checker && redundant_hit && !any_dirty {
                    self.reports.push(
                        BugReport::new(
                            BugKind::RedundantFlushes,
                            "checker region: line flushed again before the nearest fence",
                        )
                        .with_range(*addr, u64::from(*size))
                        .with_event(seq),
                    );
                }
            }
            PmEventRef::Fence { .. } | PmEventRef::JoinStrand { .. } => {
                self.fence_count += 1;
                let at = self.fence_count;
                for line in self.pending.drain(..) {
                    if let Some(info) = self.lines.get_mut(&line) {
                        if info.state == LineState::Flushed {
                            info.state = LineState::Durable;
                            info.durable_at = Some(at);
                        }
                    }
                }
            }
            PmEventRef::TxLog { obj_addr, size, .. } => {
                let size = u64::from(*size);
                for (la, ll, logged) in self.tracked_logs.iter_mut() {
                    if pm_trace::events::ranges_overlap(*la, *ll, *obj_addr, size) {
                        if *logged {
                            self.reports.push(
                                BugReport::new(
                                    BugKind::RedundantLogging,
                                    "tracked object logged more than once",
                                )
                                .with_range(*obj_addr, size)
                                .with_event(seq),
                            );
                        }
                        *logged = true;
                    }
                }
            }
            PmEventRef::EpochEnd { .. } => {
                for (_, _, logged) in self.tracked_logs.iter_mut() {
                    *logged = false;
                }
            }
            PmEventRef::Annotation(annotation) => self.handle_annotation(seq, annotation),
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<BugReport> {
        // No end-of-program sweep: without a trailing isPersist annotation,
        // PMTest cannot know which locations were meant to be durable.
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

    fn assert_persisted(addr: Addr) -> PmEvent {
        PmEvent::Annotation(Annotation::AssertPersisted { addr, size: 8 })
    }

    fn run(events: Vec<PmEvent>) -> Vec<BugReport> {
        let mut det = PmtestLike::new();
        for (seq, e) in events.iter().enumerate() {
            det.on_event(seq as u64, &e.as_ref());
        }
        det.finish()
    }

    #[test]
    fn assertion_passes_on_durable_data() {
        let r = run(vec![store(0), flush(0), fence(), assert_persisted(0)]);
        assert!(r.is_empty());
    }

    #[test]
    fn assertion_fails_on_dirty_data() {
        let r = run(vec![store(0), assert_persisted(0)]);
        assert_eq!(r[0].kind, BugKind::NoDurabilityGuarantee);
    }

    #[test]
    fn assertion_fails_on_flushed_unfenced_data() {
        let r = run(vec![store(0), flush(0), assert_persisted(0)]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn missing_annotation_means_missed_bug() {
        // The same durability bug with no assertion: PMTest is silent.
        let r = run(vec![store(0)]);
        assert!(r.is_empty(), "PMTest misses unannotated bugs by design");
    }

    #[test]
    fn ordered_assertion_detects_reversal() {
        let events = vec![
            store(0),  // first
            store(64), // second
            flush(64),
            fence(), // second durable first
            flush(0),
            fence(),
            PmEvent::Annotation(Annotation::AssertOrdered {
                first: 0,
                first_size: 8,
                second: 64,
                second_size: 8,
            }),
        ];
        let r = run(events);
        assert_eq!(r[0].kind, BugKind::NoOrderGuarantee);
    }

    #[test]
    fn ordered_assertion_passes_in_order() {
        let events = vec![
            store(0),
            flush(0),
            fence(),
            store(64),
            flush(64),
            fence(),
            PmEvent::Annotation(Annotation::AssertOrdered {
                first: 0,
                first_size: 8,
                second: 64,
                second_size: 8,
            }),
        ];
        assert!(run(events).is_empty());
    }

    #[test]
    fn ordered_assertion_flags_undurable_first() {
        let events = vec![
            store(0),
            store(64),
            flush(64),
            fence(),
            PmEvent::Annotation(Annotation::AssertOrdered {
                first: 0,
                first_size: 8,
                second: 64,
                second_size: 8,
            }),
        ];
        assert_eq!(run(events).len(), 1);
    }

    #[test]
    fn checker_region_catches_overwrite() {
        let events = vec![
            PmEvent::Annotation(Annotation::CheckerStart),
            store(0),
            store(0),
            PmEvent::Annotation(Annotation::CheckerEnd),
            flush(0),
            fence(),
        ];
        let r = run(events);
        assert_eq!(r[0].kind, BugKind::MultipleOverwrites);
    }

    #[test]
    fn overwrite_outside_checker_missed() {
        let r = run(vec![store(0), store(0), flush(0), fence()]);
        assert!(r.is_empty());
    }

    #[test]
    fn checker_region_catches_redundant_flush() {
        let events = vec![
            PmEvent::Annotation(Annotation::CheckerStart),
            store(0),
            flush(0),
            flush(0),
            PmEvent::Annotation(Annotation::CheckerEnd),
            fence(),
        ];
        let r = run(events);
        assert_eq!(r[0].kind, BugKind::RedundantFlushes);
    }

    #[test]
    fn tracked_logging_catches_duplicates() {
        let events = vec![
            PmEvent::Annotation(Annotation::TrackLogging { addr: 0, size: 8 }),
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
        ];
        let r = run(events);
        assert_eq!(r[0].kind, BugKind::RedundantLogging);
    }

    #[test]
    fn untracked_logging_missed() {
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
        ];
        assert!(run(events).is_empty());
    }
}
