//! Ready-made custom rules.
//!
//! PMDebugger's hierarchical design lets users "introduce any rule for bug
//! detection" over the same bookkeeping operations (§4.5). The nine paper
//! rules are built into the engine; this module ships additional rules as
//! [`CustomRule`] implementations — both as useful analyses and as worked
//! examples for writing new ones.

use std::collections::HashMap;

use pm_trace::{Addr, BugKind, BugReport, PmEventRef};

use crate::debugger::{CustomRule, SpaceView};

/// Reports epochs (transactions) whose store count exceeds a budget.
///
/// Giant transactions enlarge the undo log, lengthen the unpublishable
/// window and defeat the pattern-1 assumption that records die young —
/// `hashmap_tx`'s rehash is the canonical offender.
#[derive(Debug)]
pub struct EpochSizeRule {
    budget: usize,
    stores_in_epoch: usize,
    in_epoch: bool,
}

impl EpochSizeRule {
    /// Creates the rule with a per-epoch store budget.
    pub fn new(budget: usize) -> Self {
        EpochSizeRule {
            budget,
            stores_in_epoch: 0,
            in_epoch: false,
        }
    }
}

impl CustomRule for EpochSizeRule {
    fn name(&self) -> &str {
        "epoch-size"
    }

    fn on_event(
        &mut self,
        seq: u64,
        event: &PmEventRef<'_>,
        _view: &SpaceView<'_>,
    ) -> Vec<BugReport> {
        match event {
            PmEventRef::EpochBegin { .. } => {
                self.in_epoch = true;
                self.stores_in_epoch = 0;
                Vec::new()
            }
            PmEventRef::Store { .. } if self.in_epoch => {
                self.stores_in_epoch += 1;
                Vec::new()
            }
            PmEventRef::EpochEnd { .. } => {
                self.in_epoch = false;
                if self.stores_in_epoch > self.budget {
                    vec![BugReport::new(
                        BugKind::RedundantLogging,
                        format!(
                            "transaction stores {} locations (budget {}); consider splitting it",
                            self.stores_in_epoch, self.budget
                        ),
                    )
                    .with_event(seq)]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Reports cache lines flushed more than `budget` times over the whole
/// run — write-amplification hot spots that per-fence redundant-flush
/// checking cannot see (each individual flush may be justified).
#[derive(Debug)]
pub struct FlushAmplificationRule {
    budget: u64,
    flush_counts: HashMap<Addr, u64>,
}

impl FlushAmplificationRule {
    /// Creates the rule with a per-line whole-run flush budget.
    pub fn new(budget: u64) -> Self {
        FlushAmplificationRule {
            budget,
            flush_counts: HashMap::new(),
        }
    }
}

impl CustomRule for FlushAmplificationRule {
    fn name(&self) -> &str {
        "flush-amplification"
    }

    fn on_event(
        &mut self,
        _seq: u64,
        event: &PmEventRef<'_>,
        _view: &SpaceView<'_>,
    ) -> Vec<BugReport> {
        if let PmEventRef::Flush { addr, size, .. } = event {
            for line in pmem_sim::lines_covering(*addr, *size as usize) {
                *self.flush_counts.entry(line).or_default() += 1;
            }
        }
        Vec::new()
    }

    fn finish(&mut self, _view: &SpaceView<'_>) -> Vec<BugReport> {
        let budget = self.budget;
        let mut hot: Vec<(&Addr, &u64)> = self
            .flush_counts
            .iter()
            .filter(|(_, n)| **n > budget)
            .collect();
        hot.sort_unstable();
        hot.iter()
            .map(|(line, count)| {
                BugReport::new(
                    BugKind::RedundantFlushes,
                    format!("cache line flushed {count} times over the run (budget {budget})"),
                )
                .with_range(**line, pmem_sim::CACHE_LINE_SIZE)
            })
            .collect()
    }
}

/// Reports fence intervals containing more stores than a threshold: a
/// large failure window in strict-persistency code (everything in the
/// interval is lost together on a crash).
#[derive(Debug)]
pub struct FailureWindowRule {
    threshold: usize,
    stores_since_fence: usize,
    worst: usize,
}

impl FailureWindowRule {
    /// Creates the rule with a stores-per-fence-interval threshold.
    pub fn new(threshold: usize) -> Self {
        FailureWindowRule {
            threshold,
            stores_since_fence: 0,
            worst: 0,
        }
    }

    /// Largest fence interval observed (in stores).
    pub fn worst_window(&self) -> usize {
        self.worst
    }
}

impl CustomRule for FailureWindowRule {
    fn name(&self) -> &str {
        "failure-window"
    }

    fn on_event(
        &mut self,
        seq: u64,
        event: &PmEventRef<'_>,
        _view: &SpaceView<'_>,
    ) -> Vec<BugReport> {
        match event {
            PmEventRef::Store { .. } => {
                self.stores_since_fence += 1;
                Vec::new()
            }
            PmEventRef::Fence { .. } => {
                let window = self.stores_since_fence;
                self.stores_since_fence = 0;
                self.worst = self.worst.max(window);
                if window > self.threshold {
                    vec![BugReport::new(
                        BugKind::NoDurabilityGuarantee,
                        format!(
                            "{window} stores in one fence interval (threshold {}); a crash loses them together",
                            self.threshold
                        ),
                    )
                    .with_event(seq)]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }
}

/// Reports CAS addresses that fail more than `budget` times over the
/// run — contention hot spots in lock-free PM code. Every failed CAS in
/// a publication loop means the node's store/flush/fence prologue is
/// redone before the republish attempt, so a retry storm is persisted
/// write amplification the per-fence checks cannot see.
#[derive(Debug)]
pub struct CasContentionRule {
    budget: u64,
    failures: HashMap<Addr, u64>,
}

impl CasContentionRule {
    /// Creates the rule with a per-address whole-run failed-CAS budget.
    pub fn new(budget: u64) -> Self {
        CasContentionRule {
            budget,
            failures: HashMap::new(),
        }
    }
}

impl CustomRule for CasContentionRule {
    fn name(&self) -> &str {
        "cas-contention"
    }

    fn on_event(
        &mut self,
        _seq: u64,
        event: &PmEventRef<'_>,
        _view: &SpaceView<'_>,
    ) -> Vec<BugReport> {
        if let PmEventRef::Cas {
            addr,
            success: false,
            ..
        } = event
        {
            *self.failures.entry(*addr).or_default() += 1;
        }
        Vec::new()
    }

    fn finish(&mut self, _view: &SpaceView<'_>) -> Vec<BugReport> {
        let budget = self.budget;
        let mut hot: Vec<(&Addr, &u64)> =
            self.failures.iter().filter(|(_, n)| **n > budget).collect();
        hot.sort_unstable();
        hot.iter()
            .map(|(addr, count)| {
                BugReport::new(
                    BugKind::RedundantFlushes,
                    format!(
                        "CAS on this address failed {count} times over the run (budget {budget}); \
                         each retry re-persists its node before republishing"
                    ),
                )
                .with_range(**addr, 8)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::debugger::PmDebugger;
    use pm_trace::{Detector, FenceKind, PmEvent, ThreadId};

    fn store(addr: Addr) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn epoch_store(addr: Addr) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: true,
        }
    }

    fn flush(addr: Addr) -> PmEvent {
        PmEvent::Flush {
            kind: pm_trace::FlushKind::Clwb,
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

    fn run_with_rule(events: Vec<PmEvent>, rule: Box<dyn CustomRule>) -> Vec<BugReport> {
        let mut debugger = PmDebugger::epoch();
        debugger.add_custom_rule(rule);
        for (seq, event) in events.iter().enumerate() {
            debugger.on_event(seq as u64, &event.as_ref());
        }
        debugger
            .finish()
            .into_iter()
            .filter(|r| r.at_event.is_some() || r.message.contains("budget"))
            .collect()
    }

    #[test]
    fn epoch_size_rule_fires_over_budget() {
        let mut events = vec![PmEvent::EpochBegin { tid: ThreadId(0) }];
        for i in 0..5 {
            events.push(epoch_store(i * 64));
        }
        for i in 0..5 {
            events.push(flush(i * 64));
        }
        events.push(PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: true,
        });
        events.push(PmEvent::EpochEnd { tid: ThreadId(0) });
        let reports = run_with_rule(events.clone(), Box::new(EpochSizeRule::new(3)));
        assert!(reports.iter().any(|r| r.message.contains("stores 5")));
        let reports = run_with_rule(events, Box::new(EpochSizeRule::new(5)));
        assert!(!reports
            .iter()
            .any(|r| r.message.contains("consider splitting")));
    }

    #[test]
    fn flush_amplification_counts_whole_run() {
        // Each flush is individually justified (re-dirtied line) but the
        // line is flushed 4 times overall.
        let mut events = Vec::new();
        for _ in 0..4 {
            events.push(store(0));
            events.push(flush(0));
            events.push(fence());
        }
        let reports = run_with_rule(events, Box::new(FlushAmplificationRule::new(3)));
        assert!(reports.iter().any(|r| r.message.contains("4 times")));
    }

    #[test]
    fn flush_amplification_quiet_under_budget() {
        let events = vec![store(0), flush(0), fence()];
        let reports = run_with_rule(events, Box::new(FlushAmplificationRule::new(3)));
        assert!(reports.is_empty());
    }

    #[test]
    fn cas_contention_flags_retry_storms() {
        // A publication loop that loses the race 4 times on one anchor,
        // next to a second anchor that succeeds first try.
        let mut events = Vec::new();
        for _ in 0..4 {
            events.push(PmEvent::Cas {
                addr: 0x100,
                size: 8,
                tid: ThreadId(0),
                old: 0,
                new: 0x2000,
                success: false,
            });
        }
        events.push(PmEvent::Cas {
            addr: 0x140,
            size: 8,
            tid: ThreadId(1),
            old: 0,
            new: 0x3000,
            success: true,
        });
        // Persist the winning publication so the core durability rules
        // stay quiet and only the contention verdict remains.
        events.push(PmEvent::Flush {
            kind: pm_trace::FlushKind::Clwb,
            addr: 0x140,
            size: 8,
            tid: ThreadId(1),
            strand: None,
        });
        events.push(PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(1),
            strand: None,
            in_epoch: false,
        });
        let reports = run_with_rule(events, Box::new(CasContentionRule::new(3)));
        assert_eq!(reports.len(), 1);
        assert!(reports[0].message.contains("failed 4 times"));
        assert_eq!(reports[0].addr, Some(0x100));
    }

    #[test]
    fn cas_contention_quiet_under_budget() {
        let events = vec![PmEvent::Cas {
            addr: 0x100,
            size: 8,
            tid: ThreadId(0),
            old: 0,
            new: 0x2000,
            success: false,
        }];
        let reports = run_with_rule(events, Box::new(CasContentionRule::new(3)));
        assert!(reports.is_empty());
    }

    #[test]
    fn failure_window_flags_long_intervals() {
        let mut events: Vec<PmEvent> = (0..10).map(|i| store(i * 64)).collect();
        events.push(flush(0));
        events.push(fence());
        let mut debugger = PmDebugger::strict();
        debugger.add_custom_rule(Box::new(FailureWindowRule::new(4)));
        for (seq, event) in events.iter().enumerate() {
            debugger.on_event(seq as u64, &event.as_ref());
        }
        let reports = debugger.finish();
        assert!(reports
            .iter()
            .any(|r| r.message.contains("10 stores in one fence interval")));
    }
}
