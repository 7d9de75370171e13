//! Trace perturbation engine and the detector differential oracle.
//!
//! Every fault class mutates one event of a clean trace — the kinds of
//! slip-ups PM programmers actually make (drop a flush, fence in the wrong
//! place, tear a store, move a fence out of its epoch). The oracle then
//! asks: did the mutation change the trace's persistence semantics
//! ([`crate::semantic_fingerprint`]), and if so, does each detector flag
//! it? [`PerturbSweep`] runs that oracle once per candidate perturbation
//! and tallies, per fault class and per detector, how many injections were
//! detected, missed, or benign.

use pm_baselines::{PmemcheckLike, PmtestLike, XfdetectorLike};
use pm_trace::{Detector, PmEvent, ReportDigest, Trace};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

use crate::error::ChaosError;
use crate::sweep::{Sweep, SweepViolation, Tallies};
use crate::validate::{semantic_fingerprint, Fingerprint};

/// The injected fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultClass {
    /// Remove a flush (classic missing-writeback bug).
    DropFlush,
    /// Remove a fence (missing ordering/durability point).
    DropFence,
    /// Insert a second copy of a flush right after it (redundant flush).
    DuplicateFlush,
    /// Insert a second copy of a fence right after it (redundant fence).
    DuplicateFence,
    /// Swap an adjacent flush/fence pair — the flush lands after the fence
    /// that was supposed to order it.
    ReorderFlushFence,
    /// Halve a store's size (torn/partial write).
    TearStore,
    /// Swap a fence with the epoch-end marker that follows it — the epoch
    /// closes before its stores are durable.
    SwapEpochMarkers,
}

impl FaultClass {
    /// All classes.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::DropFlush,
        FaultClass::DropFence,
        FaultClass::DuplicateFlush,
        FaultClass::DuplicateFence,
        FaultClass::ReorderFlushFence,
        FaultClass::TearStore,
        FaultClass::SwapEpochMarkers,
    ];

    /// Stable row name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::DropFlush => "drop-flush",
            FaultClass::DropFence => "drop-fence",
            FaultClass::DuplicateFlush => "duplicate-flush",
            FaultClass::DuplicateFence => "duplicate-fence",
            FaultClass::ReorderFlushFence => "reorder-flush-fence",
            FaultClass::TearStore => "tear-store",
            FaultClass::SwapEpochMarkers => "swap-epoch-markers",
        }
    }
}

/// One single-event perturbation: apply `class` at event `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perturbation {
    /// The fault class to inject.
    pub class: FaultClass,
    /// Index of the event to mutate.
    pub index: usize,
}

/// Enumerates every applicable single-event perturbation of `trace`,
/// round-robin over [`FaultClass::ALL`] and in trace order within each
/// class. A prefix of the list, such as a sweep capped at its plan count,
/// thus takes its share of every class the trace admits instead of
/// filling up with the torn stores of a store-heavy trace.
pub fn perturbations(trace: &Trace) -> Vec<Perturbation> {
    let events = trace.events();
    let mut by_class: [Vec<usize>; FaultClass::ALL.len()] = Default::default();
    for (index, event) in events.iter().enumerate() {
        let next = events.get(index + 1);
        let mut add = |class: FaultClass| by_class[class as usize].push(index);
        match event {
            PmEvent::Flush { .. } => {
                add(FaultClass::DropFlush);
                add(FaultClass::DuplicateFlush);
                if matches!(next, Some(PmEvent::Fence { .. })) {
                    add(FaultClass::ReorderFlushFence);
                }
            }
            PmEvent::Fence { .. } => {
                add(FaultClass::DropFence);
                add(FaultClass::DuplicateFence);
                if matches!(next, Some(PmEvent::EpochEnd { .. })) {
                    add(FaultClass::SwapEpochMarkers);
                }
            }
            PmEvent::Store { size, .. } if *size >= 2 => add(FaultClass::TearStore),
            _ => {}
        }
    }
    let rounds = by_class.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|round| {
            FaultClass::ALL
                .into_iter()
                .zip(&by_class)
                .filter_map(move |(class, indices)| {
                    indices
                        .get(round)
                        .map(|&index| Perturbation { class, index })
                })
        })
        .collect()
}

/// Applies one perturbation, or `None` when it does not fit the event at
/// its index (e.g. the trace changed since enumeration).
pub fn apply(trace: &Trace, perturbation: &Perturbation) -> Option<Trace> {
    let events = trace.events();
    let event = events.get(perturbation.index)?;
    let mut mutated: Vec<PmEvent> = Vec::with_capacity(events.len() + 1);
    match (perturbation.class, event) {
        (FaultClass::DropFlush, PmEvent::Flush { .. })
        | (FaultClass::DropFence, PmEvent::Fence { .. }) => {
            mutated.extend_from_slice(&events[..perturbation.index]);
            mutated.extend_from_slice(&events[perturbation.index + 1..]);
        }
        (FaultClass::DuplicateFlush, PmEvent::Flush { .. })
        | (FaultClass::DuplicateFence, PmEvent::Fence { .. }) => {
            mutated.extend_from_slice(&events[..=perturbation.index]);
            mutated.push(event.clone());
            mutated.extend_from_slice(&events[perturbation.index + 1..]);
        }
        (FaultClass::ReorderFlushFence, PmEvent::Flush { .. }) => {
            let next = events.get(perturbation.index + 1)?;
            if !matches!(next, PmEvent::Fence { .. }) {
                return None;
            }
            mutated.extend_from_slice(&events[..perturbation.index]);
            mutated.push(next.clone());
            mutated.push(event.clone());
            mutated.extend_from_slice(&events[perturbation.index + 2..]);
        }
        (FaultClass::SwapEpochMarkers, PmEvent::Fence { .. }) => {
            let next = events.get(perturbation.index + 1)?;
            if !matches!(next, PmEvent::EpochEnd { .. }) {
                return None;
            }
            mutated.extend_from_slice(&events[..perturbation.index]);
            mutated.push(next.clone());
            // The fence now sits outside the epoch section it was in.
            let fence = match event {
                PmEvent::Fence {
                    kind, tid, strand, ..
                } => PmEvent::Fence {
                    kind: *kind,
                    tid: *tid,
                    strand: *strand,
                    in_epoch: false,
                },
                _ => unreachable!("matched Fence above"),
            };
            mutated.push(fence);
            mutated.extend_from_slice(&events[perturbation.index + 2..]);
        }
        (
            FaultClass::TearStore,
            PmEvent::Store {
                addr,
                size,
                tid,
                strand,
                in_epoch,
            },
        ) if *size >= 2 => {
            mutated.extend_from_slice(&events[..perturbation.index]);
            mutated.push(PmEvent::Store {
                addr: *addr,
                size: *size / 2,
                tid: *tid,
                strand: *strand,
                in_epoch: *in_epoch,
            });
            mutated.extend_from_slice(&events[perturbation.index + 1..]);
        }
        _ => return None,
    }
    let mut out = Trace::new();
    for event in mutated {
        out.push(event);
    }
    Some(out)
}

/// The detectors the oracle cross-checks, in the order
/// [`PerturbOutcome`] flags them. PMDebugger runs with the sweep's model;
/// the baselines run their fixed architectures.
pub const DETECTORS: [&str; 4] = ["pmdebugger", "pmemcheck", "pmtest", "xfdetector"];

fn detector_stack(model: PersistencyModel) -> [Box<dyn Detector>; 4] {
    [
        Box::new(PmDebugger::new(DebuggerConfig::for_model(model))),
        Box::new(PmemcheckLike::new()),
        Box::new(PmtestLike::new()),
        Box::new(XfdetectorLike::new(Default::default())),
    ]
}

/// Per-kind report counts of each detector in the stack over `trace`.
fn detector_counts(trace: &Trace, model: PersistencyModel) -> [ReportDigest; 4] {
    detector_stack(model).map(|mut detector| {
        let mut digest = ReportDigest::default();
        for report in &pm_trace::replay_finish(trace, detector.as_mut()) {
            digest.count(report);
        }
        digest
    })
}

/// What one perturbation did: `None` when it left the semantic
/// fingerprint unchanged (benign), otherwise which detectors, in
/// [`DETECTORS`] order, flagged the mutated trace.
pub type PerturbOutcome = Option<[bool; 4]>;

/// The perturbation sweep over one clean trace: the detector
/// differential, one single-event perturbation per plan.
///
/// Plan `i` is candidate `i` of [`perturbations`], whatever the seed. Each
/// plan tallies `<class>.injected`, then either `<class>.benign` or, per
/// detector, `<class>.<detector>_detected` / `<class>.<detector>_missed`;
/// a semantic perturbation no detector flagged also counts as
/// `<class>.escaped`, and `untested` counts the candidates a capped run
/// left out. A perturbation is flagged when the detector reports
/// a kind more often than over the clean trace. Detector blind spots are
/// tallies, not violations: they describe the tools, not a broken
/// invariant. A detector panic on a mutated stream is an abort.
#[derive(Debug)]
pub struct PerturbSweep {
    trace: Trace,
    model: PersistencyModel,
    candidates: Vec<Perturbation>,
    fingerprint: Fingerprint,
    base: [ReportDigest; 4],
    plans_run: usize,
}

impl PerturbSweep {
    /// Enumerates the perturbations of `trace` and replays the clean
    /// trace once through every detector.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] when the trace has no events.
    pub fn new(trace: Trace, model: PersistencyModel) -> Result<Self, ChaosError> {
        if trace.is_empty() {
            return Err(ChaosError::EmptyTrace);
        }
        Ok(PerturbSweep {
            candidates: perturbations(&trace),
            fingerprint: semantic_fingerprint(&trace),
            base: detector_counts(&trace, model),
            trace,
            model,
            plans_run: 0,
        })
    }
}

impl Sweep for PerturbSweep {
    const NAME: &'static str = "perturb";
    const DEFAULT_SEED: u64 = 0xC4A05;
    const DEFAULT_PLANS: usize = 512;
    type Plan = Perturbation;
    type Outcome = PerturbOutcome;

    /// The candidates in [`perturbations`] order: the seed changes nothing.
    fn plans(&self, _seed: u64) -> Box<dyn Iterator<Item = Perturbation>> {
        Box::new(self.candidates.clone().into_iter())
    }

    fn kind(plan: &Perturbation) -> &'static str {
        plan.class.name()
    }

    fn run(&mut self, plan: &Perturbation) -> PerturbOutcome {
        self.plans_run += 1;
        let mutated = apply(&self.trace, plan).expect("enumerated perturbations apply");
        if self.fingerprint.same_fate(&semantic_fingerprint(&mutated)) {
            return None;
        }
        let counts = detector_counts(&mutated, self.model);
        Some(std::array::from_fn(|i| {
            counts[i]
                .counts
                .iter()
                .zip(self.base[i].counts)
                .any(|(&count, base)| base < count)
        }))
    }

    fn check(
        &self,
        plan: &Perturbation,
        outcome: &PerturbOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        let class = plan.class.name();
        tallies.add(&format!("{class}.injected"), 1);
        match outcome {
            None => tallies.add(&format!("{class}.benign"), 1),
            Some(flagged) => {
                for (name, &hit) in DETECTORS.iter().zip(flagged) {
                    let verdict = if hit { "detected" } else { "missed" };
                    tallies.add(&format!("{class}.{name}_{verdict}"), 1);
                }
                if !flagged.contains(&true) {
                    tallies.add(&format!("{class}.escaped"), 1);
                }
            }
        }
        Vec::new()
    }

    fn finish(&mut self, tallies: &mut Tallies) -> Vec<SweepViolation> {
        let tested = std::mem::take(&mut self.plans_run).min(self.candidates.len());
        tallies.add("untested", (self.candidates.len() - tested) as u64);
        for class in FaultClass::ALL {
            for key in ["injected", "benign", "escaped"] {
                tallies.add(&format!("{}.{key}", class.name()), 0);
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{assert_json_keys, run_sweep, SweepOptions, SweepReport};
    use pm_trace::PmRuntime;
    use pmem_sim::FlushKind;

    fn clean_trace(ops: usize) -> Trace {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        for i in 0..ops {
            let addr = (i as u64) * 64;
            rt.store_untyped(addr, 8);
            rt.flush_range(FlushKind::Clwb, addr, 8).unwrap();
            rt.sfence();
        }
        rt.try_take_trace().unwrap()
    }

    #[test]
    fn enumeration_covers_all_applicable_classes() {
        let trace = clean_trace(3);
        let all = perturbations(&trace);
        // 3 flushes × (drop, dup, reorder) + 3 fences × (drop, dup) + 3 torn stores.
        assert_eq!(all.len(), 3 * 3 + 3 * 2 + 3);
        for perturbation in &all {
            let mutated = apply(&trace, perturbation).expect("enumerated must apply");
            let diff = mutated.len() as i64 - trace.len() as i64;
            assert!(diff.abs() <= 1, "single-event edit only");
        }
    }

    #[test]
    fn drop_flush_changes_semantics_and_is_detected() {
        let trace = clean_trace(2);
        let perturbation = perturbations(&trace)
            .into_iter()
            .find(|p| p.class == FaultClass::DropFlush)
            .unwrap();
        let mutated = apply(&trace, &perturbation).unwrap();
        assert_ne!(semantic_fingerprint(&mutated), semantic_fingerprint(&trace));
        let mut detector = PmDebugger::strict();
        let reports = pm_trace::replay_finish(&mutated, &mut detector);
        assert!(!reports.is_empty(), "dropped flush must be flagged");
    }

    #[test]
    fn duplicate_fence_is_benign() {
        let trace = clean_trace(2);
        let perturbation = perturbations(&trace)
            .into_iter()
            .find(|p| p.class == FaultClass::DuplicateFence)
            .unwrap();
        let mutated = apply(&trace, &perturbation).unwrap();
        assert_eq!(semantic_fingerprint(&mutated), semantic_fingerprint(&trace));
    }

    #[test]
    fn swap_epoch_markers_applies_on_epoch_traces() {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.epoch_begin();
        rt.store_untyped(0, 8);
        rt.flush_range(FlushKind::Clwb, 0, 8).unwrap();
        rt.sfence();
        rt.epoch_end().unwrap();
        let trace = rt.try_take_trace().unwrap();
        let perturbation = perturbations(&trace)
            .into_iter()
            .find(|p| p.class == FaultClass::SwapEpochMarkers)
            .expect("fence directly before epoch end");
        let mutated = apply(&trace, &perturbation).unwrap();
        assert_ne!(
            semantic_fingerprint(&mutated),
            semantic_fingerprint(&trace),
            "epoch now closes before durability"
        );
    }

    fn sweep_clean(ops: usize) -> SweepReport {
        let mut sweep = PerturbSweep::new(clean_trace(ops), PersistencyModel::Strict).unwrap();
        run_sweep(&mut sweep, &SweepOptions::new(512, 1))
    }

    #[test]
    fn tallies_add_up_per_class() {
        let report = sweep_clean(3);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 18);
        for class in FaultClass::ALL {
            let class = class.name();
            let tally = |key: &str| report.tally(&format!("{class}.{key}"));
            for detector in DETECTORS {
                let judged =
                    tally(&format!("{detector}_detected")) + tally(&format!("{detector}_missed"));
                assert_eq!(judged + tally("benign"), tally("injected"), "{class}");
            }
            assert_eq!(tally("injected"), report.mix(class));
        }
        assert_json_keys(&report, &["swap-epoch-markers", "escaped"]);
    }

    #[test]
    fn pmdebugger_catches_every_semantic_injection_on_clean_ops() {
        let report = sweep_clean(4);
        for class in FaultClass::ALL {
            let missed = report.tally(&format!("{}.pmdebugger_missed", class.name()));
            assert_eq!(missed, 0, "{}", report.to_json());
        }
    }

    #[test]
    fn a_capped_sweep_reaches_every_class_the_trace_admits() {
        // Epoch b_tree x64: 2,360 candidates, 1,608 of them torn stores,
        // which in trace order took 347 of the first 512 plans and left
        // 14 for each fence class.
        let trace = pm_workloads::record_trace(&pm_workloads::BTree::default(), 64);
        let all = perturbations(&trace);
        let capped = PerturbSweep::DEFAULT_PLANS;
        assert!(all.len() > capped, "{} candidates", all.len());
        let present = FaultClass::ALL
            .iter()
            .filter(|&&class| all.iter().any(|p| p.class == class))
            .count();
        assert_eq!(present, FaultClass::ALL.len());
        for class in FaultClass::ALL {
            let indices: Vec<usize> = all
                .iter()
                .filter(|p| p.class == class)
                .map(|p| p.index)
                .collect();
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "{}", class.name());
            // Round-robin: every class gets its share of the cap, or all
            // of its candidates when it has fewer.
            let share = indices.len().min(capped / present);
            let ran = all[..capped].iter().filter(|p| p.class == class).count();
            assert!(
                ran >= share,
                "{}: {ran} of the first {capped} plans",
                class.name()
            );
        }
        let mut sweep = PerturbSweep::new(trace, PersistencyModel::Epoch).unwrap();
        let report = run_sweep(&mut sweep, &SweepOptions::new(capped, 1));
        assert_eq!(report.tally("untested"), (all.len() - capped) as u64);
        assert_eq!(sweep_clean(3).tally("untested"), 0);
    }

    #[test]
    fn tearing_a_store_whose_lines_nothing_else_touches_is_benign() {
        // A two-line store, then its full flush and a fence: the torn half
        // never writes the second line, and the first line's fate is
        // unchanged, so recovery cannot tell the traces apart.
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(0, 128);
        rt.flush_range(FlushKind::Clwb, 0, 128).unwrap();
        rt.sfence();
        let trace = rt.try_take_trace().unwrap();
        let mut sweep = PerturbSweep::new(trace, PersistencyModel::Strict).unwrap();
        let report = run_sweep(&mut sweep, &SweepOptions::new(512, 1));
        assert_eq!(report.tally("tear-store.injected"), 1);
        assert_eq!(report.tally("tear-store.benign"), 1, "{}", report.to_json());
        assert_eq!(report.tally("tear-store.escaped"), 0);
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert!(matches!(
            PerturbSweep::new(Trace::new(), PersistencyModel::Strict),
            Err(ChaosError::EmptyTrace)
        ));
    }
}
