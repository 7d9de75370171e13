//! Trace perturbation engine and the detector differential oracle.
//!
//! Every fault class mutates one event of a clean trace — the kinds of
//! slip-ups PM programmers actually make (drop a flush, fence in the wrong
//! place, tear a store, move a fence out of its epoch). The oracle then
//! asks: did the mutation change the trace's persistence semantics
//! ([`crate::semantic_fingerprint`]), and if so, does each detector flag
//! it? The result is a [`SensitivityMatrix`] — per fault class, per
//! detector, how many injections were detected, missed, or benign.

use std::collections::BTreeMap;

use pm_baselines::{PmemcheckLike, PmtestLike, XfdetectorLike};
use pm_obs::json::escape;
use pm_trace::{Detector, PmEvent, ReportDigest, Trace};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

use crate::budget::{Budget, Truncation};
use crate::validate::semantic_fingerprint;

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
    /// All classes, in matrix row order.
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

/// Enumerates every applicable single-event perturbation of `trace`.
pub fn perturbations(trace: &Trace) -> Vec<Perturbation> {
    let events = trace.events();
    let mut out = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let next = events.get(index + 1);
        match event {
            PmEvent::Flush { .. } => {
                out.push(Perturbation {
                    class: FaultClass::DropFlush,
                    index,
                });
                out.push(Perturbation {
                    class: FaultClass::DuplicateFlush,
                    index,
                });
                if matches!(next, Some(PmEvent::Fence { .. })) {
                    out.push(Perturbation {
                        class: FaultClass::ReorderFlushFence,
                        index,
                    });
                }
            }
            PmEvent::Fence { .. } => {
                out.push(Perturbation {
                    class: FaultClass::DropFence,
                    index,
                });
                out.push(Perturbation {
                    class: FaultClass::DuplicateFence,
                    index,
                });
                if matches!(next, Some(PmEvent::EpochEnd { .. })) {
                    out.push(Perturbation {
                        class: FaultClass::SwapEpochMarkers,
                        index,
                    });
                }
            }
            PmEvent::Store { size, .. } if *size >= 2 => {
                out.push(Perturbation {
                    class: FaultClass::TearStore,
                    index,
                });
            }
            _ => {}
        }
    }
    out
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

/// Per-fault-class row of the sensitivity matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassRow {
    /// Perturbations of this class applied.
    pub injected: usize,
    /// Perturbations that left the semantic fingerprint unchanged.
    pub benign: usize,
    /// Semantic perturbations flagged, per detector name.
    pub detected: BTreeMap<String, usize>,
    /// Semantic perturbations missed, per detector name.
    pub missed: BTreeMap<String, usize>,
}

/// The differential-oracle result: per fault class, how each detector
/// responded to the injections.
#[derive(Debug, Clone, Default)]
pub struct SensitivityMatrix {
    /// Rows keyed by [`FaultClass::name`].
    pub rows: BTreeMap<&'static str, ClassRow>,
    /// Events in the base trace.
    pub trace_len: usize,
    /// Structurally invalid events PMDebugger tolerated (graceful
    /// degradation counter) across all perturbed runs.
    pub malformed_tolerated: u64,
    /// Budget bounds that bit during the sweep.
    pub truncations: Vec<Truncation>,
}

impl SensitivityMatrix {
    /// Semantic injections missed by the named detector, across classes.
    pub fn missed_by(&self, detector: &str) -> usize {
        self.rows
            .values()
            .map(|row| row.missed.get(detector).copied().unwrap_or(0))
            .sum()
    }

    /// Serializes the matrix as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"trace_len\":");
        out.push_str(&self.trace_len.to_string());
        out.push_str(&format!(
            ",\"malformed_tolerated\":{}",
            self.malformed_tolerated
        ));
        out.push_str(",\"rows\":{");
        for (i, (class, row)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"injected\":{},\"benign\":{},\"detected\":{{",
                escape(class),
                row.injected,
                row.benign
            ));
            for (j, (detector, count)) in row.detected.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", escape(detector), count));
            }
            out.push_str("},\"missed\":{");
            for (j, (detector, count)) in row.missed.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", escape(detector), count));
            }
            out.push_str("}}");
        }
        out.push_str("},\"truncations\":[");
        for (i, truncation) in self.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(&truncation.to_string()));
        }
        out.push_str("]}");
        out
    }
}

/// The detectors the oracle cross-checks. PMDebugger runs with the given
/// model; the baselines run their fixed architectures.
fn detector_stack(model: PersistencyModel) -> Vec<(&'static str, Box<dyn Detector>)> {
    vec![
        (
            "pmdebugger",
            Box::new(PmDebugger::new(DebuggerConfig::for_model(model))) as Box<dyn Detector>,
        ),
        ("pmemcheck", Box::new(PmemcheckLike::new())),
        ("pmtest", Box::new(PmtestLike::new())),
        (
            "xfdetector",
            Box::new(XfdetectorLike::new(Default::default())),
        ),
    ]
}

/// Runs the differential oracle over every (budget-bounded) single-event
/// perturbation of `trace` and tabulates detector sensitivity.
pub fn sensitivity_matrix(
    trace: &Trace,
    model: PersistencyModel,
    budget: &Budget,
) -> SensitivityMatrix {
    let mut matrix = SensitivityMatrix {
        trace_len: trace.len(),
        ..SensitivityMatrix::default()
    };
    for class in FaultClass::ALL {
        matrix.rows.insert(class.name(), ClassRow::default());
    }

    let base_fingerprint = semantic_fingerprint(trace);
    // Baseline signature per detector: a perturbation is "detected" when it
    // produces a report the clean trace did not (new kind or higher count).
    let base_signatures: BTreeMap<&'static str, ReportDigest> = detector_stack(model)
        .into_iter()
        .map(|(name, mut detector)| {
            (
                name,
                ReportDigest::of(&pm_trace::replay_finish(trace, detector.as_mut())),
            )
        })
        .collect();

    let clock = budget.start_clock();
    let candidates = perturbations(trace);
    let tested = candidates.len().min(budget.max_perturbations);
    if tested < candidates.len() {
        matrix.truncations.push(Truncation::PerturbationsSampled {
            tested,
            total: candidates.len(),
        });
    }

    for (done, perturbation) in candidates.iter().take(tested).enumerate() {
        if clock.expired() {
            matrix.truncations.push(Truncation::WallClockExpired {
                tested: done,
                total: tested,
            });
            break;
        }
        let Some(mutated) = apply(trace, perturbation) else {
            continue;
        };
        let row = matrix
            .rows
            .get_mut(perturbation.class.name())
            .expect("all classes pre-inserted");
        row.injected += 1;

        if semantic_fingerprint(&mutated) == base_fingerprint {
            row.benign += 1;
            continue;
        }
        for (name, mut detector) in detector_stack(model) {
            let reports = pm_trace::replay_finish(&mutated, detector.as_mut());
            let signature = ReportDigest::of(&reports);
            let base = &base_signatures[name];
            let flagged = signature
                .counts
                .iter()
                .zip(base.counts)
                .any(|(&count, base_count)| base_count < count);
            let bucket = if flagged {
                &mut row.detected
            } else {
                &mut row.missed
            };
            *bucket.entry(name.to_owned()).or_insert(0) += 1;
        }
        // The graceful-degradation counter: re-run PMDebugger concretely to
        // read how many malformed events it tolerated.
        let mut concrete = PmDebugger::new(DebuggerConfig::for_model(model));
        pm_trace::replay(&mutated, &mut concrete);
        matrix.malformed_tolerated += concrete.malformed_events();
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn matrix_counts_sum_and_render() {
        let trace = clean_trace(3);
        let matrix = sensitivity_matrix(&trace, PersistencyModel::Strict, &Budget::default());
        for row in matrix.rows.values() {
            let judged: usize = row.detected.get("pmdebugger").copied().unwrap_or(0)
                + row.missed.get("pmdebugger").copied().unwrap_or(0);
            assert_eq!(judged + row.benign, row.injected, "{matrix:?}");
        }
        let json = matrix.to_json();
        assert!(json.contains("\"drop-flush\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn pmdebugger_catches_every_semantic_injection_on_clean_ops() {
        let trace = clean_trace(4);
        let matrix = sensitivity_matrix(&trace, PersistencyModel::Strict, &Budget::default());
        assert_eq!(matrix.missed_by("pmdebugger"), 0, "{matrix:?}");
    }
}
