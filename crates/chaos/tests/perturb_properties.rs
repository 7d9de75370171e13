//! Property tests for the perturbation oracle (satellite of the torture
//! campaign): every single-event perturbation of a clean strict-model trace
//! either leaves the line-granular persistence semantics unchanged, or is
//! flagged by at least one detector in the differential stack. And nothing
//! in the stack — detectors or the crash-points sweep — may panic on a
//! perturbed stream.

use proptest::prelude::*;

use pm_baselines::{PmemcheckLike, PmtestLike};
use pm_chaos::{
    apply, perturbations, run_sweep, semantic_fingerprint, CrashPointSweep, FaultClass,
    Perturbation, Sweep, SweepOptions,
};
use pm_trace::{replay_finish, FenceKind, FlushKind, PmEvent, ThreadId, Trace};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

const TID: ThreadId = ThreadId(1);
const BASE: u64 = 0x1000;

/// Builds a clean strict-model trace: per op, one or two stores to a private
/// cache line, then flush + fence. Always detector-clean.
fn clean_trace(ops: usize, double_store: bool) -> Trace {
    let mut trace = Trace::new();
    let store = |addr, size| PmEvent::Store {
        addr,
        size,
        tid: TID,
        strand: None,
        in_epoch: false,
    };
    for i in 0..ops as u64 {
        let addr = BASE + i * 64;
        trace.push(store(addr, 8));
        if double_store {
            trace.push(store(addr + 8, 8));
        }
        trace.push(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr,
            size: 64,
            tid: TID,
            strand: None,
        });
        trace.push(PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: TID,
            strand: None,
            in_epoch: false,
        });
    }
    trace
}

/// Counts reports per detector after a full replay, as a coarse signature.
fn detector_hits(trace: &Trace) -> [usize; 3] {
    let mut dbg = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    let mut pmemcheck = PmemcheckLike::new();
    let mut pmtest = PmtestLike::new();
    [
        replay_finish(trace, &mut dbg).len(),
        replay_finish(trace, &mut pmemcheck).len(),
        replay_finish(trace, &mut pmtest).len(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of the oracle: a perturbation that changes what is durable
    /// (per the semantic fingerprint) must grow at least one detector's
    /// report count relative to the clean baseline.
    #[test]
    fn semantic_perturbations_are_flagged(ops in 1usize..8, double in any::<bool>()) {
        let trace = clean_trace(ops, double);
        let base = detector_hits(&trace);
        prop_assert_eq!(base, [0, 0, 0], "generated trace must be clean");
        let base_fp = semantic_fingerprint(&trace);

        for p in perturbations(&trace) {
            let Some(mutated) = apply(&trace, &p) else { continue };
            let fp = semantic_fingerprint(&mutated);
            if fp == base_fp {
                continue; // benign by construction
            }
            let hits = detector_hits(&mutated);
            prop_assert!(
                hits.iter().any(|&h| h > 0),
                "semantic perturbation {:?} escaped every detector",
                p
            );
        }
    }

    /// Robustness: duplicate fences and same-line store tears never change
    /// the fingerprint of a clean trace.
    #[test]
    fn duplicate_fence_and_tear_are_benign(ops in 1usize..8) {
        let trace = clean_trace(ops, false);
        let base_fp = semantic_fingerprint(&trace);
        for p in perturbations(&trace) {
            if !matches!(p.class, FaultClass::DuplicateFence | FaultClass::TearStore) {
                continue;
            }
            let mutated = apply(&trace, &p).expect("applicable");
            prop_assert_eq!(semantic_fingerprint(&mutated), base_fp.clone());
        }
    }

    /// Degradation: the crash-points sweep returns a report (never panics
    /// or aborts) on every perturbed variant, crashing at every boundary
    /// up to the end of the trace.
    #[test]
    fn campaign_survives_perturbed_streams(ops in 1usize..6, idx in 0usize..64) {
        let trace = clean_trace(ops, true);
        let all = perturbations(&trace);
        prop_assume!(!all.is_empty());
        let p: Perturbation = all[idx % all.len()];
        let Some(mutated) = apply(&trace, &p) else { return Ok(()) };
        let mut sweep = CrashPointSweep::new(mutated, PersistencyModel::Strict).unwrap();
        let report = run_sweep(
            &mut sweep,
            &SweepOptions::new(CrashPointSweep::DEFAULT_PLANS, CrashPointSweep::DEFAULT_SEED),
        );
        prop_assert_eq!(report.tallies.aborts, 0);
        prop_assert_eq!(report.plans_run as u64, report.tally("boundaries"));
        prop_assert_eq!(report.tally("untested"), 0);
    }
}
