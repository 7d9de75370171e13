//! Acceptance tests for the crash-points and perturb sweeps over the bug
//! corpus's showcased workload variants (Figure 9): every buggy variant
//! must fail (recovery bugs via crash-image validators, performance bugs
//! via the detector differential), every fixed variant must sweep clean, a
//! finding must come back from its `seed:index`, and a starved wall clock
//! must yield a partial report, not a panic.

use std::time::Duration;

use pm_chaos::{
    replay_plan, run_sweep, CrashPointSweep, PerturbSweep, Sweep, SweepOptions, SweepReport,
    SweepViolation, Truncation,
};
use pm_trace::Trace;
use pm_workloads::faults;
use pmdebugger::PersistencyModel;

fn sweep(trace: &Trace, model: PersistencyModel) -> CrashPointSweep {
    CrashPointSweep::new(trace.clone(), model).unwrap()
}

/// The crash-points sweep at its default plan count and seed.
fn crash_points(trace: &Trace, model: PersistencyModel) -> SweepReport {
    let opts = SweepOptions::new(
        CrashPointSweep::DEFAULT_PLANS,
        CrashPointSweep::DEFAULT_SEED,
    );
    run_sweep(&mut sweep(trace, model), &opts)
}

fn unrecoverable(report: &SweepReport) -> Vec<&SweepViolation> {
    report
        .violations
        .iter()
        .filter(|v| v.kind == "unrecoverable")
        .collect()
}

fn flagged_by(report: &SweepReport, validator: &str) -> bool {
    unrecoverable(report)
        .iter()
        .any(|v| v.detail.starts_with(&format!("{validator} ")))
}

/// The `validator addr=.. size=..` part of a finding's detail.
fn finding_key(violation: &SweepViolation) -> &str {
    violation.detail.split(" boundary=").next().unwrap()
}

#[test]
fn memcached_cas_bug_yields_unrecoverable_states() {
    let trace = faults::memcached_cas_bug_trace(40).unwrap();
    let report = crash_points(&trace, PersistencyModel::Strict);
    assert!(
        flagged_by(&report, "strict-overwrite"),
        "the unpersisted CAS id must surface as an unrecoverable state: {}",
        report.to_json()
    );
    assert!(!report.ok());

    // The first finding is reproduced by its seed:index, and no earlier
    // plan reports it.
    let first = unrecoverable(&report)[0];
    let replayed = replay_plan(
        &mut sweep(&trace, PersistencyModel::Strict),
        first.seed,
        first.plan_index,
    );
    assert!(
        replayed.violations.contains(first),
        "{}",
        replayed.to_json()
    );
    for index in 0..first.plan_index {
        let earlier = replay_plan(
            &mut sweep(&trace, PersistencyModel::Strict),
            first.seed,
            index,
        );
        assert!(
            unrecoverable(&earlier)
                .iter()
                .all(|v| finding_key(v) != finding_key(first)),
            "plan {index} already reports {}",
            first.detail
        );
    }
}

#[test]
fn pmdk_array_bug_breaks_the_epoch_commit_contract() {
    let trace = faults::pmdk_array_lack_durability_trace().unwrap();
    let report = crash_points(&trace, PersistencyModel::Epoch);
    assert!(
        flagged_by(&report, "epoch-commit"),
        "the unflushed info struct must surface: {}",
        report.to_json()
    );
    assert!(!report.ok());
    // Small trace: the sweep is exhaustive.
    assert_eq!(report.plans_run as u64, report.tally("boundaries"));
}

#[test]
fn pmdk_array_fixed_is_issue_free() {
    let trace = faults::pmdk_array_fixed_trace().unwrap();
    let report = crash_points(&trace, PersistencyModel::Epoch);
    assert!(report.ok(), "{}", report.to_json());
}

#[test]
fn redundant_fence_bug_is_a_detector_side_issue() {
    // The Figure 9b fence is a performance bug: recovery is correct (no
    // unrecoverable state), but the sweep still fails it via the detector
    // differential.
    let trace = faults::hashmap_atomic_redundant_fence_trace(20).unwrap();
    let report = crash_points(&trace, PersistencyModel::Epoch);
    assert!(unrecoverable(&report).is_empty(), "{}", report.to_json());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "detector-finding"),
        "{}",
        report.to_json()
    );

    let fixed = faults::hashmap_atomic_fixed_trace(20).unwrap();
    let fixed_report = crash_points(&fixed, PersistencyModel::Epoch);
    assert!(fixed_report.ok(), "{}", fixed_report.to_json());
}

#[test]
fn crash_points_report_serializes_to_json() {
    let trace = faults::memcached_cas_bug_trace(10).unwrap();
    let json = crash_points(&trace, PersistencyModel::Strict).to_json();
    assert!(json.contains("\"sweep\":\"crash-points\""), "{json}");
    assert!(json.contains("\"kind\":\"unrecoverable\""), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn starved_wall_clock_returns_partial_report_not_panic() {
    let trace = faults::memcached_cas_bug_trace(40).unwrap();
    let opts = SweepOptions {
        wall_clock: Some(Duration::ZERO),
        ..SweepOptions::new(
            CrashPointSweep::DEFAULT_PLANS,
            CrashPointSweep::DEFAULT_SEED,
        )
    };
    let report = run_sweep(&mut sweep(&trace, PersistencyModel::Strict), &opts);
    assert_eq!(report.plans_run, 0);
    assert!(report
        .truncations
        .iter()
        .any(|t| matches!(t, Truncation::WallClockExpired { .. })));
    // The detector differential still ran, so the bug is still visible.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == "detector-finding"),
        "{}",
        report.to_json()
    );
}

#[test]
fn memcached_cas_fixed_is_issue_free_under_sampling() {
    // 445 boundaries: more than the default plan count, so sampled.
    let trace = faults::memcached_cas_fixed_trace(40).unwrap();
    let report = crash_points(&trace, PersistencyModel::Strict);
    assert_eq!(report.plans_run, CrashPointSweep::DEFAULT_PLANS);
    assert!(
        report.tally("boundaries") > CrashPointSweep::DEFAULT_PLANS as u64,
        "{}",
        report.to_json()
    );
    // The report says how much of the trace the sample left out.
    assert_eq!(
        report.tally("untested"),
        report.tally("boundaries") - CrashPointSweep::DEFAULT_PLANS as u64
    );
    // Sampling must not invent issues on the fixed variant.
    assert!(report.violations.is_empty(), "{}", report.to_json());
    assert!(report.ok());
}

#[test]
fn perturb_covers_the_fault_classes() {
    let trace = faults::memcached_cas_fixed_trace(12).unwrap();
    let mut sweep = PerturbSweep::new(trace, PersistencyModel::Strict).unwrap();
    let report = run_sweep(
        &mut sweep,
        &SweepOptions::new(PerturbSweep::DEFAULT_PLANS, PerturbSweep::DEFAULT_SEED),
    );
    assert!(report.ok(), "{}", report.to_json());
    assert!(report.tally("drop-flush.injected") > 0);
    assert!(
        report.tally("drop-flush.pmdebugger_detected") > 0,
        "dropped flushes must be caught: {}",
        report.to_json()
    );
    for class in [
        "tear-store",
        "drop-fence",
        "duplicate-flush",
        "duplicate-fence",
        "reorder-flush-fence",
    ] {
        assert!(
            report.tally(&format!("{class}.injected")) > 0,
            "{class} never injected"
        );
    }
}
