//! Acceptance sweep for the supervised detection pipeline: hundreds of
//! seeded detector-fault plans (panics, virtual delays, alloc pressure at
//! varied retry/fallback/deadline/budget policies and thread counts) must
//! produce zero process aborts, byte-identical verdicts from fault-free
//! shards, and degradation reports that name every injected casualty.

use pm_chaos::{run_sweep, SuperviseSweep, Sweep, SweepOptions};
use pm_workloads::{record_trace, BTree, HashmapTx};
use pmdebugger::PersistencyModel;

#[test]
fn two_hundred_fault_plans_zero_aborts_exact_casualties() {
    let mut sweep = SuperviseSweep::new(
        record_trace(&BTree::default(), 64),
        PersistencyModel::Strict,
    );
    let report = run_sweep(
        &mut sweep,
        &SweepOptions::new(200, SuperviseSweep::DEFAULT_SEED),
    );
    assert!(report.ok(), "sweep failed: {}", report.to_json());
    assert_eq!(report.plans_run, 200, "{}", report.to_json());
    assert_eq!(report.tallies.aborts, 0);
    assert!(report.truncations.is_empty(), "{}", report.to_json());
    // The seeded plans must actually exercise the degradation machinery,
    // not just clean runs: some shards die for good, some are retried.
    assert!(report.tally("degraded_runs") > 0, "{}", report.to_json());
    assert!(
        report.tally("quarantined_shards") > 0,
        "{}",
        report.to_json()
    );
    assert!(report.tally("retries") > 0, "{}", report.to_json());
    assert!(report.tally("lost_events") > 0, "{}", report.to_json());
}

#[test]
fn epoch_model_sweep_is_clean_too() {
    let mut sweep = SuperviseSweep::new(
        record_trace(&HashmapTx::default(), 48),
        PersistencyModel::Epoch,
    );
    let report = run_sweep(&mut sweep, &SweepOptions::new(40, 0xEB0C_4A11));
    assert!(report.ok(), "sweep failed: {}", report.to_json());
    assert_eq!(report.plans_run, 40);
}
