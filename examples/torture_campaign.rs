//! Torture-campaign walkthrough: crash the Figure 9a memcached CAS bug at
//! every persist boundary, watch the strict-overwrite validator flag the
//! image where the stale CAS id survives, replay that one crash point from
//! its `seed:index`, then confirm the fixed variant sweeps clean — and
//! print the perturbation tallies for the fixed trace.
//!
//! Run with: `cargo run --example torture_campaign`

use pm_chaos::{
    replay_plan, run_sweep, CrashPointSweep, FaultClass, PerturbSweep, Sweep, SweepOptions,
    DETECTORS,
};
use pm_workloads::faults;
use pmdebugger::PersistencyModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let crash_points = SweepOptions::new(
        CrashPointSweep::DEFAULT_PLANS,
        CrashPointSweep::DEFAULT_SEED,
    );

    // Buggy variant: the CAS id is stored into an already-durable header
    // line and never flushed before the publishing fence.
    let buggy = faults::memcached_cas_bug_trace(40)?;
    let mut sweep = CrashPointSweep::new(buggy.clone(), PersistencyModel::Strict)?;
    let report = run_sweep(&mut sweep, &crash_points);
    print!("buggy : {report}");
    if let Some(first) = report.violations.first() {
        let mut fresh = CrashPointSweep::new(buggy, PersistencyModel::Strict)?;
        let replayed = replay_plan(&mut fresh, first.seed, first.plan_index);
        println!(
            "replay {}:{} reproduces it: {}",
            first.seed,
            first.plan_index,
            replayed.violations.contains(first)
        );
    }

    // Fixed variant: a clflushopt before the fence makes the sweep clean.
    let fixed = faults::memcached_cas_fixed_trace(40)?;
    let mut sweep = CrashPointSweep::new(fixed.clone(), PersistencyModel::Strict)?;
    print!("fixed : {}", run_sweep(&mut sweep, &crash_points));

    // Differential oracle: which detectors catch which injected faults?
    let mut sweep = PerturbSweep::new(fixed, PersistencyModel::Strict)?;
    let report = run_sweep(
        &mut sweep,
        &SweepOptions::new(PerturbSweep::DEFAULT_PLANS, PerturbSweep::DEFAULT_SEED),
    );
    println!(
        "perturbations of the fixed trace ({} plans):",
        report.plans_run
    );
    for class in FaultClass::ALL {
        let tally = |key: &str| report.tally(&format!("{}.{key}", class.name()));
        let detected: Vec<String> = DETECTORS
            .iter()
            .map(|d| format!("{d}={}", tally(&format!("{d}_detected"))))
            .collect();
        println!(
            "  {:<20} injected={:<3} benign={:<3} escaped={:<3} detected: {}",
            class.name(),
            tally("injected"),
            tally("benign"),
            tally("escaped"),
            detected.join(" ")
        );
    }
    Ok(())
}
