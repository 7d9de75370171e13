//! Detector-fault chaos sweep for the supervised parallel pipeline.
//!
//! Where [`crate::corrupt`] tortures the *ingestion* layer and
//! [`crate::scheduler`] tortures the *workloads*, this module tortures the
//! detection engine itself: hundreds of seeded
//! [`pmdebugger::FaultPlan`]s — panic, virtual-delay and alloc-pressure
//! faults compiled into the guarded worker loop — run against one trace
//! under varied supervision policies, asserting the supervisor's whole
//! contract at once:
//!
//! * **zero process aborts**: every run completes or fails *typed*, never
//!   by panic (the sweep runner's `catch_unwind` counts an escaped panic
//!   as an abort instead of dying with it);
//! * **fault-free shards are byte-identical**: the surviving verdicts
//!   equal [`pmdebugger::expected_surviving_reports`] — the sequential
//!   reports owned by surviving shards, in sequential order;
//! * **casualties are named precisely**: the quarantined shard set and the
//!   lost-event total match [`pmdebugger::FaultPlan::dooms`]' prediction
//!   exactly, per plan.
//!
//! Plans are drawn from one rolling splitmix state (a policy draw, then a
//! fault-seed draw per plan) and cycle 2/3/4/8 worker threads, so plan `i`
//! is `plans(seed).nth(i)`.

use std::time::Duration;

use pm_trace::{splitmix64, BugReport, Trace};
use pm_workloads::{record_trace, HashmapAtomic};
use pmdebugger::{
    detect_supervised, expected_surviving_reports, DebuggerConfig, FailMode, FaultPlan,
    ParallelConfig, PersistencyModel, SupervisedOutcome, SupervisorConfig,
};

use crate::sweep::{batch_reports, Sweep, SweepViolation, Tallies};

/// Worker-thread counts cycled across plans.
const THREADS: [usize; 4] = [2, 3, 4, 8];

/// Operations in the default `hashmap_atomic` trace.
const DEFAULT_OPS: usize = 64;

/// The detector-fault sweep over one recorded trace.
#[derive(Debug, Clone)]
pub struct SuperviseSweep {
    trace: Trace,
    config: DebuggerConfig,
    sequential: Vec<BugReport>,
}

impl SuperviseSweep {
    /// A sweep over `trace`, detected under `model`.
    pub fn new(trace: Trace, model: PersistencyModel) -> Self {
        let config = DebuggerConfig::for_model(model);
        let sequential = batch_reports(&config, trace.events());
        SuperviseSweep {
            trace,
            config,
            sequential,
        }
    }
}

impl Default for SuperviseSweep {
    /// The CI sweep: `hashmap_atomic` x 64 operations, epoch model.
    fn default() -> Self {
        SuperviseSweep::new(
            record_trace(&HashmapAtomic::default(), DEFAULT_OPS),
            PersistencyModel::Epoch,
        )
    }
}

/// One seeded fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisePlan {
    /// Worker threads the run uses.
    pub threads: usize,
    /// The raw draw the supervision policy (retries, fallback, limits) is
    /// derived from.
    pub policy: u64,
    /// Seed of the injected [`FaultPlan`].
    pub fault_seed: u64,
}

/// What one supervised run did.
#[derive(Debug)]
pub struct SuperviseOutcome {
    faults: u64,
    doomed: Vec<u32>,
    result: Result<SupervisedOutcome, String>,
}

/// Derives a plan's supervision policy from its draw: retries in 0..=2,
/// sequential fallback on or off, and the deadline / memory-budget limits
/// toggled independently. Limits are sized so only injected faults can
/// trip them — that keeps [`FaultPlan::dooms`] an exact oracle.
fn policy(r: u64) -> SupervisorConfig {
    let mut sup = SupervisorConfig::default()
        .with_max_retries((r % 3) as u32)
        .with_sequential_fallback(r & 8 != 0)
        .with_fail_mode(FailMode::Degrade);
    if r & 16 != 0 {
        sup = sup.with_shard_deadline(Duration::from_secs(30));
    }
    if r & 32 != 0 {
        sup = sup.with_max_shard_bytes(8 << 20);
    }
    sup
}

impl Sweep for SuperviseSweep {
    const NAME: &'static str = "supervise";
    const DEFAULT_SEED: u64 = 0x5AFE_0001;
    const DEFAULT_PLANS: usize = 200;
    type Plan = SupervisePlan;
    type Outcome = SuperviseOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = SupervisePlan>> {
        let mut state = seed ^ 0xC0FF_EE00_D15E_A5ED;
        Box::new((0..).map(move |index: usize| {
            let policy = splitmix64(&mut state);
            SupervisePlan {
                threads: THREADS[index % THREADS.len()],
                policy,
                fault_seed: splitmix64(&mut state),
            }
        }))
    }

    fn kind(plan: &SupervisePlan) -> &'static str {
        match plan.threads {
            2 => "threads_2",
            3 => "threads_3",
            4 => "threads_4",
            _ => "threads_8",
        }
    }

    fn run(&mut self, plan: &SupervisePlan) -> SuperviseOutcome {
        let sup = policy(plan.policy);
        let faults = FaultPlan::seeded(plan.fault_seed, plan.threads, sup.total_attempts());
        let result = detect_supervised(
            &self.config,
            &ParallelConfig::with_threads(plan.threads),
            &sup,
            Some(&faults),
            &self.trace,
        );
        SuperviseOutcome {
            faults: faults.faults().len() as u64,
            doomed: faults.doomed_workers(plan.threads, &sup),
            result: result.map_err(|e| e.to_string()),
        }
    }

    fn check(
        &self,
        plan: &SupervisePlan,
        outcome: &SuperviseOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        tallies.add("faults_injected", outcome.faults);
        let result = match &outcome.result {
            Ok(result) => result,
            Err(err) => {
                return vec![SweepViolation::new(
                    "typed-error-in-degrade-mode",
                    format!("degrade mode returned an error: {err}"),
                )]
            }
        };
        let mut violations = Vec::new();
        let doomed = &outcome.doomed;

        // Casualty precision: quarantined set == the oracle's prediction.
        let quarantined: Vec<u32> = result
            .degraded
            .as_ref()
            .map(|d| d.quarantined.iter().map(|q| q.worker).collect())
            .unwrap_or_default();
        if &quarantined != doomed {
            violations.push(SweepViolation::new(
                "casualty-mismatch",
                format!("quarantined {quarantined:?}, predicted {doomed:?}"),
            ));
        }

        // Lost-event accounting matches the plan ledger exactly.
        let predicted_lost: u64 = doomed
            .iter()
            .filter_map(|&w| result.plan.worker_loads().get(w as usize))
            .sum();
        let reported_lost = result.degraded.as_ref().map_or(0, |d| d.lost_events);
        if reported_lost != predicted_lost {
            violations.push(SweepViolation::new(
                "lost-event-mismatch",
                format!("reported {reported_lost} lost events, predicted {predicted_lost}"),
            ));
        }

        // Fault-free shards byte-identical to sequential (and with no
        // casualties the whole verdict set must match exactly).
        let expected =
            expected_surviving_reports(&self.sequential, &result.plan, doomed, plan.threads);
        if result.outcome.reports != expected {
            violations.push(SweepViolation::new(
                "survivor-divergence",
                format!(
                    "surviving reports diverged: got {}, expected {} (doomed {doomed:?})",
                    result.outcome.reports.len(),
                    expected.len()
                ),
            ));
        }

        tallies.add("degraded_runs", u64::from(result.is_degraded()));
        tallies.add("quarantined_shards", quarantined.len() as u64);
        tallies.add("retries", result.retries);
        tallies.add("lost_events", reported_lost);
        violations
    }
}
