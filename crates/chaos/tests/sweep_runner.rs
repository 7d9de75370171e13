//! The shared sweep runner: violations name `{sweep, seed, plan_index}`,
//! `seed:index` replays exactly the plan a full run executed, and the
//! ported sweeps keep the plan sequences (and so the tallies) they ran
//! before sharing one runner.

use std::time::Duration;

use pm_chaos::{
    plan_for, replay_plan, run_sweep, CorruptSweep, CrashPointSweep, DaemonCrashSweep,
    MemPressureSweep, PerturbSweep, ServeSweep, SessionPlan, SuperviseSweep, Sweep, SweepOptions,
    SweepReport, SweepViolation, Tallies, ThreadCrashSweep, Truncation,
};
use pm_trace::Trace;
use pm_workloads::{record_trace, BTree, Memcached};
use pmdebugger::PersistencyModel;

/// A test-only sweep: plan `i` of seed `s` is `s + i`; plans divisible by
/// seven break an invariant, and plan value 12 panics.
struct Sevens;

impl Sweep for Sevens {
    const NAME: &'static str = "sevens";
    const DEFAULT_SEED: u64 = 1;
    const DEFAULT_PLANS: usize = 12;
    type Plan = u64;
    type Outcome = u64;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = u64>> {
        Box::new((0..).map(move |i| seed + i))
    }

    fn kind(plan: &u64) -> &'static str {
        if plan.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }

    fn run(&mut self, plan: &u64) -> u64 {
        assert_ne!(*plan, 12, "plan twelve always panics");
        plan * 10
    }

    fn check(&self, plan: &u64, outcome: &u64, tallies: &mut Tallies) -> Vec<SweepViolation> {
        tallies.add("checked", 1);
        tallies.add("outcome_sum", *outcome);
        if plan.is_multiple_of(7) {
            vec![SweepViolation::new(
                "divisible-by-seven",
                format!("plan value {plan}"),
            )]
        } else {
            Vec::new()
        }
    }
}

#[test]
fn violations_name_sweep_seed_and_plan_and_replay_identically() {
    let report = run_sweep(&mut Sevens, &SweepOptions::new(12, 1));
    assert!(!report.ok());
    assert_eq!(report.plans_run, 12);
    assert_eq!(report.tally("checked"), 11);
    let seven = &report.violations[0];
    assert_eq!(
        (seven.sweep, seven.seed, seven.plan_index, seven.kind),
        ("sevens", 1, 6, "divisible-by-seven")
    );
    assert_eq!(seven.detail, "plan value 7");

    let replayed = replay_plan(&mut Sevens, seven.seed, seven.plan_index);
    assert_eq!(replayed.replay, Some(6));
    assert_eq!(replayed.plans_run, 1);
    assert_eq!(replayed.violations, vec![seven.clone()]);
    assert_eq!(replayed.tally("outcome_sum"), 70);

    let json = report.to_json();
    assert!(json.contains("\"schema\":\"pm-chaos-sweep-v1\""), "{json}");
    for key in [
        "plans_planned",
        "plans_run",
        "aborts",
        "wall_ms",
        "truncations",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key}: {json}"
        );
    }
    assert!(
        json.contains(
            "{\"detail\":\"plan value 7\",\"kind\":\"divisible-by-seven\",\
             \"plan_index\":6,\"seed\":1,\"sweep\":\"sevens\"}"
        ),
        "{json}"
    );
    assert!(
        json.contains("\"plan_mix\":{\"even\":6,\"odd\":6}"),
        "{json}"
    );
}

#[test]
fn a_panicking_plan_is_an_abort_that_replays() {
    let report = run_sweep(&mut Sevens, &SweepOptions::new(12, 1));
    let abort = report
        .violations
        .iter()
        .find(|v| v.kind == "abort")
        .expect("plan twelve panics");
    assert_eq!(abort.plan_index, 11);
    assert!(
        abort.detail.contains("plan twelve always panics"),
        "{abort:?}"
    );
    assert_eq!(report.tallies.aborts, 1);
    assert_eq!(report.tally("even.panics"), 1);
    // The other plans still ran and were checked.
    assert_eq!(report.tally("checked"), 11);

    let replayed = replay_plan(&mut Sevens, 1, 11);
    assert_eq!(replayed.tallies.aborts, 1);
    assert_eq!(replayed.violations, vec![abort.clone()]);
}

/// Delegates to `S`, recording every plan the runner executes.
struct Recorder<S: Sweep> {
    inner: S,
    ran: Vec<S::Plan>,
}

impl<S: Sweep> Sweep for Recorder<S> {
    const NAME: &'static str = S::NAME;
    const DEFAULT_SEED: u64 = S::DEFAULT_SEED;
    const DEFAULT_PLANS: usize = S::DEFAULT_PLANS;
    type Plan = S::Plan;
    type Outcome = S::Outcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = S::Plan>> {
        self.inner.plans(seed)
    }

    fn kind(plan: &S::Plan) -> &'static str {
        S::kind(plan)
    }

    fn run(&mut self, plan: &S::Plan) -> S::Outcome {
        self.ran.push(plan.clone());
        self.inner.run(plan)
    }

    fn check(
        &self,
        plan: &S::Plan,
        outcome: &S::Outcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        self.inner.check(plan, outcome, tallies)
    }

    fn finish(&mut self, tallies: &mut Tallies) -> Vec<SweepViolation> {
        self.inner.finish(tallies)
    }
}

/// Runs the first `plans` plans of `seed`, cleanly, then checks that plan
/// `index` is `plans(seed).nth(index)` and that replaying `seed:index`
/// runs exactly that plan, cleanly. Returns the full run's report.
fn full_run_then_replay<S: Sweep>(
    make: impl Fn() -> S,
    seed: u64,
    plans: usize,
    index: usize,
) -> SweepReport {
    let mut full = Recorder {
        inner: make(),
        ran: Vec::new(),
    };
    let report = run_sweep(&mut full, &SweepOptions::new(plans, seed));
    assert!(report.ok(), "{}", report.to_json());
    assert_eq!((report.plans_run, report.tallies.aborts), (plans, 0));
    assert_eq!(full.ran.len(), plans);
    assert_eq!(
        full.inner.plans(seed).nth(index).as_ref(),
        Some(&full.ran[index]),
        "{} plan {index}",
        S::NAME
    );

    let mut single = Recorder {
        inner: make(),
        ran: Vec::new(),
    };
    let replayed = replay_plan(&mut single, seed, index);
    assert!(replayed.ok(), "{}", replayed.to_json());
    assert_eq!(replayed.plans_run, 1);
    assert_eq!(single.ran, [full.ran[index].clone()], "{} replay", S::NAME);
    report
}

#[test]
fn corrupt_replays_a_sampled_plan() {
    let trace = record_trace(&BTree::default(), 96);
    let make = || CorruptSweep::new(trace.clone()).unwrap();
    full_run_then_replay(make, CorruptSweep::DEFAULT_SEED, 24, 17);
}

#[test]
fn supervise_replays_a_sampled_plan_and_keeps_its_ci_tallies() {
    // Release run time at the parent: 1.9 s for all 200 plans.
    let seed = SuperviseSweep::DEFAULT_SEED;
    let report = full_run_then_replay(SuperviseSweep::default, seed, 200, 137);
    for (key, expected) in [
        ("degraded_runs", 95),
        ("quarantined_shards", 142),
        ("retries", 225),
        ("lost_events", 13_388),
        ("faults_injected", 798),
    ] {
        assert_eq!(report.tally(key), expected, "{key}: {}", report.to_json());
    }
}

#[test]
fn thread_crash_replays_a_sampled_plan_and_keeps_its_ci_tallies() {
    // Release run time at the parent: 0.2 s for all 100 plans.
    let seed = ThreadCrashSweep::DEFAULT_SEED;
    let report = full_run_then_replay(|| ThreadCrashSweep, seed, 100, 61);
    for (key, expected) in [
        ("killed_threads", 283),
        ("surviving_events", 56_410),
        ("reports_agreed", 312),
    ] {
        assert_eq!(report.tally(key), expected, "{key}: {}", report.to_json());
    }
}

#[test]
fn serve_quarantines_permanent_faults_exactly_even_when_replayed() {
    // A permanent detector fault must quarantine its session whether the
    // plan runs mid-sweep or alone: the fault hook keys on the plan
    // index, not on the replaying server's session counter.
    let seed = 0xBAD_5EED;
    let index = (1..48)
        .find(|&i| plan_for(seed, i) == SessionPlan::PanicPermanent)
        .expect("48 plans include a permanent fault") as usize;
    let report = full_run_then_replay(ServeSweep::default, seed, 48, index);
    // The oracle inside check_response does the heavy lifting: every
    // quarantined session's loss is exact.
    assert!(
        report.tally("quarantined_sessions") > 0,
        "{}",
        report.to_json()
    );
    assert!(
        report.tally("frames_lost_total") > 0,
        "{}",
        report.to_json()
    );
    let replayed = replay_plan(&mut ServeSweep::default(), seed, index);
    assert_eq!(
        replayed.tally("quarantined_sessions"),
        1,
        "{}",
        replayed.to_json()
    );
}

#[test]
fn daemon_crash_replays_a_sampled_plan() {
    // Seed chosen so 14 indices cover several distinct plans.
    let report = full_run_then_replay(DaemonCrashSweep::default, 0xD00D_1E5E, 14, 9);
    for key in ["replayed_from_ledger", "resumed_from_checkpoint"] {
        assert!(report.tally(key) > 0, "no {key}: {}", report.to_json());
    }
    assert!(
        report.plan_mix["kill_mid_stream"] > 0,
        "{}",
        report.to_json()
    );
    let json = report.to_json();
    for key in [
        "verdicts_lost",
        "verdicts_duplicated",
        "torn_discarded_total",
    ] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key}: {json}"
        );
    }
}

#[test]
fn mem_pressure_replays_a_sampled_plan() {
    // Debug run time on a 2-vCPU host: 7.6 s for all 100 plans.
    let seed = MemPressureSweep::DEFAULT_SEED;
    let report = full_run_then_replay(|| MemPressureSweep, seed, 100, 43);
    for (key, expected) in [
        ("sessions_total", 295),
        ("ok_sessions", 265),
        ("memory_sheds", 84),
        ("rejections_total", 84),
        ("spills_total", 106),
        ("rehydrations_total", 106),
        ("verdict_divergence", 0),
    ] {
        assert_eq!(report.tally(key), expected, "{key}: {}", report.to_json());
    }
    for (kind, expected) in [
        ("whale", 20),
        ("many_small", 22),
        ("spill_storm", 25),
        ("reject_storm", 18),
        ("budget_reject", 15),
    ] {
        assert_eq!(report.mix(kind), expected, "{kind}: {}", report.to_json());
    }
    assert_eq!(
        report.tally("spills_total"),
        report.tally("rehydrations_total")
    );
    let json = report.to_json();
    for key in ["pauses_total", "pause_ms_total"] {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key}: {json}"
        );
    }
}

/// The workload sweeps' CI case: memcached, 64 operations.
fn memcached_64() -> Trace {
    record_trace(&Memcached::default(), 64)
}

#[test]
fn crash_points_replays_a_sampled_plan_and_keeps_its_ci_tallies() {
    let make = || CrashPointSweep::new(memcached_64(), PersistencyModel::Strict).unwrap();
    let report = full_run_then_replay(make, CrashPointSweep::DEFAULT_SEED, 71, 40);
    for (key, expected) in [("boundaries", 71), ("images", 149), ("incomplete_walks", 2)] {
        assert_eq!(report.tally(key), expected, "{key}: {}", report.to_json());
    }
}

#[test]
fn perturb_replays_a_sampled_plan_and_keeps_its_ci_tallies() {
    let make = || PerturbSweep::new(memcached_64(), PersistencyModel::Strict).unwrap();
    let report = full_run_then_replay(make, PerturbSweep::DEFAULT_SEED, 119, 77);
    for (key, expected) in [
        ("drop-flush.injected", 20),
        ("drop-flush.pmtest_missed", 20),
        ("drop-fence.benign", 13),
        ("tear-store.injected", 37),
        ("tear-store.benign", 36),
        // One torn store changes what is durable and no detector sees it.
        ("tear-store.escaped", 1),
        ("swap-epoch-markers.injected", 0),
    ] {
        assert_eq!(report.tally(key), expected, "{key}: {}", report.to_json());
    }
}

#[test]
fn crash_points_replay_returns_exactly_the_plans_violations() {
    // Epoch-model b_tree: three tx-log findings, raised while replaying
    // events (not at a crash image), and a clean detector differential.
    let trace = record_trace(&BTree::default(), 64);
    let make = || CrashPointSweep::new(trace.clone(), PersistencyModel::Epoch).unwrap();
    let seed = CrashPointSweep::DEFAULT_SEED;
    let report = run_sweep(&mut make(), &SweepOptions::new(256, seed));
    let stamped: Vec<usize> = report.violations.iter().map(|v| v.plan_index).collect();
    assert_eq!(stamped, [29, 200, 207], "{}", report.to_json());
    for index in [0, 28, 29, 30, 200, 207, 255] {
        let replayed = replay_plan(&mut make(), seed, index);
        let expected: Vec<&SweepViolation> = report
            .violations
            .iter()
            .filter(|v| v.plan_index == index)
            .collect();
        assert_eq!(
            replayed.violations.iter().collect::<Vec<_>>(),
            expected,
            "plan {index}"
        );
    }
    // Each finding names the event that raised it, which lies after the
    // previous plan's crash point.
    let plans: Vec<usize> = make().plans(seed).map(|p| p.boundary).collect();
    for v in &report.violations {
        let boundary: usize = v
            .detail
            .split("boundary=")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(plans[v.plan_index - 1] < boundary && boundary <= plans[v.plan_index]);
    }
}

/// Runs `plans` plans of `sweep` with no wall clock left.
fn starved<S: Sweep>(mut sweep: S, plans: usize) -> SweepReport {
    let opts = SweepOptions {
        wall_clock: Some(Duration::ZERO),
        ..SweepOptions::new(plans, 1)
    };
    run_sweep(&mut sweep, &opts)
}

#[test]
fn every_sweep_truncates_cleanly_when_the_wall_clock_is_gone() {
    let trace = record_trace(&BTree::default(), 20);
    for report in [
        starved(
            CrashPointSweep::new(trace.clone(), PersistencyModel::Epoch).unwrap(),
            256,
        ),
        starved(
            PerturbSweep::new(trace.clone(), PersistencyModel::Epoch).unwrap(),
            512,
        ),
        starved(CorruptSweep::new(trace.clone()).unwrap(), 200),
        starved(SuperviseSweep::new(trace, PersistencyModel::Strict), 50),
        starved(ServeSweep::default(), 50),
        starved(ThreadCrashSweep, 50),
        starved(DaemonCrashSweep::default(), 10),
        starved(MemPressureSweep, 50),
    ] {
        assert_eq!(report.plans_run, 0, "{}", report.to_json());
        assert!(
            matches!(
                report.truncations.as_slice(),
                [Truncation::WallClockExpired { tested: 0, total }] if *total == report.plans_planned
            ),
            "{}",
            report.to_json()
        );
        assert!(report.ok(), "partial results stay violation-free");
    }
}
