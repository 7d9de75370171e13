//! One runner for every seeded chaos sweep.
//!
//! Every sweep in this crate has the same shape: a seed expands into a
//! sequence of plans, each plan runs against the system under test, and
//! oracles check what came back. [`Sweep`] names those steps;
//! [`run_sweep`] owns everything around them — the wall-clock cutoff, the
//! `catch_unwind` that turns a panicking plan into an abort instead of a
//! dead sweep, the plan mix, the tallies, and one `pm-chaos-sweep-v1` JSON
//! report.
//!
//! Plan `i` of seed `s` is `plans(s).nth(i)`, and every violation names
//! `{sweep, seed, plan_index}`, so [`replay_plan`] reruns exactly the plan
//! that failed (`pmdbg chaos --sweep <name> --replay s:i`).

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use pm_obs::json::Value;
use pm_trace::{report_hash, BugReport, PmEvent};
use pmdebugger::{panic_message, DebuggerConfig, PmDebugger};

/// Schema tag of the JSON report.
const REPORT_SCHEMA: &str = "pm-chaos-sweep-v1";

/// A seeded chaos sweep: seed → plans → run → check.
pub trait Sweep {
    /// Stable name: the `--sweep` value and the report's `sweep` field.
    const NAME: &'static str;
    /// The seed CI runs the sweep at.
    const DEFAULT_SEED: u64;
    /// The plan count CI runs the sweep at.
    const DEFAULT_PLANS: usize;
    /// One self-contained unit of chaos.
    type Plan: Clone + fmt::Debug + PartialEq;
    /// What running a plan observed, before any oracle judged it.
    type Outcome;

    /// The plan sequence for `seed` — a pure function of the seed, so
    /// plan `i` is always `plans(seed).nth(i)`.
    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = Self::Plan>>;

    /// The plan's kind, counted in the report's plan mix.
    fn kind(plan: &Self::Plan) -> &'static str;

    /// Runs one plan. A panic here is caught by the runner and reported
    /// as an abort.
    fn run(&mut self, plan: &Self::Plan) -> Self::Outcome;

    /// Applies the sweep's oracles to one outcome, adding to `tallies`.
    fn check(
        &self,
        plan: &Self::Plan,
        outcome: &Self::Outcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation>;

    /// Tears down state shared across plans; violations found here are
    /// attributed to the last plan run.
    fn finish(&mut self, _tallies: &mut Tallies) -> Vec<SweepViolation> {
        Vec::new()
    }
}

/// How many plans to run, from which seed, within what wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Plans to run (the first `plans` of the seed's sequence).
    pub plans: usize,
    /// The sweep seed.
    pub seed: u64,
    /// Wall-clock ceiling for the whole sweep (`None` = unbounded).
    pub wall_clock: Option<Duration>,
}

impl SweepOptions {
    /// `plans` plans of `seed`, unbounded.
    pub fn new(plans: usize, seed: u64) -> Self {
        SweepOptions {
            plans,
            seed,
            wall_clock: None,
        }
    }
}

/// Named counters a sweep accumulates across plans. A key `group.name`
/// renders nested (`"group":{"name":n}`) in the JSON report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Plans whose run panicked, plus host-side failures a sweep counts
    /// as aborts (server panics, daemons that would not start).
    pub aborts: u64,
    counts: BTreeMap<String, u64>,
}

impl Tallies {
    /// Adds `n` to `key`, creating it (so `add(key, 0)` makes a zero
    /// visible in the report).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counts.entry(key.to_owned()).or_insert(0) += n;
    }

    /// The value of `key` (0 when never added).
    pub fn get(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Every counter, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    fn to_value(&self) -> Value {
        let mut root = BTreeMap::new();
        for (key, n) in self.iter() {
            match key.split_once('.') {
                Some((group, name)) => {
                    let group = root
                        .entry(group.to_owned())
                        .or_insert_with(|| Value::Obj(BTreeMap::new()));
                    if let Value::Obj(map) = group {
                        map.insert(name.to_owned(), Value::UInt(n));
                    }
                }
                None => {
                    root.insert(key.to_owned(), Value::UInt(n));
                }
            }
        }
        Value::Obj(root)
    }
}

/// One broken invariant, named precisely enough to replay it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepViolation {
    /// The sweep that found it.
    pub sweep: &'static str,
    /// The sweep seed.
    pub seed: u64,
    /// Index of the plan in `plans(seed)`.
    pub plan_index: usize,
    /// Which invariant broke.
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl SweepViolation {
    /// A violation of `kind`; the runner stamps the sweep, seed and plan
    /// index.
    pub fn new(kind: &'static str, detail: impl Into<String>) -> Self {
        SweepViolation {
            sweep: "",
            seed: 0,
            plan_index: 0,
            kind,
            detail: detail.into(),
        }
    }

    fn stamped(self, sweep: &'static str, seed: u64, plan_index: usize) -> Self {
        SweepViolation {
            sweep,
            seed,
            plan_index,
            ..self
        }
    }

    fn to_value(&self) -> Value {
        Value::Obj(BTreeMap::from([
            ("sweep".into(), Value::Str(self.sweep.into())),
            ("seed".into(), Value::UInt(self.seed)),
            ("plan_index".into(), Value::UInt(self.plan_index as u64)),
            ("kind".into(), Value::Str(self.kind.into())),
            ("detail".into(), Value::Str(self.detail.clone())),
        ]))
    }
}

/// A bound that was hit during a sweep, so a partial report never reads
/// as complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Truncation {
    /// The wall clock expired after `tested` of `total` planned plans.
    WallClockExpired {
        /// Plans run before expiry.
        tested: usize,
        /// Plans planned.
        total: usize,
    },
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truncation::WallClockExpired { tested, total } => {
                write!(f, "wall clock expired after {tested} of {total} plans")
            }
        }
    }
}

/// Outcome of one sweep (or one replayed plan).
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// [`Sweep::NAME`].
    pub sweep: &'static str,
    /// The sweep seed.
    pub seed: u64,
    /// The replayed plan index, for a single-plan replay.
    pub replay: Option<usize>,
    /// Plans the sweep was asked to run.
    pub plans_planned: usize,
    /// Plans actually run (fewer only under truncation).
    pub plans_run: usize,
    /// The sweep's counters, aborts included.
    pub tallies: Tallies,
    /// Plans run per [`Sweep::kind`].
    pub plan_mix: BTreeMap<&'static str, u64>,
    /// Every broken invariant.
    pub violations: Vec<SweepViolation>,
    /// Budget bounds that were hit.
    pub truncations: Vec<Truncation>,
    /// Sweep wall time in milliseconds.
    pub wall_ms: u128,
}

impl SweepReport {
    /// The sweep's verdict: no aborts and no broken invariants.
    pub fn ok(&self) -> bool {
        self.tallies.aborts == 0 && self.violations.is_empty()
    }

    /// Shorthand for `self.tallies.get(key)`.
    pub fn tally(&self, key: &str) -> u64 {
        self.tallies.get(key)
    }

    /// Plans of `kind` that ran.
    pub fn mix(&self, kind: &str) -> u64 {
        self.plan_mix.get(kind).copied().unwrap_or(0)
    }

    /// The `pm-chaos-sweep-v1` JSON report (one line, keys sorted).
    pub fn to_json(&self) -> String {
        let count = |n: usize| Value::UInt(n as u64);
        let text = |s: &str| Value::Str(s.to_owned());
        let mix = self
            .plan_mix
            .iter()
            .map(|(k, &n)| ((*k).to_owned(), Value::UInt(n)));
        let mut root = BTreeMap::from([
            ("schema", text(REPORT_SCHEMA)),
            ("sweep", text(self.sweep)),
            ("seed", Value::UInt(self.seed)),
            ("ok", Value::Bool(self.ok())),
            ("plans_planned", count(self.plans_planned)),
            ("plans_run", count(self.plans_run)),
            ("aborts", Value::UInt(self.tallies.aborts)),
            ("wall_ms", Value::UInt(self.wall_ms as u64)),
            ("tallies", self.tallies.to_value()),
            ("plan_mix", Value::Obj(mix.collect())),
            (
                "violations",
                Value::Arr(
                    self.violations
                        .iter()
                        .map(SweepViolation::to_value)
                        .collect(),
                ),
            ),
            (
                "truncations",
                Value::Arr(
                    self.truncations
                        .iter()
                        .map(|t| text(&t.to_string()))
                        .collect(),
                ),
            ),
        ]);
        if let Some(index) = self.replay {
            root.insert("replay", count(index));
        }
        Value::Obj(root.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()).to_string()
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (seed {}", self.sweep, self.seed)?;
        if let Some(index) = self.replay {
            write!(f, ", replaying plan {index}")?;
        }
        writeln!(
            f,
            "): {}/{} plan(s), {} abort(s), {} violation(s) in {} ms -> {}",
            self.plans_run,
            self.plans_planned,
            self.tallies.aborts,
            self.violations.len(),
            self.wall_ms,
            if self.ok() { "OK" } else { "VIOLATIONS" },
        )?;
        for (key, n) in self.tallies.iter() {
            writeln!(f, "  {key}: {n}")?;
        }
        for (kind, n) in &self.plan_mix {
            writeln!(f, "  plan {kind}: {n}")?;
        }
        for v in &self.violations {
            writeln!(
                f,
                "  violation [{}] plan {}: {} (replay: --replay {}:{})",
                v.kind, v.plan_index, v.detail, v.seed, v.plan_index
            )?;
        }
        for t in &self.truncations {
            writeln!(f, "  truncated: {t}")?;
        }
        Ok(())
    }
}

/// Runs the first `opts.plans` plans of `opts.seed` through `sweep`,
/// stopping early (with a [`Truncation::WallClockExpired`]) once the wall
/// clock runs out. Never panics: a panicking plan is an abort.
pub fn run_sweep<S: Sweep>(sweep: &mut S, opts: &SweepOptions) -> SweepReport {
    let plans = sweep.plans(opts.seed).enumerate().take(opts.plans);
    drive(sweep, opts.seed, opts.plans, opts.wall_clock, None, plans)
}

/// Reruns exactly plan `index` of `seed` — `plans(seed).nth(index)` —
/// with the same oracles, so a violation comes back identical.
pub fn replay_plan<S: Sweep>(sweep: &mut S, seed: u64, index: usize) -> SweepReport {
    let plan = sweep.plans(seed).nth(index).map(|plan| (index, plan));
    drive(sweep, seed, 1, None, Some(index), plan.into_iter())
}

fn drive<S: Sweep>(
    sweep: &mut S,
    seed: u64,
    planned: usize,
    wall_clock: Option<Duration>,
    replay: Option<usize>,
    plans: impl Iterator<Item = (usize, S::Plan)>,
) -> SweepReport {
    let started = Instant::now();
    let mut report = SweepReport {
        sweep: S::NAME,
        seed,
        replay,
        plans_planned: planned,
        ..SweepReport::default()
    };
    let mut last_index = replay.unwrap_or(0);
    for (index, plan) in plans {
        if wall_clock.is_some_and(|limit| started.elapsed() >= limit) {
            report.truncations.push(Truncation::WallClockExpired {
                tested: report.plans_run,
                total: planned,
            });
            break;
        }
        last_index = index;
        report.plans_run += 1;
        *report.plan_mix.entry(S::kind(&plan)).or_insert(0) += 1;
        let found = match catch_unwind(AssertUnwindSafe(|| sweep.run(&plan))) {
            Ok(outcome) => sweep.check(&plan, &outcome, &mut report.tallies),
            Err(panic) => {
                report.tallies.aborts += 1;
                report.tallies.add(&format!("{}.panics", S::kind(&plan)), 1);
                vec![SweepViolation::new(
                    "abort",
                    format!("a panic escaped the plan run: {}", panic_message(&*panic)),
                )]
            }
        };
        report
            .violations
            .extend(found.into_iter().map(|v| v.stamped(S::NAME, seed, index)));
    }
    let found = sweep.finish(&mut report.tallies);
    report.violations.extend(
        found
            .into_iter()
            .map(|v| v.stamped(S::NAME, seed, last_index)),
    );
    report.wall_ms = started.elapsed().as_millis();
    report
}

/// The offline reference every sweep's verdicts are held to: one
/// uninterrupted sequential detection over `events`.
pub(crate) fn batch_reports(config: &DebuggerConfig, events: &[PmEvent]) -> Vec<BugReport> {
    PmDebugger::new(config.clone()).detect_stream(events)
}

/// A fresh path in the temp directory for a sweep's sockets, journals
/// and spill files, unique within the process.
pub(crate) fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pmdbg-{}-{n}-{name}", std::process::id()))
}

/// A report set's hash in the `report_hash` form `pmdbg serve` answers
/// with.
pub(crate) fn hash_hex(reports: &[BugReport]) -> String {
    format!("{:016x}", report_hash(reports))
}

/// Asserts the JSON report carries every key in `keys`.
#[cfg(test)]
pub(crate) fn assert_json_keys(report: &SweepReport, keys: &[&str]) {
    let json = report.to_json();
    for key in keys {
        assert!(
            json.contains(&format!("\"{key}\":")),
            "missing {key}: {json}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncations_render_their_numbers() {
        let t = Truncation::WallClockExpired {
            tested: 10,
            total: 99,
        };
        assert_eq!(t.to_string(), "wall clock expired after 10 of 99 plans");
    }
}
