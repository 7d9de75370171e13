//! The crash-points sweep: replay a trace, crash at its boundaries,
//! validate every image the hardware could leave behind.
//!
//! A *crash boundary* sits after every fundamental event (store, flush,
//! fence) and after every epoch end — the positions where the persistence
//! state of the pool can differ. Plan `i` of seed `s` is the `i`-th
//! boundary, in ascending order, of a seeded stratified sample of at most
//! [`Sweep::DEFAULT_PLANS`] boundaries that always includes the end of the
//! trace (every boundary, when the trace has no more than that). That cap
//! is fixed: a longer trace is always sampled, and a run of fewer plans
//! keeps a prefix of the sample, so it crashes only early in the trace.
//! The `untested` tally counts the boundaries a run did not crash at. A
//! full run replays the trace once, incrementally. At each plan the sweep
//! enumerates up to 16 post-crash images and runs the model's
//! recovery validators over each; a `(validator, addr)` pair seen for the
//! first time is an `unrecoverable` violation. Event-time findings (e.g.
//! undo-log discipline) belong to the plan whose stretch of the replay
//! raised them. [`Sweep::finish`] adds the detector differential: one
//! `detector-finding` violation per bug kind PMDebugger reports over the
//! whole trace, so performance bugs with a correct recovery story count
//! too.
//!
//! Replaying plan `i` alone first crashes silently at the sample's earlier
//! boundaries, so a finding is new at plan `i` exactly when it was new
//! there in the full run. The detector differential judges the whole
//! trace, so it comes with every run: a full run stamps it with the last
//! plan, a replay with the replayed one.

use std::collections::{BTreeSet, HashSet};

use pm_trace::{splitmix64, PmEvent, ReportDigest, Trace};
use pmdebugger::{DebuggerConfig, PersistencyModel};
use pmem_sim::CrashImage;

use crate::error::ChaosError;
use crate::replay::ReplayContext;
use crate::sweep::{batch_reports, Sweep, SweepViolation, Tallies};
use crate::validate::{ValidatorSet, Violation};

/// Post-crash images enumerated per crash point.
const MAX_IMAGES: usize = 16;

/// Distinct cache lines the compacted replay pool may hold.
const MAX_POOL_LINES: usize = 1 << 16;

/// One crash point of a seed's sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The seed whose sample the point was drawn from.
    pub seed: u64,
    /// Position of the point in that sample (the plan index).
    pub index: usize,
    /// Trace-prefix length (event count) at the crash.
    pub boundary: usize,
    /// Kind of the event the crash follows (the plan-mix key).
    pub after: &'static str,
}

/// A recovery-contract violation, at the boundary it was first seen.
#[derive(Debug, Clone)]
struct Finding {
    violation: Violation,
    /// Trace-prefix length at discovery: the crash point for image-time
    /// findings, the event just replayed for event-time ones.
    boundary: usize,
    /// Pending lines that survived in the offending image (0 for
    /// event-time findings).
    survivors: usize,
}

/// What crashing at one boundary found.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Post-crash images inspected.
    images: usize,
    /// Whether the image walk stopped short of every possible image.
    incomplete_walk: bool,
    /// Findings new at this crash point.
    found: Vec<Finding>,
}

/// The replay position and everything the validators saw up to it.
#[derive(Debug)]
struct Replay {
    ctx: ReplayContext,
    validators: ValidatorSet,
    next_event: usize,
    /// Seed and sample position of the last plan crashed at.
    crashed: Option<(u64, usize)>,
    seen: HashSet<(&'static str, u64)>,
}

impl Replay {
    fn new(ctx: ReplayContext, model: PersistencyModel) -> Replay {
        Replay {
            ctx,
            validators: ValidatorSet::for_model(model),
            next_event: 0,
            crashed: None,
            seen: HashSet::new(),
        }
    }
}

/// The crash-points sweep over one trace.
#[derive(Debug)]
pub struct CrashPointSweep {
    model: PersistencyModel,
    events: Vec<PmEvent>,
    boundaries: Vec<usize>,
    pristine: ReplayContext,
    replay: Replay,
    /// Plans run since the last `finish`.
    plans_run: usize,
}

impl CrashPointSweep {
    /// Prepares the replay of `trace` under `model`'s recovery validators.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] for an empty trace and
    /// [`ChaosError::PoolExhausted`] when it touches more than 65,536
    /// distinct cache lines.
    pub fn new(trace: Trace, model: PersistencyModel) -> Result<Self, ChaosError> {
        let events = trace.events().to_vec();
        let pristine = ReplayContext::new(&events, MAX_POOL_LINES)?;
        Ok(CrashPointSweep {
            model,
            replay: Replay::new(pristine.clone(), model),
            pristine,
            boundaries: crash_boundaries(&events),
            events,
            plans_run: 0,
        })
    }

    /// Replays up to `boundary`, then crashes there.
    fn crash_at(&mut self, boundary: usize) -> CrashOutcome {
        let replay = &mut self.replay;
        let mut found = Vec::new();
        let mut record = |violation: Violation, boundary: usize, survivors: usize| {
            if replay.seen.insert((violation.validator, violation.addr)) {
                found.push(Finding {
                    violation,
                    boundary,
                    survivors,
                });
            }
        };
        while replay.next_event < boundary {
            let seq = replay.next_event;
            let event = &self.events[seq];
            replay.ctx.apply(seq as u64, event);
            for violation in replay.validators.on_event(seq as u64, event, &replay.ctx) {
                record(violation, seq + 1, 0);
            }
            replay.next_event += 1;
        }
        let walk = CrashImage::enumerate(replay.ctx.pool(), MAX_IMAGES);
        for image in &walk.images {
            for violation in replay.validators.check(image, &replay.ctx) {
                record(violation, boundary, image.survivors.len());
            }
        }
        CrashOutcome {
            images: walk.len(),
            incomplete_walk: walk.truncated,
            found,
        }
    }
}

impl Sweep for CrashPointSweep {
    const NAME: &'static str = "crash-points";
    const DEFAULT_SEED: u64 = 0xC4A05;
    const DEFAULT_PLANS: usize = 256;
    type Plan = CrashPoint;
    type Outcome = CrashOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = CrashPoint>> {
        let points: Vec<CrashPoint> =
            select_boundaries(&self.boundaries, Self::DEFAULT_PLANS, seed)
                .into_iter()
                .enumerate()
                .map(|(index, boundary)| CrashPoint {
                    seed,
                    index,
                    boundary,
                    after: self.events[boundary - 1].kind_name(),
                })
                .collect();
        Box::new(points.into_iter())
    }

    fn kind(plan: &CrashPoint) -> &'static str {
        plan.after
    }

    fn run(&mut self, plan: &CrashPoint) -> CrashOutcome {
        self.plans_run += 1;
        let next = match self.replay.crashed {
            None => 0,
            Some((seed, index)) if seed == plan.seed && index < plan.index => index + 1,
            Some(_) => {
                self.replay = Replay::new(self.pristine.clone(), self.model);
                0
            }
        };
        if next < plan.index {
            // Crash silently at the sample points a replayed plan skipped.
            let sample = select_boundaries(&self.boundaries, Self::DEFAULT_PLANS, plan.seed);
            for &boundary in &sample[next..plan.index] {
                self.crash_at(boundary);
            }
        }
        let outcome = self.crash_at(plan.boundary);
        self.replay.crashed = Some((plan.seed, plan.index));
        outcome
    }

    fn check(
        &self,
        _plan: &CrashPoint,
        outcome: &CrashOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        tallies.add("images", outcome.images as u64);
        tallies.add("incomplete_walks", u64::from(outcome.incomplete_walk));
        outcome
            .found
            .iter()
            .map(|f| {
                let v = &f.violation;
                SweepViolation::new(
                    "unrecoverable",
                    format!(
                        "{} addr={:#x} size={} boundary={} survivors={}: {}",
                        v.validator, v.addr, v.size, f.boundary, f.survivors, v.detail
                    ),
                )
            })
            .collect()
    }

    fn finish(&mut self, tallies: &mut Tallies) -> Vec<SweepViolation> {
        tallies.add("boundaries", self.boundaries.len() as u64);
        let tested = std::mem::take(&mut self.plans_run).min(self.boundaries.len());
        tallies.add("untested", (self.boundaries.len() - tested) as u64);
        let reports = batch_reports(&DebuggerConfig::for_model(self.model), &self.events);
        ReportDigest::of(&reports)
            .kinds()
            .map(|(kind, count)| {
                SweepViolation::new(
                    "detector-finding",
                    format!("{}: {count} report(s) over the whole trace", kind.name()),
                )
            })
            .collect()
    }
}

/// Crash boundaries of an event slice: after every store, flush, fence,
/// epoch end and successful CAS publication, plus the end of the trace.
pub fn crash_boundaries(events: &[PmEvent]) -> Vec<usize> {
    let mut boundaries: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(
                e,
                PmEvent::Store { .. }
                    | PmEvent::Flush { .. }
                    | PmEvent::Fence { .. }
                    | PmEvent::EpochEnd { .. }
                    | PmEvent::Cas { success: true, .. }
            )
        })
        .map(|(i, _)| i + 1)
        .collect();
    if boundaries.last() != Some(&events.len()) {
        boundaries.push(events.len());
    }
    boundaries
}

/// Deterministic boundary selection: everything when it fits `max`,
/// otherwise a seeded stratified sample that always includes the final
/// boundary. Ascending.
fn select_boundaries(boundaries: &[usize], max: usize, seed: u64) -> Vec<usize> {
    if boundaries.len() <= max || max == 0 {
        return boundaries.to_vec();
    }
    let mut state = seed;
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    picked.insert(*boundaries.last().expect("nonempty boundaries"));
    let stride = boundaries.len() as u64 / max as u64;
    for i in 0..max.saturating_sub(1) {
        let base = i as u64 * stride;
        let jitter = splitmix64(&mut state) % stride.max(1);
        let idx = ((base + jitter) as usize).min(boundaries.len() - 1);
        picked.insert(boundaries[idx]);
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{replay_plan, run_sweep, SweepOptions, Truncation};
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

    fn sweep(trace: Trace) -> CrashPointSweep {
        CrashPointSweep::new(trace, PersistencyModel::Strict).unwrap()
    }

    #[test]
    fn boundaries_cover_fundamental_events_and_the_end() {
        let trace = clean_trace(2);
        let boundaries = crash_boundaries(trace.events());
        assert_eq!(boundaries.len(), 6);
        assert_eq!(*boundaries.last().unwrap(), trace.len());
    }

    #[test]
    fn selection_is_exhaustive_under_budget_and_sampled_above() {
        let boundaries: Vec<usize> = (1..=100).collect();
        assert_eq!(select_boundaries(&boundaries, 200, 1).len(), 100);
        let sampled = select_boundaries(&boundaries, 10, 1);
        assert!(sampled.len() <= 10);
        assert!(sampled.contains(&100), "final boundary always tested");
        assert!(sampled.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert_eq!(
            sampled,
            select_boundaries(&boundaries, 10, 1),
            "deterministic"
        );
    }

    #[test]
    fn clean_trace_sweeps_every_boundary_clean() {
        let mut sweep = sweep(clean_trace(6));
        let report = run_sweep(&mut sweep, &SweepOptions::new(256, 1));
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 18);
        assert_eq!(report.tally("boundaries"), 18);
        assert_eq!(report.tally("untested"), 0);
        assert!(report.tally("images") >= 18);
        assert_eq!(report.mix("store") + report.mix("flush"), 12);
        // The same sweep runs again from the start.
        let again = run_sweep(&mut sweep, &SweepOptions::new(256, 1));
        assert_eq!(again.tallies, report.tallies);
    }

    #[test]
    fn unflushed_overwrite_is_unrecoverable_and_replays() {
        // A durable line is overwritten and the fence passes with the new
        // bytes unflushed: a crash can expose either version.
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(0, 8);
        rt.flush_range(FlushKind::Clwb, 0, 8).unwrap();
        rt.sfence();
        rt.store_untyped(0, 8);
        rt.sfence();
        rt.store_untyped(64, 8);
        let trace = rt.try_take_trace().unwrap();
        let report = run_sweep(&mut sweep(trace.clone()), &SweepOptions::new(256, 1));
        let first = report
            .violations
            .iter()
            .find(|v| v.kind == "unrecoverable")
            .unwrap_or_else(|| panic!("{}", report.to_json()));
        assert!(first.detail.starts_with("strict-overwrite"), "{first:?}");
        // The trace-level detector differential comes with every run, a
        // replay included; the crash-point findings are the plan's own.
        let replayed = replay_plan(&mut sweep(trace), 1, first.plan_index);
        let unrecoverable = |violations: &[SweepViolation]| -> Vec<SweepViolation> {
            violations
                .iter()
                .filter(|v| v.kind == "unrecoverable" && v.plan_index == first.plan_index)
                .cloned()
                .collect()
        };
        assert_eq!(
            unrecoverable(&replayed.violations),
            unrecoverable(&report.violations)
        );
        assert!(replayed
            .violations
            .iter()
            .any(|v| v.kind == "detector-finding"));
    }

    #[test]
    fn empty_trace_is_rejected_not_panicked() {
        assert!(matches!(
            CrashPointSweep::new(Trace::new(), PersistencyModel::Strict),
            Err(ChaosError::EmptyTrace)
        ));
    }

    #[test]
    fn zero_wall_clock_returns_partial_report() {
        let opts = SweepOptions {
            wall_clock: Some(std::time::Duration::ZERO),
            ..SweepOptions::new(256, 1)
        };
        let report = run_sweep(&mut sweep(clean_trace(6)), &opts);
        assert_eq!(report.plans_run, 0);
        assert!(matches!(
            report.truncations.as_slice(),
            [Truncation::WallClockExpired { tested: 0, .. }]
        ));
    }
}
