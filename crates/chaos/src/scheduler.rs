//! The crash-point scheduler: sweep a trace, crash everywhere, validate.
//!
//! A *crash boundary* sits after every fundamental event (store, flush,
//! fence) and after every epoch end — the positions where the persistence
//! state of the pool can differ. The campaign replays the trace once,
//! incrementally; at each selected boundary it enumerates the post-crash
//! images the hardware could expose and runs the recovery validators over
//! each. Below the crash-point budget the sweep is exhaustive; above it, a
//! deterministic seeded sample (always including the final boundary) keeps
//! the cost bounded and the run reproducible.

use std::collections::{BTreeSet, HashSet};

use pm_obs::MetricsRegistry;
use pm_trace::{PmEvent, ReportDigest, Trace};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};
use pmem_sim::CrashImage;

use crate::budget::{splitmix64, Budget, Truncation};
use crate::error::ChaosError;
use crate::replay::ReplayContext;
use crate::report::{CampaignReport, UnrecoverableState};
use crate::validate::{ValidatorSet, Violation};

/// How many unrecoverable states get a minimized reproducing prefix; the
/// rest keep their discovery boundary (minimization replays the trace once
/// per state).
const MINIMIZE_LIMIT: usize = 3;

/// A configured torture campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    model: PersistencyModel,
    budget: Budget,
    metrics: Option<MetricsRegistry>,
}

impl Campaign {
    /// Creates a campaign for a persistency model with the default budget.
    pub fn new(model: PersistencyModel) -> Campaign {
        Campaign {
            model,
            budget: Budget::default(),
            metrics: None,
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Campaign {
        self.budget = budget;
        self
    }

    /// Attaches a metrics registry. Each [`Campaign::run`] then exports
    /// campaign progress under the `chaos.*` prefix (boundaries tested,
    /// crash images enumerated, unrecoverable states, truncations) and
    /// records the sweep's wall time in the `stage.chaos_sweep` histogram.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Campaign {
        self.metrics = Some(registry);
        self
    }

    /// The campaign's budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Runs the campaign over `trace`, labelling the report `workload`.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] for an empty trace and
    /// [`ChaosError::PoolExhausted`] when the trace exceeds the pool-line
    /// budget. Resource exhaustion *during* the sweep is not an error: the
    /// report comes back partial with explicit [`Truncation`] markers.
    pub fn run(&self, workload: &str, trace: &Trace) -> Result<CampaignReport, ChaosError> {
        // Span guard: drops (and records `stage.chaos_sweep`) on every exit
        // path, including the early `?` errors.
        let _sweep = self.metrics.as_ref().map(|r| r.span("stage.chaos_sweep"));
        let clock = self.budget.start_clock();
        let mut truncations = Vec::new();

        let events = trace.events();
        let replay_len = events.len().min(self.budget.max_trace_len);
        if replay_len < events.len() {
            truncations.push(Truncation::TraceTruncated {
                replayed: replay_len,
                len: events.len(),
            });
        }
        let events = &events[..replay_len];

        let boundaries = crash_boundaries(events);
        let selected =
            select_boundaries(&boundaries, self.budget.max_crash_points, self.budget.seed);
        if selected.len() < boundaries.len() {
            truncations.push(Truncation::CrashPointsSampled {
                tested: selected.len(),
                total: boundaries.len(),
            });
        }

        let mut ctx = ReplayContext::new(events, &self.budget)?;
        let mut validators = ValidatorSet::for_model(self.model);

        let mut seen: HashSet<(&'static str, u64)> = HashSet::new();
        let mut unrecoverable: Vec<UnrecoverableState> = Vec::new();
        let mut images_tested = 0u64;
        let mut truncated_points = 0usize;
        let mut tested = 0usize;
        let mut expired = false;

        let mut next_event = 0usize;
        for &boundary in &selected {
            // Apply events up to the boundary; event-time violations (e.g.
            // undo-log discipline) are their own minimal reproductions.
            while next_event < boundary {
                let event = &events[next_event];
                ctx.apply(next_event as u64, event);
                for violation in validators.on_event(next_event as u64, event, &ctx) {
                    record(
                        &mut unrecoverable,
                        &mut seen,
                        violation,
                        next_event + 1,
                        0,
                        Some(next_event + 1),
                    );
                }
                next_event += 1;
            }

            if clock.expired() {
                truncations.push(Truncation::WallClockExpired {
                    tested,
                    total: selected.len(),
                });
                expired = true;
                break;
            }

            let enumeration = CrashImage::enumerate(ctx.pool(), self.budget.max_images_per_point);
            if enumeration.truncated {
                truncated_points += 1;
            }
            images_tested += enumeration.len() as u64;
            for image in &enumeration.images {
                for violation in validators.check(image, &ctx) {
                    record(
                        &mut unrecoverable,
                        &mut seen,
                        violation,
                        boundary,
                        image.survivors.len(),
                        None,
                    );
                }
            }
            tested += 1;
        }
        if truncated_points > 0 {
            truncations.push(Truncation::ImagesTruncated {
                points: truncated_points,
            });
        }

        // Minimize the earliest few image-time findings by re-replaying and
        // probing every boundary from the start.
        if !expired {
            for state in unrecoverable
                .iter_mut()
                .filter(|s| s.minimized_prefix.is_none())
                .take(MINIMIZE_LIMIT)
            {
                if clock.expired() {
                    break;
                }
                state.minimized_prefix = self.minimize(
                    events,
                    &boundaries,
                    state.validator,
                    state.addr,
                    state.boundary,
                );
            }
        }

        // Differential side: what does the detector say about the same trace?
        let mut detector = PmDebugger::new(DebuggerConfig::for_model(self.model));
        for (seq, event) in events.iter().enumerate() {
            pm_trace::Detector::on_event(&mut detector, seq as u64, event);
        }
        let malformed_events = detector.malformed_events();
        let detector_findings = ReportDigest::of(&pm_trace::Detector::finish(&mut detector))
            .kinds()
            .map(|(kind, count)| (kind.name().to_owned(), count as usize))
            .collect();

        let report = CampaignReport {
            workload: workload.to_owned(),
            model: model_name(self.model),
            events_replayed: replay_len,
            boundaries_total: boundaries.len(),
            boundaries_tested: tested,
            images_tested,
            unrecoverable,
            detector_findings,
            malformed_events,
            truncations,
            wall_ms: clock.elapsed_ms(),
        };
        if let Some(registry) = &self.metrics {
            export_campaign(registry, &report);
        }
        Ok(report)
    }

    /// Finds the shortest boundary at which `(validator, addr)` already
    /// violates, by a fresh incremental replay probing every boundary up to
    /// the discovery point with a small image budget.
    fn minimize(
        &self,
        events: &[PmEvent],
        boundaries: &[usize],
        validator: &'static str,
        addr: u64,
        found_at: usize,
    ) -> Option<usize> {
        let clock = self.budget.start_clock();
        let mut ctx = ReplayContext::new(events, &self.budget).ok()?;
        let mut validators = ValidatorSet::for_model(self.model);
        let image_cap = self.budget.max_images_per_point.min(8);
        let mut next_event = 0usize;
        for &boundary in boundaries.iter().take_while(|&&b| b <= found_at) {
            while next_event < boundary {
                let event = &events[next_event];
                ctx.apply(next_event as u64, event);
                let _ = validators.on_event(next_event as u64, event, &ctx);
                next_event += 1;
            }
            if clock.expired() {
                return None;
            }
            let enumeration = CrashImage::enumerate(ctx.pool(), image_cap);
            for image in &enumeration.images {
                if validators
                    .check(image, &ctx)
                    .iter()
                    .any(|v| v.validator == validator && v.addr == addr)
                {
                    return Some(boundary);
                }
            }
        }
        Some(found_at)
    }
}

/// Exports a finished campaign's progress counters under the `chaos.*`
/// prefix. Counters add, so several campaigns sharing one registry (e.g.
/// one per persistency model) accumulate into a combined total.
fn export_campaign(registry: &MetricsRegistry, report: &CampaignReport) {
    let counters = [
        ("chaos.campaigns", 1),
        ("chaos.events_replayed", report.events_replayed as u64),
        ("chaos.boundaries_total", report.boundaries_total as u64),
        ("chaos.boundaries_tested", report.boundaries_tested as u64),
        ("chaos.images_tested", report.images_tested),
        (
            "chaos.unrecoverable_states",
            report.unrecoverable.len() as u64,
        ),
        (
            "chaos.detector_findings",
            report.detector_findings.values().map(|&n| n as u64).sum(),
        ),
        ("chaos.truncations", report.truncations.len() as u64),
    ];
    for (name, value) in counters {
        if value > 0 {
            registry.counter(name).add(value);
        }
    }
}

fn record(
    unrecoverable: &mut Vec<UnrecoverableState>,
    seen: &mut HashSet<(&'static str, u64)>,
    violation: Violation,
    boundary: usize,
    survivors: usize,
    minimized: Option<usize>,
) {
    if !seen.insert((violation.validator, violation.addr)) {
        return;
    }
    unrecoverable.push(UnrecoverableState {
        validator: violation.validator,
        addr: violation.addr,
        size: violation.size,
        boundary,
        survivors,
        minimized_prefix: minimized,
        detail: violation.detail,
    });
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

/// Deterministic boundary selection: everything when it fits the budget,
/// otherwise a seeded stratified sample that always includes the final
/// boundary.
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

fn model_name(model: PersistencyModel) -> &'static str {
    match model {
        PersistencyModel::Strict => "strict",
        PersistencyModel::Epoch => "epoch",
        PersistencyModel::Strand => "strand",
    }
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
        assert_eq!(
            sampled,
            select_boundaries(&boundaries, 10, 1),
            "deterministic"
        );
    }

    #[test]
    fn clean_trace_campaign_reports_zero_issues() {
        let trace = clean_trace(6);
        let report = Campaign::new(PersistencyModel::Strict)
            .run("clean", &trace)
            .unwrap();
        assert_eq!(report.issues(), 0, "{report:?}");
        assert!(report.complete());
        assert_eq!(report.boundaries_tested, report.boundaries_total);
        assert!(report.images_tested >= report.boundaries_tested as u64);
    }

    #[test]
    fn empty_trace_is_rejected_not_panicked() {
        let trace = Trace::new();
        assert!(matches!(
            Campaign::new(PersistencyModel::Strict).run("empty", &trace),
            Err(ChaosError::EmptyTrace)
        ));
    }

    #[test]
    fn zero_wall_clock_returns_partial_report() {
        let trace = clean_trace(6);
        let budget = Budget::default().with_wall_clock(std::time::Duration::ZERO);
        let report = Campaign::new(PersistencyModel::Strict)
            .with_budget(budget)
            .run("starved", &trace)
            .unwrap();
        assert!(!report.complete());
        assert!(report
            .truncations
            .iter()
            .any(|t| matches!(t, Truncation::WallClockExpired { .. })));
        assert_eq!(report.boundaries_tested, 0);
    }

    #[test]
    fn metrics_export_campaign_progress() {
        let trace = clean_trace(4);
        let registry = pm_obs::MetricsRegistry::new();
        let campaign = Campaign::new(PersistencyModel::Strict).with_metrics(registry.clone());
        let report = campaign.run("observed", &trace).unwrap();
        let report2 = campaign.run("observed-again", &trace).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chaos.campaigns"), 2);
        assert_eq!(
            snap.counter("chaos.boundaries_tested"),
            (report.boundaries_tested + report2.boundaries_tested) as u64
        );
        assert_eq!(
            snap.counter("chaos.images_tested"),
            report.images_tested + report2.images_tested
        );
        // Clean trace: zero-valued counters are never created.
        assert!(!snap.counters.contains_key("chaos.unrecoverable_states"));
        let sweep = &snap.histograms["stage.chaos_sweep"];
        assert_eq!(sweep.count, 2, "one sweep span per run");
    }

    #[test]
    fn trace_length_budget_truncates_with_report() {
        let trace = clean_trace(10);
        let budget = Budget::default().with_trace_len(9);
        let report = Campaign::new(PersistencyModel::Strict)
            .with_budget(budget)
            .run("cut", &trace)
            .unwrap();
        assert_eq!(report.events_replayed, 9);
        assert!(report
            .truncations
            .iter()
            .any(|t| matches!(t, Truncation::TraceTruncated { replayed: 9, .. })));
    }
}
