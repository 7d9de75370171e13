//! Memory-pressure chaos sweep for the governed serving daemon.
//!
//! Where [`mod@crate::serve_sweep`] tortures the serve *protocol* and
//! [`crate::daemon_crash`] tortures its *durability*, this module
//! tortures its *memory governance*: each seeded plan starts a fresh
//! in-process server with a [`pmdebugger::MemGovernor`] injected —
//! per-session budgets far under one session's bookkeeping footprint
//! (every batch boundary spills and rehydrates), generous budgets under
//! a herd of small sessions (governance must be invisible), a global
//! budget under the admission estimate (every connection shed with a
//! structured `bytes_wanted`), and a failing-allocator hook that vetoes
//! every other admission — then checks three oracles:
//!
//! * **zero aborts**: every connection is answered, the final summary
//!   reports zero host panics, and the server never dies to pressure;
//! * **zero verdict divergence**: every `ok` response's `report_hash`
//!   equals an unpressured offline batch run over the exact bytes the
//!   session pushed — spilling, rehydrating and pausing must be
//!   invisible to the verdict;
//! * **exact accounting**: the governor's rejection counter equals the
//!   memory sheds the clients observed, every spill on these
//!   run-to-completion plans is matched by a rehydration, and tracked
//!   bytes drain to exactly zero once the last session is torn down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pm_serve::{push_bytes, Listen, PushResponse, ServeConfig, Server, SessionStatus};
use pm_trace::{ingest_bytes, splitmix64, to_binary, IngestLimits, IngestMode};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, GovernorConfig, GovernorCounters, MemGovernor, PersistencyModel};

use crate::sweep::{batch_reports, hash_hex, temp_path, Sweep, SweepViolation, Tallies};

/// The memory scenario one plan runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPlan {
    /// One whale session over a per-session budget far under its
    /// bookkeeping footprint: it must spill, rehydrate, and answer
    /// byte-identically to the unpressured run.
    Whale,
    /// A herd of small sessions under a generous budget: no pressure, no
    /// spills, no rejections — governance must be invisible.
    ManySmall,
    /// Several sessions against a thrash-sized per-session budget:
    /// repeated spill/rehydrate cycles, every verdict still exact.
    SpillStorm,
    /// A failing-allocator hook vetoes every other admission: each
    /// session is shed exactly once with a structured `bytes_wanted`,
    /// then admitted on retry.
    RejectStorm,
    /// A global budget below the admission estimate: every connection is
    /// shed — structured, accounted, and without aborting the server.
    BudgetReject,
}

impl MemPlan {
    /// Stable lowercase name (JSON key in the plan-mix object).
    pub fn name(self) -> &'static str {
        match self {
            MemPlan::Whale => "whale",
            MemPlan::ManySmall => "many_small",
            MemPlan::SpillStorm => "spill_storm",
            MemPlan::RejectStorm => "reject_storm",
            MemPlan::BudgetReject => "budget_reject",
        }
    }
}

/// The plan for sweep index `i` under `seed` — a pure function, so a
/// failing index can be replayed in isolation.
pub fn mem_plan_for(seed: u64, index: u64) -> MemPlan {
    let mut s = seed ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D);
    match splitmix64(&mut s) % 100 {
        0..=24 => MemPlan::Whale,
        25..=44 => MemPlan::ManySmall,
        45..=69 => MemPlan::SpillStorm,
        70..=84 => MemPlan::RejectStorm,
        _ => MemPlan::BudgetReject,
    }
}

/// How one plan shapes its server and clients. Budgets are calibrated
/// against a live session's bookkeeping footprint (~128 KiB: the
/// location array's staging capacity dominates) and the seeded admission
/// estimate (256 KiB).
struct PlanShape {
    /// Injected global budget (`None` = unbudgeted).
    global_budget: Option<u64>,
    /// Injected per-session budget (`None` = uncapped).
    session_budget: Option<u64>,
    /// Sessions to push, as workload op counts (size knob).
    session_ops: Vec<usize>,
    /// Install the alternating failing-allocator hook.
    failing_allocator: bool,
}

fn shape_for(plan: MemPlan, s: &mut u64) -> PlanShape {
    match plan {
        MemPlan::Whale => PlanShape {
            global_budget: None,
            // Far under the ~128 KiB live footprint: the whale crosses
            // Hard session pressure at its first batch and must spill.
            session_budget: Some(16 * 1024 + splitmix64(s) % (32 * 1024)),
            session_ops: vec![160 + (splitmix64(s) % 120) as usize],
            failing_allocator: false,
        },
        MemPlan::ManySmall => PlanShape {
            global_budget: Some(256 * 1024 * 1024),
            session_budget: None,
            session_ops: (0..4 + (splitmix64(s) % 3) as usize)
                .map(|_| 8 + (splitmix64(s) % 16) as usize)
                .collect(),
            failing_allocator: false,
        },
        MemPlan::SpillStorm => PlanShape {
            global_budget: None,
            session_budget: Some(8 * 1024 + splitmix64(s) % (16 * 1024)),
            session_ops: (0..3).map(|_| 60 + (splitmix64(s) % 80) as usize).collect(),
            failing_allocator: false,
        },
        MemPlan::RejectStorm => PlanShape {
            global_budget: None,
            session_budget: None,
            session_ops: (0..3).map(|_| 8 + (splitmix64(s) % 16) as usize).collect(),
            failing_allocator: true,
        },
        MemPlan::BudgetReject => PlanShape {
            // Below the seeded 256 KiB admission estimate: nothing is
            // ever admitted, everything is shed in a structured answer.
            global_budget: Some(1024 + splitmix64(s) % 4096),
            session_budget: None,
            session_ops: (0..2).map(|_| 4 + (splitmix64(s) % 8) as usize).collect(),
            failing_allocator: false,
        },
    }
}

/// Hash of an unpressured batch detection over the exact pushed bytes.
fn batch_hash(bytes: &[u8], limits: &IngestLimits) -> Option<String> {
    let (trace, _) = ingest_bytes(bytes, IngestMode::Salvage, limits).ok()?;
    Some(hash_hex(&batch_reports(
        &DebuggerConfig::for_model(PersistencyModel::Strict),
        trace.events(),
    )))
}

/// Pushes `bytes`, absorbing memory sheds by honoring the advertised
/// back-off (bounded retries — the alternating allocator hook admits on
/// the next attempt). Returns the terminal response and the memory sheds
/// absorbed.
fn push_absorbing_sheds(listen: &Listen, bytes: &[u8]) -> std::io::Result<(PushResponse, u64)> {
    let mut sheds = 0u64;
    for _ in 0..4 {
        let response = push_bytes(listen, bytes)?;
        if response.status != SessionStatus::Busy {
            return Ok((response, sheds));
        }
        if response.bytes_wanted.is_some() {
            sheds += 1;
        }
        std::thread::sleep(Duration::from_millis(response.retry_after_ms.unwrap_or(5)));
    }
    Ok((push_bytes(listen, bytes)?, sheds))
}

/// The memory-pressure sweep: a fresh governed server per plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemPressureSweep;

/// One memory scenario: plan `index` of `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemPressurePlan {
    /// The sweep seed (shape and payloads derive from it).
    pub seed: u64,
    /// Plan index.
    pub index: usize,
    /// The scenario.
    pub kind: MemPlan,
}

/// What one governed server did under a plan.
#[derive(Debug, Default)]
pub struct MemOutcome {
    /// The plan's shape parameters checked by the oracles.
    session_budget: Option<u64>,
    sessions_planned: u64,
    /// A setup failure (no spill dir, no socket) — an abort.
    setup_failure: Option<(&'static str, String)>,
    /// Per session: the terminal answer and the memory sheds absorbed
    /// before it, plus the unpressured batch hash of the pushed bytes.
    sessions: Vec<Result<(PushResponse, u64, String), String>>,
    host_panics: u64,
    counters: GovernorCounters,
    tracked_bytes: u64,
    tracked_sessions: usize,
    manifest_has_mem_rows: bool,
}

impl Sweep for MemPressureSweep {
    const NAME: &'static str = "mem-pressure";
    const DEFAULT_SEED: u64 = 0x7C4A_5AD0;
    const DEFAULT_PLANS: usize = 100;
    type Plan = MemPressurePlan;
    type Outcome = MemOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = MemPressurePlan>> {
        Box::new((0..).map(move |index: usize| MemPressurePlan {
            seed,
            index,
            kind: mem_plan_for(seed, index as u64),
        }))
    }

    fn kind(plan: &MemPressurePlan) -> &'static str {
        plan.kind.name()
    }

    fn run(&mut self, plan: &MemPressurePlan) -> MemOutcome {
        run_plan(plan)
    }

    fn check(
        &self,
        plan: &MemPressurePlan,
        outcome: &MemOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        let mut violations = Vec::new();
        let mut violation =
            |kind: &'static str, detail: String| violations.push(SweepViolation::new(kind, detail));
        tallies.add("verdict_divergence", 0);
        tallies.add("ok_sessions", 0);
        if let Some((kind, detail)) = &outcome.setup_failure {
            tallies.aborts += 1;
            violation(kind, detail.clone());
            return violations;
        }
        let mut sheds_observed = 0u64;
        for (n, session) in outcome.sessions.iter().enumerate() {
            tallies.add("sessions_total", 1);
            let (response, sheds, expected) = match session {
                Ok(answer) => answer,
                Err(e) => {
                    violation("push-io", e.clone());
                    continue;
                }
            };
            if plan.kind == MemPlan::BudgetReject {
                // Nothing can be admitted: one push, one structured shed.
                if response.status != SessionStatus::Busy {
                    violation(
                        "admitted-over-budget",
                        format!("session {n} answered {:?}", response.status),
                    );
                } else if response.bytes_wanted.is_none() {
                    violation(
                        "shed-without-bytes-wanted",
                        "memory shed carried no bytes_wanted".to_owned(),
                    );
                } else {
                    sheds_observed += 1;
                }
                continue;
            }
            sheds_observed += sheds;
            match response.status {
                SessionStatus::Ok => {
                    tallies.add("ok_sessions", 1);
                    if &response.report_hash != expected {
                        tallies.add("verdict_divergence", 1);
                        violation(
                            "verdict-divergence",
                            format!(
                                "session {n}: pressured hash {} != batch hash {expected}",
                                response.report_hash
                            ),
                        );
                    }
                }
                other => violation(
                    "non-ok-session",
                    format!(
                        "session {n} ended {other:?}: {:?} ({:?})",
                        response.error, response.error_kind
                    ),
                ),
            }
        }
        tallies.add("memory_sheds", sheds_observed);

        tallies.aborts += outcome.host_panics;
        if outcome.host_panics > 0 {
            violation(
                "host-panic",
                format!("{} session host panics", outcome.host_panics),
            );
        }

        // Exact accounting oracles over the injected governor.
        let counters = &outcome.counters;
        tallies.add("spills_total", counters.spills);
        tallies.add("rehydrations_total", counters.rehydrations);
        tallies.add("rejections_total", counters.rejections);
        tallies.add("pauses_total", counters.pauses);
        tallies.add("pause_ms_total", counters.pause_ms);
        if outcome.tracked_bytes != 0 || outcome.tracked_sessions != 0 {
            violation(
                "tracked-bytes-leak",
                format!(
                    "{} bytes / {} sessions still tracked after shutdown",
                    outcome.tracked_bytes, outcome.tracked_sessions
                ),
            );
        }
        if counters.spills != counters.rehydrations {
            violation(
                "spill-rehydrate-mismatch",
                format!(
                    "{} spills vs {} rehydrations on run-to-completion sessions",
                    counters.spills, counters.rehydrations
                ),
            );
        }
        if counters.rejections != sheds_observed {
            violation(
                "rejection-accounting-mismatch",
                format!(
                    "governor counted {} rejections, clients observed {} memory sheds",
                    counters.rejections, sheds_observed
                ),
            );
        }
        match plan.kind {
            MemPlan::Whale | MemPlan::SpillStorm => {
                if counters.spills == 0 {
                    violation(
                        "no-spill-under-hard-pressure",
                        format!(
                            "session budget {:?} produced zero spills",
                            outcome.session_budget
                        ),
                    );
                }
            }
            MemPlan::ManySmall => {
                if counters.spills != 0 || counters.rejections != 0 {
                    violation(
                        "pressure-without-pressure",
                        format!(
                            "generous budget produced {} spills / {} rejections",
                            counters.spills, counters.rejections
                        ),
                    );
                }
            }
            // The alternating allocator rejects each session once; an
            // over-budget global rejects every session.
            MemPlan::RejectStorm | MemPlan::BudgetReject => {
                if counters.rejections != outcome.sessions_planned {
                    violation(
                        "reject-count-mismatch",
                        format!(
                            "{} plan: {} sessions, governor counted {} rejections",
                            plan.kind.name(),
                            outcome.sessions_planned,
                            counters.rejections
                        ),
                    );
                }
            }
        }
        if !outcome.manifest_has_mem_rows {
            violation(
                "manifest-missing-mem-rows",
                "final manifest carries no mem.* gauges".to_owned(),
            );
        }
        violations
    }
}

/// Runs one plan against a fresh governed server on a temp unix socket
/// and records everything the oracles need.
fn run_plan(plan: &MemPressurePlan) -> MemOutcome {
    let mut s = plan.seed ^ (plan.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let shape = shape_for(plan.kind, &mut s);
    let governor = MemGovernor::new(GovernorConfig {
        global_budget: shape.global_budget,
        session_budget: shape.session_budget,
        ..GovernorConfig::default()
    });
    let mut outcome = MemOutcome {
        session_budget: shape.session_budget,
        sessions_planned: shape.session_ops.len() as u64,
        ..MemOutcome::default()
    };

    let spill_dir = temp_path("memsweep");
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        outcome.setup_failure = Some(("spill-dir-failure", e.to_string()));
        return outcome;
    }
    if shape.failing_allocator {
        // Alternating veto: every session is rejected exactly once with
        // a structured shed, then admitted on its retry.
        let calls = AtomicU64::new(0);
        governor.set_reserve_hook(Some(Arc::new(move |_bytes| {
            calls.fetch_add(1, Ordering::Relaxed) % 2 == 1
        })));
    }

    let mut cfg = ServeConfig::new(Listen::Unix(spill_dir.join("serve.sock")));
    cfg.checkpoint_every = 32;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg.retry_after = Duration::from_millis(2);
    cfg.spill_dir = Some(spill_dir.clone());
    cfg.governor = Some(governor.clone());
    let limits = cfg.limits.clone();

    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            outcome.setup_failure = Some(("bind-failure", e.to_string()));
            let _ = std::fs::remove_dir_all(&spill_dir);
            return outcome;
        }
    };
    let listen = server.local_listen().clone();

    for (n, &ops) in shape.session_ops.iter().enumerate() {
        let trace_seed = splitmix64(&mut s) ^ n as u64;
        let bytes = to_binary(&record_trace(&BTree::new(trace_seed), ops));
        let answer = if plan.kind == MemPlan::BudgetReject {
            push_bytes(&listen, &bytes).map(|response| (response, 0))
        } else {
            push_absorbing_sheds(&listen, &bytes)
        };
        outcome.sessions.push(
            answer
                .map(|(response, sheds)| {
                    let expected = if response.status == SessionStatus::Ok {
                        batch_hash(&bytes, &limits).unwrap_or_default()
                    } else {
                        String::new()
                    };
                    (response, sheds, expected)
                })
                .map_err(|e| e.to_string()),
        );
    }

    let summary = server.shutdown(Duration::from_secs(10));
    outcome.host_panics = summary.host_panics;
    outcome.counters = governor.counters();
    outcome.tracked_bytes = governor.tracked_bytes();
    outcome.tracked_sessions = governor.session_count();
    outcome.manifest_has_mem_rows = summary.manifest_json.contains("\"mem.peak_bytes\"");
    let _ = std::fs::remove_dir_all(&spill_dir);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, SweepOptions};

    #[test]
    fn reject_plans_shed_with_exact_accounting() {
        // Run exactly enough plans to include a rejecting scenario; the
        // in-plan oracles assert the exact rejection counts and the
        // structured bytes_wanted sheds.
        let seed = 0xBEEF_CAFE;
        let first_reject = (0..200u64)
            .find(|&i| {
                matches!(
                    mem_plan_for(seed, i),
                    MemPlan::RejectStorm | MemPlan::BudgetReject
                )
            })
            .expect("seeded mix must include a rejecting plan") as usize;
        let report = run_sweep(
            &mut MemPressureSweep,
            &SweepOptions::new(first_reject + 1, seed),
        );
        assert!(report.ok(), "{}", report.to_json());
        assert!(report.tally("memory_sheds") > 0, "{}", report.to_json());
        assert_eq!(
            report.tally("memory_sheds"),
            report.tally("rejections_total")
        );
    }
}
