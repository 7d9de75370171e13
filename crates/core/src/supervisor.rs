//! Supervision layer for the parallel detection pipeline.
//!
//! The sharded pipeline in [`crate::parallel`] assumes every worker runs to
//! completion; a single panicking, hanging or memory-hungry shard used to
//! take the whole campaign with it. This module wraps each worker in a
//! [`std::panic::catch_unwind`] boundary plus a `ShardGuard` that enforces
//! a per-shard deadline and memory budget, retries failed shards up to a
//! configurable number of times (then optionally one last isolated
//! sequential rerun), and merges whatever survives:
//!
//! * In [`FailMode::Strict`], the first shard that exhausts its attempts
//!   surfaces as a typed [`SupervisorError`] — never a panic, never an
//!   abort.
//! * In [`FailMode::Degrade`], the run completes with the surviving shards'
//!   verdicts and a [`DegradedReport`] naming every quarantined shard, the
//!   exact number of stream events whose verdicts were lost with it (from
//!   [`pm_trace::ShardPlan::worker_loads`]), each failed attempt's cause,
//!   and the rules that may consequently under-report.
//!
//! Fault injection for testing the supervisor itself lives here too:
//! a [`FaultPlan`] compiles seeded panic/delay/alloc-pressure hooks into
//! the guarded worker loop, and [`FaultPlan::dooms`] predicts — from the
//! plan and config alone — exactly which shards a supervised run must
//! quarantine, which is what the chaos sweep in `pm-chaos` and the
//! proptests in `crates/core/tests/supervisor_properties.rs` assert
//! against.
//!
//! Delay faults are charged to a *virtual clock*: the guard adds the
//! injected duration to the shard's elapsed time instead of sleeping, so
//! deadline handling is tested deterministically and a 200-plan sweep
//! costs milliseconds, not hours.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use std::thread;
use std::time::{Duration, Instant};

use pm_obs::MetricsRegistry;
use pm_trace::{splitmix64, BugKind, BugReport, PmEvent, ShardPlan, Trace};

use crate::config::DebuggerConfig;
use crate::debugger::PmDebugger;
use crate::parallel::{
    build_plan_parallel, merge_survivors, run_worker_guarded, ParallelConfig, ParallelOutcome,
    WorkerOut, MAX_THREADS,
};

/// Name prefix of supervised worker threads. The process-global panic hook
/// suppresses backtrace spew from threads carrying this prefix (their
/// panics are caught, classified and possibly retried — stderr noise would
/// only obscure real failures).
pub const WORKER_THREAD_PREFIX: &str = "pm-shard-worker";

/// Virtual delay injected by fatal [`FaultKind::Delay`] faults from
/// [`FaultPlan::seeded`]: far above any plausible shard deadline.
pub const FATAL_DELAY: Duration = Duration::from_secs(3600);

/// Bytes injected by fatal [`FaultKind::AllocPressure`] faults from
/// [`FaultPlan::seeded`].
pub const FATAL_ALLOC_BYTES: u64 = 32 << 20;

/// Bytes injected by benign alloc-pressure faults from
/// [`FaultPlan::seeded`] — small enough to pass any budget a test uses.
pub const BENIGN_ALLOC_BYTES: u64 = 64 << 10;

/// Rough resident-size charge per live bookkeeping tree record when
/// checking the shard memory budget (tree node + record payload).
const BOOKKEEPING_RECORD_BYTES: u64 = 64;

/// Largest real allocation an alloc-pressure fault performs; billed bytes
/// beyond this are accounted virtually (the guard's budget check uses the
/// full figure either way).
const MAX_REAL_ALLOC: u64 = 64 << 20;

/// What a supervised run does once a shard exhausts every attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Surface the first exhausted shard as a typed [`SupervisorError`].
    Strict,
    /// Quarantine exhausted shards and finish with a [`DegradedReport`].
    Degrade,
}

/// Supervision policy for one detection run. The default is one retry, a
/// sequential fallback, no deadline or memory budget, and
/// [`FailMode::Degrade`]: a genuine worker panic costs its shard's
/// verdicts, never the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Threaded re-attempts after the first failure (attempt 0 is free).
    pub max_retries: u32,
    /// Wall-clock ceiling per shard attempt (injected delays count
    /// against it virtually). `None` disables the deadline.
    pub shard_deadline: Option<Duration>,
    /// Approximate resident bytes one shard attempt may hold (injected
    /// alloc pressure plus a bookkeeping estimate). `None` disables it.
    pub max_shard_bytes: Option<u64>,
    /// After threaded retries are exhausted, rerun the shard once more in
    /// isolation (one worker at a time) before giving up on it.
    pub sequential_fallback: bool,
    /// Strict or degraded completion (see [`FailMode`]).
    pub fail_mode: FailMode,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 1,
            shard_deadline: None,
            max_shard_bytes: None,
            sequential_fallback: true,
            fail_mode: FailMode::Degrade,
        }
    }
}

impl SupervisorConfig {
    /// Sets the number of threaded retries.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Sets the per-shard deadline.
    pub fn with_shard_deadline(mut self, deadline: Duration) -> Self {
        self.shard_deadline = Some(deadline);
        self
    }

    /// Sets the per-shard memory budget.
    pub fn with_max_shard_bytes(mut self, bytes: u64) -> Self {
        self.max_shard_bytes = Some(bytes);
        self
    }

    /// Enables or disables the final isolated sequential rerun.
    pub fn with_sequential_fallback(mut self, enabled: bool) -> Self {
        self.sequential_fallback = enabled;
        self
    }

    /// Sets the failure mode.
    pub fn with_fail_mode(mut self, mode: FailMode) -> Self {
        self.fail_mode = mode;
        self
    }

    /// Total attempt slots a shard gets: the initial attempt, the threaded
    /// retries, and the sequential fallback if enabled. Saturates so a
    /// `max_retries` of `u32::MAX` stays a budget, not an overflow.
    pub fn total_attempts(&self) -> u32 {
        self.max_retries
            .saturating_add(1)
            .saturating_add(u32::from(self.sequential_fallback))
    }
}

/// One injected detector fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the worker loop.
    Panic,
    /// Charge this much virtual time against the shard deadline.
    Delay(Duration),
    /// Allocate (and bill) this many bytes against the memory budget.
    AllocPressure(u64),
}

impl FaultKind {
    /// Whether one firing of this fault necessarily fails the attempt
    /// under `config`.
    ///
    /// Exact as long as injected delays are either zero or at least the
    /// deadline, and injected allocations sit well away from the byte
    /// budget — which is how [`FaultPlan::seeded`] constructs them. The
    /// chaos oracle relies on this to predict casualties from the plan
    /// alone.
    pub fn is_fatal(&self, config: &SupervisorConfig) -> bool {
        match *self {
            FaultKind::Panic => true,
            FaultKind::Delay(d) => config.shard_deadline.is_some_and(|dl| d >= dl),
            FaultKind::AllocPressure(b) => config.max_shard_bytes.is_some_and(|m| b > m),
        }
    }
}

/// A fault scheduled for one (worker, attempt) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Worker the fault targets.
    pub worker: u32,
    /// Attempt index it fires on (0 = first attempt).
    pub attempt: u32,
    /// Fires once the worker has consumed this many events — or in the
    /// scan epilogue if the shard owns fewer, so every scheduled fault
    /// fires exactly once.
    pub after_events: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A seeded schedule of detector faults, compiled into the guarded worker
/// loop. At most one fault per (worker, attempt) pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<InjectedFault>,
}

impl FaultPlan {
    /// A plan from explicit faults (later entries win on duplicate
    /// (worker, attempt) pairs — [`FaultPlan::fault_for`] scans backward).
    pub fn new(faults: Vec<InjectedFault>) -> Self {
        FaultPlan { seed: 0, faults }
    }

    /// Deterministic plan for `threads` workers and `attempts` attempt
    /// slots (pass [`SupervisorConfig::total_attempts`]). Roughly half the
    /// workers run clean; each faulty worker draws a fault kind (panic /
    /// fatal-or-benign delay / fatal-or-benign alloc pressure), a trigger
    /// position, and how many leading attempts carry the fault — when that
    /// covers every slot and the fault is fatal, the shard is doomed.
    pub fn seeded(seed: u64, threads: usize, attempts: u32) -> Self {
        let mut state = seed ^ 0xD00D_F00D_0000_5EED;
        let mut faults = Vec::new();
        for worker in 0..threads as u32 {
            let r = splitmix64(&mut state);
            if r & 1 == 0 {
                continue;
            }
            let kill_attempts = 1 + (r >> 1) % (u64::from(attempts) + 1);
            let benign = (r >> 24) & 1 == 1;
            let kind = match (r >> 16) % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::Delay(if benign { Duration::ZERO } else { FATAL_DELAY }),
                _ => FaultKind::AllocPressure(if benign {
                    BENIGN_ALLOC_BYTES
                } else {
                    FATAL_ALLOC_BYTES
                }),
            };
            let after_events = (r >> 32) % 97;
            for attempt in 0..kill_attempts.min(u64::from(attempts)) as u32 {
                faults.push(InjectedFault {
                    worker,
                    attempt,
                    after_events,
                    kind,
                });
            }
        }
        FaultPlan { seed, faults }
    }

    /// The seed this plan was generated from (0 for explicit plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// The fault scheduled for `(worker, attempt)`, if any.
    pub fn fault_for(&self, worker: u32, attempt: u32) -> Option<&InjectedFault> {
        self.faults
            .iter()
            .rev()
            .find(|f| f.worker == worker && f.attempt == attempt)
    }

    /// Whether this plan necessarily quarantines `worker` under `config`:
    /// every attempt slot carries a fatal fault. This is the oracle the
    /// chaos sweep checks actual quarantine decisions against.
    pub fn dooms(&self, worker: u32, config: &SupervisorConfig) -> bool {
        (0..config.total_attempts()).all(|attempt| {
            self.fault_for(worker, attempt)
                .is_some_and(|f| f.kind.is_fatal(config))
        })
    }

    /// The workers this plan dooms under `config`, ascending.
    pub fn doomed_workers(&self, threads: usize, config: &SupervisorConfig) -> Vec<u32> {
        (0..threads as u32)
            .filter(|&w| self.dooms(w, config))
            .collect()
    }
}

/// Why one shard attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The worker panicked (injected or genuine); the payload's message.
    Panic {
        /// Stringified panic payload.
        message: String,
    },
    /// The shard ran past its deadline (virtual delays included).
    DeadlineExceeded {
        /// Elapsed real plus virtual time when the guard tripped.
        waited_ms: u64,
        /// The configured deadline.
        deadline_ms: u64,
    },
    /// The shard's (approximate) resident bytes exceeded the budget.
    MemoryBudgetExceeded {
        /// Injected plus estimated bookkeeping bytes when the guard
        /// tripped.
        resident_bytes: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::Panic { message } => write!(f, "panicked: {message}"),
            ShardFailure::DeadlineExceeded {
                waited_ms,
                deadline_ms,
            } => write!(f, "deadline exceeded ({waited_ms} ms > {deadline_ms} ms)"),
            ShardFailure::MemoryBudgetExceeded {
                resident_bytes,
                budget,
            } => write!(
                f,
                "memory budget exceeded ({resident_bytes} B > {budget} B)"
            ),
        }
    }
}

/// One failed attempt of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// Attempt index (0 = first attempt; the sequential fallback, if any,
    /// is `max_retries + 1`).
    pub attempt: u32,
    /// Whether this was the isolated sequential fallback attempt.
    pub sequential: bool,
    /// Why it failed.
    pub failure: ShardFailure,
}

/// A shard the supervisor gave up on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// Worker index of the lost shard.
    pub worker: u32,
    /// Routed events whose verdicts were lost with it (the shard's load
    /// from [`ShardPlan::worker_loads`]; broadcast events survive through
    /// the other workers).
    pub lost_events: u64,
    /// Every failed attempt, in order.
    pub failures: Vec<AttemptFailure>,
}

/// What a degraded run lost, precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedReport {
    /// Every quarantined shard with its full failure history.
    pub quarantined: Vec<QuarantinedShard>,
    /// Total routed events lost across quarantined shards.
    pub lost_events: u64,
    /// Whether broadcast-derived reports (redundant epoch fences,
    /// redundant logging) were lost too — only when *every* shard was
    /// quarantined, since any survivor re-derives them.
    pub broadcast_reports_lost: bool,
    /// Rules that may under-report because of the losses, by
    /// [`BugKind::name`].
    pub underreporting_rules: Vec<&'static str>,
}

impl DegradedReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} shard(s) quarantined, {} routed event(s) lost",
            self.quarantined.len(),
            self.lost_events
        )
    }
}

/// Result of a supervised detection run.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// Merged verdicts of the surviving shards (byte-identical to the
    /// sequential run when nothing was quarantined).
    pub outcome: ParallelOutcome,
    /// The shard plan the run executed under (exposes
    /// [`ShardPlan::shard_of_addr`] and [`ShardPlan::worker_loads`] so
    /// callers can attribute losses).
    pub plan: ShardPlan,
    /// Present iff at least one shard was quarantined.
    pub degraded: Option<DegradedReport>,
    /// Re-attempts performed across all shards (threaded retries plus
    /// sequential fallback runs).
    pub retries: u64,
}

impl SupervisedOutcome {
    /// Whether any shard was quarantined.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Exports the pipeline's routing counters (`parallel.*`), merged
    /// bookkeeping statistics (`bookkeeping.*`) and the supervision
    /// counters (`supervisor.retries`, `supervisor.quarantined`,
    /// `supervisor.lost_events`, `supervisor.degraded`) into `registry`.
    /// The supervisor counters are always created — a manifest from a
    /// supervised run shows them at 0 rather than omitting them.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let o = &self.outcome;
        registry
            .counter("parallel.routed_events")
            .add(o.routed_events);
        registry
            .counter("parallel.broadcast_events")
            .add(o.broadcast_events);
        registry
            .counter("parallel.components")
            .add(o.components as u64);
        registry.gauge("parallel.threads").set(o.threads as i64);
        o.stats.export(registry);
        registry.counter("supervisor.retries").add(self.retries);
        registry.counter("supervisor.quarantined").add(
            self.degraded
                .as_ref()
                .map_or(0, |d| d.quarantined.len() as u64),
        );
        registry
            .counter("supervisor.lost_events")
            .add(self.degraded.as_ref().map_or(0, |d| d.lost_events));
        registry
            .counter("supervisor.degraded")
            .add(u64::from(self.is_degraded()));
    }
}

/// Typed supervision failure — the strict-mode replacement for the
/// `join().expect(...)` aborts the unsupervised pipeline used to have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// A shard exhausted every attempt under [`FailMode::Strict`].
    ShardFailed {
        /// Worker index of the failed shard.
        worker: u32,
        /// Routed events its verdicts would have covered.
        lost_events: u64,
        /// Every failed attempt, in order.
        failures: Vec<AttemptFailure>,
    },
    /// The (serial) plan build itself panicked; no detection ran.
    PlanPanicked {
        /// Stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorError::ShardFailed {
                worker,
                lost_events,
                failures,
            } => {
                write!(
                    f,
                    "shard {worker} failed {} attempt(s) ({} routed events affected): ",
                    failures.len(),
                    lost_events
                )?;
                let causes: Vec<String> = failures
                    .iter()
                    .map(|a| format!("attempt {} {}", a.attempt, a.failure))
                    .collect();
                write!(f, "{}", causes.join("; "))
            }
            SupervisorError::PlanPanicked { message } => {
                write!(f, "shard plan build panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Per-attempt shard guard: fires the scheduled fault and enforces the
/// deadline and the memory budget while the worker scans.
#[derive(Debug)]
pub(crate) struct ShardGuard {
    fault: Option<InjectedFault>,
    fired: bool,
    deadline: Option<Duration>,
    max_bytes: Option<u64>,
    start: Instant,
    virtual_delay: Duration,
    injected_bytes: u64,
    consumed: u64,
}

impl ShardGuard {
    pub(crate) fn new(config: &SupervisorConfig, fault: Option<InjectedFault>) -> ShardGuard {
        ShardGuard {
            fired: fault.is_none(),
            fault,
            deadline: config.shard_deadline,
            max_bytes: config.max_shard_bytes,
            start: Instant::now(),
            virtual_delay: Duration::ZERO,
            injected_bytes: 0,
            consumed: 0,
        }
    }

    /// Called by the worker loop before consuming each event. The checks
    /// are branch-cheap when no limits are configured (the common path);
    /// the clock and the bookkeeping estimate are sampled every 64 events.
    #[inline]
    pub(crate) fn before_consume(&mut self, det: &PmDebugger) -> Result<(), ShardFailure> {
        self.consumed += 1;
        if !self.fired {
            if let Some(fault) = self.fault {
                if self.consumed > fault.after_events {
                    self.fire(fault, det)?;
                }
            }
        }
        if self.consumed & 63 == 0 {
            self.check_deadline()?;
            self.check_memory(det)?;
        }
        Ok(())
    }

    /// Called after the scan: fires a fault whose trigger position the
    /// shard never reached (every scheduled fault fires exactly once, so
    /// the chaos oracle can predict casualties), then re-checks the
    /// deadline and memory budget one last time.
    pub(crate) fn finish_scan(&mut self, det: &PmDebugger) -> Result<(), ShardFailure> {
        if !self.fired {
            if let Some(fault) = self.fault {
                self.fire(fault, det)?;
            }
        }
        self.check_deadline()?;
        self.check_memory(det)
    }

    fn fire(&mut self, fault: InjectedFault, det: &PmDebugger) -> Result<(), ShardFailure> {
        self.fired = true;
        match fault.kind {
            FaultKind::Panic => panic!(
                "injected fault: worker {} attempt {} panicking after {} events",
                fault.worker, fault.attempt, self.consumed
            ),
            FaultKind::Delay(d) => {
                // Charged virtually: the deadline sees the full delay
                // without the test suite actually sleeping through it.
                self.virtual_delay += d;
                self.check_deadline()
            }
            FaultKind::AllocPressure(bytes) => {
                // Exercise the real allocator (bounded), then release; the
                // budget is billed the full figure either way.
                let len = bytes.min(MAX_REAL_ALLOC) as usize;
                let mut block = vec![0u8; len];
                for i in (0..block.len()).step_by(4096) {
                    block[i] = 1;
                }
                std::hint::black_box(&block);
                drop(block);
                self.injected_bytes += bytes;
                self.check_memory(det)
            }
        }
    }

    fn check_deadline(&self) -> Result<(), ShardFailure> {
        let Some(deadline) = self.deadline else {
            return Ok(());
        };
        let waited = self.virtual_delay + self.start.elapsed();
        if waited >= deadline {
            return Err(ShardFailure::DeadlineExceeded {
                waited_ms: waited.as_millis() as u64,
                deadline_ms: deadline.as_millis() as u64,
            });
        }
        Ok(())
    }

    fn check_memory(&self, det: &PmDebugger) -> Result<(), ShardFailure> {
        let Some(budget) = self.max_bytes else {
            return Ok(());
        };
        let resident_bytes =
            self.injected_bytes + det.stats().tree_len_now as u64 * BOOKKEEPING_RECORD_BYTES;
        if resident_bytes > budget {
            return Err(ShardFailure::MemoryBudgetExceeded {
                resident_bytes,
                budget,
            });
        }
        Ok(())
    }
}

/// The text of a caught panic's payload (`panic!` with a literal or a
/// formatted message), or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses default
/// backtrace printing for supervised worker threads — their panics are
/// caught and classified — and forwards everything else to the previously
/// installed hook.
fn install_worker_panic_silencer() {
    static SILENCER: Once = Once::new();
    SILENCER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = thread::current()
                .name()
                .is_some_and(|name| name.starts_with(WORKER_THREAD_PREFIX));
            if !supervised {
                previous(info);
            }
        }));
    });
}

/// Runs one attempt for each worker in `workers` on named scoped threads,
/// each behind `catch_unwind` and a fresh `ShardGuard`. Returns one
/// `(worker, result)` pair per requested worker. The sequential fallback
/// calls this with single-element worker lists, one at a time.
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    config: &DebuggerConfig,
    plan: &ShardPlan,
    events: &[PmEvent],
    base_seq: u64,
    workers: &[usize],
    attempt: u32,
    sup: &SupervisorConfig,
    faults: Option<&FaultPlan>,
) -> Vec<(usize, Result<WorkerOut, ShardFailure>)> {
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers.len());
        for &w in workers {
            let fault = faults.and_then(|p| p.fault_for(w as u32, attempt)).copied();
            let spawned = thread::Builder::new()
                .name(format!("{WORKER_THREAD_PREFIX}-{w}"))
                .spawn_scoped(scope, move || {
                    match catch_unwind(AssertUnwindSafe(|| {
                        run_worker_guarded(
                            config,
                            plan,
                            events,
                            base_seq,
                            w as u32,
                            ShardGuard::new(sup, fault),
                        )
                    })) {
                        Ok(result) => result,
                        Err(payload) => Err(ShardFailure::Panic {
                            message: panic_message(&*payload),
                        }),
                    }
                });
            handles.push((w, spawned));
        }
        handles
            .into_iter()
            .map(|(w, spawned)| {
                let result = match spawned {
                    Ok(handle) => match handle.join() {
                        Ok(result) => result,
                        // Unreachable for unwinding panics (they are caught
                        // inside the thread); kept as defense in depth.
                        Err(payload) => Err(ShardFailure::Panic {
                            message: panic_message(&*payload),
                        }),
                    },
                    Err(err) => Err(ShardFailure::Panic {
                        message: format!("worker thread spawn failed: {err}"),
                    }),
                };
                (w, result)
            })
            .collect()
    })
}

fn underreporting_rules(all_lost: bool) -> Vec<&'static str> {
    BugKind::ALL
        .iter()
        .filter(|kind| {
            all_lost
                || !matches!(
                    kind,
                    BugKind::RedundantEpochFence | BugKind::RedundantLogging
                )
        })
        .map(|kind| kind.name())
        .collect()
}

/// Supervised parallel detection over `events` numbered from `base_seq`.
///
/// Builds the shard plan (behind `catch_unwind` — a plan panic comes back
/// as [`SupervisorError::PlanPanicked`]), runs every worker behind a
/// `ShardGuard` with up to `sup.max_retries` threaded retries and an
/// optional isolated sequential fallback, and merges whatever survived.
/// `faults`, when present, compiles the injected fault schedule into the
/// worker loop — production callers pass `None`.
pub fn detect_supervised_from(
    config: &DebuggerConfig,
    par: &ParallelConfig,
    sup: &SupervisorConfig,
    faults: Option<&FaultPlan>,
    events: &[PmEvent],
    base_seq: u64,
) -> Result<SupervisedOutcome, SupervisorError> {
    install_worker_panic_silencer();
    let threads = par.threads.clamp(1, MAX_THREADS);
    let pin_named = !config.order_spec.is_empty();
    let plan = catch_unwind(AssertUnwindSafe(|| {
        build_plan_parallel(events, threads, pin_named)
    }))
    .map_err(|payload| SupervisorError::PlanPanicked {
        message: panic_message(&*payload),
    })?;

    let mut outs: Vec<Option<WorkerOut>> = std::iter::repeat_with(|| None).take(threads).collect();
    let mut failures: Vec<Vec<AttemptFailure>> = vec![Vec::new(); threads];
    let mut pending: Vec<usize> = (0..threads).collect();
    let mut retries: u64 = 0;

    for attempt in 0..=sup.max_retries {
        if pending.is_empty() {
            break;
        }
        if attempt > 0 {
            retries += pending.len() as u64;
        }
        let results = run_attempt(
            config, &plan, events, base_seq, &pending, attempt, sup, faults,
        );
        pending = Vec::new();
        for (w, result) in results {
            match result {
                Ok(out) => outs[w] = Some(out),
                Err(failure) => {
                    failures[w].push(AttemptFailure {
                        attempt,
                        sequential: false,
                        failure,
                    });
                    pending.push(w);
                }
            }
        }
        pending.sort_unstable();
    }

    if sup.sequential_fallback && !pending.is_empty() {
        let attempt = sup.max_retries.saturating_add(1);
        retries += pending.len() as u64;
        let mut still_failed = Vec::new();
        for &w in &pending {
            let results = run_attempt(config, &plan, events, base_seq, &[w], attempt, sup, faults);
            for (w, result) in results {
                match result {
                    Ok(out) => outs[w] = Some(out),
                    Err(failure) => {
                        failures[w].push(AttemptFailure {
                            attempt,
                            sequential: true,
                            failure,
                        });
                        still_failed.push(w);
                    }
                }
            }
        }
        pending = still_failed;
    }

    if !pending.is_empty() && sup.fail_mode == FailMode::Strict {
        let worker = pending[0];
        return Err(SupervisorError::ShardFailed {
            worker: worker as u32,
            lost_events: plan.worker_loads().get(worker).copied().unwrap_or(0),
            failures: std::mem::take(&mut failures[worker]),
        });
    }

    let survivors: Vec<(usize, WorkerOut)> = outs
        .into_iter()
        .enumerate()
        .filter_map(|(w, out)| out.map(|out| (w, out)))
        .collect();
    let outcome = merge_survivors(survivors, &plan, events.len(), threads);
    let degraded = if pending.is_empty() {
        None
    } else {
        let quarantined: Vec<QuarantinedShard> = pending
            .iter()
            .map(|&w| QuarantinedShard {
                worker: w as u32,
                lost_events: plan.worker_loads().get(w).copied().unwrap_or(0),
                failures: std::mem::take(&mut failures[w]),
            })
            .collect();
        let lost_events = quarantined.iter().map(|q| q.lost_events).sum();
        let all_lost = quarantined.len() >= threads;
        Some(DegradedReport {
            lost_events,
            broadcast_reports_lost: all_lost,
            underreporting_rules: underreporting_rules(all_lost),
            quarantined,
        })
    };
    Ok(SupervisedOutcome {
        outcome,
        plan,
        degraded,
        retries,
    })
}

/// Supervised parallel detection over a recorded trace.
///
/// # Example
///
/// ```
/// use pm_trace::{PmEvent, ThreadId, Trace};
/// use pmdebugger::{
///     detect_supervised, DebuggerConfig, ParallelConfig, PersistencyModel, SupervisorConfig,
/// };
///
/// let mut trace = Trace::new();
/// trace.push(PmEvent::Store { addr: 0, size: 8, tid: ThreadId(0), strand: None, in_epoch: false });
/// let config = DebuggerConfig::for_model(PersistencyModel::Strict);
/// let result = detect_supervised(
///     &config,
///     &ParallelConfig::with_threads(4),
///     &SupervisorConfig::default(),
///     None,
///     &trace,
/// )
/// .unwrap();
/// assert!(!result.is_degraded());
/// assert_eq!(result.outcome.reports.len(), 1); // the store was never persisted
/// ```
pub fn detect_supervised(
    config: &DebuggerConfig,
    par: &ParallelConfig,
    sup: &SupervisorConfig,
    faults: Option<&FaultPlan>,
    trace: &Trace,
) -> Result<SupervisedOutcome, SupervisorError> {
    detect_supervised_from(config, par, sup, faults, trace.events(), 0)
}

/// The sequential reports a degraded run with `quarantined` workers is
/// still required to produce, in sequential order — the oracle behind the
/// "fault-free shards are byte-identical" invariant.
///
/// Ownership follows the pipeline's routing: broadcast-derived kinds
/// (redundant epoch fences, redundant logging) survive as long as *any*
/// worker does; addressed reports survive iff [`ShardPlan::shard_of_addr`]
/// of their address survives; the only address-less non-broadcast kind
/// (order-spec violations with an unknown range) is pinned to worker 0
/// along with every named range.
pub fn expected_surviving_reports(
    sequential: &[BugReport],
    plan: &ShardPlan,
    quarantined: &[u32],
    threads: usize,
) -> Vec<BugReport> {
    let lost: BTreeSet<usize> = quarantined.iter().map(|&w| w as usize).collect();
    let all_lost = lost.len() >= threads;
    sequential
        .iter()
        .filter(|r| match r.kind {
            BugKind::RedundantEpochFence | BugKind::RedundantLogging => !all_lost,
            _ => match r.addr {
                Some(addr) => !lost.contains(&plan.shard_of_addr(addr)),
                None => !lost.contains(&0),
            },
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PersistencyModel;
    use pm_trace::{Detector, FenceKind, FlushKind, ThreadId};

    fn store(addr: u64, size: u32, tid: u32) -> PmEvent {
        PmEvent::Store {
            addr,
            size,
            tid: ThreadId(tid),
            strand: None,
            in_epoch: false,
        }
    }

    fn messy_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..60u64 {
            let tid = (i % 3) as u32;
            let addr = (i % 8) * 4096 + (i % 5) * 64;
            t.push(store(addr, 16, tid));
            if i % 3 != 0 {
                t.push(PmEvent::Flush {
                    kind: FlushKind::Clwb,
                    addr: addr & !63,
                    size: 64,
                    tid: ThreadId(tid),
                    strand: None,
                });
            }
            if i % 2 == 0 {
                t.push(PmEvent::Fence {
                    kind: FenceKind::Sfence,
                    tid: ThreadId(tid),
                    strand: None,
                    in_epoch: false,
                });
            }
        }
        t
    }

    fn config() -> DebuggerConfig {
        DebuggerConfig::for_model(PersistencyModel::Strict)
    }

    fn sequential_reports(trace: &Trace) -> Vec<BugReport> {
        let mut det = PmDebugger::new(config());
        for (seq, event) in trace.events().iter().enumerate() {
            det.on_event(seq as u64, event);
        }
        det.finish()
    }

    #[test]
    fn retry_arithmetic_saturates_at_the_extremes() {
        // The attempt budget must not wrap.
        let sup = SupervisorConfig::default()
            .with_max_retries(u32::MAX)
            .with_sequential_fallback(true);
        assert_eq!(sup.total_attempts(), u32::MAX);
        let sup = SupervisorConfig::default().with_max_retries(u32::MAX - 1);
        assert_eq!(sup.total_attempts(), u32::MAX);
    }

    #[test]
    fn fault_free_supervised_run_is_byte_identical_to_sequential() {
        let trace = messy_trace();
        let seq = sequential_reports(&trace);
        for threads in [1usize, 2, 4, 8] {
            let result = detect_supervised(
                &config(),
                &ParallelConfig::with_threads(threads),
                &SupervisorConfig::default(),
                None,
                &trace,
            )
            .expect("fault-free run must not fail");
            assert!(!result.is_degraded());
            assert_eq!(result.retries, 0);
            assert_eq!(result.outcome.reports, seq, "threads={threads}");
        }
    }

    #[test]
    fn injected_panic_exhausting_attempts_degrades_precisely() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default()
            .with_max_retries(1)
            .with_fail_mode(FailMode::Degrade);
        // Worker 1 panics on every attempt slot (0, 1, and the fallback 2).
        let faults = FaultPlan::new(
            (0..sup.total_attempts())
                .map(|attempt| InjectedFault {
                    worker: 1,
                    attempt,
                    after_events: 3,
                    kind: FaultKind::Panic,
                })
                .collect(),
        );
        assert!(faults.dooms(1, &sup));
        assert!(!faults.dooms(0, &sup));
        let result = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(4),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect("degrade mode must complete");
        let degraded = result.degraded.as_ref().expect("must be degraded");
        assert_eq!(degraded.quarantined.len(), 1);
        let q = &degraded.quarantined[0];
        assert_eq!(q.worker, 1);
        assert_eq!(q.lost_events, result.plan.worker_loads()[1]);
        assert_eq!(q.failures.len(), sup.total_attempts() as usize);
        assert!(q.failures.last().is_some_and(|a| a.sequential));
        assert!(q
            .failures
            .iter()
            .all(|a| matches!(a.failure, ShardFailure::Panic { .. })));
        // 2 re-attempts for the one failed shard: retry 1 + fallback.
        assert_eq!(result.retries, 2);
        let expected = expected_surviving_reports(
            &sequential_reports(&trace),
            &result.plan,
            &[1],
            result.outcome.threads,
        );
        assert_eq!(result.outcome.reports, expected);
    }

    #[test]
    fn transient_panic_is_retried_to_full_results() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default().with_max_retries(2);
        // Fails attempt 0 only; retry must recover the full verdict set.
        let faults = FaultPlan::new(vec![InjectedFault {
            worker: 0,
            attempt: 0,
            after_events: 0,
            kind: FaultKind::Panic,
        }]);
        assert!(!faults.dooms(0, &sup));
        let result = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(2),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect("retry must rescue the shard");
        assert!(!result.is_degraded());
        assert_eq!(result.retries, 1);
        assert_eq!(result.outcome.reports, sequential_reports(&trace));
    }

    #[test]
    fn strict_mode_surfaces_typed_error_not_panic() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default()
            .with_max_retries(0)
            .with_sequential_fallback(false)
            .with_fail_mode(FailMode::Strict);
        let faults = FaultPlan::new(vec![InjectedFault {
            worker: 0,
            attempt: 0,
            after_events: 0,
            kind: FaultKind::Panic,
        }]);
        let err = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(2),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect_err("strict mode must fail");
        match &err {
            SupervisorError::ShardFailed {
                worker, failures, ..
            } => {
                assert_eq!(*worker, 0);
                assert_eq!(failures.len(), 1);
                assert!(matches!(failures[0].failure, ShardFailure::Panic { .. }));
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("shard 0"));
    }

    #[test]
    fn virtual_delay_trips_deadline_without_sleeping() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default()
            .with_max_retries(0)
            .with_sequential_fallback(false)
            .with_shard_deadline(Duration::from_secs(10))
            .with_fail_mode(FailMode::Degrade);
        let faults = FaultPlan::new(vec![InjectedFault {
            worker: 0,
            attempt: 0,
            after_events: 5,
            kind: FaultKind::Delay(FATAL_DELAY),
        }]);
        let started = Instant::now();
        let result = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(2),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect("degrade mode must complete");
        // The hour-long injected delay is charged virtually.
        assert!(started.elapsed() < Duration::from_secs(60));
        let degraded = result.degraded.expect("deadline breach must quarantine");
        assert_eq!(degraded.quarantined[0].worker, 0);
        assert!(matches!(
            degraded.quarantined[0].failures[0].failure,
            ShardFailure::DeadlineExceeded { .. }
        ));
    }

    #[test]
    fn alloc_pressure_trips_memory_budget() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default()
            .with_max_retries(0)
            .with_sequential_fallback(false)
            .with_max_shard_bytes(8 << 20)
            .with_fail_mode(FailMode::Degrade);
        let faults = FaultPlan::new(vec![InjectedFault {
            worker: 1,
            attempt: 0,
            after_events: 2,
            kind: FaultKind::AllocPressure(FATAL_ALLOC_BYTES),
        }]);
        let result = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(2),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect("degrade mode must complete");
        let degraded = result.degraded.expect("budget breach must quarantine");
        assert!(matches!(
            degraded.quarantined[0].failures[0].failure,
            ShardFailure::MemoryBudgetExceeded { .. }
        ));
    }

    #[test]
    fn seeded_plans_are_deterministic_and_fire_exactly_once_per_slot() {
        let a = FaultPlan::seeded(42, 8, 3);
        let b = FaultPlan::seeded(42, 8, 3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(43, 8, 3);
        assert_ne!(a, c);
        // At most one fault per (worker, attempt) slot.
        let mut seen = BTreeSet::new();
        for f in a.faults() {
            assert!(seen.insert((f.worker, f.attempt)), "duplicate slot {f:?}");
        }
    }

    #[test]
    fn all_shards_lost_still_completes_in_degrade_mode() {
        let trace = messy_trace();
        let sup = SupervisorConfig::default()
            .with_max_retries(0)
            .with_sequential_fallback(false)
            .with_fail_mode(FailMode::Degrade);
        let faults = FaultPlan::new(
            (0..2)
                .map(|worker| InjectedFault {
                    worker,
                    attempt: 0,
                    after_events: 0,
                    kind: FaultKind::Panic,
                })
                .collect(),
        );
        let result = detect_supervised(
            &config(),
            &ParallelConfig::with_threads(2),
            &sup,
            Some(&faults),
            &trace,
        )
        .expect("degrade mode must complete even with zero survivors");
        assert!(result.outcome.reports.is_empty());
        let degraded = result.degraded.expect("everything was lost");
        assert!(degraded.broadcast_reports_lost);
        assert_eq!(degraded.underreporting_rules.len(), BugKind::ALL.len());
    }
}
