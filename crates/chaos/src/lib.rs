//! Seeded chaos sweeps for the PMDebugger reproduction.
//!
//! The paper validates detectors against *known* bug injections (§7.4);
//! this crate turns the question around and stress-tests both the
//! detectors and the recovery story of every workload. Eight seeded sweeps
//! share one runner ([`sweep`]): each expands a seed into plans, runs
//! them, and checks oracles, and every violation names
//! `{sweep, seed, plan_index}` so [`replay_plan`] reruns exactly the plan
//! that failed. A wall clock that runs out yields a partial report with an
//! explicit [`Truncation`], never a panic; a panicking plan is an abort.
//!
//! - [`scheduler`] (`crash-points`) replays a [`pm_trace::Trace`] into a
//!   simulated [`pmem_sim::PmPool`], crashes at every fence/flush/store
//!   boundary (a deterministic seeded sample of at most 256 on long
//!   traces; the `untested` tally counts the boundaries left out),
//!   enumerates the post-crash images the hardware could produce, and
//!   runs per-model recovery validators over each image; the detector
//!   differential over the whole trace rides along.
//! - [`perturb`] mutates a clean trace one event at a time — dropped or
//!   duplicated flushes and fences, reordered flush/fence pairs, torn
//!   stores, swapped epoch markers — and tallies, per fault class, which
//!   of PMDebugger and the pmemcheck/PMTest/XFDetector baselines catch
//!   each injection that changes what is durable.
//! - [`corrupt`] tortures the ingestion layer: deterministic bit-flips,
//!   truncations, splices and garbage prefixes over a trace's v2 binary
//!   image; the salvage reader must never panic, must terminate in budget,
//!   and must recover every frame preceding the first corrupted byte
//!   (with a sampled detector differential over the prefix).
//! - [`supervise`] tortures the detection engine: seeded
//!   [`pmdebugger::FaultPlan`]s inject panics, delays and alloc pressure
//!   into the supervised parallel pipeline's workers; zero aborts,
//!   byte-identical verdicts from fault-free shards, and precisely named
//!   casualties.
//! - [`serve_sweep`] tortures a live `pmdbg serve` with hostile clients:
//!   truncations, bit flips, disconnects, slow-loris, injected session
//!   panics and budget overruns; survivors byte-identical to batch, exact
//!   lost-frame accounting.
//! - [`thread_crash`] crashes *thread subsets* of interleaved lock-free
//!   traces and asserts all four detection engines agree byte-for-byte on
//!   the surviving stream.
//! - [`daemon_crash`] kills the serving daemon mid-stream — in-process
//!   hard stops over a fault-injecting journal filesystem ([`FaultFs`]) or
//!   a real `kill -9` — restarts it over the same journal, and asserts
//!   zero verdict loss, zero duplication and byte-identical recovery.
//! - [`mem_pressure`] starves a governed daemon of memory (whale sessions,
//!   spill storms, failing allocators, under-estimate global budgets) and
//!   asserts zero verdict divergence and exact spill/rehydrate/reject
//!   accounting.

pub mod corrupt;
pub mod daemon_crash;
pub mod error;
pub mod mem_pressure;
pub mod perturb;
pub mod replay;
pub mod scheduler;
pub mod serve_sweep;
pub mod supervise;
pub mod sweep;
pub mod thread_crash;
pub mod validate;

pub use corrupt::{CorruptPlan, CorruptSweep, CorruptionClass};
pub use daemon_crash::{
    crash_plan_for, CrashPlan, DaemonCrashSweep, DaemonPlan, FaultFs, FaultSpec,
};
pub use error::ChaosError;
pub use mem_pressure::{mem_plan_for, MemPlan, MemPressurePlan, MemPressureSweep};
pub use perturb::{apply, perturbations, FaultClass, PerturbSweep, Perturbation, DETECTORS};
pub use replay::ReplayContext;
pub use scheduler::{CrashPoint, CrashPointSweep};
pub use serve_sweep::{plan_for, ServePlan, ServeSweep, SessionPlan};
pub use supervise::{SupervisePlan, SuperviseSweep};
pub use sweep::{
    replay_plan, run_sweep, Sweep, SweepOptions, SweepReport, SweepViolation, Tallies, Truncation,
};
pub use thread_crash::{crash_threads, ThreadCrashPlan, ThreadCrashSweep};
pub use validate::{
    semantic_fingerprint, EpochCommitValidator, Fingerprint, RecoveryValidator,
    StrictOverwriteValidator, TxLogValidator, ValidatorSet, Violation,
};
