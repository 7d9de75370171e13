//! PMDebugger: fast, flexible, and comprehensive crash-consistency bug
//! detection for persistent-memory programs.
//!
//! This crate is the paper's primary contribution (Di, Liu, Chen & Li,
//! ASPLOS 2021), rebuilt in Rust over the `pm-trace` instrumentation
//! substrate. Its design is driven by three characterization patterns (§3):
//!
//! 1. **Most stores are persisted by the nearest fence** — so per-store
//!    records usually die young, and tree-based bookkeeping cannot amortize
//!    its reorganization cost. PMDebugger therefore stages records in a
//!    flat [`array::MemLocArray`] and migrates only the survivors into an
//!    [`avl::AvlTree`] at fences.
//! 2. **Locations updated in a CLF interval are usually persisted together
//!    by one CLF** — so the [`interval::IntervalList`] metadata tracks the
//!    collective flush state of whole intervals, turning most CLF and fence
//!    processing into O(1) metadata flips.
//! 3. **Stores dominate the instruction mix** — so the store path is a pure
//!    O(1) append.
//!
//! On top of this bookkeeping, [`PmDebugger`] implements ten detection
//! rules covering strict, epoch and strand persistency (§4.5, §5.2), plus a
//! [`debugger::CustomRule`] hook for user-defined rules.
//!
//! # Quick start
//!
//! ```
//! use pm_trace::{PmRuntime, BugKind};
//! use pmdebugger::PmDebugger;
//!
//! # fn main() -> Result<(), pm_trace::RuntimeError> {
//! let mut rt = PmRuntime::with_pool(4096)?;
//! rt.attach(Box::new(PmDebugger::strict()));
//!
//! rt.store(0, &42u64.to_le_bytes())?;
//! rt.clwb(0)?;
//! // forgot the fence!
//!
//! let reports = rt.finish();
//! assert_eq!(reports[0].kind, BugKind::NoDurabilityGuarantee);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod avl;
pub mod ckpt;
pub mod config;
pub mod cover;
pub mod debugger;
pub mod govern;
pub mod interval;
pub mod order;
pub mod parallel;
pub mod rules;
pub mod session;
pub mod space;
pub mod stats;
pub mod supervisor;

pub use array::{FlushState, LocEntry, MemLocArray};
pub use avl::{AvlTree, TreeOpStats, TreeRecord};
pub use ckpt::{decode_reports, encode_reports, CheckpointDecodeError, CHECKPOINT_VERSION};
pub use config::{
    DebuggerConfig, PersistencyModel, RuleSet, DEFAULT_ARRAY_CAPACITY, DEFAULT_MERGE_THRESHOLD,
};
pub use cover::RangeCover;
pub use debugger::{CustomRule, PmDebugger, SpaceView};
pub use govern::{
    AdmitError, GovernorConfig, GovernorCounters, MemGovernor, MemPressure, SessionGrant,
};
pub use interval::{IntervalList, IntervalMeta, IntervalState};
pub use order::{CrossThreadTracker, OrderTracker};
pub use parallel::{
    detect_parallel, detect_parallel_from, ParallelConfig, ParallelOutcome, MAX_THREADS,
};
pub use rules::{CasContentionRule, EpochSizeRule, FailureWindowRule, FlushAmplificationRule};
pub use session::{DetectSession, SessionCheckpoint};
pub use space::{BookkeepingSpace, FenceOutcome, FlushOutcome, Residual, SpaceStats, StoreOutcome};
pub use stats::DebuggerStats;
pub use supervisor::{
    detect_supervised, detect_supervised_from, expected_surviving_reports, panic_message,
    AttemptFailure, DegradedReport, FailMode, FaultKind, FaultPlan, InjectedFault,
    QuarantinedShard, ShardFailure, SupervisedOutcome, SupervisorConfig, SupervisorError,
    BENIGN_ALLOC_BYTES, FATAL_ALLOC_BYTES, FATAL_DELAY,
};
