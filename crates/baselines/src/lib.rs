//! Comparator detectors for the PMDebugger evaluation.
//!
//! The paper compares PMDebugger against three tools. Those tools are C/C++
//! binaries bound to Valgrind, PIN or source annotations; what the
//! comparison actually contrasts is their *detection architectures*. This
//! crate re-implements each architecture over the same
//! [`pm_trace::PmEventRef`] stream that PMDebugger consumes:
//!
//! * [`PmemcheckLike`] — industry-quality Valgrind tool architecture:
//!   a single global tree tracks every store individually, every CLF
//!   searches the tree, every fence sweeps it, and the tree is reorganized
//!   (merged) eagerly. Detects four bug types (Table 6).
//! * [`PmtestLike`] — annotation-driven assertion checking: fast because it
//!   tracks minimal state and only checks where the programmer asserted
//!   something; coverage is bounded by the annotations. Five bug types.
//! * [`XfdetectorLike`] — cross-failure testing: at every failure point
//!   (fence) it simulates a post-failure examination of all tracked state,
//!   which is what makes the real tool orders of magnitude slower. Six bug
//!   types, including cross-failure semantic bugs.
//! * Nulgrind — instrumentation with no bookkeeping — is
//!   [`pm_trace::NopDetector`], re-exported here for discoverability.
//!
//! All three comparators are honest detectors (they really find the bugs
//! Table 6 credits them with) and honest cost models (their per-event work
//! matches the architecture being modelled).

pub mod pmemcheck;
pub mod pmtest;
pub mod xfdetector;

pub use pm_trace::NopDetector as Nulgrind;
pub use pmemcheck::PmemcheckLike;
pub use pmtest::PmtestLike;
pub use xfdetector::XfdetectorLike;
