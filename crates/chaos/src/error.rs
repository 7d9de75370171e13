//! Typed errors for the torture-campaign machinery.
//!
//! Sweep setup never panics on adversarial input: oversized address
//! spaces and empty inputs surface here, and a wall clock that runs out
//! inside an otherwise healthy sweep is reported as a
//! [`crate::Truncation`] on a partial result rather than an error.

use std::fmt;

use pm_trace::RuntimeError;
use pmem_sim::PmemError;

/// Error cases a sweep's setup can hit.
#[derive(Debug)]
pub enum ChaosError {
    /// The workload run that should have produced the trace failed.
    Runtime(RuntimeError),
    /// The simulated pool rejected an operation during replay.
    Pmem(PmemError),
    /// The input trace has no events to crash into.
    EmptyTrace,
    /// The trace touches more distinct cache lines than the replay pool's
    /// cap allows even after line compaction.
    PoolExhausted {
        /// Distinct cache lines the trace touches.
        lines: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Runtime(e) => write!(f, "workload run failed: {e}"),
            ChaosError::Pmem(e) => write!(f, "pool operation failed during replay: {e}"),
            ChaosError::EmptyTrace => write!(f, "trace has no events to crash into"),
            ChaosError::PoolExhausted { lines, cap } => write!(
                f,
                "trace touches {lines} cache lines, above the pool cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for ChaosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChaosError::Runtime(e) => Some(e),
            ChaosError::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for ChaosError {
    fn from(e: RuntimeError) -> Self {
        ChaosError::Runtime(e)
    }
}

impl From<PmemError> for ChaosError {
    fn from(e: PmemError) -> Self {
        ChaosError::Pmem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ChaosError::PoolExhausted {
            lines: 70000,
            cap: 65536,
        };
        assert!(e.to_string().contains("70000"));
        assert!(e.to_string().contains("65536"));
        assert!(ChaosError::EmptyTrace.to_string().contains("no events"));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e = ChaosError::Pmem(PmemError::InvalidPoolSize(0));
        assert!(e.source().is_some());
        assert!(ChaosError::EmptyTrace.source().is_none());
    }
}
