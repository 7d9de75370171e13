//! Trace-to-pool replay with address-line compaction.
//!
//! Workload traces address a 4 GiB pool but touch only a few hundred
//! distinct cache lines. Allocating the full address space per campaign
//! would be absurd, so the replayer compacts: every distinct line the trace
//! stores to or flushes is assigned a slot in a dense simulated pool, and
//! all replay, crash-image capture and validator byte comparison happen in
//! that compact space. The [`ReplayContext`] keeps the mapping so findings
//! are reported against original workload addresses.

use std::collections::HashMap;

use pm_trace::{splitmix64, PmEvent};
use pmem_sim::{line_base, lines_covering, PmPool, CACHE_LINE_SIZE};

use crate::error::ChaosError;

/// One per-line piece of an original address range in the compact pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Start of the piece in the compact pool.
    pub mapped_addr: u64,
    /// Start of the piece in the original address space.
    pub orig_addr: u64,
    /// Piece length (never crosses a cache line).
    pub len: u64,
}

/// Line-compaction map: original line base ⇄ compact line base.
#[derive(Debug, Clone, Default)]
pub struct LineMap {
    forward: HashMap<u64, u64>,
    origins: Vec<u64>,
}

impl LineMap {
    fn build(events: &[PmEvent], cap: usize) -> Result<LineMap, ChaosError> {
        let mut map = LineMap::default();
        for event in events {
            let (addr, size) = match event {
                PmEvent::Store { addr, size, .. } | PmEvent::Flush { addr, size, .. } => {
                    (*addr, u64::from(*size))
                }
                _ => continue,
            };
            for line in lines_covering(addr, size.max(1) as usize) {
                if map.forward.contains_key(&line) {
                    continue;
                }
                if map.origins.len() >= cap {
                    return Err(ChaosError::PoolExhausted {
                        lines: map.origins.len() + 1,
                        cap,
                    });
                }
                let mapped = map.origins.len() as u64 * CACHE_LINE_SIZE;
                map.forward.insert(line, mapped);
                map.origins.push(line);
            }
        }
        Ok(map)
    }

    /// Number of distinct lines mapped.
    pub fn lines(&self) -> usize {
        self.origins.len()
    }

    /// Compact base of an original line, if the trace ever touched it.
    pub fn mapped_line(&self, orig_line: u64) -> Option<u64> {
        self.forward.get(&line_base(orig_line)).copied()
    }

    /// Original line base behind a compact line base.
    pub fn origin_of(&self, mapped_line: u64) -> u64 {
        self.origins
            .get((mapped_line / CACHE_LINE_SIZE) as usize)
            .copied()
            .unwrap_or(mapped_line)
    }

    /// Splits `[addr, addr+size)` (original space) into compact-space
    /// per-line segments. Lines the trace never touched are skipped.
    pub fn segments(&self, addr: u64, size: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        if size == 0 {
            return out;
        }
        for line in lines_covering(addr, size as usize) {
            let Some(mapped) = self.forward.get(&line) else {
                continue;
            };
            let start = addr.max(line);
            let end = (addr + size).min(line + CACHE_LINE_SIZE);
            out.push(Segment {
                mapped_addr: mapped + (start - line),
                orig_addr: start,
                len: end - start,
            });
        }
        out
    }
}

/// Replay state: the compact pool plus the address mapping, handed to
/// recovery validators as their read-only view of the simulated machine.
#[derive(Debug, Clone)]
pub struct ReplayContext {
    pool: PmPool,
    map: LineMap,
}

impl ReplayContext {
    /// Builds the context for (a prefix of) a trace, in a compact pool of
    /// at most `max_pool_lines` cache lines.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] for an empty event slice and
    /// [`ChaosError::PoolExhausted`] when the trace touches more than
    /// `max_pool_lines` distinct lines.
    pub fn new(events: &[PmEvent], max_pool_lines: usize) -> Result<ReplayContext, ChaosError> {
        if events.is_empty() {
            return Err(ChaosError::EmptyTrace);
        }
        let map = LineMap::build(events, max_pool_lines)?;
        // Traces with no store/flush still need a nonzero pool to crash into.
        let size = (map.lines().max(1) as u64) * CACHE_LINE_SIZE;
        let pool = PmPool::new(size)?;
        Ok(ReplayContext { pool, map })
    }

    /// The compact pool at the current replay position.
    pub fn pool(&self) -> &PmPool {
        &self.pool
    }

    /// The line-compaction map.
    pub fn map(&self) -> &LineMap {
        &self.map
    }

    /// Applies one event. Non-memory events (epoch/strand markers,
    /// annotations) are no-ops at the pool level; validators see them via
    /// their own `on_event`.
    pub fn apply(&mut self, seq: u64, event: &PmEvent) {
        match event {
            PmEvent::Store { addr, size, .. } => {
                for segment in self.map.segments(*addr, u64::from(*size)) {
                    let bytes = fill_pattern(seq, segment.orig_addr, segment.len as usize);
                    // Mapped segments are in bounds by construction; a failed
                    // store would be a mapping bug, not a trace property.
                    let _ = self.pool.store(segment.mapped_addr, &bytes);
                }
            }
            PmEvent::Flush {
                kind, addr, size, ..
            } => {
                for segment in self.map.segments(*addr, u64::from(*size)) {
                    let _ = self.pool.flush(*kind, segment.mapped_addr);
                }
            }
            PmEvent::Fence { .. } | PmEvent::JoinStrand { .. } => {
                self.pool.sfence();
            }
            _ => {}
        }
    }

    /// Current volatile bytes of `[addr, addr+size)` in original space,
    /// assembled from mapped segments (unmapped gaps read as zero).
    pub fn read_volatile(&self, addr: u64, size: u64) -> Vec<u8> {
        let mut out = vec![0u8; size as usize];
        for segment in self.map.segments(addr, size) {
            let offset = (segment.orig_addr - addr) as usize;
            if let Ok(bytes) = self.pool.load(segment.mapped_addr, segment.len as usize) {
                out[offset..offset + bytes.len()].copy_from_slice(bytes);
            }
        }
        out
    }
}

/// Deterministic non-zero fill for a store event: validators compare crash
/// images against volatile state byte-for-byte, so distinct stores must
/// write distinct, reproducible bytes.
pub(crate) fn fill_pattern(seq: u64, addr: u64, len: usize) -> Vec<u8> {
    let mut state = seq.wrapping_mul(0x9e37).wrapping_add(addr >> 3);
    let word = splitmix64(&mut state).to_le_bytes();
    (0..len)
        .map(|i| {
            let b = word[i % 8] ^ (i / 8) as u8;
            if b == 0 {
                0xA5
            } else {
                b
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_trace::{PmRuntime, Trace};
    use pmem_sim::FlushKind;

    fn tiny_trace() -> Trace {
        let mut rt = PmRuntime::trace_only();
        rt.record();
        rt.store_untyped(1 << 30, 8);
        rt.flush_range(FlushKind::Clwb, 1 << 30, 8).unwrap();
        rt.sfence();
        rt.store_untyped((1 << 30) + 4096, 16);
        rt.try_take_trace().unwrap()
    }

    #[test]
    fn compaction_maps_distant_lines_into_a_tiny_pool() {
        let trace = tiny_trace();
        let ctx = ReplayContext::new(trace.events(), 1 << 16).unwrap();
        assert_eq!(ctx.map().lines(), 2);
        assert_eq!(ctx.pool().size(), 128);
    }

    #[test]
    fn replay_reaches_the_persistent_image() {
        let trace = tiny_trace();
        let mut ctx = ReplayContext::new(trace.events(), 1 << 16).unwrap();
        for (seq, event) in trace.events().iter().enumerate() {
            ctx.apply(seq as u64, event);
        }
        // First store was flushed + fenced: durable, non-zero.
        let mapped = ctx.map().mapped_line(1 << 30).unwrap();
        assert!(ctx
            .pool()
            .load_persistent(mapped, 8)
            .unwrap()
            .iter()
            .any(|b| *b != 0));
        // Second store is dirty only.
        let mapped2 = ctx.map().mapped_line((1 << 30) + 4096).unwrap();
        assert!(ctx
            .pool()
            .load_persistent(mapped2, 8)
            .unwrap()
            .iter()
            .all(|b| *b == 0));
        assert_eq!(ctx.pool().dirty_lines(), vec![mapped2]);
    }

    #[test]
    fn read_volatile_reassembles_original_ranges() {
        let trace = tiny_trace();
        let mut ctx = ReplayContext::new(trace.events(), 1 << 16).unwrap();
        for (seq, event) in trace.events().iter().enumerate() {
            ctx.apply(seq as u64, event);
        }
        let bytes = ctx.read_volatile(1 << 30, 8);
        assert_eq!(bytes, fill_pattern(0, 1 << 30, 8));
    }

    #[test]
    fn pool_cap_is_a_typed_error() {
        let trace = tiny_trace();
        match ReplayContext::new(trace.events(), 1) {
            Err(ChaosError::PoolExhausted { cap: 1, .. }) => {}
            other => panic!("expected PoolExhausted, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        assert!(matches!(
            ReplayContext::new(&[], 1 << 16),
            Err(ChaosError::EmptyTrace)
        ));
    }

    #[test]
    fn fill_pattern_is_nonzero_and_seq_sensitive() {
        let a = fill_pattern(1, 64, 16);
        let b = fill_pattern(2, 64, 16);
        assert!(a.iter().all(|x| *x != 0));
        assert_ne!(a, b);
        assert_eq!(a, fill_pattern(1, 64, 16));
    }
}
