//! Trace recording, replay and multi-thread interleaving.

use crate::detector::{BugReport, Detector};
use crate::events::{PmEvent, ThreadId};

/// A recorded sequence of [`PmEvent`]s.
///
/// Traces decouple workload execution from detector evaluation: benchmarks
/// record a workload once and replay the identical stream through every
/// detector, mirroring how the paper runs each tool over the same program.
///
/// # Example
///
/// ```
/// use pm_trace::{replay_finish, CountingDetector, PmRuntime};
///
/// # fn main() -> Result<(), pm_trace::RuntimeError> {
/// let mut rt = PmRuntime::trace_only();
/// rt.record();
/// rt.store_untyped(0, 8);
/// rt.clwb(0)?;
/// rt.sfence();
/// let trace = rt.take_trace().expect("recording enabled");
///
/// let mut counter = CountingDetector::default();
/// replay_finish(&trace, &mut counter);
/// assert_eq!((counter.stores, counter.flushes, counter.fences), (1, 1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<PmEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: PmEvent) {
        self.events.push(event);
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[PmEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Computes summary statistics (instruction mix).
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for event in &self.events {
            match event {
                PmEvent::Store { .. } => stats.stores += 1,
                PmEvent::Flush { .. } => stats.flushes += 1,
                PmEvent::Fence { .. } => stats.fences += 1,
                _ => stats.other += 1,
            }
        }
        stats
    }

    /// Per-kind event counts keyed by [`PmEvent::kind_name`] — the same
    /// keys a run manifest's `event_kinds` field uses, so a replayed
    /// trace's composition can be checked against a recorded manifest.
    pub fn kind_counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for event in &self.events {
            *counts.entry(event.kind_name()).or_default() += 1;
        }
        counts
    }
}

impl FromIterator<PmEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = PmEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<PmEvent> for Trace {
    fn extend<I: IntoIterator<Item = PmEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = PmEvent;
    type IntoIter = std::vec::IntoIter<PmEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

/// Instruction-mix counters for a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Store events.
    pub stores: u64,
    /// Flush events.
    pub flushes: u64,
    /// Fence events.
    pub fences: u64,
    /// All other events (markers, annotations, registrations).
    pub other: u64,
}

impl TraceStats {
    /// Total of the three fundamental instruction classes.
    pub fn fundamental_total(&self) -> u64 {
        self.stores + self.flushes + self.fences
    }
}

/// Feeds an event iterator through a detector without running its final
/// checks — the streaming entry point: detectors consume events as they
/// are produced (e.g. by the salvage reader in [`crate::ingest`]) without
/// requiring the whole trace in memory first.
pub fn replay_events<'a, D, I>(events: I, detector: &mut D)
where
    D: Detector + ?Sized,
    I: IntoIterator<Item = &'a PmEvent>,
{
    for (seq, event) in events.into_iter().enumerate() {
        detector.on_event(seq as u64, &event.as_ref());
    }
}

/// Feeds an event iterator through a detector and returns its reports
/// (including end-of-program checks).
pub fn replay_finish_events<'a, D, I>(events: I, detector: &mut D) -> Vec<BugReport>
where
    D: Detector + ?Sized,
    I: IntoIterator<Item = &'a PmEvent>,
{
    replay_events(events, detector);
    detector.finish()
}

/// Replays a trace through a detector without running its final checks.
pub fn replay<D: Detector + ?Sized>(trace: &Trace, detector: &mut D) {
    replay_events(trace.events(), detector);
}

/// Replays a trace through a detector and returns its reports (including
/// end-of-program checks).
pub fn replay_finish<D: Detector + ?Sized>(trace: &Trace, detector: &mut D) -> Vec<BugReport> {
    replay(trace, detector);
    detector.finish()
}

/// Interleaves per-thread traces round-robin in chunks of `quantum` events,
/// re-stamping each event with its source thread id.
///
/// This models a multi-threaded program's interleaved instruction stream
/// (used by the Figure 10 scalability experiment) while keeping workload
/// generation deterministic and single-threaded.
pub fn interleave_round_robin(per_thread: Vec<Trace>, quantum: usize) -> Trace {
    assert!(quantum > 0, "quantum must be positive");
    let mut sources: Vec<(ThreadId, std::vec::IntoIter<PmEvent>)> = per_thread
        .into_iter()
        .enumerate()
        .map(|(i, t)| (ThreadId(i as u32), t.into_iter()))
        .collect();
    let mut merged = Trace::new();
    let mut any = true;
    while any {
        any = false;
        for (tid, source) in &mut sources {
            for _ in 0..quantum {
                match source.next() {
                    Some(mut event) => {
                        restamp(&mut event, *tid);
                        merged.push(event);
                        any = true;
                    }
                    None => break,
                }
            }
        }
    }
    merged
}

/// Interleaves per-thread traces under a seeded schedule, re-stamping each
/// event with its source thread id.
///
/// Unlike the fixed rotation of [`interleave_round_robin`], each step picks
/// the next runnable thread and a quantum in `1..=max_quantum` from a
/// splitmix64 stream seeded by `seed`, producing genuinely irregular —
/// but fully reproducible — multi-thread event streams. Per-thread event
/// order is always preserved, so a workload that is crash-consistent
/// thread-locally stays bug-free under every seed.
pub fn interleave_seeded(per_thread: Vec<Trace>, seed: u64, max_quantum: usize) -> Trace {
    assert!(max_quantum > 0, "max_quantum must be positive");
    let mut sources: Vec<(ThreadId, std::vec::IntoIter<PmEvent>)> = per_thread
        .into_iter()
        .enumerate()
        .map(|(i, t)| (ThreadId(i as u32), t.into_iter()))
        .collect();
    let mut merged = Trace::new();
    let mut state = seed;
    let mut live: Vec<usize> = (0..sources.len()).collect();
    while !live.is_empty() {
        let pick = (splitmix64(&mut state) as usize) % live.len();
        let slot = live[pick];
        let quantum = (splitmix64(&mut state) as usize) % max_quantum + 1;
        let (tid, source) = &mut sources[slot];
        let mut exhausted = false;
        for _ in 0..quantum {
            match source.next() {
                Some(mut event) => {
                    restamp(&mut event, *tid);
                    merged.push(event);
                }
                None => {
                    exhausted = true;
                    break;
                }
            }
        }
        if exhausted {
            live.swap_remove(pick);
        }
    }
    merged
}

/// One splitmix64 step: advances `state` and returns the next output.
/// The workspace's one deterministic generator — seeded interleavings
/// here, fault plans in the supervisor, and every chaos sweep's plans.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn restamp(event: &mut PmEvent, new_tid: ThreadId) {
    match event {
        PmEvent::Store { tid, .. }
        | PmEvent::Flush { tid, .. }
        | PmEvent::Fence { tid, .. }
        | PmEvent::EpochBegin { tid }
        | PmEvent::EpochEnd { tid }
        | PmEvent::StrandBegin { tid, .. }
        | PmEvent::StrandEnd { tid, .. }
        | PmEvent::JoinStrand { tid }
        | PmEvent::TxLog { tid, .. }
        | PmEvent::FuncEnter { tid, .. }
        | PmEvent::Cas { tid, .. } => *tid = new_tid,
        PmEvent::RegisterPmem { .. }
        | PmEvent::Annotation(_)
        | PmEvent::NameRange { .. }
        | PmEvent::Crash
        | PmEvent::RecoveryRead { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::CountingDetector;
    use crate::events::FenceKind;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = 7;
        let mut b = 7;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b).wrapping_add(1));
    }

    fn store(addr: u64) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn fence() -> PmEvent {
        PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    #[test]
    fn stats_count_classes() {
        let trace: Trace = vec![store(0), store(8), fence()].into_iter().collect();
        let stats = trace.stats();
        assert_eq!(stats.stores, 2);
        assert_eq!(stats.fences, 1);
        assert_eq!(stats.flushes, 0);
        assert_eq!(stats.fundamental_total(), 3);
    }

    #[test]
    fn kind_counts_match_manifest_keys() {
        let trace: Trace = vec![store(0), store(8), fence(), PmEvent::Crash]
            .into_iter()
            .collect();
        let counts = trace.kind_counts();
        assert_eq!(counts["store"], 2);
        assert_eq!(counts["fence"], 1);
        assert_eq!(counts["crash"], 1);
        assert_eq!(counts.values().sum::<u64>(), trace.len() as u64);
    }

    #[test]
    fn replay_visits_every_event_in_order() {
        let trace: Trace = vec![store(0), fence(), store(8)].into_iter().collect();
        let mut det = CountingDetector::default();
        let reports = replay_finish(&trace, &mut det);
        assert!(reports.is_empty());
        assert_eq!(det.stores, 2);
        assert_eq!(det.fences, 1);
    }

    #[test]
    fn interleave_restamps_thread_ids() {
        let t0: Trace = vec![store(0), store(8)].into_iter().collect();
        let t1: Trace = vec![store(64), store(72)].into_iter().collect();
        let merged = interleave_round_robin(vec![t0, t1], 1);
        let tids: Vec<u32> = merged.events().iter().map(|e| e.tid().unwrap().0).collect();
        assert_eq!(tids, vec![0, 1, 0, 1]);
    }

    #[test]
    fn interleave_preserves_per_thread_order() {
        let t0: Trace = vec![store(0), store(8), store(16)].into_iter().collect();
        let t1: Trace = vec![store(64)].into_iter().collect();
        let merged = interleave_round_robin(vec![t0, t1], 2);
        let addrs: Vec<u64> = merged
            .events()
            .iter()
            .map(|e| e.range().unwrap().0)
            .collect();
        assert_eq!(addrs, vec![0, 8, 64, 16]);
    }

    #[test]
    fn interleave_handles_unbalanced_sources() {
        let t0: Trace = (0..5).map(|i| store(i * 8)).collect();
        let t1 = Trace::new();
        let merged = interleave_round_robin(vec![t0, t1], 2);
        assert_eq!(merged.len(), 5);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        interleave_round_robin(vec![Trace::new()], 0);
    }

    #[test]
    fn seeded_interleave_is_deterministic_and_order_preserving() {
        let t0: Trace = (0..13).map(|i| store(i * 8)).collect();
        let t1: Trace = (0..7).map(|i| store(1024 + i * 8)).collect();
        let a = interleave_seeded(vec![t0.clone(), t1.clone()], 42, 3);
        let b = interleave_seeded(vec![t0.clone(), t1.clone()], 42, 3);
        assert_eq!(a, b, "same seed, same schedule");
        let c = interleave_seeded(vec![t0.clone(), t1.clone()], 43, 3);
        assert_ne!(a, c, "different seed, different schedule");
        assert_eq!(a.len(), t0.len() + t1.len());
        // Per-thread order survives the interleave.
        for (src, tid) in [(&t0, 0u32), (&t1, 1u32)] {
            let replayed: Vec<&PmEvent> = a
                .events()
                .iter()
                .filter(|e| e.tid() == Some(ThreadId(tid)))
                .collect();
            let addrs: Vec<u64> = replayed.iter().map(|e| e.range().unwrap().0).collect();
            let expect: Vec<u64> = src.events().iter().map(|e| e.range().unwrap().0).collect();
            assert_eq!(addrs, expect);
        }
    }

    #[test]
    fn seeded_interleave_restamps_cas_tid() {
        let t1: Trace = vec![PmEvent::Cas {
            addr: 0,
            size: 8,
            tid: ThreadId(0),
            old: 0,
            new: 64,
            success: true,
        }]
        .into_iter()
        .collect();
        let merged = interleave_seeded(vec![Trace::new(), t1], 7, 2);
        assert_eq!(merged.events()[0].tid(), Some(ThreadId(1)));
    }

    #[test]
    fn trace_collects_and_extends() {
        let mut trace: Trace = vec![store(0)].into_iter().collect();
        trace.extend(vec![fence()]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }
}
