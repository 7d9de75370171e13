//! Scaling regressions: per-event detection cost must not grow with the
//! amount of live state.
//!
//! - Cross-thread tracker: one fence interval holding N flushed stores
//!   must cost about the same per event at 1k and at 64k stores. A
//!   tracker that walks every pending store on each flush makes the
//!   interval quadratic (the 64k run then costs ~64x per event).
//! - Fence drain: with N deferred records live in the AVL tree, a fence
//!   that persists one of them must cost about the same at N = 32 and
//!   N = 480. A drain that rebuilds the whole tree makes every fence O(N).

use std::time::Instant;

use pm_trace::{BugKind, FenceKind, PmEvent, ThreadId};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};
use pmem_sim::FlushKind;

const TID: ThreadId = ThreadId(0);
const LINE: u64 = 64;

/// `stores` 8-byte stores to distinct lines, each flushed, then one fence
/// and one CAS publishing the first line.
fn one_fence_interval(stores: u64) -> Vec<PmEvent> {
    let mut events = Vec::with_capacity(2 * stores as usize + 2);
    for i in 0..stores {
        let addr = 0x10_0000 + i * LINE;
        events.push(PmEvent::Store {
            addr,
            size: 8,
            tid: TID,
            strand: None,
            in_epoch: false,
        });
        events.push(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr,
            size: LINE as u32,
            tid: TID,
            strand: None,
        });
    }
    events.push(PmEvent::Fence {
        kind: FenceKind::Sfence,
        tid: TID,
        strand: None,
        in_epoch: false,
    });
    events.push(PmEvent::Cas {
        addr: 0x8,
        size: 8,
        tid: TID,
        old: 0,
        new: 0x10_0000,
        success: true,
    });
    events
}

/// `live` deferred stores fenced into the tree, then `ops` rounds of: store
/// a new line, flush the oldest live line, fence. The fence persists one
/// tree record and migrates the new store, so `live` records stay in the
/// tree, under the 500-node merge threshold.
fn deferred_fences(live: u64, ops: u64) -> Vec<PmEvent> {
    let line = |i: u64| 0x10_0000 + i * LINE;
    let store = |addr| PmEvent::Store {
        addr,
        size: 8,
        tid: TID,
        strand: None,
        in_epoch: false,
    };
    let fence = PmEvent::Fence {
        kind: FenceKind::Sfence,
        tid: TID,
        strand: None,
        in_epoch: false,
    };
    let mut events: Vec<PmEvent> = (0..live).map(|i| store(line(i))).collect();
    events.push(fence.clone());
    for i in 0..ops {
        events.push(store(line(live + i)));
        events.push(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: line(i),
            size: LINE as u32,
            tid: TID,
            strand: None,
        });
        events.push(fence.clone());
    }
    events
}

/// Best-of-3 detection time per event, in nanoseconds.
fn ns_per_event(events: &[PmEvent]) -> f64 {
    (0..3)
        .map(|_| {
            let mut det = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Strict));
            let start = Instant::now();
            let reports = det.detect_stream(events.iter());
            let elapsed = start.elapsed();
            assert!(
                !reports.iter().any(|r| matches!(
                    r.kind,
                    BugKind::PublishedUnflushed | BugKind::UnpublishedVisible
                )),
                "every store was fenced before the publish"
            );
            elapsed.as_nanos() as f64 / events.len() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn fence_interval_cost_is_flat_from_1k_to_64k_stores() {
    let small = ns_per_event(&one_fence_interval(1 << 10));
    let large = ns_per_event(&one_fence_interval(1 << 16));
    assert!(
        large <= 8.0 * small,
        "64k-store interval costs {large:.0} ns/event, 1k-store interval \
         {small:.0} ns/event: {:.1}x, at most 8x allowed",
        large / small
    );
}

#[test]
fn fence_cost_is_flat_from_32_to_480_live_tree_records() {
    let small = ns_per_event(&deferred_fences(32, 20_000));
    let large = ns_per_event(&deferred_fences(480, 20_000));
    assert!(
        large <= 4.0 * small,
        "480 live records cost {large:.0} ns/event, 32 live records \
         {small:.0} ns/event: {:.1}x, at most 4x allowed",
        large / small
    );
}
