//! Address sharding for parallel detection.
//!
//! PM crash-consistency state is partitionable by address: two events can
//! only interact through a detection rule when their address ranges
//! overlap, and overlapping ranges always share at least one granularity
//! block. The planner therefore computes the connected components of the
//! "shares a block" relation over every routed event range in a trace and
//! assigns whole components to shards. Routing each addressed event to its
//! component's shard — while broadcasting fences, epoch/strand markers and
//! other rangeless events to every shard — lets N independent detectors
//! reproduce the sequential analysis exactly.
//!
//! The plan exploits that a range inside one block can never *connect* two
//! blocks: only block-crossing spans (and pinned name ranges) bridge
//! components. The planner's interval map therefore tracks just those
//! bridge regions — a tiny, cache-resident structure even for
//! multi-million-event traces — and every block outside it is its own
//! singleton component, hashed into one of a fixed set of buckets.
//!
//! Building a plan takes two passes:
//!
//! 1. **Observe** — union block-crossing ranges into bridge components
//!    (a boundary check per event; the interval map is touched only by the
//!    rare crossing span).
//! 2. **Key** — label every event with its routing key (bridge component
//!    or singleton bucket, [`KEY_BROADCAST`] for rangeless events) and
//!    count events per key.
//!
//! Keys are then placed onto workers by greedy balanced assignment: keys
//! in decreasing event-count order, each to the least-loaded worker. Hot
//! regions (a hash-table bucket array, a statistics ring) therefore spread
//! across workers instead of colliding on one, and the whole assignment is
//! a pure function of the event stream — deterministic across runs.
//!
//! Order-spec rules relate *named* ranges that need not share blocks, so
//! when the caller pins named ranges, every `NameRange` component is
//! collapsed into a single component assigned to worker 0; all order-rule
//! bookkeeping then happens on one worker, exactly as in the sequential
//! run.

use std::collections::BTreeMap;

use crate::events::{Addr, PmEvent, CAS_PUBLISH_WINDOW};

/// Granularity block for shard planning, in bytes. A multiple of the cache
/// line (64 B): overlap still implies a shared block, while intra-block
/// spans — the overwhelming majority — never touch the interval map.
pub const SHARD_BLOCK: u64 = 1024;

/// Routing key of broadcast (rangeless) events in [`ShardPlan::keys`].
pub const KEY_BROADCAST: u32 = u32::MAX;

/// Buckets that singleton (un-bridged) blocks hash into. Each bucket is an
/// assignment unit, so hot single-block regions spread over workers at
/// this resolution.
const SINGLETON_BUCKETS: u32 = 256;

/// Where the pipeline must deliver one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to exactly one shard's worker.
    Shard(usize),
    /// Deliver to every worker, with the original sequence number (fences,
    /// epoch/strand markers, crash points: the paper's ordering rules must
    /// be observed by every shard at the correct stream position).
    Broadcast,
}

/// The address range an event is routed by, if any.
///
/// `RegisterPmem` intentionally has no routed range: it spans the whole pool
/// and would collapse every component into one. Detectors ignore it, so it
/// is broadcast instead. `TxLog` is also broadcast: it feeds per-thread
/// *epoch* state (transaction log lists and the fence counter's lifecycle),
/// not address-space bookkeeping, and that state must stay identical on
/// every worker.
fn routed_range(event: &PmEvent) -> Option<(Addr, u64)> {
    match event {
        PmEvent::Store { addr, size, .. } => Some((*addr, u64::from(*size))),
        PmEvent::Flush { addr, size, .. } => Some((*addr, u64::from(*size))),
        PmEvent::NameRange { addr, size, .. } => Some((*addr, u64::from(*size))),
        PmEvent::RecoveryRead { addr, size } => Some((*addr, u64::from(*size))),
        PmEvent::Cas { addr, size, .. } => Some((*addr, u64::from(*size))),
        _ => None,
    }
}

/// The secondary range a successful CAS *links* to its target: the
/// [`CAS_PUBLISH_WINDOW`] starting at the installed value. Publishing a
/// pointer makes the pointed-to lines reachable, so the cross-thread
/// persistency rules probe that window at the CAS — the worker owning the
/// CAS target must therefore also own every block a probed store could
/// route to. Failed CAS installs nothing and links nothing.
fn linked_range(event: &PmEvent) -> Option<(Addr, u64)> {
    match event {
        PmEvent::Cas {
            new, success: true, ..
        } => Some((*new, CAS_PUBLISH_WINDOW)),
        _ => None,
    }
}

/// Inclusive first and exclusive last block index covered by `[addr,
/// addr+size)`. Zero-sized ranges still pin the block of `addr` so routing
/// stays total.
fn block_span(addr: Addr, size: u64) -> (u64, u64) {
    let lo = addr / SHARD_BLOCK;
    let hi = addr.saturating_add(size.max(1) - 1) / SHARD_BLOCK;
    (lo, hi + 1)
}

/// 64-bit finalizer (splitmix64): decorrelates block indices from bucket
/// indices so singleton blocks spread evenly over buckets.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    /// Exclusive end block.
    end: u64,
    /// Component id (index into the union-find forest).
    comp: u32,
}

/// Observe-pass builder: bridge segments plus their component structure.
#[derive(Debug)]
struct Planner {
    /// Disjoint block intervals, keyed by start block. Segments only grow:
    /// inserting a range that intersects existing segments unions their
    /// components and coalesces them into one spanning segment. Blocks in
    /// the coalesced gaps were never observed, so over-covering them is
    /// harmless — only observed ranges are ever looked up.
    segments: BTreeMap<u64, Segment>,
    /// Union-find parents over component ids.
    parent: Vec<u32>,
    /// Collapse all `NameRange` components into one (order-spec pinning).
    pin_named: bool,
    /// The pinned order component, once a `NameRange` has been seen.
    order_comp: Option<u32>,
    /// Last block interval known to be covered by a single segment. Since
    /// segments only ever merge, a covered interval stays covered (in one
    /// component) forever, so this memo never invalidates; it turns the
    /// hot repeated-address case into two compares with no map access.
    memo: Option<(u64, u64)>,
}

impl Planner {
    fn new(pin_named: bool) -> Self {
        Planner {
            segments: BTreeMap::new(),
            parent: Vec::new(),
            pin_named,
            order_comp: None,
            memo: None,
        }
    }

    fn find(&mut self, mut c: u32) -> u32 {
        while self.parent[c as usize] != c {
            let grand = self.parent[self.parent[c as usize] as usize];
            self.parent[c as usize] = grand;
            c = grand;
        }
        c
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic orientation: smaller root wins, so component
            // roots depend only on the event stream, never on timing.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
            lo
        } else {
            ra
        }
    }

    /// Merges the block range `[lo, hi)` into the component structure and
    /// returns the range's component.
    fn insert(&mut self, lo: u64, hi: u64) -> u32 {
        let mut span_lo = lo;
        let mut span_hi = hi;
        let mut comps: Vec<u32> = Vec::new();
        let mut doomed: Vec<u64> = Vec::new();

        // All existing segments intersecting [lo, hi): the first candidate
        // is the rightmost segment starting at or before `lo`.
        let start = self
            .segments
            .range(..=lo)
            .next_back()
            .map(|(s, _)| *s)
            .unwrap_or(lo);
        for (s, seg) in self.segments.range(start..hi) {
            if seg.end <= lo {
                continue; // the rightmost-before segment may end before us
            }
            span_lo = span_lo.min(*s);
            span_hi = span_hi.max(seg.end);
            comps.push(seg.comp);
            doomed.push(*s);
        }
        let comp = match comps.split_first() {
            None => {
                let id = self.parent.len() as u32;
                self.parent.push(id);
                id
            }
            Some((&first, rest)) => {
                let mut root = self.find(first);
                for &c in rest {
                    root = self.union(root, c);
                }
                root
            }
        };
        for s in doomed {
            self.segments.remove(&s);
        }
        self.segments
            .insert(span_lo, Segment { end: span_hi, comp });
        self.memo = Some((span_lo, span_hi));
        comp
    }

    fn observe(&mut self, event: &PmEvent) {
        let Some((addr, size)) = routed_range(event) else {
            return;
        };
        if let Some((link_addr, link_size)) = linked_range(event) {
            self.observe_link(addr, size, link_addr, link_size);
        } else {
            self.observe_range(addr, size, matches!(event, PmEvent::NameRange { .. }));
        }
    }

    /// Unions the span of a CAS target with the span of its publish window
    /// so both land in one component (hence on one worker). Unlike
    /// [`Planner::observe_range`], intra-block spans are *not* skipped:
    /// the link itself is the bridge, even when each side sits inside a
    /// single block.
    fn observe_link(&mut self, addr: Addr, size: u64, link_addr: Addr, link_size: u64) {
        let (a_lo, a_hi) = block_span(addr, size);
        let (b_lo, b_hi) = block_span(link_addr, link_size);
        let target = self.insert(a_lo, a_hi);
        let window = self.insert(b_lo, b_hi);
        self.union(target, window);
    }

    fn observe_range(&mut self, addr: Addr, size: u64, named: bool) {
        let (lo, hi) = block_span(addr, size);
        let is_named = self.pin_named && named;
        // Intra-block ranges bridge nothing: the block is either already
        // inside a bridge region (same component either way) or it is its
        // own singleton component, resolved by hashing at key time. Only
        // block-crossing spans and pinned name ranges enter the map.
        if hi - lo == 1 && !is_named {
            return;
        }
        if !is_named {
            // Fast paths: a span already covered by one segment is a
            // structural no-op (its blocks share that segment's component),
            // and only `NameRange` pinning ever needs the component id.
            if let Some((mlo, mhi)) = self.memo {
                if mlo <= lo && hi <= mhi {
                    return;
                }
            }
            if let Some((&s, seg)) = self.segments.range(..=lo).next_back() {
                if hi <= seg.end {
                    self.memo = Some((s, seg.end));
                    return;
                }
            }
        }
        let comp = self.insert(lo, hi);
        if is_named {
            let root = match self.order_comp {
                None => self.find(comp),
                Some(oc) => self.union(oc, comp),
            };
            self.order_comp = Some(root);
        }
    }
}

/// A finalized shard assignment for one trace.
///
/// Build with [`ShardPlan::build`] over the exact event stream that will
/// be detected. The plan records one routing key per event ([`keys`]) and
/// a key→worker table ([`key_workers`]), so a worker decides "mine or
/// not" with two array reads per event; [`ShardPlan::route`] offers the
/// same classification for a single event. Blocks inside a bridge region
/// route to their component's worker; every other block is a singleton
/// component, hashed into a bucket, so routing is total over all
/// addresses.
///
/// [`keys`]: ShardPlan::keys
/// [`key_workers`]: ShardPlan::key_workers
///
/// # Example
///
/// ```
/// use pm_trace::{PmEvent, Route, ShardPlan, ThreadId, Trace};
///
/// let mut trace = Trace::new();
/// trace.push(PmEvent::Store { addr: 0, size: 8, tid: ThreadId(0), strand: None, in_epoch: false });
/// // This store crosses the 1 KiB block boundary, bridging blocks 0 and 1.
/// trace.push(PmEvent::Store { addr: 1020, size: 8, tid: ThreadId(0), strand: None, in_epoch: false });
/// let plan = ShardPlan::build(trace.events(), 4, false);
/// assert!(matches!(plan.route(&trace.events()[0]), Route::Shard(_)));
/// assert_eq!(plan.component_count(), 1);
/// assert_eq!(plan.shard_of_addr(0), plan.shard_of_addr(1024));
/// ```
#[derive(Clone)]
pub struct ShardPlan {
    /// Disjoint bridged block intervals `(start block, exclusive end
    /// block, component key)`, sorted by start for binary-search lookup.
    segments: Vec<(u64, u64, u32)>,
    /// Worker per key: `[0, components)` are bridge components,
    /// `[components, components + SINGLETON_BUCKETS)` singleton buckets.
    key_workers: Vec<u32>,
    /// Routing key per event of the build stream (`KEY_BROADCAST` for
    /// rangeless events).
    keys: Vec<u32>,
    shards: usize,
    components: usize,
    routed: u64,
    broadcast: u64,
    /// Routed events owned by each worker (length `shards`). Broadcast
    /// events are not counted — every worker observes those. This is the
    /// quarantine ledger: when a supervisor gives up on a shard, the
    /// worker's load here is exactly the number of stream events whose
    /// verdicts are lost with it.
    worker_loads: Vec<u64>,
}

impl std::fmt::Debug for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlan")
            .field("shards", &self.shards)
            .field("components", &self.components)
            .field("segments", &self.segments.len())
            .field("events", &self.keys.len())
            .field("routed", &self.routed)
            .field("broadcast", &self.broadcast)
            .field("worker_loads", &self.worker_loads)
            .finish()
    }
}

/// The observe-phase product: frozen bridge segments plus the key space,
/// ready to label events. Splitting the build here lets callers run the
/// (embarrassingly parallel) key pass over event chunks on several
/// threads — keying is a pure per-event function once the segments are
/// frozen, so chunking never changes the result.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    /// Flattened bridge segments `(start block, exclusive end block,
    /// component key)`, sorted by start.
    segments: Vec<(u64, u64, u32)>,
    components: usize,
    order_key: Option<u32>,
    shards: usize,
}

/// Per-chunk output of [`PlanBuilder::key_chunk`].
#[derive(Debug, Clone, Default)]
pub struct KeyedChunk {
    /// Routing key per event of the chunk (`KEY_BROADCAST` for rangeless).
    pub keys: Vec<u32>,
    /// Events per key over the chunk (length [`PlanBuilder::key_count`]).
    pub counts: Vec<u64>,
    /// Events routed to exactly one worker.
    pub routed: u64,
    /// Events broadcast to all workers.
    pub broadcast: u64,
}

impl PlanBuilder {
    /// Pass 1: union block-crossing ranges into bridge components over the
    /// full stream, then freeze them.
    ///
    /// `pin_named` must be `true` when an order spec is active: all
    /// `NameRange` components collapse into one component on worker 0 so
    /// order rules are evaluated by a single worker.
    pub fn observe(events: &[PmEvent], shards: usize, pin_named: bool) -> PlanBuilder {
        let mut planner = Planner::new(pin_named);
        for event in events {
            planner.observe(event);
        }
        PlanBuilder::freeze(planner, shards)
    }

    fn freeze(mut planner: Planner, shards: usize) -> PlanBuilder {
        let shards = shards.max(1);
        // Compact component roots to dense key indices and flatten the
        // segment map for binary search.
        let order_root = planner.order_comp.map(|c| planner.find(c));
        let mut key_of_root: BTreeMap<u32, u32> = BTreeMap::new();
        let flat: Vec<(u64, u64, u32)> = planner
            .segments
            .iter()
            .map(|(&start, seg)| (start, seg.end, seg.comp))
            .collect();
        let mut segments = Vec::with_capacity(flat.len());
        for (start, end, comp) in flat {
            let root = planner.find(comp);
            let next = key_of_root.len() as u32;
            let key = *key_of_root.entry(root).or_insert(next);
            segments.push((start, end, key));
        }
        let components = key_of_root.len();
        let order_key = order_root.map(|r| key_of_root[&r]);
        PlanBuilder {
            segments,
            components,
            order_key,
            shards,
        }
    }

    /// Size of the key space: bridge components then singleton buckets.
    pub fn key_count(&self) -> usize {
        self.components + SINGLETON_BUCKETS as usize
    }

    /// Pass 2, per chunk: label every event with its routing key and count
    /// events per key. Pure — chunks may be keyed concurrently and in any
    /// order; concatenating the outputs in stream order reproduces the
    /// single-pass result exactly.
    pub fn key_chunk(&self, events: &[PmEvent]) -> KeyedChunk {
        let mut out = KeyedChunk {
            keys: Vec::with_capacity(events.len()),
            counts: vec![0u64; self.key_count()],
            routed: 0,
            broadcast: 0,
        };
        // Memoized (start, end, key) of the last resolved block range.
        let (mut m_start, mut m_end, mut m_key) = (0u64, 0u64, 0u32);
        for event in events {
            let Some((addr, _)) = routed_range(event) else {
                out.broadcast += 1;
                out.keys.push(KEY_BROADCAST);
                continue;
            };
            out.routed += 1;
            let block = addr / SHARD_BLOCK;
            if !(m_start <= block && block < m_end) {
                (m_start, m_end, m_key) = match ShardPlan::segment_covering(&self.segments, block) {
                    Some(seg) => seg,
                    None => (
                        block,
                        block + 1,
                        self.components as u32 + (mix(block) % u64::from(SINGLETON_BUCKETS)) as u32,
                    ),
                };
            }
            out.counts[m_key as usize] += 1;
            out.keys.push(m_key);
        }
        out
    }

    /// Pass 3: place keys onto workers and finalize the plan. `chunks`
    /// must be the keyed chunks of the build stream, in stream order.
    ///
    /// Assignment is greedy balanced: heaviest key first, each to the
    /// least-loaded worker (ties break low). Purely count-driven, so the
    /// placement is a deterministic function of the event stream — hot
    /// regions (a bucket array, a statistics ring) spread across workers
    /// instead of colliding on one the way a bare hash can.
    pub fn finish(self, chunks: Vec<KeyedChunk>) -> ShardPlan {
        let key_count = self.key_count();
        let mut keys = Vec::with_capacity(chunks.iter().map(|c| c.keys.len()).sum());
        let mut counts = vec![0u64; key_count];
        let mut routed = 0u64;
        let mut broadcast = 0u64;
        for mut chunk in chunks {
            keys.append(&mut chunk.keys);
            for (total, part) in counts.iter_mut().zip(&chunk.counts) {
                *total += part;
            }
            routed += chunk.routed;
            broadcast += chunk.broadcast;
        }

        let mut key_workers = vec![0u32; key_count];
        let mut load = vec![0u64; self.shards];
        if let Some(ok) = self.order_key {
            key_workers[ok as usize] = 0;
            load[0] += counts[ok as usize];
        }
        let mut order: Vec<u32> = (0..key_count as u32).collect();
        order.sort_by_key(|&k| (std::cmp::Reverse(counts[k as usize]), k));
        for k in order {
            if Some(k) == self.order_key {
                continue;
            }
            let worker = load
                .iter()
                .enumerate()
                .min_by_key(|&(w, &l)| (l, w))
                .map(|(w, _)| w)
                .unwrap_or(0);
            key_workers[k as usize] = worker as u32;
            load[worker] += counts[k as usize];
        }

        ShardPlan {
            segments: self.segments,
            key_workers,
            keys,
            shards: self.shards,
            components: self.components,
            routed,
            broadcast,
            worker_loads: load,
        }
    }
}

impl ShardPlan {
    /// Builds a plan over `events` for `shards` workers, single-threaded.
    ///
    /// Equivalent to [`PlanBuilder::observe`] + one [`PlanBuilder::key_chunk`]
    /// over the whole stream + [`PlanBuilder::finish`]; parallel callers run
    /// the key pass chunked across threads instead.
    pub fn build(events: &[PmEvent], shards: usize, pin_named: bool) -> ShardPlan {
        let builder = PlanBuilder::observe(events, shards, pin_named);
        let chunk = builder.key_chunk(events);
        builder.finish(vec![chunk])
    }

    /// Number of shards the plan routes to.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of *bridged* components — block groups connected by
    /// block-crossing spans (or pinned name ranges). Blocks outside these
    /// groups are their own singleton components and are not counted here.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Routing key per event of the build stream: an index into
    /// [`ShardPlan::key_workers`], or [`KEY_BROADCAST`] for rangeless
    /// events. Workers scan this in lockstep with the event slice.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Worker index per routing key (balanced assignment).
    pub fn key_workers(&self) -> &[u32] {
        &self.key_workers
    }

    /// Events routed to exactly one worker in the build stream.
    pub fn routed_events(&self) -> u64 {
        self.routed
    }

    /// Events broadcast to all workers in the build stream.
    pub fn broadcast_events(&self) -> u64 {
        self.broadcast
    }

    /// Routed events owned by each worker, in worker order (length
    /// [`ShardPlan::shard_count`]). Sums to [`ShardPlan::routed_events`].
    /// Supervised pipelines use this as quarantine metadata: losing worker
    /// `w` loses exactly `worker_loads()[w]` events' worth of verdicts.
    pub fn worker_loads(&self) -> &[u64] {
        &self.worker_loads
    }

    /// The bridge segment covering `block`, if any.
    fn segment_covering(segments: &[(u64, u64, u32)], block: u64) -> Option<(u64, u64, u32)> {
        let idx = segments.partition_point(|&(start, _, _)| start <= block);
        let seg = segments.get(idx.checked_sub(1)?)?;
        (block < seg.1).then_some(*seg)
    }

    /// Key of a singleton (un-bridged) block.
    fn singleton_key(&self, block: u64) -> u32 {
        self.components as u32 + (mix(block) % u64::from(SINGLETON_BUCKETS)) as u32
    }

    /// Worker owning the block of `addr`. Total: bridged blocks map to
    /// their component's worker, all others through their hash bucket.
    pub fn shard_of_addr(&self, addr: Addr) -> usize {
        let block = addr / SHARD_BLOCK;
        let key = match Self::segment_covering(&self.segments, block) {
            Some((_, _, key)) => key,
            None => self.singleton_key(block),
        };
        self.key_workers[key as usize] as usize
    }

    /// Classifies one event of the planned stream.
    ///
    /// Addressed events (stores, flushes, name bindings, recovery reads)
    /// route to their component's worker; everything else — including
    /// tx-log appends, which feed per-thread epoch state — broadcasts.
    /// Routing is total: even an address never observed at build time maps
    /// deterministically (it can only be a singleton block, which hashes
    /// into a bucket).
    pub fn route(&self, event: &PmEvent) -> Route {
        match routed_range(event) {
            Some((addr, _)) => Route::Shard(self.shard_of_addr(addr)),
            None => Route::Broadcast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{FenceKind, StrandId, ThreadId};
    use pmem_sim::FlushKind;

    fn store(addr: Addr, size: u32) -> PmEvent {
        PmEvent::Store {
            addr,
            size,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    fn flush(addr: Addr, size: u32) -> PmEvent {
        PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr,
            size,
            tid: ThreadId(0),
            strand: None,
        }
    }

    fn cas(addr: Addr, new: u64, success: bool) -> PmEvent {
        PmEvent::Cas {
            addr,
            size: 8,
            tid: ThreadId(0),
            old: 0,
            new,
            success,
        }
    }

    const B: u64 = SHARD_BLOCK;

    #[test]
    fn successful_cas_links_target_and_publish_window() {
        // Target (block 0) and published node (block 40) sit in different
        // blocks; the successful CAS must pull them into one component so
        // the cross-thread probe at the CAS sees the node's stores.
        let events = vec![store(0, 8), store(40 * B, 8), cas(0, 40 * B, true)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.shard_of_addr(0), plan.shard_of_addr(40 * B));
        assert_eq!(
            plan.route(&events[2]),
            Route::Shard(plan.shard_of_addr(40 * B))
        );
    }

    #[test]
    fn failed_cas_routes_but_does_not_link() {
        // A failed CAS installs nothing: it routes by its target block like
        // a store, and must not bridge the target with the would-be value.
        let events = vec![store(0, 8), store(40 * B, 8), cas(0, 40 * B, false)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 0);
        assert_eq!(plan.route(&events[2]), Route::Shard(plan.shard_of_addr(0)));
    }

    #[test]
    fn cas_publish_window_spanning_blocks_links_all_of_them() {
        // A publish window straddling a block boundary bridges both blocks
        // with the target: a store overlapping the window from the earlier
        // block must land on the CAS target's worker.
        let new = 7 * B - 32; // window [7B-32, 7B+32) covers blocks 6 and 7
        let events = vec![cas(2 * B, new, true), store(new, 8), store(7 * B, 8)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.shard_of_addr(2 * B), plan.shard_of_addr(new));
        assert_eq!(plan.shard_of_addr(2 * B), plan.shard_of_addr(7 * B));
    }

    #[test]
    fn intra_block_events_bridge_nothing() {
        // Three stores in three distinct blocks: no bridges, each block is
        // a singleton component hashed into a bucket.
        let events = vec![store(0, 8), store(B, 8), store(4 * B, 8)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 0);
        // Same block always resolves to the same worker.
        assert_eq!(plan.shard_of_addr(0), plan.shard_of_addr(8));
        assert_eq!(plan.shard_of_addr(B), plan.shard_of_addr(B + 900));
    }

    #[test]
    fn overlapping_ranges_share_a_component() {
        // A store crossing the block boundary connects blocks 0 and 1.
        let events = vec![store(B - 4, 8), store(0, 8), store(B, 8)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.shard_of_addr(0), plan.shard_of_addr(B));
    }

    #[test]
    fn flush_connects_covered_blocks() {
        // Stores to blocks 0 and 1 are unrelated until a flush covers both.
        let stores = vec![store(0, 8), store(B, 8)];
        assert_eq!(ShardPlan::build(&stores, 8, false).component_count(), 0);
        let mut with_flush = stores.clone();
        with_flush.push(flush(0, 2 * B as u32));
        let plan = ShardPlan::build(&with_flush, 8, false);
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.shard_of_addr(0), plan.shard_of_addr(B));
    }

    #[test]
    fn transitive_connectivity_via_late_range() {
        // [0,1) and [5,6) are separate; a later [0,6) joins them.
        let events = vec![store(0, 8), store(5 * B, 8), store(0, 6 * B as u32)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.shard_of_addr(5 * B), plan.shard_of_addr(0));
        // The gap block was covered by the joining range, so it resolves too.
        assert_eq!(plan.shard_of_addr(2 * B), plan.shard_of_addr(0));
    }

    #[test]
    fn register_pmem_does_not_collapse_components() {
        let events = vec![
            PmEvent::RegisterPmem {
                base: 0,
                size: 1 << 20,
            },
            store(0, 8),
            store(4 * B, 8),
        ];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(
            plan.component_count(),
            0,
            "whole-pool event must not bridge"
        );
        assert_eq!(plan.route(&events[0]), Route::Broadcast);
    }

    #[test]
    fn rangeless_events_broadcast() {
        let plan = ShardPlan::build(&[], 4, false);
        for event in [
            PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: false,
            },
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::EpochEnd { tid: ThreadId(0) },
            PmEvent::StrandBegin {
                strand: StrandId(0),
                tid: ThreadId(0),
            },
            PmEvent::JoinStrand { tid: ThreadId(0) },
            PmEvent::Crash,
            PmEvent::FuncEnter {
                name: "f".into(),
                tid: ThreadId(0),
            },
        ] {
            assert_eq!(plan.route(&event), Route::Broadcast);
        }
    }

    #[test]
    fn named_ranges_pin_to_shard_zero() {
        let events = vec![
            PmEvent::NameRange {
                name: "A".into(),
                addr: 0,
                size: 8,
            },
            PmEvent::NameRange {
                name: "B".into(),
                addr: 1 << 16,
                size: 8,
            },
            store(0, 8),
            store(1 << 16, 8),
        ];
        let plan = ShardPlan::build(&events, 8, true);
        assert_eq!(plan.shard_of_addr(0), 0);
        assert_eq!(plan.shard_of_addr(1 << 16), 0);
        // Without pinning the intra-block names bridge nothing and may land
        // on any worker.
        let unpinned = ShardPlan::build(&events, 8, false);
        assert_eq!(unpinned.component_count(), 0);
    }

    #[test]
    fn routing_is_total_over_observed_events() {
        let events = vec![
            store(B + 100, 8),
            flush(B, 64),
            PmEvent::RecoveryRead {
                addr: B + 100,
                size: 8,
            },
        ];
        let plan = ShardPlan::build(&events, 4, false);
        let shards: Vec<Route> = events.iter().map(|e| plan.route(e)).collect();
        // All three share block 1, hence one worker.
        assert!(shards.iter().all(|r| *r == shards[0]));
    }

    #[test]
    fn tx_log_broadcasts() {
        // TxLog feeds per-thread epoch state, which every worker mirrors.
        let event = PmEvent::TxLog {
            obj_addr: 100,
            size: 8,
            tid: ThreadId(0),
        };
        let plan = ShardPlan::build(std::slice::from_ref(&event), 4, false);
        assert_eq!(plan.route(&event), Route::Broadcast);
        assert_eq!(plan.keys(), &[KEY_BROADCAST]);
    }

    #[test]
    fn unobserved_address_routes_deterministically() {
        // Addresses never seen at build time still route: they can only be
        // singleton blocks, which hash into an assigned bucket. Routing is
        // stable across calls and across identically-built plans.
        let events = vec![store(0, 8)];
        let plan = ShardPlan::build(&events, 4, false);
        let again = ShardPlan::build(&events, 4, false);
        let probe = store(1 << 30, 8);
        assert_eq!(plan.route(&probe), again.route(&probe));
        assert_eq!(plan.route(&probe), plan.route(&probe));
    }

    #[test]
    fn zero_sized_range_routes_by_block() {
        let events = vec![store(2 * B, 0), store(2 * B + 10, 8)];
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.shard_of_addr(2 * B), plan.shard_of_addr(2 * B + 10));
    }

    #[test]
    fn keys_agree_with_route() {
        let events: Vec<PmEvent> = (0..400)
            .map(|i| {
                if i % 7 == 0 {
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    }
                } else {
                    store((i * 37) % 1024 * 128, if i % 5 == 0 { 2048 } else { 8 })
                }
            })
            .collect();
        let plan = ShardPlan::build(&events, 8, false);
        assert_eq!(plan.keys().len(), events.len());
        let table = plan.key_workers();
        for (event, &key) in events.iter().zip(plan.keys()) {
            let via_keys = if key == KEY_BROADCAST {
                Route::Broadcast
            } else {
                Route::Shard(table[key as usize] as usize)
            };
            assert_eq!(via_keys, plan.route(event));
        }
        assert_eq!(
            plan.routed_events() + plan.broadcast_events(),
            events.len() as u64
        );
    }

    #[test]
    fn hot_regions_spread_over_workers() {
        // Eight hot single-block regions with many events each, plus a
        // spread of cold blocks: greedy assignment must not pile the hot
        // regions onto few workers the way a bare hash can.
        let mut events = Vec::new();
        for round in 0..200u64 {
            for hot in 0..8u64 {
                events.push(store(hot * 16 * B, 8));
            }
            events.push(store((1000 + round) * B, 8));
        }
        let plan = ShardPlan::build(&events, 4, false);
        let mut per_worker = vec![0u64; 4];
        for event in &events {
            if let Route::Shard(w) = plan.route(event) {
                per_worker[w] += 1;
            }
        }
        let max = *per_worker.iter().max().unwrap();
        let min = *per_worker.iter().min().unwrap();
        assert!(max <= min * 2, "hot regions unbalanced: {per_worker:?}");
    }

    #[test]
    fn chunked_key_pass_matches_single_pass() {
        let events: Vec<PmEvent> = (0..500)
            .map(|i| {
                if i % 11 == 0 {
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    }
                } else {
                    store((i * 53) % 2048 * 96, if i % 6 == 0 { 3000 } else { 16 })
                }
            })
            .collect();
        let single = ShardPlan::build(&events, 4, false);
        for parts in [2usize, 3, 7] {
            let builder = PlanBuilder::observe(&events, 4, false);
            let size = events.len().div_ceil(parts);
            let chunks: Vec<KeyedChunk> =
                events.chunks(size).map(|c| builder.key_chunk(c)).collect();
            let chunked = builder.finish(chunks);
            assert_eq!(chunked.keys(), single.keys(), "split into {parts}");
            assert_eq!(chunked.key_workers(), single.key_workers());
            assert_eq!(chunked.routed_events(), single.routed_events());
            assert_eq!(chunked.broadcast_events(), single.broadcast_events());
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let events: Vec<PmEvent> = (0..200).map(|i| store((i * 37) % 1024 * 128, 16)).collect();
        let a = ShardPlan::build(&events, 8, false);
        let b = ShardPlan::build(&events, 8, false);
        for e in &events {
            assert_eq!(a.route(e), b.route(e));
        }
        assert_eq!(a.keys(), b.keys());
        assert_eq!(a.key_workers(), b.key_workers());
    }

    #[test]
    fn worker_loads_account_for_every_routed_event() {
        let events: Vec<PmEvent> = (0..300)
            .map(|i| {
                if i % 9 == 0 {
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    }
                } else {
                    store((i * 53) % 512 * 160, 16)
                }
            })
            .collect();
        let plan = ShardPlan::build(&events, 4, false);
        assert_eq!(plan.worker_loads().len(), plan.shard_count());
        assert_eq!(
            plan.worker_loads().iter().sum::<u64>(),
            plan.routed_events()
        );
        // Cross-check the ledger against an explicit per-event routing walk:
        // every routed event must be billed to the worker its key maps to.
        let mut walked = vec![0u64; plan.shard_count()];
        for &key in plan.keys() {
            if key != KEY_BROADCAST {
                walked[plan.key_workers()[key as usize] as usize] += 1;
            }
        }
        assert_eq!(plan.worker_loads(), &walked[..]);
    }
}
