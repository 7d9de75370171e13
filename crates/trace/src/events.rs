//! The persistent-memory event model.
//!
//! One [`PmEvent`] corresponds to one intercepted instruction or annotation
//! in the original Valgrind-based tool: memory stores to registered PM,
//! cache-line flushes, fences, epoch/strand region markers, undo-log appends
//! and PMTest-style assertions.

use crate::annotations::Annotation;
use pmem_sim::FlushKind;

/// A persistent-memory address (byte offset into the registered PM space).
pub type Addr = u64;

/// Bytes of persistent state a successful [`PmEvent::Cas`] is assumed to
/// make reachable starting at the value it installed — one cache line,
/// the node-header granularity of the lock-free PM structures that publish
/// pointers by CAS. The cross-thread persistency rules probe this window,
/// and the shard planner links it to the CAS target so both land on the
/// same worker.
pub const CAS_PUBLISH_WINDOW: u64 = 64;

/// Identifier of the thread that issued an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u32);

/// Identifier of a strand (strand persistency model, paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StrandId(pub u32);

/// Kind of ordering fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// x86 `SFENCE` — orders and completes prior flushes.
    Sfence,
    /// A persist barrier inside a strand (strand persistency model).
    PersistBarrier,
}

/// One intercepted persistent-memory operation.
///
/// Addresses and sizes describe *persistent* locations only; the runtime
/// filters accesses outside registered PM regions, exactly as the paper's
/// tool only tracks locations registered via `Register_pmem`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmEvent {
    /// Registration of a persistent region for debugging (Table 2,
    /// `Register_pmem`).
    RegisterPmem {
        /// Base address of the region.
        base: Addr,
        /// Region length in bytes.
        size: u64,
    },
    /// A store to persistent memory.
    Store {
        /// First byte written.
        addr: Addr,
        /// Number of bytes written.
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the store belongs to, when inside a strand section.
        strand: Option<StrandId>,
        /// Whether the store was issued inside an epoch section.
        in_epoch: bool,
    },
    /// A cache-line flush (CLWB / CLFLUSH / CLFLUSHOPT).
    Flush {
        /// Flush instruction variant.
        kind: FlushKind,
        /// Base address of the flushed cache line.
        addr: Addr,
        /// Flushed length (one cache line unless a range helper was used).
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the flush belongs to, when inside a strand section.
        strand: Option<StrandId>,
    },
    /// A fence.
    Fence {
        /// Fence variant.
        kind: FenceKind,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the fence belongs to, when inside a strand section.
        strand: Option<StrandId>,
        /// Whether the fence was issued inside an epoch section.
        in_epoch: bool,
    },
    /// Beginning of an (outermost) epoch section (`TX_BEGIN`).
    EpochBegin {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// End of an (outermost) epoch section (`TX_END`).
    EpochEnd {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// Beginning of a strand section.
    StrandBegin {
        /// The strand being started.
        strand: StrandId,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// End of a strand section.
    StrandEnd {
        /// The strand being ended.
        strand: StrandId,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// Explicit cross-strand ordering point (`JoinStrand`).
    JoinStrand {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// An undo-log append inside a transaction (`TX_ADD` / `pmemobj_tx_add_range`).
    ///
    /// The paper's redundant-logging rule treats the *logged object address*
    /// as the stored-to address and reuses the multiple-overwrites machinery.
    TxLog {
        /// Address of the data object being logged.
        obj_addr: Addr,
        /// Size of the logged range.
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// Entry into an application function named in an [`crate::OrderSpec`]
    /// (the paper instruments such functions and registers a callback).
    FuncEnter {
        /// Function name as used in the order-spec configuration.
        name: String,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// A PMTest-style in-program assertion (consumed by the PMTest baseline,
    /// ignored by PMDebugger).
    Annotation(Annotation),
    /// A named-variable registration mapping an order-spec variable to an
    /// address range (the paper maps variables "based on symbol tables or by
    /// intercepting dynamic memory allocations").
    NameRange {
        /// Variable name as used in the order-spec configuration.
        name: String,
        /// Base address of the variable.
        addr: Addr,
        /// Variable size in bytes.
        size: u32,
    },
    /// A simulated failure point: execution crashes here and recovery code
    /// runs next (cross-failure methodology; the paper manually invokes the
    /// recovery program because Valgrind cannot pause/resume threads, §7.3).
    Crash,
    /// A read performed by post-failure recovery code. Reading data whose
    /// durability was not guaranteed at the crash is a cross-failure
    /// semantic bug.
    RecoveryRead {
        /// First byte read.
        addr: Addr,
        /// Number of bytes read.
        size: u32,
    },
    /// A compare-and-swap on persistent memory — the publication point of
    /// lock-free PM structures (Treiber stack, Michael-Scott queue). A
    /// *successful* CAS both writes its target word and makes the value it
    /// installed (typically a node pointer) visible to every other thread,
    /// so cross-thread persistency rules anchor on it.
    Cas {
        /// First byte of the CAS target word.
        addr: Addr,
        /// Width of the target word in bytes (8 for a pointer CAS).
        size: u32,
        /// Thread that issued (and on success, published via) the CAS.
        tid: ThreadId,
        /// Expected value compared against the target.
        old: u64,
        /// Value installed on success (for pointer CAS, the published
        /// node's address).
        new: u64,
        /// Whether the CAS succeeded; a failed CAS writes nothing and
        /// publishes nothing.
        success: bool,
    },
}

impl PmEvent {
    /// Returns `true` for the three fundamental instruction events the
    /// paper's characterization counts (store, CLF, fence).
    pub fn is_fundamental(&self) -> bool {
        matches!(
            self,
            PmEvent::Store { .. } | PmEvent::Flush { .. } | PmEvent::Fence { .. }
        )
    }

    /// The issuing thread, when the event has one.
    pub fn tid(&self) -> Option<ThreadId> {
        match self {
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
            | PmEvent::Cas { tid, .. } => Some(*tid),
            PmEvent::RegisterPmem { .. }
            | PmEvent::Annotation(_)
            | PmEvent::NameRange { .. }
            | PmEvent::Crash
            | PmEvent::RecoveryRead { .. } => None,
        }
    }

    /// Stable lowercase names for every event kind, indexed by
    /// [`kind_index`](Self::kind_index). These are the `events.<kind>`
    /// metric suffixes and the `event_kinds` keys in run manifests.
    pub const KIND_NAMES: [&'static str; 16] = [
        "register_pmem",
        "store",
        "flush",
        "fence",
        "epoch_begin",
        "epoch_end",
        "strand_begin",
        "strand_end",
        "join_strand",
        "tx_log",
        "func_enter",
        "annotation",
        "name_range",
        "crash",
        "recovery_read",
        "cas",
    ];

    /// Dense index of the event's kind into [`Self::KIND_NAMES`] — lets
    /// per-kind bookkeeping use a flat array instead of a map.
    #[inline]
    pub fn kind_index(&self) -> usize {
        self.as_ref().kind_index()
    }

    /// Stable lowercase kind name (see [`Self::KIND_NAMES`]).
    pub fn kind_name(&self) -> &'static str {
        Self::KIND_NAMES[self.kind_index()]
    }

    /// The address range `[addr, addr + size)` the event touches, if any.
    #[inline]
    pub fn range(&self) -> Option<(Addr, u64)> {
        self.as_ref().range()
    }
}

/// A borrowed view of one intercepted persistent-memory operation.
///
/// Mirrors [`PmEvent`] variant-for-variant, but the two string-carrying
/// variants ([`PmEventRef::FuncEnter`] and [`PmEventRef::NameRange`])
/// borrow their names from the underlying trace bytes instead of owning
/// them. This is the event type of the zero-copy ingestion hot path
/// ([`crate::zerocopy`]): decoding a frame into a `PmEventRef` allocates
/// nothing, so a detector that consumes borrowed events touches the heap
/// only when it must retain a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmEventRef<'a> {
    /// See [`PmEvent::RegisterPmem`].
    RegisterPmem {
        /// Base address of the region.
        base: Addr,
        /// Region length in bytes.
        size: u64,
    },
    /// See [`PmEvent::Store`].
    Store {
        /// First byte written.
        addr: Addr,
        /// Number of bytes written.
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the store belongs to, when inside a strand section.
        strand: Option<StrandId>,
        /// Whether the store was issued inside an epoch section.
        in_epoch: bool,
    },
    /// See [`PmEvent::Flush`].
    Flush {
        /// Flush instruction variant.
        kind: FlushKind,
        /// Base address of the flushed cache line.
        addr: Addr,
        /// Flushed length.
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the flush belongs to, when inside a strand section.
        strand: Option<StrandId>,
    },
    /// See [`PmEvent::Fence`].
    Fence {
        /// Fence variant.
        kind: FenceKind,
        /// Issuing thread.
        tid: ThreadId,
        /// Strand the fence belongs to, when inside a strand section.
        strand: Option<StrandId>,
        /// Whether the fence was issued inside an epoch section.
        in_epoch: bool,
    },
    /// See [`PmEvent::EpochBegin`].
    EpochBegin {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::EpochEnd`].
    EpochEnd {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::StrandBegin`].
    StrandBegin {
        /// The strand being started.
        strand: StrandId,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::StrandEnd`].
    StrandEnd {
        /// The strand being ended.
        strand: StrandId,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::JoinStrand`].
    JoinStrand {
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::TxLog`].
    TxLog {
        /// Address of the data object being logged.
        obj_addr: Addr,
        /// Size of the logged range.
        size: u32,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::FuncEnter`]; the name borrows from the trace bytes.
    FuncEnter {
        /// Function name as used in the order-spec configuration.
        name: &'a str,
        /// Issuing thread.
        tid: ThreadId,
    },
    /// See [`PmEvent::Annotation`]. [`Annotation`] is all-numeric, so it is
    /// carried by value.
    Annotation(Annotation),
    /// See [`PmEvent::NameRange`]; the name borrows from the trace bytes.
    NameRange {
        /// Variable name as used in the order-spec configuration.
        name: &'a str,
        /// Base address of the variable.
        addr: Addr,
        /// Variable size in bytes.
        size: u32,
    },
    /// See [`PmEvent::Crash`].
    Crash,
    /// See [`PmEvent::RecoveryRead`].
    RecoveryRead {
        /// First byte read.
        addr: Addr,
        /// Number of bytes read.
        size: u32,
    },
    /// See [`PmEvent::Cas`]. All-numeric, carried by value.
    Cas {
        /// First byte of the CAS target word.
        addr: Addr,
        /// Width of the target word in bytes.
        size: u32,
        /// Thread that issued the CAS.
        tid: ThreadId,
        /// Expected value compared against the target.
        old: u64,
        /// Value installed on success.
        new: u64,
        /// Whether the CAS succeeded.
        success: bool,
    },
}

impl<'a> PmEventRef<'a> {
    /// Materializes an owned [`PmEvent`], copying any borrowed name.
    #[inline]
    pub fn to_owned(&self) -> PmEvent {
        match *self {
            PmEventRef::RegisterPmem { base, size } => PmEvent::RegisterPmem { base, size },
            PmEventRef::Store {
                addr,
                size,
                tid,
                strand,
                in_epoch,
            } => PmEvent::Store {
                addr,
                size,
                tid,
                strand,
                in_epoch,
            },
            PmEventRef::Flush {
                kind,
                addr,
                size,
                tid,
                strand,
            } => PmEvent::Flush {
                kind,
                addr,
                size,
                tid,
                strand,
            },
            PmEventRef::Fence {
                kind,
                tid,
                strand,
                in_epoch,
            } => PmEvent::Fence {
                kind,
                tid,
                strand,
                in_epoch,
            },
            PmEventRef::EpochBegin { tid } => PmEvent::EpochBegin { tid },
            PmEventRef::EpochEnd { tid } => PmEvent::EpochEnd { tid },
            PmEventRef::StrandBegin { strand, tid } => PmEvent::StrandBegin { strand, tid },
            PmEventRef::StrandEnd { strand, tid } => PmEvent::StrandEnd { strand, tid },
            PmEventRef::JoinStrand { tid } => PmEvent::JoinStrand { tid },
            PmEventRef::TxLog {
                obj_addr,
                size,
                tid,
            } => PmEvent::TxLog {
                obj_addr,
                size,
                tid,
            },
            PmEventRef::FuncEnter { name, tid } => PmEvent::FuncEnter {
                name: name.to_owned(),
                tid,
            },
            PmEventRef::Annotation(annotation) => PmEvent::Annotation(annotation),
            PmEventRef::NameRange { name, addr, size } => PmEvent::NameRange {
                name: name.to_owned(),
                addr,
                size,
            },
            PmEventRef::Crash => PmEvent::Crash,
            PmEventRef::RecoveryRead { addr, size } => PmEvent::RecoveryRead { addr, size },
            PmEventRef::Cas {
                addr,
                size,
                tid,
                old,
                new,
                success,
            } => PmEvent::Cas {
                addr,
                size,
                tid,
                old,
                new,
                success,
            },
        }
    }

    /// Dense index of the event's kind into [`PmEvent::KIND_NAMES`].
    #[inline(always)]
    pub fn kind_index(&self) -> usize {
        match self {
            PmEventRef::RegisterPmem { .. } => 0,
            PmEventRef::Store { .. } => 1,
            PmEventRef::Flush { .. } => 2,
            PmEventRef::Fence { .. } => 3,
            PmEventRef::EpochBegin { .. } => 4,
            PmEventRef::EpochEnd { .. } => 5,
            PmEventRef::StrandBegin { .. } => 6,
            PmEventRef::StrandEnd { .. } => 7,
            PmEventRef::JoinStrand { .. } => 8,
            PmEventRef::TxLog { .. } => 9,
            PmEventRef::FuncEnter { .. } => 10,
            PmEventRef::Annotation(_) => 11,
            PmEventRef::NameRange { .. } => 12,
            PmEventRef::Crash => 13,
            PmEventRef::RecoveryRead { .. } => 14,
            PmEventRef::Cas { .. } => 15,
        }
    }

    /// The address range `[addr, addr + size)` the event touches, if any.
    #[inline(always)]
    pub fn range(&self) -> Option<(Addr, u64)> {
        match self {
            PmEventRef::Store { addr, size, .. } | PmEventRef::Flush { addr, size, .. } => {
                Some((*addr, u64::from(*size)))
            }
            PmEventRef::TxLog { obj_addr, size, .. } => Some((*obj_addr, u64::from(*size))),
            PmEventRef::RegisterPmem { base, size } => Some((*base, *size)),
            PmEventRef::NameRange { addr, size, .. } | PmEventRef::RecoveryRead { addr, size } => {
                Some((*addr, u64::from(*size)))
            }
            PmEventRef::Cas { addr, size, .. } => Some((*addr, u64::from(*size))),
            _ => None,
        }
    }
}

impl PmEvent {
    /// A borrowed view of this event; names borrow from `self`.
    #[inline]
    pub fn as_ref(&self) -> PmEventRef<'_> {
        self.into()
    }
}

impl<'a> From<&'a PmEvent> for PmEventRef<'a> {
    #[inline]
    fn from(event: &'a PmEvent) -> PmEventRef<'a> {
        match event {
            PmEvent::RegisterPmem { base, size } => PmEventRef::RegisterPmem {
                base: *base,
                size: *size,
            },
            PmEvent::Store {
                addr,
                size,
                tid,
                strand,
                in_epoch,
            } => PmEventRef::Store {
                addr: *addr,
                size: *size,
                tid: *tid,
                strand: *strand,
                in_epoch: *in_epoch,
            },
            PmEvent::Flush {
                kind,
                addr,
                size,
                tid,
                strand,
            } => PmEventRef::Flush {
                kind: *kind,
                addr: *addr,
                size: *size,
                tid: *tid,
                strand: *strand,
            },
            PmEvent::Fence {
                kind,
                tid,
                strand,
                in_epoch,
            } => PmEventRef::Fence {
                kind: *kind,
                tid: *tid,
                strand: *strand,
                in_epoch: *in_epoch,
            },
            PmEvent::EpochBegin { tid } => PmEventRef::EpochBegin { tid: *tid },
            PmEvent::EpochEnd { tid } => PmEventRef::EpochEnd { tid: *tid },
            PmEvent::StrandBegin { strand, tid } => PmEventRef::StrandBegin {
                strand: *strand,
                tid: *tid,
            },
            PmEvent::StrandEnd { strand, tid } => PmEventRef::StrandEnd {
                strand: *strand,
                tid: *tid,
            },
            PmEvent::JoinStrand { tid } => PmEventRef::JoinStrand { tid: *tid },
            PmEvent::TxLog {
                obj_addr,
                size,
                tid,
            } => PmEventRef::TxLog {
                obj_addr: *obj_addr,
                size: *size,
                tid: *tid,
            },
            PmEvent::FuncEnter { name, tid } => PmEventRef::FuncEnter { name, tid: *tid },
            PmEvent::Annotation(annotation) => PmEventRef::Annotation(*annotation),
            PmEvent::NameRange { name, addr, size } => PmEventRef::NameRange {
                name,
                addr: *addr,
                size: *size,
            },
            PmEvent::Crash => PmEventRef::Crash,
            PmEvent::RecoveryRead { addr, size } => PmEventRef::RecoveryRead {
                addr: *addr,
                size: *size,
            },
            PmEvent::Cas {
                addr,
                size,
                tid,
                old,
                new,
                success,
            } => PmEventRef::Cas {
                addr: *addr,
                size: *size,
                tid: *tid,
                old: *old,
                new: *new,
                success: *success,
            },
        }
    }
}

/// Returns `true` when the half-open ranges `[a, a+al)` and `[b, b+bl)`
/// overlap.
#[inline]
pub fn ranges_overlap(a: Addr, al: u64, b: Addr, bl: u64) -> bool {
    a < b.saturating_add(bl) && b < a.saturating_add(al)
}

/// Returns `true` when `[inner, inner+il)` is contained in `[outer, outer+ol)`.
#[inline]
pub fn range_contains(outer: Addr, ol: u64, inner: Addr, il: u64) -> bool {
    inner >= outer && inner.saturating_add(il) <= outer.saturating_add(ol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(addr: Addr) -> PmEvent {
        PmEvent::Store {
            addr,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
    }

    #[test]
    fn fundamental_classification() {
        assert!(store(0).is_fundamental());
        assert!(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: 0,
            size: 64,
            tid: ThreadId(0),
            strand: None,
        }
        .is_fundamental());
        assert!(PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }
        .is_fundamental());
        assert!(!PmEvent::EpochBegin { tid: ThreadId(0) }.is_fundamental());
        assert!(!PmEvent::RegisterPmem { base: 0, size: 64 }.is_fundamental());
    }

    #[test]
    fn tid_extraction() {
        assert_eq!(store(0).tid(), Some(ThreadId(0)));
        assert_eq!(PmEvent::RegisterPmem { base: 0, size: 1 }.tid(), None);
    }

    #[test]
    fn range_extraction() {
        assert_eq!(store(16).range(), Some((16, 8)));
        assert_eq!(PmEvent::JoinStrand { tid: ThreadId(1) }.range(), None);
        assert_eq!(
            PmEvent::TxLog {
                obj_addr: 128,
                size: 32,
                tid: ThreadId(0)
            }
            .range(),
            Some((128, 32))
        );
    }

    #[test]
    fn overlap_semantics() {
        assert!(ranges_overlap(0, 8, 4, 8));
        assert!(ranges_overlap(4, 8, 0, 8));
        assert!(!ranges_overlap(0, 8, 8, 8)); // half-open: touching ends do not overlap
        assert!(!ranges_overlap(8, 8, 0, 8));
        assert!(ranges_overlap(0, 1, 0, 1));
    }

    #[test]
    fn overlap_never_panics_near_u64_max() {
        assert!(ranges_overlap(u64::MAX - 1, u64::MAX, 0, u64::MAX));
    }

    #[test]
    fn containment_semantics() {
        assert!(range_contains(0, 64, 0, 64));
        assert!(range_contains(0, 64, 8, 8));
        assert!(!range_contains(0, 64, 60, 8));
        assert!(!range_contains(8, 8, 0, 8));
    }
}
