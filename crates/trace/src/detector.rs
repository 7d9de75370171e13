//! The detector interface and bug-report types shared by PMDebugger and all
//! baselines.

use std::fmt;

use crate::events::{Addr, PmEventRef};

/// The ten bug types of the paper's Table 6, plus the two cross-thread
/// persistency-ordering classes for lock-free PM structures that publish
/// pointers by CAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BugKind {
    /// A persistent location is not persisted after its last write
    /// (missing CLF or missing fence), §4.5.
    NoDurabilityGuarantee,
    /// The same location is written multiple times before its durability is
    /// guaranteed (strict persistency only), §4.5.
    MultipleOverwrites,
    /// A programmer-specified persist order `X before Y` is violated, §4.5.
    NoOrderGuarantee,
    /// A store is flushed more than once before the nearest fence
    /// (performance bug), §4.5.
    RedundantFlushes,
    /// A CLF persists no prior store (performance bug), §4.5.
    FlushNothing,
    /// A data object is updated once but logged multiple times inside a
    /// transaction (performance bug), §5.2.
    RedundantLogging,
    /// Durability of stores in an epoch is not guaranteed at epoch end, §5.2.
    LackDurabilityInEpoch,
    /// More than one fence in an epoch section (performance bug), §5.2.
    RedundantEpochFence,
    /// Persists across strands violate a required order, §5.2.
    LackOrderingInStrands,
    /// Post-failure execution reads semantically inconsistent data, §7.3
    /// (XFDetector's bug class).
    CrossFailureSemantic,
    /// A CAS publishes a pointer to a store that was never flushed: the
    /// node is reachable after the swing but has no durability path at all.
    PublishedUnflushed,
    /// A CAS publishes a pointer to a store that was flushed on one thread
    /// but not yet fenced by *that* thread — another thread's fence does
    /// not complete the flusher's writebacks, so the visible node's
    /// durability is unordered with its publication.
    UnpublishedVisible,
}

impl BugKind {
    /// All kinds: the ten of Table 6 in column order, then the two
    /// cross-thread classes.
    pub const ALL: [BugKind; 12] = [
        BugKind::NoDurabilityGuarantee,
        BugKind::MultipleOverwrites,
        BugKind::NoOrderGuarantee,
        BugKind::RedundantFlushes,
        BugKind::FlushNothing,
        BugKind::RedundantLogging,
        BugKind::LackDurabilityInEpoch,
        BugKind::RedundantEpochFence,
        BugKind::LackOrderingInStrands,
        BugKind::CrossFailureSemantic,
        BugKind::PublishedUnflushed,
        BugKind::UnpublishedVisible,
    ];

    /// Short, stable name used in reports and tables.
    pub fn name(self) -> &'static str {
        match self {
            BugKind::NoDurabilityGuarantee => "no-durability-guarantee",
            BugKind::MultipleOverwrites => "multiple-overwrites",
            BugKind::NoOrderGuarantee => "no-order-guarantee",
            BugKind::RedundantFlushes => "redundant-flushes",
            BugKind::FlushNothing => "flush-nothing",
            BugKind::RedundantLogging => "redundant-logging",
            BugKind::LackDurabilityInEpoch => "lack-durability-in-epoch",
            BugKind::RedundantEpochFence => "redundant-epoch-fence",
            BugKind::LackOrderingInStrands => "lack-ordering-in-strands",
            BugKind::CrossFailureSemantic => "cross-failure-semantic",
            BugKind::PublishedUnflushed => "published-but-unflushed",
            BugKind::UnpublishedVisible => "unpublished-but-visible",
        }
    }

    /// Whether the paper classifies the kind as a correctness bug (`true`)
    /// or a performance bug (`false`).
    pub fn is_correctness(self) -> bool {
        !matches!(
            self,
            BugKind::RedundantFlushes
                | BugKind::FlushNothing
                | BugKind::RedundantLogging
                | BugKind::RedundantEpochFence
        )
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Severity classification following the paper's convention of reporting
/// both correctness and performance bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The program can become unrecoverable after a crash.
    Correctness,
    /// The program wastes work (extra flushes/fences/log records).
    Performance,
}

/// One detected bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// Bug classification (Table 6 column).
    pub kind: BugKind,
    /// Severity derived from `kind`.
    pub severity: Severity,
    /// Address the bug concerns, when applicable.
    pub addr: Option<Addr>,
    /// Size of the affected range, when applicable.
    pub size: Option<u64>,
    /// Index of the event in the observed stream that triggered the report
    /// (`None` for end-of-program checks).
    pub at_event: Option<u64>,
    /// Human-readable explanation.
    pub message: String,
}

impl BugReport {
    /// Creates a report for `kind` with severity derived from the kind.
    pub fn new(kind: BugKind, message: impl Into<String>) -> Self {
        BugReport {
            kind,
            severity: if kind.is_correctness() {
                Severity::Correctness
            } else {
                Severity::Performance
            },
            addr: None,
            size: None,
            at_event: None,
            message: message.into(),
        }
    }

    /// Sets the affected address range.
    pub fn with_range(mut self, addr: Addr, size: u64) -> Self {
        self.addr = Some(addr);
        self.size = Some(size);
        self
    }

    /// Sets the triggering event index.
    pub fn with_event(mut self, seq: u64) -> Self {
        self.at_event = Some(seq);
        self
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)?;
        if let (Some(addr), Some(size)) = (self.addr, self.size) {
            write!(f, " (range {addr:#x}+{size})")?;
        }
        if let Some(seq) = self.at_event {
            write!(f, " at event #{seq}")?;
        }
        Ok(())
    }
}

/// A consumer of the instrumented event stream.
///
/// All debuggers in this repository — PMDebugger and the Pmemcheck-, PMTest-
/// and XFDetector-like baselines — implement this trait and are driven by the
/// same [`crate::PmRuntime`] or [`crate::replay`] loop, mirroring how all the
/// paper's tools sit behind equivalent instrumentation.
pub trait Detector {
    /// Stable tool name for tables and reports.
    fn name(&self) -> &str;

    /// Observes one event. `seq` is the zero-based index of the event in the
    /// stream (used for report locations). Events are borrowed views, so a
    /// zero-copy walker over trace bytes and an owned [`crate::Trace`]
    /// (through [`crate::PmEvent::as_ref`]) feed detectors the same way.
    fn on_event(&mut self, seq: u64, event: &PmEventRef<'_>);

    /// Runs end-of-program checks (e.g. the no-durability-guarantee rule)
    /// and returns all reports accumulated over the whole run.
    fn finish(&mut self) -> Vec<BugReport>;

    /// Structurally invalid events the detector tolerated (e.g. a persist
    /// barrier outside any strand in a perturbed stream). Merge paths must
    /// carry this alongside the reports — a stream that was partly
    /// nonsensical weakens every "no bugs found" verdict.
    fn malformed_events(&self) -> u64 {
        0
    }

    /// Events the detector dropped without processing (truncated input,
    /// exhausted budgets). Like [`Detector::malformed_events`], this must
    /// survive report merging.
    fn truncated_events(&self) -> u64 {
        0
    }
}

/// Position-sensitive hash of a report list: FNV-1a over each report's
/// display form. Two runs produce the same hash iff they produced
/// byte-identical report lists in the same order — the equivalence check
/// recorded by the parallel bench gate. Folds through [`ReportDigest`].
pub fn report_hash(reports: &[BugReport]) -> u64 {
    ReportDigest::of(reports).hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Everything a verdict reads from a report list — per-kind counts and
/// the running [`report_hash`] state — folded one report at a time, so
/// a long-running consumer (a serve session, a journal record) keeps a
/// fixed-size digest instead of the list itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportDigest {
    /// Report counts indexed like [`BugKind::ALL`].
    pub counts: [u64; BugKind::ALL.len()],
    /// FNV-1a state; equals [`report_hash`] of the reports pushed so far.
    pub hash: u64,
}

impl Default for ReportDigest {
    fn default() -> Self {
        ReportDigest {
            counts: [0; BugKind::ALL.len()],
            hash: FNV_OFFSET,
        }
    }
}

impl ReportDigest {
    /// Counts one more report by kind, leaving the hash alone — for
    /// callers that read only [`ReportDigest::kinds`].
    pub fn count(&mut self, report: &BugReport) {
        self.counts[report.kind as usize] += 1;
    }

    /// Folds one more report (in list order) into the digest.
    pub fn push(&mut self, report: &BugReport) {
        self.count(report);
        // 0xff separates records.
        for byte in report.to_string().bytes().chain([0xff]) {
            self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of a whole report list.
    pub fn of(reports: &[BugReport]) -> Self {
        let mut digest = ReportDigest::default();
        for report in reports {
            digest.push(report);
        }
        digest
    }

    /// Reports folded so far.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The kinds that fired at least once, with their counts, in
    /// [`BugKind::ALL`] order.
    pub fn kinds(&self) -> impl Iterator<Item = (BugKind, u64)> {
        BugKind::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, count)| count > 0)
    }

    /// The run manifest's view of the digest.
    pub fn to_bug_digest(&self) -> pm_obs::BugDigest {
        let mut digest = pm_obs::BugDigest {
            total: self.total(),
            report_hash: format!("{:016x}", self.hash),
            ..pm_obs::BugDigest::default()
        };
        for (kind, count) in self.kinds() {
            if kind.is_correctness() {
                digest.correctness += count;
            } else {
                digest.performance += count;
            }
            digest.kinds.insert(kind.name().to_owned(), count);
        }
        digest
    }
}

/// A detector that does nothing — the paper's "Nulgrind" configuration
/// (instrumentation without bookkeeping), used to separate instrumentation
/// overhead from debugging overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct NopDetector;

impl Detector for NopDetector {
    fn name(&self) -> &str {
        "nulgrind"
    }

    fn on_event(&mut self, _seq: u64, _event: &PmEventRef<'_>) {}

    fn finish(&mut self) -> Vec<BugReport> {
        Vec::new()
    }
}

/// A detector that counts events by class; useful in tests and examples.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingDetector {
    /// Number of store events seen.
    pub stores: u64,
    /// Number of flush events seen.
    pub flushes: u64,
    /// Number of fence events seen.
    pub fences: u64,
    /// Number of all other events seen.
    pub other: u64,
}

impl Detector for CountingDetector {
    fn name(&self) -> &str {
        "counting"
    }

    fn on_event(&mut self, _seq: u64, event: &PmEventRef<'_>) {
        match event {
            PmEventRef::Store { .. } => self.stores += 1,
            PmEventRef::Flush { .. } => self.flushes += 1,
            PmEventRef::Fence { .. } => self.fences += 1,
            _ => self.other += 1,
        }
    }

    fn finish(&mut self) -> Vec<BugReport> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{FenceKind, PmEvent, ThreadId};

    #[test]
    fn all_kinds_listed_once() {
        let mut names: Vec<&str> = BugKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn severity_classification_matches_paper() {
        assert!(BugKind::NoDurabilityGuarantee.is_correctness());
        assert!(BugKind::MultipleOverwrites.is_correctness());
        assert!(BugKind::NoOrderGuarantee.is_correctness());
        assert!(BugKind::LackDurabilityInEpoch.is_correctness());
        assert!(BugKind::LackOrderingInStrands.is_correctness());
        assert!(BugKind::CrossFailureSemantic.is_correctness());
        assert!(BugKind::PublishedUnflushed.is_correctness());
        assert!(BugKind::UnpublishedVisible.is_correctness());
        assert!(!BugKind::RedundantFlushes.is_correctness());
        assert!(!BugKind::FlushNothing.is_correctness());
        assert!(!BugKind::RedundantLogging.is_correctness());
        assert!(!BugKind::RedundantEpochFence.is_correctness());
    }

    #[test]
    fn report_builder_and_display() {
        let report = BugReport::new(BugKind::RedundantFlushes, "line flushed twice")
            .with_range(0x40, 64)
            .with_event(17);
        assert_eq!(report.severity, Severity::Performance);
        let text = report.to_string();
        assert!(text.contains("redundant-flushes"));
        assert!(text.contains("0x40"));
        assert!(text.contains("#17"));
    }

    #[test]
    fn digest_folds_counts_and_the_report_hash() {
        for (i, kind) in BugKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "counts are indexed like ALL");
        }
        let reports = [
            BugReport::new(BugKind::RedundantFlushes, "twice").with_event(3),
            BugReport::new(BugKind::NoDurabilityGuarantee, "unflushed").with_range(0x40, 8),
            BugReport::new(BugKind::RedundantFlushes, "again").with_event(9),
        ];
        let bugs = ReportDigest::of(&reports).to_bug_digest();
        assert_eq!((bugs.total, bugs.correctness, bugs.performance), (3, 1, 2));
        assert_eq!(bugs.kinds.len(), 2);
        assert_eq!(bugs.kinds["redundant-flushes"], 2);
        assert_eq!(bugs.report_hash, format!("{:016x}", report_hash(&reports)));
        let mut reversed = reports.clone();
        reversed.reverse();
        assert_ne!(
            report_hash(&reversed),
            report_hash(&reports),
            "position-sensitive"
        );
    }

    #[test]
    fn counting_detector_counts() {
        let mut det = CountingDetector::default();
        det.on_event(
            0,
            &PmEventRef::Store {
                addr: 0,
                size: 8,
                tid: ThreadId(0),
                strand: None,
                in_epoch: false,
            },
        );
        det.on_event(
            1,
            &PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid: ThreadId(0),
                strand: None,
                in_epoch: false,
            }
            .as_ref(),
        );
        det.on_event(2, &PmEventRef::EpochBegin { tid: ThreadId(0) });
        assert_eq!((det.stores, det.fences, det.other), (1, 1, 1));
        assert!(det.finish().is_empty());
    }

    #[test]
    fn detectors_are_object_safe() {
        let mut boxed: Box<dyn Detector> = Box::new(NopDetector);
        boxed.on_event(0, &PmEventRef::EpochBegin { tid: ThreadId(0) });
        assert_eq!(boxed.name(), "nulgrind");
    }
}
