//! The four benchmark workloads: what each generates from the seed, and
//! the in-process reference verdict every `pmdbg` answer is checked
//! against.
//!
//! Input sizes, arrival rates and latency limits live here as constants.
//! They were calibrated once (see README.md) and are never recomputed at
//! run time, so two commits are always measured under the same load.

use std::time::Duration;

use pm_trace::{IngestLimits, IngestMode, PmEventRef, Trace, ZeroCopy};
use pm_workloads::{
    memcached_multithread_trace, record_trace, BTree, CTree, HashmapTx, Memcached, RbTree,
    SynthMix, Workload as Program,
};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

/// Sessions pushed and discarded before any serve phase is timed.
pub const WARMUP_SESSIONS: usize = 20;

/// How one workload reaches the detector.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// `pmdbg replay --trace <file>`, closed loop, one process at a time.
    Batch,
    /// `pmdbg serve` plus pushes over a unix socket.
    Serve {
        /// Keyed sessions against `--journal-dir` (else `--no-journal`).
        journal: bool,
        /// Open-loop arrival rate of the latency phase, sessions/s:
        /// about half the measured two-connection capacity.
        nominal_rate: f64,
        /// The latency phase fails the run when its p90 exceeds this.
        latency_limit: Duration,
    },
}

/// Input size: `Full` for measurement, `Smoke` for a seconds-long check
/// that every code path runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The calibrated sizes.
    Full,
    /// About a twentieth of them.
    Smoke,
}

impl Scale {
    fn ops(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 20).max(1),
        }
    }

    fn pool(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 8).max(3),
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four memcached worker threads interleaved in 64-event quanta.
    MemcachedMt,
    /// Half the stores deferred 128 fences: the pattern-1-violation regime.
    DeferredMix,
    /// Short epoch-model Table 4 sessions against a journal-less daemon.
    TxSessions,
    /// Long keyed B-tree sessions against a journaling daemon.
    BtreeDurable,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::MemcachedMt,
        Workload::DeferredMix,
        Workload::TxSessions,
        Workload::BtreeDurable,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemcachedMt => "memcached_mt",
            Workload::DeferredMix => "deferred_mix",
            Workload::TxSessions => "tx_sessions",
            Workload::BtreeDurable => "btree_durable",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Persistency model the traces are detected under.
    pub fn model(self) -> PersistencyModel {
        match self {
            Workload::TxSessions => PersistencyModel::Epoch,
            _ => PersistencyModel::Strict,
        }
    }

    /// `--model` value for `pmdbg`.
    pub fn model_flag(self) -> &'static str {
        match self.model() {
            PersistencyModel::Epoch => "epoch",
            PersistencyModel::Strand => "strand",
            PersistencyModel::Strict => "strict",
        }
    }

    /// How the workload reaches the detector, with its fixed rates.
    pub fn mode(self) -> Mode {
        match self {
            Workload::MemcachedMt | Workload::DeferredMix => Mode::Batch,
            Workload::TxSessions => Mode::Serve {
                journal: false,
                nominal_rate: 68.0,
                latency_limit: Duration::from_millis(400),
            },
            Workload::BtreeDurable => Mode::Serve {
                journal: true,
                nominal_rate: 21.0,
                latency_limit: Duration::from_millis(1000),
            },
        }
    }

    /// Generates the workload's traces from `seed`: one trace for batch
    /// workloads, a pool that sessions cycle through for serve ones.
    pub fn generate(self, seed: u64, scale: Scale) -> Vec<Trace> {
        match self {
            Workload::MemcachedMt => vec![self.batch_trace(seed, scale.ops(100_000))],
            Workload::DeferredMix => vec![self.batch_trace(seed, scale.ops(200_000))],
            Workload::TxSessions => (0..scale.pool(64) as u64)
                .map(|i| {
                    // Op ranges chosen so every program lands at 20-35k
                    // events per trace.
                    let s = seed.wrapping_add(i);
                    let (program, lo, hi): (Box<dyn Program>, usize, usize) = match i % 4 {
                        0 => (Box::new(BTree::new(s)), 620, 1080),
                        1 => (Box::new(HashmapTx::new(s, 16)), 870, 1520),
                        2 => (Box::new(RbTree::new(s)), 580, 1020),
                        _ => (Box::new(CTree::new(s)), 1330, 2330),
                    };
                    let ops = lo + (splitmix64(s) % (hi - lo) as u64) as usize;
                    record_trace(program.as_ref(), scale.ops(ops))
                })
                .collect(),
            Workload::BtreeDurable => (0..scale.pool(12) as u64)
                .map(|i| {
                    let ops = [2_000, 4_000, 8_000][(i % 3) as usize];
                    record_trace(&BTree::new(seed.wrapping_add(i)), scale.ops(ops))
                })
                .collect(),
        }
    }

    /// [`Workload::generate`] as v2 binary images, each with its
    /// reference verdict.
    pub fn corpus(self, seed: u64, scale: Scale) -> (Vec<Vec<u8>>, Vec<Reference>) {
        let traces: Vec<Vec<u8>> = self
            .generate(seed, scale)
            .iter()
            .map(pm_trace::to_binary)
            .collect();
        let refs = traces.iter().map(|b| reference(b, self.model())).collect();
        (traces, refs)
    }

    /// For batch workloads: the same program at about 1% of the size
    /// (13-16k events), the trace whose time to verdict `latency_ms` reports.
    ///
    /// # Panics
    ///
    /// On a serve workload, which has no short trace.
    pub fn short_trace(self, seed: u64, scale: Scale) -> Trace {
        match self {
            Workload::MemcachedMt => self.batch_trace(seed, scale.ops(1_000)),
            Workload::DeferredMix => self.batch_trace(seed, scale.ops(2_000)),
            _ => panic!("{} has no short trace", self.name()),
        }
    }

    /// A batch workload's program run for `ops` operations (per thread
    /// for the four memcached workers).
    fn batch_trace(self, seed: u64, ops: usize) -> Trace {
        if self == Workload::MemcachedMt {
            let program = Memcached::new(seed).with_set_percent(30);
            return memcached_multithread_trace(&program, 4, ops, 64);
        }
        let mut program = SynthMix::new(seed).with_deferred(0.5);
        program.settle_after = 128;
        record_trace(&program, ops)
    }
}

/// The in-process verdict a `pmdbg` answer must reproduce.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Events in the trace.
    pub events: u64,
    /// `pm_trace::report_hash` as 16 hex digits (the wire form).
    pub hash: String,
    /// Reports in the verdict.
    pub reports: usize,
    /// The bug summary `pmdbg replay` prints after its timing line.
    pub summary: String,
}

/// Detects `bytes` with [`PmDebugger::detect_stream_ref`] under `model`.
///
/// # Panics
///
/// When the generated bytes do not decode — a bug in this harness.
pub fn reference(bytes: &[u8], model: PersistencyModel) -> Reference {
    let mut walker = walk(bytes);
    let mut events = 0u64;
    let stream = std::iter::from_fn(|| {
        let event = walker.next_ref().expect("generated trace decodes");
        events += u64::from(event.is_some());
        event
    });
    let reports = PmDebugger::new(DebuggerConfig::for_model(model)).detect_stream_ref(stream);
    Reference {
        events,
        hash: format!("{:016x}", pm_trace::report_hash(&reports)),
        reports: reports.len(),
        summary: pm_trace::BugSummary::from_reports(reports).to_string(),
    }
}

/// A strict zero-copy walker over a generated (hence well-formed) image.
///
/// # Panics
///
/// When `bytes` is not a v2 binary image.
pub fn walk(bytes: &[u8]) -> pm_trace::FrameWalker<'_> {
    match pm_trace::zero_copy(bytes, IngestMode::Strict, &IngestLimits::default()) {
        Ok(ZeroCopy::Binary(walker)) => walker,
        _ => panic!("generated trace is not a v2 binary image"),
    }
}

/// Pulls up to `max` events from `walker` into `batch` (cleared first).
pub fn next_batch<'a>(
    walker: &mut pm_trace::FrameWalker<'a>,
    batch: &mut Vec<PmEventRef<'a>>,
    max: usize,
) {
    batch.clear();
    while batch.len() < max {
        match walker.next_ref().expect("generated trace decodes") {
            Some(event) => batch.push(event),
            None => break,
        }
    }
}

/// SplitMix64 finaliser: a well-mixed u64 from a seed.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
