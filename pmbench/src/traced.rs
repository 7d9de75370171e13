//! The traced phase: the workload's traces replayed in-process through
//! each layer's public functions, with batch-granular spans at every layer
//! boundary, giving the per-layer ledger.
//!
//! Paths, each a request with its own root span:
//!
//! * `bench.replay` — what `pmdbg replay` does: zero-copy decode
//!   (`trace.zero_copy`), detection (`core.detect`), `core.finish`.
//! * `bench.shadow` — the trace's store/flush/fence events fed through one
//!   `BookkeepingSpace` per thread (`core.space`): the bookkeeping share
//!   of detection.
//! * `bench.session` — the core-layer work of a `pmdbg serve` session per
//!   4096-event batch: owned stream decoding (`trace.stream_decoder`),
//!   session feed, checkpoint, and the checkpoint's binary encoding.
//!
//! Then an in-process `pm_serve::Server` with a journal answers real
//! pushes, and is restarted on the journal it wrote. The server's own
//! journal code frames and writes every record; the harness only times
//! the file appends and fsyncs underneath it (a timing [`JournalEnv`]).

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_serve::{FsJournalEnv, JournalEnv, JournalIo, Listen, ServeConfig, Server};
use pm_trace::{IngestLimits, IngestMode, PmEvent, PmEventRef, StreamDecoder};
use pmdebugger::{
    detect_parallel, BookkeepingSpace, DebuggerConfig, DebuggerStats, DetectSession,
    ParallelConfig, PmDebugger,
};

use crate::report::{Metric, Tally};
use crate::spans::Tracer;
use crate::stats::median;
use crate::workload::{next_batch, walk, Reference};
use crate::Ctx;

/// Events per span (and per serve commit batch, as in `ServeConfig`).
const BATCH: usize = 4096;

/// Socket read size of a serve session, used to chunk the stream decoder.
const READ_CHUNK: usize = 8 * 1024;

/// Share of `--seconds` spent on repeated rounds of the in-process paths;
/// the rest goes to the in-process server.
const ROUNDS_SHARE: f64 = 0.65;

fn hash(reports: &[pm_trace::BugReport]) -> String {
    format!("{:016x}", pm_trace::report_hash(reports))
}

/// Per-round totals over the whole corpus.
#[derive(Default)]
struct Round {
    events: u64,
    bytes: u64,
    requests: u64,
    reports: u64,
    untraced_ns: u64,
    t1_ns: u64,
    t2_ns: u64,
    batches: u64,
    ckpt_bytes: u64,
    stats: DebuggerStats,
    own: BTreeMap<&'static str, u64>,
    replay_ns: u64,
}

impl Round {
    fn own(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64
    }

    fn per_event(&self, name: &str) -> f64 {
        self.own(name) / self.events as f64
    }

    fn per_batch_us(&self, name: &str) -> f64 {
        self.own(name) / self.batches.max(1) as f64 / 1e3
    }
}

/// Runs the traced phase, writes `spans_path`, returns per-layer metrics.
///
/// # Errors
///
/// File or server errors.
pub fn run(ctx: &Ctx, tally: &mut Tally, spans_path: &Path) -> io::Result<Vec<Metric>> {
    let config = DebuggerConfig::for_model(ctx.workload.model());
    let (traces, refs) = ctx.workload.corpus(ctx.seed, ctx.scale);

    let mut tracer = Tracer::new();
    let started = Instant::now();
    let rounds_budget = Duration::from_secs_f64(ctx.seconds * ROUNDS_SHARE);
    let mut rounds = Vec::new();
    while rounds.is_empty() || started.elapsed() < rounds_budget {
        let mark = tracer.mark();
        let mut round = Round::default();
        for (bytes, want) in traces.iter().zip(&refs) {
            round.events += want.events;
            round.bytes += bytes.len() as u64;
            round.requests += 1;
            round.reports += want.reports as u64;
            round.untraced_ns += untraced(bytes, &config, want, tally);
            replay(&mut tracer, bytes, &config, want, tally, &mut round);
            shadow(&mut tracer, bytes, &config);
            parallel(bytes, &config, want, tally, &mut round);
            session(&mut tracer, bytes, &config, want, tally, &mut round);
        }
        round.own = tracer.self_ns_from(mark);
        round.replay_ns = tracer.total_ns_from(mark, "bench.replay");
        rounds.push(round);
    }
    let served = serve(ctx, &traces, &refs, tally, started)?;
    tracer.write_json(spans_path)?;
    eprintln!(
        "pmbench: traced phase ran {} round(s) over {} trace(s) and {} in-process push(es); spans -> {}",
        rounds.len(),
        traces.len(),
        served.sessions,
        spans_path.display()
    );

    let per = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        Metric::new(
            "trace.zero_copy.ns_per_event",
            "ns",
            per(&|r| r.per_event("trace.zero_copy")),
        ),
        Metric::new(
            "trace.bytes_per_event",
            "B",
            per(&|r| r.bytes as f64 / r.events as f64),
        ),
        Metric::new(
            "trace.stream_decoder.ns_per_event",
            "ns",
            per(&|r| r.per_event("trace.stream_decoder")),
        ),
        Metric::new(
            "core.detect.ns_per_event",
            "ns",
            per(&|r| r.per_event("core.detect")),
        ),
        Metric::new(
            "core.space.ns_per_event",
            "ns",
            per(&|r| r.per_event("core.space")),
        ),
        Metric::new(
            "core.dispatch.ns_per_event",
            "ns",
            per(&|r| r.per_event("core.detect") - r.per_event("core.space")),
        ),
        Metric::new(
            "core.finish.ms",
            "ms",
            per(&|r| r.own("core.finish") / r.requests as f64 / 1e6),
        ),
        Metric::new("core.detect.reports", "count", per(&|r| r.reports as f64)),
        Metric::new(
            "core.space.avg_tree_nodes",
            "count",
            per(&|r| r.stats.avg_tree_nodes()),
        ),
        Metric::new(
            "core.space.rotations_per_kev",
            "1/kev",
            per(&|r| r.stats.rotations as f64 * 1e3 / r.events as f64),
        ),
        Metric::new(
            "core.space.migrations_per_kev",
            "1/kev",
            per(&|r| r.stats.migrations as f64 * 1e3 / r.events as f64),
        ),
        Metric::new(
            "core.parallel.t2_speedup",
            "x",
            per(&|r| r.t1_ns as f64 / r.t2_ns as f64),
        ),
        Metric::new(
            "core.session.feed.ns_per_event",
            "ns",
            per(&|r| r.per_event("core.session.feed")),
        ),
        Metric::new(
            "core.session.checkpoint.us_per_batch",
            "us",
            per(&|r| r.per_batch_us("core.session.checkpoint")),
        ),
        Metric::new(
            "core.ckpt.encode.us_per_batch",
            "us",
            per(&|r| r.per_batch_us("core.ckpt.encode")),
        ),
        Metric::new(
            "core.ckpt.bytes_per_batch",
            "B",
            per(&|r| r.ckpt_bytes as f64 / r.batches.max(1) as f64),
        ),
    ];
    metrics.extend(served.metrics);
    metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        "%",
        per(&|r| (r.replay_ns as f64 - r.untraced_ns as f64) * 100.0 / r.untraced_ns as f64),
    ));
    metrics.push(Metric::new(
        "bench.layer_coverage",
        "ratio",
        per(&|r| {
            (r.own("trace.zero_copy") + r.own("core.detect") + r.own("core.finish"))
                / r.replay_ns as f64
        }),
    ));
    Ok(metrics)
}

fn verdict(tally: &mut Tally, got: &str, want: &Reference, path: &str) {
    if got == want.hash {
        tally.ok();
    } else {
        tally.mismatch(format!("{path}: hash {got}, reference {}", want.hash));
    }
}

/// The untraced replay `pmdbg replay` runs in-process (tracing off), for
/// the tracing overhead. Returns its wall time in nanoseconds.
fn untraced(bytes: &[u8], config: &DebuggerConfig, want: &Reference, tally: &mut Tally) -> u64 {
    let start = Instant::now();
    let mut engine = PmDebugger::new(config.clone());
    let mut walker = walk(bytes);
    let mut seq = 0u64;
    walker
        .for_each_ref(|event| {
            engine.on_event_ref(seq, &event);
            seq += 1;
        })
        .expect("generated trace decodes");
    let reports = pm_trace::Detector::finish(&mut engine);
    let ns = start.elapsed().as_nanos() as u64;
    verdict(tally, &hash(&reports), want, "untraced replay");
    ns
}

/// The replay path with spans: decode a batch, detect it, then finish.
fn replay(
    tracer: &mut Tracer,
    bytes: &[u8],
    config: &DebuggerConfig,
    want: &Reference,
    tally: &mut Tally,
    round: &mut Round,
) {
    let root = tracer.request("bench.replay");
    let mut engine = PmDebugger::new(config.clone());
    let mut walker = walk(bytes);
    let mut batch: Vec<PmEventRef<'_>> = Vec::with_capacity(BATCH);
    let mut seq = 0u64;
    loop {
        tracer.time(root, "trace.zero_copy", || {
            next_batch(&mut walker, &mut batch, BATCH)
        });
        if batch.is_empty() {
            break;
        }
        tracer.time(root, "core.detect", || {
            for event in &batch {
                engine.on_event_ref(seq, event);
                seq += 1;
            }
        });
    }
    round.stats.add(&engine.stats());
    let reports = tracer.time(root, "core.finish", || {
        pm_trace::Detector::finish(&mut engine)
    });
    tracer.end(root);
    verdict(tally, &hash(&reports), want, "traced replay");
}

/// Bookkeeping alone: store/flush/fence events into one space per thread.
fn shadow(tracer: &mut Tracer, bytes: &[u8], config: &DebuggerConfig) {
    let root = tracer.request("bench.shadow");
    let mut spaces: BTreeMap<u32, BookkeepingSpace> = BTreeMap::new();
    let new_space = || BookkeepingSpace::new(config.array_capacity, config.merge_threshold);
    let mut walker = walk(bytes);
    let mut batch: Vec<PmEventRef<'_>> = Vec::with_capacity(BATCH);
    let mut seq = 0u64;
    loop {
        tracer.time(root, "bench.shadow.decode", || {
            next_batch(&mut walker, &mut batch, BATCH)
        });
        if batch.is_empty() {
            break;
        }
        tracer.time(root, "core.space", || {
            for event in &batch {
                match *event {
                    PmEventRef::Store {
                        addr,
                        size,
                        tid,
                        in_epoch,
                        ..
                    } => {
                        let space = spaces.entry(tid.0).or_insert_with(new_space);
                        space.on_store(addr, u64::from(size), in_epoch, seq, false);
                    }
                    PmEventRef::Flush {
                        addr, size, tid, ..
                    } => {
                        let space = spaces.entry(tid.0).or_insert_with(new_space);
                        space.on_flush(addr, u64::from(size));
                    }
                    PmEventRef::Fence { tid, .. } => {
                        spaces.entry(tid.0).or_insert_with(new_space).on_fence();
                    }
                    _ => {}
                }
                seq += 1;
            }
        });
    }
    tracer.end(root);
}

/// `detect_parallel` at one and two threads, measured wall.
fn parallel(
    bytes: &[u8],
    config: &DebuggerConfig,
    want: &Reference,
    tally: &mut Tally,
    round: &mut Round,
) {
    let trace = pm_trace::from_binary(bytes).expect("generated trace decodes");
    for threads in [1, 2] {
        let start = Instant::now();
        let outcome = detect_parallel(config, &ParallelConfig::with_threads(threads), &trace);
        let ns = start.elapsed().as_nanos() as u64;
        if threads == 1 {
            round.t1_ns += ns;
        } else {
            round.t2_ns += ns;
        }
        verdict(tally, &hash(&outcome.reports), want, "detect_parallel");
    }
}

/// The core-layer work of a serve session per commit batch, through
/// public APIs.
fn session(
    tracer: &mut Tracer,
    bytes: &[u8],
    config: &DebuggerConfig,
    want: &Reference,
    tally: &mut Tally,
    round: &mut Round,
) {
    let root = tracer.request("bench.session");
    let mut decoder = StreamDecoder::new(IngestMode::Salvage, IngestLimits::default());
    let mut session = DetectSession::new(config.clone());
    let mut chunks = bytes.chunks(READ_CHUNK);
    let mut pending: Vec<PmEvent> = Vec::with_capacity(BATCH);
    let mut committed = Vec::new();
    let mut at_end = false;
    loop {
        tracer.time(root, "trace.stream_decoder", || {
            pending.clear();
            while pending.len() < BATCH {
                match decoder.next_event().expect("salvage decoding never errors") {
                    Some(event) => pending.push(event),
                    None => match chunks.next() {
                        Some(chunk) => decoder.push(chunk),
                        None if !at_end => {
                            decoder.finish();
                            at_end = true;
                        }
                        None => break,
                    },
                }
            }
        });
        if pending.len() < BATCH {
            // The tail batch runs with the end-of-stream rules and is
            // never checkpointed, as in the server.
            let reports = tracer.time(root, "core.session.feed", || {
                let mut reports = session.feed(&pending);
                reports.extend(session.finish());
                reports
            });
            committed.extend(reports);
            break;
        }
        let reports = tracer.time(root, "core.session.feed", || session.feed(&pending));
        committed.extend(reports);
        let checkpoint = tracer.time(root, "core.session.checkpoint", || session.checkpoint());
        let blob = tracer.time(root, "core.ckpt.encode", || checkpoint.to_bytes());
        round.batches += 1;
        round.ckpt_bytes += blob.len() as u64;
    }
    tracer.end(root);
    verdict(tally, &hash(&committed), want, "session path");
}

/// Record appends of the in-process server's journal.
#[derive(Default)]
struct JournalTotals {
    records: AtomicU64,
    bytes: AtomicU64,
    /// Time inside append and fsync calls.
    ns: AtomicU64,
}

impl JournalTotals {
    fn add_ns(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// [`FsJournalEnv`] with every append and fsync timed. pm-serve's journal
/// writes each record with one append followed by one fsync; the file
/// header written when a journal is created is not counted.
struct TimedEnv(Arc<JournalTotals>);

struct TimedIo {
    inner: Box<dyn JournalIo>,
    totals: Arc<JournalTotals>,
}

impl JournalEnv for TimedEnv {
    fn open_append(&self, dir: &Path, key: &str) -> io::Result<Box<dyn JournalIo>> {
        Ok(Box::new(TimedIo {
            inner: FsJournalEnv.open_append(dir, key)?,
            totals: Arc::clone(&self.0),
        }))
    }

    fn read(&self, dir: &Path, key: &str) -> io::Result<Vec<u8>> {
        FsJournalEnv.read(dir, key)
    }

    fn list_keys(&self, dir: &Path) -> io::Result<Vec<String>> {
        FsJournalEnv.list_keys(dir)
    }
}

impl JournalIo for TimedIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let wrote = self.inner.append(bytes);
        self.totals.add_ns(start);
        self.totals.records.fetch_add(1, Ordering::Relaxed);
        self.totals
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        wrote
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let synced = self.inner.sync();
        self.totals.add_ns(start);
        synced
    }
}

/// In-process server results.
struct Served {
    sessions: usize,
    metrics: Vec<Metric>,
}

/// Pushes the corpus through an in-process journaling `Server` (one
/// connection, closed loop) whose journal I/O is timed, then scans and
/// recovers its journal.
fn serve(
    ctx: &Ctx,
    traces: &[Vec<u8>],
    refs: &[Reference],
    tally: &mut Tally,
    started: Instant,
) -> io::Result<Served> {
    let journal = ctx.dir.join("server-journal");
    let mut cfg = ServeConfig::new(Listen::Unix(ctx.dir.join("traced.sock")));
    cfg.model = ctx.workload.model();
    cfg.journal_dir = Some(journal.clone());
    let totals = Arc::new(JournalTotals::default());
    cfg.journal_env = Some(Arc::new(TimedEnv(Arc::clone(&totals))));
    let server = Server::start(cfg.clone())?;
    let listen = server.local_listen().clone();
    let budget = Duration::from_secs_f64(ctx.seconds);
    let (mut server_ms, mut wait_ms) = (Vec::new(), Vec::new());
    while server_ms.len() < 3 || (started.elapsed() < budget && server_ms.len() < 4 * traces.len())
    {
        let i = server_ms.len() % traces.len();
        let sent = Instant::now();
        let response =
            pm_serve::push_bytes_keyed(&listen, &format!("t{}", server_ms.len()), &traces[i])?;
        let client_ms = sent.elapsed().as_secs_f64() * 1e3;
        server_ms.push(response.elapsed_ms as f64);
        wait_ms.push(client_ms - response.elapsed_ms as f64);
        if response.status == pm_serve::SessionStatus::Ok {
            verdict(tally, &response.report_hash, &refs[i], "in-process server");
        } else {
            tally.failed(format!(
                "in-process server session {}",
                response.status.name()
            ));
        }
    }
    let peak = server
        .manifest()
        .gauges
        .get("mem.peak_bytes")
        .copied()
        .unwrap_or(0);
    server.shutdown(Duration::from_secs(10));

    let scan_start = Instant::now();
    let mut wal_bytes = 0u64;
    for key in FsJournalEnv.list_keys(&journal)? {
        let bytes = FsJournalEnv.read(&journal, &key)?;
        wal_bytes += bytes.len() as u64;
        let scan = pm_serve::scan_journal(&key, &bytes);
        if scan.verdict.is_none() {
            tally.failed(format!("journal {key} has no ledgered verdict"));
        }
    }
    let scan_ms = scan_start.elapsed().as_secs_f64() * 1e3;
    let recover_start = Instant::now();
    let restarted = Server::start(cfg)?;
    let recovery_ms = recover_start.elapsed().as_secs_f64() * 1e3;
    restarted.shutdown(Duration::from_secs(10));
    std::fs::remove_dir_all(&journal)?;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sessions = server_ms.len();
    let records = totals.records.load(Ordering::Relaxed).max(1) as f64;
    Ok(Served {
        sessions,
        metrics: vec![
            Metric::new(
                "serve.journal.sync.us_per_record",
                "us",
                totals.ns.load(Ordering::Relaxed) as f64 / records / 1e3,
            ),
            Metric::new(
                "serve.journal.bytes_per_record",
                "B",
                totals.bytes.load(Ordering::Relaxed) as f64 / records,
            ),
            Metric::new(
                "serve.journal.bytes_per_session",
                "B",
                wal_bytes as f64 / sessions as f64,
            ),
            Metric::new("serve.journal.scan.ms", "ms", scan_ms),
            Metric::new("serve.recovery_ms", "ms", recovery_ms),
            Metric::new("serve.server_ms.mean", "ms", mean(&server_ms)),
            Metric::new("serve.wait_ms.mean", "ms", mean(&wait_ms)),
            Metric::new("serve.mem.peak_bytes", "B", peak as f64),
        ],
    })
}
