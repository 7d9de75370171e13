//! v2 ingestion hot path — stream decoder vs zero-copy walker.
//!
//! Decodes the same pm-trace v2 images through the two frame readers and
//! emits `BENCH_ingest.json`; `scripts/bench_gate.sh ingest` compares it
//! against the committed baseline (`scripts/ingest_baseline.json`).
//!
//! * `owned_ms` — [`StreamDecoder`] fed the image in 8 KiB pushes, as the
//!   `pmdbg serve` session host reads its socket: every event is
//!   materialized (heap `String`s included) into an owned [`PmEvent`].
//! * `zerocopy_ms` — [`pm_trace::zero_copy`]'s [`FrameWalker`] over the
//!   same bytes: borrowed [`PmEventRef`]s straight off the mapped image,
//!   batch CRC32 (slicing-by-8) and no per-event allocation.
//!
//! Inputs: both committed fixture traces (the v1 text fixture is
//! converted to v2 in memory) plus a synthetic >=1M-event workload in the
//! paper's instruction mix — store/flush/fence with ~5% function-entry
//! and named-range frames so the owned path pays its real string costs.
//!
//! `identical` is asserted from untimed runs: the walker must produce the
//! decoder's exact event sequence, the same `IngestReport` accounting
//! (modulo wall-clock) and the same detection report hash (owned
//! `detect_stream` vs borrowed `detect_stream_ref`) on every input.
//!
//! Env knobs: `PM_BENCH_SMOKE` shrinks inputs for the CI smoke stage,
//! `PM_BENCH_FULL` grows them; `PM_BENCH_JSON` overrides the output path.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pm_bench::{banner, TextTable};
use pm_trace::{
    report_hash, Detector, FenceKind, IngestLimits, IngestMode, IngestReport, PmEvent,
    StreamDecoder, ThreadId, Trace, ZeroCopy,
};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};
use pmem_sim::FlushKind;

struct WorkloadResult {
    name: &'static str,
    events: usize,
    bytes: usize,
    report_hash: u64,
    identical: bool,
    owned_ms: f64,
    zerocopy_ms: f64,
    owned_mev_s: f64,
    zerocopy_mev_s: f64,
    speedup: f64,
}

/// A synthetic trace in the Figure 2 instruction mix: stores flushed and
/// fenced in short bursts, ~5% `FuncEnter`, occasional `NameRange`, and a
/// small rotating set of deliberately unflushed lines so detection over
/// the image yields a non-trivial report hash.
fn synthetic_trace(events: usize) -> Trace {
    // Production pool placement: PM files are mapped high in the address
    // space (as DAX mappings are), so store/flush addresses cost the
    // varint coder 6 bytes, like real recorded traces — not the 3 bytes a
    // toy zero-based pool would.
    const POOL_BASE: u64 = 0x1000_0000_0000;
    let mut out = Vec::with_capacity(events);
    let mut i = 0u64;
    while out.len() < events {
        let tid = ThreadId((i % 3) as u32);
        let addr = POOL_BASE + (i * 64) % (1 << 28);
        out.push(PmEvent::Store {
            addr,
            size: 8 + (i % 7) as u32 * 8,
            tid,
            strand: None,
            in_epoch: false,
        });
        if i % 101 == 17 {
            // Leaked line: stored in a high range, never flushed.
            out.push(PmEvent::Store {
                addr: POOL_BASE + (1 << 30) + (i % 16) * 64,
                size: 8,
                tid,
                strand: None,
                in_epoch: false,
            });
        }
        out.push(PmEvent::Flush {
            kind: FlushKind::Clwb,
            addr: addr & !63,
            size: 64,
            tid,
            strand: None,
        });
        if i % 4 == 3 {
            out.push(PmEvent::Fence {
                kind: FenceKind::Sfence,
                tid,
                strand: None,
                in_epoch: false,
            });
        }
        if i.is_multiple_of(8) {
            out.push(PmEvent::FuncEnter {
                name: format!("fn_{}", i % 23),
                tid,
            });
        }
        if i.is_multiple_of(127) {
            out.push(PmEvent::NameRange {
                name: format!("obj_{}", i % 31),
                addr,
                size: 64,
            });
        }
        i += 1;
    }
    out.truncate(events);
    out.into_iter().collect()
}

/// Drains the zero-copy walker, folding each borrowed event into a
/// checksum the optimizer cannot delete. Returns (events, checksum).
fn walk_consume(bytes: &[u8], limits: &IngestLimits) -> (u64, u64) {
    let ZeroCopy::Binary(mut walker) =
        pm_trace::zero_copy(bytes, IngestMode::Strict, limits).expect("bench image opens")
    else {
        panic!("bench image classified as text");
    };
    let mut events = 0u64;
    let mut sum = 0u64;
    walker
        .for_each_ref(|event| {
            events += 1;
            sum = sum.wrapping_add(event.kind_index() as u64).rotate_left(1);
            if let Some((addr, size)) = event.range() {
                sum ^= addr.wrapping_add(size);
            }
        })
        .expect("bench image is clean");
    (events, sum)
}

/// The serve read size: `pmdbg serve` pushes socket reads of this size.
const PUSH: usize = 8 * 1024;

/// Feeds the image to a [`StreamDecoder`] in [`PUSH`]-byte chunks,
/// handing each owned event to `f`, and returns the final report.
fn stream_decode(bytes: &[u8], limits: &IngestLimits, mut f: impl FnMut(PmEvent)) -> IngestReport {
    let mut dec = StreamDecoder::new(IngestMode::Strict, limits.clone());
    for chunk in bytes.chunks(PUSH) {
        dec.push(chunk);
        while let Some(event) = dec.next_event().expect("bench image is clean") {
            f(event);
        }
    }
    dec.finish();
    while let Some(event) = dec.next_event().expect("bench image is clean") {
        f(event);
    }
    dec.report().clone()
}

fn measure(name: &'static str, trace: &Trace, repeats: usize) -> WorkloadResult {
    let bytes = pm_trace::to_binary(trace);
    let limits = IngestLimits::default();

    // Untimed identity pass: events, accounting and detection verdict
    // must be indistinguishable across the two readers.
    let mut decoded = Vec::with_capacity(trace.len());
    let mut decoder_report = stream_decode(&bytes, &limits, |event| decoded.push(event));
    let ZeroCopy::Binary(mut walker) =
        pm_trace::zero_copy(&bytes, IngestMode::Strict, &limits).expect("zero-copy opens")
    else {
        panic!("{name}: image classified as text");
    };
    let mut walked = Vec::with_capacity(decoded.len());
    while let Some(event) = walker.next_ref().expect("walk") {
        walked.push(event.to_owned());
    }
    let mut walk_report = walker.into_report();
    let mut identical = decoded == walked;
    identical &= decoder_report.elapsed > Duration::ZERO && walk_report.elapsed > Duration::ZERO;
    decoder_report.elapsed = Duration::ZERO;
    walk_report.elapsed = Duration::ZERO;
    identical &= decoder_report == walk_report;

    let config = DebuggerConfig::for_model(PersistencyModel::Strict);
    let owned_reports = PmDebugger::new(config.clone()).detect_stream(decoded.iter());
    let ZeroCopy::Binary(mut detect_walker) =
        pm_trace::zero_copy(&bytes, IngestMode::Strict, &limits).expect("zero-copy opens")
    else {
        panic!("{name}: image classified as text");
    };
    let mut engine = PmDebugger::new(config);
    let mut seq = 0u64;
    while let Some(event) = detect_walker.next_ref().expect("walk") {
        engine.on_event_ref(seq, &event);
        seq += 1;
    }
    let ref_reports = engine.finish();
    let hash = report_hash(&owned_reports);
    identical &= hash == report_hash(&ref_reports) && owned_reports == ref_reports;

    // Timed passes, best-of-N each.
    let mut owned_best = f64::MAX;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut events = 0usize;
        let report = stream_decode(&bytes, &limits, |event| {
            events += 1;
            black_box(event);
        });
        owned_best = owned_best.min(start.elapsed().as_secs_f64());
        black_box(events + report.frames_ok as usize);
    }
    let mut zc_best = f64::MAX;
    for _ in 0..repeats {
        let start = Instant::now();
        let out = walk_consume(&bytes, &limits);
        zc_best = zc_best.min(start.elapsed().as_secs_f64());
        black_box(out);
    }

    let events = trace.len();
    WorkloadResult {
        name,
        events,
        bytes: bytes.len(),
        report_hash: hash,
        identical,
        owned_ms: owned_best * 1e3,
        zerocopy_ms: zc_best * 1e3,
        owned_mev_s: events as f64 / owned_best.max(1e-9) / 1e6,
        zerocopy_mev_s: events as f64 / zc_best.max(1e-9) / 1e6,
        speedup: owned_best / zc_best.max(1e-9),
    }
}

fn to_json(results: &[WorkloadResult], smoke: bool) -> String {
    let mut out = String::from("{\"schema\":\"pmdebugger-ingest-bench-v1\"");
    out.push_str(&format!(",\"smoke\":{smoke}"));
    out.push_str(",\"workloads\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"events\":{},\"bytes\":{},\
             \"report_hash\":\"{:#018x}\",\"identical\":{},\
             \"owned_ms\":{:.3},\"zerocopy_ms\":{:.3},\
             \"owned_mev_s\":{:.2},\"zerocopy_mev_s\":{:.2},\"speedup\":{:.3}}}",
            r.name,
            r.events,
            r.bytes,
            r.report_hash,
            r.identical,
            r.owned_ms,
            r.zerocopy_ms,
            r.owned_mev_s,
            r.zerocopy_mev_s,
            r.speedup
        ));
    }
    out.push_str("]}");
    out
}

fn fixture(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn main() {
    banner(
        "v2 ingestion hot path — stream decoder vs zero-copy walker",
        "decode throughput over committed fixtures and a >=1M-event synthetic mix",
    );

    let smoke = std::env::var_os("PM_BENCH_SMOKE").is_some();
    let full = std::env::var_os("PM_BENCH_FULL").is_some();
    let (synth_events, repeats) = if smoke {
        (120_000, 5)
    } else if full {
        (4_000_000, 3)
    } else {
        (1_200_000, 5)
    };

    let btree_bytes = std::fs::read(fixture("tests/fixtures/btree_96.pmt2"))
        .expect("read tests/fixtures/btree_96.pmt2");
    let (btree, _) =
        pm_trace::ingest_bytes(&btree_bytes, IngestMode::Strict, &IngestLimits::default())
            .expect("fixture decodes");
    let hashmap_text = std::fs::read_to_string(fixture("tests/fixtures/hashmap_atomic_48.trace"))
        .expect("read tests/fixtures/hashmap_atomic_48.trace");
    let hashmap = pm_trace::from_text(&hashmap_text).expect("fixture parses");
    let synth = synthetic_trace(synth_events);

    let results = vec![
        measure("btree_96", &btree, repeats.max(5)),
        measure("hashmap_atomic_48", &hashmap, repeats.max(5)),
        measure("synthetic_mix", &synth, repeats),
    ];

    let mut table = TextTable::new(vec![
        "workload",
        "events",
        "MiB",
        "decoder ms",
        "zc ms",
        "decoder Mev/s",
        "zc Mev/s",
        "speedup",
        "identical",
    ]);
    for r in &results {
        table.row(vec![
            r.name.to_owned(),
            r.events.to_string(),
            format!("{:.1}", r.bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", r.owned_ms),
            format!("{:.2}", r.zerocopy_ms),
            format!("{:.2}", r.owned_mev_s),
            format!("{:.2}", r.zerocopy_mev_s),
            format!("{:.2}x", r.speedup),
            if r.identical { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print!("{}", table.render());
    println!("speedup = stream-decoder time / zero-copy walk time (same bytes, best-of-N)");

    let default_path = fixture("BENCH_ingest.json");
    let path = std::env::var("PM_BENCH_JSON")
        .unwrap_or_else(|_| default_path.to_string_lossy().into_owned());
    let json = to_json(&results, smoke);
    std::fs::write(&path, format!("{json}\n")).expect("write bench JSON");
    println!("wrote {path}");

    for r in &results {
        assert!(
            r.identical,
            "{}: zero-copy walker diverged from the stream decoder",
            r.name
        );
    }
}
