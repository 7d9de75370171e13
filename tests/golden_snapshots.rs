//! Golden-snapshot tests: pinned BugSummary renderings and RunManifest
//! JSON for a spread of bug-corpus workloads.
//!
//! The fixtures live under `tests/golden/` and are compared byte-for-byte
//! — any change to report wording, deduplication, summary layout, metric
//! routing or manifest serialization shows up as a readable diff here.
//! After an intentional change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshots
//! ```
//!
//! and commit the updated fixtures.

use std::collections::BTreeMap;
use std::path::PathBuf;

use pm_bugs::{corpus, BugCase};
use pm_obs::{MetricsRegistry, RunManifest};
use pm_trace::{BugSummary, Detector, ReportDigest};
use pmdebugger::{
    detect_supervised, DebuggerConfig, FailMode, FaultKind, FaultPlan, InjectedFault,
    ParallelConfig, PersistencyModel, PmDebugger, SupervisorConfig,
};

/// The pinned cases: one per bug family across correctness and
/// performance kinds, strict and relaxed models.
const GOLDEN_CASES: [&str; 6] = [
    "no_durability_guarantee/00",
    "multiple_overwrites/00",
    "no_order_guarantee/00",
    "redundant_flushes/00",
    "flush_nothing/00",
    "redundant_epoch_fence/00",
];

fn model_label(model: PersistencyModel) -> &'static str {
    match model {
        PersistencyModel::Strict => "strict",
        PersistencyModel::Epoch => "epoch",
        PersistencyModel::Strand => "strand",
    }
}

/// Renders one corpus case's two golden artifacts: the human bug summary
/// and the (timing-redacted) run manifest JSON.
fn render_case(case: &BugCase) -> (String, String) {
    let mut config = DebuggerConfig::for_model(case.model);
    if let Some(spec) = &case.order_spec {
        config = config.with_order_spec(spec.clone());
    }
    let (_, summary, manifest) = render_sequential(&case.trace, config, &case.id, 1);
    (summary, manifest)
}

/// Replays `trace` through the instrumented sequential engine; returns
/// the reports, the bug summary and the timing-redacted manifest JSON.
fn render_sequential(
    trace: &pm_trace::Trace,
    config: DebuggerConfig,
    workload: &str,
    threads: u64,
) -> (Vec<pm_trace::BugReport>, String, String) {
    let registry = MetricsRegistry::new();
    let model = model_label(config.model);
    let mut detector = PmDebugger::with_metrics(config, &registry);
    for (seq, event) in trace.events().iter().enumerate() {
        detector.on_event(seq as u64, event);
    }
    let reports = detector.finish();
    for (kind, count) in trace.kind_counts() {
        registry.counter(&format!("events.{kind}")).add(count);
    }
    let mut manifest = RunManifest::new("pmdebugger", workload, model);
    manifest.ops = trace.len() as u64;
    manifest.threads = threads;
    manifest.absorb_snapshot(&registry.snapshot());
    manifest.bugs = ReportDigest::of(&reports).to_bug_digest();
    manifest.redact_timings();
    let summary = BugSummary::from_reports(reports.clone()).to_string();
    (reports, summary, format!("{}\n", manifest.to_json()))
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fixture_name(case_id: &str, suffix: &str) -> String {
    format!("{}.{suffix}", case_id.replace('/', "_"))
}

fn check_or_update(name: &str, actual: &str, update: bool) -> Result<(), String> {
    let path = golden_dir().join(name);
    if update {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!("{name}: cannot read fixture ({e}); run UPDATE_GOLDEN=1 to generate")
    })?;
    if expected != actual {
        return Err(format!(
            "{name}: output diverged from the golden fixture.\n\
             --- expected ---\n{expected}\n--- actual ---\n{actual}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1."
        ));
    }
    Ok(())
}

#[test]
fn golden_case_list_spans_distinct_kinds() {
    let cases = corpus();
    let mut kinds = BTreeMap::new();
    for id in GOLDEN_CASES {
        let case = cases
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("corpus lost golden case {id}"));
        *kinds.entry(case.kind).or_insert(0) += 1;
    }
    assert_eq!(kinds.len(), GOLDEN_CASES.len(), "one case per kind");
    assert!(
        GOLDEN_CASES.len() >= 5,
        "golden set must cover >=5 workloads"
    );
}

#[test]
fn bug_summaries_and_manifests_match_golden_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let cases = corpus();
    let mut failures = Vec::new();
    for id in GOLDEN_CASES {
        let case = cases.iter().find(|c| c.id == id).expect("case exists");
        let (summary, manifest_json) = render_case(case);
        for (suffix, actual) in [("summary.txt", &summary), ("manifest.json", &manifest_json)] {
            if let Err(message) = check_or_update(&fixture_name(id, suffix), actual, update) {
                failures.push(message);
            }
        }

        // Whatever the fixture says, the manifest must round-trip.
        let parsed = RunManifest::from_json(&manifest_json).expect("manifest parses");
        assert_eq!(format!("{}\n", parsed.to_json()), manifest_json);
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// Hex dump with 32 bytes per line — the committed form of a binary
/// fixture, so diffs stay reviewable in a text-only golden directory.
fn hex_dump(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for chunk in bytes.chunks(32) {
        for byte in chunk {
            out.push_str(&format!("{byte:02x}"));
        }
        out.push('\n');
    }
    out
}

fn hex_parse(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(
        digits.len().is_multiple_of(2),
        "hex fixture has an odd digit count"
    );
    digits
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16).expect("hex digit");
            let lo = (pair[1] as char).to_digit(16).expect("hex digit");
            (hi * 16 + lo) as u8
        })
        .collect()
}

/// Pins the pm-trace v2 binary encoding of one corpus trace. Any change
/// to the frame layout (magic, length, CRC, payload varints) shows up as
/// a hex diff here, and the committed bytes must keep decoding to the
/// exact original trace.
#[test]
fn v2_binary_encoding_matches_golden_fixture() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let cases = corpus();
    let case = cases
        .iter()
        .find(|c| c.id == "no_durability_guarantee/00")
        .expect("case exists");
    let bytes = pm_trace::to_binary(&case.trace);
    let name = "no_durability_guarantee_00.pmt2.hex";
    if let Err(message) = check_or_update(name, &hex_dump(&bytes), update) {
        panic!("{message}");
    }
    // The committed fixture itself must stay a decodable v2 image that
    // down-converts losslessly to the v1 text form.
    let committed = hex_parse(&std::fs::read_to_string(golden_dir().join(name)).unwrap());
    let decoded = pm_trace::from_binary(&committed).expect("golden v2 image decodes");
    assert_eq!(
        decoded, case.trace,
        "v2 fixture decodes to the source trace"
    );
    assert_eq!(
        pm_trace::to_text(&decoded),
        pm_trace::to_text(&case.trace),
        "down-conversion to v1 text is lossless"
    );
    let spans = pm_trace::frame_spans(&committed).expect("frame walk succeeds");
    assert_eq!(spans.len(), case.trace.len(), "one frame per event");
}

/// The batch and streaming ingest paths share one `IngestReport`
/// finalizer, so both must populate wall-clock `elapsed` while agreeing
/// on every other accounting field over the committed v2 fixture. The
/// goldens themselves stay timing-redacted — `elapsed` never reaches
/// fixture bytes — so this is the programmatic half of that contract.
#[test]
fn ingest_elapsed_is_populated_identically_across_batch_and_streaming() {
    use std::time::Duration;

    use pm_trace::{ingest_bytes, IngestLimits, IngestMode, StreamDecoder};

    let name = "no_durability_guarantee_00.pmt2.hex";
    let bytes = hex_parse(&std::fs::read_to_string(golden_dir().join(name)).unwrap());

    let limits = IngestLimits::default();
    let (trace, mut batch) =
        ingest_bytes(&bytes, IngestMode::Strict, &limits).expect("batch ingest succeeds");

    let mut decoder = StreamDecoder::new(IngestMode::Strict, limits);
    for chunk in bytes.chunks(7) {
        decoder.push(chunk);
    }
    decoder.finish();
    let mut events = Vec::new();
    while let Some(event) = decoder.next_event().expect("stream decode succeeds") {
        events.push(event);
    }
    assert_eq!(events, trace.events(), "paths decode the same events");

    let mut streaming = decoder.report().clone();
    assert!(batch.elapsed > Duration::ZERO, "batch elapsed populated");
    assert!(
        streaming.elapsed > Duration::ZERO,
        "streaming elapsed populated"
    );
    batch.elapsed = Duration::ZERO;
    streaming.elapsed = Duration::ZERO;
    assert_eq!(batch, streaming, "accounting identical modulo wall-clock");
}

/// Renders the degraded-run golden artifact: a supervised detection run
/// over the `hashmap_atomic` workload trace at 4 threads, degrade mode,
/// with an explicit fault plan that panics worker 1 on every attempt slot
/// — so exactly that shard is quarantined, deterministically. The
/// manifest pins the `supervisor.*` counter block next to the usual
/// routing, bookkeeping and verdict counters.
fn render_degraded_run() -> String {
    let trace = pm_workloads::record_trace(&pm_workloads::HashmapAtomic::default(), 64);
    render_degraded(&trace, PersistencyModel::Epoch, 1, "hashmap_atomic", 64)
}

/// Runs supervised detection over `trace` at 4 threads in degrade mode,
/// with `worker` panicking on every attempt slot, and renders the
/// timing-redacted manifest of the (necessarily degraded) run.
fn render_degraded(
    trace: &pm_trace::Trace,
    model: PersistencyModel,
    worker: u32,
    workload: &str,
    ops: u64,
) -> String {
    let sup = SupervisorConfig::default()
        .with_max_retries(1)
        .with_fail_mode(FailMode::Degrade);
    let faults = FaultPlan::new(
        (0..sup.total_attempts())
            .map(|attempt| InjectedFault {
                worker,
                attempt,
                after_events: 0,
                kind: FaultKind::Panic,
            })
            .collect(),
    );
    let result = detect_supervised(
        &DebuggerConfig::for_model(model),
        &ParallelConfig::with_threads(4),
        &sup,
        Some(&faults),
        trace,
    )
    .expect("degrade mode completes");
    assert!(result.is_degraded(), "worker {worker} must be quarantined");

    let registry = MetricsRegistry::new();
    for (kind, count) in trace.kind_counts() {
        registry.counter(&format!("events.{kind}")).add(count);
    }
    result.export_metrics(&registry);
    let digest = ReportDigest::of(&result.outcome.reports);
    for (kind, count) in digest.kinds() {
        registry
            .counter(&format!("rule.{}", kind.name()))
            .add(count);
    }

    let mut manifest = RunManifest::new("pmdebugger-supervised", workload, model_label(model));
    manifest.ops = ops;
    manifest.threads = 4;
    manifest.absorb_snapshot(&registry.snapshot());
    manifest.bugs = digest.to_bug_digest();
    manifest.redact_timings();
    format!("{}\n", manifest.to_json())
}

/// Pins the manifest a degraded supervised run produces. Any change to
/// the supervision counters, quarantine accounting or merge behavior of
/// surviving shards shows up as a readable JSON diff here.
#[test]
fn degraded_run_manifest_matches_golden_fixture() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let manifest_json = render_degraded_run();
    if let Err(message) = check_or_update("degraded_run_00.manifest.json", &manifest_json, update) {
        panic!("{message}");
    }
    // Whatever the fixture says, the manifest must round-trip and carry
    // the full supervisor counter block.
    let manifest = RunManifest::from_json(&manifest_json).expect("manifest parses");
    assert_eq!(format!("{}\n", manifest.to_json()), manifest_json);
    assert_eq!(manifest.counters["supervisor.quarantined"], 1);
    assert_eq!(manifest.counters["supervisor.degraded"], 1);
    assert!(manifest.counters["supervisor.lost_events"] > 0);
    assert!(manifest.counters.contains_key("supervisor.retries"));
}

/// The pinned multi-thread trace: the Treiber stack with the seeded
/// cross-thread handoff bug, four threads interleaved under a fixed seed.
/// Every multi-thread golden below derives from this one trace.
fn treiber_mt_trace() -> pm_trace::Trace {
    let workload = pm_workloads::TreiberStack::default().with_cross_thread_bug();
    pm_workloads::concurrent_multithread_trace(&workload, 4, 24, 0x601D, 4)
}

/// Pins the v2 binary encoding of the interleaved multi-thread trace —
/// the committed image exercises the `Cas` frame alongside per-thread
/// stores, flushes and fences — and checks it keeps decoding losslessly.
#[test]
fn treiber_mt_v2_encoding_matches_golden_fixture() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let trace = treiber_mt_trace();
    let bytes = pm_trace::to_binary(&trace);
    let name = "treiber_stack_mt_00.pmt2.hex";
    if let Err(message) = check_or_update(name, &hex_dump(&bytes), update) {
        panic!("{message}");
    }
    let committed = hex_parse(&std::fs::read_to_string(golden_dir().join(name)).unwrap());
    let decoded = pm_trace::from_binary(&committed).expect("golden v2 image decodes");
    assert_eq!(decoded, trace, "v2 fixture decodes to the source trace");
    assert_eq!(
        pm_trace::to_text(&decoded),
        pm_trace::to_text(&trace),
        "down-conversion to v1 text is lossless"
    );
    let spans = pm_trace::frame_spans(&committed).expect("frame walk succeeds");
    assert_eq!(spans.len(), trace.len(), "one frame per event");
}

/// Pins the summary and manifest a strict sequential run produces over
/// the multi-thread trace: exactly one cross-thread unpublished-visible
/// report at the handoff CAS, with per-kind event counters covering the
/// interleaved stream.
#[test]
fn treiber_mt_summary_and_manifest_match_golden_fixtures() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let trace = treiber_mt_trace();

    let config = DebuggerConfig::for_model(PersistencyModel::Strict);
    let (reports, summary, manifest_json) =
        render_sequential(&trace, config, "treiber_stack_mt/00", 4);
    assert_eq!(reports.len(), 1, "exactly the seeded handoff bug");
    assert_eq!(reports[0].kind, pm_trace::BugKind::UnpublishedVisible);
    assert_eq!(reports[0].at_event, pm_workloads::handoff_event(&trace));

    let mut failures = Vec::new();
    for (suffix, actual) in [("summary.txt", &summary), ("manifest.json", &manifest_json)] {
        let name = format!("treiber_stack_mt_00.{suffix}");
        if let Err(message) = check_or_update(&name, actual, update) {
            failures.push(message);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));

    let parsed = RunManifest::from_json(&manifest_json).expect("manifest parses");
    assert_eq!(format!("{}\n", parsed.to_json()), manifest_json);
    assert!(parsed.event_kinds.contains_key("cas"), "cas events counted");
}

/// Pins the manifest of a degraded supervised run over the multi-thread
/// trace: worker 0 panics on every attempt slot, so exactly that thread
/// shard is quarantined while the surviving shards still merge.
#[test]
fn treiber_mt_degraded_manifest_matches_golden_fixture() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let trace = treiber_mt_trace();
    let ops = trace.len() as u64;
    let manifest_json = render_degraded(
        &trace,
        PersistencyModel::Strict,
        0,
        "treiber_stack_mt/00",
        ops,
    );

    let name = "treiber_stack_mt_degraded_00.manifest.json";
    if let Err(message) = check_or_update(name, &manifest_json, update) {
        panic!("{message}");
    }
    let parsed = RunManifest::from_json(&manifest_json).expect("manifest parses");
    assert_eq!(format!("{}\n", parsed.to_json()), manifest_json);
    assert_eq!(parsed.counters["supervisor.quarantined"], 1);
    assert_eq!(parsed.counters["supervisor.degraded"], 1);
    assert!(parsed.counters["supervisor.lost_events"] > 0);
}

#[test]
fn golden_manifests_are_internally_consistent() {
    let cases = corpus();
    for id in GOLDEN_CASES {
        let case = cases.iter().find(|c| c.id == id).expect("case exists");
        let (_, manifest_json) = render_case(case);
        let manifest = RunManifest::from_json(&manifest_json).expect("parses");
        assert_eq!(manifest.events_total, case.trace.len() as u64, "{id}");
        let kind_sum: u64 = manifest.event_kinds.values().sum();
        assert_eq!(kind_sum, manifest.events_total, "{id}");
        assert!(manifest.bugs.total > 0, "{id}: corpus case must report");
        let rule_sum: u64 = manifest.rule_firings.values().sum();
        assert_eq!(rule_sum, manifest.bugs.total, "{id}");
    }
}
