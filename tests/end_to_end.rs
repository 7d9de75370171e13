//! End-to-end integration: every Table 4 workload through every detector.

use pm_baselines::{Nulgrind, PmemcheckLike, PmtestLike, XfdetectorLike};
use pm_trace::{replay_finish, Detector, OrderSpec, PmRuntime};
use pm_workloads::{all_benchmarks, record_trace};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

fn persistency(model: pm_workloads::Model) -> PersistencyModel {
    match model {
        pm_workloads::Model::Strict => PersistencyModel::Strict,
        pm_workloads::Model::Epoch => PersistencyModel::Epoch,
        pm_workloads::Model::Strand => PersistencyModel::Strand,
    }
}

#[test]
fn every_workload_is_clean_under_every_detector() {
    for workload in all_benchmarks() {
        let trace = record_trace(workload.as_ref(), 300);
        let model = persistency(workload.model());
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(Nulgrind),
            Box::new(PmDebugger::new(DebuggerConfig::for_model(model))),
            Box::new(PmemcheckLike::new()),
            Box::new(PmtestLike::new()),
            Box::new(XfdetectorLike::new(OrderSpec::new())),
        ];
        for mut detector in detectors {
            let reports = replay_finish(&trace, detector.as_mut());
            assert!(
                reports.is_empty(),
                "{} reported {} bug(s) on clean {}: {:?}",
                detector.name(),
                reports.len(),
                workload.name(),
                reports.first()
            );
        }
    }
}

#[test]
fn detectors_attach_live_to_running_workloads() {
    // Attaching the detector during execution (instead of replaying a
    // recorded trace) must agree with replay.
    for workload in all_benchmarks() {
        let model = persistency(workload.model());
        let mut rt = PmRuntime::trace_only();
        rt.attach(Box::new(PmDebugger::new(DebuggerConfig::for_model(model))));
        workload.run(&mut rt, 100).expect("trace-only run");
        let live_reports = rt.finish();
        assert!(
            live_reports.is_empty(),
            "{}: live attach found {:?}",
            workload.name(),
            live_reports.first()
        );
    }
}

#[test]
fn workload_traces_are_reproducible() {
    for workload in all_benchmarks() {
        let a = record_trace(workload.as_ref(), 150);
        let b = record_trace(workload.as_ref(), 150);
        assert_eq!(a, b, "{} trace not deterministic", workload.name());
    }
}

#[test]
fn injected_bugs_are_found_end_to_end() {
    use pm_trace::BugKind;

    // Figure 9a — memcached CAS durability.
    let trace = pm_workloads::faults::memcached_cas_bug_trace(100).unwrap();
    let mut det = PmDebugger::strict();
    let reports = replay_finish(&trace, &mut det);
    assert!(reports
        .iter()
        .any(|r| r.kind == BugKind::NoDurabilityGuarantee));

    // Figure 9b — hashmap_atomic redundant epoch fence.
    let trace = pm_workloads::faults::hashmap_atomic_redundant_fence_trace(50).unwrap();
    let mut det = PmDebugger::epoch();
    let reports = replay_finish(&trace, &mut det);
    assert!(reports
        .iter()
        .any(|r| r.kind == BugKind::RedundantEpochFence));

    // Figure 9c — PMDK array lack of durability in epoch.
    let trace = pm_workloads::faults::pmdk_array_lack_durability_trace().unwrap();
    let mut det = PmDebugger::epoch();
    let reports = replay_finish(&trace, &mut det);
    assert!(reports
        .iter()
        .any(|r| r.kind == BugKind::LackDurabilityInEpoch));
    // The fixed version is clean.
    let trace = pm_workloads::faults::pmdk_array_fixed_trace().unwrap();
    let mut det = PmDebugger::epoch();
    assert!(replay_finish(&trace, &mut det).is_empty());

    // Figure 7b — synth_strand ordering violation.
    let workload = pm_workloads::SynthStrand::default().with_order_bug();
    let trace = pm_workloads::record_trace(&workload, 40);
    let spec: OrderSpec = "order A before B".parse().unwrap();
    let config = DebuggerConfig::for_model(PersistencyModel::Strand).with_order_spec(spec);
    let mut det = PmDebugger::new(config);
    let reports = replay_finish(&trace, &mut det);
    assert!(
        reports
            .iter()
            .any(|r| r.kind == BugKind::LackOrderingInStrands),
        "strand order bug missed: {reports:?}"
    );
}

/// The committed corruption-sweep fixtures (one v2 binary, one v1 text)
/// must keep parsing strictly and replaying clean — they feed the
/// `sweep-corrupt` CI stage, and a stale fixture would silently shrink
/// that sweep's coverage.
#[test]
fn committed_fixture_traces_ingest_strictly_and_replay_clean() {
    use pm_trace::{ingest_bytes, IngestLimits, IngestMode, TraceFormat};
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for (file, format, min_events) in [
        ("btree_96.pmt2", TraceFormat::BinV2, 2_000),
        ("hashmap_atomic_48.trace", TraceFormat::TextV1, 300),
    ] {
        let bytes = std::fs::read(dir.join(file)).unwrap();
        let (trace, report) = ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default())
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(report.format, format, "{file}");
        assert!(report.clean(), "{file}: {}", report.summary());
        assert!(
            trace.len() >= min_events,
            "{file}: fixture shrank to {} events",
            trace.len()
        );
        let mut det = PmDebugger::new(DebuggerConfig::for_model(PersistencyModel::Epoch));
        let reports = replay_finish(&trace, &mut det);
        assert!(reports.is_empty(), "{file}: {:?}", reports.first());
    }
}

#[test]
fn multithreaded_memcached_is_clean_and_scalable() {
    let workload = pm_workloads::Memcached::default().with_set_percent(20);
    let trace = pm_workloads::memcached_multithread_trace(&workload, 4, 200, 8);
    let mut det = PmDebugger::strict();
    let reports = replay_finish(&trace, &mut det);
    assert!(
        reports.is_empty(),
        "multithreaded FP: {:?}",
        reports.first()
    );
    let stats = det.stats();
    assert!(stats.fence_intervals > 0);
}
