//! Integration tests over the corpus: determinism, XFDetector budget
//! behaviour, and per-case detectability structure.

use pm_baselines::XfdetectorLike;
use pm_bugs::{corpus, detects, Tool};
use pm_trace::{replay_finish, report_hash, BugKind, BugReport, OrderSpec, ReportDigest};
use pmdebugger::{DebuggerConfig, PmDebugger};

#[test]
fn corpus_is_deterministic() {
    let a = corpus();
    let b = corpus();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.trace, y.trace, "{} trace differs between builds", x.id);
    }
}

#[test]
fn xfdetector_budget_trades_coverage() {
    // With an unconstrained budget the XFDetector baseline finds every
    // no-durability case; with a tiny budget it starts missing the ones
    // whose defect lies past the instrumented window — the paper's §7.4
    // explanation for its missed memcached bugs.
    let cases: Vec<_> = corpus()
        .into_iter()
        .filter(|c| c.kind == BugKind::NoDurabilityGuarantee)
        .collect();
    let mut full = 0;
    let mut capped = 0;
    for case in &cases {
        let mut unlimited = XfdetectorLike::new(OrderSpec::new());
        if replay_finish(&case.trace, &mut unlimited)
            .iter()
            .any(|r| r.kind == case.kind)
        {
            full += 1;
        }
        let mut limited = XfdetectorLike::new(OrderSpec::new()).with_max_failure_points(1);
        if replay_finish(&case.trace, &mut limited)
            .iter()
            .any(|r| r.kind == case.kind)
        {
            capped += 1;
        }
    }
    assert_eq!(full, cases.len(), "unlimited budget finds all");
    assert!(
        capped < full,
        "a 1-point budget must miss some ({capped}/{full})"
    );
}

#[test]
fn each_case_is_detected_for_the_planted_kind_only_when_supported() {
    // Spot-check the architecture boundaries on one case per kind.
    let mut seen = std::collections::BTreeSet::new();
    for case in corpus() {
        if !seen.insert(case.kind) {
            continue;
        }
        // PMDebugger always detects its own corpus.
        assert!(detects(Tool::Pmdebugger, &case), "{}", case.id);
        // Nobody but PMDebugger handles the epoch/strand-only kinds.
        if matches!(
            case.kind,
            BugKind::LackDurabilityInEpoch
                | BugKind::RedundantEpochFence
                | BugKind::LackOrderingInStrands
        ) {
            for tool in [Tool::Pmemcheck, Tool::Pmtest, Tool::Xfdetector] {
                assert!(!detects(tool, &case), "{tool} on {}", case.id);
            }
        }
    }
    assert_eq!(seen.len(), 10, "corpus covers all ten kinds");
}

#[test]
fn corpus_traces_roundtrip_through_text_format() {
    for case in corpus().into_iter().take(20) {
        let text = pm_trace::to_text(&case.trace);
        let back = pm_trace::from_text(&text).unwrap();
        assert_eq!(case.trace, back, "{} roundtrip", case.id);
    }
}

/// FNV-1a over each report's display form, 0xff after each report: the
/// report hash as first written, kept as an independent reference.
fn reference_hash(reports: &[BugReport]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for report in reports {
        for byte in report.to_string().bytes().chain([0xff]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn report_digest_matches_the_report_list_on_every_case() {
    for case in corpus() {
        let mut config = DebuggerConfig::for_model(case.model);
        if let Some(spec) = &case.order_spec {
            config = config.with_order_spec(spec.clone());
        }
        let reports = replay_finish(&case.trace, &mut PmDebugger::new(config));
        let digest = ReportDigest::of(&reports);
        assert_eq!(digest.hash, report_hash(&reports), "{}", case.id);
        assert_eq!(digest.hash, reference_hash(&reports), "{}", case.id);
        assert_eq!(digest.total(), reports.len() as u64, "{}", case.id);
        for (kind, count) in BugKind::ALL.into_iter().zip(digest.counts) {
            let want = reports.iter().filter(|r| r.kind == kind).count() as u64;
            assert_eq!(count, want, "{} {kind}", case.id);
        }
    }
}
