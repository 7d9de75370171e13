//! Campaign results: unrecoverable states, detector findings, truncations.
//!
//! Reports are plain data plus a hand-rolled JSON encoder (the workspace is
//! dependency-free by design), so campaigns can be diffed and archived from
//! the CLI.

use std::collections::BTreeMap;

use pm_obs::json::escape;

use crate::budget::Truncation;

/// One crash image that violates a recovery contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrecoverableState {
    /// Validator that flagged it.
    pub validator: &'static str,
    /// Original (workload-space) address of the violated range.
    pub addr: u64,
    /// Violated range length.
    pub size: u64,
    /// Trace-prefix length (event count) at the crash point where the state
    /// was first observed.
    pub boundary: usize,
    /// Pending lines that survived in the offending image.
    pub survivors: usize,
    /// Shortest trace prefix that reproduces the violation, when
    /// minimization ran.
    pub minimized_prefix: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

/// Result of one torture campaign over one trace.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Workload / trace label.
    pub workload: String,
    /// Persistency model the campaign assumed.
    pub model: &'static str,
    /// Events replayed (≤ trace length under a trace-length budget).
    pub events_replayed: usize,
    /// Crash boundaries the trace exposes.
    pub boundaries_total: usize,
    /// Crash boundaries actually tested.
    pub boundaries_tested: usize,
    /// Post-crash images inspected.
    pub images_tested: u64,
    /// Recovery-contract violations, deduplicated by (validator, range).
    pub unrecoverable: Vec<UnrecoverableState>,
    /// PMDebugger findings on the full trace, per bug kind.
    pub detector_findings: BTreeMap<String, usize>,
    /// Structurally invalid events the detector tolerated.
    pub malformed_events: u64,
    /// Budget bounds that bit during the run; empty means the sweep was
    /// exhaustive.
    pub truncations: Vec<Truncation>,
    /// Wall-clock time spent, in milliseconds.
    pub wall_ms: u128,
}

impl CampaignReport {
    /// Total issues: unrecoverable states plus detector findings. A fixed
    /// workload variant scores 0; every injected bug scores ≥ 1 (recovery
    /// bugs via validators, performance bugs via the detector).
    pub fn issues(&self) -> usize {
        self.unrecoverable.len() + self.detector_findings.values().sum::<usize>()
    }

    /// Whether the sweep covered everything it planned.
    pub fn complete(&self) -> bool {
        self.truncations.is_empty()
    }

    /// Serializes the report as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_str_field(&mut out, "workload", &self.workload);
        out.push(',');
        push_str_field(&mut out, "model", self.model);
        out.push_str(&format!(
            ",\"events_replayed\":{},\"boundaries_total\":{},\"boundaries_tested\":{},\
             \"images_tested\":{},\"issues\":{},\"complete\":{},\"malformed_events\":{},\
             \"wall_ms\":{}",
            self.events_replayed,
            self.boundaries_total,
            self.boundaries_tested,
            self.images_tested,
            self.issues(),
            self.complete(),
            self.malformed_events,
            self.wall_ms,
        ));
        out.push_str(",\"unrecoverable\":[");
        for (i, state) in self.unrecoverable.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "validator", state.validator);
            out.push_str(&format!(
                ",\"addr\":{},\"size\":{},\"boundary\":{},\"survivors\":{}",
                state.addr, state.size, state.boundary, state.survivors
            ));
            match state.minimized_prefix {
                Some(p) => out.push_str(&format!(",\"minimized_prefix\":{p}")),
                None => out.push_str(",\"minimized_prefix\":null"),
            }
            out.push(',');
            push_str_field(&mut out, "detail", &state.detail);
            out.push('}');
        }
        out.push_str("],\"detector_findings\":{");
        for (i, (kind, count)) in self.detector_findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", escape(kind), count));
        }
        out.push_str("},\"truncations\":[");
        for (i, truncation) in self.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(&truncation.to_string()));
        }
        out.push_str("]}");
        out
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("\"{key}\":{}", escape(value)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            workload: "unit".into(),
            model: "strict",
            events_replayed: 10,
            boundaries_total: 6,
            boundaries_tested: 6,
            images_tested: 24,
            unrecoverable: vec![UnrecoverableState {
                validator: "strict-overwrite",
                addr: 4096,
                size: 64,
                boundary: 7,
                survivors: 1,
                minimized_prefix: Some(5),
                detail: "stale \"cas\" bytes".into(),
            }],
            detector_findings: BTreeMap::from([("no-durability-guarantee".to_owned(), 2)]),
            malformed_events: 0,
            truncations: vec![Truncation::ImagesTruncated { points: 1 }],
            wall_ms: 3,
        }
    }

    #[test]
    fn issues_sums_both_sides() {
        assert_eq!(sample_report().issues(), 3);
        assert!(!sample_report().complete());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"minimized_prefix\":5"));
        assert!(json.contains("stale \\\"cas\\\" bytes"));
        assert!(json.contains("\"no-durability-guarantee\":2"));
        assert!(json.contains("image enumeration incomplete"));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }
}
