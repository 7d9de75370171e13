//! What a run prints: a table of every metric with its unit, then one
//! JSON result line (`correct`, `attempted`, `failed`, `metrics`).

use std::fmt::Write as _;

use pm_obs::json::Value;

/// One measured number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
}

impl Metric {
    /// A metric row.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// Requests attempted, requests that failed, and verdicts that did not
/// match the in-process reference.
#[derive(Debug, Default)]
pub struct Tally {
    /// Replays and sessions issued, warm-ups included.
    pub attempted: u64,
    /// Requests without a usable verdict: bad exit code, non-`ok` status,
    /// socket error.
    pub failed: u64,
    /// Verdicts that differ from the reference.
    pub mismatched: u64,
    /// One line per failure or mismatch (the first few are printed).
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one request that produced the expected verdict.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one request that produced no usable verdict.
    pub fn failed(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problems.push(format!("failed: {why}"));
    }

    /// Counts one request whose verdict differs from the reference.
    pub fn mismatch(&mut self, why: String) {
        self.attempted += 1;
        self.mismatched += 1;
        self.problems.push(format!("verdict mismatch: {why}"));
    }
}

/// A JSON number as `f64` (the parser keeps non-negative integers,
/// negative integers and fractions apart).
pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Prints the metric table and problems (human-readable), then the JSON
/// result line last.
pub fn print(workload: &str, trace: bool, tally: &Tally, metrics: &[Metric]) {
    let mut out = String::new();
    let phase = if trace {
        "traced, per layer"
    } else {
        "end to end"
    };
    let _ = writeln!(out, "pmbench {workload} ({phase})");
    for m in metrics {
        let _ = writeln!(out, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        out,
        "  requests: {} attempted, {} failed, {} verdict mismatch(es)",
        tally.attempted, tally.failed, tally.mismatched
    );
    for problem in tally.problems.iter().take(10) {
        let _ = writeln!(out, "  ! {problem}");
    }
    print!("{out}");
    println!("{}", result_line(tally, metrics));
}

/// The one-line JSON result.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.mismatched == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_exactly_the_result_keys() {
        let mut tally = Tally::default();
        tally.ok();
        let line = result_line(&tally, &[Metric::new("latency_ms", "ms", 1.25)]);
        let value = Value::parse(&line).expect("valid JSON");
        let keys: Vec<&String> = value.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert!(line.contains("\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }

    #[test]
    fn number_reads_integers_and_fractions() {
        let parsed = |text: &str| number(&Value::parse(text).expect("valid JSON"));
        assert_eq!(parsed("1"), Some(1.0));
        assert_eq!(parsed("-3"), Some(-3.0));
        assert_eq!(parsed("0.25"), Some(0.25));
        assert_eq!(parsed("\"1\""), None);
    }
}
