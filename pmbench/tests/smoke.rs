//! Runs `pmbench --scale smoke` on every workload, untraced and traced,
//! against a prebuilt `pmdbg`, and checks each result line against the
//! metrics `BENCHMARK.json` declares.
//!
//! `pmdbg` comes from `$PMDBG`, else `<target>/release/pmdbg` of the
//! repository (`cargo build --release -p pm-cli` first). A missing binary
//! fails the test; it never skips.

use std::path::{Path, PathBuf};
use std::process::Command;

use pm_obs::json::Value;

const SEED: &str = "7";

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("pmbench sits inside the repository")
        .to_path_buf()
}

fn pmdbg() -> PathBuf {
    let path = match std::env::var_os("PMDBG") {
        Some(path) => PathBuf::from(path),
        None => {
            let target = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("target"), PathBuf::from);
            repo().join(target).join("release").join("pmdbg")
        }
    };
    assert!(
        path.is_file(),
        "no pmdbg at {}: run `cargo build --release -p pm-cli` in the repository \
         root (or set PMDBG) before this test",
        path.display()
    );
    path
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Runs one smoke invocation and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_pmbench"))
        .current_dir(repo())
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", trace, "--scale", "smoke", "--pmdbg"])
        .arg(pmdbg())
        .output()
        .expect("pmbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Value::parse(stdout.lines().last().unwrap_or_default()).expect("last line is JSON")
}

fn assert_declared(result: &Value, declared: &[Value], label: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object");
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{label}: exactly the declared metrics"
    );
    for m in declared {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        let unit = m.get("unit").and_then(Value::as_str).unwrap();
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{label}: {name} missing"));
        assert_eq!(
            got.get("unit").and_then(Value::as_str),
            Some(unit),
            "{label}: {name} unit"
        );
        let value = got.get("value").and_then(number).unwrap();
        assert!(value.is_finite(), "{label}: {name} = {value}");
    }
}

#[test]
fn every_workload_reports_every_declared_metric_with_correct_verdicts() {
    let bench = benchmark();
    let end_to_end = bench.get("end_to_end").and_then(Value::as_arr).unwrap();
    let per_layer = bench.get("per_layer").and_then(Value::as_arr).unwrap();
    let workloads = bench.get("workloads").and_then(Value::as_arr).unwrap();
    for w in workloads {
        let name = w.get("name").and_then(Value::as_str).unwrap();
        for (trace, declared) in [("0", end_to_end), ("1", per_layer)] {
            let label = format!("{name} --trace {trace}");
            let result = run(name, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{label}: verdict mismatch"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{label}: failures"
            );
            assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
            assert_declared(&result, declared, &label);
        }
        let spans = repo()
            .join("target/pmbench")
            .join(SEED)
            .join(name)
            .join("spans.json");
        let spans = Value::parse(&std::fs::read_to_string(&spans).expect("spans.json written"))
            .expect("spans.json parses");
        let spans = spans.get("spans").and_then(Value::as_arr).unwrap();
        assert!(!spans.is_empty(), "{name}: no spans");
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.get("id").and_then(Value::as_u64), Some(i as u64));
            if let Some(parent) = span.get("parent").and_then(Value::as_u64) {
                assert!(
                    parent < i as u64,
                    "{name}: span {i} has parent {parent}, which does not precede it"
                );
            }
        }
    }
}
