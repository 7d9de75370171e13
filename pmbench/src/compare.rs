//! `pmbench series` collects many end-to-end runs into one results file;
//! `pmbench compare` judges two such files metric by metric, one row per
//! (workload, metric), against the bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use pm_obs::json::{escape, Value};

use crate::report::number;
use crate::stats::{median, spread};
use crate::workload::Workload;
use crate::{flag, parsed, pmdbg};

/// The benchmark definition, read from the repository root.
const BENCHMARK: &str = "BENCHMARK.json";

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `pmbench series`: runs every workload `--runs` times (seeds
/// `--seed`, `--seed + 1`, ...), interleaving workloads, each run a fresh
/// `pmbench` process with tracing off and `BENCHMARK.json`'s run length,
/// and writes the results file.
pub fn series(args: &[String]) -> Result<ExitCode, String> {
    let runs: u64 = parsed(args, "--runs", Some(10))?;
    let first: u64 = parsed(args, "--seed", None)?;
    let out = flag(args, "--out").ok_or("--out is required")?;
    let seconds = read_json(BENCHMARK)?
        .get("run_seconds")
        .and_then(number)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let pmdbg = pmdbg(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for k in 0..runs {
        for w in Workload::ALL {
            let seed = first + k;
            eprintln!(
                "pmbench series: {} seed {seed} ({}/{runs})",
                w.name(),
                k + 1
            );
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .arg("--pmdbg")
                .arg(&pmdbg)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            if !output.status.success() || Value::parse(last).is_err() {
                return Err(format!(
                    "{} seed {seed} failed ({}):\n{stdout}",
                    w.name(),
                    output.status
                ));
            }
            results
                .entry(w.name())
                .or_default()
                .push(format!("{{\"seed\": {seed}, \"result\": {last}}}"));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let label = escape(flag(args, "--label").unwrap_or(""));
    let mut json = format!(
        "{{\"schema\": \"pmbench-series-v1\", \"label\": {label}, \"nproc\": {nproc}, \"seconds\": {seconds}, \"runs\": {{"
    );
    for (i, (name, rows)) in results.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\n  \"{name}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        );
    }
    json.push_str("\n}}\n");
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("pmbench series: wrote {out}");
    Ok(ExitCode::SUCCESS)
}

/// One declared end-to-end metric.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(benchmark: &Value) -> Result<Vec<Declared>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
            Ok(Declared {
                name: text("name").ok_or("metric without a name")?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Every run's value of `metric` on `workload` in a results file.
fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(|r| r.get(workload))
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| {
            number(
                run.get("result")?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?,
            )
        })
        .collect()
}

/// `pmbench compare <a> <b>`: for each (workload, metric), both medians,
/// the change as a share of the bound (positive = worse), and `ok`,
/// `worse` or `unresolved` (spread above the bound on either side, unless
/// every run of `b` reads better than every run of `a`).
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = match args {
        [a, b] => [a.as_str(), b.as_str()],
        _ => return Err("usage: pmbench compare <a.json> <b.json>".into()),
    };
    let benchmark = read_json(BENCHMARK)?;
    let metrics = declared(&benchmark)?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>9} {:>11}  status",
        "workload", "metric", "median a", "median b", "spread a", "spread b", "delta/bound"
    );
    let mut bad = 0;
    for w in Workload::ALL {
        for m in &metrics {
            let (va, vb) = (values(&a, w.name(), &m.name), values(&b, w.name(), &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma;
            let worse_by = if m.lower_is_better { change } else { -change };
            let (sa, sb) = (spread(&va), spread(&vb));
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let b_always_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
            let status = if (sa > m.bound || sb > m.bound) && !b_always_better {
                "unresolved"
            } else if worse_by > m.bound {
                "worse"
            } else {
                "ok"
            };
            if status != "ok" {
                bad += 1;
            }
            println!(
                "{:<14} {:<18} {:>12} {:>12} {:>9.4} {:>9.4} {:>+11.3}  {status} (n={}, {}, bound {})",
                w.name(),
                m.name,
                significant(ma),
                significant(mb),
                sa,
                sb,
                worse_by / m.bound,
                va.len().min(vb.len()),
                m.unit,
                m.bound
            );
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `x` with five significant digits, in plain notation.
fn significant(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (4 - x.abs().log10().floor() as i32).max(0)
    };
    format!("{x:.*}", digits as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_reads_integer_and_fractional_bounds() {
        let benchmark = Value::parse(
            r#"{"end_to_end": [
                {"name": "a", "unit": "s", "better": "lower", "bound": 1},
                {"name": "b", "unit": "1/s", "better": "higher", "bound": 0.25}
            ]}"#,
        )
        .expect("valid JSON");
        let metrics = declared(&benchmark).expect("both metrics have bounds");
        assert_eq!(metrics[0].bound, 1.0);
        assert!(metrics[0].lower_is_better);
        assert_eq!(metrics[1].bound, 0.25);
        assert!(!metrics[1].lower_is_better);
    }

    #[test]
    fn medians_keep_five_significant_digits() {
        assert_eq!(significant(0.000_801_34), "0.00080134");
        assert_eq!(significant(28.746_13), "28.746");
        assert_eq!(significant(43_021.7), "43022");
        assert_eq!(significant(0.0), "0");
    }
}
