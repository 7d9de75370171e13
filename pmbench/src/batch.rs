//! Batch workloads, end to end: `pmdbg replay` over the generated trace,
//! closed loop, one process at a time, tracing off.
//!
//! Every timing is the *fastest* replay of its kind in the run (best of
//! N): other tenants of a shared host only ever slow a CPU-bound replay
//! down, and the minimum filters that out where the median does not
//! (measured run-to-run spread of the 1-thread wall over ten runs: 0.04
//! for the minimum, 0.13 for the median). Time to verdict, `latency_ms`,
//! replays a short trace of the same program, where per-invocation costs
//! (start-up, allocation, finish) weigh as much as detection.
//!
//! Set-up time, `setup_s`, is what every replay pays before its first
//! event: `pmdbg replay` of a trace that holds no events, from spawn to
//! exit (start-up, argument parsing, opening and validating the file,
//! engine construction, finish). Several such replays run in every round
//! and the median is reported.
//!
//! Generating the traces and their reference verdicts runs in a child
//! `pmbench prepare` process. A child's `ru_maxrss` starts at its
//! parent's peak RSS (Linux records the forked address space's high-water
//! mark at `exec`), so the process that spawns the replays must never
//! hold a trace itself, or every replay would report that peak.

use std::io;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use pm_obs::json::{escape, Value};

use crate::proc::{self, Replay};
use crate::report::{Metric, Tally};
use crate::stats::{median, quantile};
use crate::workload::{reference, Reference, Scale, Workload};
use crate::{flag, parsed, Ctx};

/// Short-trace replays after each pair of full replays.
const SHORT_PER_ROUND: usize = 3;

/// Event-free replays (set-up samples) in each round.
const EMPTY_PER_ROUND: usize = 6;

/// File names inside the run directory.
const TRACE: &str = "trace.pmt2";
const SHORT: &str = "short.pmt2";
const EMPTY: &str = "empty.pmt2";
const PREPARED: &str = "prepared.json";

/// Checks one replay's exit code and printed verdict against `want`.
fn check(tally: &mut Tally, run: &Replay, want: &Reference, label: &str) {
    let expected_code = i32::from(want.reports > 0);
    if run.exit.code != Some(expected_code) {
        tally.failed(format!(
            "{label}: exit {:?}, want {expected_code}",
            run.exit.code
        ));
        return;
    }
    let (head, rest) = run.stdout.split_once('\n').unwrap_or((&run.stdout, ""));
    // A `--metrics` run ends with one more line naming the manifest.
    let summary = match rest.rfind("metrics manifest -> ") {
        Some(at) => &rest[..at],
        None => rest,
    };
    if !head.starts_with(&format!("replayed {} events", want.events)) || summary != want.summary {
        tally.mismatch(format!(
            "{label}: printed verdict differs from the reference"
        ));
        return;
    }
    tally.ok();
}

fn reference_json(r: &Reference) -> String {
    format!(
        "{{\"events\": {}, \"reports\": {}, \"hash\": \"{}\", \"summary\": {}}}",
        r.events,
        r.reports,
        r.hash,
        escape(&r.summary)
    )
}

fn reference_from(v: Option<&Value>) -> Option<Reference> {
    let v = v?;
    Some(Reference {
        events: v.get("events")?.as_u64()?,
        reports: usize::try_from(v.get("reports")?.as_u64()?).ok()?,
        hash: v.get("hash")?.as_str()?.to_owned(),
        summary: v.get("summary")?.as_str()?.to_owned(),
    })
}

/// `pmbench prepare --workload <w> --seed <n> --scale <s> --dir <d>`
/// (internal): generates the trace files into `<d>` and writes their
/// reference verdicts to `<d>/prepared.json`.
pub fn prepare(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")
        .and_then(Workload::parse)
        .ok_or("prepare needs --workload")?;
    let seed: u64 = parsed(args, "--seed", None)?;
    let scale = if flag(args, "--scale") == Some("smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let dir = Path::new(flag(args, "--dir").ok_or("prepare needs --dir")?);
    let io = |e: io::Error| e.to_string();
    let model = workload.model();
    let mut json = String::from("{");
    for (name, trace) in [
        (TRACE, workload.generate(seed, scale).swap_remove(0)),
        (SHORT, workload.short_trace(seed, scale)),
        (EMPTY, pm_trace::Trace::new()),
    ] {
        let bytes = pm_trace::to_binary(&trace);
        std::fs::write(dir.join(name), &bytes).map_err(io)?;
        let sep = if name == TRACE { "" } else { ", " };
        json += &format!(
            "{sep}\"{name}\": {}",
            reference_json(&reference(&bytes, model))
        );
    }
    json.push('}');
    std::fs::write(dir.join(PREPARED), json).map_err(io)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs the batch measurement and returns the end-to-end metrics.
///
/// # Errors
///
/// File or process errors.
pub fn run(ctx: &Ctx, tally: &mut Tally) -> io::Result<Vec<Metric>> {
    let status = Command::new(std::env::current_exe()?)
        .args(["prepare", "--workload", ctx.workload.name()])
        .args(["--seed", &ctx.seed.to_string()])
        .args([
            "--scale",
            if ctx.scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            },
        ])
        .arg("--dir")
        .arg(&ctx.dir)
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "pmbench prepare failed: {status}"
        )));
    }
    let prepared = Value::parse(&std::fs::read_to_string(ctx.dir.join(PREPARED))?)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let want = |name: &str| {
        reference_from(prepared.get(name))
            .ok_or_else(|| io::Error::other(format!("prepared.json has no {name}")))
    };
    let (want_short, want_empty, want) = (want(SHORT)?, want(EMPTY)?, want(TRACE)?);
    let trace_path = ctx.dir.join(TRACE);
    let (short_path, empty_path) = (ctx.dir.join(SHORT), ctx.dir.join(EMPTY));
    let model = ctx.workload.model_flag();

    // Warm-up: one replay per thread count. The first also writes a run
    // manifest, whose report hash must equal the reference.
    let manifest = ctx.dir.join("manifest.json");
    let run = proc::replay(&ctx.pmdbg, &trace_path, model, 1, Some(&manifest))?;
    check(tally, &run, &want, "warm-up replay");
    let text = std::fs::read_to_string(&manifest)?;
    let hash = Value::parse(&text).ok().and_then(|v| {
        v.get("bugs")?
            .get("report_hash")?
            .as_str()
            .map(str::to_owned)
    });
    if hash.as_deref() != Some(want.hash.as_str()) {
        tally.mismatch(format!(
            "manifest report_hash {hash:?}, reference {}",
            want.hash
        ));
    }
    let run = proc::replay(&ctx.pmdbg, &trace_path, model, 2, None)?;
    check(tally, &run, &want, "warm-up replay --threads 2");

    // Timed: 1-thread, 2-thread, short and event-free replays in turn
    // until the run length is up, so every kind samples the whole run.
    let (mut t1, mut t2, mut small, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline || t2.len() < 3 {
        let run = proc::replay(&ctx.pmdbg, &trace_path, model, 1, None)?;
        check(tally, &run, &want, "replay");
        t1.push(run.wall.as_secs_f64());
        rss.push(run.exit.max_rss_kib as f64 / 1024.0);
        let run = proc::replay(&ctx.pmdbg, &trace_path, model, 2, None)?;
        check(tally, &run, &want, "replay --threads 2");
        t2.push(run.wall.as_secs_f64());
        for _ in 0..SHORT_PER_ROUND {
            let run = proc::replay(&ctx.pmdbg, &short_path, model, 1, None)?;
            check(tally, &run, &want_short, "short replay");
            small.push(run.wall.as_secs_f64());
        }
        for _ in 0..EMPTY_PER_ROUND {
            let run = proc::replay(&ctx.pmdbg, &empty_path, model, 1, None)?;
            check(tally, &run, &want_empty, "event-free replay");
            setups.push(run.wall.as_secs_f64());
        }
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let mev = want.events as f64 / 1e6;
    eprintln!(
        "pmbench: {} events: {} x 1-thread replays (fastest {:.1} ms, median {:.1} ms), \
         {} x 2-thread (fastest {:.1} ms, median {:.1} ms); {} x {}-event short replays \
         (p50 {:.2} ms, p90 {:.2} ms); {} x event-free (p50 {:.2} ms, p90 {:.2} ms)",
        want.events,
        t1.len(),
        min(&t1) * 1e3,
        median(&t1) * 1e3,
        t2.len(),
        min(&t2) * 1e3,
        median(&t2) * 1e3,
        small.len(),
        want_short.events,
        median(&small) * 1e3,
        quantile(&small, 9, 10) * 1e3,
        setups.len(),
        median(&setups) * 1e3,
        quantile(&setups, 9, 10) * 1e3
    );
    Ok(vec![
        Metric::new("throughput_mev_s", "Mev/s", mev / min(&t1)),
        Metric::new("parallel_mev_s", "Mev/s", mev / min(&t2)),
        Metric::new("latency_ms", "ms", min(&small) * 1e3),
        Metric::new("rss_mib", "MiB", median(&rss)),
        Metric::new("setup_s", "s", median(&setups)),
    ])
}
