//! `pmbench`: one command measuring `pmdbg replay` and `pmdbg serve` end
//! to end on four workloads, plus a traced per-layer ledger.
//!
//! ```text
//! pmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--scale full|smoke] [--pmdbg <path>]
//! pmbench series --runs <n> --seed <first> --out <file> [--label <text>]
//!         [--pmdbg <path>]
//! pmbench compare <a.json> <b.json>
//! ```
//!
//! Run from the repository root: without `--pmdbg` the command first
//! builds `pmdbg` from source with cargo. See README.md for the metrics.

mod batch;
mod compare;
mod proc;
mod report;
mod serve;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::Tally;
use workload::{Mode, Scale, Workload};

/// Everything one run needs.
pub struct Ctx {
    /// The workload under test.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Run length.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// The `pmdbg` binary.
    pub pmdbg: PathBuf,
    /// Scratch directory for this run (traces, journals, sockets).
    pub dir: PathBuf,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("series") => compare::series(&args[1..]),
        Some("prepare") => batch::prepare(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("pmbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Value of `--flag` in `args`.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parsed value of `--flag`, or `default` when absent.
pub fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} expects a number, got `{text}`")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

/// The `pmdbg` to drive: `--pmdbg <path>`, or else built from the
/// repository in the current directory into cargo's target directory.
pub fn pmdbg(args: &[String]) -> Result<PathBuf, String> {
    if let Some(path) = flag(args, "--pmdbg") {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(format!("no pmdbg binary at {}", path.display()))
        };
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "pm-cli",
            "--bin",
            "pmdbg",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo to build pmdbg: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building pmdbg failed ({status}); run from the repository root"
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("pmdbg"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed: u64 = parsed(args, "--seed", None)?;
    let seconds: f64 = parsed(args, "--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    let scale = match flag(args, "--scale").unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        other => return Err(format!("--scale expects full or smoke, got `{other}`")),
    };
    let pmdbg = pmdbg(args)?;
    let base = Path::new("target")
        .join("pmbench")
        .join(seed.to_string())
        .join(workload.name());
    let dir = base.join("work");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        scale,
        pmdbg,
        dir,
    };

    let mut tally = Tally::default();
    let measured = if trace {
        traced::run(&ctx, &mut tally, &base.join("spans.json"))
    } else {
        match workload.mode() {
            Mode::Batch => batch::run(&ctx, &mut tally),
            Mode::Serve { .. } => serve::run(&ctx, &mut tally),
        }
    };
    // Traces and journals go once the run is over; only spans.json stays.
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let metrics = measured.map_err(|e| format!("{name}: {e}"))?;
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally.problems.push(format!("{} is not finite", m.name));
    }
    report::print(name, trace, &tally, &metrics);
    if tally.failed > 0 || tally.mismatched > 0 || metrics.iter().any(|m| !m.value.is_finite()) {
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}
