//! `pmdbg` — the command-line driver.
//!
//! Mirrors the paper artifact's workflow (`run.sh <CHECKER> <INPUTSIZE>
//! <WORKLOAD>`): pick a workload and a detector, run, and read the bug
//! summary and bookkeeping statistics. The library half holds the argument
//! parsing and command execution so they are unit-testable; `main.rs` is a
//! thin shell.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pm_baselines::{Nulgrind, PmemcheckLike, PmtestLike, XfdetectorLike};
use pm_chaos::{
    replay_plan, run_sweep, ChaosError, CorruptSweep, CrashPointSweep, DaemonCrashSweep,
    MemPressureSweep, PerturbSweep, ServeSweep, SuperviseSweep, Sweep, SweepOptions, SweepReport,
    ThreadCrashSweep,
};
use pm_obs::{BugDigest, MetricsRegistry, RunManifest};
use pm_serve::{
    push_bytes, push_bytes_keyed, recover_dir, Listen, PushResponse, ServeConfig, Server,
    SessionStatus,
};
use pm_trace::{
    BugSummary, Detector, IngestLimits, IngestMode, OrderSpec, PmRuntime, ReportDigest, Trace,
};
use pm_workloads::Workload;
use pmdebugger::{
    detect_supervised, DebuggerConfig, FailMode, FaultPlan, ParallelConfig, PersistencyModel,
    PmDebugger, SupervisorConfig, MAX_THREADS,
};

/// Supervision flags shared by `run` and `replay`. They tune the
/// supervised pipeline ([`pmdebugger::detect_supervised`]) that every
/// `--threads` ≥ 2 run goes through, so they need `--tool pmdebugger` and
/// `--threads` ≥ 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperviseArgs {
    /// `--max-retries <n>`: threaded re-attempts per failed shard.
    pub max_retries: Option<u32>,
    /// `--shard-deadline-ms <n>`: wall-clock ceiling per shard attempt.
    pub shard_deadline_ms: Option<u64>,
    /// `--fail-mode strict|degrade`.
    pub fail_mode: Option<FailMode>,
    /// `--fault-seed <n>`: inject a seeded detector [`FaultPlan`]
    /// (testing/chaos aid — faults detection, not the workload).
    pub fault_seed: Option<u64>,
}

impl SuperviseArgs {
    /// The [`SupervisorConfig`] these flags describe. Unset flags keep the
    /// library defaults (one retry, sequential fallback, degrade).
    fn config(&self) -> SupervisorConfig {
        let mut sup = SupervisorConfig::default();
        if let Some(retries) = self.max_retries {
            sup = sup.with_max_retries(retries);
        }
        if let Some(ms) = self.shard_deadline_ms {
            sup = sup.with_shard_deadline(std::time::Duration::from_millis(ms));
        }
        if let Some(mode) = self.fail_mode {
            sup = sup.with_fail_mode(mode);
        }
        sup
    }
}

/// The `--sweep` names, in the order the docs list them.
pub const SWEEPS: [&str; 8] = [
    CorruptSweep::NAME,
    SuperviseSweep::NAME,
    ServeSweep::NAME,
    ThreadCrashSweep::NAME,
    DaemonCrashSweep::NAME,
    MemPressureSweep::NAME,
    CrashPointSweep::NAME,
    PerturbSweep::NAME,
];

/// The sweeps that record a workload trace (`--workload`, `--ops`).
const WORKLOAD_SWEEPS: [&str; 2] = [CrashPointSweep::NAME, PerturbSweep::NAME];

/// The workload trace a workload sweep runs without `--workload`: its CI
/// case.
const CI_WORKLOAD: (&str, usize) = ("memcached", 64);

/// Flags of `pmdbg chaos --sweep`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepArgs {
    /// Which sweep (one of [`SWEEPS`]).
    pub sweep: String,
    /// Plans to run (`None` = the sweep's CI count).
    pub plans: Option<usize>,
    /// Sweep seed (`None` = the sweep's CI seed).
    pub seed: Option<u64>,
    /// Optional wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
    /// Trace file to corrupt (`corrupt` only, which requires it).
    pub trace: Option<String>,
    /// Workload to record (`crash-points` and `perturb`; `None` = the CI
    /// case, memcached).
    pub workload: Option<String>,
    /// Operations to record (`None` = the CI case's 64).
    pub ops: Option<usize>,
    /// Emit the JSON report instead of the human summary.
    pub json: bool,
    /// `--replay <seed>:<index>`: rerun exactly that one plan.
    pub replay: Option<(u64, usize)>,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `pmdbg run --workload <name> --ops <n> [--tool <name>] [--order <file>]
    /// [--threads <n>]`
    Run {
        /// Workload name (see `pmdbg list`).
        workload: String,
        /// Operation count.
        ops: usize,
        /// Detector name (default `pmdebugger`).
        tool: String,
        /// Optional order-spec file path.
        order: Option<String>,
        /// Detection worker threads (1 = sequential engine; >1 runs the
        /// supervised sharded pipeline, pmdebugger only).
        threads: usize,
        /// Write a [`RunManifest`] (JSON) to this path after the run.
        metrics: Option<String>,
        /// Supervision flags for the sharded pipeline (`threads` > 1).
        supervise: SuperviseArgs,
    },
    /// `pmdbg corpus` — run the 78-case corpus through every tool (Table 6).
    Corpus,
    /// `pmdbg record --workload <name> --ops <n> [--format text|bin]
    /// --out <file>` — record a trace to the v1 text or v2 binary format.
    Record {
        /// Workload name.
        workload: String,
        /// Operation count.
        ops: usize,
        /// Output format: `text` (pm-trace v1) or `bin` (pm-trace v2).
        format: String,
        /// Output file path.
        out: String,
    },
    /// `pmdbg replay --trace <file> [--salvage|--strict] [--tool <name>]
    /// [--model <m>] [--threads <n>]` — replay a recorded trace (either
    /// format, auto-sniffed) through a detector.
    Replay {
        /// Trace file path.
        trace: String,
        /// Detector name.
        tool: String,
        /// Persistency model for PMDebugger (strict/epoch/strand).
        model: String,
        /// Optional order-spec file.
        order: Option<String>,
        /// Detection worker threads (1 = sequential engine; >1 runs the
        /// supervised sharded pipeline, pmdebugger only).
        threads: usize,
        /// Write a [`RunManifest`] (JSON) to this path after the replay.
        metrics: Option<String>,
        /// Skip corrupt frames and replay what survives (`--salvage`)
        /// instead of aborting on the first corruption (`--strict`).
        salvage: bool,
        /// Supervision flags for the sharded pipeline (`threads` > 1).
        supervise: SuperviseArgs,
    },
    /// `pmdbg chaos --sweep <name> [--plans <n>] [--seed <n>]
    /// [--budget-ms <n>] [--trace <file>] [--workload <name>] [--ops <n>]
    /// [--json] [--replay <seed>:<index>]`
    /// — run one of the seeded chaos sweeps (see [`SWEEPS`]).
    Sweep(SweepArgs),
    /// `pmdbg stats <manifest.json>` — render a run manifest as a table.
    Stats {
        /// Manifest file path (written by `--metrics`).
        file: String,
    },
    /// `pmdbg characterize --workload <name> --ops <n>` — Figure 2 stats.
    Characterize {
        /// Workload name.
        workload: String,
        /// Operation count.
        ops: usize,
    },
    /// `pmdbg serve --listen <addr> [--model <m>] [--strict]
    /// [--max-sessions <n>] [--max-events <n>] [--session-deadline-ms <n>]
    /// [--max-retries <n>] [--fail-mode strict|degrade] [--drain-ms <n>]
    /// [--metrics <file>] [--mem-budget <bytes>]
    /// [--session-mem-budget <bytes>] [--spill-dir <dir>]` — run the
    /// streaming detection service until SIGINT/SIGTERM, then drain and
    /// write the final manifest.
    Serve {
        /// Listen address: a unix-socket path (contains `/`) or TCP
        /// `host:port`.
        listen: String,
        /// Persistency model sessions detect under (strict/epoch/strand).
        model: String,
        /// Salvage corrupt frames (default) instead of failing the
        /// session on the first corruption (`--strict`).
        salvage: bool,
        /// Concurrent sessions before shedding.
        max_sessions: usize,
        /// Per-session decoded-event budget.
        max_events: Option<u64>,
        /// Per-session wall-clock deadline; 0 disables it.
        session_deadline_ms: Option<u64>,
        /// Session re-feeds from checkpoint after a panic before
        /// quarantining.
        max_retries: Option<u32>,
        /// Degrade (quarantine with partials) or strict (typed error)
        /// on retry exhaustion.
        fail_mode: Option<FailMode>,
        /// Drain budget on shutdown before in-flight sessions are
        /// hard-stopped.
        drain_ms: u64,
        /// Write the final [`RunManifest`] (JSON) here on shutdown.
        metrics: Option<String>,
        /// Write-ahead journal directory: keyed sessions become
        /// crash-durable, and the directory is recovered on startup.
        journal_dir: Option<String>,
        /// Global tracked-byte budget across all live sessions; admission
        /// sheds with a structured `bytes_wanted` once exhausted.
        mem_budget: Option<u64>,
        /// Per-session tracked-byte budget; a session crossing it is
        /// spilled to disk and transparently rehydrated.
        session_mem_budget: Option<u64>,
        /// Directory for spilled session checkpoints (defaults to the
        /// journal directory when one is configured).
        spill_dir: Option<String>,
    },
    /// `pmdbg push --addr <addr> --trace <file> [--session <key>]
    /// [--json]` — stream a recorded trace to a running server and
    /// report its verdict. With `--session`, the push is keyed: against
    /// a journaling server it becomes crash-durable (resume or replay
    /// after a daemon restart).
    Push {
        /// Server address (same syntax as `serve --listen`).
        addr: String,
        /// Trace file to push (v1 text is converted to v2 first).
        trace: String,
        /// Session key for a crash-durable (journaled) push.
        session: Option<String>,
        /// Emit the raw JSON response line instead of the human summary.
        json: bool,
    },
    /// `pmdbg recover <dir> [--json]` — offline recovery scan of a
    /// journal directory: per-key durable state (completed verdict or
    /// checkpoint), torn-tail damage, and replayable record counts,
    /// without starting a server.
    Recover {
        /// Journal directory to scan.
        dir: String,
        /// Emit the JSON summary instead of the human table.
        json: bool,
    },
    /// `pmdbg list` — list workloads and tools.
    List,
    /// `pmdbg help`.
    Help,
}

/// Argument-parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl std::error::Error for UsageError {}

/// Result of a successfully executed command, carrying what the process
/// exit code needs: whether the run surfaced bugs (or, for `torture`,
/// invariant violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// The command completed but found bugs (exit code 1).
    pub bugs_found: bool,
    /// A supervised run completed with quarantined shards (exit code 4
    /// when no bugs were found; bugs dominate).
    pub degraded: bool,
}

impl Outcome {
    fn clean() -> Self {
        Outcome {
            bugs_found: false,
            degraded: false,
        }
    }

    fn from_report_count(n: usize) -> Self {
        Outcome {
            bugs_found: n > 0,
            degraded: false,
        }
    }
}

/// Execution failure, split by whose fault it is — the exit-code contract
/// distinguishes bad input (exit 2) from our own failures (exit 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Unusable input: unknown workload/tool/model, unreadable files,
    /// trace parse/ingest failures (exit code 2).
    Input(String),
    /// The command itself failed: output write errors, campaign crashes
    /// (exit code 3).
    Internal(String),
}

impl ExecError {
    /// The user-facing message, regardless of classification.
    pub fn message(&self) -> &str {
        match self {
            ExecError::Input(m) | ExecError::Internal(m) => m,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ExecError {}

/// Maps output-formatting failures to [`ExecError::Internal`].
fn wr(e: fmt::Error) -> ExecError {
    ExecError::Internal(e.to_string())
}

/// The usage banner.
pub const USAGE: &str = "\
pmdbg — PMDebugger reproduction CLI

USAGE:
  pmdbg run --workload <name> [--ops <n>] [--tool <name>] [--order <file>]
            [--threads <n>] [--metrics <file>] [--max-retries <n>]
            [--shard-deadline-ms <n>] [--fail-mode strict|degrade]
            [--fault-seed <n>]
  pmdbg record --workload <name> [--ops <n>] [--format text|bin] --out <file>
  pmdbg replay --trace <file> [--salvage|--strict] [--tool <name>]
               [--model strict|epoch|strand] [--threads <n>] [--metrics <file>]
               [--max-retries <n>] [--shard-deadline-ms <n>]
               [--fail-mode strict|degrade] [--fault-seed <n>]
  pmdbg chaos --sweep <name> [--plans <n>] [--seed <n>] [--budget-ms <n>]
              [--trace <file>] [--workload <name>] [--ops <n>] [--json]
              [--replay <seed>:<index>]
  pmdbg serve --listen <addr> [--model strict|epoch|strand] [--strict]
              [--max-sessions <n>] [--max-events <n>]
              [--session-deadline-ms <n>] [--max-retries <n>]
              [--fail-mode strict|degrade] [--drain-ms <n>] [--metrics <file>]
              [--journal-dir <dir> | --no-journal] [--mem-budget <bytes>]
              [--session-mem-budget <bytes>] [--spill-dir <dir>]
  pmdbg push --addr <addr> --trace <file> [--session <key>] [--json]
  pmdbg recover <journal-dir> [--json]
  pmdbg stats <manifest.json>
  pmdbg characterize --workload <name> [--ops <n>]
  pmdbg corpus
  pmdbg list
  pmdbg help

TOOLS:     pmdebugger (default), pmemcheck, pmtest, xfdetector, nulgrind
THREADS:   --threads >= 2 runs pmdebugger's sharded pipeline under a
           supervisor (1 retry, sequential fallback, --fail-mode degrade);
           --max-retries, --shard-deadline-ms, --fail-mode and --fault-seed
           tune it and need --threads >= 2
WORKLOADS: b_tree c_tree r_tree rb_tree hashmap_tx hashmap_atomic
           synth_strand memcached redis a_YCSB..f_YCSB
           treiber_stack ms_queue cas_hash (concurrent)
SWEEPS:    name, CI --plans, default --seed, faults -> violation kinds (any
           sweep may also report `abort`, I/O or startup failures; every
           violation prints the --replay <seed>:<index> of its plan)
  corrupt       500  806405      flips/cuts/splices/junk in a --trace image
                (required) -> floor-violation prefix-mismatch detector-mismatch
  supervise     200  0x5AFE0001  worker panics, delays, alloc pressure ->
                casualty-mismatch lost-event-mismatch survivor-divergence ...
  serve         200  0x5E551085  hostile clients -> hash-divergence
                loss-mismatch quarantine-hash-divergence host-panic ...
  thread-crash  100  0x7C4A5AD0  killed thread subsets -> survivor-divergence
  daemon-crash  100  0x7C4A5AD0  daemon kills, damaged journals ->
                verdict-recomputed verdict-diverged phantom-verdict ...
  mem-pressure  100  0x7C4A5AD0  starved budgets, allocator vetoes ->
                verdict-divergence tracked-bytes-leak reject-count-mismatch ...
  crash-points  71   0xC4A05     crashes at sampled boundaries of a --workload
                trace (default memcached, --ops 64) -> unrecoverable
                detector-finding (a fixed cap of 256 plans; --plans keeps
                a prefix of the ascending sample)
  perturb       119  0xC4A05     one dropped/duplicated/reordered flush or
                fence, torn store or moved epoch marker per plan, same
                --workload default -> tallies only (at most 512 plans,
                round-robin over the fault classes, in trace order within
                each; --seed is ignored; `untested` counts the rest)
EXIT CODES: 0 clean run, 1 bugs or sweep violations found, 2 bad usage or
            parse/ingest/recover failure, 3 internal error (incl.
            strict-mode shard or session failure), 4 degraded-but-clean
            run (shards or serve sessions quarantined, no bugs in
            survivors)
EXAMPLE:   pmdbg run --workload b_tree --ops 1024 --tool pmdebugger";

fn parse_threads(text: String) -> Result<usize, UsageError> {
    let threads: usize = text
        .parse()
        .map_err(|_| UsageError("--threads expects a number".into()))?;
    if threads == 0 || threads > MAX_THREADS {
        return Err(UsageError(format!(
            "--threads must be between 1 and {MAX_THREADS}"
        )));
    }
    Ok(threads)
}

fn parse_fail_mode(text: String) -> Result<FailMode, UsageError> {
    match text.as_str() {
        "strict" => Ok(FailMode::Strict),
        "degrade" => Ok(FailMode::Degrade),
        other => Err(UsageError(format!(
            "--fail-mode expects `strict` or `degrade`, got `{other}`"
        ))),
    }
}

fn parse_number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, UsageError> {
    text.parse()
        .map_err(|_| UsageError(format!("{name} expects a number")))
}

/// Parses a `--replay <seed>:<index>` value.
fn parse_replay(text: &str) -> Result<(u64, usize), UsageError> {
    text.split_once(':')
        .and_then(|(seed, index)| Some((seed.parse().ok()?, index.parse().ok()?)))
        .ok_or_else(|| UsageError(format!("--replay expects <seed>:<index>, got `{text}`")))
}

/// Parses `args` (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, UsageError> {
    let mut it = args.iter();
    let sub = it.next().map(String::as_str).unwrap_or("help");
    match sub {
        "run" | "characterize" => {
            let mut workload: Option<String> = None;
            let mut ops = 1024usize;
            let mut tool = "pmdebugger".to_owned();
            let mut order: Option<String> = None;
            let mut threads = 1usize;
            let mut metrics: Option<String> = None;
            let mut supervise = SuperviseArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--workload" | "-w" => workload = Some(value(flag)?),
                    "--ops" | "-n" => {
                        ops = value(flag)?
                            .parse()
                            .map_err(|_| UsageError("--ops expects a number".into()))?;
                    }
                    "--tool" | "-t" => tool = value(flag)?,
                    "--order" | "-o" => order = Some(value(flag)?),
                    "--threads" | "-j" if sub == "run" => threads = parse_threads(value(flag)?)?,
                    "--metrics" if sub == "run" => metrics = Some(value(flag)?),
                    "--max-retries" if sub == "run" => {
                        supervise.max_retries = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--shard-deadline-ms" if sub == "run" => {
                        supervise.shard_deadline_ms = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--fail-mode" if sub == "run" => {
                        supervise.fail_mode = Some(parse_fail_mode(value(flag)?)?);
                    }
                    "--fault-seed" if sub == "run" => {
                        supervise.fault_seed = Some(parse_number(flag, value(flag)?)?);
                    }
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            let workload = workload.ok_or_else(|| UsageError("--workload is required".into()))?;
            if sub == "run" {
                Ok(Command::Run {
                    workload,
                    ops,
                    tool,
                    order,
                    threads,
                    metrics,
                    supervise,
                })
            } else {
                Ok(Command::Characterize { workload, ops })
            }
        }
        "record" => {
            let mut workload: Option<String> = None;
            let mut ops = 1024usize;
            let mut format = "text".to_owned();
            let mut out_path: Option<String> = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--workload" | "-w" => workload = Some(value(flag)?),
                    "--ops" | "-n" => {
                        ops = value(flag)?
                            .parse()
                            .map_err(|_| UsageError("--ops expects a number".into()))?;
                    }
                    "--format" | "-f" => {
                        format = value(flag)?;
                        if format != "text" && format != "bin" {
                            return Err(UsageError(format!(
                                "--format expects `text` or `bin`, got `{format}`"
                            )));
                        }
                    }
                    "--out" => out_path = Some(value(flag)?),
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Record {
                workload: workload.ok_or_else(|| UsageError("--workload is required".into()))?,
                ops,
                format,
                out: out_path.ok_or_else(|| UsageError("--out is required".into()))?,
            })
        }
        "replay" => {
            let mut trace: Option<String> = None;
            let mut tool = "pmdebugger".to_owned();
            let mut model = "strict".to_owned();
            let mut order: Option<String> = None;
            let mut threads = 1usize;
            let mut metrics: Option<String> = None;
            let mut salvage = false;
            let mut supervise = SuperviseArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--trace" => trace = Some(value(flag)?),
                    "--tool" | "-t" => tool = value(flag)?,
                    "--model" | "-m" => model = value(flag)?,
                    "--order" | "-o" => order = Some(value(flag)?),
                    "--threads" | "-j" => threads = parse_threads(value(flag)?)?,
                    "--metrics" => metrics = Some(value(flag)?),
                    "--salvage" => salvage = true,
                    "--strict" => salvage = false,
                    "--max-retries" => {
                        supervise.max_retries = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--shard-deadline-ms" => {
                        supervise.shard_deadline_ms = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--fail-mode" => supervise.fail_mode = Some(parse_fail_mode(value(flag)?)?),
                    "--fault-seed" => {
                        supervise.fault_seed = Some(parse_number(flag, value(flag)?)?);
                    }
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Replay {
                trace: trace.ok_or_else(|| UsageError("--trace is required".into()))?,
                tool,
                model,
                order,
                threads,
                metrics,
                salvage,
                supervise,
            })
        }
        "chaos" => {
            let mut sweep = SweepArgs::default();
            let mut sweep_name: Option<String> = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--sweep" => sweep_name = Some(value(flag)?),
                    "--plans" => sweep.plans = Some(parse_number(flag, value(flag)?)?),
                    "--trace" => sweep.trace = Some(value(flag)?),
                    "--workload" | "-w" => sweep.workload = Some(value(flag)?),
                    "--ops" | "-n" => sweep.ops = Some(parse_number(flag, value(flag)?)?),
                    "--replay" => sweep.replay = Some(parse_replay(&value(flag)?)?),
                    "--seed" => sweep.seed = Some(parse_number(flag, value(flag)?)?),
                    "--budget-ms" => sweep.budget_ms = Some(parse_number(flag, value(flag)?)?),
                    "--json" => sweep.json = true,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            let Some(name) = sweep_name else {
                return Err(UsageError(format!(
                    "chaos needs --sweep <name> (one of: {})",
                    SWEEPS.join(", ")
                )));
            };
            if !SWEEPS.contains(&name.as_str()) {
                return Err(UsageError(format!(
                    "unknown sweep `{name}` (one of: {})",
                    SWEEPS.join(", ")
                )));
            }
            if (name == CorruptSweep::NAME) != sweep.trace.is_some() {
                return Err(UsageError(
                    "--trace is required by --sweep corrupt and read by no other sweep".into(),
                ));
            }
            if (sweep.workload.is_some() || sweep.ops.is_some())
                && !WORKLOAD_SWEEPS.contains(&name.as_str())
            {
                return Err(UsageError(format!(
                    "--workload and --ops are read by --sweep {} only",
                    WORKLOAD_SWEEPS.join(" and ")
                )));
            }
            if sweep.replay.is_some() && (sweep.seed.is_some() || sweep.plans.is_some()) {
                return Err(UsageError(
                    "--replay <seed>:<index> names the one plan to run; drop --seed/--plans".into(),
                ));
            }
            sweep.sweep = name;
            Ok(Command::Sweep(sweep))
        }
        "serve" => {
            let mut listen: Option<String> = None;
            let mut model = "strict".to_owned();
            let mut salvage = true;
            let mut max_sessions = 64usize;
            let mut max_events: Option<u64> = None;
            let mut session_deadline_ms: Option<u64> = None;
            let mut max_retries: Option<u32> = None;
            let mut fail_mode: Option<FailMode> = None;
            let mut drain_ms = 5000u64;
            let mut metrics: Option<String> = None;
            let mut journal_dir: Option<String> = None;
            let mut mem_budget: Option<u64> = None;
            let mut session_mem_budget: Option<u64> = None;
            let mut spill_dir: Option<String> = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--listen" | "-l" => listen = Some(value(flag)?),
                    "--model" | "-m" => model = value(flag)?,
                    "--strict" => salvage = false,
                    "--salvage" => salvage = true,
                    "--max-sessions" => max_sessions = parse_number(flag, value(flag)?)?,
                    "--max-events" => max_events = Some(parse_number(flag, value(flag)?)?),
                    "--session-deadline-ms" => {
                        session_deadline_ms = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--max-retries" => max_retries = Some(parse_number(flag, value(flag)?)?),
                    "--fail-mode" => fail_mode = Some(parse_fail_mode(value(flag)?)?),
                    "--drain-ms" => drain_ms = parse_number(flag, value(flag)?)?,
                    "--metrics" => metrics = Some(value(flag)?),
                    "--journal-dir" => journal_dir = Some(value(flag)?),
                    "--no-journal" => journal_dir = None,
                    "--mem-budget" => mem_budget = Some(parse_number(flag, value(flag)?)?),
                    "--session-mem-budget" => {
                        session_mem_budget = Some(parse_number(flag, value(flag)?)?);
                    }
                    "--spill-dir" => spill_dir = Some(value(flag)?),
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Serve {
                listen: listen.ok_or_else(|| UsageError("--listen is required".into()))?,
                model,
                salvage,
                max_sessions,
                max_events,
                session_deadline_ms,
                max_retries,
                fail_mode,
                drain_ms,
                metrics,
                journal_dir,
                mem_budget,
                session_mem_budget,
                spill_dir,
            })
        }
        "push" => {
            let mut addr: Option<String> = None;
            let mut trace: Option<String> = None;
            let mut session: Option<String> = None;
            let mut json = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| UsageError(format!("missing value for {name}")))
                };
                match flag.as_str() {
                    "--addr" | "-a" => addr = Some(value(flag)?),
                    "--trace" => trace = Some(value(flag)?),
                    "--session" | "-s" => session = Some(value(flag)?),
                    "--json" => json = true,
                    other => return Err(UsageError(format!("unknown flag `{other}`"))),
                }
            }
            if let Some(key) = &session {
                if !pm_serve::valid_session_key(key) {
                    return Err(UsageError(format!(
                        "invalid session key `{key}` (1-{} chars of [A-Za-z0-9._-])",
                        pm_serve::MAX_SESSION_KEY
                    )));
                }
            }
            Ok(Command::Push {
                addr: addr.ok_or_else(|| UsageError("--addr is required".into()))?,
                trace: trace.ok_or_else(|| UsageError("--trace is required".into()))?,
                session,
                json,
            })
        }
        "recover" => {
            let mut dir: Option<String> = None;
            let mut json = false;
            for arg in it.by_ref() {
                match arg.as_str() {
                    "--json" => json = true,
                    other if dir.is_none() && !other.starts_with('-') => {
                        dir = Some(other.to_owned());
                    }
                    other => return Err(UsageError(format!("unexpected argument `{other}`"))),
                }
            }
            Ok(Command::Recover {
                dir: dir.ok_or_else(|| UsageError("recover expects a journal directory".into()))?,
                json,
            })
        }
        "stats" => {
            let file = it
                .next()
                .cloned()
                .ok_or_else(|| UsageError("stats expects a manifest file path".into()))?;
            if let Some(extra) = it.next() {
                return Err(UsageError(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Stats { file })
        }
        "corpus" => Ok(Command::Corpus),
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(UsageError(format!("unknown command `{other}`"))),
    }
}

/// Looks up a workload by its Table 4 name (plus the concurrent
/// lock-free suite).
pub fn workload_by_name(name: &str) -> Option<Box<dyn Workload>> {
    if let Some(found) = pm_workloads::all_benchmarks()
        .into_iter()
        .find(|w| w.name() == name)
    {
        return Some(found);
    }
    match name {
        "treiber_stack" => return Some(Box::new(pm_workloads::TreiberStack::default())),
        "ms_queue" => return Some(Box::new(pm_workloads::MsQueue::default())),
        "cas_hash" => return Some(Box::new(pm_workloads::CasHash::default())),
        _ => {}
    }
    pm_workloads::YcsbLoad::ALL
        .iter()
        .find(|l| l.label() == name)
        .map(|l| Box::new(pm_workloads::Ycsb::new(*l, 42)) as Box<dyn Workload>)
}

fn persistency(model: pm_workloads::Model) -> PersistencyModel {
    match model {
        pm_workloads::Model::Strict => PersistencyModel::Strict,
        pm_workloads::Model::Epoch => PersistencyModel::Epoch,
        pm_workloads::Model::Strand => PersistencyModel::Strand,
    }
}

/// Instantiates a detector by CLI name.
pub fn tool_by_name(
    name: &str,
    model: PersistencyModel,
    order: Option<&OrderSpec>,
) -> Option<Box<dyn Detector>> {
    match name {
        "pmdebugger" => {
            let mut config = DebuggerConfig::for_model(model);
            if let Some(spec) = order {
                config = config.with_order_spec(spec.clone());
            }
            Some(Box::new(PmDebugger::new(config)))
        }
        "pmemcheck" => Some(Box::new(PmemcheckLike::new())),
        "pmtest" => Some(Box::new(PmtestLike::new())),
        "xfdetector" => Some(Box::new(XfdetectorLike::new(
            order.cloned().unwrap_or_default(),
        ))),
        "nulgrind" => Some(Box::new(Nulgrind)),
        _ => None,
    }
}

/// Like [`tool_by_name`], additionally attaching `registry` to the
/// sequential pmdebugger engine. The second half of the result says
/// whether the detector self-counts its `rule.*` firings at finish (the
/// sequential engine does); otherwise the caller derives them from the
/// final reports with [`manifest_digest`].
fn tool_with_metrics(
    name: &str,
    model: PersistencyModel,
    order: Option<&OrderSpec>,
    registry: Option<&MetricsRegistry>,
) -> Result<(Box<dyn Detector>, bool), String> {
    if name == "pmdebugger" {
        if let Some(registry) = registry {
            let mut config = DebuggerConfig::for_model(model);
            if let Some(spec) = order {
                config = config.with_order_spec(spec.clone());
            }
            return Ok((Box::new(PmDebugger::with_metrics(config, registry)), true));
        }
    }
    tool_by_name(name, model, order)
        .map(|detector| (detector, false))
        .ok_or_else(|| format!("unknown tool `{name}` (try `pmdbg list`)"))
}

/// The manifest's view of a run's report digest. With `count_rules` it
/// first adds `rule.<kind>` counters from the digest, for detectors that
/// do not self-count firings (baselines and the parallel pipeline).
fn manifest_digest(
    registry: &MetricsRegistry,
    digest: &ReportDigest,
    count_rules: bool,
) -> BugDigest {
    if count_rules {
        for (kind, count) in digest.kinds() {
            registry
                .counter(&format!("rule.{}", kind.name()))
                .add(count);
        }
    }
    digest.to_bug_digest()
}

/// Exports a replay's [`IngestReport`](pm_trace::IngestReport) as the
/// `ingest.*` manifest counters.
fn count_ingest(registry: &MetricsRegistry, ingest: &pm_trace::IngestReport) {
    for (name, value) in [
        ("frames_ok", ingest.frames_ok),
        ("frames_clean", ingest.frames_clean),
        ("frames_resynced", ingest.frames_resynced),
        ("frames_skipped", ingest.frames_skipped),
        ("resyncs", ingest.resyncs),
        ("bytes_salvaged", ingest.bytes_salvaged),
        ("elapsed_ms", ingest.elapsed.as_millis() as u64),
    ] {
        registry.counter(&format!("ingest.{name}")).add(value);
    }
}

/// Counts a pre-recorded trace's events into `events.<kind>` counters, for
/// commands that consume a [`Trace`] instead of a live runtime tap. Like
/// the tap ([`PmRuntime::observe`]), it creates every kind's counter, so
/// absent kinds read 0.
fn count_trace_kinds(registry: &MetricsRegistry, trace: &Trace) {
    let counts = trace.kind_counts();
    for kind in pm_trace::PmEvent::KIND_NAMES {
        registry
            .counter(&format!("events.{kind}"))
            .add(counts.get(kind).copied().unwrap_or(0));
    }
}

fn model_label(model: PersistencyModel) -> &'static str {
    match model {
        PersistencyModel::Strict => "strict",
        PersistencyModel::Epoch => "epoch",
        PersistencyModel::Strand => "strand",
    }
}

/// Writes a report, manifest or recorded trace atomically: the bytes go
/// to a sibling `<path>.tmp` first and are renamed over the destination,
/// so a crash mid-write can never leave a torn half-file behind — the
/// destination is either the previous intact file or the complete new
/// one, never a prefix.
fn write_atomic(path: &str, contents: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents)?;
    // Test hook: die between the temp write and the rename — exactly
    // where a kill would tear a non-atomic `fs::write` destination.
    if std::env::var_os("PMDBG_KILL_BEFORE_RENAME").is_some() {
        std::process::abort();
    }
    std::fs::rename(&tmp, path)
}

/// Absorbs `registry` into a fresh manifest and writes it to `path`,
/// noting the destination on `out`.
#[allow(clippy::too_many_arguments)]
fn write_manifest(
    path: &str,
    tool: &str,
    workload: &str,
    model: &str,
    ops: usize,
    threads: usize,
    registry: &MetricsRegistry,
    bugs: BugDigest,
    out: &mut dyn fmt::Write,
) -> Result<(), ExecError> {
    let mut manifest = RunManifest::new(tool, workload, model);
    manifest.ops = ops as u64;
    manifest.threads = threads as u64;
    manifest.absorb_snapshot(&registry.snapshot());
    manifest.bugs = bugs;
    write_atomic(path, manifest.to_json().as_bytes())
        .map_err(|e| ExecError::Internal(format!("cannot write {path}: {e}")))?;
    writeln!(out, "metrics manifest -> {path}").map_err(wr)
}

/// Replays a v2 binary image through the sequential pmdebugger engine with
/// zero-copy ingestion: frames are CRC-checked and decoded in place into
/// borrowed events ([`pm_trace::PmEventRef`]) fed straight to the engine —
/// no owned [`Trace`], no per-event allocation. Reports, salvage/ingest
/// accounting and the metrics manifest are the same as a parallel replay
/// (`--threads N`) of the same image.
#[allow(clippy::too_many_arguments)]
fn execute_replay_zero_copy(
    mut walker: pm_trace::FrameWalker<'_>,
    path: &str,
    tool: &str,
    salvage: bool,
    model: PersistencyModel,
    spec: Option<&OrderSpec>,
    metrics: Option<&String>,
    out: &mut dyn fmt::Write,
) -> Result<Outcome, ExecError> {
    let registry = metrics.map(|_| MetricsRegistry::new());
    let mut config = DebuggerConfig::for_model(model);
    if let Some(spec) = spec {
        config = config.with_order_spec(spec.clone());
    }
    let mut engine = match &registry {
        Some(registry) => PmDebugger::with_metrics(config, registry),
        None => PmDebugger::new(config),
    };
    let start = Instant::now();
    let span = registry.as_ref().map(|r| r.span("stage.replay"));
    let mut kind_counts = [0u64; pm_trace::PmEvent::KIND_NAMES.len()];
    let mut events = 0u64;
    walker
        .for_each_ref(|event| {
            kind_counts[event.kind_index()] += 1;
            engine.on_event_ref(events, &event);
            events += 1;
        })
        .map_err(|e| ExecError::Input(format!("{path}: {e}")))?;
    let reports = engine.finish();
    drop(span);
    let elapsed = start.elapsed();
    let ingest = walker.into_report();
    if salvage || !ingest.clean() {
        writeln!(out, "{}", ingest.summary()).map_err(wr)?;
    }
    writeln!(
        out,
        "replayed {events} events through {tool} [zero-copy] in {:.1} ms",
        elapsed.as_secs_f64() * 1e3
    )
    .map_err(wr)?;
    let summary = BugSummary::from_reports(reports.clone());
    write!(out, "{summary}").map_err(wr)?;
    if let (Some(registry), Some(manifest_path)) = (&registry, metrics) {
        for (i, &count) in kind_counts.iter().enumerate() {
            registry
                .counter(&format!("events.{}", pm_trace::PmEvent::KIND_NAMES[i]))
                .add(count);
        }
        count_ingest(registry, &ingest);
        write_manifest(
            manifest_path,
            tool,
            path,
            model_label(model),
            0,
            1,
            registry,
            manifest_digest(registry, &ReportDigest::of(&reports), false),
            out,
        )?;
    }
    Ok(Outcome::from_report_count(reports.len()))
}

/// Runs `pmdebugger` with `--threads` ≥ 2: the supervised sharded
/// pipeline over `trace`, recorded by `run` (workload `label`, `ops`
/// operations) or ingested by `replay` (file `label`, with `ingest`).
/// Prints the timing header (`header(ms)`), a degradation block naming
/// every quarantined shard (with its failure history and what may
/// under-report), the bug summary, and — with `--metrics` — a manifest
/// carrying the `events.*`, `ingest.*`, `parallel.*`, `bookkeeping.*` and
/// `supervisor.*` counters.
///
/// Strict-mode shard exhaustion comes back as [`ExecError::Internal`]
/// (exit code 3); a degraded-but-successful run sets
/// [`Outcome::degraded`] (exit code 4 unless bugs dominate).
#[allow(clippy::too_many_arguments)]
fn execute_threaded(
    trace: &Trace,
    threads: usize,
    label: &str,
    ops: usize,
    ingest: Option<&pm_trace::IngestReport>,
    model: PersistencyModel,
    spec: Option<&OrderSpec>,
    args: &SuperviseArgs,
    metrics: Option<&String>,
    header: impl FnOnce(f64) -> String,
    out: &mut dyn fmt::Write,
) -> Result<Outcome, ExecError> {
    let mut config = DebuggerConfig::for_model(model);
    if let Some(spec) = spec {
        config = config.with_order_spec(spec.clone());
    }
    let sup = args.config();
    let faults = args
        .fault_seed
        .map(|seed| FaultPlan::seeded(seed, threads, sup.total_attempts()));
    let registry = metrics.map(|_| MetricsRegistry::new());

    let start = Instant::now();
    let stage = if ingest.is_some() { "replay" } else { "run" };
    let span = registry.as_ref().map(|r| r.span(&format!("stage.{stage}")));
    let result = detect_supervised(
        &config,
        &ParallelConfig::with_threads(threads),
        &sup,
        faults.as_ref(),
        trace,
    );
    drop(span);
    let elapsed = start.elapsed();
    let result = result.map_err(|e| ExecError::Internal(format!("supervised detection: {e}")))?;

    writeln!(out, "{}", header(elapsed.as_secs_f64() * 1e3)).map_err(wr)?;
    if let Some(degraded) = &result.degraded {
        writeln!(out, "degraded: {}", degraded.summary()).map_err(wr)?;
        for shard in &degraded.quarantined {
            let causes: Vec<String> = shard
                .failures
                .iter()
                .map(|f| format!("attempt {}: {}", f.attempt, f.failure))
                .collect();
            writeln!(
                out,
                "  shard {} quarantined after {} attempt(s) ({} routed events lost): {}",
                shard.worker,
                shard.failures.len(),
                shard.lost_events,
                causes.join("; ")
            )
            .map_err(wr)?;
        }
        if !degraded.underreporting_rules.is_empty() {
            writeln!(
                out,
                "  may under-report: {}",
                degraded.underreporting_rules.join(" ")
            )
            .map_err(wr)?;
        }
    }
    let reports = &result.outcome.reports;
    let summary = BugSummary::from_reports(reports.clone());
    write!(out, "{summary}").map_err(wr)?;
    if let (Some(registry), Some(path)) = (&registry, metrics) {
        count_trace_kinds(registry, trace);
        if let Some(ingest) = ingest {
            count_ingest(registry, ingest);
        }
        result.export_metrics(registry);
        write_manifest(
            path,
            "pmdebugger",
            label,
            model_label(model),
            ops,
            threads,
            registry,
            manifest_digest(registry, &ReportDigest::of(reports), true),
            out,
        )?;
    }
    Ok(Outcome {
        bugs_found: !reports.is_empty(),
        degraded: result.is_degraded(),
    })
}

/// Process-wide stop flag for `pmdbg serve`. Signal handlers in
/// `main.rs` (SIGINT/SIGTERM) call [`request_serve_stop`]; the serve
/// loop polls the flag and begins its drain. The flag is re-armed every
/// time a serve loop starts, so tests can run several servers in one
/// process.
static SERVE_STOP: AtomicBool = AtomicBool::new(false);

/// Asks a running `pmdbg serve` loop to drain and exit. Async-signal-safe
/// (a single relaxed atomic store), so `main.rs` may call it directly
/// from a SIGINT/SIGTERM handler.
pub fn request_serve_stop() {
    SERVE_STOP.store(true, Ordering::Relaxed);
}

/// Only the pmdebugger engine shards, and the supervision flags tune the
/// sharded pipeline alone: `--threads` ≥ 2 needs `--tool pmdebugger`, and
/// supervision flags need both.
fn check_threading(tool: &str, threads: usize, supervise: &SuperviseArgs) -> Result<(), ExecError> {
    if threads > 1 && tool != "pmdebugger" {
        return Err(ExecError::Input(format!(
            "--threads requires --tool pmdebugger (`{tool}` has no parallel pipeline)"
        )));
    }
    if *supervise != SuperviseArgs::default() && (threads < 2 || tool != "pmdebugger") {
        return Err(ExecError::Input(
            "supervision flags (--max-retries, --shard-deadline-ms, --fail-mode, \
             --fault-seed) require --tool pmdebugger and --threads >= 2"
                .into(),
        ));
    }
    Ok(())
}

/// Reads and parses an `--order <file>` spec, when one was given.
fn read_order_spec(order: Option<String>) -> Result<Option<OrderSpec>, ExecError> {
    let Some(path) = order else { return Ok(None) };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ExecError::Input(format!("cannot read order file {path}: {e}")))?;
    text.parse::<OrderSpec>()
        .map(Some)
        .map_err(|e| ExecError::Input(format!("order file {path}: {e}")))
}

fn parse_model(text: &str) -> Result<PersistencyModel, ExecError> {
    match text {
        "strict" => Ok(PersistencyModel::Strict),
        "epoch" => Ok(PersistencyModel::Epoch),
        "strand" => Ok(PersistencyModel::Strand),
        other => Err(ExecError::Input(format!("unknown model `{other}`"))),
    }
}

/// Renders a push response the way `replay` renders a local run: ingest
/// accounting first, then the bug verdict.
fn write_push_response(
    trace: &str,
    response: &PushResponse,
    out: &mut dyn fmt::Write,
) -> Result<(), ExecError> {
    writeln!(
        out,
        "{trace}: session {} {} — {} frame(s) ok ({} clean, {} resynced), \
         {} skipped, {} resync(s), {} byte(s) read in {} ms",
        response.session,
        response.status.name(),
        response.frames_ok,
        response.frames_clean,
        response.frames_resynced,
        response.frames_skipped,
        response.resyncs,
        response.bytes_read,
        response.elapsed_ms,
    )
    .map_err(wr)?;
    if response.events_committed != response.frames_ok || response.retries > 0 {
        writeln!(
            out,
            "  committed {} of {} decoded event(s) ({} lost, {} retrie(s))",
            response.events_committed, response.frames_ok, response.frames_lost, response.retries,
        )
        .map_err(wr)?;
    }
    if response.replayed {
        writeln!(
            out,
            "  replayed from the verdict ledger (emitted exactly once by an earlier push)"
        )
        .map_err(wr)?;
    }
    if let Some(truncated) = &response.truncated {
        writeln!(out, "  truncated: {truncated}").map_err(wr)?;
    }
    if let Some(error) = &response.error {
        writeln!(
            out,
            "  error[{}]: {error}",
            response.error_kind.as_deref().unwrap_or("unknown")
        )
        .map_err(wr)?;
    }
    writeln!(
        out,
        "  bugs: {} (report hash {})",
        response.bugs_total, response.report_hash
    )
    .map_err(wr)?;
    for (kind, count) in &response.bug_kinds {
        writeln!(out, "    {kind}: {count}").map_err(wr)?;
    }
    Ok(())
}

/// Executes a parsed command, writing human output to `out`.
///
/// Compatibility wrapper over [`execute_outcome`] that flattens the
/// outcome and the error classification into the original
/// `Result<(), String>` shape. Callers that need the exit-code contract
/// (did the run find bugs? was the failure an input or an internal one?)
/// use [`execute_outcome`] directly.
///
/// # Errors
///
/// Returns a message for unknown workloads/tools or unreadable order files.
pub fn execute(command: Command, out: &mut dyn fmt::Write) -> Result<(), String> {
    execute_outcome(command, out)
        .map(|_| ())
        .map_err(|e| e.message().to_owned())
}

/// Records the trace a workload sweep runs over: `--workload`/`--ops`,
/// or the CI case, under the workload's own persistency model.
fn workload_sweep_trace(args: &SweepArgs) -> Result<(Trace, PersistencyModel), ExecError> {
    let name = args.workload.as_deref().unwrap_or(CI_WORKLOAD.0);
    let workload = workload_by_name(name)
        .ok_or_else(|| ExecError::Input(format!("unknown workload `{name}` (try `pmdbg list`)")))?;
    let trace = pm_workloads::record_trace(workload.as_ref(), args.ops.unwrap_or(CI_WORKLOAD.1));
    Ok((trace, persistency(workload.model())))
}

/// A sweep that cannot start over its input (an empty or oversized
/// trace) is an input error.
fn sweep_setup(e: ChaosError) -> ExecError {
    ExecError::Input(format!("sweep setup failed: {e}"))
}

/// Runs `sweep` as `args` asks: the whole seeded sweep, or one replayed
/// plan.
fn sweep_report<S: Sweep>(mut sweep: S, args: &SweepArgs) -> SweepReport {
    match args.replay {
        Some((seed, index)) => replay_plan(&mut sweep, seed, index),
        None => run_sweep(
            &mut sweep,
            &SweepOptions {
                plans: args.plans.unwrap_or(S::DEFAULT_PLANS),
                seed: args.seed.unwrap_or(S::DEFAULT_SEED),
                wall_clock: args.budget_ms.map(Duration::from_millis),
            },
        ),
    }
}

/// Executes a parsed command, writing human output to `out` and returning
/// the exit-code-relevant [`Outcome`].
///
/// # Errors
///
/// [`ExecError::Input`] for unusable input (unknown workloads/tools,
/// unreadable or corrupt trace files — exit code 2);
/// [`ExecError::Internal`] for failures of the command itself (exit
/// code 3).
pub fn execute_outcome(command: Command, out: &mut dyn fmt::Write) -> Result<Outcome, ExecError> {
    match command {
        Command::Help => {
            writeln!(out, "{USAGE}").map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::List => {
            writeln!(out, "workloads:").map_err(wr)?;
            for workload in pm_workloads::all_benchmarks() {
                writeln!(
                    out,
                    "  {:<16} ({})",
                    workload.name(),
                    workload.model().name()
                )
                .map_err(wr)?;
            }
            for load in pm_workloads::YcsbLoad::ALL {
                writeln!(out, "  {:<16} (strict)", load.label()).map_err(wr)?;
            }
            for workload in pm_workloads::concurrent_benchmarks() {
                writeln!(
                    out,
                    "  {:<16} ({}, concurrent)",
                    workload.name(),
                    workload.model().name()
                )
                .map_err(wr)?;
            }
            writeln!(
                out,
                "tools: pmdebugger pmemcheck pmtest xfdetector nulgrind"
            )
            .map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::Corpus => {
            let clean = pm_bugs::clean_traces(100);
            let evaluation = pm_bugs::evaluate(&clean);
            write!(out, "{}", pm_bugs::render_table6(&evaluation)).map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::Stats { file } => {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| ExecError::Input(format!("cannot read {file}: {e}")))?;
            let manifest = RunManifest::from_json(&text)
                .map_err(|e| ExecError::Input(format!("{file}: {e}")))?;
            write!(out, "{}", manifest.render_table()).map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::Characterize { workload, ops } => {
            let workload = workload_by_name(&workload).ok_or_else(|| {
                ExecError::Input(format!("unknown workload `{workload}` (try `pmdbg list`)"))
            })?;
            let trace = pm_workloads::record_trace(workload.as_ref(), ops);
            let report = pm_trace::characterize::characterize(&trace);
            writeln!(out, "{}: {} events", workload.name(), trace.len()).map_err(wr)?;
            writeln!(
                out,
                "  distance=1: {:.1}%   <=3: {:.1}%",
                report.distances.fraction(1) * 100.0,
                report.distances.cumulative_fraction(3) * 100.0
            )
            .map_err(wr)?;
            writeln!(
                out,
                "  collective writebacks: {:.1}%",
                report.collective_fraction() * 100.0
            )
            .map_err(wr)?;
            writeln!(
                out,
                "  instruction mix: store {:.1}% / writeback {:.1}% / fence {:.1}%",
                report.store_fraction() * 100.0,
                report.flushes as f64
                    / (report.stores + report.flushes + report.fences).max(1) as f64
                    * 100.0,
                report.fences as f64
                    / (report.stores + report.flushes + report.fences).max(1) as f64
                    * 100.0
            )
            .map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::Record {
            workload,
            ops,
            format,
            out: path,
        } => {
            let workload = workload_by_name(&workload).ok_or_else(|| {
                ExecError::Input(format!("unknown workload `{workload}` (try `pmdbg list`)"))
            })?;
            let trace = pm_workloads::record_trace(workload.as_ref(), ops);
            let data = match format.as_str() {
                "bin" => pm_trace::to_binary(&trace),
                _ => pm_trace::to_text(&trace).into_bytes(),
            };
            write_atomic(&path, &data)
                .map_err(|e| ExecError::Internal(format!("cannot write {path}: {e}")))?;
            writeln!(
                out,
                "recorded {} x{}: {} events -> {path} [{format}]",
                workload.name(),
                ops,
                trace.len()
            )
            .map_err(wr)?;
            Ok(Outcome::clean())
        }
        Command::Replay {
            trace: path,
            tool,
            model,
            order,
            threads,
            metrics,
            salvage,
            supervise,
        } => {
            check_threading(&tool, threads, &supervise)?;
            let mapped = pm_trace::MappedTrace::open(std::path::Path::new(&path))
                .map_err(|e| ExecError::Input(format!("cannot read {path}: {e}")))?;
            let bytes = mapped.bytes();
            let mode = if salvage {
                IngestMode::Salvage
            } else {
                IngestMode::Strict
            };
            let model = parse_model(&model)?;
            let spec = read_order_spec(order)?;
            // The sequential pmdebugger engine runs straight off the mapped
            // v2 image: borrowed events, no owned `Trace`.
            if tool == "pmdebugger" && threads == 1 {
                if let pm_trace::ZeroCopy::Binary(walker) =
                    pm_trace::zero_copy(bytes, mode, &IngestLimits::default())
                        .map_err(|e| ExecError::Input(format!("{path}: {e}")))?
                {
                    return execute_replay_zero_copy(
                        walker,
                        &path,
                        &tool,
                        salvage,
                        model,
                        spec.as_ref(),
                        metrics.as_ref(),
                        out,
                    );
                }
            }
            let (trace, ingest) = pm_trace::ingest_bytes(bytes, mode, &IngestLimits::default())
                .map_err(|e| ExecError::Input(format!("{path}: {e}")))?;
            if salvage || !ingest.clean() {
                writeln!(out, "{}", ingest.summary()).map_err(wr)?;
            }
            if threads > 1 {
                let events = trace.len();
                return execute_threaded(
                    &trace,
                    threads,
                    &path,
                    0,
                    Some(&ingest),
                    model,
                    spec.as_ref(),
                    &supervise,
                    metrics.as_ref(),
                    |ms| {
                        format!("replayed {events} events through {tool} [threads={threads}] in {ms:.1} ms")
                    },
                    out,
                );
            }
            let registry = metrics.as_ref().map(|_| MetricsRegistry::new());
            let (mut detector, rules_self_counted) =
                tool_with_metrics(&tool, model, spec.as_ref(), registry.as_ref())
                    .map_err(ExecError::Input)?;
            let start = Instant::now();
            let span = registry.as_ref().map(|r| r.span("stage.replay"));
            let reports = pm_trace::replay_finish(&trace, detector.as_mut());
            drop(span);
            let elapsed = start.elapsed();
            writeln!(
                out,
                "replayed {} events through {tool} in {:.1} ms",
                trace.len(),
                elapsed.as_secs_f64() * 1e3
            )
            .map_err(wr)?;
            let summary = BugSummary::from_reports(reports.clone());
            write!(out, "{summary}").map_err(wr)?;
            if let (Some(registry), Some(manifest_path)) = (&registry, &metrics) {
                count_trace_kinds(registry, &trace);
                count_ingest(registry, &ingest);
                write_manifest(
                    manifest_path,
                    &tool,
                    &path,
                    model_label(model),
                    0,
                    threads,
                    registry,
                    manifest_digest(registry, &ReportDigest::of(&reports), !rules_self_counted),
                    out,
                )?;
            }
            Ok(Outcome::from_report_count(reports.len()))
        }
        Command::Run {
            workload,
            ops,
            tool,
            order,
            threads,
            metrics,
            supervise,
        } => {
            check_threading(&tool, threads, &supervise)?;
            let workload = workload_by_name(&workload).ok_or_else(|| {
                ExecError::Input(format!("unknown workload `{workload}` (try `pmdbg list`)"))
            })?;
            let spec = read_order_spec(order)?;
            let model = persistency(workload.model());
            if threads > 1 {
                let trace = pm_workloads::record_trace(workload.as_ref(), ops);
                let name = workload.name();
                let events = trace.len();
                return execute_threaded(
                    &trace,
                    threads,
                    name,
                    ops,
                    None,
                    model,
                    spec.as_ref(),
                    &supervise,
                    metrics.as_ref(),
                    |ms| {
                        format!("{name} x{ops} under {tool} [threads={threads}]: {events} events in {ms:.1} ms")
                    },
                    out,
                );
            }
            let registry = metrics.as_ref().map(|_| MetricsRegistry::new());
            let (detector, rules_self_counted) =
                tool_with_metrics(&tool, model, spec.as_ref(), registry.as_ref())
                    .map_err(ExecError::Input)?;

            let mut rt = PmRuntime::trace_only();
            if let Some(registry) = &registry {
                rt.observe(registry);
            }
            rt.attach(detector);
            let start = Instant::now();
            let span = registry.as_ref().map(|r| r.span("stage.run"));
            workload
                .run(&mut rt, ops)
                .map_err(|e| ExecError::Internal(format!("workload failed: {e}")))?;
            let reports = rt.finish();
            drop(span);
            let elapsed = start.elapsed();

            writeln!(
                out,
                "{} x{} under {}: {} events in {:.1} ms",
                workload.name(),
                ops,
                tool,
                rt.event_count(),
                elapsed.as_secs_f64() * 1e3
            )
            .map_err(wr)?;
            let summary = BugSummary::from_reports(reports.clone());
            write!(out, "{summary}").map_err(wr)?;
            if let (Some(registry), Some(path)) = (&registry, &metrics) {
                write_manifest(
                    path,
                    &tool,
                    workload.name(),
                    model_label(model),
                    ops,
                    threads,
                    registry,
                    manifest_digest(registry, &ReportDigest::of(&reports), !rules_self_counted),
                    out,
                )?;
            }
            Ok(Outcome::from_report_count(reports.len()))
        }
        Command::Sweep(args) => {
            let report = match args.sweep.as_str() {
                "corrupt" => {
                    let path = args.trace.as_deref().unwrap_or_default();
                    let bytes = std::fs::read(path)
                        .map_err(|e| ExecError::Input(format!("cannot read {path}: {e}")))?;
                    let (trace, _) = pm_trace::ingest_bytes(
                        &bytes,
                        IngestMode::Strict,
                        &IngestLimits::default(),
                    )
                    .map_err(|e| ExecError::Input(format!("{path}: {e}")))?;
                    let sweep = CorruptSweep::new(trace)
                        .map_err(|e| ExecError::Input(format!("{path}: {e}")))?;
                    sweep_report(sweep, &args)
                }
                "supervise" => sweep_report(SuperviseSweep::default(), &args),
                "serve" => sweep_report(ServeSweep::default(), &args),
                "thread-crash" => sweep_report(ThreadCrashSweep, &args),
                // Only a real `pmdbg` binary can serve as the kill -9
                // subprocess daemon; anything else (e.g. a test harness
                // hosting this library) falls back to the in-process
                // crash path.
                "daemon-crash" => sweep_report(
                    DaemonCrashSweep::new(std::env::current_exe().ok().filter(|exe| {
                        exe.file_name()
                            .is_some_and(|name| name.to_string_lossy().starts_with("pmdbg"))
                    })),
                    &args,
                ),
                "mem-pressure" => sweep_report(MemPressureSweep, &args),
                "crash-points" => {
                    let (trace, model) = workload_sweep_trace(&args)?;
                    sweep_report(
                        CrashPointSweep::new(trace, model).map_err(sweep_setup)?,
                        &args,
                    )
                }
                "perturb" => {
                    let (trace, model) = workload_sweep_trace(&args)?;
                    sweep_report(PerturbSweep::new(trace, model).map_err(sweep_setup)?, &args)
                }
                other => return Err(ExecError::Input(format!("unknown sweep `{other}`"))),
            };
            if args.json {
                writeln!(out, "{}", report.to_json()).map_err(wr)?;
            } else {
                write!(out, "{report}").map_err(wr)?;
            }
            Ok(Outcome {
                bugs_found: !report.ok(),
                degraded: false,
            })
        }
        Command::Serve {
            listen,
            model,
            salvage,
            max_sessions,
            max_events,
            session_deadline_ms,
            max_retries,
            fail_mode,
            drain_ms,
            metrics,
            journal_dir,
            mem_budget,
            session_mem_budget,
            spill_dir,
        } => {
            let listen = Listen::parse(&listen).map_err(ExecError::Input)?;
            let mut cfg = ServeConfig::new(listen);
            cfg.journal_dir = journal_dir.map(std::path::PathBuf::from);
            cfg.mem_budget = mem_budget;
            cfg.session_mem_budget = session_mem_budget;
            cfg.spill_dir = spill_dir.map(std::path::PathBuf::from);
            cfg.model = parse_model(&model)?;
            cfg.mode = if salvage {
                IngestMode::Salvage
            } else {
                IngestMode::Strict
            };
            cfg.max_sessions = max_sessions;
            if let Some(n) = max_events {
                cfg.limits = cfg.limits.with_max_events(n);
            }
            if let Some(ms) = session_deadline_ms {
                cfg.session_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            if let Some(n) = max_retries {
                cfg.max_retries = n;
            }
            if let Some(mode) = fail_mode {
                cfg.fail_mode = mode;
            }
            SERVE_STOP.store(false, Ordering::Relaxed);
            let journal_note = cfg
                .journal_dir
                .as_ref()
                .map(|dir| format!("; journaling keyed sessions to {}", dir.display()));
            let server =
                Server::start(cfg).map_err(|e| ExecError::Input(format!("cannot listen: {e}")))?;
            if let Some(note) = journal_note {
                eprintln!("pmdbg serve: crash-durable{note}");
            }
            // Live progress goes to stderr: `out` is buffered until the
            // command returns, which for a daemon is shutdown.
            eprintln!(
                "pmdbg serve: listening on {} (pid {}); SIGINT/SIGTERM drains and exits",
                server.local_listen(),
                std::process::id()
            );
            while !SERVE_STOP.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
            }
            eprintln!("pmdbg serve: shutdown requested, draining up to {drain_ms} ms");
            let summary = server.shutdown(Duration::from_millis(drain_ms));
            writeln!(
                out,
                "served {} session(s): {} ok, {} quarantined, {} errored, {} stats, \
                 {} shed, {} host panic(s)",
                summary.sessions(),
                summary.ok,
                summary.quarantined,
                summary.errored,
                summary.stats,
                summary.shed,
                summary.host_panics,
            )
            .map_err(wr)?;
            let manifest = RunManifest::from_json(&summary.manifest_json)
                .map_err(|e| ExecError::Internal(format!("final manifest: {e}")))?;
            let bugs = manifest.counters.get("serve.bugs").copied().unwrap_or(0);
            writeln!(
                out,
                "{} event(s) committed, {} frame(s) lost, {} bug(s) across sessions",
                manifest
                    .counters
                    .get("serve.events_committed")
                    .copied()
                    .unwrap_or(0),
                manifest
                    .counters
                    .get("serve.frames_lost")
                    .copied()
                    .unwrap_or(0),
                bugs,
            )
            .map_err(wr)?;
            if let Some(path) = metrics {
                write_atomic(&path, summary.manifest_json.as_bytes())
                    .map_err(|e| ExecError::Internal(format!("cannot write {path}: {e}")))?;
                writeln!(out, "metrics manifest -> {path}").map_err(wr)?;
            }
            Ok(Outcome {
                bugs_found: bugs > 0,
                degraded: summary.quarantined + summary.errored + summary.host_panics > 0,
            })
        }
        Command::Push {
            addr,
            trace,
            session,
            json,
        } => {
            let listen = Listen::parse(&addr).map_err(ExecError::Input)?;
            let mut bytes = std::fs::read(&trace)
                .map_err(|e| ExecError::Input(format!("cannot read {trace}: {e}")))?;
            // The daemon speaks v2 only: convert a v1 text trace first.
            let limits = IngestLimits::default();
            if let Ok(pm_trace::ZeroCopy::Text) =
                pm_trace::zero_copy(&bytes, IngestMode::Strict, &limits)
            {
                let (events, _) = pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &limits)
                    .map_err(|e| match e {
                        // `push` has no salvage mode to suggest.
                        pm_trace::IngestError::Corrupt { reason, .. } => {
                            ExecError::Input(format!("{trace}: {reason}"))
                        }
                        e => ExecError::Input(format!("{trace}: {e}")),
                    })?;
                bytes = pm_trace::to_binary(&events);
            }
            let response = match &session {
                Some(key) => push_bytes_keyed(&listen, key, &bytes),
                None => push_bytes(&listen, &bytes),
            }
            .map_err(|e| ExecError::Input(format!("push to {listen}: {e}")))?;
            if json {
                writeln!(out, "{}", response.to_json_line()).map_err(wr)?;
            } else {
                write_push_response(&trace, &response, out)?;
            }
            match response.status {
                SessionStatus::Ok => Ok(Outcome {
                    bugs_found: response.bugs_total > 0,
                    degraded: false,
                }),
                SessionStatus::Quarantined => Ok(Outcome {
                    bugs_found: response.bugs_total > 0,
                    degraded: true,
                }),
                SessionStatus::Error => Err(ExecError::Internal(format!(
                    "session failed [{}]: {}",
                    response.error_kind.as_deref().unwrap_or("unknown"),
                    response.error.as_deref().unwrap_or("unspecified"),
                ))),
                SessionStatus::Busy => Err(ExecError::Internal(format!(
                    "server busy{}",
                    response
                        .retry_after_ms
                        .map(|ms| format!(", retry after {ms} ms"))
                        .unwrap_or_default(),
                ))),
            }
        }
        Command::Recover { dir, json } => {
            let summary = recover_dir(std::path::Path::new(&dir))
                .map_err(|e| ExecError::Input(format!("cannot recover {dir}: {e}")))?;
            if json {
                writeln!(out, "{}", summary.to_json()).map_err(wr)?;
            } else {
                writeln!(
                    out,
                    "{dir}: {} journaled session(s), {} record(s), {} torn region(s) discarded",
                    summary.sessions.len(),
                    summary.records_total,
                    summary.torn_total,
                )
                .map_err(wr)?;
                if summary.read_failures > 0 {
                    writeln!(
                        out,
                        "  {} unreadable journal entr{} skipped",
                        summary.read_failures,
                        if summary.read_failures == 1 {
                            "y"
                        } else {
                            "ies"
                        },
                    )
                    .map_err(wr)?;
                }
                for s in &summary.sessions {
                    writeln!(
                        out,
                        "  {}: {} — {} event(s) committed, {} report(s), \
                         {} record(s), {} torn",
                        s.key,
                        if s.has_verdict {
                            "completed (verdict ledgered)"
                        } else if s.events_committed > 0 {
                            "resumable from checkpoint"
                        } else {
                            "no durable progress"
                        },
                        s.events_committed,
                        s.reports,
                        s.records,
                        s.torn_discarded,
                    )
                    .map_err(wr)?;
                }
            }
            // Partial readability degrades (exit 4) instead of either
            // aborting the scan or silently pretending the directory was
            // fully recovered.
            Ok(Outcome {
                bugs_found: false,
                degraded: summary.read_failures > 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse(&args(&["run", "--workload", "b_tree"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                workload: "b_tree".into(),
                ops: 1024,
                tool: "pmdebugger".into(),
                order: None,
                threads: 1,
                metrics: None,
                supervise: SuperviseArgs::default(),
            }
        );
    }

    #[test]
    fn parses_all_flags() {
        let cmd = parse(&args(&[
            "run",
            "-w",
            "redis",
            "-n",
            "50",
            "-t",
            "pmemcheck",
            "-o",
            "/tmp/x",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                workload: "redis".into(),
                ops: 50,
                tool: "pmemcheck".into(),
                order: Some("/tmp/x".into()),
                threads: 1,
                metrics: None,
                supervise: SuperviseArgs::default(),
            }
        );
    }

    #[test]
    fn rejects_unknown_flag_and_command() {
        assert!(parse(&args(&["run", "--wat"])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["run"])).is_err(), "--workload required");
        assert!(parse(&args(&["run", "--workload", "x", "--ops", "NaN"])).is_err());
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn workload_lookup_covers_table4_and_ycsb() {
        for name in [
            "b_tree",
            "c_tree",
            "r_tree",
            "rb_tree",
            "hashmap_tx",
            "hashmap_atomic",
            "synth_strand",
            "memcached",
            "redis",
            "a_YCSB",
            "f_YCSB",
        ] {
            assert!(workload_by_name(name).is_some(), "{name}");
        }
        assert!(workload_by_name("nope").is_none());
    }

    #[test]
    fn tool_lookup_covers_all_five() {
        for name in [
            "pmdebugger",
            "pmemcheck",
            "pmtest",
            "xfdetector",
            "nulgrind",
        ] {
            assert!(tool_by_name(name, PersistencyModel::Epoch, None).is_some());
        }
        assert!(tool_by_name("gdb", PersistencyModel::Epoch, None).is_none());
    }

    #[test]
    fn run_command_reports_clean_workload() {
        let mut out = String::new();
        execute(
            Command::Run {
                workload: "b_tree".into(),
                ops: 50,
                tool: "pmdebugger".into(),
                order: None,
                threads: 1,
                metrics: None,
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("b_tree x50 under pmdebugger"));
        assert!(out.contains("no crash-consistency bugs detected"));
    }

    #[test]
    fn characterize_command_prints_patterns() {
        let mut out = String::new();
        execute(
            Command::Characterize {
                workload: "c_tree".into(),
                ops: 100,
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("collective writebacks"));
    }

    #[test]
    fn list_command_names_everything() {
        let mut out = String::new();
        execute(Command::List, &mut out).unwrap();
        assert!(out.contains("hashmap_atomic"));
        assert!(out.contains("xfdetector"));
    }

    #[test]
    fn parses_record_and_replay() {
        let cmd = parse(&args(&[
            "record",
            "--workload",
            "c_tree",
            "--ops",
            "10",
            "--out",
            "/tmp/t",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Record {
                workload: "c_tree".into(),
                ops: 10,
                format: "text".into(),
                out: "/tmp/t".into(),
            }
        );
        let cmd = parse(&args(&["replay", "--trace", "/tmp/t", "--model", "epoch"])).unwrap();
        assert_eq!(
            cmd,
            Command::Replay {
                trace: "/tmp/t".into(),
                tool: "pmdebugger".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: false,
                supervise: SuperviseArgs::default(),
            }
        );
        assert!(
            parse(&args(&["record", "--workload", "x"])).is_err(),
            "--out required"
        );
        assert!(parse(&args(&["replay"])).is_err(), "--trace required");
    }

    #[test]
    fn record_then_replay_roundtrips() {
        let path = std::env::temp_dir().join("pmdbg_cli_test.trace");
        let path_str = path.to_str().unwrap().to_owned();
        let mut out = String::new();
        execute(
            Command::Record {
                workload: "c_tree".into(),
                ops: 20,
                out: path_str.clone(),
                format: "text".into(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("recorded c_tree x20"));
        let mut out = String::new();
        execute(
            Command::Replay {
                trace: path_str.clone(),
                tool: "pmdebugger".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: false,
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("no crash-consistency bugs detected"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_rejects_bad_model_and_missing_file() {
        let err = execute(
            Command::Replay {
                trace: "/nonexistent/x.trace".into(),
                tool: "pmdebugger".into(),
                model: "strict".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: false,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn parses_every_sweep_and_rejects_misuse() {
        let words = |line: &str| args(&line.split_whitespace().collect::<Vec<_>>());
        for name in SWEEPS {
            let trace = if name == "corrupt" { "--trace t" } else { "" };
            let defaults = SweepArgs {
                sweep: name.into(),
                trace: (name == "corrupt").then(|| "t".into()),
                ..SweepArgs::default()
            };
            let cmd = parse(&words(&format!("chaos --sweep {name} {trace}"))).unwrap();
            assert_eq!(cmd, Command::Sweep(defaults.clone()));
            let line =
                format!("chaos --sweep {name} {trace} --plans 12 --seed 9 --budget-ms 500 --json");
            let all = SweepArgs {
                plans: Some(12),
                seed: Some(9),
                budget_ms: Some(500),
                json: true,
                ..defaults
            };
            assert_eq!(parse(&words(&line)).unwrap(), Command::Sweep(all));
        }
        let cmd = parse(&words("chaos --sweep crash-points -w b_tree -n 64")).unwrap();
        let workload = SweepArgs {
            sweep: "crash-points".into(),
            workload: Some("b_tree".into()),
            ops: Some(64),
            ..SweepArgs::default()
        };
        assert_eq!(cmd, Command::Sweep(workload));
        let cmd = parse(&words("chaos --sweep serve --replay 1582633093:17")).unwrap();
        assert!(
            matches!(&cmd, Command::Sweep(a) if a.replay == Some((1_582_633_093, 17))),
            "{cmd:?}"
        );
        for (bad, why) in [
            ("chaos --thread-crash", "mode flags became --sweep names"),
            ("chaos --daemon-crash", "mode flags became --sweep names"),
            (
                "torture --trace a",
                "chaos --sweep corrupt replaces torture",
            ),
            (
                "supervise -w b_tree",
                "chaos --sweep supervise replaces supervise",
            ),
            ("serve-chaos", "chaos --sweep serve replaces serve-chaos"),
            ("chaos --sweep nope", "unknown sweep"),
            ("chaos --sweep serve --sweep", "--sweep takes a name"),
            ("chaos --plans 3 -w b_tree", "--plans needs --sweep"),
            ("chaos --sweep thread-crash --ops 24", "ops is a constant"),
            ("chaos --sweep corrupt", "corrupt needs a trace"),
            (
                "chaos --sweep corrupt --trace a -w b",
                "workload sweeps only",
            ),
            (
                "chaos --sweep perturb --trace a",
                "perturb records its trace",
            ),
            ("chaos", "chaos needs --sweep"),
            (
                "chaos -w memcached",
                "the campaign became --sweep crash-points",
            ),
            (
                "chaos --sweep crash-points --points 8",
                "plans are crash points",
            ),
            (
                "chaos --sweep crash-points --images 8",
                "the image cap is fixed",
            ),
            (
                "chaos --sweep perturb --matrix",
                "the matrix became --sweep perturb",
            ),
            (
                "chaos --sweep supervise --trace a",
                "only corrupt reads --trace",
            ),
            ("chaos --sweep serve --replay 17", "replay needs seed:index"),
            ("chaos --sweep serve --replay a:1", "numeric seed"),
            ("chaos --sweep serve --replay 1:b", "numeric index"),
            (
                "chaos --sweep serve --replay 1:2 --seed 1",
                "replay names the seed",
            ),
        ] {
            assert!(parse(&words(bad)).is_err(), "{why}: {bad}");
        }
    }

    #[test]
    fn every_sweep_runs_clean_via_cli() {
        let trace = std::env::temp_dir().join("pmdbg_cli_torture.pmt2");
        let trace = trace.to_str().unwrap().to_owned();
        let record = Command::Record {
            workload: "hashmap_atomic".into(),
            ops: 16,
            format: "bin".into(),
            out: trace.clone(),
        };
        execute(record, &mut String::new()).unwrap();
        let sweep = |name: &str, plans: usize, seed: u64| SweepArgs {
            sweep: name.into(),
            plans: Some(plans),
            seed: Some(seed),
            trace: (name == "corrupt").then(|| trace.clone()),
            json: true,
            ..SweepArgs::default()
        };
        let replay = SweepArgs {
            replay: Some((ThreadCrashSweep::DEFAULT_SEED, 5)),
            json: true,
            ..SweepArgs::default()
        };
        for (args, expected) in [
            (sweep("corrupt", 16, 1), &["\"bit_flip\""][..]),
            (sweep("supervise", 8, 3), &[]),
            (sweep("serve", 12, ServeSweep::DEFAULT_SEED), &[]),
            (sweep("thread-crash", 6, 1), &["\"plans_run\":6"]),
            (
                sweep("daemon-crash", 6, 0xD00D_1E5E),
                &["\"verdicts_lost\":0", "\"verdicts_duplicated\":0"],
            ),
            (
                sweep("mem-pressure", 8, 0x0D0_0BED),
                &["\"verdict_divergence\":0"],
            ),
            (
                sweep("crash-points", 71, CrashPointSweep::DEFAULT_SEED),
                &["\"plans_run\":71", "\"boundaries\":71", "\"images\":149"],
            ),
            (
                sweep("perturb", 119, PerturbSweep::DEFAULT_SEED),
                &[
                    "\"plans_run\":119",
                    "\"tear-store\":{\"benign\":36,\"escaped\":1",
                ],
            ),
            (
                SweepArgs {
                    sweep: "thread-crash".into(),
                    ..replay
                },
                &["\"replay\":5", "\"plans_run\":1", "\"seed\":2085247696"],
            ),
        ] {
            let mut out = String::new();
            let outcome = execute_outcome(Command::Sweep(args), &mut out).unwrap();
            assert!(!outcome.bugs_found, "{out}");
            for needle in ["\"ok\":true", "\"aborts\":0"].iter().chain(expected) {
                assert!(out.contains(needle), "missing {needle}: {out}");
            }
        }

        // The human report: verdict, counters, plan mix.
        for (name, needles) in [
            ("corrupt", ["OK", "bit_flip", "plan(s)"]),
            ("supervise", ["OK", "faults_injected", "plan(s)"]),
        ] {
            let mut out = String::new();
            let args = SweepArgs {
                json: false,
                ..sweep(name, 12, 1)
            };
            assert!(
                !execute_outcome(Command::Sweep(args), &mut out)
                    .unwrap()
                    .bugs_found
            );
            for needle in needles {
                assert!(out.contains(needle), "missing {needle}: {out}");
            }
        }
        std::fs::remove_file(trace).ok();
    }

    #[test]
    fn crash_points_fails_on_a_buggy_workload_and_names_its_input() {
        let args = SweepArgs {
            sweep: "crash-points".into(),
            workload: Some("b_tree".into()),
            ops: Some(64),
            json: true,
            ..SweepArgs::default()
        };
        let mut out = String::new();
        let outcome = execute_outcome(Command::Sweep(args.clone()), &mut out).unwrap();
        assert!(outcome.bugs_found, "{out}");
        assert!(out.contains("\"kind\":\"unrecoverable\""), "{out}");
        assert!(
            out.contains("tx-log addr=0x100100 size=216 boundary=220"),
            "{out}"
        );
        for (workload, ops, error) in [("nope", 8, "unknown workload"), ("b_tree", 0, "no events")]
        {
            let args = SweepArgs {
                workload: Some(workload.into()),
                ops: Some(ops),
                ..args.clone()
            };
            match execute_outcome(Command::Sweep(args), &mut String::new()) {
                Err(ExecError::Input(message)) => assert!(message.contains(error), "{message}"),
                other => panic!("{workload} x{ops}: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_and_validates_threads() {
        let cmd = parse(&args(&["run", "-w", "b_tree", "--threads", "4"])).unwrap();
        assert!(matches!(cmd, Command::Run { threads: 4, .. }));
        let cmd = parse(&args(&["replay", "--trace", "/tmp/t", "-j", "8"])).unwrap();
        assert!(matches!(cmd, Command::Replay { threads: 8, .. }));
        assert!(parse(&args(&["run", "-w", "x", "--threads", "0"])).is_err());
        assert!(parse(&args(&["run", "-w", "x", "--threads", "999"])).is_err());
        assert!(
            parse(&args(&["characterize", "-w", "x", "--threads", "2"])).is_err(),
            "--threads is a run/replay flag"
        );
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let run = |threads: usize| {
            let mut out = String::new();
            execute(
                Command::Run {
                    workload: "hashmap_atomic".into(),
                    ops: 64,
                    tool: "pmdebugger".into(),
                    order: None,
                    threads,
                    metrics: None,
                    supervise: SuperviseArgs::default(),
                },
                &mut out,
            )
            .unwrap();
            // Strip the timing line: wall-clock differs, verdicts must not.
            out.lines().skip(1).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn threads_with_baseline_tool_is_a_clean_error() {
        let err = execute(
            Command::Run {
                workload: "b_tree".into(),
                ops: 8,
                tool: "pmemcheck".into(),
                order: None,
                threads: 4,
                metrics: None,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(
            err.contains("--threads requires --tool pmdebugger"),
            "{err}"
        );
    }

    #[test]
    fn unknown_workload_is_a_clean_error() {
        let mut out = String::new();
        let err = execute(
            Command::Run {
                workload: "nope".into(),
                ops: 1,
                tool: "pmdebugger".into(),
                order: None,
                threads: 1,
                metrics: None,
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("unknown workload"));
    }

    #[test]
    fn parses_metrics_flag_and_stats_command() {
        let cmd = parse(&args(&["run", "-w", "b_tree", "--metrics", "/tmp/m.json"])).unwrap();
        assert!(matches!(cmd, Command::Run { metrics: Some(ref p), .. } if p == "/tmp/m.json"));
        let cmd = parse(&args(&[
            "replay",
            "--trace",
            "/tmp/t",
            "--metrics",
            "m.json",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Replay {
                metrics: Some(_),
                ..
            }
        ));
        assert!(
            parse(&args(&[
                "chaos",
                "--sweep",
                "crash-points",
                "--metrics",
                "m"
            ]))
            .is_err(),
            "sweeps write no manifest"
        );
        assert_eq!(
            parse(&args(&["stats", "m.json"])).unwrap(),
            Command::Stats {
                file: "m.json".into()
            }
        );
        assert!(parse(&args(&["stats"])).is_err(), "file required");
        assert!(parse(&args(&["stats", "a", "b"])).is_err(), "one file only");
        assert!(
            parse(&args(&["characterize", "-w", "x", "--metrics", "m"])).is_err(),
            "--metrics is a run/replay flag"
        );
    }

    #[test]
    fn run_with_metrics_writes_manifest_and_stats_renders_it() {
        let path = std::env::temp_dir().join("pmdbg_cli_manifest_run.json");
        let path_str = path.to_str().unwrap().to_owned();
        let mut out = String::new();
        execute(
            Command::Run {
                workload: "hashmap_atomic".into(),
                ops: 64,
                tool: "pmdebugger".into(),
                order: None,
                threads: 1,
                metrics: Some(path_str.clone()),
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("metrics manifest ->"), "{out}");

        let text = std::fs::read_to_string(&path).unwrap();
        let manifest = RunManifest::from_json(&text).unwrap();
        assert_eq!(manifest.tool, "pmdebugger");
        assert_eq!(manifest.workload, "hashmap_atomic");
        assert_eq!(manifest.ops, 64);
        assert_eq!(manifest.threads, 1);
        assert!(manifest.events_total > 0);
        let kind_sum: u64 = manifest.event_kinds.values().sum();
        assert_eq!(kind_sum, manifest.events_total);
        // The sequential engine self-counts: its event counter and
        // bookkeeping must agree with the tap.
        assert_eq!(manifest.counters["engine.events"], manifest.events_total);
        assert_eq!(
            manifest.bookkeeping["events_processed"],
            manifest.events_total
        );
        assert!(manifest.stages.contains_key("run"), "{:?}", manifest.stages);
        assert!(!manifest.bugs.report_hash.is_empty());

        let mut table = String::new();
        execute(Command::Stats { file: path_str }, &mut table).unwrap();
        assert!(table.contains("run manifest"), "{table}");
        assert!(table.contains("hashmap_atomic"), "{table}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parallel_run_manifest_matches_sequential_event_totals() {
        let run = |threads: usize, name: &str| {
            let path = std::env::temp_dir().join(name);
            let mut out = String::new();
            execute(
                Command::Run {
                    workload: "hashmap_atomic".into(),
                    ops: 64,
                    tool: "pmdebugger".into(),
                    order: None,
                    threads,
                    metrics: Some(path.to_str().unwrap().to_owned()),
                    supervise: SuperviseArgs::default(),
                },
                &mut out,
            )
            .unwrap();
            let manifest =
                RunManifest::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
            std::fs::remove_file(path).ok();
            manifest
        };
        let seq = run(1, "pmdbg_cli_manifest_seq.json");
        let par = run(4, "pmdbg_cli_manifest_par.json");
        assert_eq!(par.events_total, seq.events_total);
        assert_eq!(par.event_kinds, seq.event_kinds);
        assert_eq!(par.rule_firings, seq.rule_firings);
        assert_eq!(par.bugs, seq.bugs, "verdicts and hash must match");
        assert_eq!(par.threads, 4);
        assert_eq!(par.gauges["parallel.threads"], 4);
        assert_eq!(
            par.counters["parallel.routed_events"] + par.counters["parallel.broadcast_events"],
            par.events_total
        );
        assert_eq!(par.bookkeeping["events_processed"], par.events_total);
    }

    #[test]
    fn replay_with_metrics_counts_trace_kinds() {
        let trace_path = std::env::temp_dir().join("pmdbg_cli_replay_metrics.trace");
        let manifest_path = std::env::temp_dir().join("pmdbg_cli_replay_metrics.json");
        let mut out = String::new();
        execute(
            Command::Record {
                workload: "c_tree".into(),
                ops: 20,
                out: trace_path.to_str().unwrap().to_owned(),
                format: "text".into(),
            },
            &mut out,
        )
        .unwrap();
        execute(
            Command::Replay {
                trace: trace_path.to_str().unwrap().to_owned(),
                tool: "pmemcheck".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: Some(manifest_path.to_str().unwrap().to_owned()),
                salvage: false,
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap();
        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(manifest.tool, "pmemcheck");
        assert_eq!(manifest.ops, 0, "replay has no op count");
        assert!(manifest.events_total > 0);
        assert!(manifest.stages.contains_key("replay"));
        assert_eq!(
            manifest.counters["ingest.frames_clean"] + manifest.counters["ingest.frames_resynced"],
            manifest.counters["ingest.frames_ok"],
            "per-mode frame counters partition frames_ok"
        );
        assert!(
            manifest.counters.contains_key("ingest.elapsed_ms"),
            "ingest timing exported"
        );
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(manifest_path).ok();
    }

    #[test]
    fn parses_record_format_and_replay_modes() {
        let cmd = parse(&args(&[
            "record",
            "-w",
            "c_tree",
            "-f",
            "bin",
            "--out",
            "/tmp/t.pmt",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Record { ref format, .. } if format == "bin"));
        assert!(
            parse(&args(&[
                "record", "-w", "x", "-f", "yaml", "--out", "/tmp/t"
            ]))
            .is_err(),
            "--format validates its value"
        );
        let cmd = parse(&args(&["replay", "--trace", "/tmp/t", "--salvage"])).unwrap();
        assert!(matches!(cmd, Command::Replay { salvage: true, .. }));
        let cmd = parse(&args(&[
            "replay",
            "--trace",
            "/tmp/t",
            "--salvage",
            "--strict",
        ]))
        .unwrap();
        assert!(
            matches!(cmd, Command::Replay { salvage: false, .. }),
            "last mode flag wins"
        );
    }

    #[test]
    fn record_bin_then_replay_autosniffs_and_matches_text() {
        let dir = std::env::temp_dir();
        let bin_path = dir.join("pmdbg_cli_fmt.pmt2");
        let text_path = dir.join("pmdbg_cli_fmt.trace");
        for (format, path) in [("bin", &bin_path), ("text", &text_path)] {
            execute(
                Command::Record {
                    workload: "c_tree".into(),
                    ops: 20,
                    format: format.into(),
                    out: path.to_str().unwrap().to_owned(),
                },
                &mut String::new(),
            )
            .unwrap();
        }
        let bin_bytes = std::fs::read(&bin_path).unwrap();
        assert!(bin_bytes.starts_with(b"PMTRACE2"), "binary format on disk");
        let replay = |path: &std::path::Path| {
            let mut out = String::new();
            execute_outcome(
                Command::Replay {
                    trace: path.to_str().unwrap().to_owned(),
                    tool: "pmdebugger".into(),
                    model: "epoch".into(),
                    order: None,
                    threads: 1,
                    metrics: None,
                    salvage: false,
                    supervise: SuperviseArgs::default(),
                },
                &mut out,
            )
            .unwrap();
            // Everything after the timing line must agree across formats.
            out.lines().skip(1).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(replay(&bin_path), replay(&text_path));
        std::fs::remove_file(bin_path).ok();
        std::fs::remove_file(text_path).ok();
    }

    #[test]
    fn strict_replay_rejects_corrupt_file_salvage_recovers_it() {
        let dir = std::env::temp_dir();
        let path = dir.join("pmdbg_cli_corrupt.pmt2");
        let path_str = path.to_str().unwrap().to_owned();
        execute(
            Command::Record {
                workload: "c_tree".into(),
                ops: 20,
                format: "bin".into(),
                out: path_str.clone(),
            },
            &mut String::new(),
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let strict = execute_outcome(
            Command::Replay {
                trace: path_str.clone(),
                tool: "pmdebugger".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: false,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        );
        assert!(
            matches!(strict, Err(ExecError::Input(ref m)) if m.contains("--salvage")),
            "{strict:?}"
        );

        let mut out = String::new();
        execute_outcome(
            Command::Replay {
                trace: path_str,
                tool: "pmdebugger".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: true,
                supervise: SuperviseArgs::default(),
            },
            &mut out,
        )
        .unwrap();
        assert!(out.contains("skipped"), "salvage summary shown: {out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_copy_flags_are_gone() {
        // The walker always runs when it can; there is no knob to pick.
        for flag in ["--zero-copy", "--no-zero-copy"] {
            let err = parse(&args(&["replay", "--trace", "/tmp/t", flag])).unwrap_err();
            assert!(err.0.contains("unknown flag"), "{err:?}");
        }
    }

    #[test]
    fn zero_copy_replay_matches_parallel_replay() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("pmdbg_cli_zcp.pmt2");
        execute(
            Command::Record {
                workload: "b_tree".into(),
                ops: 96,
                format: "bin".into(),
                out: trace_path.to_str().unwrap().to_owned(),
            },
            &mut String::new(),
        )
        .unwrap();
        let headerless_path = dir.join("pmdbg_cli_zcp_headerless.pmt2");
        let mut headerless = b"garbage prefix!".to_vec();
        headerless.extend_from_slice(&std::fs::read(&trace_path).unwrap()[8..]);
        std::fs::write(&headerless_path, headerless).unwrap();
        let manifest = dir.join("pmdbg_cli_zcp.json");
        let replay = |path: &std::path::Path, threads: usize, salvage: bool| {
            let mut out = String::new();
            execute_outcome(
                Command::Replay {
                    trace: path.to_str().unwrap().to_owned(),
                    tool: "pmdebugger".into(),
                    model: "strict".into(),
                    order: None,
                    threads,
                    metrics: Some(manifest.to_str().unwrap().to_owned()),
                    salvage,
                    supervise: SuperviseArgs::default(),
                },
                &mut out,
            )
            .unwrap();
            let text = std::fs::read_to_string(&manifest).unwrap();
            (out, RunManifest::from_json(&text).unwrap())
        };
        // A clean image, and a headerless one only salvage accepts.
        for (path, salvage) in [(&trace_path, false), (&headerless_path, true)] {
            let (zc_out, zc) = replay(path, 1, salvage);
            let (par_out, par) = replay(path, 2, salvage);
            assert!(zc_out.contains("[zero-copy]"), "{zc_out}");
            assert!(!par_out.contains("[zero-copy]"), "{par_out}");
            // Everything but wall-clock must agree: bug digest (including
            // the report hash), event-kind counters and ingest accounting.
            assert_eq!(zc.bugs, par.bugs);
            assert!(zc.bugs.total > 0, "workload should fire rules");
            for (name, value) in &zc.counters {
                if name.starts_with("events.")
                    || (name.starts_with("ingest.") && name != "ingest.elapsed_ms")
                {
                    assert_eq!(par.counters.get(name), Some(value), "{name}");
                }
            }
            if salvage {
                assert!(zc_out.contains("skipped"), "{zc_out}");
                assert_eq!(zc.counters.get("ingest.frames_skipped"), Some(&1));
            }
        }
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&headerless_path).ok();
        std::fs::remove_file(&manifest).ok();
    }

    #[test]
    fn replay_diagnoses_empty_and_headerless_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("pmdbg_cli_empty.trace");
        std::fs::write(&path, "").unwrap();
        let replay = |salvage: bool| {
            execute_outcome(
                Command::Replay {
                    trace: path.to_str().unwrap().to_owned(),
                    tool: "pmdebugger".into(),
                    model: "strict".into(),
                    order: None,
                    threads: 1,
                    metrics: None,
                    salvage,
                    supervise: SuperviseArgs::default(),
                },
                &mut String::new(),
            )
        };
        let err = replay(false).unwrap_err();
        assert!(
            err.message().contains("empty trace file")
                && err.message().contains("# pm-trace v1")
                && err.message().contains("PMTRACE2"),
            "{err}"
        );
        std::fs::write(&path, "not a trace at all\n").unwrap();
        let err = replay(false).unwrap_err();
        assert!(
            err.message().contains("# pm-trace v1") && err.message().contains("PMTRACE2"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_manifest_carries_ingest_counters() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("pmdbg_cli_ingest_metrics.pmt2");
        let manifest_path = dir.join("pmdbg_cli_ingest_metrics.json");
        execute(
            Command::Record {
                workload: "c_tree".into(),
                ops: 20,
                format: "bin".into(),
                out: trace_path.to_str().unwrap().to_owned(),
            },
            &mut String::new(),
        )
        .unwrap();
        // Corrupt one mid-file byte so the skip/resync counters move.
        let mut bytes = std::fs::read(&trace_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&trace_path, &bytes).unwrap();
        execute(
            Command::Replay {
                trace: trace_path.to_str().unwrap().to_owned(),
                tool: "pmdebugger".into(),
                model: "epoch".into(),
                order: None,
                threads: 1,
                metrics: Some(manifest_path.to_str().unwrap().to_owned()),
                salvage: true,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        )
        .unwrap();
        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert!(manifest.counters["ingest.frames_ok"] > 0);
        assert_eq!(manifest.counters["ingest.frames_skipped"], 1);
        assert_eq!(manifest.counters["ingest.resyncs"], 1);
        assert!(manifest.counters["ingest.bytes_salvaged"] > 0);
        assert_eq!(
            manifest.counters["ingest.frames_ok"], manifest.events_total,
            "every salvaged frame was replayed"
        );
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(manifest_path).ok();
    }

    #[test]
    fn outcome_classification_matches_exit_contract() {
        // Input problems (exit 2): missing file.
        let err = execute_outcome(
            Command::Sweep(SweepArgs {
                sweep: "corrupt".into(),
                trace: Some("/nonexistent/x.pmt2".into()),
                ..SweepArgs::default()
            }),
            &mut String::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");
        // Clean run (exit 0): bugs_found is false.
        let outcome = execute_outcome(
            Command::Run {
                workload: "b_tree".into(),
                ops: 50,
                tool: "pmdebugger".into(),
                order: None,
                threads: 1,
                metrics: None,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        )
        .unwrap();
        assert!(!outcome.bugs_found);
    }

    /// Smallest seed whose seeded fault plan dooms at least one shard
    /// under `sup` at `threads` workers — found by the same oracle the
    /// supervisor uses, so the test never guesses.
    fn dooming_seed(threads: usize, sup: &SupervisorConfig) -> u64 {
        (0..500u64)
            .find(|&seed| {
                let plan = FaultPlan::seeded(seed, threads, sup.total_attempts());
                !plan.doomed_workers(threads, sup).is_empty()
            })
            .expect("one of 500 seeds must doom a shard")
    }

    #[test]
    fn parses_supervision_flags_on_run_and_replay() {
        let cmd = parse(&args(&[
            "run",
            "-w",
            "b_tree",
            "--threads",
            "4",
            "--max-retries",
            "2",
            "--shard-deadline-ms",
            "5000",
            "--fail-mode",
            "degrade",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Run {
                supervise: SuperviseArgs {
                    max_retries: Some(2),
                    shard_deadline_ms: Some(5000),
                    fail_mode: Some(FailMode::Degrade),
                    fault_seed: Some(7),
                },
                ..
            }
        ));
        let cmd = parse(&args(&[
            "replay",
            "--trace",
            "/tmp/t",
            "--fail-mode",
            "strict",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Replay {
                supervise: SuperviseArgs {
                    fail_mode: Some(FailMode::Strict),
                    ..
                },
                ..
            }
        ));
        assert!(
            parse(&args(&["run", "-w", "x", "--fail-mode", "maybe"])).is_err(),
            "--fail-mode validates its value"
        );
        assert!(
            parse(&args(&["run", "-w", "x", "--max-retries", "NaN"])).is_err(),
            "--max-retries validates its value"
        );
        assert!(
            parse(&args(&["characterize", "-w", "x", "--fault-seed", "1"])).is_err(),
            "supervision flags are run/replay flags"
        );
    }

    #[test]
    fn supervised_run_without_faults_matches_plain_verdicts_and_is_not_degraded() {
        let run = |supervise: SuperviseArgs| {
            let mut out = String::new();
            let outcome = execute_outcome(
                Command::Run {
                    workload: "hashmap_atomic".into(),
                    ops: 64,
                    tool: "pmdebugger".into(),
                    order: None,
                    threads: 4,
                    metrics: None,
                    supervise,
                },
                &mut out,
            )
            .unwrap();
            // Everything but the header's wall-clock figure.
            let (header, rest) = out.split_once('\n').unwrap();
            let (header, _ms) = header.rsplit_once(" in ").unwrap();
            (outcome, format!("{header}\n{rest}"))
        };
        let (plain_outcome, plain) = run(SuperviseArgs::default());
        let (sup_outcome, supervised) = run(SuperviseArgs {
            max_retries: Some(1),
            ..SuperviseArgs::default()
        });
        assert!(
            plain.starts_with("hashmap_atomic x64 under pmdebugger [threads=4]: "),
            "{plain}"
        );
        assert_eq!(plain, supervised, "one threaded path, one output");
        assert_eq!(plain_outcome, sup_outcome);
        assert!(!sup_outcome.degraded);
    }

    #[test]
    fn degrade_mode_reports_casualties_and_exports_supervisor_counters() {
        let threads = 4;
        let supervise = SuperviseArgs {
            fail_mode: Some(FailMode::Degrade),
            fault_seed: None,
            max_retries: Some(1),
            shard_deadline_ms: None,
        };
        let seed = dooming_seed(threads, &supervise.config());
        let supervise = SuperviseArgs {
            fault_seed: Some(seed),
            ..supervise
        };
        let path = std::env::temp_dir().join("pmdbg_cli_supervised_degraded.json");
        let mut out = String::new();
        let outcome = execute_outcome(
            Command::Run {
                workload: "hashmap_atomic".into(),
                ops: 64,
                tool: "pmdebugger".into(),
                order: None,
                threads,
                metrics: Some(path.to_str().unwrap().to_owned()),
                supervise,
            },
            &mut out,
        )
        .unwrap();
        assert!(outcome.degraded, "{out}");
        assert!(out.contains("degraded:"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        let manifest = RunManifest::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(manifest.counters["supervisor.quarantined"] > 0);
        assert_eq!(manifest.counters["supervisor.degraded"], 1);
        assert!(manifest.counters.contains_key("supervisor.retries"));
        assert!(manifest.counters["supervisor.lost_events"] > 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn strict_mode_surfaces_a_typed_internal_error() {
        let threads = 4;
        let supervise = SuperviseArgs {
            fail_mode: Some(FailMode::Strict),
            fault_seed: None,
            max_retries: Some(0),
            shard_deadline_ms: None,
        };
        let seed = dooming_seed(threads, &supervise.config());
        let err = execute_outcome(
            Command::Run {
                workload: "hashmap_atomic".into(),
                ops: 64,
                tool: "pmdebugger".into(),
                order: None,
                threads,
                metrics: None,
                supervise: SuperviseArgs {
                    fault_seed: Some(seed),
                    ..supervise
                },
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::Internal(ref m) if m.contains("shard")),
            "{err:?}"
        );
    }

    #[test]
    fn supervision_flags_with_baseline_tool_are_a_clean_error() {
        // The flags tune the sharded pipeline, which only pmdebugger at
        // two or more threads runs: anything else is bad usage (exit 2).
        for (tool, threads) in [("pmemcheck", 1), ("pmemcheck", 4), ("pmdebugger", 1)] {
            let err = execute_outcome(
                Command::Run {
                    workload: "b_tree".into(),
                    ops: 8,
                    tool: tool.into(),
                    order: None,
                    threads,
                    metrics: None,
                    supervise: SuperviseArgs {
                        max_retries: Some(1),
                        ..SuperviseArgs::default()
                    },
                },
                &mut String::new(),
            )
            .unwrap_err();
            assert!(
                matches!(err, ExecError::Input(ref m) if m.contains("pmdebugger")),
                "{tool} --threads {threads}: {err:?}"
            );
        }
        let err = execute_outcome(
            Command::Replay {
                trace: "/nonexistent/t.pmt2".into(),
                tool: "pmdebugger".into(),
                model: "strict".into(),
                order: None,
                threads: 1,
                metrics: None,
                salvage: false,
                supervise: SuperviseArgs {
                    fail_mode: Some(FailMode::Strict),
                    ..SuperviseArgs::default()
                },
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::Input(ref m) if m.contains("--threads >= 2")),
            "{err:?}"
        );
    }

    #[test]
    fn supervised_replay_works_from_a_recorded_trace() {
        let dir = std::env::temp_dir();
        let path = dir.join("pmdbg_cli_supervised_replay.trace");
        let manifest_path = dir.join("pmdbg_cli_supervised_replay.json");
        let path_str = path.to_str().unwrap().to_owned();
        execute(
            Command::Record {
                workload: "c_tree".into(),
                ops: 20,
                format: "text".into(),
                out: path_str.clone(),
            },
            &mut String::new(),
        )
        .unwrap();
        let replay = |supervise: SuperviseArgs| {
            let mut out = String::new();
            let outcome = execute_outcome(
                Command::Replay {
                    trace: path_str.clone(),
                    tool: "pmdebugger".into(),
                    model: "epoch".into(),
                    order: None,
                    threads: 2,
                    metrics: Some(manifest_path.to_str().unwrap().to_owned()),
                    salvage: false,
                    supervise,
                },
                &mut out,
            )
            .unwrap();
            assert!(!outcome.degraded);
            let text = std::fs::read_to_string(&manifest_path).unwrap();
            (out, RunManifest::from_json(&text).unwrap())
        };
        let (out, flagged) = replay(SuperviseArgs {
            max_retries: Some(1),
            ..SuperviseArgs::default()
        });
        let (_, flagless) = replay(SuperviseArgs::default());
        assert!(out.starts_with("replayed "), "{out}");
        assert!(
            out.contains(" events through pmdebugger [threads=2] in "),
            "{out}"
        );
        for manifest in [&flagged, &flagless] {
            // Ingest accounting, routing and supervision all reach the
            // manifest, the supervision counters at 0 on a healthy run.
            assert_eq!(manifest.counters["ingest.frames_ok"], manifest.events_total);
            assert_eq!(manifest.counters["ingest.frames_skipped"], 0);
            assert_eq!(
                manifest.counters["parallel.routed_events"]
                    + manifest.counters["parallel.broadcast_events"],
                manifest.events_total
            );
            for name in ["retries", "quarantined", "lost_events", "degraded"] {
                assert_eq!(
                    manifest.counters[&format!("supervisor.{name}")],
                    0,
                    "{name}"
                );
            }
            assert!(
                manifest.stages.contains_key("replay"),
                "{:?}",
                manifest.stages
            );
        }
        assert_eq!(flagged.bugs, flagless.bugs);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(manifest_path).ok();
    }

    #[test]
    fn stats_rejects_missing_and_malformed_files() {
        let err = execute(
            Command::Stats {
                file: "/nonexistent/m.json".into(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("cannot read"));

        let path = std::env::temp_dir().join("pmdbg_cli_bad_manifest.json");
        std::fs::write(&path, "{\"schema\":\"wrong\"}").unwrap();
        let err = execute(
            Command::Stats {
                file: path.to_str().unwrap().to_owned(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(err.contains("schema") || err.contains("field"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parses_serve_push_and_serve_chaos() {
        let cmd = parse(&args(&["serve", "--listen", "/tmp/pmdbg.sock"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                listen: "/tmp/pmdbg.sock".into(),
                model: "strict".into(),
                salvage: true,
                max_sessions: 64,
                max_events: None,
                session_deadline_ms: None,
                max_retries: None,
                fail_mode: None,
                drain_ms: 5000,
                metrics: None,
                journal_dir: None,
                mem_budget: None,
                session_mem_budget: None,
                spill_dir: None,
            }
        );
        let cmd = parse(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:7070",
            "--model",
            "epoch",
            "--strict",
            "--max-sessions",
            "4",
            "--max-events",
            "1000",
            "--session-deadline-ms",
            "0",
            "--max-retries",
            "1",
            "--fail-mode",
            "strict",
            "--drain-ms",
            "100",
            "--metrics",
            "/tmp/m.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                listen: "127.0.0.1:7070".into(),
                model: "epoch".into(),
                salvage: false,
                max_sessions: 4,
                max_events: Some(1000),
                session_deadline_ms: Some(0),
                max_retries: Some(1),
                fail_mode: Some(FailMode::Strict),
                drain_ms: 100,
                metrics: Some("/tmp/m.json".into()),
                journal_dir: None,
                mem_budget: None,
                session_mem_budget: None,
                spill_dir: None,
            }
        );
        assert!(parse(&args(&["serve"])).is_err(), "--listen required");

        let cmd = parse(&args(&[
            "serve",
            "--listen",
            "/tmp/pmdbg.sock",
            "--journal-dir",
            "/tmp/jrnl",
        ]))
        .unwrap();
        assert!(
            matches!(&cmd, Command::Serve { journal_dir: Some(dir), .. } if dir == "/tmp/jrnl"),
            "{cmd:?}"
        );
        let cmd = parse(&args(&[
            "serve",
            "--listen",
            "/tmp/pmdbg.sock",
            "--journal-dir",
            "/tmp/jrnl",
            "--no-journal",
        ]))
        .unwrap();
        assert!(
            matches!(
                &cmd,
                Command::Serve {
                    journal_dir: None,
                    mem_budget: None,
                    session_mem_budget: None,
                    spill_dir: None,
                    ..
                }
            ),
            "--no-journal overrides --journal-dir: {cmd:?}"
        );

        let cmd = parse(&args(&[
            "push",
            "--addr",
            "/tmp/a.sock",
            "--trace",
            "t.pmt2",
            "--json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Push {
                addr: "/tmp/a.sock".into(),
                trace: "t.pmt2".into(),
                session: None,
                json: true,
            }
        );
        assert!(parse(&args(&["push", "--trace", "t"])).is_err(), "--addr");

        let cmd = parse(&args(&[
            "push",
            "--addr",
            "/tmp/a.sock",
            "--trace",
            "t.pmt2",
            "--session",
            "run-1",
        ]))
        .unwrap();
        assert!(
            matches!(&cmd, Command::Push { session: Some(key), .. } if key == "run-1"),
            "{cmd:?}"
        );
        assert!(
            parse(&args(&[
                "push",
                "--addr",
                "/tmp/a.sock",
                "--trace",
                "t",
                "--session",
                "bad key!"
            ]))
            .is_err(),
            "session keys are validated at parse time"
        );
    }

    #[test]
    fn parses_recover() {
        let cmd = parse(&args(&["recover", "/tmp/jrnl", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Recover {
                dir: "/tmp/jrnl".into(),
                json: true,
            }
        );
        assert!(parse(&args(&["recover"])).is_err(), "directory required");
        assert!(parse(&args(&["recover", "/tmp/a", "/tmp/b"])).is_err());
    }

    #[test]
    fn recover_scans_a_journal_directory() {
        let dir = std::env::temp_dir().join(format!("pmdbg-cli-recover-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("k1.wal"), pm_serve::JOURNAL_FILE_MAGIC).unwrap();
        let mut out = String::new();
        let outcome = execute_outcome(
            Command::Recover {
                dir: dir.to_str().unwrap().to_owned(),
                json: false,
            },
            &mut out,
        )
        .unwrap();
        assert!(!outcome.bugs_found && !outcome.degraded);
        assert!(out.contains("1 journaled session(s)"), "{out}");
        assert!(out.contains("k1: no durable progress"), "{out}");

        let mut json_out = String::new();
        execute_outcome(
            Command::Recover {
                dir: dir.to_str().unwrap().to_owned(),
                json: true,
            },
            &mut json_out,
        )
        .unwrap();
        assert!(
            json_out.contains("\"schema\":\"pmdbg-recover-v1\""),
            "{json_out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();

        let err = execute_outcome(
            Command::Recover {
                dir: "/nonexistent/journal-dir".into(),
                json: false,
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");
    }

    /// Pins the 0/2/3/4 exit-code contract for the offline inspection
    /// commands: unreadable inputs are typed [`ExecError::Input`] (exit
    /// 2, never a panic or an internal error), and a journal directory
    /// that is only partially readable degrades (exit 4) with the
    /// skipped entries counted instead of aborting the scan.
    #[test]
    fn recover_and_stats_honor_the_exit_code_contract() {
        // A regular file where a directory is expected: Input, exit 2.
        let not_a_dir =
            std::env::temp_dir().join(format!("pmdbg-cli-not-a-dir-{}.wal", std::process::id()));
        std::fs::write(&not_a_dir, b"not a directory").unwrap();
        let err = execute_outcome(
            Command::Recover {
                dir: not_a_dir.to_str().unwrap().to_owned(),
                json: false,
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");
        std::fs::remove_file(&not_a_dir).unwrap();

        // A directory with one good journal and one unreadable `.wal`
        // entry (a subdirectory): the scan survives, reports the good
        // session, counts the skipped entry, and degrades (exit 4).
        let dir = std::env::temp_dir().join(format!("pmdbg-cli-degraded-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("bad.wal")).unwrap();
        std::fs::write(dir.join("good.wal"), pm_serve::JOURNAL_FILE_MAGIC).unwrap();
        let mut out = String::new();
        let outcome = execute_outcome(
            Command::Recover {
                dir: dir.to_str().unwrap().to_owned(),
                json: false,
            },
            &mut out,
        )
        .unwrap();
        assert!(outcome.degraded && !outcome.bugs_found, "{out}");
        assert!(out.contains("1 journaled session(s)"), "{out}");
        assert!(out.contains("1 unreadable journal entry skipped"), "{out}");

        let mut json_out = String::new();
        execute_outcome(
            Command::Recover {
                dir: dir.to_str().unwrap().to_owned(),
                json: true,
            },
            &mut json_out,
        )
        .unwrap();
        assert!(json_out.contains("\"read_failures\":1"), "{json_out}");
        std::fs::remove_dir_all(&dir).unwrap();

        // Stats on a missing file and on garbage bytes: Input, exit 2.
        let err = execute_outcome(
            Command::Stats {
                file: "/nonexistent/manifest.json".into(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");

        let garbage =
            std::env::temp_dir().join(format!("pmdbg-cli-garbage-{}.json", std::process::id()));
        std::fs::write(&garbage, b"\x00\xffnot json at all").unwrap();
        let err = execute_outcome(
            Command::Stats {
                file: garbage.to_str().unwrap().to_owned(),
            },
            &mut String::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");
        std::fs::remove_file(&garbage).unwrap();
    }

    #[test]
    fn parses_serve_memory_flags() {
        let cmd = parse(&args(&[
            "serve",
            "--listen",
            "/tmp/s.sock",
            "--mem-budget",
            "1048576",
            "--session-mem-budget",
            "65536",
            "--spill-dir",
            "/tmp/spill",
        ]))
        .unwrap();
        assert!(
            matches!(
                &cmd,
                Command::Serve {
                    mem_budget: Some(1_048_576),
                    session_mem_budget: Some(65_536),
                    spill_dir: Some(dir),
                    ..
                } if dir == "/tmp/spill"
            ),
            "{cmd:?}"
        );
    }

    #[test]
    fn push_to_dead_address_is_an_input_error() {
        let push = |trace: &str| {
            execute_outcome(
                Command::Push {
                    addr: std::env::temp_dir()
                        .join("pmdbg-cli-no-such-server.sock")
                        .to_str()
                        .unwrap()
                        .to_owned(),
                    trace: trace.into(),
                    session: None,
                    json: false,
                },
                &mut String::new(),
            )
            .unwrap_err()
        };
        let err = push("/nonexistent/trace.pmt2");
        assert!(matches!(err, ExecError::Input(_)), "{err:?}");
        // A malformed text trace fails its conversion before any connect.
        let path = std::env::temp_dir().join("pmdbg_cli_push_bad.trace");
        std::fs::write(&path, "# pm-trace v1\nwat wat\n").unwrap();
        let err = push(path.to_str().unwrap());
        assert!(
            matches!(&err, ExecError::Input(m) if m.contains("line 2")),
            "{err:?}"
        );
        std::fs::remove_file(path).ok();
    }

    /// The daemon lifecycle end to end, in-process: serve on a unix
    /// socket, push a recorded trace, stop via the same flag the signal
    /// handlers flip, and check the drained summary plus final manifest.
    /// The only test touching [`SERVE_STOP`] — keep it that way, the
    /// flag is process-global.
    #[test]
    fn serve_command_drains_on_stop_and_writes_manifest() {
        let dir = std::env::temp_dir();
        let socket = dir.join(format!("pmdbg-cli-serve-{}.sock", std::process::id()));
        let trace_path = dir.join("pmdbg_cli_serve.pmt2");
        let manifest_path = dir.join("pmdbg_cli_serve_manifest.json");
        let mut out = String::new();
        execute(
            Command::Record {
                workload: "b_tree".into(),
                ops: 24,
                format: "bin".into(),
                out: trace_path.to_str().unwrap().to_owned(),
            },
            &mut out,
        )
        .unwrap();

        let serve_socket = socket.to_str().unwrap().to_owned();
        let serve_manifest = manifest_path.to_str().unwrap().to_owned();
        let server = std::thread::spawn(move || {
            let mut out = String::new();
            let outcome = execute_outcome(
                Command::Serve {
                    listen: serve_socket,
                    model: "strict".into(),
                    salvage: true,
                    max_sessions: 8,
                    max_events: None,
                    session_deadline_ms: None,
                    max_retries: None,
                    fail_mode: None,
                    drain_ms: 2000,
                    metrics: Some(serve_manifest),
                    journal_dir: None,
                    mem_budget: None,
                    session_mem_budget: None,
                    spill_dir: None,
                },
                &mut out,
            );
            (outcome, out)
        });

        // Wait for the listener, then push.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !socket.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut push_out = String::new();
        let outcome = execute_outcome(
            Command::Push {
                addr: socket.to_str().unwrap().to_owned(),
                trace: trace_path.to_str().unwrap().to_owned(),
                session: None,
                json: false,
            },
            &mut push_out,
        )
        .unwrap();
        assert!(!outcome.degraded, "{push_out}");
        assert!(push_out.contains("session 1 ok"), "{push_out}");
        assert!(push_out.contains("report hash"), "{push_out}");

        // A v1 text trace is converted before the push: the daemon must
        // see every event and reach `replay`'s verdict on the same file.
        let text_path = dir.join("pmdbg_cli_serve.trace");
        let text_manifest = dir.join("pmdbg_cli_serve_text_manifest.json");
        execute(
            Command::Record {
                workload: "b_tree".into(),
                ops: 96,
                format: "text".into(),
                out: text_path.to_str().unwrap().to_owned(),
            },
            &mut String::new(),
        )
        .unwrap();
        let mut text_out = String::new();
        execute_outcome(
            Command::Push {
                addr: socket.to_str().unwrap().to_owned(),
                trace: text_path.to_str().unwrap().to_owned(),
                session: None,
                json: true,
            },
            &mut text_out,
        )
        .unwrap();
        let pushed = PushResponse::from_json(text_out.trim()).unwrap();
        execute_outcome(
            Command::Replay {
                trace: text_path.to_str().unwrap().to_owned(),
                tool: "pmdebugger".into(),
                model: "strict".into(),
                order: None,
                threads: 1,
                metrics: Some(text_manifest.to_str().unwrap().to_owned()),
                salvage: false,
                supervise: SuperviseArgs::default(),
            },
            &mut String::new(),
        )
        .unwrap();
        let replayed =
            RunManifest::from_json(&std::fs::read_to_string(&text_manifest).unwrap()).unwrap();
        assert_eq!(pushed.status, SessionStatus::Ok, "{text_out}");
        assert_eq!(
            Some(&pushed.frames_ok),
            replayed.counters.get("ingest.frames_ok")
        );
        assert_eq!(pushed.report_hash, replayed.bugs.report_hash);
        assert_eq!(pushed.bugs_total, replayed.bugs.total);
        assert_eq!(pushed.bugs_total, 26);
        assert_eq!(pushed.report_hash, "4fc95a913f0f9819");

        request_serve_stop();
        let (outcome, serve_out) = server.join().unwrap();
        let outcome = outcome.unwrap();
        assert!(!outcome.degraded, "{serve_out}");
        assert!(
            serve_out.contains("served 2 session(s): 2 ok"),
            "{serve_out}"
        );
        let manifest =
            RunManifest::from_json(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        assert_eq!(manifest.tool, "pmdbg-serve");
        assert_eq!(manifest.counters.get("serve.sessions"), Some(&2));
        assert!(!socket.exists(), "socket unlinked after drain");
        for path in [trace_path, manifest_path, text_path, text_manifest] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn crash_point_seed_changes_sampled_boundaries_and_is_deterministic() {
        // hashmap_atomic x64 has 515 boundaries: more than the 256 plans.
        let sampled = |seed: Option<u64>| {
            let args = SweepArgs {
                sweep: "crash-points".into(),
                workload: Some("hashmap_atomic".into()),
                seed,
                json: true,
                ..SweepArgs::default()
            };
            let mut out = String::new();
            execute(Command::Sweep(args), &mut out).unwrap();
            let json = pm_obs::json::Value::parse(out.trim()).unwrap();
            assert_eq!(
                json.get("tallies").and_then(|t| t.get("boundaries")),
                Some(&pm_obs::json::Value::UInt(515)),
                "{out}"
            );
            let field = |key: &str| json.get(key).map(ToString::to_string);
            (field("tallies"), field("plan_mix"))
        };
        assert_eq!(sampled(Some(11)), sampled(Some(11)));
        assert_ne!(sampled(Some(11)), sampled(Some(12)));
        assert_eq!(
            sampled(None),
            sampled(Some(CrashPointSweep::DEFAULT_SEED)),
            "no --seed keeps the sweep's default"
        );
    }
}
