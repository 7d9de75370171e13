//! Daemon-crash torture for the crash-durable serving path.
//!
//! Where [`mod@crate::serve_sweep`] tortures a *live* server with hostile
//! clients, this module kills the server itself: seeded plans run keyed
//! (journaled) sessions against a daemon, crash it mid-stream — an
//! in-process hard stop plus a simulated power cut on the journal, or a
//! real `kill -9` of a `pmdbg serve` subprocess — restart it over the
//! same journal directory, replay the client, and check the crash-
//! durability contract on every answer:
//!
//! * **zero verdict loss**: a verdict the ledger fenced is answered
//!   from the ledger (`replayed:true`), never silently recomputed;
//! * **zero verdict duplication**: every re-push of a completed key
//!   returns the *same* verdict (report hash, bug totals, commit
//!   counts) — exactly-once emission across crashes;
//! * **byte-identical recovery**: a session resumed from its last
//!   durable checkpoint finishes with the same report hash as an
//!   uninterrupted batch run over the same trace;
//! * **total recovery**: torn tails, dropped fsyncs, short writes and
//!   ENOSPC degrade durability, never correctness — the recovery scan
//!   discards damage and the daemon keeps serving.
//!
//! Journal faults are injected through [`FaultFs`], an in-memory
//! [`JournalEnv`] that models the durable/volatile split of a real
//! disk: appends land in a volatile tail, `sync` moves it to durable
//! storage (or lies, under `DropFsync`), and [`FaultFs::crash`] keeps a
//! seeded prefix of the volatile bytes — a torn write at the exact
//! granularity a power cut produces.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pm_serve::{
    client::{connect_stream, ClientConn},
    fetch_stats, session_preface, JournalEnv, JournalIo, Listen, PushResponse, ServeConfig, Server,
    SessionStatus, JOURNAL_FILE_MAGIC,
};
use pm_trace::{
    ingest_bytes, splitmix64, to_binary, zero_copy, IngestLimits, IngestMode, ZeroCopy,
};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, PersistencyModel};

use crate::serve_sweep::push_with_retry;
use crate::sweep::{batch_reports, hash_hex, temp_path, Sweep, SweepViolation, Tallies};

/// How the injected journal filesystem misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Faithful disk: appends land volatile, sync makes them durable.
    None,
    /// `sync` reports success but leaves everything volatile — a crash
    /// loses writes the server believed durable.
    DropFsync,
    /// After `after_bytes` total appended bytes, each append lands only
    /// partially and then errors — a torn record mid-file.
    ShortWrite {
        /// Total append budget before writes start tearing.
        after_bytes: usize,
    },
    /// After `after_bytes` total appended bytes, appends fail with
    /// an out-of-space error (partial landing, like a real ENOSPC).
    Enospc {
        /// Total append budget before the device fills.
        after_bytes: usize,
    },
}

#[derive(Default)]
struct FileBuf {
    durable: Vec<u8>,
    volatile: Vec<u8>,
    /// Journal records whose append and sync both returned.
    records: usize,
    /// A record append failed; the journal takes no more records.
    failed: bool,
}

struct FaultFsInner {
    spec: FaultSpec,
    seed: u64,
    state: Mutex<FaultFsState>,
}

struct FaultFsState {
    files: BTreeMap<String, FileBuf>,
    appended: usize,
}

/// Fault-injecting in-memory [`JournalEnv`] modelling a disk's
/// durable/volatile split. Reads see both halves (like the OS page
/// cache); [`FaultFs::crash`] discards the volatile tail at a seeded
/// byte offset. Cloning yields another handle on the same store.
#[derive(Clone)]
pub struct FaultFs {
    inner: Arc<FaultFsInner>,
}

impl FaultFs {
    /// A fresh fault filesystem with the given misbehavior and tear
    /// seed.
    pub fn new(spec: FaultSpec, seed: u64) -> FaultFs {
        FaultFs {
            inner: Arc::new(FaultFsInner {
                spec,
                seed,
                state: Mutex::new(FaultFsState {
                    files: BTreeMap::new(),
                    appended: 0,
                }),
            }),
        }
    }

    fn append_bytes(&self, key: &str, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.inner.state.lock().expect("fault fs poisoned");
        let budget = match self.inner.spec {
            FaultSpec::ShortWrite { after_bytes } | FaultSpec::Enospc { after_bytes } => {
                Some(after_bytes)
            }
            _ => None,
        };
        if let Some(after) = budget {
            if st.appended + bytes.len() > after {
                // A torn partial landing, then the error surfaces.
                let cut = after.saturating_sub(st.appended).min(bytes.len());
                let file = st.files.entry(key.to_owned()).or_default();
                file.volatile.extend_from_slice(&bytes[..cut]);
                st.appended += cut;
                return Err(match self.inner.spec {
                    FaultSpec::Enospc { .. } => {
                        io::Error::other("no space left on device (injected)")
                    }
                    _ => io::Error::new(io::ErrorKind::WriteZero, "short write (injected)"),
                });
            }
        }
        let file = st.files.entry(key.to_owned()).or_default();
        file.volatile.extend_from_slice(bytes);
        st.appended += bytes.len();
        Ok(())
    }

    fn sync_key(&self, key: &str) -> io::Result<()> {
        if self.inner.spec == FaultSpec::DropFsync {
            // The lie: report durability, keep the bytes volatile.
            return Ok(());
        }
        let mut st = self.inner.state.lock().expect("fault fs poisoned");
        if let Some(file) = st.files.get_mut(key) {
            let tail = std::mem::take(&mut file.volatile);
            file.durable.extend_from_slice(&tail);
        }
        Ok(())
    }

    /// Simulated power cut: every file keeps a seeded prefix of its
    /// volatile tail (the torn write) and loses the rest.
    pub fn crash(&self) {
        let mut st = self.inner.state.lock().expect("fault fs poisoned");
        let mut s = self.inner.seed ^ 0xC4A5_04F5;
        for file in st.files.values_mut() {
            if file.volatile.is_empty() {
                continue;
            }
            let keep = (splitmix64(&mut s) as usize) % (file.volatile.len() + 1);
            file.durable.extend_from_slice(&file.volatile[..keep]);
            file.volatile.clear();
        }
    }

    /// Device-level tail damage *despite* fsync ordering: truncates a
    /// seeded number of bytes off every durable file (never into the
    /// file magic), so recovery must resync past a torn final record.
    pub fn tear_tail(&self) {
        let mut st = self.inner.state.lock().expect("fault fs poisoned");
        let mut s = self.inner.seed ^ 0x7EA2_7A11;
        let keep_at_least = JOURNAL_FILE_MAGIC.len();
        for file in st.files.values_mut() {
            if file.durable.len() <= keep_at_least {
                continue;
            }
            let max_cut = file.durable.len() - keep_at_least;
            let cut = 1 + (splitmix64(&mut s) as usize) % max_cut;
            let len = file.durable.len();
            file.durable.truncate(len - cut);
        }
    }

    /// Whether `key`'s journal holds at least `records` records, or an
    /// append to it failed (after which the server writes it no more).
    /// Either way its bytes stop changing until the stream moves on.
    pub fn journal_settled(&self, key: &str, records: usize) -> bool {
        let st = self.inner.state.lock().expect("fault fs poisoned");
        st.files
            .get(key)
            .is_some_and(|f| f.failed || f.records >= records)
    }

    fn note_record(&self, key: &str, result: &io::Result<()>, synced: bool) {
        let mut st = self.inner.state.lock().expect("fault fs poisoned");
        let file = st.files.entry(key.to_owned()).or_default();
        match result {
            Err(_) => file.failed = true,
            Ok(()) if synced => file.records += 1,
            Ok(()) => {}
        }
    }

    /// Current visible (durable + volatile) size of `key`'s journal.
    pub fn visible_len(&self, key: &str) -> usize {
        let st = self.inner.state.lock().expect("fault fs poisoned");
        st.files
            .get(key)
            .map_or(0, |f| f.durable.len() + f.volatile.len())
    }
}

struct FaultIo {
    fs: FaultFs,
    key: String,
}

impl JournalIo for FaultIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let result = self.fs.append_bytes(&self.key, bytes);
        self.fs.note_record(&self.key, &result, false);
        result
    }
    fn sync(&mut self) -> io::Result<()> {
        let result = self.fs.sync_key(&self.key);
        self.fs.note_record(&self.key, &result, true);
        result
    }
}

impl JournalEnv for FaultFs {
    fn open_append(&self, _dir: &Path, key: &str) -> io::Result<Box<dyn JournalIo>> {
        let empty = {
            let st = self.inner.state.lock().expect("fault fs poisoned");
            st.files
                .get(key)
                .is_none_or(|f| f.durable.is_empty() && f.volatile.is_empty())
        };
        if empty {
            self.append_bytes(key, JOURNAL_FILE_MAGIC)?;
            self.sync_key(key)?;
        }
        Ok(Box::new(FaultIo {
            fs: self.clone(),
            key: key.to_owned(),
        }))
    }

    fn read(&self, _dir: &Path, key: &str) -> io::Result<Vec<u8>> {
        let st = self.inner.state.lock().expect("fault fs poisoned");
        Ok(st.files.get(key).map_or_else(Vec::new, |f| {
            let mut bytes = f.durable.clone();
            bytes.extend_from_slice(&f.volatile);
            bytes
        }))
    }

    fn list_keys(&self, _dir: &Path) -> io::Result<Vec<String>> {
        let st = self.inner.state.lock().expect("fault fs poisoned");
        Ok(st.files.keys().cloned().collect())
    }
}

/// One daemon-crash scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPlan {
    /// No crash: complete push, duplicate push must replay, and the
    /// replay fence must survive a clean restart.
    CleanRun,
    /// Hard-kill the daemon mid-stream after at least one committed
    /// batch boundary; the resumed session must finish batch-identical.
    KillMidStream,
    /// Kill mid-stream *and* tear bytes off the durable journal tail.
    TornTail,
    /// Kill mid-stream with every fsync silently dropped.
    DroppedFsync,
    /// Kill mid-stream with appends tearing after a byte budget.
    ShortWrite,
    /// Kill mid-stream with the journal device filling up.
    Enospc,
    /// `kill -9` a *real* `pmdbg serve` subprocess mid-stream (runs
    /// in-process with a faithful fault-fs when no binary is given).
    Kill9Subprocess,
}

impl CrashPlan {
    /// Stable lowercase name (JSON key in the plan-mix object).
    pub fn name(self) -> &'static str {
        match self {
            CrashPlan::CleanRun => "clean_run",
            CrashPlan::KillMidStream => "kill_mid_stream",
            CrashPlan::TornTail => "torn_tail",
            CrashPlan::DroppedFsync => "dropped_fsync",
            CrashPlan::ShortWrite => "short_write",
            CrashPlan::Enospc => "enospc",
            CrashPlan::Kill9Subprocess => "kill9_subprocess",
        }
    }
}

/// The plan for sweep index `i` under `seed` — a pure function, so a
/// failing index replays in isolation.
pub fn crash_plan_for(seed: u64, index: u64) -> CrashPlan {
    let mut s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match splitmix64(&mut s) % 100 {
        0..=14 => CrashPlan::CleanRun,
        15..=39 => CrashPlan::KillMidStream,
        40..=54 => CrashPlan::TornTail,
        55..=69 => CrashPlan::DroppedFsync,
        70..=79 => CrashPlan::ShortWrite,
        80..=89 => CrashPlan::Enospc,
        _ => CrashPlan::Kill9Subprocess,
    }
}

/// Commit batch size the sweep serves under: small, so a mid-stream
/// kill lands between many checkpointed boundaries.
const SWEEP_CHECKPOINT_EVERY: usize = 16;

/// Server policy for one sweep daemon incarnation.
fn crash_config(listen: Listen, dir: PathBuf, env: Option<FaultFs>) -> ServeConfig {
    let mut cfg = ServeConfig::new(listen);
    cfg.checkpoint_every = SWEEP_CHECKPOINT_EVERY;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg.session_deadline = Some(Duration::from_secs(10));
    cfg.journal_dir = Some(dir);
    cfg.journal_env = env.map(|fs| Arc::new(fs) as Arc<dyn JournalEnv>);
    cfg
}

/// The trace a plan pushes: a clean BTree workload, long enough for
/// several commit batches.
fn payload(seed: u64, index: u64) -> Vec<u8> {
    let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let trace_seed = splitmix64(&mut s);
    let ops = 48 + (splitmix64(&mut s) % 32) as usize;
    to_binary(&record_trace(&BTree::new(trace_seed), ops))
}

/// Offline reference: the report hash of an uninterrupted batch run
/// over the exact bytes a plan pushes.
fn batch_hash(bytes: &[u8]) -> String {
    let events = ingest_bytes(bytes, IngestMode::Salvage, &IngestLimits::default())
        .map(|(trace, _)| trace.events().to_vec())
        .unwrap_or_default();
    hash_hex(&batch_reports(
        &DebuggerConfig::for_model(PersistencyModel::Strict),
        &events,
    ))
}

/// Polls `pred` every 5 ms until it holds or `timeout` passes.
fn wait_for(pred: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Counter value from a live server's stats manifest (0 when stats are
/// unavailable — tallies degrade, oracles never depend on them alone).
fn stats_counter(listen: &Listen, name: &str) -> u64 {
    fetch_stats(listen)
        .ok()
        .and_then(|text| pm_obs::RunManifest::from_json(&text).ok())
        .and_then(|manifest| manifest.counters.get(name).copied())
        .unwrap_or(0)
}

/// Pushes keyed bytes, absorbing one busy answer.
fn push_keyed_retry(listen: &Listen, key: &str, bytes: &[u8]) -> io::Result<PushResponse> {
    push_with_retry(listen, Some(key), bytes).map(|(response, _)| response)
}

/// The part of a plan's bytes [`push_prefix`] sends: the first 70%.
fn prefix(bytes: &[u8]) -> &[u8] {
    &bytes[..bytes.len() * 7 / 10]
}

/// Batch boundaries a daemon commits while it holds [`prefix`] of
/// `bytes`: the complete frames in the prefix are its events, and a
/// full batch is fed (and journaled) when the event after it arrives.
fn prefix_boundaries(bytes: &[u8]) -> usize {
    let mut events = 0usize;
    if let Ok(ZeroCopy::Binary(mut walker)) =
        zero_copy(prefix(bytes), IngestMode::Strict, &IngestLimits::default())
    {
        // Strict walking stops at the frame the cut tore.
        while let Ok(Some(_)) = walker.next_ref() {
            events += 1;
        }
    }
    events.saturating_sub(1) / SWEEP_CHECKPOINT_EVERY
}

/// Connects and streams the session preface plus [`prefix`] of `bytes`,
/// holding the connection open mid-session.
fn push_prefix(listen: &Listen, key: &str, bytes: &[u8]) -> io::Result<ClientConn> {
    let mut conn = connect_stream(listen)?;
    conn.write_all(&session_preface(key))?;
    conn.write_all(prefix(bytes))?;
    conn.flush()?;
    Ok(conn)
}

/// The restarted daemon's half of a plan: count the torn regions its
/// recovery discarded, re-push the key, and check the answer — a replay
/// of the verdict `completed` before the restart, or an interrupted
/// session finishing batch-identical (never claiming a replay) and then
/// replaying — and count the sessions it resumed.
fn after_restart(
    listen: &Listen,
    key: &str,
    bytes: &[u8],
    completed: Option<&PushResponse>,
    steps: &mut Vec<Step>,
) {
    steps.push(Step::TornDiscarded(stats_counter(
        listen,
        "journal.torn_discarded",
    )));
    match (push_keyed_retry(listen, key, bytes), completed) {
        // The verdict was fenced before the (clean) restart: this push
        // must come back from the durable ledger. Replayed lines skip
        // the final check (already checked before the restart).
        (Ok(response), Some(first)) => {
            let replayed = response.replayed;
            steps.push(Step::Replay(
                Box::new(first.clone()),
                Box::new(response.clone()),
            ));
            if !replayed {
                steps.push(Step::Final(Box::new(response)));
            }
        }
        (Ok(response), None) => {
            if response.replayed {
                steps.push(Step::Phantom);
            }
            steps.push(Step::Final(Box::new(response.clone())));
            match push_keyed_retry(listen, key, bytes) {
                Ok(again) => steps.push(Step::Replay(Box::new(response), Box::new(again))),
                Err(e) => steps.push(Step::Violation("push-io", e.to_string())),
            }
        }
        (Err(e), _) => steps.push(Step::Violation("push-io", e.to_string())),
    }
    steps.push(Step::Resumed(stats_counter(
        listen,
        "journal.sessions_resumed",
    )));
}

/// One observation a plan run records for [`DaemonCrashSweep::check`].
#[derive(Debug)]
pub enum Step {
    /// Host panics (or a daemon that would not start) — aborts.
    Aborts(u64),
    /// A completed response that must match the batch hash.
    Final(Box<PushResponse>),
    /// A re-push of a completed key: `(first, again)` must be one verdict
    /// answered from the ledger.
    Replay(Box<PushResponse>, Box<PushResponse>),
    /// An interrupted session answered `replayed:true`.
    Phantom,
    /// Torn journal regions a restarted daemon's recovery discarded.
    TornDiscarded(u64),
    /// Sessions a restarted daemon resumed from a checkpoint.
    Resumed(u64),
    /// A broken invariant observed directly (I/O, startup).
    Violation(&'static str, String),
}

/// Runs one in-process plan: daemon A (maybe killed mid-stream), a
/// simulated power cut on the journal, daemon B recovering over the
/// same store, then the exactly-once and byte-identity oracles.
fn run_in_process(crash: CrashPlan, seed: u64, index: u64, steps: &mut Vec<Step>) {
    let key = format!("plan-{index}");
    let bytes = payload(seed, index);
    let mut s = seed ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D);
    let spec = match crash {
        CrashPlan::ShortWrite => FaultSpec::ShortWrite {
            after_bytes: 1024 + (splitmix64(&mut s) % 4096) as usize,
        },
        CrashPlan::Enospc => FaultSpec::Enospc {
            after_bytes: 1024 + (splitmix64(&mut s) % 4096) as usize,
        },
        CrashPlan::DroppedFsync => FaultSpec::DropFsync,
        _ => FaultSpec::None,
    };
    let fs = FaultFs::new(spec, splitmix64(&mut s));
    let dir = temp_path("dcrash-jrnl");
    let kill_mid = crash != CrashPlan::CleanRun;

    // Daemon A.
    let cfg = crash_config(
        Listen::Unix(temp_path("dcrash-a.sock")),
        dir.clone(),
        Some(fs.clone()),
    );
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            steps.push(Step::Aborts(1));
            steps.push(Step::Violation("start-failure", e.to_string()));
            return;
        }
    };
    let listen = server.local_listen().clone();

    let mut completed_on_a: Option<PushResponse> = None;
    if kill_mid {
        // Push a prefix, hold the connection open, and wait until every
        // batch boundary inside the prefix has reached the journal (or
        // the faulty device refused a record) before pulling the plug:
        // the journal the power cut tears is then a function of the
        // plan, not of how far the daemon got.
        let boundaries = prefix_boundaries(&bytes);
        match push_prefix(&listen, &key, &bytes) {
            Ok(conn) => {
                let committed = wait_for(
                    || fs.journal_settled(&key, boundaries),
                    Duration::from_secs(3),
                );
                if !committed && crash == CrashPlan::KillMidStream {
                    steps.push(Step::Violation(
                        "no-commit-before-kill",
                        format!(
                            "the journal did not reach {boundaries} records within 3 s \
                             of a mid-stream push"
                        ),
                    ));
                }
                // Hard kill: zero drain, sessions abandoned mid-flight.
                let summary = server.shutdown(Duration::ZERO);
                steps.push(Step::Aborts(summary.host_panics));
                drop(conn);
            }
            Err(e) => {
                steps.push(Step::Violation("push-io", e.to_string()));
                let summary = server.shutdown(Duration::from_secs(2));
                steps.push(Step::Aborts(summary.host_panics));
            }
        }
        // Power cut: lose the un-synced tail at a seeded byte offset.
        fs.crash();
        if crash == CrashPlan::TornTail {
            fs.tear_tail();
        }
    } else {
        match push_keyed_retry(&listen, &key, &bytes) {
            Ok(response) => {
                steps.push(Step::Final(Box::new(response.clone())));
                // Exactly-once within one daemon lifetime.
                match push_keyed_retry(&listen, &key, &bytes) {
                    Ok(again) => {
                        steps.push(Step::Replay(Box::new(response.clone()), Box::new(again)))
                    }
                    Err(e) => steps.push(Step::Violation("push-io", e.to_string())),
                }
                completed_on_a = Some(response);
            }
            Err(e) => steps.push(Step::Violation("push-io", e.to_string())),
        }
        let summary = server.shutdown(Duration::from_secs(2));
        steps.push(Step::Aborts(summary.host_panics));
    }

    // Daemon B: recover over the same journal store.
    let cfg = crash_config(
        Listen::Unix(temp_path("dcrash-b.sock")),
        dir.clone(),
        Some(fs.clone()),
    );
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            steps.push(Step::Aborts(1));
            steps.push(Step::Violation("restart-failure", e.to_string()));
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    after_restart(
        server.local_listen(),
        &key,
        &bytes,
        completed_on_a.as_ref(),
        steps,
    );
    let summary = server.shutdown(Duration::from_secs(2));
    steps.push(Step::Aborts(summary.host_panics));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a real `pmdbg serve` daemon on `sock`/`dir` and waits until
/// it accepts connections.
fn spawn_daemon(exe: &Path, sock: &Path, dir: &Path) -> io::Result<std::process::Child> {
    let child = std::process::Command::new(exe)
        .args([
            "serve",
            "--listen",
            &sock.to_string_lossy(),
            "--journal-dir",
            &dir.to_string_lossy(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()?;
    let listen = Listen::Unix(sock.to_path_buf());
    if !wait_for(|| connect_stream(&listen).is_ok(), Duration::from_secs(10)) {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "daemon did not start accepting within 10 s",
        ));
    }
    Ok(child)
}

/// Runs one real-subprocess plan: spawn `pmdbg serve --journal-dir`,
/// `kill -9` it mid-stream, restart it over the same directory, replay
/// the client, and run the same oracles as the in-process plans.
fn run_subprocess(exe: &Path, seed: u64, index: u64, steps: &mut Vec<Step>) {
    let key = format!("plan-{index}");
    let bytes = payload(seed, index);
    let dir = temp_path("dcrash-jrnl");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        steps.push(Step::Violation("setup-failure", e.to_string()));
        return;
    }
    let wal = dir.join(format!("{key}.wal"));

    // Daemon A: killed -9 mid-stream.
    let sock = temp_path("dcrash-pa.sock");
    let mut child = match spawn_daemon(exe, &sock, &dir) {
        Ok(child) => child,
        Err(e) => {
            steps.push(Step::Aborts(1));
            steps.push(Step::Violation("spawn-failure", e.to_string()));
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    match push_prefix(&Listen::Unix(sock.clone()), &key, &bytes) {
        Ok(conn) => {
            // The default 4096-event commit batch won't trip on this
            // small trace, so accept "journal file exists" as the
            // commit signal and kill on a short fuse either way.
            let _ = wait_for(
                || {
                    std::fs::metadata(&wal)
                        .map(|m| m.len() > JOURNAL_FILE_MAGIC.len() as u64)
                        .unwrap_or(false)
                },
                Duration::from_millis(500),
            );
            let _ = child.kill();
            let _ = child.wait();
            drop(conn);
        }
        Err(e) => {
            steps.push(Step::Violation("push-io", e.to_string()));
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    let _ = std::fs::remove_file(&sock);

    // Daemon B: recovers the journal directory on startup.
    let sock = temp_path("dcrash-pb.sock");
    let mut child = match spawn_daemon(exe, &sock, &dir) {
        Ok(child) => child,
        Err(e) => {
            steps.push(Step::Aborts(1));
            steps.push(Step::Violation("respawn-failure", e.to_string()));
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    after_restart(&Listen::Unix(sock.clone()), &key, &bytes, None, steps);
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon-crash sweep.
#[derive(Debug, Clone, Default)]
pub struct DaemonCrashSweep {
    /// A `pmdbg` binary for the real `kill -9` subprocess plans; `None`
    /// runs those plans in-process instead.
    pmdbg_exe: Option<PathBuf>,
}

impl DaemonCrashSweep {
    /// A sweep that runs `kill -9` plans against `pmdbg_exe` when given.
    pub fn new(pmdbg_exe: Option<PathBuf>) -> Self {
        DaemonCrashSweep { pmdbg_exe }
    }
}

/// One crash scenario: plan `index` of `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonPlan {
    /// The sweep seed (payload and fault parameters derive from it).
    pub seed: u64,
    /// Plan index (also the session key, `plan-<index>`).
    pub index: usize,
    /// The scenario.
    pub crash: CrashPlan,
}

/// What one crash scenario observed.
#[derive(Debug)]
pub struct DaemonOutcome {
    /// Report hash of an uninterrupted batch run over the pushed bytes.
    expected: String,
    /// Observations, in the order the plan made them.
    steps: Vec<Step>,
}

/// The stable verdict subset compared across replays: anything that
/// differs here means two different verdicts were emitted for one key.
fn verdict_fingerprint(r: &PushResponse) -> (String, u64, u64, String) {
    (
        r.report_hash.clone(),
        r.bugs_total,
        r.events_committed,
        format!("{:?}", r.status),
    )
}

impl Sweep for DaemonCrashSweep {
    const NAME: &'static str = "daemon-crash";
    const DEFAULT_SEED: u64 = 0x7C4A_5AD0;
    const DEFAULT_PLANS: usize = 100;
    type Plan = DaemonPlan;
    type Outcome = DaemonOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = DaemonPlan>> {
        Box::new((0..).map(move |index: usize| DaemonPlan {
            seed,
            index,
            crash: crash_plan_for(seed, index as u64),
        }))
    }

    fn kind(plan: &DaemonPlan) -> &'static str {
        plan.crash.name()
    }

    fn run(&mut self, plan: &DaemonPlan) -> DaemonOutcome {
        let index = plan.index as u64;
        let mut steps = Vec::new();
        match (plan.crash, &self.pmdbg_exe) {
            (CrashPlan::Kill9Subprocess, Some(exe)) => {
                run_subprocess(exe, plan.seed, index, &mut steps);
            }
            _ => run_in_process(plan.crash, plan.seed, index, &mut steps),
        }
        DaemonOutcome {
            expected: batch_hash(&payload(plan.seed, index)),
            steps,
        }
    }

    fn check(
        &self,
        _plan: &DaemonPlan,
        outcome: &DaemonOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        for key in [
            "verdicts_lost",
            "verdicts_duplicated",
            "replayed_from_ledger",
            "resumed_from_checkpoint",
            "torn_discarded_total",
        ] {
            tallies.add(key, 0);
        }
        let mut violations = Vec::new();
        let mut violation =
            |kind: &'static str, detail: String| violations.push(SweepViolation::new(kind, detail));
        for step in &outcome.steps {
            match step {
                Step::Aborts(n) => tallies.aborts += n,
                Step::TornDiscarded(n) => tallies.add("torn_discarded_total", *n),
                Step::Resumed(n) => tallies.add("resumed_from_checkpoint", *n),
                Step::Violation(kind, detail) => violation(kind, detail.clone()),
                Step::Phantom => {
                    tallies.add("verdicts_duplicated", 1);
                    violation(
                        "phantom-verdict",
                        "interrupted session replayed a verdict that was never emitted".to_owned(),
                    );
                }
                // The final (post-restart) completed response against the
                // batch reference.
                Step::Final(response) => {
                    if response.status != SessionStatus::Ok {
                        violation(
                            "final-not-ok",
                            format!("status {:?} ({:?})", response.status, response.error),
                        );
                    } else if response.report_hash != outcome.expected {
                        violation(
                            "hash-divergence",
                            format!(
                                "recovered hash {} != batch hash {}",
                                response.report_hash, outcome.expected
                            ),
                        );
                    }
                }
                // The exactly-once oracle: a re-push of a completed key
                // must come back from the ledger, with an identical
                // verdict.
                Step::Replay(first, again) => {
                    if !again.replayed {
                        tallies.add("verdicts_lost", 1);
                        violation(
                            "verdict-recomputed",
                            "completed key was recomputed instead of replayed from the ledger"
                                .to_owned(),
                        );
                    } else {
                        tallies.add("replayed_from_ledger", 1);
                    }
                    if verdict_fingerprint(first) != verdict_fingerprint(again) {
                        tallies.add("verdicts_duplicated", 1);
                        violation(
                            "verdict-diverged",
                            format!(
                                "re-push verdict {:?} != original {:?}",
                                verdict_fingerprint(again),
                                verdict_fingerprint(first)
                            ),
                        );
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_fs_models_durable_volatile_split() {
        let fs = FaultFs::new(FaultSpec::None, 7);
        fs.append_bytes("k", b"abc").unwrap();
        assert_eq!(fs.read(Path::new("."), "k").unwrap(), b"abc".to_vec());
        // Crash before sync: a seeded prefix of the volatile tail
        // survives, never more.
        fs.crash();
        let after = fs.read(Path::new("."), "k").unwrap();
        assert!(after.len() <= 3);
        assert_eq!(after, b"abc"[..after.len()].to_vec());

        let fs = FaultFs::new(FaultSpec::None, 7);
        fs.append_bytes("k", b"abc").unwrap();
        fs.sync_key("k").unwrap();
        fs.crash();
        assert_eq!(
            fs.read(Path::new("."), "k").unwrap(),
            b"abc".to_vec(),
            "synced bytes survive a crash"
        );
    }

    #[test]
    fn dropped_fsync_loses_believed_durable_bytes() {
        let fs = FaultFs::new(FaultSpec::DropFsync, 1);
        fs.append_bytes("k", &[0xAA; 64]).unwrap();
        fs.sync_key("k").unwrap();
        fs.crash();
        assert!(
            fs.read(Path::new("."), "k").unwrap().len() < 64,
            "a dropped fsync must be able to lose data (seeded cut < full length)"
        );
    }

    #[test]
    fn byte_budget_faults_tear_and_error() {
        let fs = FaultFs::new(FaultSpec::Enospc { after_bytes: 10 }, 3);
        fs.append_bytes("k", &[1; 8]).unwrap();
        let err = fs.append_bytes("k", &[2; 8]).unwrap_err();
        assert!(err.to_string().contains("no space"));
        // The torn partial landing is visible.
        assert_eq!(fs.visible_len("k"), 10);
    }

    #[test]
    fn journal_settles_on_synced_records_or_a_failed_append() {
        let fs = FaultFs::new(FaultSpec::ShortWrite { after_bytes: 40 }, 5);
        let mut io = fs.open_append(Path::new("."), "k").unwrap();
        assert!(fs.journal_settled("k", 0));
        io.append(&[1; 16]).unwrap();
        assert!(!fs.journal_settled("k", 1), "appended but not synced");
        io.sync().unwrap();
        assert!(fs.journal_settled("k", 1));
        assert!(!fs.journal_settled("k", 2));
        // The device tears the next record: no more records will come.
        assert!(io.append(&[2; 32]).is_err());
        assert!(fs.journal_settled("k", 2));
        assert!(!fs.journal_settled("other", 0), "no journal yet");
    }

    #[test]
    fn a_plan_waits_for_every_boundary_in_its_prefix() {
        let bytes = payload(0x7C4A_5AD0, 3);
        let events = ingest_bytes(
            prefix(&bytes),
            IngestMode::Salvage,
            &IngestLimits::default(),
        )
        .map(|(trace, _)| trace.len())
        .unwrap();
        assert!(events > SWEEP_CHECKPOINT_EVERY, "{events} events");
        assert_eq!(
            prefix_boundaries(&bytes),
            (events - 1) / SWEEP_CHECKPOINT_EVERY
        );
    }

    #[test]
    fn tear_tail_never_cuts_into_the_magic() {
        let fs = FaultFs::new(FaultSpec::None, 11);
        fs.append_bytes("k", JOURNAL_FILE_MAGIC).unwrap();
        fs.append_bytes("k", &[9; 40]).unwrap();
        fs.sync_key("k").unwrap();
        fs.tear_tail();
        let bytes = fs.read(Path::new("."), "k").unwrap();
        assert!(bytes.len() >= JOURNAL_FILE_MAGIC.len());
        assert!(bytes.len() < JOURNAL_FILE_MAGIC.len() + 40);
        assert!(bytes.starts_with(JOURNAL_FILE_MAGIC));
    }
}
