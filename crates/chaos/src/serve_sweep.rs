//! Session-level chaos sweep for `pmdbg serve`.
//!
//! Where [`crate::supervise`] tortures the parallel detection engine and
//! [`crate::corrupt`] tortures the batch reader, this module tortures
//! the *service*: a real in-process server on a unix socket, fed
//! hundreds of seeded hostile client sessions — mid-stream disconnects,
//! slow-loris trickles that outlive the session deadline, corrupt
//! frames, injected detector panics (transient and permanent), budget
//! exhaustion — and checks the whole serve contract on every answer:
//!
//! * **zero server aborts**: every connection is answered or closed
//!   cleanly and the final summary reports zero host panics;
//! * **survivors are byte-identical to batch**: every `ok` response's
//!   `report_hash` equals an offline batch run (`ingest_bytes` +
//!   `detect_stream`, same ingest limits) over the exact bytes that
//!   session sent;
//! * **casualties are exact**: every quarantined response satisfies
//!   `frames_lost == frames_ok - events_committed`, and its committed
//!   results hash-match a batch re-feed of the first `events_committed`
//!   salvaged events.
//!
//! All plans share one server, and sessions run sequentially, so the
//! server's 1-based session ids map deterministically onto plan indices:
//! session `n` is plan `first + n - 1`, where `first` is the index of the
//! plan that started the server. That is what lets the fault hook target
//! exactly the sessions the plan says to fault — in a full run (`first`
//! is 0) and in a single-plan replay (`first` is the replayed index).

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use pm_serve::{
    client::connect_stream, fetch_stats, push_bytes, push_bytes_keyed, FaultPoint, Listen,
    PushResponse, ServeConfig, Server, SessionStatus,
};
use pm_trace::{ingest_bytes, splitmix64, to_binary, IngestLimits, IngestMode, PmEvent};
use pm_workloads::{record_trace, BTree};
use pmdebugger::{DebuggerConfig, DetectSession, PersistencyModel};

use crate::sweep::{batch_reports, hash_hex, temp_path, Sweep, SweepViolation, Tallies};

/// What one hostile client does to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPlan {
    /// Complete well-formed push, half-close, read the answer.
    Clean,
    /// Push a seeded prefix of a valid image, half-close, read.
    TruncatedPush,
    /// Push a seeded prefix and drop the socket without half-close or
    /// reading the answer (client died).
    AbruptDisconnect,
    /// Push a valid image with one seeded bit flipped past the header.
    CorruptBitFlip,
    /// Push a bit-flipped *and* truncated image.
    CorruptTruncate,
    /// Trickle a few bytes, then stall past the session deadline.
    SlowLoris,
    /// Push a few bytes of non-trace garbage.
    GarbageTiny,
    /// A clean push whose detection panics once per batch attempt 0
    /// (must succeed via retry, byte-identical to a fault-free run).
    PanicTransient,
    /// A clean push whose detection panics on every attempt once fed
    /// (must quarantine with exact loss accounting).
    PanicPermanent,
    /// A clean push large enough to trip the server's event budget.
    BudgetExceeded,
    /// A `STATS\n` request; the answer must parse as a run manifest.
    Stats,
}

impl SessionPlan {
    /// Stable lowercase name (JSON key in the plan-mix object).
    pub fn name(self) -> &'static str {
        match self {
            SessionPlan::Clean => "clean",
            SessionPlan::TruncatedPush => "truncated_push",
            SessionPlan::AbruptDisconnect => "abrupt_disconnect",
            SessionPlan::CorruptBitFlip => "corrupt_bit_flip",
            SessionPlan::CorruptTruncate => "corrupt_truncate",
            SessionPlan::SlowLoris => "slow_loris",
            SessionPlan::GarbageTiny => "garbage_tiny",
            SessionPlan::PanicTransient => "panic_transient",
            SessionPlan::PanicPermanent => "panic_permanent",
            SessionPlan::BudgetExceeded => "budget_exceeded",
            SessionPlan::Stats => "stats",
        }
    }
}

/// The plan for sweep index `i` under `seed` — a pure function, shared
/// by the driver and the server-side fault hook.
pub fn plan_for(seed: u64, index: u64) -> SessionPlan {
    let mut s = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match splitmix64(&mut s) % 100 {
        0..=24 => SessionPlan::Clean,
        25..=36 => SessionPlan::TruncatedPush,
        37..=47 => SessionPlan::AbruptDisconnect,
        48..=58 => SessionPlan::CorruptBitFlip,
        59..=66 => SessionPlan::CorruptTruncate,
        67..=72 => SessionPlan::SlowLoris,
        73..=79 => SessionPlan::GarbageTiny,
        80..=86 => SessionPlan::PanicTransient,
        87..=92 => SessionPlan::PanicPermanent,
        93..=96 => SessionPlan::BudgetExceeded,
        _ => SessionPlan::Stats,
    }
}

/// Server policy the sweep runs under: salvage mode, small commit
/// batches (so permanent faults quarantine mid-stream), a short session
/// deadline (so slow-loris sessions die in bounded time), and an event
/// budget the `BudgetExceeded` plan overruns.
fn sweep_config(listen: Listen, seed: u64, first: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(listen);
    cfg.checkpoint_every = 64;
    cfg.max_retries = 2;
    cfg.retry_backoff = Duration::from_millis(1);
    cfg.session_deadline = Some(Duration::from_millis(500));
    cfg.limits = sweep_limits();
    cfg.fault_hook = Some(Arc::new(move |p: FaultPoint| {
        match plan_for(seed, first as u64 + p.session.saturating_sub(1)) {
            SessionPlan::PanicTransient => p.attempt == 0 && !p.at_finish,
            SessionPlan::PanicPermanent => p.events_fed > 0 || p.at_finish,
            _ => false,
        }
    }));
    cfg
}

/// Ingest limits the server and the batch reference share: an event
/// budget the `BudgetExceeded` plan overruns.
fn sweep_limits() -> IngestLimits {
    IngestLimits::default().with_max_events(1200)
}

/// The payload a session pushes, derived from the sweep seed.
fn payload(seed: u64, index: u64, plan: SessionPlan) -> Vec<u8> {
    let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let trace_seed = splitmix64(&mut s);
    let ops = match plan {
        SessionPlan::BudgetExceeded => 400,
        _ => 10 + (splitmix64(&mut s) % 50) as usize,
    };
    let bytes = to_binary(&record_trace(&BTree::new(trace_seed), ops));
    match plan {
        SessionPlan::TruncatedPush | SessionPlan::AbruptDisconnect => {
            // Any cut, including mid-header and mid-frame.
            let cut = (splitmix64(&mut s) % (bytes.len() as u64 + 1)) as usize;
            bytes[..cut].to_vec()
        }
        SessionPlan::CorruptBitFlip => {
            let mut bytes = bytes;
            let offset = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[offset] ^= 1 << (splitmix64(&mut s) % 8);
            bytes
        }
        SessionPlan::CorruptTruncate => {
            let mut bytes = bytes;
            let offset = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[offset] ^= 1 << (splitmix64(&mut s) % 8);
            let cut = 8 + (splitmix64(&mut s) % (bytes.len() as u64 - 8)) as usize;
            bytes[..cut].to_vec()
        }
        SessionPlan::GarbageTiny => {
            let n = 1 + (splitmix64(&mut s) % 16) as usize;
            (0..n).map(|_| (splitmix64(&mut s) & 0xFF) as u8).collect()
        }
        _ => bytes,
    }
}

/// Offline reference: batch-salvage the exact bytes a session sent,
/// under the sweep's ingest limits. `None` when the batch reader
/// rejects the image outright (tiny/headerless), in which case the
/// service must have decoded zero frames.
fn batch_events(bytes: &[u8], limits: &IngestLimits) -> Option<Vec<PmEvent>> {
    ingest_bytes(bytes, IngestMode::Salvage, limits)
        .ok()
        .map(|(trace, _)| trace.events().to_vec())
}

/// Hash of the committed reports of a quarantined session: feed the
/// first `n` salvaged events, never run `finish`.
fn prefix_hash(events: &[PmEvent], n: usize) -> String {
    let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
    hash_hex(&session.feed(&events[..n.min(events.len())]))
}

/// Pushes `bytes` (under session `key`, when given) and absorbs one busy
/// answer by honoring its retry-after hint. Returns the terminal response
/// and how many sheds were absorbed.
pub(crate) fn push_with_retry(
    listen: &Listen,
    key: Option<&str>,
    bytes: &[u8],
) -> std::io::Result<(PushResponse, u64)> {
    let push = || match key {
        Some(key) => push_bytes_keyed(listen, key, bytes),
        None => push_bytes(listen, bytes),
    };
    let response = push()?;
    if response.status != SessionStatus::Busy {
        return Ok((response, 0));
    }
    std::thread::sleep(Duration::from_millis(
        response.retry_after_ms.unwrap_or(100),
    ));
    Ok((push()?, 1))
}

/// The hostile-client sweep against one shared in-process server.
#[derive(Default)]
pub struct ServeSweep {
    /// The server, started by the first plan run.
    server: Option<Server>,
}

/// One hostile session: plan `index` of `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePlan {
    /// The sweep seed (payloads and the fault hook derive from it).
    pub seed: u64,
    /// Plan index.
    pub index: usize,
    /// What the client does.
    pub session: SessionPlan,
}

/// What one hostile session saw.
#[derive(Debug)]
pub enum ServeOutcome {
    /// The server could not start.
    StartFailed(String),
    /// A `STATS` answer.
    Stats(String),
    /// An abrupt disconnect: nothing to read back.
    Dropped,
    /// A push answer, with the exact bytes the server received.
    Answered {
        /// Bytes the client sent.
        sent: Vec<u8>,
        /// The terminal answer.
        response: Box<PushResponse>,
        /// Busy answers absorbed before it.
        sheds: u64,
        /// The error kind a quarantine must carry, if any.
        expect_error_kind: Option<&'static str>,
    },
    /// Client-side I/O failed.
    Failed(&'static str, String),
}

impl ServeSweep {
    /// The shared server's address, starting the server on first use with
    /// its fault hook anchored at `plan`.
    fn listen(&mut self, plan: &ServePlan) -> std::io::Result<Listen> {
        if self.server.is_none() {
            let cfg = sweep_config(Listen::Unix(temp_path("serve.sock")), plan.seed, plan.index);
            self.server = Some(Server::start(cfg)?);
        }
        let server = self.server.as_ref().expect("the server was started above");
        Ok(server.local_listen().clone())
    }
}

impl Sweep for ServeSweep {
    const NAME: &'static str = "serve";
    const DEFAULT_SEED: u64 = 0x5E55_1085;
    const DEFAULT_PLANS: usize = 200;
    type Plan = ServePlan;
    type Outcome = ServeOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = ServePlan>> {
        Box::new((0..).map(move |index: usize| ServePlan {
            seed,
            index,
            session: plan_for(seed, index as u64),
        }))
    }

    fn kind(plan: &ServePlan) -> &'static str {
        plan.session.name()
    }

    fn run(&mut self, plan: &ServePlan) -> ServeOutcome {
        let listen = match self.listen(plan) {
            Ok(listen) => listen,
            Err(e) => return ServeOutcome::StartFailed(e.to_string()),
        };
        let bytes = || payload(plan.seed, plan.index as u64, plan.session);
        match plan.session {
            SessionPlan::Stats => match fetch_stats(&listen) {
                Ok(text) => ServeOutcome::Stats(text),
                Err(e) => ServeOutcome::Failed("stats-io", e.to_string()),
            },
            SessionPlan::AbruptDisconnect => match connect_stream(&listen) {
                Ok(mut conn) => {
                    // Best-effort write, then drop without half-close or
                    // reading: the client died. The server must absorb it
                    // (verified by the final zero-abort accounting and by
                    // every later session still being answered).
                    let _ = conn.write_all(&bytes());
                    ServeOutcome::Dropped
                }
                Err(e) => ServeOutcome::Failed("connect-failure", e.to_string()),
            },
            SessionPlan::SlowLoris => match connect_stream(&listen) {
                Ok(mut conn) => {
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(30)));
                    // Trickle a few bytes, then stall well past the 500 ms
                    // session deadline before half-closing.
                    let mut sent = Vec::new();
                    for chunk in bytes().chunks(4).take(3) {
                        if conn.write_all(chunk).is_ok() {
                            sent.extend_from_slice(chunk);
                        }
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    std::thread::sleep(Duration::from_millis(900));
                    let _ = conn.shutdown_write();
                    let mut text = String::new();
                    let _ = conn.read_to_string(&mut text);
                    match PushResponse::from_json(&text) {
                        Ok(response) => ServeOutcome::Answered {
                            sent,
                            response: Box::new(response),
                            sheds: 0,
                            expect_error_kind: Some("deadline"),
                        },
                        Err(e) => ServeOutcome::Failed(
                            "no-response",
                            format!("slow-loris got no parsable answer: {e}"),
                        ),
                    }
                }
                Err(e) => ServeOutcome::Failed("connect-failure", e.to_string()),
            },
            _ => {
                let sent = bytes();
                match push_with_retry(&listen, None, &sent) {
                    Ok((response, sheds)) => ServeOutcome::Answered {
                        sent,
                        response: Box::new(response),
                        sheds,
                        expect_error_kind: None,
                    },
                    Err(e) => ServeOutcome::Failed("push-io", e.to_string()),
                }
            }
        }
    }

    fn check(
        &self,
        _plan: &ServePlan,
        outcome: &ServeOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        match outcome {
            ServeOutcome::StartFailed(e) => {
                tallies.aborts += 1;
                vec![SweepViolation::new("bind-failure", e.clone())]
            }
            ServeOutcome::Stats(text) => match pm_obs::RunManifest::from_json(text) {
                Ok(_) => Vec::new(),
                Err(_) => vec![SweepViolation::new("stats-unparsable", text.clone())],
            },
            ServeOutcome::Dropped => Vec::new(),
            ServeOutcome::Failed(kind, detail) => vec![SweepViolation::new(kind, detail.clone())],
            ServeOutcome::Answered {
                sent,
                response,
                sheds,
                expect_error_kind,
            } => {
                tallies.add("shed", *sheds);
                check_response(tallies, sent, response, *expect_error_kind)
            }
        }
    }

    fn finish(&mut self, tallies: &mut Tallies) -> Vec<SweepViolation> {
        let Some(server) = self.server.take() else {
            return Vec::new();
        };
        let summary = server.shutdown(Duration::from_secs(10));
        tallies.aborts += summary.host_panics;
        if summary.host_panics == 0 {
            return Vec::new();
        }
        vec![SweepViolation::new(
            "host-panic",
            format!("{} session host panics", summary.host_panics),
        )]
    }
}

/// The per-answer contract check shared by every plan that reads a
/// response.
fn check_response(
    tallies: &mut Tallies,
    sent: &[u8],
    response: &PushResponse,
    expect_error_kind: Option<&str>,
) -> Vec<SweepViolation> {
    let limits = sweep_limits();
    let mut violations = Vec::new();
    let mut violation =
        |kind: &'static str, detail: String| violations.push(SweepViolation::new(kind, detail));
    for key in [
        "ok_sessions",
        "quarantined_sessions",
        "errored_sessions",
        "hash_checks",
        "frames_lost_total",
    ] {
        tallies.add(key, 0);
    }
    tallies.add("retries_total", u64::from(response.retries));
    match response.status {
        SessionStatus::Ok => {
            tallies.add("ok_sessions", 1);
            if response.frames_lost != 0 {
                violation(
                    "loss-on-ok",
                    format!("ok response reports {} lost frames", response.frames_lost),
                );
            }
            if response.events_committed != response.frames_ok {
                violation(
                    "commit-gap-on-ok",
                    format!(
                        "committed {} of {} decoded frames",
                        response.events_committed, response.frames_ok
                    ),
                );
            }
            let events = batch_events(sent, &limits).unwrap_or_default();
            tallies.add("hash_checks", 1);
            if response.frames_ok != events.len() as u64 {
                violation(
                    "frame-count-divergence",
                    format!(
                        "service decoded {} frames, batch {}",
                        response.frames_ok,
                        events.len()
                    ),
                );
            }
            let strict = DebuggerConfig::for_model(PersistencyModel::Strict);
            let expected = hash_hex(&batch_reports(&strict, &events));
            if response.report_hash != expected {
                violation(
                    "hash-divergence",
                    format!(
                        "service hash {} != batch hash {expected} over {} events",
                        response.report_hash,
                        events.len()
                    ),
                );
            }
            if response.truncated.is_none() && response.bytes_read != sent.len() as u64 {
                violation(
                    "byte-count-divergence",
                    format!(
                        "service read {} bytes, client sent {}",
                        response.bytes_read,
                        sent.len()
                    ),
                );
            }
        }
        SessionStatus::Quarantined => {
            tallies.add("quarantined_sessions", 1);
            tallies.add("frames_lost_total", response.frames_lost);
            if let Some(expected_kind) = expect_error_kind {
                if response.error_kind.as_deref() != Some(expected_kind) {
                    violation(
                        "wrong-error-kind",
                        format!("expected `{expected_kind}`, got {:?}", response.error_kind),
                    );
                }
            }
            // Exact loss ledger: every decoded frame is either committed
            // or counted lost.
            if response.frames_lost != response.frames_ok.saturating_sub(response.events_committed)
            {
                violation(
                    "loss-mismatch",
                    format!(
                        "frames_lost {} != frames_ok {} - events_committed {}",
                        response.frames_lost, response.frames_ok, response.events_committed
                    ),
                );
            }
            // Committed results hash-match a batch re-feed of the
            // committed prefix (the service decodes a prefix of the
            // batch event sequence for these clean-byte plans).
            let events = batch_events(sent, &limits).unwrap_or_default();
            if events.len() as u64 >= response.events_committed {
                tallies.add("hash_checks", 1);
                let expected = prefix_hash(&events, response.events_committed as usize);
                if response.report_hash != expected {
                    violation(
                        "quarantine-hash-divergence",
                        format!(
                            "committed-prefix hash {} != batch {expected} over first {} events",
                            response.report_hash, response.events_committed
                        ),
                    );
                }
            }
        }
        SessionStatus::Error => {
            tallies.add("errored_sessions", 1);
            violation(
                "error-status-in-degrade-mode",
                format!("{:?} ({:?})", response.error, response.error_kind),
            );
        }
        SessionStatus::Busy => violation(
            "busy-after-retry",
            "server still shedding after honoring retry_after".to_owned(),
        ),
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{assert_json_keys, run_sweep, SweepOptions};

    #[test]
    fn small_sweep_is_clean_across_all_plans() {
        let report = run_sweep(
            &mut ServeSweep::default(),
            &SweepOptions::new(36, 0xD00D_F00D),
        );
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 36);
        assert_eq!(report.tallies.aborts, 0);
        assert_eq!(report.tally("errored_sessions"), 0);
        assert!(report.tally("hash_checks") > 0, "no hash checks ran");
        // The seeded mix must actually exercise the hostile plans.
        assert!(report.mix("clean") > 0);
        assert!(
            report.mix("panic_transient") + report.mix("panic_permanent") > 0,
            "{}",
            report.to_json()
        );
        assert_json_keys(
            &report,
            &[
                "ok_sessions",
                "quarantined_sessions",
                "errored_sessions",
                "shed",
                "hash_checks",
                "frames_lost_total",
                "retries_total",
            ],
        );
    }
}
