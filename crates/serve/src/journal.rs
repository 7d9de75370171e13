//! Write-ahead session journal: crash-durable checkpoints and an
//! exactly-once verdict ledger for keyed sessions.
//!
//! A server started with a journal directory appends one record per
//! committed batch boundary for every session that announced a key
//! (`SESSION <key>\n` preface). Records live in one append-only file
//! per key (`<dir>/<key>.wal`) behind an injectable [`JournalIo`] /
//! [`JournalEnv`] pair with explicit fsync points — the production
//! implementation is [`FsJournalEnv`]; the chaos suite substitutes a
//! fault-injecting one (torn writes, dropped fsyncs, short writes,
//! ENOSPC).
//!
//! # File format
//!
//! ```text
//! PMJRNL01                                    file magic (8 bytes)
//! [rec magic u32][type u8][len u32][payload][crc32 u32]   repeated
//! ```
//!
//! The CRC covers type + length + payload. Two record types are written:
//!
//! * **checkpoint** (type 3): session key, committed event count, the
//!   [`SessionCheckpoint`] blob, and the [`ReportDigest`] of the
//!   committed reports (per-kind counts plus the running report hash —
//!   all a verdict reads). The digest is fixed-size, so a record's size
//!   does not grow with the reports committed so far. Each record is
//!   self-contained, so recovery keeps the latest valid one and survives
//!   corruption anywhere else in the file.
//! * **verdict** (type 2): session key plus the exact response line the
//!   client was sent. Its presence fences replay — a later push of the
//!   same key is answered from the ledger (`replayed:true`) instead of
//!   recomputed, which is what makes verdict emission exactly-once
//!   across daemon crashes.
//!
//! Files written before the digest existed hold type-1 checkpoint
//! records: the same fields, with the cumulative committed report list
//! in place of the digest. Recovery still reads them, folding the list
//! into a digest; whichever checkpoint record comes last wins.
//!
//! # Recovery
//!
//! On startup the journal directory is scanned. Decoding is total:
//! a torn tail, a flipped bit, or a short write invalidates only the
//! records it touches — the scanner resynchronizes on the next record
//! magic (the same discipline as the v2 trace salvage reader) and
//! counts what it discarded. Interrupted sessions resume from their
//! last durable checkpoint when the client re-pushes the stream;
//! completed sessions replay their ledgered verdict verbatim.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pm_obs::MetricsRegistry;
use pm_trace::{crc32_fast, read_varint, write_varint, BugKind, ReportDigest};
use pmdebugger::{decode_reports, SessionCheckpoint};

/// Magic leading every journal file.
pub const JOURNAL_FILE_MAGIC: &[u8; 8] = b"PMJRNL01";

/// Magic leading every record (`"JRNL"` little-endian).
const REC_MAGIC: u32 = u32::from_le_bytes(*b"JRNL");

/// Record type: checkpoint carrying the cumulative committed report list
/// (read for older files, no longer written).
pub(crate) const REC_CHECKPOINT_LIST: u8 = 1;

/// Record type: final verdict ledger entry (replay fence).
const REC_VERDICT: u8 = 2;

/// Record type: checkpoint carrying the committed reports' digest.
const REC_CHECKPOINT: u8 = 3;

/// Bytes of record header before the payload: magic + type + length.
const REC_HEADER: usize = 4 + 1 + 4;

/// Upper bound on a single record's payload; anything larger is treated
/// as corruption (a torn length field must not trigger a huge scan).
const MAX_RECORD_LEN: u32 = 256 << 20;

/// Append-side of one journal file. `append` buffers at the OS's
/// discretion; only `sync` is a durability point.
pub trait JournalIo: Send {
    /// Appends bytes to the end of the journal file.
    ///
    /// # Errors
    ///
    /// Underlying I/O failure (e.g. ENOSPC); the session keeps serving
    /// without durability.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes everything appended so far durable.
    ///
    /// # Errors
    ///
    /// Underlying fsync failure.
    fn sync(&mut self) -> io::Result<()>;
}

/// Factory + read side of the journal store, injectable so the chaos
/// suite can substitute a fault-injecting filesystem.
pub trait JournalEnv: Send + Sync {
    /// Opens (creating if needed) the journal for `key` in append mode.
    ///
    /// # Errors
    ///
    /// Underlying open/create failure.
    fn open_append(&self, dir: &Path, key: &str) -> io::Result<Box<dyn JournalIo>>;

    /// Reads the full current contents of `key`'s journal (empty when
    /// it does not exist).
    ///
    /// # Errors
    ///
    /// Underlying read failure.
    fn read(&self, dir: &Path, key: &str) -> io::Result<Vec<u8>>;

    /// Lists every session key with a journal file in `dir`.
    ///
    /// # Errors
    ///
    /// Underlying directory-listing failure.
    fn list_keys(&self, dir: &Path) -> io::Result<Vec<String>>;
}

/// Production [`JournalEnv`]: one `<dir>/<key>.wal` file per session,
/// `File::sync_data` at every fsync point.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsJournalEnv;

fn wal_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.wal"))
}

struct FsJournalIo {
    file: std::fs::File,
}

impl JournalIo for FsJournalIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.file.write_all(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl JournalEnv for FsJournalEnv {
    fn open_append(&self, dir: &Path, key: &str) -> io::Result<Box<dyn JournalIo>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(wal_path(dir, key))?;
        let mut io = FsJournalIo { file };
        if io.file.metadata()?.len() == 0 {
            io.append(JOURNAL_FILE_MAGIC)?;
            io.sync()?;
        }
        Ok(Box::new(io))
    }

    fn read(&self, dir: &Path, key: &str) -> io::Result<Vec<u8>> {
        match std::fs::read(wal_path(dir, key)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn list_keys(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                keys.push(stem.to_owned());
            }
        }
        keys.sort();
        Ok(keys)
    }
}

/// Frames `payload` as one journal record.
pub(crate) fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER + payload.len() + 4);
    out.extend_from_slice(&REC_MAGIC.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32_fast(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Checkpoint payload: key, committed events, checkpoint blob, then the
/// committed reports (a digest in type 3, the full list in type 1).
pub(crate) fn checkpoint_payload(
    key: &str,
    events_committed: u64,
    ckpt: &[u8],
    reports: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + ckpt.len() + reports.len() + 24);
    write_varint(&mut out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
    write_varint(&mut out, events_committed);
    write_varint(&mut out, ckpt.len() as u64);
    out.extend_from_slice(ckpt);
    write_varint(&mut out, reports.len() as u64);
    out.extend_from_slice(reports);
    out
}

/// Digest wire form: each kind count (in [`BugKind::ALL`] order), then
/// the report hash, all as 8-byte little-endian words — a fixed size, so
/// a checkpoint record does not grow as reports accumulate.
fn encode_digest(digest: &ReportDigest) -> Vec<u8> {
    digest
        .counts
        .iter()
        .chain([&digest.hash])
        .flat_map(|word| word.to_le_bytes())
        .collect()
}

/// Inverse of [`encode_digest`]; `None` unless `bytes` is exactly one
/// digest.
fn decode_digest(bytes: &[u8]) -> Option<ReportDigest> {
    if bytes.len() != 8 * (BugKind::ALL.len() + 1) {
        return None;
    }
    let mut words = bytes
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
    let mut digest = ReportDigest::default();
    for count in &mut digest.counts {
        *count = words.next()?;
    }
    digest.hash = words.next()?;
    Some(digest)
}

fn verdict_payload(key: &str, verdict: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + verdict.len() + 8);
    write_varint(&mut out, key.len() as u64);
    out.extend_from_slice(key.as_bytes());
    write_varint(&mut out, verdict.len() as u64);
    out.extend_from_slice(verdict.as_bytes());
    out
}

/// Reads one length-prefixed byte field; `None` on any bound violation.
fn take_field<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let (len, used) = read_varint(&bytes[*pos..])?;
    let start = pos.checked_add(used)?;
    let end = start.checked_add(usize::try_from(len).ok()?)?;
    if end > bytes.len() {
        return None;
    }
    *pos = end;
    Some(&bytes[start..end])
}

fn take_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let (v, used) = read_varint(&bytes[*pos..])?;
    *pos += used;
    Some(v)
}

/// The durable state recovered for one session key.
#[derive(Debug, Clone, Default)]
pub struct ScanOutcome {
    /// Latest valid checkpoint: committed events, checkpoint blob, and
    /// the digest of the committed reports.
    pub checkpoint: Option<(u64, Vec<u8>, ReportDigest)>,
    /// Ledgered verdict line, when the session completed.
    pub verdict: Option<String>,
    /// Valid records replayed.
    pub records_replayed: u64,
    /// Torn/corrupt regions discarded (Salvage-style resync count).
    pub torn_discarded: u64,
}

/// Scans one journal file's bytes, keeping the latest valid checkpoint
/// and verdict and discarding torn or corrupt regions. Decoding is
/// total: arbitrary bytes never panic this function.
pub fn scan_journal(key: &str, bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    if bytes.is_empty() {
        return out;
    }
    if !bytes.starts_with(JOURNAL_FILE_MAGIC) {
        out.torn_discarded += 1;
        return out;
    }
    let mut pos = JOURNAL_FILE_MAGIC.len();
    let mut latest = None;
    let resync = |bytes: &[u8], from: usize| -> Option<usize> {
        let magic = REC_MAGIC.to_le_bytes();
        (from..bytes.len().checked_sub(3)?).find(|&i| bytes[i..i + 4] == magic)
    };
    while pos < bytes.len() {
        let valid = parse_record(key, bytes, pos);
        match valid {
            Some((kind_payload, next)) => {
                match kind_payload {
                    Record::Checkpoint(ec, ckpt, committed) => {
                        latest = Some((ec, ckpt, committed));
                    }
                    Record::Verdict(v) => out.verdict = Some(v),
                }
                out.records_replayed += 1;
                pos = next;
            }
            None => {
                out.torn_discarded += 1;
                match resync(bytes, pos + 1) {
                    Some(next) => pos = next,
                    None => break,
                }
            }
        }
    }
    // Only the winning record is copied out, and only its report list
    // (type 1) is decoded; a list that does not decode resumes nothing.
    out.checkpoint = latest.and_then(|(ec, ckpt, committed)| {
        let committed = match committed {
            Committed::Digest(digest) => digest,
            Committed::List(list) => ReportDigest::of(&decode_reports(list).ok()?),
        };
        Some((ec, ckpt.to_vec(), committed))
    });
    out
}

enum Record<'a> {
    Checkpoint(u64, &'a [u8], Committed<'a>),
    Verdict(String),
}

/// A checkpoint record's committed reports: a digest (type 3) or the
/// encoded list (type 1).
enum Committed<'a> {
    Digest(ReportDigest),
    List(&'a [u8]),
}

/// Parses the record at `pos`; `None` on any structural or checksum
/// damage (including a key that does not match the file).
fn parse_record<'a>(key: &str, bytes: &'a [u8], pos: usize) -> Option<(Record<'a>, usize)> {
    if bytes.len() - pos < REC_HEADER + 4 {
        return None;
    }
    if bytes[pos..pos + 4] != REC_MAGIC.to_le_bytes() {
        return None;
    }
    let kind = bytes[pos + 4];
    let len = u32::from_le_bytes(bytes[pos + 5..pos + 9].try_into().ok()?);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload_start = pos + REC_HEADER;
    let payload_end = payload_start.checked_add(len as usize)?;
    if payload_end + 4 > bytes.len() {
        return None;
    }
    let stored_crc = u32::from_le_bytes(bytes[payload_end..payload_end + 4].try_into().ok()?);
    if crc32_fast(&bytes[pos + 4..payload_end]) != stored_crc {
        return None;
    }
    let payload = &bytes[payload_start..payload_end];
    let mut p = 0usize;
    let rec_key = take_field(payload, &mut p)?;
    if rec_key != key.as_bytes() {
        return None;
    }
    let record = match kind {
        REC_CHECKPOINT | REC_CHECKPOINT_LIST => {
            let events_committed = take_varint(payload, &mut p)?;
            let ckpt = take_field(payload, &mut p)?;
            let reports = take_field(payload, &mut p)?;
            let committed = if kind == REC_CHECKPOINT {
                Committed::Digest(decode_digest(reports)?)
            } else {
                Committed::List(reports)
            };
            Record::Checkpoint(events_committed, ckpt, committed)
        }
        REC_VERDICT => {
            let verdict = take_field(payload, &mut p)?;
            Record::Verdict(std::str::from_utf8(verdict).ok()?.to_owned())
        }
        _ => return None,
    };
    if p != payload.len() {
        return None;
    }
    Some((record, payload_end + 4))
}

/// Checkpoint state a resumed session starts from.
pub(crate) struct ResumeState {
    pub checkpoint: SessionCheckpoint,
    pub committed: ReportDigest,
    pub events_committed: u64,
}

struct JournalState {
    /// Per-key scan results (only keys with a checkpoint or verdict).
    recovered: BTreeMap<String, ScanOutcome>,
    active: HashSet<String>,
}

/// The server-side journal manager: recovery state plus the active-key
/// set that serializes concurrent pushes of the same key.
pub(crate) struct Journal {
    dir: PathBuf,
    env: Arc<dyn JournalEnv>,
    registry: MetricsRegistry,
    state: Mutex<JournalState>,
}

/// How a keyed session begins against the journal.
pub(crate) enum Begin {
    /// The key's verdict is ledgered: answer with this stored line,
    /// do not recompute.
    Replay(String),
    /// The key is mid-flight on another connection.
    Busy,
    /// Fresh (or resumable) session with an open journal handle.
    Fresh(Box<SessionJournal>),
}

impl Journal {
    /// Opens the journal directory and runs the recovery pass: every
    /// `.wal` file is scanned, torn tails discarded, and the latest
    /// durable checkpoint/verdict per key loaded.
    ///
    /// # Errors
    ///
    /// Directory-listing failure. Per-file read failures degrade to an
    /// unrecovered key (counted), they do not fail startup.
    pub fn open(
        dir: PathBuf,
        env: Arc<dyn JournalEnv>,
        registry: MetricsRegistry,
    ) -> io::Result<Journal> {
        let started = Instant::now();
        let mut recovered = BTreeMap::new();
        for key in env.list_keys(&dir)? {
            let bytes = match env.read(&dir, &key) {
                Ok(bytes) => bytes,
                Err(_) => {
                    registry.counter("journal.read_failures").inc();
                    continue;
                }
            };
            let scan = scan_journal(&key, &bytes);
            registry
                .counter("journal.records_replayed")
                .add(scan.records_replayed);
            registry
                .counter("journal.torn_discarded")
                .add(scan.torn_discarded);
            if scan.checkpoint.is_some() || scan.verdict.is_some() {
                registry.counter("journal.sessions_recovered").inc();
                recovered.insert(key, scan);
            }
        }
        registry
            .gauge("journal.recovery_ms")
            .set(started.elapsed().as_millis() as i64);
        Ok(Journal {
            dir,
            env,
            registry,
            state: Mutex::new(JournalState {
                recovered,
                active: HashSet::new(),
            }),
        })
    }

    /// Starts a keyed session: replays a ledgered verdict, rejects a
    /// concurrently-active key, or hands out a journal handle (with the
    /// resumable checkpoint, when one was recovered).
    pub fn begin(self: &Arc<Self>, key: &str) -> Begin {
        let resume_blob = {
            let mut state = self.state.lock().expect("journal state poisoned");
            if let Some(entry) = state.recovered.get(key) {
                if let Some(verdict) = &entry.verdict {
                    self.registry.counter("journal.verdicts_replayed").inc();
                    return Begin::Replay(verdict.clone());
                }
            }
            if !state.active.insert(key.to_owned()) {
                return Begin::Busy;
            }
            state
                .recovered
                .get(key)
                .and_then(|entry| entry.checkpoint.clone())
        };
        let resume = resume_blob.and_then(|(events_committed, ckpt, committed)| {
            let checkpoint = SessionCheckpoint::from_bytes(&ckpt).ok()?;
            Some(ResumeState {
                checkpoint,
                committed,
                events_committed,
            })
        });
        if resume.is_some() {
            self.registry.counter("journal.sessions_resumed").inc();
        }
        let io = match self.env.open_append(&self.dir, key) {
            Ok(io) => Some(io),
            Err(_) => {
                self.registry.counter("journal.append_failures").inc();
                None
            }
        };
        Begin::Fresh(Box::new(SessionJournal {
            owner: Arc::clone(self),
            key: key.to_owned(),
            io,
            resume,
            ended: false,
        }))
    }

    fn release(&self, key: &str, verdict: Option<String>) {
        let mut state = self.state.lock().expect("journal state poisoned");
        state.active.remove(key);
        if let Some(verdict) = verdict {
            state.recovered.entry(key.to_owned()).or_default().verdict = Some(verdict);
        }
    }
}

/// One keyed session's handle on the journal: appends records through
/// the injectable I/O with explicit fsync points, and releases the
/// active key on drop. An append or sync failure disables journaling
/// for the rest of the session (counted) — the session keeps serving,
/// it just loses durability.
pub(crate) struct SessionJournal {
    owner: Arc<Journal>,
    key: String,
    io: Option<Box<dyn JournalIo>>,
    resume: Option<ResumeState>,
    ended: bool,
}

impl SessionJournal {
    /// The recovered checkpoint to resume from, when one exists.
    pub fn take_resume(&mut self) -> Option<ResumeState> {
        self.resume.take()
    }

    /// Appends (and fsyncs) one committed batch boundary: the full
    /// checkpoint plus the digest of the committed reports.
    pub fn append_checkpoint(
        &mut self,
        events_committed: u64,
        checkpoint: &SessionCheckpoint,
        committed: &ReportDigest,
    ) {
        let payload = checkpoint_payload(
            &self.key,
            events_committed,
            &checkpoint.to_bytes(),
            &encode_digest(committed),
        );
        self.append_record(REC_CHECKPOINT, &payload);
    }

    /// Appends (and fsyncs) the verdict ledger record that fences
    /// replay of this key.
    pub fn append_verdict(&mut self, verdict_line: &str) {
        let payload = verdict_payload(&self.key, verdict_line);
        self.append_record(REC_VERDICT, &payload);
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) {
        let Some(io) = self.io.as_mut() else { return };
        let record = encode_record(kind, payload);
        let wrote = io.append(&record).and_then(|()| io.sync());
        let m = &self.owner.registry;
        match wrote {
            Ok(()) => {
                m.counter("journal.records_appended").inc();
                m.counter("journal.bytes_appended").add(record.len() as u64);
                m.counter("journal.fsyncs").inc();
            }
            Err(_) => {
                m.counter("journal.append_failures").inc();
                self.io = None;
            }
        }
    }

    /// Ends the session: releases the key and, when a verdict line is
    /// given, fences future pushes of this key onto the replay path.
    pub fn finish(mut self, verdict: Option<String>) {
        self.ended = true;
        let owner = Arc::clone(&self.owner);
        owner.release(&self.key, verdict);
    }
}

impl Drop for SessionJournal {
    fn drop(&mut self) {
        if !self.ended {
            self.owner.release(&self.key, None);
        }
    }
}

/// Offline summary of one recovered session (for `pmdbg recover`).
#[derive(Debug, Clone)]
pub struct RecoveredSessionSummary {
    /// Session key (journal file stem).
    pub key: String,
    /// Committed events at the latest durable checkpoint.
    pub events_committed: u64,
    /// Committed reports at the latest durable checkpoint.
    pub reports: u64,
    /// Whether the verdict ledger record is present (replay fence).
    pub has_verdict: bool,
    /// Valid records in the file.
    pub records: u64,
    /// Torn/corrupt regions the scan discarded.
    pub torn_discarded: u64,
}

/// Offline summary of a whole journal directory.
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// One entry per journal file, sorted by key.
    pub sessions: Vec<RecoveredSessionSummary>,
    /// Valid records across all files.
    pub records_total: u64,
    /// Torn/corrupt regions across all files.
    pub torn_total: u64,
    /// `.wal` entries that could not be read at all (a directory with
    /// the `.wal` suffix, permission failure, concurrent unlink). The
    /// scan degrades — it keeps going — rather than aborting the whole
    /// recovery over one bad entry.
    pub read_failures: u64,
}

impl RecoverySummary {
    /// Serializes as one JSON object (hand-rolled, stable key order).
    pub fn to_json(&self) -> String {
        use pm_obs::json::escape;
        let mut out = String::from("{\"schema\":\"pmdbg-recover-v1\",");
        out.push_str(&format!(
            "\"sessions\":{},\"records_total\":{},\"torn_total\":{},\"read_failures\":{},\"entries\":[",
            self.sessions.len(),
            self.records_total,
            self.torn_total,
            self.read_failures
        ));
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"key\":{},\"events_committed\":{},\"reports\":{},\
                 \"has_verdict\":{},\"records\":{},\"torn_discarded\":{}}}",
                escape(&s.key),
                s.events_committed,
                s.reports,
                s.has_verdict,
                s.records,
                s.torn_discarded
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Scans a journal directory offline (no server needed) and summarizes
/// every session's durable state — what `pmdbg recover <dir>` prints.
/// An entry that cannot be read (a directory named `*.wal`, permission
/// failure) is counted in [`RecoverySummary::read_failures`] and the
/// scan continues over the rest.
///
/// # Errors
///
/// Directory-listing failure (missing directory, a file where a
/// directory was expected, no list permission).
pub fn recover_dir(dir: &Path) -> io::Result<RecoverySummary> {
    let env = FsJournalEnv;
    let mut summary = RecoverySummary::default();
    for key in env.list_keys(dir)? {
        let bytes = match env.read(dir, &key) {
            Ok(bytes) => bytes,
            Err(_) => {
                summary.read_failures += 1;
                continue;
            }
        };
        let scan = scan_journal(&key, &bytes);
        let (events_committed, reports) = scan
            .checkpoint
            .as_ref()
            .map_or((0, 0), |(ec, _, committed)| (*ec, committed.total()));
        summary.records_total += scan.records_replayed;
        summary.torn_total += scan.torn_discarded;
        summary.sessions.push(RecoveredSessionSummary {
            key,
            events_committed,
            reports,
            has_verdict: scan.verdict.is_some(),
            records: scan.records_replayed,
            torn_discarded: scan.torn_discarded,
        });
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmdebugger::{DebuggerConfig, DetectSession, PersistencyModel};

    fn sample_checkpoint() -> SessionCheckpoint {
        let mut session = DetectSession::new(DebuggerConfig::for_model(PersistencyModel::Strict));
        let _ = session.feed(&[pm_trace::PmEvent::Store {
            addr: 64,
            size: 8,
            tid: pm_trace::ThreadId(0),
            strand: None,
            in_epoch: false,
        }]);
        session.checkpoint()
    }

    /// A type-3 checkpoint record at `events` committed events.
    fn ckpt_record(key: &str, events: u64) -> Vec<u8> {
        let (ckpt, digest) = (sample_checkpoint().to_bytes(), ReportDigest::default());
        let payload = checkpoint_payload(key, events, &ckpt, &encode_digest(&digest));
        encode_record(REC_CHECKPOINT, &payload)
    }

    fn file_with(records: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = JOURNAL_FILE_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(r);
        }
        bytes
    }

    #[test]
    fn scan_recovers_latest_checkpoint_and_verdict() {
        let r1 = ckpt_record("k", 8);
        let r2 = ckpt_record("k", 16);
        let r3 = encode_record(REC_VERDICT, &verdict_payload("k", "{\"status\":\"ok\"}"));
        let scan = scan_journal("k", &file_with(&[r1, r2, r3]));
        assert_eq!(scan.records_replayed, 3);
        assert_eq!(scan.torn_discarded, 0);
        assert_eq!(scan.checkpoint.as_ref().unwrap().0, 16, "latest wins");
        assert_eq!(scan.verdict.as_deref(), Some("{\"status\":\"ok\"}"));
    }

    #[test]
    fn torn_tail_is_discarded_and_prefix_survives() {
        let mut bytes = file_with(&[ckpt_record("k", 8), ckpt_record("k", 16)]);
        // Tear the last record: drop its final 5 bytes.
        bytes.truncate(bytes.len() - 5);
        let scan = scan_journal("k", &bytes);
        assert_eq!(scan.records_replayed, 1);
        assert_eq!(scan.torn_discarded, 1);
        assert_eq!(scan.checkpoint.unwrap().0, 8, "torn record discarded");
    }

    #[test]
    fn mid_file_corruption_resyncs_to_later_records() {
        let mut bytes = file_with(&[ckpt_record("k", 8), ckpt_record("k", 16)]);
        // Flip a byte inside the first record's payload.
        bytes[JOURNAL_FILE_MAGIC.len() + REC_HEADER + 3] ^= 0xFF;
        let scan = scan_journal("k", &bytes);
        assert!(scan.torn_discarded >= 1);
        assert_eq!(
            scan.checkpoint.unwrap().0,
            16,
            "later record found via resync"
        );
    }

    #[test]
    fn wrong_key_and_bad_magic_are_rejected() {
        let scan = scan_journal("k", &file_with(&[ckpt_record("other", 8)]));
        assert!(scan.checkpoint.is_none());
        assert_eq!(scan.records_replayed, 0);

        let scan = scan_journal("k", b"GARBAGE-NOT-A-JOURNAL");
        assert!(scan.checkpoint.is_none());
        assert_eq!(scan.torn_discarded, 1);
    }

    #[test]
    fn digest_codec_roundtrips_at_a_fixed_size() {
        let mut digest = ReportDigest::default();
        digest.counts[1] = u64::MAX;
        digest.counts[11] = 3;
        let bytes = encode_digest(&digest);
        assert_eq!(bytes.len(), 8 * (BugKind::ALL.len() + 1));
        assert_eq!(decode_digest(&bytes), Some(digest));
        assert_eq!(decode_digest(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_digest(&[bytes.as_slice(), &[0; 8]].concat()), None);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_scanner() {
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        for len in [0usize, 1, 7, 8, 9, 64, 300] {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) as u8
                })
                .collect();
            let _ = scan_journal("k", &bytes);
            let mut with_magic = JOURNAL_FILE_MAGIC.to_vec();
            with_magic.extend_from_slice(&bytes);
            let _ = scan_journal("k", &with_magic);
        }
    }

    #[test]
    fn fs_env_roundtrips_through_real_files() {
        let dir = std::env::temp_dir().join(format!("pmdbg-jrnl-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let env = FsJournalEnv;
        {
            let mut io = env.open_append(&dir, "s1").unwrap();
            io.append(&ckpt_record("s1", 32)).unwrap();
            io.sync().unwrap();
        }
        // Reopening must not re-write the magic.
        {
            let mut io = env.open_append(&dir, "s1").unwrap();
            io.append(&encode_record(
                REC_VERDICT,
                &verdict_payload("s1", "{\"x\":1}"),
            ))
            .unwrap();
            io.sync().unwrap();
        }
        assert_eq!(env.list_keys(&dir).unwrap(), vec!["s1".to_owned()]);
        let scan = scan_journal("s1", &env.read(&dir, "s1").unwrap());
        assert_eq!(scan.records_replayed, 2);
        assert_eq!(scan.checkpoint.unwrap().0, 32);
        assert_eq!(scan.verdict.as_deref(), Some("{\"x\":1}"));

        let summary = recover_dir(&dir).unwrap();
        assert_eq!(summary.sessions.len(), 1);
        assert_eq!(summary.sessions[0].events_committed, 32);
        assert!(summary.sessions[0].has_verdict);
        assert!(summary.to_json().contains("\"pmdbg-recover-v1\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_wal_entry_degrades_the_scan_instead_of_aborting() {
        let dir = std::env::temp_dir().join(format!("pmdbg-jrnl-unread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("bad.wal")).unwrap();
        std::fs::write(dir.join("good.wal"), JOURNAL_FILE_MAGIC).unwrap();

        let summary = recover_dir(&dir).unwrap();
        assert_eq!(
            summary.read_failures, 1,
            "the directory entry is unreadable"
        );
        assert_eq!(summary.sessions.len(), 1, "the good journal still scans");
        assert_eq!(summary.sessions[0].key, "good");
        assert!(summary.to_json().contains("\"read_failures\":1"));

        // A missing directory is still a hard listing error.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recover_dir(&dir).is_err());
    }

    #[test]
    fn journal_manager_replays_ledgered_verdicts_and_serializes_keys() {
        let dir = std::env::temp_dir().join(format!("pmdbg-jrnl-mgr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = MetricsRegistry::new();
        let journal =
            Arc::new(Journal::open(dir.clone(), Arc::new(FsJournalEnv), registry.clone()).unwrap());

        // Fresh key: handle out; the same key concurrently is busy.
        let first = journal.begin("a");
        let Begin::Fresh(mut sj) = first else {
            panic!("expected fresh session");
        };
        assert!(matches!(journal.begin("a"), Begin::Busy));
        sj.append_checkpoint(8, &sample_checkpoint(), &ReportDigest::default());
        sj.append_verdict("{\"v\":1}");
        sj.finish(Some("{\"v\":1}".to_owned()));

        // Now ledgered: replayed in-process...
        assert!(matches!(journal.begin("a"), Begin::Replay(v) if v == "{\"v\":1}"));

        // ...and across a restart (fresh manager over the same dir).
        drop(journal);
        let journal2 = Arc::new(
            Journal::open(dir.clone(), Arc::new(FsJournalEnv), MetricsRegistry::new()).unwrap(),
        );
        assert!(matches!(journal2.begin("a"), Begin::Replay(v) if v == "{\"v\":1}"));

        // A checkpointed-but-unledgered key resumes instead.
        let Begin::Fresh(mut sj) = journal2.begin("b") else {
            panic!("expected fresh session");
        };
        sj.append_checkpoint(16, &sample_checkpoint(), &ReportDigest::default());
        sj.finish(None);
        drop(journal2);
        let journal3 = Arc::new(
            Journal::open(dir.clone(), Arc::new(FsJournalEnv), MetricsRegistry::new()).unwrap(),
        );
        let Begin::Fresh(mut sj) = journal3.begin("b") else {
            panic!("expected resumable session");
        };
        let resume = sj.take_resume().expect("recovered checkpoint");
        assert_eq!(resume.events_committed, 16);
        sj.finish(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
