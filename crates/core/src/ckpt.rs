//! Binary checkpoint codec: the writer/reader primitives and shared field
//! encoders behind [`crate::SessionCheckpoint::to_bytes`].
//!
//! The format reuses the v2 trace framing discipline
//! (`crates/trace/src/binfmt.rs`): LEB128 varints for every integer,
//! length-prefixed strings, and a CRC32 over the payload so torn or
//! bit-flipped blobs are rejected before any state is rebuilt. Each
//! state-owning module (`array`, `interval`, `avl`, `order`, `space`,
//! `debugger`, ...) contributes its own `encode_into`/`decode_from` pair —
//! private fields stay private — and this module owns the envelope:
//!
//! ```text
//! [ b"PMCKPT" ][ version u16 LE ][ payload ... ][ crc32(payload) u32 LE ]
//! ```
//!
//! Decoding is total: any byte string either round-trips into a valid
//! checkpoint or returns a typed [`CheckpointDecodeError`] — never a panic
//! (property-tested in `crates/core/tests/checkpoint_codec.rs`).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use pm_trace::{read_varint, write_varint, BugKind, BugReport, OrderSpec};

/// Leading magic of a serialized checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 6] = b"PMCKPT";

/// The (only) supported encoding version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Why a checkpoint blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointDecodeError {
    /// Fewer bytes than the fixed envelope (magic + version + CRC).
    TooShort {
        /// The offered length.
        len: usize,
    },
    /// The blob does not start with `PMCKPT`.
    BadMagic,
    /// The version field names an encoding this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The payload CRC32 does not match the trailer.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        expected: u32,
        /// CRC computed over the payload.
        found: u32,
    },
    /// The payload passed the checksum but a field is structurally invalid
    /// (truncated varint, out-of-range tag, inconsistent count, ...).
    Corrupt {
        /// What was wrong, for diagnostics.
        detail: String,
    },
}

impl fmt::Display for CheckpointDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointDecodeError::TooShort { len } => {
                write!(f, "checkpoint blob too short ({len} bytes)")
            }
            CheckpointDecodeError::BadMagic => {
                write!(f, "checkpoint blob does not start with PMCKPT")
            }
            CheckpointDecodeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (supported: {CHECKPOINT_VERSION})"
                )
            }
            CheckpointDecodeError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint payload checksum mismatch (stored {expected:08x}, computed {found:08x})"
                )
            }
            CheckpointDecodeError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint payload: {detail}")
            }
        }
    }
}

impl Error for CheckpointDecodeError {}

pub(crate) fn corrupt(detail: impl Into<String>) -> CheckpointDecodeError {
    CheckpointDecodeError::Corrupt {
        detail: detail.into(),
    }
}

/// Append-only payload writer.
#[derive(Debug, Default)]
pub(crate) struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn varint(&mut self, v: u64) {
        write_varint(&mut self.buf, v);
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.varint(v as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn opt_varint(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.varint(v);
            }
        }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Forward-only payload reader. Every accessor is bounds-checked and
/// returns [`CheckpointDecodeError::Corrupt`] instead of panicking.
#[derive(Debug)]
pub(crate) struct CkptReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        CkptReader { bytes, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointDecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| corrupt("payload ends mid-field"))?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointDecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }

    pub(crate) fn varint(&mut self) -> Result<u64, CheckpointDecodeError> {
        let (v, used) = read_varint(&self.bytes[self.pos..])
            .ok_or_else(|| corrupt("truncated or overflowing varint"))?;
        self.pos += used;
        Ok(v)
    }

    /// A varint that is also used as an element count: bounded by the
    /// bytes that remain, so a corrupted count cannot drive a
    /// multi-gigabyte preallocation.
    pub(crate) fn count(&mut self) -> Result<usize, CheckpointDecodeError> {
        let v = self.varint()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if v > remaining {
            return Err(corrupt(format!(
                "count {v} exceeds the {remaining} payload bytes that remain"
            )));
        }
        Ok(v as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, CheckpointDecodeError> {
        let bytes = self.bytes_field()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string field is not UTF-8"))
    }

    pub(crate) fn bytes_field(&mut self) -> Result<&'a [u8], CheckpointDecodeError> {
        let len = self.count()?;
        let out = self
            .bytes
            .get(self.pos..self.pos + len)
            .ok_or_else(|| corrupt("byte field extends past payload end"))?;
        self.pos += len;
        Ok(out)
    }

    pub(crate) fn opt_varint(&mut self) -> Result<Option<u64>, CheckpointDecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.varint()?)),
            b => Err(corrupt(format!("invalid option tag {b:#04x}"))),
        }
    }
}

/// Seals `payload` into the versioned, checksummed envelope.
pub(crate) fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&pm_trace::crc32_fast(&payload).to_le_bytes());
    out
}

/// Validates the envelope of `bytes` and returns the payload slice.
pub(crate) fn unseal(bytes: &[u8]) -> Result<&[u8], CheckpointDecodeError> {
    let header = CHECKPOINT_MAGIC.len() + 2;
    if bytes.len() < header + 4 {
        return Err(CheckpointDecodeError::TooShort { len: bytes.len() });
    }
    if &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(CheckpointDecodeError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[6], bytes[7]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointDecodeError::UnsupportedVersion { found: version });
    }
    let payload = &bytes[header..bytes.len() - 4];
    let expected = u32::from_le_bytes(
        bytes[bytes.len() - 4..]
            .try_into()
            .expect("exactly 4 trailer bytes"),
    );
    let found = pm_trace::crc32_fast(payload);
    if expected != found {
        return Err(CheckpointDecodeError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Shared field encoders used by more than one module.

pub(crate) fn encode_order_spec(w: &mut CkptWriter, spec: &OrderSpec) {
    w.usize(spec.rules().len());
    for rule in spec.rules() {
        w.str(&rule.first);
        w.str(&rule.second);
        match &rule.function {
            None => w.u8(0),
            Some(f) => {
                w.u8(1);
                w.str(f);
            }
        }
    }
}

pub(crate) fn decode_order_spec(r: &mut CkptReader) -> Result<OrderSpec, CheckpointDecodeError> {
    let count = r.count()?;
    let mut spec = OrderSpec::new();
    for _ in 0..count {
        let first = r.str()?;
        let second = r.str()?;
        let function = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            b => return Err(corrupt(format!("invalid order-rule function tag {b:#04x}"))),
        };
        spec.add_rule(&first, &second, function.as_deref());
    }
    Ok(spec)
}

pub(crate) fn encode_report(w: &mut CkptWriter, report: &BugReport) {
    let kind = BugKind::ALL
        .iter()
        .position(|k| *k == report.kind)
        .expect("every BugKind is listed in ALL");
    w.u8(kind as u8);
    w.opt_varint(report.addr);
    w.opt_varint(report.size);
    w.opt_varint(report.at_event);
    w.str(&report.message);
}

pub(crate) fn decode_report(r: &mut CkptReader) -> Result<BugReport, CheckpointDecodeError> {
    let idx = r.u8()? as usize;
    let kind = *BugKind::ALL
        .get(idx)
        .ok_or_else(|| corrupt(format!("bug kind index {idx} out of range")))?;
    let addr = r.opt_varint()?;
    let size = r.opt_varint()?;
    let at_event = r.opt_varint()?;
    let message = r.str()?;
    // `BugReport::new` rederives severity from the kind, so severity needs
    // no wire representation.
    let mut report = BugReport::new(kind, message);
    report.addr = addr;
    report.size = size;
    report.at_event = at_event;
    Ok(report)
}

/// Serializes a report list with a leading count, in the per-report
/// layout the checkpoint payload uses for pending reports. The serve
/// journal's older (type-1) checkpoint records carry their committed
/// reports this way; recovery still reads them.
pub fn encode_reports(reports: &[BugReport]) -> Vec<u8> {
    let mut w = CkptWriter::new();
    w.usize(reports.len());
    for report in reports {
        encode_report(&mut w, report);
    }
    w.into_bytes()
}

/// Inverse of [`encode_reports`].
///
/// # Errors
///
/// [`CheckpointDecodeError::Corrupt`] when `bytes` is not a valid report
/// list (trailing bytes included).
pub fn decode_reports(bytes: &[u8]) -> Result<Vec<BugReport>, CheckpointDecodeError> {
    let mut r = CkptReader::new(bytes);
    let out = decode_report_list(&mut r)?;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after report list"));
    }
    Ok(out)
}

pub(crate) fn decode_report_list(
    r: &mut CkptReader,
) -> Result<Vec<BugReport>, CheckpointDecodeError> {
    let count = r.count()?;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        out.push(decode_report(r)?);
    }
    Ok(out)
}

/// Emits a `HashMap`'s entries through `f` in sorted-key order so the
/// encoding is deterministic regardless of hasher state.
pub(crate) fn sorted_entries<K: Ord, V, S>(map: &HashMap<K, V, S>) -> Vec<(&K, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = CkptWriter::new();
        w.u8(7);
        w.bool(true);
        w.varint(u64::MAX);
        w.str("hello");
        w.varint(3);
        w.u8(1);
        w.u8(2);
        w.u8(3);
        w.opt_varint(None);
        w.opt_varint(Some(42));
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes_field().unwrap(), &[1, 2, 3]);
        assert_eq!(r.opt_varint().unwrap(), None);
        assert_eq!(r.opt_varint().unwrap(), Some(42));
        assert!(r.is_empty());
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let sealed = seal(payload.clone());
        assert_eq!(unseal(&sealed).unwrap(), &payload[..]);
    }

    #[test]
    fn unseal_rejects_damage() {
        let sealed = seal(vec![9u8; 32]);
        assert_eq!(
            unseal(&sealed[..8]),
            Err(CheckpointDecodeError::TooShort { len: 8 })
        );
        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(unseal(&bad_magic), Err(CheckpointDecodeError::BadMagic));
        let mut bad_version = sealed.clone();
        bad_version[6] = 2;
        let err = unseal(&bad_version).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unsupported checkpoint version 2 (supported: 1)"
        );
        let mut flipped = sealed.clone();
        flipped[10] ^= 0x01;
        assert!(matches!(
            unseal(&flipped),
            Err(CheckpointDecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn count_is_bounded_by_remaining_payload() {
        let mut w = CkptWriter::new();
        w.varint(1_000_000);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        assert!(r.count().is_err());
    }

    #[test]
    fn reports_roundtrip() {
        let reports = vec![
            BugReport::new(BugKind::RedundantFlushes, "flushed twice")
                .with_range(64, 8)
                .with_event(17),
            BugReport::new(BugKind::NoDurabilityGuarantee, "left volatile"),
        ];
        let bytes = encode_reports(&reports);
        assert_eq!(decode_reports(&bytes).unwrap(), reports);
        assert!(decode_reports(&bytes[..bytes.len() - 1]).is_err());
    }
}
