//! `pm-trace v2` — a framed, checksummed binary trace format.
//!
//! The text format ([`crate::format`]) is diff-friendly but fragile and
//! bulky at production scale: one flipped byte in a multi-GB recording used
//! to discard the whole run. v2 trades greppability for integrity and
//! salvageability:
//!
//! ```text
//! file  := "PMTRACE2"  frame*
//! frame := magic(4)  len(u32 LE)  crc32(u32 LE)  payload(len)
//! ```
//!
//! * every frame carries one event and a CRC32 (IEEE) over its payload, so
//!   corruption is detected per frame, not per file;
//! * the 4-byte frame magic is a resync point: a salvage reader
//!   ([`crate::ingest`]) that hits a corrupt frame scans forward to the
//!   next magic and keeps going;
//! * payloads are tag + LEB128 varints, so typical events cost 4–10 payload
//!   bytes and the format stays architecture-independent.
//!
//! Conversion to and from the v1 text format is lossless in both
//! directions: both formats serialize the full [`Trace`] event model, so
//! `text -> bin -> text` is byte-identical (property-tested in
//! `crates/trace/tests/ingest_properties.rs`).

use std::error::Error;
use std::fmt;

use crate::annotations::Annotation;
use crate::events::{FenceKind, PmEvent, PmEventRef, StrandId, ThreadId};
use crate::recorder::Trace;
use pmem_sim::FlushKind;

/// Magic bytes opening every v2 file.
pub const FILE_MAGIC: [u8; 8] = *b"PMTRACE2";

/// Magic bytes opening every frame — the salvage reader's resync anchor.
/// 0xAB keeps it out of ASCII text; "PM2" names the format.
pub const FRAME_MAGIC: [u8; 4] = [0xAB, b'P', b'M', b'2'];

/// Fixed frame header size: magic + payload length + CRC32.
pub const FRAME_HEADER_LEN: usize = FRAME_MAGIC.len() + 4 + 4;

/// Upper bound on a frame's payload length. Anything larger is corruption
/// by definition (the longest legitimate event is a `func`/`name` record,
/// bounded by its string), which lets readers bound their buffers.
pub const MAX_FRAME_LEN: usize = 1 << 20;

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Eight CRC tables for the slicing-by-8 kernel: `CRC_TABLES[k][b]` is the
/// CRC contribution of byte `b` seen `k` bytes before the end of an 8-byte
/// block.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let base = build_crc_table();
    let mut tables = [[0u32; 256]; 8];
    tables[0] = base;
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = base[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32 (IEEE) of `bytes` via slicing-by-8: the hot loop folds eight bytes
/// per iteration through eight precomputed tables, giving word-at-a-time
/// throughput while producing bit-identical results to [`crc32`]
/// (equivalence is unit-tested below and property-tested in
/// `crates/trace/tests/zerocopy_properties.rs`).
#[inline(always)]
pub fn crc32_fast(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    // Typical v2 payloads are shorter than 8 bytes, so the remainder *is*
    // the hot path: fold one 4-byte block (slicing-by-4, four independent
    // lookups) before falling back to the serial byte loop.
    let mut rem = chunks.remainder();
    if rem.len() >= 4 {
        let lo = u32::from_le_bytes(rem[..4].try_into().expect("4 bytes")) ^ c;
        c = CRC_TABLES[3][(lo & 0xFF) as usize]
            ^ CRC_TABLES[2][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(lo >> 24) as usize];
        rem = &rem[4..];
    }
    for &b in rem {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` to `out` as an unsigned LEB128 varint — the integer
/// encoding every v2 payload uses. Public so downstream binary formats
/// (the `pmdebugger` checkpoint codec, the `pm-serve` session journal)
/// reuse the exact framing discipline instead of reinventing it.
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    put_varint(out, v);
}

/// Decodes one unsigned LEB128 varint from the front of `bytes`,
/// returning the value and its encoded length. `None` when `bytes` ends
/// mid-varint or the value overflows 64 bits.
pub fn read_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for i in 0..10usize {
        let &byte = bytes.get(i)?;
        if i == 9 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7F) << (7 * i as u32);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// `Option<StrandId>` in one varint: 0 is `None`, n is `Some(n - 1)`.
fn put_strand(out: &mut Vec<u8>, strand: Option<StrandId>) {
    put_varint(out, strand.map_or(0, |s| u64::from(s.0) + 1));
}

/// Serializes one event into its v2 payload (no frame header).
pub fn encode_payload(event: &PmEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(event.kind_index() as u8);
    match event {
        PmEvent::RegisterPmem { base, size } => {
            put_varint(&mut out, *base);
            put_varint(&mut out, *size);
        }
        PmEvent::Store {
            addr,
            size,
            tid,
            strand,
            in_epoch,
        } => {
            put_varint(&mut out, *addr);
            put_varint(&mut out, u64::from(*size));
            put_varint(&mut out, u64::from(tid.0));
            put_strand(&mut out, *strand);
            out.push(u8::from(*in_epoch));
        }
        PmEvent::Flush {
            kind,
            addr,
            size,
            tid,
            strand,
        } => {
            out.push(match kind {
                FlushKind::Clwb => 0,
                FlushKind::Clflush => 1,
                FlushKind::Clflushopt => 2,
            });
            put_varint(&mut out, *addr);
            put_varint(&mut out, u64::from(*size));
            put_varint(&mut out, u64::from(tid.0));
            put_strand(&mut out, *strand);
        }
        PmEvent::Fence {
            kind,
            tid,
            strand,
            in_epoch,
        } => {
            out.push(match kind {
                FenceKind::Sfence => 0,
                FenceKind::PersistBarrier => 1,
            });
            put_varint(&mut out, u64::from(tid.0));
            put_strand(&mut out, *strand);
            out.push(u8::from(*in_epoch));
        }
        PmEvent::EpochBegin { tid } | PmEvent::EpochEnd { tid } | PmEvent::JoinStrand { tid } => {
            put_varint(&mut out, u64::from(tid.0));
        }
        PmEvent::StrandBegin { strand, tid } | PmEvent::StrandEnd { strand, tid } => {
            put_varint(&mut out, u64::from(strand.0));
            put_varint(&mut out, u64::from(tid.0));
        }
        PmEvent::TxLog {
            obj_addr,
            size,
            tid,
        } => {
            put_varint(&mut out, *obj_addr);
            put_varint(&mut out, u64::from(*size));
            put_varint(&mut out, u64::from(tid.0));
        }
        PmEvent::FuncEnter { name, tid } => {
            put_str(&mut out, name);
            put_varint(&mut out, u64::from(tid.0));
        }
        PmEvent::NameRange { name, addr, size } => {
            put_str(&mut out, name);
            put_varint(&mut out, *addr);
            put_varint(&mut out, u64::from(*size));
        }
        PmEvent::Annotation(annotation) => match annotation {
            Annotation::CheckerStart => out.push(0),
            Annotation::CheckerEnd => out.push(1),
            Annotation::AssertPersisted { addr, size } => {
                out.push(2);
                put_varint(&mut out, *addr);
                put_varint(&mut out, u64::from(*size));
            }
            Annotation::AssertOrdered {
                first,
                first_size,
                second,
                second_size,
            } => {
                out.push(3);
                put_varint(&mut out, *first);
                put_varint(&mut out, u64::from(*first_size));
                put_varint(&mut out, *second);
                put_varint(&mut out, u64::from(*second_size));
            }
            Annotation::TrackLogging { addr, size } => {
                out.push(4);
                put_varint(&mut out, *addr);
                put_varint(&mut out, u64::from(*size));
            }
        },
        PmEvent::Crash => {}
        PmEvent::RecoveryRead { addr, size } => {
            put_varint(&mut out, *addr);
            put_varint(&mut out, u64::from(*size));
        }
        PmEvent::Cas {
            addr,
            size,
            tid,
            old,
            new,
            success,
        } => {
            put_varint(&mut out, *addr);
            put_varint(&mut out, u64::from(*size));
            put_varint(&mut out, u64::from(tid.0));
            put_varint(&mut out, *old);
            put_varint(&mut out, *new);
            out.push(u8::from(*success));
        }
    }
    out
}

/// Appends one framed event (magic, length, CRC, payload) to `out`.
pub fn write_frame(out: &mut Vec<u8>, event: &PmEvent) {
    let payload = encode_payload(event);
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Serializes a trace to the v2 binary format.
pub fn to_binary(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(FILE_MAGIC.len() + trace.len() * 24);
    out.extend_from_slice(&FILE_MAGIC);
    for event in trace.events() {
        write_frame(&mut out, event);
    }
    out
}

// Error-string constructors for the decode hot path. Formatting machinery
// is heavyweight relative to the few-cycle accessors it sits in; hoisting
// it into `#[cold]` never-inlined helpers keeps the Ok paths small enough
// to inline end-to-end, and sharing one helper between the owned and
// borrowed decoders guarantees the strings stay byte-identical.
#[cold]
#[inline(never)]
fn err_payload_ends_early() -> String {
    "payload ends early".to_owned()
}

#[cold]
#[inline(never)]
fn err_varint_overflow() -> String {
    "varint overflows u64".to_owned()
}

#[cold]
#[inline(never)]
fn err_exceeds_u32(what: &str, v: u64) -> String {
    format!("{what} {v} exceeds u32")
}

#[cold]
#[inline(never)]
fn err_strand_exceeds_u32(n: u64) -> String {
    format!("strand id {n} exceeds u32")
}

#[cold]
#[inline(never)]
fn err_invalid_byte(what: &str, byte: u8) -> String {
    format!("invalid {what} byte {byte:#04x}")
}

/// Single-byte `Option<StrandId>` decode: 0 is `None`, n is `Some(n - 1)`
/// — the byte-sized case of [`Cursor::strand`]'s mapping.
#[inline(always)]
fn small_strand(b: u8) -> Option<StrandId> {
    if b == 0 {
        None
    } else {
        Some(StrandId(u32::from(b) - 1))
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(err_payload_ends_early)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, String> {
        // Single-byte fast path: tids, sizes, strand slots and small
        // addresses — the dominant case in every workload mix. A set high
        // bit (or a short payload) falls through to the general loop,
        // which re-reads from the same position and reports the same
        // errors, so the two paths accept identical byte strings.
        if let Some(&b) = self.bytes.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
            // SWAR multi-byte path: load eight bytes at once, locate the
            // terminator (first byte with a clear continuation bit) with
            // one trailing_zeros, and gather the 7-bit groups with three
            // shift-mask folds — no per-byte dependent loads. Values up to
            // 2^56 (every pool address) decode here; longer varints, and
            // varints within 8 bytes of the payload end, fall through to
            // the general loop, which accepts identical byte strings and
            // reports identical errors.
            if let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
                let w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                let stops = !w & 0x8080_8080_8080_8080;
                if stops != 0 {
                    let n = stops.trailing_zeros() as usize / 8 + 1;
                    let data = w & (u64::MAX >> (8 * (8 - n))) & 0x7F7F_7F7F_7F7F_7F7F;
                    let x = (data & 0x007F_007F_007F_007F) | ((data & 0x7F00_7F00_7F00_7F00) >> 1);
                    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
                    let x = (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4);
                    self.pos += n;
                    return Ok(x);
                }
            }
        }
        self.varint_slow()
    }

    /// General LEB128 decode, unrolled over the 10-byte maximum so each
    /// step has a constant shift. Accepts exactly the byte strings the
    /// classic shift-loop accepts: a tenth byte above 1 (>= 2^64) or a
    /// continuation bit there is an overflow, and running out of payload
    /// mid-varint reports the same short-read error.
    fn varint_slow(&mut self) -> Result<u64, String> {
        let bytes = self.bytes.get(self.pos..).unwrap_or(&[]);
        let mut v: u64 = 0;
        for i in 0..10usize {
            let Some(&byte) = bytes.get(i) else {
                self.pos = self.bytes.len();
                return Err(err_payload_ends_early());
            };
            if i == 9 && byte > 1 {
                return Err(err_varint_overflow());
            }
            v |= u64::from(byte & 0x7F) << (7 * i as u32);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        unreachable!("ten-byte varints always return above")
    }

    /// Gathered fast path for the `size, tid, strand, in_epoch` tail of a
    /// store frame: one 4-byte load instead of four dependent
    /// read-test-advance steps. Engages only when every field is a
    /// single-byte varint and the flag is a valid bool — any other shape
    /// returns `None` with the cursor untouched, and the caller re-reads
    /// the same bytes through the general accessors (identical acceptance,
    /// identical values, identical errors).
    #[inline(always)]
    fn store_tail(&mut self) -> Option<(u32, ThreadId, Option<StrandId>, bool)> {
        let b = self.bytes.get(self.pos..self.pos + 4)?;
        if (b[0] | b[1] | b[2]) & 0x80 != 0 || b[3] > 1 {
            return None;
        }
        self.pos += 4;
        Some((
            u32::from(b[0]),
            ThreadId(u32::from(b[1])),
            small_strand(b[2]),
            b[3] == 1,
        ))
    }

    /// Gathered `size, tid, strand` tail of a flush frame; see
    /// [`Cursor::store_tail`].
    #[inline(always)]
    fn flush_tail(&mut self) -> Option<(u32, ThreadId, Option<StrandId>)> {
        let b = self.bytes.get(self.pos..self.pos + 3)?;
        if (b[0] | b[1] | b[2]) & 0x80 != 0 {
            return None;
        }
        self.pos += 3;
        Some((
            u32::from(b[0]),
            ThreadId(u32::from(b[1])),
            small_strand(b[2]),
        ))
    }

    /// Gathered `tid, strand, in_epoch` tail of a fence frame; see
    /// [`Cursor::store_tail`].
    #[inline(always)]
    fn fence_tail(&mut self) -> Option<(ThreadId, Option<StrandId>, bool)> {
        let b = self.bytes.get(self.pos..self.pos + 3)?;
        if (b[0] | b[1]) & 0x80 != 0 || b[2] > 1 {
            return None;
        }
        self.pos += 3;
        Some((ThreadId(u32::from(b[0])), small_strand(b[1]), b[2] == 1))
    }

    #[inline]
    fn u32_field(&mut self, what: &str) -> Result<u32, String> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| err_exceeds_u32(what, v))
    }

    #[inline]
    fn strand(&mut self) -> Result<Option<StrandId>, String> {
        match self.varint()? {
            0 => Ok(None),
            n => Ok(Some(StrandId(
                u32::try_from(n - 1).map_err(|_| err_strand_exceeds_u32(n))?,
            ))),
        }
    }

    #[inline]
    fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(err_invalid_byte("bool", other)),
        }
    }

    #[inline]
    fn tid(&mut self) -> Result<ThreadId, String> {
        Ok(ThreadId(self.u32_field("tid")?))
    }

    #[inline]
    fn string(&mut self) -> Result<&'a str, String> {
        let len = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "string length exceeds payload".to_owned())?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "string is not UTF-8".to_owned())?;
        self.pos = end;
        Ok(s)
    }
}

/// Decodes one event from its v2 payload into a borrowed
/// [`PmEventRef`] — the zero-copy form of [`decode_payload`]. Name strings
/// borrow from `payload`; nothing is allocated.
///
/// Total over arbitrary input: any byte string either yields an event that
/// consumed the payload exactly, or an error string — never a panic.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad tag, short
/// payload, invalid enum byte, trailing bytes, non-UTF-8 string).
#[inline(always)]
pub fn decode_payload_ref(payload: &[u8]) -> Result<PmEventRef<'_>, String> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let tag = c.u8().map_err(|_| "empty payload".to_owned())?;
    let event = match tag {
        0 => PmEventRef::RegisterPmem {
            base: c.varint()?,
            size: c.varint()?,
        },
        1 => {
            let addr = c.varint()?;
            if let Some((size, tid, strand, in_epoch)) = c.store_tail() {
                PmEventRef::Store {
                    addr,
                    size,
                    tid,
                    strand,
                    in_epoch,
                }
            } else {
                PmEventRef::Store {
                    addr,
                    size: c.u32_field("size")?,
                    tid: c.tid()?,
                    strand: c.strand()?,
                    in_epoch: c.bool()?,
                }
            }
        }
        2 => {
            let kind = match c.u8()? {
                0 => FlushKind::Clwb,
                1 => FlushKind::Clflush,
                2 => FlushKind::Clflushopt,
                other => return Err(err_invalid_byte("flush kind", other)),
            };
            let addr = c.varint()?;
            if let Some((size, tid, strand)) = c.flush_tail() {
                PmEventRef::Flush {
                    kind,
                    addr,
                    size,
                    tid,
                    strand,
                }
            } else {
                PmEventRef::Flush {
                    kind,
                    addr,
                    size: c.u32_field("size")?,
                    tid: c.tid()?,
                    strand: c.strand()?,
                }
            }
        }
        3 => {
            let kind = match c.u8()? {
                0 => FenceKind::Sfence,
                1 => FenceKind::PersistBarrier,
                other => return Err(err_invalid_byte("fence kind", other)),
            };
            if let Some((tid, strand, in_epoch)) = c.fence_tail() {
                PmEventRef::Fence {
                    kind,
                    tid,
                    strand,
                    in_epoch,
                }
            } else {
                PmEventRef::Fence {
                    kind,
                    tid: c.tid()?,
                    strand: c.strand()?,
                    in_epoch: c.bool()?,
                }
            }
        }
        4 => PmEventRef::EpochBegin { tid: c.tid()? },
        5 => PmEventRef::EpochEnd { tid: c.tid()? },
        6 => PmEventRef::StrandBegin {
            strand: StrandId(c.u32_field("strand")?),
            tid: c.tid()?,
        },
        7 => PmEventRef::StrandEnd {
            strand: StrandId(c.u32_field("strand")?),
            tid: c.tid()?,
        },
        8 => PmEventRef::JoinStrand { tid: c.tid()? },
        9 => PmEventRef::TxLog {
            obj_addr: c.varint()?,
            size: c.u32_field("size")?,
            tid: c.tid()?,
        },
        10 => PmEventRef::FuncEnter {
            name: c.string()?,
            tid: c.tid()?,
        },
        11 => {
            let annotation = match c.u8()? {
                0 => Annotation::CheckerStart,
                1 => Annotation::CheckerEnd,
                2 => Annotation::AssertPersisted {
                    addr: c.varint()?,
                    size: c.u32_field("size")?,
                },
                3 => Annotation::AssertOrdered {
                    first: c.varint()?,
                    first_size: c.u32_field("first_size")?,
                    second: c.varint()?,
                    second_size: c.u32_field("second_size")?,
                },
                4 => Annotation::TrackLogging {
                    addr: c.varint()?,
                    size: c.u32_field("size")?,
                },
                other => return Err(err_invalid_byte("annotation", other)),
            };
            PmEventRef::Annotation(annotation)
        }
        12 => PmEventRef::NameRange {
            name: c.string()?,
            addr: c.varint()?,
            size: c.u32_field("size")?,
        },
        13 => PmEventRef::Crash,
        14 => PmEventRef::RecoveryRead {
            addr: c.varint()?,
            size: c.u32_field("size")?,
        },
        15 => PmEventRef::Cas {
            addr: c.varint()?,
            size: c.u32_field("size")?,
            tid: c.tid()?,
            old: c.varint()?,
            new: c.varint()?,
            success: c.bool()?,
        },
        other => return Err(format!("unknown event tag {other:#04x}")),
    };
    if c.pos != payload.len() {
        return Err(format!(
            "{} trailing payload byte(s) after event",
            payload.len() - c.pos
        ));
    }
    Ok(event)
}

/// Decodes one event from its v2 payload.
///
/// Implemented on top of [`decode_payload_ref`], so the owned and borrowed
/// decoders accept exactly the same byte strings and report exactly the
/// same error messages by construction.
///
/// # Errors
///
/// Returns a description of the first structural problem (bad tag, short
/// payload, invalid enum byte, trailing bytes, non-UTF-8 string).
pub fn decode_payload(payload: &[u8]) -> Result<PmEvent, String> {
    decode_payload_ref(payload).map(|event| event.to_owned())
}

/// Outcome of attempting to read one frame, with the event borrowed from
/// the buffer.
#[derive(Debug)]
pub(crate) enum FrameStepRef<'a> {
    /// A valid frame: the borrowed event and the buffer position just past
    /// the frame.
    Ok {
        /// Decoded event borrowing from the buffer.
        event: PmEventRef<'a>,
        /// Position just past the frame.
        end: usize,
    },
    /// The buffer ends before the frame does; more input is needed.
    Incomplete,
    /// The bytes at this position are not a valid frame.
    Corrupt {
        /// What was wrong.
        reason: String,
    },
}

/// Attempts to read one frame starting exactly at `pos`, yielding a
/// borrowed event. With `eof` set, a frame running past the buffer is
/// corruption (truncation) instead of [`FrameStepRef::Incomplete`].
///
/// This is the one frame reader: the zero-copy walker, the push-based
/// [`crate::StreamDecoder`] and the strict [`from_binary`] /
/// [`frame_spans`] loops all step through it, so every reader checks the
/// same things in the same order with the same error strings. CRC
/// verification uses the slicing-by-8 kernel ([`crc32_fast`]), which is
/// bit-identical to the byte-at-a-time [`crc32`].
#[inline(always)]
pub(crate) fn step_frame_ref(buf: &[u8], pos: usize, eof: bool) -> FrameStepRef<'_> {
    let avail = buf.len().saturating_sub(pos);
    if avail < FRAME_HEADER_LEN {
        if !eof {
            return FrameStepRef::Incomplete;
        }
        return FrameStepRef::Corrupt {
            reason: format!("truncated frame header ({avail} of {FRAME_HEADER_LEN} bytes)"),
        };
    }
    // A 4-byte word compare; slice equality on so short a range can lower
    // to a libc bcmp call, which costs more than the compare itself.
    let magic = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes"));
    if magic != u32::from_le_bytes(FRAME_MAGIC) {
        return FrameStepRef::Corrupt {
            reason: format!(
                "bad frame magic {:02x}{:02x}{:02x}{:02x}",
                buf[pos],
                buf[pos + 1],
                buf[pos + 2],
                buf[pos + 3]
            ),
        };
    }
    let len = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return FrameStepRef::Corrupt {
            reason: format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
        };
    }
    let want = FRAME_HEADER_LEN + len;
    if avail < want {
        if !eof {
            return FrameStepRef::Incomplete;
        }
        return FrameStepRef::Corrupt {
            reason: format!(
                "truncated frame payload ({} of {len} bytes)",
                avail - FRAME_HEADER_LEN
            ),
        };
    }
    let crc_stored = u32::from_le_bytes(buf[pos + 8..pos + 12].try_into().expect("4 bytes"));
    let payload = &buf[pos + FRAME_HEADER_LEN..pos + want];
    let crc_actual = crc32_fast(payload);
    if crc_stored != crc_actual {
        return FrameStepRef::Corrupt {
            reason: format!(
                "CRC mismatch (stored {crc_stored:#010x}, computed {crc_actual:#010x})"
            ),
        };
    }
    match decode_payload_ref(payload) {
        Ok(event) => FrameStepRef::Ok {
            event,
            end: pos + want,
        },
        Err(reason) => FrameStepRef::Corrupt {
            reason: format!("undecodable payload: {reason}"),
        },
    }
}

/// Error from strict parsing of a v2 binary image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinParseError {
    /// Byte offset of the corrupt frame (or header).
    pub offset: u64,
    /// 0-based index of the frame that failed.
    pub frame: u64,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for BinParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pm-trace v2 frame {} at byte {}: {}",
            self.frame, self.offset, self.reason
        )
    }
}

impl Error for BinParseError {}

/// Parses a complete v2 binary image strictly: the first structural
/// problem aborts the parse. For partial/corrupt images use the salvage
/// reader in [`crate::ingest`] instead.
///
/// # Errors
///
/// Returns [`BinParseError`] with the byte offset and frame index of the
/// first corruption.
pub fn from_binary(bytes: &[u8]) -> Result<Trace, BinParseError> {
    if bytes.len() < FILE_MAGIC.len() || bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(BinParseError {
            offset: 0,
            frame: 0,
            reason: format!(
                "missing file magic `PMTRACE2` ({} byte(s) available)",
                bytes.len()
            ),
        });
    }
    let mut trace = Trace::new();
    let mut pos = FILE_MAGIC.len();
    let mut frame = 0u64;
    while pos < bytes.len() {
        match step_frame_ref(bytes, pos, true) {
            FrameStepRef::Ok { event, end } => {
                trace.push(event.to_owned());
                pos = end;
                frame += 1;
            }
            FrameStepRef::Corrupt { reason } => {
                return Err(BinParseError {
                    offset: pos as u64,
                    frame,
                    reason,
                });
            }
            FrameStepRef::Incomplete => unreachable!("eof mode never yields Incomplete"),
        }
    }
    Ok(trace)
}

/// Byte spans `[start, end)` of every frame in a *valid* v2 image, used by
/// the corruption torture harness to compute salvage floors.
///
/// # Errors
///
/// Returns [`BinParseError`] if the image is not a clean v2 file.
pub fn frame_spans(bytes: &[u8]) -> Result<Vec<(usize, usize)>, BinParseError> {
    if bytes.len() < FILE_MAGIC.len() || bytes[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(BinParseError {
            offset: 0,
            frame: 0,
            reason: "missing file magic `PMTRACE2`".to_owned(),
        });
    }
    let mut spans = Vec::new();
    let mut pos = FILE_MAGIC.len();
    while pos < bytes.len() {
        match step_frame_ref(bytes, pos, true) {
            FrameStepRef::Ok { end, .. } => {
                spans.push((pos, end));
                pos = end;
            }
            FrameStepRef::Corrupt { reason } => {
                return Err(BinParseError {
                    offset: pos as u64,
                    frame: spans.len() as u64,
                    reason,
                });
            }
            FrameStepRef::Incomplete => unreachable!("eof mode never yields Incomplete"),
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<PmEvent> {
        vec![
            PmEvent::RegisterPmem {
                base: 0,
                size: 1 << 30,
            },
            PmEvent::Store {
                addr: 0x40,
                size: 8,
                tid: ThreadId(3),
                strand: Some(StrandId(7)),
                in_epoch: true,
            },
            PmEvent::Flush {
                kind: FlushKind::Clflushopt,
                addr: 0x40,
                size: 64,
                tid: ThreadId(1),
                strand: None,
            },
            PmEvent::Fence {
                kind: FenceKind::PersistBarrier,
                tid: ThreadId(0),
                strand: Some(StrandId(0)),
                in_epoch: false,
            },
            PmEvent::EpochBegin { tid: ThreadId(2) },
            PmEvent::EpochEnd { tid: ThreadId(2) },
            PmEvent::StrandBegin {
                strand: StrandId(5),
                tid: ThreadId(0),
            },
            PmEvent::StrandEnd {
                strand: StrandId(5),
                tid: ThreadId(0),
            },
            PmEvent::JoinStrand { tid: ThreadId(0) },
            PmEvent::TxLog {
                obj_addr: u64::MAX,
                size: u32::MAX,
                tid: ThreadId(u32::MAX),
            },
            PmEvent::FuncEnter {
                name: "btree_insert".into(),
                tid: ThreadId(0),
            },
            PmEvent::NameRange {
                name: "räksmörgås".into(),
                addr: 0x100,
                size: 24,
            },
            PmEvent::Annotation(Annotation::CheckerStart),
            PmEvent::Annotation(Annotation::CheckerEnd),
            PmEvent::Annotation(Annotation::AssertPersisted { addr: 8, size: 8 }),
            PmEvent::Annotation(Annotation::AssertOrdered {
                first: 0,
                first_size: 8,
                second: 64,
                second_size: 16,
            }),
            PmEvent::Annotation(Annotation::TrackLogging { addr: 0, size: 64 }),
            PmEvent::Crash,
            PmEvent::RecoveryRead { addr: 0, size: 8 },
            PmEvent::Cas {
                addr: 0x200,
                size: 8,
                tid: ThreadId(2),
                old: 0,
                new: 0x1_0040,
                success: true,
            },
            PmEvent::Cas {
                addr: 0x200,
                size: 8,
                tid: ThreadId(3),
                old: u64::MAX,
                new: u64::MAX - 1,
                success: false,
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_fast_is_bit_identical_to_crc32() {
        assert_eq!(crc32_fast(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_fast(b""), 0);
        // Every length from 0 to a few multiples of the 8-byte block, so
        // both the sliced loop and the remainder loop are exercised at
        // every alignment.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..64)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        for cut in 0..=noise.len() {
            assert_eq!(crc32_fast(&noise[..cut]), crc32(&noise[..cut]), "len {cut}");
        }
    }

    #[test]
    fn ref_decode_matches_owned_decode_for_every_kind() {
        for event in sample_events() {
            let payload = encode_payload(&event);
            let as_ref = decode_payload_ref(&payload).expect("ref decodes");
            assert_eq!(as_ref.to_owned(), event);
            assert_eq!(as_ref, event.as_ref());
            assert_eq!(as_ref.kind_index(), event.kind_index());
            assert_eq!(as_ref.range(), event.range());
        }
    }

    #[test]
    fn ref_decode_borrows_names_from_the_payload() {
        let payload = encode_payload(&PmEvent::FuncEnter {
            name: "btree_insert".into(),
            tid: ThreadId(0),
        });
        let event = decode_payload_ref(&payload).expect("decodes");
        match event {
            PmEventRef::FuncEnter { name, .. } => {
                // The borrowed name points into the payload buffer itself.
                let payload_range =
                    payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
                assert!(payload_range.contains(&(name.as_ptr() as usize)));
                assert_eq!(name, "btree_insert");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in sample_events() {
            let payload = encode_payload(&event);
            let back = decode_payload(&payload).expect("decodes");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn whole_trace_round_trips() {
        let trace: Trace = sample_events().into_iter().collect();
        let bytes = to_binary(&trace);
        assert_eq!(&bytes[..8], &FILE_MAGIC);
        let back = from_binary(&bytes).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_trace_is_just_the_file_magic() {
        let bytes = to_binary(&Trace::new());
        assert_eq!(bytes, FILE_MAGIC);
        assert_eq!(from_binary(&bytes).unwrap(), Trace::new());
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = encode_payload(&PmEvent::Crash);
        payload.push(0);
        let err = decode_payload(&payload).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn bad_enum_bytes_are_rejected() {
        assert!(decode_payload(&[2, 9]).unwrap_err().contains("flush kind"));
        assert!(decode_payload(&[3, 9]).unwrap_err().contains("fence kind"));
        assert!(decode_payload(&[11, 9]).unwrap_err().contains("annotation"));
        assert!(decode_payload(&[99]).unwrap_err().contains("tag"));
        assert!(decode_payload(&[]).unwrap_err().contains("empty"));
    }

    #[test]
    fn flipped_payload_bit_fails_the_crc() {
        let trace: Trace = vec![PmEvent::Store {
            addr: 0x40,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        }]
        .into_iter()
        .collect();
        let mut bytes = to_binary(&trace);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = from_binary(&bytes).unwrap_err();
        assert!(err.reason.contains("CRC"), "{err}");
        assert_eq!(err.frame, 0);
    }

    #[test]
    fn truncated_file_reports_offset() {
        let trace: Trace = sample_events().into_iter().collect();
        let bytes = to_binary(&trace);
        let cut = &bytes[..bytes.len() - 3];
        let err = from_binary(cut).unwrap_err();
        assert!(err.reason.contains("truncated"), "{err}");
        assert!(err.offset > 8);
    }

    #[test]
    fn oversized_frame_length_is_corruption_not_allocation() {
        let mut bytes = FILE_MAGIC.to_vec();
        bytes.extend_from_slice(&FRAME_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        let err = from_binary(&bytes).unwrap_err();
        assert!(err.reason.contains("cap"), "{err}");
    }

    #[test]
    fn missing_file_magic_is_a_clear_error() {
        let err = from_binary(b"PMTRACE9xxxx").unwrap_err();
        assert!(err.reason.contains("PMTRACE2"), "{err}");
        assert!(from_binary(b"").is_err());
    }

    #[test]
    fn frame_spans_cover_the_file_exactly() {
        let trace: Trace = sample_events().into_iter().collect();
        let bytes = to_binary(&trace);
        let spans = frame_spans(&bytes).unwrap();
        assert_eq!(spans.len(), trace.len());
        assert_eq!(spans[0].0, FILE_MAGIC.len());
        assert_eq!(spans.last().unwrap().1, bytes.len());
        for pair in spans.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
    }

    #[test]
    fn decode_is_total_over_junk() {
        // Arbitrary prefixes of a valid payload and pure noise must error,
        // never panic.
        let payload = encode_payload(&PmEvent::FuncEnter {
            name: "x".repeat(100),
            tid: ThreadId(1),
        });
        for cut in 0..payload.len() {
            let _ = decode_payload(&payload[..cut]);
        }
        let mut state = 0x1234u64;
        for _ in 0..200 {
            let junk: Vec<u8> = (0..32)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let _ = decode_payload(&junk);
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 10 continuation bytes encode more than 64 bits.
        let mut payload = vec![9u8]; // TxLog tag
        payload.extend_from_slice(&[0xFF; 10]);
        assert!(decode_payload(&payload).is_err());
    }
}
