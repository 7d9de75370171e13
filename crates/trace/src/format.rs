//! A line-oriented text format for traces.
//!
//! One event per line, human-readable and diff-friendly, so traces can be
//! recorded once (e.g. `pmdbg record`) and replayed through any detector
//! later (`pmdbg replay`), inspected in a pager, or committed as
//! regression fixtures.
//!
//! ```text
//! # pm-trace v1
//! register base=0x0 size=4096
//! store addr=0x40 size=8 tid=0
//! flush clwb addr=0x40 size=64 tid=0
//! fence sfence tid=0
//! epoch_begin tid=0
//! store addr=0x80 size=8 tid=0 epoch
//! txlog addr=0x80 size=8 tid=0
//! fence sfence tid=0 epoch
//! epoch_end tid=0
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::annotations::Annotation;
use crate::events::{FenceKind, PmEvent, StrandId, ThreadId};
use crate::recorder::Trace;
use pmem_sim::FlushKind;

/// Header line identifying the format.
pub const HEADER: &str = "# pm-trace v1";

/// Serializes a trace to the text format.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 32 + HEADER.len() + 1);
    out.push_str(HEADER);
    out.push('\n');
    for event in trace.events() {
        write_event(&mut out, event);
        out.push('\n');
    }
    out
}

fn flush_kind_name(kind: FlushKind) -> &'static str {
    match kind {
        FlushKind::Clwb => "clwb",
        FlushKind::Clflush => "clflush",
        FlushKind::Clflushopt => "clflushopt",
    }
}

fn write_event(out: &mut String, event: &PmEvent) {
    match event {
        PmEvent::RegisterPmem { base, size } => {
            let _ = write!(out, "register base={base:#x} size={size}");
        }
        PmEvent::Store {
            addr,
            size,
            tid,
            strand,
            in_epoch,
        } => {
            let _ = write!(out, "store addr={addr:#x} size={size} tid={}", tid.0);
            if let Some(s) = strand {
                let _ = write!(out, " strand={}", s.0);
            }
            if *in_epoch {
                out.push_str(" epoch");
            }
        }
        PmEvent::Flush {
            kind,
            addr,
            size,
            tid,
            strand,
        } => {
            let _ = write!(
                out,
                "flush {} addr={addr:#x} size={size} tid={}",
                flush_kind_name(*kind),
                tid.0
            );
            if let Some(s) = strand {
                let _ = write!(out, " strand={}", s.0);
            }
        }
        PmEvent::Fence {
            kind,
            tid,
            strand,
            in_epoch,
        } => {
            let name = match kind {
                FenceKind::Sfence => "sfence",
                FenceKind::PersistBarrier => "barrier",
            };
            let _ = write!(out, "fence {name} tid={}", tid.0);
            if let Some(s) = strand {
                let _ = write!(out, " strand={}", s.0);
            }
            if *in_epoch {
                out.push_str(" epoch");
            }
        }
        PmEvent::EpochBegin { tid } => {
            let _ = write!(out, "epoch_begin tid={}", tid.0);
        }
        PmEvent::EpochEnd { tid } => {
            let _ = write!(out, "epoch_end tid={}", tid.0);
        }
        PmEvent::StrandBegin { strand, tid } => {
            let _ = write!(out, "strand_begin strand={} tid={}", strand.0, tid.0);
        }
        PmEvent::StrandEnd { strand, tid } => {
            let _ = write!(out, "strand_end strand={} tid={}", strand.0, tid.0);
        }
        PmEvent::JoinStrand { tid } => {
            let _ = write!(out, "join_strand tid={}", tid.0);
        }
        PmEvent::TxLog {
            obj_addr,
            size,
            tid,
        } => {
            let _ = write!(out, "txlog addr={obj_addr:#x} size={size} tid={}", tid.0);
        }
        PmEvent::FuncEnter { name, tid } => {
            let _ = write!(out, "func name={name} tid={}", tid.0);
        }
        PmEvent::NameRange { name, addr, size } => {
            let _ = write!(out, "name name={name} addr={addr:#x} size={size}");
        }
        PmEvent::Annotation(annotation) => {
            match annotation {
                Annotation::CheckerStart => out.push_str("annot checker_start"),
                Annotation::CheckerEnd => out.push_str("annot checker_end"),
                Annotation::AssertPersisted { addr, size } => {
                    let _ = write!(out, "annot assert_persisted addr={addr:#x} size={size}");
                }
                Annotation::AssertOrdered {
                    first,
                    first_size,
                    second,
                    second_size,
                } => {
                    let _ = write!(
                        out,
                        "annot assert_ordered first={first:#x} first_size={first_size} \
                         second={second:#x} second_size={second_size}"
                    );
                }
                Annotation::TrackLogging { addr, size } => {
                    let _ = write!(out, "annot track_logging addr={addr:#x} size={size}");
                }
            };
        }
        PmEvent::Crash => out.push_str("crash"),
        PmEvent::RecoveryRead { addr, size } => {
            let _ = write!(out, "recovery_read addr={addr:#x} size={size}");
        }
        PmEvent::Cas {
            addr,
            size,
            tid,
            old,
            new,
            success,
        } => {
            let _ = write!(
                out,
                "cas addr={addr:#x} size={size} tid={} old={old:#x} new={new:#x}",
                tid.0
            );
            if *success {
                out.push_str(" ok");
            }
        }
    }
}

impl fmt::Display for PmEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut line = String::new();
        write_event(&mut line, self);
        f.write_str(&line)
    }
}

/// Longest slice of the offending line carried inside a
/// [`ParseTraceError`] before truncation.
const SNIPPET_MAX: usize = 72;

/// Truncates `line` to [`SNIPPET_MAX`] bytes on a char boundary, marking
/// the cut with an ellipsis.
fn snippet_of(line: &str) -> String {
    if line.len() <= SNIPPET_MAX {
        return line.to_owned();
    }
    let mut end = SNIPPET_MAX;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &line[..end])
}

/// Error from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub reason: String,
    /// Truncated copy of the offending line (empty when not applicable).
    pub snippet: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)?;
        if !self.snippet.is_empty() {
            write!(f, " — `{}`", self.snippet)?;
        }
        Ok(())
    }
}

impl Error for ParseTraceError {}

struct Fields<'a> {
    line_no: usize,
    line: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    flags: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    fn parse(line_no: usize, line: &'a str, tokens: &[&'a str]) -> Self {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        for token in tokens {
            match token.split_once('=') {
                Some((k, v)) => pairs.push((k, v)),
                None => flags.push(*token),
            }
        }
        Fields {
            line_no,
            line,
            pairs,
            flags,
        }
    }

    fn err(&self, reason: impl Into<String>) -> ParseTraceError {
        ParseTraceError {
            line: self.line_no,
            reason: reason.into(),
            snippet: snippet_of(self.line),
        }
    }

    fn get(&self, key: &str) -> Result<&'a str, ParseTraceError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| self.err(format!("missing field `{key}`")))
    }

    fn num(&self, key: &str) -> Result<u64, ParseTraceError> {
        let raw = self.get(key)?;
        let parsed = if let Some(hex) = raw.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            raw.parse()
        };
        parsed.map_err(|_| self.err(format!("invalid number `{raw}` for `{key}`")))
    }

    fn tid(&self) -> Result<ThreadId, ParseTraceError> {
        Ok(ThreadId(self.num("tid")? as u32))
    }

    fn strand(&self) -> Result<Option<StrandId>, ParseTraceError> {
        match self.pairs.iter().find(|(k, _)| *k == "strand") {
            None => Ok(None),
            Some(_) => Ok(Some(StrandId(self.num("strand")? as u32))),
        }
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

/// Parses one line of the text format.
///
/// Returns `Ok(None)` for blank lines and `#` comments (including the
/// header). This is the shared per-line core behind [`from_text`] and the
/// text reader in [`crate::ingest`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] carrying the line number and a truncated
/// copy of the offending line.
pub fn parse_line(line_no: usize, raw: &str) -> Result<Option<PmEvent>, ParseTraceError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (head, rest) = tokens.split_first().expect("non-empty line");
    let fields = Fields::parse(line_no, line, rest);
    let event = match *head {
        "register" => PmEvent::RegisterPmem {
            base: fields.num("base")?,
            size: fields.num("size")?,
        },
        "store" => PmEvent::Store {
            addr: fields.num("addr")?,
            size: fields.num("size")? as u32,
            tid: fields.tid()?,
            strand: fields.strand()?,
            in_epoch: fields.has_flag("epoch"),
        },
        "flush" => {
            let kind = match rest.first().copied() {
                Some("clwb") => FlushKind::Clwb,
                Some("clflush") => FlushKind::Clflush,
                Some("clflushopt") => FlushKind::Clflushopt,
                other => {
                    return Err(fields.err(format!("unknown flush kind {other:?}")));
                }
            };
            PmEvent::Flush {
                kind,
                addr: fields.num("addr")?,
                size: fields.num("size")? as u32,
                tid: fields.tid()?,
                strand: fields.strand()?,
            }
        }
        "fence" => {
            let kind = match rest.first().copied() {
                Some("sfence") => FenceKind::Sfence,
                Some("barrier") => FenceKind::PersistBarrier,
                other => {
                    return Err(fields.err(format!("unknown fence kind {other:?}")));
                }
            };
            PmEvent::Fence {
                kind,
                tid: fields.tid()?,
                strand: fields.strand()?,
                in_epoch: fields.has_flag("epoch"),
            }
        }
        "epoch_begin" => PmEvent::EpochBegin { tid: fields.tid()? },
        "epoch_end" => PmEvent::EpochEnd { tid: fields.tid()? },
        "strand_begin" => PmEvent::StrandBegin {
            strand: StrandId(fields.num("strand")? as u32),
            tid: fields.tid()?,
        },
        "strand_end" => PmEvent::StrandEnd {
            strand: StrandId(fields.num("strand")? as u32),
            tid: fields.tid()?,
        },
        "join_strand" => PmEvent::JoinStrand { tid: fields.tid()? },
        "txlog" => PmEvent::TxLog {
            obj_addr: fields.num("addr")?,
            size: fields.num("size")? as u32,
            tid: fields.tid()?,
        },
        "func" => PmEvent::FuncEnter {
            name: fields.get("name")?.to_owned(),
            tid: fields.tid()?,
        },
        "name" => PmEvent::NameRange {
            name: fields.get("name")?.to_owned(),
            addr: fields.num("addr")?,
            size: fields.num("size")? as u32,
        },
        "annot" => {
            let which = rest.first().copied().unwrap_or("");
            let annotation = match which {
                "checker_start" => Annotation::CheckerStart,
                "checker_end" => Annotation::CheckerEnd,
                "assert_persisted" => Annotation::AssertPersisted {
                    addr: fields.num("addr")?,
                    size: fields.num("size")? as u32,
                },
                "assert_ordered" => Annotation::AssertOrdered {
                    first: fields.num("first")?,
                    first_size: fields.num("first_size")? as u32,
                    second: fields.num("second")?,
                    second_size: fields.num("second_size")? as u32,
                },
                "track_logging" => Annotation::TrackLogging {
                    addr: fields.num("addr")?,
                    size: fields.num("size")? as u32,
                },
                other => {
                    return Err(fields.err(format!("unknown annotation `{other}`")));
                }
            };
            PmEvent::Annotation(annotation)
        }
        "crash" => PmEvent::Crash,
        "recovery_read" => PmEvent::RecoveryRead {
            addr: fields.num("addr")?,
            size: fields.num("size")? as u32,
        },
        "cas" => PmEvent::Cas {
            addr: fields.num("addr")?,
            size: fields.num("size")? as u32,
            tid: fields.tid()?,
            old: fields.num("old")?,
            new: fields.num("new")?,
            success: fields.has_flag("ok"),
        },
        other => {
            return Err(ParseTraceError {
                line: line_no,
                reason: format!("unknown event `{other}`"),
                snippet: snippet_of(line),
            });
        }
    };
    Ok(Some(event))
}

/// Parses the text format back into a trace.
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending line for malformed input.
pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new();
    for (idx, raw) in text.lines().enumerate() {
        if let Some(event) = parse_line(idx + 1, raw)? {
            trace.push(event);
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        vec![
            PmEvent::RegisterPmem {
                base: 0,
                size: 4096,
            },
            PmEvent::Store {
                addr: 0x40,
                size: 8,
                tid: ThreadId(1),
                strand: Some(StrandId(2)),
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
                strand: Some(StrandId(2)),
                in_epoch: false,
            },
            PmEvent::EpochBegin { tid: ThreadId(0) },
            PmEvent::TxLog {
                obj_addr: 0x80,
                size: 16,
                tid: ThreadId(0),
            },
            PmEvent::EpochEnd { tid: ThreadId(0) },
            PmEvent::StrandBegin {
                strand: StrandId(3),
                tid: ThreadId(0),
            },
            PmEvent::StrandEnd {
                strand: StrandId(3),
                tid: ThreadId(0),
            },
            PmEvent::JoinStrand { tid: ThreadId(0) },
            PmEvent::FuncEnter {
                name: "insert".into(),
                tid: ThreadId(0),
            },
            PmEvent::NameRange {
                name: "key".into(),
                addr: 0x100,
                size: 8,
            },
            PmEvent::Annotation(Annotation::AssertOrdered {
                first: 0,
                first_size: 8,
                second: 64,
                second_size: 16,
            }),
            PmEvent::Annotation(Annotation::CheckerStart),
            PmEvent::Crash,
            PmEvent::RecoveryRead { addr: 0, size: 8 },
            PmEvent::Cas {
                addr: 0x200,
                size: 8,
                tid: ThreadId(1),
                old: 0,
                new: 0x140,
                success: true,
            },
            PmEvent::Cas {
                addr: 0x200,
                size: 8,
                tid: ThreadId(2),
                old: 0x140,
                new: 0x180,
                success: false,
            },
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn display_matches_text_format() {
        let event = PmEvent::Store {
            addr: 0x40,
            size: 8,
            tid: ThreadId(0),
            strand: None,
            in_epoch: false,
        };
        assert_eq!(event.to_string(), "store addr=0x40 size=8 tid=0");
    }

    #[test]
    fn roundtrip_preserves_every_event() {
        let trace = sample_trace();
        let text = to_text(&trace);
        let back = from_text(&text).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn header_and_comments_are_skipped() {
        let text = "# pm-trace v1\n\n# a comment\nstore addr=0x0 size=8 tid=0\n";
        let trace = from_text(text).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn decimal_and_hex_numbers_accepted() {
        let trace = from_text("store addr=64 size=8 tid=0").unwrap();
        assert_eq!(trace.events()[0].range(), Some((64, 8)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_text("store addr=0x0 size=8 tid=0\nwat addr=1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown event"));
    }

    #[test]
    fn errors_carry_a_snippet_of_the_offending_line() {
        let err = from_text("store addr=0x0 size=8 tid=0\nwat addr=1").unwrap_err();
        assert_eq!(err.snippet, "wat addr=1");
        assert!(err.to_string().contains("`wat addr=1`"), "{err}");
    }

    #[test]
    fn long_snippets_are_truncated_on_char_boundaries() {
        let line = format!("wat {}ä", "x".repeat(200));
        let err = from_text(&line).unwrap_err();
        assert!(err.snippet.len() < line.len());
        assert!(err.snippet.ends_with('…'));
        // Multibyte char straddling the cut must not split.
        let line = format!("wat {}{}", "x".repeat(67), "äää");
        let err = from_text(&line).unwrap_err();
        assert!(err
            .snippet
            .is_char_boundary(err.snippet.len() - '…'.len_utf8()));
    }

    #[test]
    fn salvage_skips_bad_lines_and_keeps_good_ones() {
        let text = "# pm-trace v1\n\
                    store addr=0x0 size=8 tid=0\n\
                    wat addr=1\n\
                    fence sfence tid=0\n\
                    store addr=zz size=8 tid=0\n\
                    store addr=0x40 size=8 tid=0\n";
        let (trace, report) = salvage(text);
        assert_eq!(trace.len(), 3);
        assert_eq!(report.frames_skipped, 2);
        assert_eq!(report.first_error.unwrap().locus, 3);
        assert_eq!(report.last_error.unwrap().locus, 5);
    }

    #[test]
    fn salvage_of_clean_text_matches_strict() {
        let trace = sample_trace();
        let (salvaged, report) = salvage(&to_text(&trace));
        assert!(report.clean(), "{report:?}");
        assert_eq!(salvaged, trace);
    }

    /// Text salvage is the ingest reader's salvage mode.
    fn salvage(text: &str) -> (Trace, crate::IngestReport) {
        crate::ingest_bytes(
            text.as_bytes(),
            crate::IngestMode::Salvage,
            &crate::IngestLimits::default(),
        )
        .unwrap()
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = from_text("store size=8 tid=0").unwrap_err();
        assert!(err.reason.contains("addr"));
    }

    #[test]
    fn invalid_numbers_are_reported() {
        let err = from_text("store addr=zz size=8 tid=0").unwrap_err();
        assert!(err.reason.contains("invalid number"));
    }

    #[test]
    fn unknown_flush_kind_rejected() {
        assert!(from_text("flush wbinvd addr=0x0 size=64 tid=0").is_err());
    }

    #[test]
    fn workload_trace_roundtrips() {
        // A real workload trace (covers strands, epochs, logs, persists).
        let mut rt = crate::PmRuntime::trace_only();
        rt.record();
        rt.epoch_begin();
        rt.store_untyped(0, 8);
        rt.tx_log(0, 8);
        rt.clwb(0).unwrap();
        rt.sfence();
        rt.epoch_end().unwrap();
        rt.strand_begin();
        rt.store_untyped(64, 8);
        rt.clflushopt(64).unwrap();
        rt.persist_barrier();
        rt.strand_end().unwrap();
        let trace = rt.take_trace().unwrap();
        let back = from_text(&to_text(&trace)).unwrap();
        assert_eq!(trace, back);
    }
}
