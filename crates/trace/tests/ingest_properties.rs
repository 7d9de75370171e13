//! Property-based tests for the v2 binary format and the salvage readers:
//! [`pm_trace::ingest_bytes`] (the in-memory walker drained into a
//! [`Trace`]) against the push-based [`StreamDecoder`].

use std::time::Duration;

use pm_trace::{FenceKind, IngestLimits, IngestMode, PmEvent, StreamDecoder, ThreadId, Trace};
use pmem_sim::FlushKind;
use proptest::prelude::*;

fn any_event() -> impl Strategy<Value = PmEvent> {
    prop_oneof![
        (
            0u64..1 << 20,
            1u32..256,
            0u32..4,
            proptest::option::of(0u32..4),
            any::<bool>()
        )
            .prop_map(|(addr, size, tid, strand, in_epoch)| PmEvent::Store {
                addr,
                size,
                tid: ThreadId(tid),
                strand: strand.map(pm_trace::StrandId),
                in_epoch,
            }),
        (0u64..1 << 20, 0u32..4, proptest::option::of(0u32..4)).prop_map(|(addr, tid, strand)| {
            PmEvent::Flush {
                kind: FlushKind::Clwb,
                addr: addr & !63,
                size: 64,
                tid: ThreadId(tid),
                strand: strand.map(pm_trace::StrandId),
            }
        }),
        (0u32..4, any::<bool>()).prop_map(|(tid, in_epoch)| PmEvent::Fence {
            kind: FenceKind::Sfence,
            tid: ThreadId(tid),
            strand: None,
            in_epoch,
        }),
        (0u32..4).prop_map(|tid| PmEvent::EpochBegin { tid: ThreadId(tid) }),
        (0u32..4).prop_map(|tid| PmEvent::EpochEnd { tid: ThreadId(tid) }),
        (0u64..1 << 20, 1u32..128, 0u32..4).prop_map(|(addr, size, tid)| PmEvent::TxLog {
            obj_addr: addr,
            size,
            tid: ThreadId(tid),
        }),
        ("[a-z][a-z0-9_]{0,12}", 0u64..1 << 20, 1u32..64)
            .prop_map(|(name, addr, size)| PmEvent::NameRange { name, addr, size }),
        Just(PmEvent::Crash),
        (0u64..1 << 20, 1u32..64).prop_map(|(addr, size)| PmEvent::RecoveryRead { addr, size }),
    ]
}

/// A single byte-level corruption applied to a serialized image.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Flip { pos: u64, bit: u8 },
    Truncate { keep: u64 },
    Insert { pos: u64, byte: u8 },
    Remove { pos: u64 },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (any::<u64>(), 0u32..8).prop_map(|(pos, bit)| Mutation::Flip { pos, bit: bit as u8 }),
        1 => any::<u64>().prop_map(|keep| Mutation::Truncate { keep }),
        1 => (any::<u64>(), 0u32..256)
            .prop_map(|(pos, byte)| Mutation::Insert { pos, byte: byte as u8 }),
        1 => any::<u64>().prop_map(|pos| Mutation::Remove { pos }),
    ]
}

fn apply_mutation(bytes: &mut Vec<u8>, mutation: Mutation) {
    if bytes.is_empty() {
        return;
    }
    let len = bytes.len() as u64;
    match mutation {
        Mutation::Flip { pos, bit } => bytes[(pos % len) as usize] ^= 1 << bit,
        Mutation::Truncate { keep } => bytes.truncate((keep % len) as usize),
        Mutation::Insert { pos, byte } => bytes.insert((pos % (len + 1)) as usize, byte),
        Mutation::Remove { pos } => {
            bytes.remove((pos % len) as usize);
        }
    }
}

/// Feeds `bytes` through a [`StreamDecoder`] in the given chunk sizes
/// (cycled), draining events between pushes, and returns the decoded
/// events plus the final report.
fn stream_decode(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
    chunks: &[usize],
) -> Result<(Vec<PmEvent>, pm_trace::IngestReport), pm_trace::IngestError> {
    let mut dec = StreamDecoder::new(mode, limits.clone());
    let mut events = Vec::new();
    let mut off = 0usize;
    let mut i = 0usize;
    while off < bytes.len() {
        let n = chunks[i % chunks.len()].max(1).min(bytes.len() - off);
        i += 1;
        dec.push(&bytes[off..off + n]);
        off += n;
        while let Some(ev) = dec.next_event()? {
            events.push(ev);
        }
    }
    dec.finish();
    while let Some(ev) = dec.next_event()? {
        events.push(ev);
    }
    Ok((events, dec.report().clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The v2 binary codec roundtrips arbitrary event sequences exactly.
    #[test]
    fn binary_format_roundtrips(events in proptest::collection::vec(any_event(), 0..80)) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let back = pm_trace::from_binary(&bytes).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Down-converting v2 back to v1 text reproduces the original text
    /// byte for byte: text -> bin -> text is the identity.
    #[test]
    fn text_to_binary_to_text_is_byte_identical(
        events in proptest::collection::vec(any_event(), 0..60)
    ) {
        let trace: Trace = events.into_iter().collect();
        let text = pm_trace::to_text(&trace);
        let via_bin = pm_trace::from_binary(&pm_trace::to_binary(
            &pm_trace::from_text(&text).unwrap(),
        ))
        .unwrap();
        prop_assert_eq!(pm_trace::to_text(&via_bin), text);
    }

    /// Arbitrary byte-level corruption never panics the reader and always
    /// terminates within the configured budget, in both modes.
    #[test]
    fn mutated_images_never_panic(
        events in proptest::collection::vec(any_event(), 1..40),
        mutations in proptest::collection::vec(mutation_strategy(), 1..8),
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        for mutation in mutations {
            apply_mutation(&mut bytes, mutation);
        }
        let limits = IngestLimits::default()
            .with_max_events(10_000)
            .with_deadline(Duration::from_secs(5));
        // Both calls must return (Ok or Err) rather than panic or hang.
        let _ = pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &limits);
        let salvage = pm_trace::ingest_bytes(&bytes, IngestMode::Salvage, &limits);
        if let Ok((_, report)) = salvage {
            let hit_deadline = report
                .truncated
                .iter()
                .any(|t| matches!(t, pm_trace::IngestTruncation::Deadline { .. }));
            prop_assert!(!hit_deadline, "salvage overran its deadline");
        }
    }

    /// A single bit flip loses at most the frames at or after the flip:
    /// salvage recovers every frame that ends strictly before it.
    #[test]
    fn single_flip_salvage_recovers_clean_prefix(
        events in proptest::collection::vec(any_event(), 1..40),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let spans = pm_trace::frame_spans(&pm_trace::to_binary(&trace)).unwrap();
        let floor = spans.iter().take_while(|(_, end)| *end <= flip_at).count();
        let (salvaged, report) =
            pm_trace::ingest_bytes(&bytes, IngestMode::Salvage, &IngestLimits::default())
                .unwrap();
        prop_assert!(
            report.frames_ok as usize >= floor,
            "flip@{} floor={} got={}",
            flip_at,
            floor,
            report.frames_ok
        );
        prop_assert_eq!(&salvaged.events()[..floor], &trace.events()[..floor]);
    }

    /// The push-based [`StreamDecoder`] is byte-identical to the in-memory
    /// reader on clean images, no matter how the input is chunked.
    #[test]
    fn stream_decoder_matches_batch_on_clean_images(
        events in proptest::collection::vec(any_event(), 1..60),
        chunks in proptest::collection::vec(1usize..97, 1..8),
    ) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let limits = IngestLimits::default();
        let (batch, batch_report) =
            pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &limits).unwrap();
        let (streamed, stream_report) =
            stream_decode(&bytes, IngestMode::Strict, &limits, &chunks).unwrap();
        prop_assert_eq!(batch.events(), &streamed[..]);
        prop_assert_eq!(batch_report.frames_ok, stream_report.frames_ok);
        prop_assert_eq!(batch_report.frames_clean, stream_report.frames_clean);
        prop_assert_eq!(batch_report.bytes_read, stream_report.bytes_read);
        prop_assert_eq!(batch_report.bytes_salvaged, stream_report.bytes_salvaged);
        prop_assert!(stream_report.clean());
    }

    /// Salvage-mode stream decoding of corrupt images recovers exactly the
    /// same events with the same accounting as the in-memory salvage reader,
    /// under adversarial chunk splits (including 1-byte pushes).
    #[test]
    fn stream_decoder_matches_batch_salvage_on_mutated_images(
        events in proptest::collection::vec(any_event(), 1..40),
        mutations in proptest::collection::vec(mutation_strategy(), 1..6),
        chunks in proptest::collection::vec(1usize..53, 1..8),
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        for mutation in mutations {
            apply_mutation(&mut bytes, mutation);
        }
        let limits = IngestLimits::default().with_max_events(10_000);
        // Only compare where the in-memory reader takes the binary path
        // at all: a destroyed header with no frame magic in the sniff
        // window makes it refuse the input outright, while the push
        // decoder (which is told the format up front) salvages it.
        let batch = match pm_trace::ingest_bytes(&bytes, IngestMode::Salvage, &limits) {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        if batch.1.format != pm_trace::TraceFormat::BinV2 {
            return Ok(());
        }
        let (batch_trace, batch_report) = batch;
        let (streamed, stream_report) =
            stream_decode(&bytes, IngestMode::Salvage, &limits, &chunks).unwrap();
        prop_assert_eq!(batch_trace.events(), &streamed[..]);
        prop_assert_eq!(batch_report.frames_ok, stream_report.frames_ok);
        prop_assert_eq!(batch_report.frames_clean, stream_report.frames_clean);
        prop_assert_eq!(batch_report.frames_resynced, stream_report.frames_resynced);
        prop_assert_eq!(batch_report.frames_skipped, stream_report.frames_skipped);
        prop_assert_eq!(batch_report.resyncs, stream_report.resyncs);
        prop_assert_eq!(batch_report.bytes_salvaged, stream_report.bytes_salvaged);
        prop_assert_eq!(batch_report.bytes_read, stream_report.bytes_read);
        prop_assert_eq!(
            batch_report.first_error.clone(), stream_report.first_error.clone()
        );
    }

    /// Event budgets bite identically in streaming and in-memory mode.
    #[test]
    fn stream_decoder_event_budget_matches_batch(
        events in proptest::collection::vec(any_event(), 2..60),
        cap in 1u64..30,
        chunks in proptest::collection::vec(1usize..97, 1..6),
    ) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let limits = IngestLimits::default().with_max_events(cap);
        let (batch, batch_report) =
            pm_trace::ingest_bytes(&bytes, IngestMode::Salvage, &limits).unwrap();
        let (streamed, stream_report) =
            stream_decode(&bytes, IngestMode::Salvage, &limits, &chunks).unwrap();
        prop_assert_eq!(batch.events(), &streamed[..]);
        prop_assert_eq!(batch_report.truncated, stream_report.truncated);
    }
}
