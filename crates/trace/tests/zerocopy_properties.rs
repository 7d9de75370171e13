//! Property-based equivalence tests for the two v2 frame readers.
//!
//! The contract under test: [`pm_trace::zero_copy`]'s borrowed
//! [`FrameWalker`] (in-memory images) and the push-based
//! [`StreamDecoder`] (chunks as they arrive) keep independent salvage
//! state machines, yet must be indistinguishable — same events, same
//! [`IngestReport`] accounting, same errors — on clean images, under
//! arbitrary chunking, after single-bit-flip corruption and under event
//! budgets. Wall-clock `elapsed` is the one field excluded from equality:
//! it must merely be populated.

use std::time::Duration;

use pm_trace::{
    FenceKind, IngestLimits, IngestMode, IngestReport, PmEvent, StreamDecoder, ThreadId, Trace,
    ZeroCopy,
};
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
        ("[a-z][a-z0-9_]{0,12}", 0u64..1 << 20, 1u32..64)
            .prop_map(|(name, addr, size)| PmEvent::NameRange { name, addr, size }),
        ("[a-z][a-z0-9_]{0,12}", 0u32..4).prop_map(|(name, tid)| PmEvent::FuncEnter {
            name,
            tid: ThreadId(tid)
        }),
        (0u64..1 << 20, 1u32..128, 0u32..4).prop_map(|(addr, size, tid)| PmEvent::TxLog {
            obj_addr: addr,
            size,
            tid: ThreadId(tid),
        }),
        Just(PmEvent::Crash),
        (0u64..1 << 20, 1u32..64).prop_map(|(addr, size)| PmEvent::RecoveryRead { addr, size }),
        cas_event(),
    ]
}

fn cas_event() -> impl Strategy<Value = PmEvent> {
    (
        0u64..1 << 20,
        1u32..17,
        0u32..4,
        (any::<u64>(), any::<u64>()),
        any::<bool>(),
    )
        .prop_map(|(addr, size, tid, (old, new), success)| PmEvent::Cas {
            addr,
            size,
            tid: ThreadId(tid),
            old,
            new,
            success,
        })
}

/// Walks the whole zero-copy view, materializing each borrowed event, and
/// returns the events plus the final report. `Err` carries the walker's
/// strict-mode failure.
fn walk_all(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Vec<PmEvent>, IngestReport), pm_trace::IngestError> {
    match pm_trace::zero_copy(bytes, mode, limits)? {
        ZeroCopy::Binary(mut walker) => {
            let mut events = Vec::new();
            while let Some(event) = walker.next_ref()? {
                events.push(event.to_owned());
            }
            Ok((events, walker.into_report()))
        }
        ZeroCopy::Text => panic!("fixture classified as text"),
    }
}

/// Like [`walk_all`] but through the bulk [`FrameWalker::for_each_ref`]
/// drive instead of the per-event `next_ref` loop.
fn walk_all_bulk(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
) -> Result<(Vec<PmEvent>, IngestReport), pm_trace::IngestError> {
    match pm_trace::zero_copy(bytes, mode, limits)? {
        ZeroCopy::Binary(mut walker) => {
            let mut events = Vec::new();
            walker.for_each_ref(|event| events.push(event.to_owned()))?;
            Ok((events, walker.into_report()))
        }
        ZeroCopy::Text => panic!("fixture classified as text"),
    }
}

/// Asserts the two reports are equal in every field except `elapsed`,
/// which both sides must have populated.
fn assert_reports_identical(mut a: IngestReport, mut b: IngestReport) -> Result<(), TestCaseError> {
    prop_assert!(a.elapsed > Duration::ZERO, "left elapsed unpopulated");
    prop_assert!(b.elapsed > Duration::ZERO, "right elapsed unpopulated");
    a.elapsed = Duration::ZERO;
    b.elapsed = Duration::ZERO;
    prop_assert_eq!(a, b);
    Ok(())
}

/// [`StreamDecoder`] drive loop with cycled chunk sizes, mirroring the
/// one in `ingest_properties.rs`. A single chunk of `bytes.len()` pushes
/// the whole buffer at once.
fn stream_decode(
    bytes: &[u8],
    mode: IngestMode,
    limits: &IngestLimits,
    chunks: &[usize],
) -> Result<(Vec<PmEvent>, IngestReport), pm_trace::IngestError> {
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

    /// On clean images the borrowed walker is byte-identical to the stream
    /// decoder, fed the whole buffer at once or in arbitrary chunks: same
    /// events, same full report.
    #[test]
    fn walker_matches_decoder_on_clean_images(
        events in proptest::collection::vec(any_event(), 0..80),
        chunks in proptest::collection::vec(1usize..97, 1..8),
    ) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let limits = IngestLimits::default();
        let (walked, walk_report) = walk_all(&bytes, IngestMode::Strict, &limits).unwrap();
        prop_assert_eq!(trace.events(), &walked[..]);
        prop_assert!(walk_report.clean());
        for chunking in [&[bytes.len()][..], &chunks[..]] {
            let (streamed, stream_report) =
                stream_decode(&bytes, IngestMode::Strict, &limits, chunking).unwrap();
            prop_assert_eq!(&streamed[..], &walked[..]);
            assert_reports_identical(walk_report.clone(), stream_report)?;
        }
    }

    /// A single bit flip anywhere in the image leaves the salvage-mode
    /// walker and the stream decoder (fed the whole buffer) in exact
    /// agreement: same recovered events, same resync/skip/salvage
    /// accounting, same recorded errors.
    #[test]
    fn walker_matches_decoder_salvage_on_flipped_images(
        events in proptest::collection::vec(any_event(), 1..60),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let limits = IngestLimits::default().with_max_events(10_000);
        // A header flip can make the sniffer classify the input as text
        // (or refuse it); then there is no binary walk to compare.
        if !matches!(
            pm_trace::zero_copy(&bytes, IngestMode::Salvage, &limits),
            Ok(ZeroCopy::Binary(_))
        ) {
            return Ok(());
        }
        let (walked, walk_report) = walk_all(&bytes, IngestMode::Salvage, &limits).unwrap();
        let (streamed, stream_report) =
            stream_decode(&bytes, IngestMode::Salvage, &limits, &[bytes.len()]).unwrap();
        prop_assert_eq!(&streamed[..], &walked[..]);
        assert_reports_identical(walk_report, stream_report)?;
    }

    /// Strict mode rejects a flipped image identically on both readers:
    /// either both succeed (the flip landed in dead space) with equal
    /// output, or both fail with the same rendered error.
    #[test]
    fn walker_matches_decoder_strict_on_flipped_images(
        events in proptest::collection::vec(any_event(), 1..60),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let limits = IngestLimits::default().with_max_events(10_000);
        // A damaged file header is refused by the sniffer before any walk;
        // the decoder words that refusal for a stream, not a file.
        if !matches!(
            pm_trace::zero_copy(&bytes, IngestMode::Strict, &limits),
            Ok(ZeroCopy::Binary(_))
        ) {
            return Ok(());
        }
        let walked = walk_all(&bytes, IngestMode::Strict, &limits);
        let streamed = stream_decode(&bytes, IngestMode::Strict, &limits, &[bytes.len()]);
        match (walked, streamed) {
            (Ok((events, walk_report)), Ok((streamed, stream_report))) => {
                prop_assert_eq!(&streamed[..], &events[..]);
                assert_reports_identical(walk_report, stream_report)?;
            }
            (Err(we), Err(se)) => {
                prop_assert_eq!(we.to_string(), se.to_string());
            }
            (walked, streamed) => {
                return Err(TestCaseError::fail(format!(
                    "readers diverged: walker={walked:?} decoder={streamed:?}"
                )));
            }
        }
    }

    /// The walker also agrees with the push-based [`StreamDecoder`] under
    /// arbitrary chunking of a flipped image.
    #[test]
    fn walker_matches_stream_decoder_under_chunking(
        events in proptest::collection::vec(any_event(), 1..50),
        pos in any::<u64>(),
        bit in 0u32..8,
        chunks in proptest::collection::vec(1usize..97, 1..8),
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let limits = IngestLimits::default().with_max_events(10_000);
        if !matches!(
            pm_trace::zero_copy(&bytes, IngestMode::Salvage, &limits).unwrap(),
            ZeroCopy::Binary(_)
        ) {
            // A destroyed header sends the walker down the text path while
            // the decoder (told the format up front) still salvages.
            return Ok(());
        }
        let (walked, walk_report) = walk_all(&bytes, IngestMode::Salvage, &limits).unwrap();
        let (streamed, stream_report) =
            stream_decode(&bytes, IngestMode::Salvage, &limits, &chunks).unwrap();
        prop_assert_eq!(&walked[..], &streamed[..]);
        assert_reports_identical(walk_report, stream_report)?;
    }

    /// The bulk `for_each_ref` drive is observably identical to the
    /// per-event `next_ref` loop — same events, same final report, same
    /// strict-mode error — on flipped images in both modes.
    #[test]
    fn bulk_drive_matches_per_event_drive(
        events in proptest::collection::vec(any_event(), 1..60),
        pos in any::<u64>(),
        bit in 0u32..8,
        strict in any::<bool>(),
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let mode = if strict { IngestMode::Strict } else { IngestMode::Salvage };
        let limits = IngestLimits::default().with_max_events(10_000);
        if !matches!(
            pm_trace::zero_copy(&bytes, mode, &limits),
            Ok(ZeroCopy::Binary(_))
        ) {
            return Ok(());
        }
        match (walk_all(&bytes, mode, &limits), walk_all_bulk(&bytes, mode, &limits)) {
            (Ok((single, single_report)), Ok((bulk, bulk_report))) => {
                prop_assert_eq!(&single[..], &bulk[..]);
                assert_reports_identical(single_report, bulk_report)?;
            }
            (Err(se), Err(be)) => {
                prop_assert_eq!(se.to_string(), be.to_string());
            }
            (single, bulk) => {
                return Err(TestCaseError::fail(format!(
                    "drives diverged: next_ref={single:?} for_each_ref={bulk:?}"
                )));
            }
        }
    }

    /// Event budgets truncate the walker exactly like the stream decoder,
    /// whole-buffer or chunked.
    #[test]
    fn walker_event_budget_matches_decoder(
        events in proptest::collection::vec(any_event(), 2..60),
        cap in 1u64..30,
        chunks in proptest::collection::vec(1usize..97, 1..6),
    ) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let limits = IngestLimits::default().with_max_events(cap);
        let (walked, walk_report) = walk_all(&bytes, IngestMode::Salvage, &limits).unwrap();
        for chunking in [&[bytes.len()][..], &chunks[..]] {
            let (streamed, stream_report) =
                stream_decode(&bytes, IngestMode::Salvage, &limits, chunking).unwrap();
            prop_assert_eq!(&streamed[..], &walked[..]);
            prop_assert_eq!(walk_report.truncated, stream_report.truncated);
            assert_reports_identical(walk_report.clone(), stream_report)?;
        }
    }

    /// `Cas` survives text-v1 round-trips bit-for-bit: trace → text →
    /// trace → text yields the identical event list and identical text.
    #[test]
    fn cas_round_trips_through_text(
        events in proptest::collection::vec(cas_event(), 1..60)
    ) {
        let trace: Trace = events.into_iter().collect();
        let text = pm_trace::to_text(&trace);
        let reparsed = pm_trace::from_text(&text).unwrap();
        prop_assert_eq!(reparsed.events(), trace.events());
        prop_assert_eq!(pm_trace::to_text(&reparsed), text);
    }

    /// `Cas` survives bin-v2 round-trips and the borrowed zero-copy view
    /// materializes each frame to exactly the original owned event.
    #[test]
    fn cas_round_trips_through_binary_and_zero_copy(
        events in proptest::collection::vec(cas_event(), 1..60)
    ) {
        let trace: Trace = events.into_iter().collect();
        let bytes = pm_trace::to_binary(&trace);
        let limits = IngestLimits::default();
        let (batch, report) =
            pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &limits).unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(batch.events(), trace.events());
        let (walked, _) = walk_all(&bytes, IngestMode::Strict, &limits).unwrap();
        prop_assert_eq!(&walked[..], trace.events());
    }

    /// Crossing formats preserves `Cas`: text → trace → binary → trace →
    /// text is the identity.
    #[test]
    fn cas_crosses_formats_losslessly(
        events in proptest::collection::vec(cas_event(), 1..40)
    ) {
        let trace: Trace = events.into_iter().collect();
        let text = pm_trace::to_text(&trace);
        let via_text = pm_trace::from_text(&text).unwrap();
        let bytes = pm_trace::to_binary(&via_text);
        let (via_bin, _) =
            pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &IngestLimits::default()).unwrap();
        prop_assert_eq!(via_bin.events(), trace.events());
        prop_assert_eq!(pm_trace::to_text(&via_bin), text);
    }

    /// A single bit flip anywhere in a CAS-only binary image never panics
    /// any ingest path — every path returns `Ok` or a proper error.
    #[test]
    fn flipped_cas_images_never_panic(
        events in proptest::collection::vec(cas_event(), 1..40),
        pos in any::<u64>(),
        bit in 0u32..8,
    ) {
        let trace: Trace = events.into_iter().collect();
        let mut bytes = pm_trace::to_binary(&trace);
        let flip_at = (pos % bytes.len() as u64) as usize;
        bytes[flip_at] ^= 1 << bit;
        let limits = IngestLimits::default().with_max_events(10_000);
        let _ = pm_trace::ingest_bytes(&bytes, IngestMode::Strict, &limits);
        let _ = pm_trace::ingest_bytes(&bytes, IngestMode::Salvage, &limits);
        // A header flip legitimately reclassifies the image as text, in
        // which case there is no binary walk to attempt.
        if matches!(
            pm_trace::zero_copy(&bytes, IngestMode::Salvage, &limits),
            Ok(ZeroCopy::Binary(_))
        ) {
            let _ = walk_all(&bytes, IngestMode::Salvage, &limits);
            let _ = stream_decode(&bytes, IngestMode::Salvage, &limits, &[7, 13]);
        }
    }
}
