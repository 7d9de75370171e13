//! Corruption torture sweep over serialized trace images.
//!
//! The crash-point campaigns in this crate stress what detectors conclude
//! from *clean* event streams; this module stresses the layer underneath —
//! can the ingestion path in `pm_trace::ingest` survive damaged inputs at
//! all? It serializes a recorded trace to the v2 binary format, sweeps
//! deterministic corruption over the image (bit-flips, truncations,
//! splices, garbage prefixes), feeds every mutant through the salvage
//! reader, and checks three invariants per image:
//!
//! 1. **Never panic** — the sweep runner catches a panicking ingest and
//!    reports it as an abort, tallied as `<class>.panics`.
//! 2. **Always terminate in budget** — each image gets a per-image event
//!    and wall-clock budget; the sweep itself honors the runner's wall
//!    clock with an explicit [`crate::Truncation`].
//! 3. **Salvage floor** — the reader must recover at least (and
//!    byte-for-byte exactly) every frame that precedes the first corrupted
//!    byte.
//!
//! A sampled fourth check runs the detector differential: PMDebugger's
//! reports over the salvaged clean prefix must be identical to replaying
//! that prefix of the pristine trace directly — salvage must not invent or
//! suppress bugs.
//!
//! Plans interleave the classes: plan `i` is image `i / 4` of class
//! `i % 4`, so 500 plans are 125 images of each class.

use std::fmt;
use std::time::Duration;

use pm_trace::{
    frame_spans, ingest_bytes, replay_finish, splitmix64, to_binary, IngestLimits, IngestMode,
    Trace,
};
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

use crate::error::ChaosError;
use crate::sweep::{batch_reports, Sweep, SweepViolation, Tallies};

/// Per-image wall-clock ceiling handed to the salvage reader. Generous —
/// the fixtures are small — but finite, so a reader bug that loops shows
/// up as a truncated ingest rather than a hung campaign.
const PER_IMAGE_DEADLINE: Duration = Duration::from_secs(5);

/// Every `DIFFERENTIAL_STRIDE`-th image with a non-empty clean prefix also
/// runs the detector differential.
const DIFFERENTIAL_STRIDE: u64 = 5;

/// The corruption classes swept over each image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CorruptionClass {
    /// Flip one bit at a seeded offset.
    BitFlip,
    /// Cut the image at a seeded offset (recorder died mid-write).
    Truncate,
    /// Overwrite a seeded span with bytes copied from elsewhere in the
    /// image (misdirected write / torn sector).
    Splice,
    /// Prepend seeded garbage bytes (log head overwritten).
    GarbagePrefix,
}

impl CorruptionClass {
    /// All classes, in sweep order.
    pub const ALL: [CorruptionClass; 4] = [
        CorruptionClass::BitFlip,
        CorruptionClass::Truncate,
        CorruptionClass::Splice,
        CorruptionClass::GarbagePrefix,
    ];

    /// Stable lowercase name (JSON key).
    pub fn name(self) -> &'static str {
        match self {
            CorruptionClass::BitFlip => "bit_flip",
            CorruptionClass::Truncate => "truncate",
            CorruptionClass::Splice => "splice",
            CorruptionClass::GarbagePrefix => "garbage_prefix",
        }
    }
}

impl fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One deterministic mutation: the bytes, and the offset of the first
/// corrupted byte (the salvage floor is the frame count before it).
struct Mutant {
    bytes: Vec<u8>,
    first_corrupt: usize,
}

fn mutate(class: CorruptionClass, pristine: &[u8], rng: &mut u64) -> Mutant {
    let len = pristine.len();
    match class {
        CorruptionClass::BitFlip => {
            let offset = (splitmix64(rng) % len as u64) as usize;
            let bit = (splitmix64(rng) % 8) as u8;
            let mut bytes = pristine.to_vec();
            bytes[offset] ^= 1 << bit;
            Mutant {
                bytes,
                first_corrupt: offset,
            }
        }
        CorruptionClass::Truncate => {
            let cut = (splitmix64(rng) % (len as u64 + 1)) as usize;
            Mutant {
                bytes: pristine[..cut].to_vec(),
                first_corrupt: cut,
            }
        }
        CorruptionClass::Splice => {
            let span = 1 + (splitmix64(rng) % 64) as usize;
            let src = (splitmix64(rng) % len as u64) as usize;
            let dst = (splitmix64(rng) % len as u64) as usize;
            let span = span.min(len - src).min(len - dst);
            let mut bytes = pristine.to_vec();
            bytes.copy_within(src..src + span, dst);
            Mutant {
                bytes,
                first_corrupt: dst,
            }
        }
        CorruptionClass::GarbagePrefix => {
            let count = 1 + (splitmix64(rng) % 64) as usize;
            let mut bytes = Vec::with_capacity(count + len);
            for _ in 0..count {
                bytes.push((splitmix64(rng) & 0xFF) as u8);
            }
            bytes.extend_from_slice(pristine);
            Mutant {
                bytes,
                first_corrupt: 0,
            }
        }
    }
}

/// The corruption sweep over one trace's v2 binary image.
#[derive(Debug, Clone)]
pub struct CorruptSweep {
    trace: Trace,
    pristine: Vec<u8>,
    spans: Vec<(usize, usize)>,
    limits: IngestLimits,
}

impl CorruptSweep {
    /// Prepares the pristine image of `trace`.
    ///
    /// # Errors
    ///
    /// [`ChaosError::EmptyTrace`] when the trace has no events (no frames
    /// to salvage means nothing to torture).
    pub fn new(trace: Trace) -> Result<Self, ChaosError> {
        if trace.is_empty() {
            return Err(ChaosError::EmptyTrace);
        }
        let pristine = to_binary(&trace);
        let spans = frame_spans(&pristine).expect("a freshly encoded image is well-formed");
        let limits = IngestLimits::default()
            .with_max_events(trace.len() as u64 + 16)
            .with_deadline(PER_IMAGE_DEADLINE);
        Ok(CorruptSweep {
            trace,
            pristine,
            spans,
            limits,
        })
    }
}

/// One mutant: image `image` of `class`, drawn from the seeded `rng`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptPlan {
    /// The corruption class.
    pub class: CorruptionClass,
    /// Image index within the class.
    pub image: usize,
    /// Initial mutation RNG state.
    pub rng: u64,
}

/// What the salvage reader made of one mutant.
#[derive(Debug, Clone)]
pub struct CorruptOutcome {
    /// Frames wholly before the first corrupted byte.
    floor: usize,
    /// The salvaged trace; `None` when the reader rejected the image.
    salvaged: Option<Trace>,
}

impl Sweep for CorruptSweep {
    const NAME: &'static str = "corrupt";
    const DEFAULT_SEED: u64 = 806_405;
    const DEFAULT_PLANS: usize = 500;
    type Plan = CorruptPlan;
    type Outcome = CorruptOutcome;

    fn plans(&self, seed: u64) -> Box<dyn Iterator<Item = CorruptPlan>> {
        let classes = CorruptionClass::ALL.len();
        Box::new((0..).map(move |i: usize| {
            let (class_idx, image) = (i % classes, i / classes);
            CorruptPlan {
                class: CorruptionClass::ALL[class_idx],
                image,
                rng: seed
                    .wrapping_add((class_idx as u64) << 32)
                    .wrapping_add(image as u64),
            }
        }))
    }

    fn kind(plan: &CorruptPlan) -> &'static str {
        plan.class.name()
    }

    fn run(&mut self, plan: &CorruptPlan) -> CorruptOutcome {
        let mutant = mutate(plan.class, &self.pristine, &mut plan.rng.clone());
        let floor = self
            .spans
            .iter()
            .take_while(|(_, end)| *end <= mutant.first_corrupt)
            .count();
        let salvaged = ingest_bytes(&mutant.bytes, IngestMode::Salvage, &self.limits)
            .ok()
            .map(|(trace, _)| trace);
        CorruptOutcome { floor, salvaged }
    }

    fn check(
        &self,
        plan: &CorruptPlan,
        outcome: &CorruptOutcome,
        tallies: &mut Tallies,
    ) -> Vec<SweepViolation> {
        let class = plan.class.name();
        let floor = outcome.floor;
        let empty = Trace::new();
        let salvaged = outcome.salvaged.as_ref().unwrap_or(&empty);
        for (key, n) in [
            ("images", 1),
            ("rejected", u64::from(outcome.salvaged.is_none())),
            ("floor_frames", floor as u64),
            ("salvaged_frames", salvaged.len() as u64),
            ("panics", 0),
            ("floor_violations", 0),
            ("prefix_mismatches", 0),
            ("detector_mismatches", 0),
            ("differentials", 0),
        ] {
            tallies.add(&format!("{class}.{key}"), n);
        }
        let broken = |tallies: &mut Tallies, key: &str, kind: &'static str, detail: String| {
            tallies.add(&format!("{class}.{key}"), 1);
            let detail = format!("{class} image {}: {detail}", plan.image);
            vec![SweepViolation::new(kind, detail)]
        };
        if salvaged.len() < floor {
            let detail = format!(
                "salvaged {} frames, {floor} precede the corruption",
                salvaged.len()
            );
            return broken(tallies, "floor_violations", "floor-violation", detail);
        }
        if salvaged.events()[..floor] != self.trace.events()[..floor] {
            let detail =
                format!("the clean prefix of {floor} frames differs from the pristine trace");
            return broken(tallies, "prefix_mismatches", "prefix-mismatch", detail);
        }
        if floor > 0 && (plan.image as u64).is_multiple_of(DIFFERENTIAL_STRIDE) {
            tallies.add(&format!("{class}.differentials"), 1);
            let strict = DebuggerConfig::for_model(PersistencyModel::Strict);
            let from_salvage = batch_reports(&strict, &salvaged.events()[..floor]);
            let prefix: Trace = self.trace.events()[..floor].iter().cloned().collect();
            let direct = replay_finish(&prefix, &mut PmDebugger::strict());
            if format!("{from_salvage:?}") != format!("{direct:?}") {
                let detail = format!(
                    "{} reports over the salvaged prefix, {} over the pristine one",
                    from_salvage.len(),
                    direct.len()
                );
                return broken(tallies, "detector_mismatches", "detector-mismatch", detail);
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{assert_json_keys, run_sweep, SweepOptions};
    use crate::SweepReport;
    use pm_trace::{FenceKind, PmEvent, ThreadId};

    fn sample_trace(n: u64) -> Trace {
        (0..n)
            .flat_map(|i| {
                [
                    PmEvent::Store {
                        addr: i * 64,
                        size: 8,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                    PmEvent::Fence {
                        kind: FenceKind::Sfence,
                        tid: ThreadId(0),
                        strand: None,
                        in_epoch: false,
                    },
                ]
            })
            .collect()
    }

    fn sweep(trace: Trace, plans: usize, seed: u64) -> SweepReport {
        let mut sweep = CorruptSweep::new(trace).unwrap();
        run_sweep(&mut sweep, &SweepOptions::new(plans, seed))
    }

    fn per_class(report: &SweepReport, key: &str) -> Vec<u64> {
        CorruptionClass::ALL
            .iter()
            .map(|c| report.tally(&format!("{c}.{key}")))
            .collect()
    }

    #[test]
    fn empty_trace_is_rejected() {
        let err = CorruptSweep::new(Trace::new()).unwrap_err();
        assert!(matches!(err, ChaosError::EmptyTrace));
    }

    #[test]
    fn small_sweep_holds_all_invariants() {
        let report = sweep(sample_trace(25), 80, CorruptSweep::DEFAULT_SEED);
        assert!(report.ok(), "{}", report.to_json());
        assert_eq!(report.plans_run, 80);
        assert_eq!(per_class(&report, "panics"), [0; 4]);
        assert!(report.truncations.is_empty());
        // The sweep must have exercised every class.
        assert_eq!(per_class(&report, "images"), [20; 4]);
        // Bit flips land inside frames often enough that salvage actually
        // worked for a living: some frames were recovered somewhere.
        assert!(per_class(&report, "salvaged_frames").iter().any(|&n| n > 0));
        // And the differential oracle genuinely ran.
        assert!(per_class(&report, "differentials").iter().any(|&n| n > 0));
        assert_json_keys(&report, &CorruptionClass::ALL.map(CorruptionClass::name));
    }

    #[test]
    fn sweeps_are_deterministic_for_a_seed() {
        let a = sweep(sample_trace(10), 32, 9);
        let b = sweep(sample_trace(10), 32, 9);
        assert_eq!(a.tallies, b.tallies);
        let c = sweep(sample_trace(10), 32, 10);
        // A different seed mutates different offsets; floors differ.
        assert_ne!(per_class(&a, "floor_frames"), per_class(&c, "floor_frames"));
    }
}
