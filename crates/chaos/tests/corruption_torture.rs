//! Acceptance sweep for the corruption-torture harness: at least 500
//! mutated images across all four corruption classes, with zero panics,
//! zero hangs (every image bounded by the per-image deadline), a perfect
//! salvage floor — every frame preceding the first corrupted byte
//! recovered — and detector reports over the salvaged clean prefix
//! identical to replaying that prefix directly.

use std::time::Duration;

use pm_chaos::{run_sweep, CorruptSweep, CorruptionClass, Sweep, SweepOptions, SweepReport};
use pm_trace::Trace;
use pm_workloads::{record_trace, BTree, HashmapAtomic};

fn sweep(trace: Trace, plans: usize, seed: u64, wall_clock: Option<Duration>) -> SweepReport {
    let opts = SweepOptions {
        wall_clock,
        ..SweepOptions::new(plans, seed)
    };
    run_sweep(&mut CorruptSweep::new(trace).unwrap(), &opts)
}

/// CI-seed `(floor_frames, salvaged_frames)` per class, in
/// [`CorruptionClass::ALL`] order, for the two CI fixture traces
/// (`record_trace(BTree, 96)` and `(HashmapAtomic, 48)` are byte-identical
/// to `tests/fixtures/btree_96.pmt2` and `hashmap_atomic_48.trace`). Any
/// change in what salvage recovers moves these.
const CI_TALLIES: [(&str, [(u64, u64); 4]); 2] = [
    (
        "btree_96",
        [
            (203_716, 369_125),
            (177_285, 177_285),
            (167_898, 369_042),
            (0, 369_250),
        ],
    ),
    (
        "hashmap_atomic_48",
        [
            (22_257, 48_250),
            (23_895, 23_895),
            (22_221, 48_160),
            (0, 48_375),
        ],
    ),
];

#[test]
fn five_hundred_images_uphold_every_invariant() {
    let traces = [
        record_trace(&BTree::default(), 96),
        record_trace(&HashmapAtomic::default(), 48),
    ];
    for (trace, (name, pinned)) in traces.into_iter().zip(CI_TALLIES) {
        let report = sweep(trace, 500, CorruptSweep::DEFAULT_SEED, None);
        assert_eq!(
            report.plans_run, 500,
            "{name}: 125 images per class across 4 classes"
        );
        assert!(report.ok(), "{name}: {}", report.to_json());
        assert!(
            report.truncations.is_empty(),
            "{name}: sweep must finish inside the default budget: {:?}",
            report.truncations
        );
        for (class, (floor, salvaged)) in CorruptionClass::ALL.into_iter().zip(pinned) {
            let tally = |key: &str| report.tally(&format!("{class}.{key}"));
            assert_eq!(tally("images"), 125, "{name} {class} ran every image");
            assert_eq!(tally("panics"), 0, "{}", report.to_json());
            assert_eq!(
                tally("floor_violations"),
                0,
                "{name} {class} lost pre-corruption frames"
            );
            assert_eq!(
                tally("prefix_mismatches"),
                0,
                "{name} {class} altered salvaged events"
            );
            assert_eq!(
                tally("detector_mismatches"),
                0,
                "{name} {class} detector differential"
            );
            assert_eq!(
                (tally("floor_frames"), tally("salvaged_frames")),
                (floor, salvaged),
                "{name} {class} floor/salvaged frames"
            );
            // The detector differential actually exercised something on
            // every class that keeps a non-empty clean prefix.
            let differentials = if class == CorruptionClass::GarbagePrefix {
                0
            } else {
                25
            };
            assert_eq!(
                tally("differentials"),
                differentials,
                "{name} {class} differentials"
            );
        }
    }
}

#[test]
fn torture_is_deterministic_per_seed_and_workload() {
    let trace = record_trace(&HashmapAtomic::default(), 48);
    let a = sweep(trace.clone(), 100, 0xDEAD_BEEF, None);
    let b = sweep(trace, 100, 0xDEAD_BEEF, None);
    assert_eq!(a.tallies, b.tallies);
    assert_eq!(a.plans_run, 100);
    assert!(a.ok(), "{}", a.to_json());
}

#[test]
fn starved_wall_clock_truncates_instead_of_hanging() {
    let trace = record_trace(&BTree::default(), 64);
    let report = sweep(trace, 500, 1, Some(Duration::from_millis(0)));
    assert!(
        !report.truncations.is_empty(),
        "zero wall clock must surface a truncation marker"
    );
    assert!(
        report.plans_run < 500,
        "starved sweep stops early, got {}",
        report.plans_run
    );
    assert!(report.ok(), "partial results stay violation-free");
}

#[test]
fn every_class_is_reachable_by_name() {
    let names: Vec<&str> = CorruptionClass::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(
        names,
        ["bit_flip", "truncate", "splice", "garbage_prefix"],
        "stable names feed the CI gate and the JSON report"
    );
}
