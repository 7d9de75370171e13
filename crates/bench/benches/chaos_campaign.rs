//! Criterion benchmarks for the crash-points and perturb sweeps:
//! crash-point throughput over a recorded workload trace (fixed and buggy
//! variants), and perturbation-oracle throughput (enumerate + fingerprint
//! + detector differential).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pm_chaos::{
    apply, perturbations, run_sweep, semantic_fingerprint, CrashPointSweep, PerturbSweep, Sweep,
    SweepOptions,
};
use pm_workloads::faults;
use pmdebugger::PersistencyModel;

fn crash_points(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_campaign");
    let opts = SweepOptions::new(64, CrashPointSweep::DEFAULT_SEED);

    for (name, trace) in [
        (
            "memcached_fixed_64_points",
            faults::memcached_cas_fixed_trace(30).unwrap(),
        ),
        (
            "memcached_bug_64_points",
            faults::memcached_cas_bug_trace(30).unwrap(),
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || CrashPointSweep::new(trace.clone(), PersistencyModel::Strict).unwrap(),
                |mut sweep| run_sweep(&mut sweep, &opts),
                BatchSize::SmallInput,
            );
        });
    }

    group.finish();
}

fn perturbation_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("perturbation_oracle");

    let trace = faults::memcached_cas_fixed_trace(12).unwrap();
    group.bench_function("enumerate_and_fingerprint", |b| {
        b.iter(|| {
            let mut semantic = 0usize;
            let base = semantic_fingerprint(&trace);
            for p in perturbations(&trace) {
                if let Some(mutated) = apply(&trace, &p) {
                    if semantic_fingerprint(&mutated) != base {
                        semantic += 1;
                    }
                }
            }
            semantic
        });
    });

    let opts = SweepOptions::new(64, PerturbSweep::DEFAULT_SEED);
    group.bench_function("perturb_64_plans", |b| {
        b.iter_batched(
            || PerturbSweep::new(trace.clone(), PersistencyModel::Strict).unwrap(),
            |mut sweep| run_sweep(&mut sweep, &opts),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = crash_points, perturbation_oracle
);
criterion_main!(benches);
