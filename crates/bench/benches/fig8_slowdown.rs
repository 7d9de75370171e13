//! Figure 8 + Table 5 — PMDebugger vs Pmemcheck slowdown.
//!
//! For every Table 4 benchmark and input size, runs the workload with no
//! detector (the "original program"), with Nulgrind (instrumentation with
//! no bookkeeping), with PMDebugger and with the Pmemcheck-like baseline,
//! and prints the Figure 8 slowdown series plus the Table 5 speedups (with
//! and without instrumentation time).
//!
//! Paper shapes: PMDebugger beats Pmemcheck on every benchmark; 2.2x
//! average on micro-benchmarks (largest on hashmap_atomic, smallest on
//! hashmap_tx); 4.67x on memcached; 2.1x on redis; speedups grow when
//! instrumentation time is excluded.

use pm_bench::{banner, slowdown, time_tool, TextTable, ToolKind};
use pm_workloads::{
    BTree, CTree, HashmapAtomic, HashmapTx, Memcached, RTree, RbTree, Redis, SynthStrand, Workload,
};

fn main() {
    banner(
        "Figure 8 / Table 5 — slowdown vs Pmemcheck",
        "Figure 8a-8i, Table 5, Section 7.2",
    );

    let full = std::env::var_os("PM_BENCH_FULL").is_some();
    let micro_sizes: &[usize] = if full {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000, 30_000]
    };
    let real_sizes: &[usize] = if full {
        &[10_000, 40_000, 70_000, 100_000]
    } else {
        &[10_000, 40_000]
    };
    let repeats = 3;

    let micro: Vec<Box<dyn Workload>> = vec![
        Box::new(BTree::default()),
        Box::new(CTree::default()),
        Box::new(RTree::default()),
        Box::new(RbTree::default()),
        Box::new(HashmapTx::default()),
        Box::new(HashmapAtomic::default()),
        Box::new(SynthStrand::default()),
    ];
    let real: Vec<Box<dyn Workload>> = vec![
        Box::new(Memcached::default().with_set_percent(5)),
        Box::new(Redis::default()),
    ];

    let mut table = TextTable::new(vec![
        "benchmark",
        "ops",
        "nulgrind x",
        "pmdebugger x",
        "pmemcheck x",
        "speedup w/",
        "speedup w/o",
    ]);
    let mut speedups_with = Vec::new();
    let mut speedups_without = Vec::new();

    let mut measure = |workload: &dyn Workload, sizes: &[usize]| {
        for &ops in sizes {
            let t_plain = time_tool(workload, ops, ToolKind::Plain, repeats);
            let t_nul = time_tool(workload, ops, ToolKind::Nulgrind, repeats);
            let t_pmd = time_tool(workload, ops, ToolKind::PmDebugger, repeats);
            let t_pmc = time_tool(workload, ops, ToolKind::Pmemcheck, repeats);
            // Table 5: overall speedup, and speedup with instrumentation
            // time (the Nulgrind component) removed from both tools.
            let with_instr = t_pmc.as_secs_f64() / t_pmd.as_secs_f64().max(1e-9);
            let wo_instr = (t_pmc.saturating_sub(t_nul)).as_secs_f64()
                / (t_pmd.saturating_sub(t_nul)).as_secs_f64().max(1e-9);
            speedups_with.push(with_instr);
            speedups_without.push(wo_instr);
            table.row(vec![
                workload.name().to_owned(),
                ops.to_string(),
                format!("{:.2}", slowdown(t_nul, t_plain)),
                format!("{:.2}", slowdown(t_pmd, t_plain)),
                format!("{:.2}", slowdown(t_pmc, t_plain)),
                format!("{with_instr:.2}x"),
                format!("{wo_instr:.2}x"),
            ]);
        }
    };

    for workload in &micro {
        measure(workload.as_ref(), micro_sizes);
    }
    for workload in &real {
        measure(workload.as_ref(), real_sizes);
    }

    print!("{}", table.render());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "\naverage PMDebugger speedup over Pmemcheck: {:.2}x with instrumentation, {:.2}x without",
        avg(&speedups_with),
        avg(&speedups_without)
    );
    println!("paper: 2.2x-4.67x with instrumentation (3.4x overall average), larger without;");
    println!("       biggest win on hashmap_atomic, smallest on hashmap_tx");
}
