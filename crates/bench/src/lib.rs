//! Shared harness utilities for the evaluation benchmarks.
//!
//! Every bench target (one per paper table/figure, see `benches/`) drives
//! workloads from `pm-workloads` through the detectors and prints the rows
//! or series the paper reports. Absolute times differ from the paper's
//! Optane testbed — the *shapes* (who wins, by roughly what factor, where
//! outliers sit) are the reproduction target; see `EXPERIMENTS.md`.

use std::time::{Duration, Instant};

use pm_baselines::{Nulgrind, PmemcheckLike, PmtestLike, XfdetectorLike};
use pm_trace::{replay_finish, Detector, OrderSpec, PmRuntime, Trace};
use pm_workloads::Workload;
use pmdebugger::{DebuggerConfig, PersistencyModel, PmDebugger};

/// The tool configurations benchmarks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// No detector attached at all (the "original program" baseline).
    Plain,
    /// Instrumentation with no bookkeeping (Nulgrind).
    Nulgrind,
    /// PMDebugger with paper defaults for the workload's model.
    PmDebugger,
    /// Pmemcheck-architecture baseline.
    Pmemcheck,
    /// PMTest-architecture baseline.
    Pmtest,
    /// XFDetector-architecture baseline.
    Xfdetector,
}

impl ToolKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            ToolKind::Plain => "plain",
            ToolKind::Nulgrind => "nulgrind",
            ToolKind::PmDebugger => "pmdebugger",
            ToolKind::Pmemcheck => "pmemcheck",
            ToolKind::Pmtest => "pmtest",
            ToolKind::Xfdetector => "xfdetector",
        }
    }
}

/// Maps a workload's model to the debugger's persistency model.
pub fn persistency_of(workload: &dyn Workload) -> PersistencyModel {
    match workload.model() {
        pm_workloads::Model::Strict => PersistencyModel::Strict,
        pm_workloads::Model::Epoch => PersistencyModel::Epoch,
        pm_workloads::Model::Strand => PersistencyModel::Strand,
    }
}

/// Instantiates a detector for a workload (or `None` for [`ToolKind::Plain`]).
pub fn make_detector(tool: ToolKind, model: PersistencyModel) -> Option<Box<dyn Detector>> {
    match tool {
        ToolKind::Plain => None,
        ToolKind::Nulgrind => Some(Box::new(Nulgrind)),
        ToolKind::PmDebugger => Some(Box::new(PmDebugger::new(DebuggerConfig::for_model(model)))),
        ToolKind::Pmemcheck => Some(Box::new(PmemcheckLike::new())),
        ToolKind::Pmtest => Some(Box::new(PmtestLike::new())),
        ToolKind::Xfdetector => Some(Box::new(XfdetectorLike::new(OrderSpec::new()))),
    }
}

/// Runs `workload` for `ops` operations with `tool` attached and returns
/// the wall-clock duration (best of `repeats` runs; the workloads are
/// deterministic, so every run sees the identical event stream).
pub fn time_tool(workload: &dyn Workload, ops: usize, tool: ToolKind, repeats: usize) -> Duration {
    let model = persistency_of(workload);
    let mut best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let mut rt = PmRuntime::trace_only();
        if let Some(detector) = make_detector(tool, model) {
            rt.attach(detector);
        }
        let start = Instant::now();
        workload.run(&mut rt, ops).expect("trace-only run");
        let _ = rt.finish();
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
    }
    best
}

/// Times one detector over a pre-recorded trace (best of `repeats`).
pub fn time_trace<F: Fn() -> Box<dyn Detector>>(
    trace: &Trace,
    factory: F,
    repeats: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let mut detector = factory();
        let start = Instant::now();
        let _ = replay_finish(trace, detector.as_mut());
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
    }
    best
}

/// Slowdown of `tool_time` relative to `base_time` (paper Figure 8's
/// normalization: detector time / original-program time).
pub fn slowdown(tool_time: Duration, base_time: Duration) -> f64 {
    let base = base_time.as_secs_f64().max(1e-9);
    tool_time.as_secs_f64() / base
}

/// A minimal fixed-width table printer for bench output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with per-column widths.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Standard banner for bench outputs.
pub fn banner(title: &str, paper_ref: &str) {
    println!("\n==== {title} ====");
    println!("reproduces: {paper_ref}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_workloads::BTree;

    #[test]
    fn timing_produces_positive_durations() {
        let workload = BTree::default();
        let t = time_tool(&workload, 50, ToolKind::PmDebugger, 1);
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn slowdown_is_ratio() {
        let s = slowdown(Duration::from_millis(30), Duration::from_millis(10));
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let mut table = TextTable::new(vec!["name", "x"]);
        table.row(vec!["a", "1.0"]);
        table.row(vec!["longer", "2.5"]);
        let text = table.render();
        assert!(text.contains("longer"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn detectors_instantiate_for_all_kinds() {
        for kind in [
            ToolKind::Nulgrind,
            ToolKind::PmDebugger,
            ToolKind::Pmemcheck,
            ToolKind::Pmtest,
            ToolKind::Xfdetector,
        ] {
            assert!(make_detector(kind, PersistencyModel::Epoch).is_some());
        }
        assert!(make_detector(ToolKind::Plain, PersistencyModel::Epoch).is_none());
    }
}
