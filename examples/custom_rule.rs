//! Writing a custom detection rule — the paper's flexibility claim.
//!
//! PMDebugger's hierarchical design separates bookkeeping from rules, so
//! new rules plug into the same event stream and bookkeeping state. This
//! example uses two of the bundled extra rules and defines a third inline:
//! a "publish before init" heuristic that fires when a small (pointer-
//! sized) store becomes durable while larger, earlier stores are still
//! volatile — the classic ordering smell of publishing an object before
//! its contents.
//!
//! Run with: `cargo run --example custom_rule`

use pm_trace::{BugKind, BugReport, PmEventRef, PmRuntime};
use pmdebugger::{CustomRule, EpochSizeRule, FlushAmplificationRule, PmDebugger, SpaceView};
use pmem_sim::FlushKind;

struct PublishBeforeInit {
    /// Sizes of stores seen since the last fence, newest last.
    pending_sizes: Vec<(u64, u32)>,
}

impl CustomRule for PublishBeforeInit {
    fn name(&self) -> &str {
        "publish-before-init"
    }

    fn on_event(
        &mut self,
        seq: u64,
        event: &PmEventRef<'_>,
        view: &SpaceView<'_>,
    ) -> Vec<BugReport> {
        match event {
            PmEventRef::Store { addr, size, .. } => {
                self.pending_sizes.push((*addr, *size));
                Vec::new()
            }
            PmEventRef::Fence { .. } => {
                // A pointer-sized store published while a big earlier store
                // is still tracked as volatile?
                let mut reports = Vec::new();
                if let Some((ptr_addr, 8)) = self.pending_sizes.last().copied() {
                    for (addr, size) in self.pending_sizes.iter().rev().skip(1) {
                        if *size >= 64 && view.is_tracked(*addr, u64::from(*size)) {
                            reports.push(
                                BugReport::new(
                                    BugKind::NoOrderGuarantee,
                                    format!(
                                        "pointer at {ptr_addr:#x} persists while its \
                                         {size}-byte object at {addr:#x} is still volatile"
                                    ),
                                )
                                .with_event(seq),
                            );
                            break;
                        }
                    }
                }
                self.pending_sizes.clear();
                reports
            }
            _ => Vec::new(),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut debugger = PmDebugger::strict();
    debugger.add_custom_rule(Box::new(EpochSizeRule::new(64)));
    debugger.add_custom_rule(Box::new(FlushAmplificationRule::new(8)));
    debugger.add_custom_rule(Box::new(PublishBeforeInit {
        pending_sizes: Vec::new(),
    }));

    let mut rt = PmRuntime::with_pool(8192)?;
    rt.attach(Box::new(debugger));

    // The smell: write a 128-byte object, then publish a pointer to it and
    // persist ONLY the pointer.
    rt.store(0, &[0xAB; 128])?; // object contents (never flushed!)
    rt.store(4096, &0u64.to_le_bytes())?; // the pointer
    rt.flush_range(FlushKind::Clwb, 4096, 8)?;
    rt.sfence();

    let reports = rt.finish();
    println!("custom + built-in rules report:");
    for report in &reports {
        println!("  {report}");
    }
    assert!(reports.iter().any(|r| r.message.contains("still volatile")));
    assert!(reports
        .iter()
        .any(|r| r.kind == BugKind::NoDurabilityGuarantee));
    Ok(())
}
