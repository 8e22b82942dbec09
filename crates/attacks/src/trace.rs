//! Demand-trace analysis utilities.
//!
//! The machine's demand trace (operation kind + cache line per access) is
//! the strictest attacker-visible observation this simulator offers; the
//! helpers here summarize traces, locate the first divergence between two
//! runs, and pretty-print the neighbourhood of a divergence — the tools
//! one actually needs when a constant-time transformation is *not* quite
//! constant and the equality assertion alone says only "they differ".

use ctbia_machine::{MemOp, TraceEvent};
use std::collections::BTreeSet;
use std::fmt;

/// Aggregate statistics of one demand trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Regular demand loads.
    pub loads: u64,
    /// Regular demand stores.
    pub stores: u64,
    /// Dataflow-set loads.
    pub ds_loads: u64,
    /// Dataflow-set stores.
    pub ds_stores: u64,
    /// Cache-bypassing DRAM operations.
    pub dram_ops: u64,
    /// Distinct cache lines touched.
    pub unique_lines: u64,
}

impl TraceSummary {
    /// Total demand operations.
    pub fn total(&self) -> u64 {
        self.loads + self.stores + self.ds_loads + self.ds_stores + self.dram_ops
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops (loads {}, stores {}, ds loads {}, ds stores {}, dram {}) over {} lines",
            self.total(),
            self.loads,
            self.stores,
            self.ds_loads,
            self.ds_stores,
            self.dram_ops,
            self.unique_lines,
        )
    }
}

/// Summarizes a trace.
pub fn summarize(trace: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    let mut lines = BTreeSet::new();
    for ev in trace {
        match ev.op {
            MemOp::Load => s.loads += 1,
            MemOp::Store => s.stores += 1,
            MemOp::DsLoad => s.ds_loads += 1,
            MemOp::DsStore => s.ds_stores += 1,
            MemOp::DramLoad | MemOp::DramStore => s.dram_ops += 1,
        }
        lines.insert(ev.line);
    }
    s.unique_lines = lines.len() as u64;
    s
}

/// Index of the first position where two traces differ (including a length
/// mismatch at the shorter trace's end); `None` if identical.
pub fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<usize> {
    let shared = a.len().min(b.len());
    (0..shared).find(|&i| a[i] != b[i]).or({
        if a.len() != b.len() {
            Some(shared)
        } else {
            None
        }
    })
}

/// A human-readable report of the first divergence between two traces,
/// with `context` events on either side. Returns `None` when the traces
/// are identical.
pub fn divergence_report(a: &[TraceEvent], b: &[TraceEvent], context: usize) -> Option<String> {
    let at = first_divergence(a, b)?;
    let start = at.saturating_sub(context);
    let mut out = format!(
        "traces diverge at event {at} (lengths {} vs {})\n",
        a.len(),
        b.len()
    );
    for i in start..(at + context + 1) {
        let fmt_ev = |t: &[TraceEvent]| {
            t.get(i)
                .map(|e| format!("{:?} {}", e.op, e.line))
                .unwrap_or_else(|| "—".into())
        };
        let marker = if i == at { ">>" } else { "  " };
        out.push_str(&format!(
            "{marker} [{i:>5}] {:<28} | {}\n",
            fmt_ev(a),
            fmt_ev(b)
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_sim::addr::LineAddr;

    fn ev(op: MemOp, line: u64) -> TraceEvent {
        TraceEvent {
            op,
            line: LineAddr::new(line),
        }
    }

    #[test]
    fn summary_counts_by_kind_and_line() {
        let t = vec![
            ev(MemOp::Load, 1),
            ev(MemOp::Load, 1),
            ev(MemOp::Store, 2),
            ev(MemOp::DsLoad, 3),
            ev(MemOp::DsStore, 3),
            ev(MemOp::DramLoad, 4),
        ];
        let s = summarize(&t);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.ds_loads, 1);
        assert_eq!(s.ds_stores, 1);
        assert_eq!(s.dram_ops, 1);
        assert_eq!(s.unique_lines, 4);
        assert_eq!(s.total(), 6);
        assert!(s.to_string().contains("6 ops"));
    }

    #[test]
    fn divergence_detection() {
        let a = vec![ev(MemOp::Load, 1), ev(MemOp::Load, 2)];
        let b = vec![ev(MemOp::Load, 1), ev(MemOp::Load, 3)];
        assert_eq!(first_divergence(&a, &b), Some(1));
        assert_eq!(first_divergence(&a, &a), None);
        // Prefix relation: diverges at the shorter length.
        let c = vec![ev(MemOp::Load, 1)];
        assert_eq!(first_divergence(&a, &c), Some(1));
        assert_eq!(first_divergence(&[], &[]), None);
    }

    #[test]
    fn report_marks_the_divergent_event() {
        let a = vec![ev(MemOp::Load, 1), ev(MemOp::Load, 2), ev(MemOp::Load, 5)];
        let b = vec![ev(MemOp::Load, 1), ev(MemOp::Load, 9), ev(MemOp::Load, 5)];
        let r = divergence_report(&a, &b, 1).unwrap();
        assert!(r.contains(">> [    1]"), "{r}");
        assert!(r.contains("line 0x2") && r.contains("line 0x9"), "{r}");
        assert!(divergence_report(&a, &a, 1).is_none());
    }

    #[test]
    fn report_handles_length_mismatch() {
        let a = vec![ev(MemOp::Load, 1)];
        let b = vec![ev(MemOp::Load, 1), ev(MemOp::Store, 2)];
        let r = divergence_report(&a, &b, 0).unwrap();
        assert!(r.contains("lengths 1 vs 2"), "{r}");
        assert!(r.contains("—"), "missing side shown as dash: {r}");
    }

    #[test]
    fn end_to_end_with_machine_traces() {
        use ctbia_core::ctmem::CtMemoryExt;
        use ctbia_machine::Machine;
        let mut m = Machine::insecure();
        let x = m.alloc(64, 64).unwrap();
        m.enable_trace();
        m.load_u64(x);
        m.store_u64(x, 1);
        let t = m.take_trace();
        let s = summarize(&t);
        assert_eq!((s.loads, s.stores, s.unique_lines), (1, 1, 1));
    }
}
