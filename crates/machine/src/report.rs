//! A gem5-`stats.txt`-style textual report of a counter snapshot.
//!
//! The paper's methodology reads gem5 statistic dumps ("we gather, from
//! Gem5, the statistics on the number of executed instructions, …" §7.3.1);
//! [`format_report`] renders a [`Counters`] snapshot in the same spirit —
//! one dotted stat per line, machine- and human-greppable.

use crate::counters::Counters;
use std::fmt::Write as _;

/// Renders `counters` as a gem5-style stats listing.
///
/// # Examples
///
/// ```
/// use ctbia_machine::{report::format_report, Machine};
/// use ctbia_core::ctmem::CtMemoryExt;
///
/// let mut m = Machine::insecure();
/// let a = m.alloc(64, 64).unwrap();
/// m.store_u64(a, 1);
/// let text = format_report(&m.counters());
/// assert!(text.contains("sim.cycles"));
/// assert!(text.contains("l1d.demand_accesses"));
/// ```
pub fn format_report(counters: &Counters) -> String {
    let mut out = String::new();
    let mut stat = |name: &str, value: u64| {
        let _ = writeln!(out, "{name:<40} {value:>16}");
    };
    stat("sim.cycles", counters.cycles);
    stat("sim.insts", counters.insts);
    stat("sim.ct_loads", counters.ct_loads);
    stat("sim.ct_stores", counters.ct_stores);
    stat("l1i.refs", counters.l1i_refs());

    for (prefix, c) in [
        ("l1d", &counters.hier.l1d),
        ("l2", &counters.hier.l2),
        ("llc", &counters.hier.llc),
    ] {
        stat(&format!("{prefix}.demand_accesses"), c.accesses());
        stat(&format!("{prefix}.demand_hits"), c.hits);
        stat(&format!("{prefix}.demand_misses"), c.misses);
        stat(&format!("{prefix}.fills"), c.fills);
        stat(&format!("{prefix}.evictions"), c.evictions);
        stat(&format!("{prefix}.writebacks"), c.writebacks);
        stat(&format!("{prefix}.probes"), c.probes);
    }
    stat("dram.reads", counters.hier.dram.reads);
    stat("dram.writes", counters.hier.dram.writes);
    stat("prefetcher.fills", counters.hier.prefetch_fills);
    stat("bia.accesses", counters.bia.accesses);
    stat("bia.hits", counters.bia.hits);
    stat("bia.installs", counters.bia.installs);
    stat("bia.evictions", counters.bia.evictions);
    stat("bia.events_applied", counters.bia.events_applied);
    stat("bia.events_ignored", counters.bia.events_ignored);
    // Taint stats only when the shadow-taint layer marked or caught
    // something, so the taint-off report stays byte-identical.
    if !counters.taint.is_zero() {
        stat("taint.marked_bytes", counters.taint.marked_bytes);
        stat("taint.leak_violations", counters.taint.leak_violations);
    }
    // Speculation stats only when the bounded-speculation window was
    // open at least once (spec_window = 0 runs stay byte-identical).
    if !counters.spec.is_zero() {
        stat("spec.branches", counters.spec.branches);
        stat("spec.mispredicts", counters.spec.mispredicts);
        stat("spec.squashes", counters.spec.squashes);
        stat(
            "spec.wrong_path_accesses",
            counters.spec.wrong_path_accesses,
        );
        stat("spec.wrong_path_fills", counters.spec.wrong_path_fills);
        stat("phase.speculative_cycles", counters.phases.speculative);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{BiaPlacement, Machine};
    use ctbia_core::ctmem::{CtMemory, CtMemoryExt};

    #[test]
    fn report_lists_every_section_once() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(128, 64).unwrap();
        m.store_u64(a, 3);
        let _ = m.ct_load(a);
        let text = format_report(&m.counters());
        for needle in [
            "sim.cycles",
            "sim.ct_loads",
            "l1d.demand_accesses",
            "l2.demand_misses",
            "llc.fills",
            "dram.reads",
            "bia.installs",
        ] {
            assert_eq!(
                text.matches(needle).count(),
                1,
                "{needle} should appear exactly once:\n{text}"
            );
        }
    }

    #[test]
    fn report_values_match_counters() {
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        m.load_u64(a);
        m.load_u64(a);
        let c = m.counters();
        let text = format_report(&c);
        let line = text.lines().find(|l| l.starts_with("sim.insts")).unwrap();
        assert!(line.ends_with(&c.insts.to_string()), "{line}");
        let line = text
            .lines()
            .find(|l| l.starts_with("l1d.demand_accesses"))
            .unwrap();
        assert!(line.ends_with("2"), "{line}");
    }

    #[test]
    fn report_taint_section_appears_only_when_tainted() {
        use ctbia_core::taint::TaintLabel;
        use ctbia_core::Width;
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        m.store_u64(a, 3);
        assert!(!format_report(&m.counters()).contains("taint."));
        m.enable_taint();
        m.set_taint(a, Width::U32, TaintLabel::SECRET);
        let text = format_report(&m.counters());
        assert_eq!(text.matches("taint.marked_bytes").count(), 1);
        assert_eq!(text.matches("taint.leak_violations").count(), 1);
    }

    #[test]
    fn report_is_stable_across_identical_runs() {
        let run = || {
            let mut m = Machine::insecure();
            let a = m.alloc(4096, 64).unwrap();
            for i in 0..64 {
                m.load_u64(a.offset(i * 64));
            }
            format_report(&m.counters())
        };
        assert_eq!(run(), run());
    }
}
