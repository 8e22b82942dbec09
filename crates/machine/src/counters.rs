//! Machine-level counter snapshots.
//!
//! A [`Counters`] value is a full snapshot of everything the paper's
//! evaluation reports: cycles (Figures 2, 7, 9), instruction counts and
//! icache/dcache/DRAM references (Figure 8, §3.1 table), and the BIA's own
//! statistics. Snapshots subtract, so measuring a region is
//! `after - before` — or use `Machine::measure`.

use ctbia_core::bia::BiaStats;
use ctbia_sim::stats::HierarchyStats;
use ctbia_trace::{LinearizeStats, PhaseCycles};
use std::fmt;
use std::ops::Sub;

/// The cell text's robustness counters. The machine has no degraded mode
/// and no fault or audit layer, so every field is always zero; the struct
/// stays because the `ctbia-cell-v3` cache text and the metrics documents
/// carry these fields until the next cell-schema change removes them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Cell-text field `robust.audit_batches`.
    pub audit_batches: u64,
    /// Cell-text field `robust.audit_violations`.
    pub audit_violations: u64,
    /// Cell-text field `robust.inline_desyncs`.
    pub inline_desyncs: u64,
    /// Cell-text field `robust.downgrades`.
    pub downgrades: u64,
    /// Cell-text field `robust.degraded_ct_ops`.
    pub degraded_ct_ops: u64,
    /// Cell-text field `robust.resyncs`.
    pub resyncs: u64,
    /// Cell-text field `robust.faults_injected`.
    pub faults_injected: u64,
}

/// Shadow-taint counters. All zero when the taint layer is disabled,
/// so pre-existing reports and cache entries are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaintStats {
    /// Bytes currently labelled secret in the shadow taint map.
    pub marked_bytes: u64,
    /// Leak violations reported against this machine (secrets reaching
    /// raw addresses, native branches, or loop trip counts).
    pub leak_violations: u64,
}

impl Sub for TaintStats {
    type Output = TaintStats;

    fn sub(self, rhs: TaintStats) -> TaintStats {
        TaintStats {
            // `marked_bytes` is a level, not a monotone count; clamp so
            // region measurement around an untaint never underflows.
            marked_bytes: self.marked_bytes.saturating_sub(rhs.marked_bytes),
            leak_violations: self.leak_violations - rhs.leak_violations,
        }
    }
}

impl TaintStats {
    /// True when the taint layer never marked or caught anything.
    pub fn is_zero(&self) -> bool {
        *self == TaintStats::default()
    }
}

impl fmt::Display for TaintStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "marked bytes {}, leak violations {}",
            self.marked_bytes, self.leak_violations
        )
    }
}

/// Bounded-speculation counters. All zero when the speculation window
/// is 0, so pre-existing reports and cache entries are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Conditional branches seen by the predictor.
    pub branches: u64,
    /// Branches the seeded predictor got wrong.
    pub mispredicts: u64,
    /// Wrong-path windows squashed (one per misprediction).
    pub squashes: u64,
    /// Wrong-path demand accesses that reached the hierarchy.
    pub wrong_path_accesses: u64,
    /// Wrong-path accesses that filled a line (missed the nearest level)
    /// — the transient state that persists past the squash.
    pub wrong_path_fills: u64,
}

impl Sub for SpecStats {
    type Output = SpecStats;

    fn sub(self, rhs: SpecStats) -> SpecStats {
        SpecStats {
            branches: self.branches - rhs.branches,
            mispredicts: self.mispredicts - rhs.mispredicts,
            squashes: self.squashes - rhs.squashes,
            wrong_path_accesses: self.wrong_path_accesses - rhs.wrong_path_accesses,
            wrong_path_fills: self.wrong_path_fills - rhs.wrong_path_fills,
        }
    }
}

impl SpecStats {
    /// True when speculation never ran (window 0 or no branches hooked).
    pub fn is_zero(&self) -> bool {
        *self == SpecStats::default()
    }
}

impl fmt::Display for SpecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "branches {}, mispredicts {}, squashes {}, wrong-path accesses {}, wrong-path fills {}",
            self.branches,
            self.mispredicts,
            self.squashes,
            self.wrong_path_accesses,
            self.wrong_path_fills
        )
    }
}

/// A snapshot of every machine counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions executed (memory + bookkeeping). Each instruction is
    /// one L1i reference under the machine's instruction-fetch model.
    pub insts: u64,
    /// `CTLoad` micro-operations executed.
    pub ct_loads: u64,
    /// `CTStore` micro-operations executed.
    pub ct_stores: u64,
    /// Per-phase cycle attribution. Always sums exactly to `cycles`:
    /// every cycle charge names its phase, and region deltas subtract
    /// phases alongside the cycle counter.
    pub phases: PhaseCycles,
    /// Linearization-pass aggregates (passes, skipped and fetched lines).
    pub linearize: LinearizeStats,
    /// Full hierarchy statistics.
    pub hier: HierarchyStats,
    /// BIA statistics (all zero when no BIA is configured).
    pub bia: BiaStats,
    /// Always zero (see [`RobustnessStats`]).
    pub robust: RobustnessStats,
    /// Shadow-taint statistics (all zero when the taint layer is
    /// disabled).
    pub taint: TaintStats,
    /// Bounded-speculation statistics (all zero when the speculation
    /// window is 0).
    pub spec: SpecStats,
}

impl Counters {
    /// L1 instruction-cache references: one per instruction (the machine's
    /// analytic fetch model; see `ctbia-machine` crate docs).
    pub fn l1i_refs(&self) -> u64 {
        self.insts
    }

    /// L1 data-cache demand references.
    pub fn l1d_refs(&self) -> u64 {
        self.hier.l1d.accesses()
    }

    /// Last-level-cache misses (the §3.1 table's "LL misses").
    pub fn llc_misses(&self) -> u64 {
        self.hier.llc.misses
    }

    /// DRAM accesses (reads + write-backs).
    pub fn dram_accesses(&self) -> u64 {
        self.hier.dram.accesses()
    }
}

impl Sub for Counters {
    type Output = Counters;

    fn sub(self, rhs: Counters) -> Counters {
        Counters {
            cycles: self.cycles - rhs.cycles,
            insts: self.insts - rhs.insts,
            ct_loads: self.ct_loads - rhs.ct_loads,
            ct_stores: self.ct_stores - rhs.ct_stores,
            phases: self.phases - rhs.phases,
            linearize: self.linearize - rhs.linearize,
            hier: self.hier - rhs.hier,
            bia: BiaStats {
                accesses: self.bia.accesses - rhs.bia.accesses,
                hits: self.bia.hits - rhs.bia.hits,
                installs: self.bia.installs - rhs.bia.installs,
                evictions: self.bia.evictions - rhs.bia.evictions,
                events_applied: self.bia.events_applied - rhs.bia.events_applied,
                events_ignored: self.bia.events_ignored - rhs.bia.events_ignored,
            },
            robust: RobustnessStats::default(),
            taint: self.taint - rhs.taint,
            spec: self.spec - rhs.spec,
        }
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles {}, insts {} (CTLoad {}, CTStore {})",
            self.cycles, self.insts, self.ct_loads, self.ct_stores
        )?;
        writeln!(f, "{}", self.hier)?;
        write!(f, "BIA:  {}", self.bia)?;
        if !self.phases.is_zero() {
            write!(f, "\nPhases: {}", self.phases)?;
        }
        if !self.linearize.is_zero() {
            write!(f, "\nLinearize: {}", self.linearize)?;
        }
        if !self.taint.is_zero() {
            write!(f, "\nTaint: {}", self.taint)?;
        }
        if !self.spec.is_zero() {
            write!(f, "\nSpec: {}", self.spec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn helpers_read_through() {
        let mut c = Counters::default();
        c.insts = 10;
        c.hier.l1d.reads = 4;
        c.hier.l1d.writes = 2;
        c.hier.llc.misses = 3;
        c.hier.dram.reads = 3;
        c.hier.dram.writes = 1;
        assert_eq!(c.l1i_refs(), 10);
        assert_eq!(c.l1d_refs(), 6);
        assert_eq!(c.llc_misses(), 3);
        assert_eq!(c.dram_accesses(), 4);
    }

    #[test]
    fn subtraction_is_fieldwise() {
        let mut a = Counters::default();
        a.cycles = 100;
        a.insts = 50;
        a.ct_loads = 5;
        a.bia.accesses = 7;
        let mut b = Counters::default();
        b.cycles = 40;
        b.insts = 20;
        b.ct_loads = 2;
        b.bia.accesses = 3;
        let d = a - b;
        assert_eq!(d.cycles, 60);
        assert_eq!(d.insts, 30);
        assert_eq!(d.ct_loads, 3);
        assert_eq!(d.bia.accesses, 4);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = Counters::default().to_string();
        assert!(s.contains("cycles") && s.contains("BIA"));
    }

    #[test]
    fn phase_and_linearize_stats_subtract_and_gate_display() {
        use ctbia_trace::Phase;
        let mut a = Counters::default();
        a.cycles = 100;
        a.phases.add(Phase::Compute, 60);
        a.phases.add(Phase::DramStall, 40);
        a.linearize.passes = 3;
        a.linearize.lines_fetched = 12;
        let mut b = Counters::default();
        b.cycles = 30;
        b.phases.add(Phase::Compute, 30);
        b.linearize.passes = 1;
        b.linearize.lines_fetched = 5;
        let d = a - b;
        assert_eq!(d.phases.get(Phase::Compute), 30);
        assert_eq!(d.phases.get(Phase::DramStall), 40);
        assert_eq!(d.phases.total(), d.cycles);
        assert_eq!(d.linearize.passes, 2);
        assert_eq!(d.linearize.lines_fetched, 7);
        // The counters display stays byte-identical when tracing never ran.
        let zero = Counters::default().to_string();
        assert!(!zero.contains("Phases") && !zero.contains("Linearize"));
        let s = a.to_string();
        assert!(s.contains("Phases") && s.contains("Linearize") && s.contains("passes=3"));
    }

    #[test]
    fn spec_stats_subtract_and_gate_display() {
        let mut a = SpecStats::default();
        a.branches = 12;
        a.mispredicts = 3;
        a.squashes = 3;
        a.wrong_path_accesses = 9;
        a.wrong_path_fills = 4;
        let mut b = SpecStats::default();
        b.branches = 5;
        b.mispredicts = 1;
        b.squashes = 1;
        let d = a - b;
        assert_eq!(d.branches, 7);
        assert_eq!(d.mispredicts, 2);
        assert_eq!(d.wrong_path_fills, 4);
        assert!(SpecStats::default().is_zero());
        // The counters display stays byte-identical when speculation is off.
        assert!(!Counters::default().to_string().contains("Spec"));
        let mut c = Counters::default();
        c.spec = a;
        let s = c.to_string();
        assert!(s.contains("Spec") && s.contains("mispredicts 3"));
    }

    #[test]
    fn taint_stats_subtract_and_gate_display() {
        let mut a = TaintStats::default();
        a.marked_bytes = 128;
        a.leak_violations = 3;
        let mut b = TaintStats::default();
        b.marked_bytes = 200; // level can shrink between snapshots
        b.leak_violations = 1;
        let d = a - b;
        assert_eq!(d.marked_bytes, 0);
        assert_eq!(d.leak_violations, 2);
        assert!(TaintStats::default().is_zero());
        assert!(!Counters::default().to_string().contains("Taint"));
        let mut c = Counters::default();
        c.taint = a;
        let s = c.to_string();
        assert!(s.contains("Taint") && s.contains("leak violations 3"));
    }
}
