//! Cycle-attribution phases and linearization aggregates.
//!
//! The profiler buckets **every** simulated cycle into exactly one
//! [`Phase`]. The invariant enforced by the test suite is exact:
//! [`PhaseCycles::total`] equals the machine's cycle counter, for any
//! measured region, under any strategy. There is no "other" bucket — a
//! cycle the machine cannot attribute is a bug, not a rounding error.

use std::ops::Sub;

/// A named bucket for cycle attribution.
///
/// Each simulated cycle is charged to exactly one phase at the moment the
/// machine advances the clock, so phase totals reconcile exactly with the
/// cycle counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Straight-line instruction execution (`cycles_per_inst` charges).
    Compute,
    /// Cache-service time of ordinary demand loads/stores (the portion not
    /// stalled on DRAM).
    DemandAccess,
    /// Cache-service time of dataflow-set streaming accesses issued by a
    /// linearization sweep (Algorithms 2 & 3), DRAM stall excluded.
    LinearizeSweep,
    /// `CTLoad`/`CTStore` micro-operation time: the cache probe and the
    /// BIA lookup that answer with the existence/dirtiness bitmap.
    BiaMaintenance,
    /// Cycles spent stalled on a DRAM access (row buffer + array time).
    DramStall,
    /// Always zero: the machine no longer has a degraded mode. The phase
    /// stays so the cell text and metrics documents keep their field set
    /// until the next cell-schema change removes it.
    Degraded,
    /// Wrong-path execution after a branch misprediction: cache-service
    /// time (DRAM stall included) of transient demand accesses that are
    /// architecturally squashed but leave the hierarchy warmed. Always
    /// zero when the speculation window is 0.
    Speculative,
}

impl Phase {
    /// All phases, in canonical (serialization) order.
    pub const ALL: [Phase; 7] = [
        Phase::Compute,
        Phase::DemandAccess,
        Phase::LinearizeSweep,
        Phase::BiaMaintenance,
        Phase::DramStall,
        Phase::Degraded,
        Phase::Speculative,
    ];

    /// Stable snake_case name used in JSON documents and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::DemandAccess => "demand_access",
            Phase::LinearizeSweep => "linearize_sweep",
            Phase::BiaMaintenance => "bia_maintenance",
            Phase::DramStall => "dram_stall",
            Phase::Degraded => "degraded",
            Phase::Speculative => "speculative",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-phase cycle totals. Embedded in the machine's counter snapshot so
/// that region deltas (`Machine::measure`) subtract phases alongside the
/// cycle counter and the sum-to-total invariant holds on any delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Cycles attributed to [`Phase::Compute`].
    pub compute: u64,
    /// Cycles attributed to [`Phase::DemandAccess`].
    pub demand_access: u64,
    /// Cycles attributed to [`Phase::LinearizeSweep`].
    pub linearize_sweep: u64,
    /// Cycles attributed to [`Phase::BiaMaintenance`].
    pub bia_maintenance: u64,
    /// Cycles attributed to [`Phase::DramStall`].
    pub dram_stall: u64,
    /// Cycles attributed to [`Phase::Degraded`].
    pub degraded: u64,
    /// Cycles attributed to [`Phase::Speculative`].
    pub speculative: u64,
}

impl PhaseCycles {
    /// Charge `n` cycles to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, n: u64) {
        *self.slot(phase) += n;
    }

    /// Cycles charged to `phase` so far.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Compute => self.compute,
            Phase::DemandAccess => self.demand_access,
            Phase::LinearizeSweep => self.linearize_sweep,
            Phase::BiaMaintenance => self.bia_maintenance,
            Phase::DramStall => self.dram_stall,
            Phase::Degraded => self.degraded,
            Phase::Speculative => self.speculative,
        }
    }

    fn slot(&mut self, phase: Phase) -> &mut u64 {
        match phase {
            Phase::Compute => &mut self.compute,
            Phase::DemandAccess => &mut self.demand_access,
            Phase::LinearizeSweep => &mut self.linearize_sweep,
            Phase::BiaMaintenance => &mut self.bia_maintenance,
            Phase::DramStall => &mut self.dram_stall,
            Phase::Degraded => &mut self.degraded,
            Phase::Speculative => &mut self.speculative,
        }
    }

    /// Sum over all phases. Must equal the machine's cycle counter.
    pub fn total(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// True when no cycles have been attributed (display gating).
    pub fn is_zero(&self) -> bool {
        *self == PhaseCycles::default()
    }
}

impl Sub for PhaseCycles {
    type Output = PhaseCycles;

    fn sub(self, rhs: PhaseCycles) -> PhaseCycles {
        PhaseCycles {
            compute: self.compute - rhs.compute,
            demand_access: self.demand_access - rhs.demand_access,
            linearize_sweep: self.linearize_sweep - rhs.linearize_sweep,
            bia_maintenance: self.bia_maintenance - rhs.bia_maintenance,
            dram_stall: self.dram_stall - rhs.dram_stall,
            degraded: self.degraded - rhs.degraded,
            speculative: self.speculative - rhs.speculative,
        }
    }
}

impl std::fmt::Display for PhaseCycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "compute={} demand={} linearize={} bia={} dram_stall={} degraded={} speculative={}",
            self.compute,
            self.demand_access,
            self.linearize_sweep,
            self.bia_maintenance,
            self.dram_stall,
            self.degraded,
            self.speculative
        )
    }
}

/// Aggregate linearization-pass statistics (Algorithms 2 & 3).
///
/// A *pass* is one sweep decision over a dataflow group: the BIA answers
/// with the existence/dirtiness bitmap and the algorithm fetches exactly
/// the lines the bitmap says are missing, skipping the rest. The software
/// fallback (`FullLinearize`) skips nothing by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearizeStats {
    /// Linearization passes executed (one per group per CT operation for
    /// BIA strategies; one per CT operation for the software fallback).
    pub passes: u64,
    /// Dataflow-set lines the bitmap allowed the pass to skip.
    pub lines_skipped: u64,
    /// Dataflow-set lines the pass actually streamed in.
    pub lines_fetched: u64,
}

impl LinearizeStats {
    /// True when no pass has run (display gating).
    pub fn is_zero(&self) -> bool {
        *self == LinearizeStats::default()
    }
}

impl Sub for LinearizeStats {
    type Output = LinearizeStats;

    fn sub(self, rhs: LinearizeStats) -> LinearizeStats {
        LinearizeStats {
            passes: self.passes - rhs.passes,
            lines_skipped: self.lines_skipped - rhs.lines_skipped,
            lines_fetched: self.lines_fetched - rhs.lines_fetched,
        }
    }
}

impl std::fmt::Display for LinearizeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "passes={} skipped={} fetched={}",
            self.passes, self.lines_skipped, self.lines_fetched
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_and_subtract_fieldwise() {
        let mut p = PhaseCycles::default();
        for (i, &ph) in Phase::ALL.iter().enumerate() {
            p.add(ph, (i + 1) as u64);
        }
        assert_eq!(p.total(), 28);
        let mut q = p;
        q.add(Phase::DramStall, 10);
        let d = q - p;
        assert_eq!(d.dram_stall, 10);
        assert_eq!(d.total(), 10);
        assert_eq!(d.get(Phase::Compute), 0);
    }

    #[test]
    fn phase_names_are_unique_and_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(Phase::Compute.name(), "compute");
        assert_eq!(Phase::Degraded.to_string(), "degraded");
    }

    #[test]
    fn linearize_stats_subtract_and_gate() {
        let a = LinearizeStats {
            passes: 3,
            lines_skipped: 10,
            lines_fetched: 2,
        };
        let b = LinearizeStats {
            passes: 1,
            lines_skipped: 4,
            lines_fetched: 1,
        };
        let d = a - b;
        assert_eq!(d.passes, 2);
        assert_eq!(d.lines_skipped, 6);
        assert_eq!(d.lines_fetched, 1);
        assert!(!d.is_zero());
        assert!(LinearizeStats::default().is_zero());
        assert_eq!(a.to_string(), "passes=3 skipped=10 fetched=2");
    }
}
