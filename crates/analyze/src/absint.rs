//! CacheAudit-style abstract interpretation of an access program.
//!
//! Replays the [`AccessProgram`] against the simulator's
//! [`AbstractCache`] — the interval/age abstraction of the level the
//! cell's BIA monitors ([`MachineConfig::monitored_cache`]) — and
//! counts the *observable distinctions* a cache-line attacker could
//! draw between two executions with different secrets. The sum, in
//! bits, is an upper bound on the leakage of one extracted trace:
//!
//! * a public access touches its line exactly (no uncertainty, no
//!   leakage);
//! * a symbolic access contributes `log2(candidates)` bits — the
//!   attacker may learn which candidate line was touched — and widens
//!   the abstract state over all candidates;
//! * a linearized sweep (software CT, or a BIA `CTLoad`/`CTStore`
//!   modeled page-group by page-group) touches every DS line in a
//!   secret-independent order: zero bits, *unless* a swept line's
//!   abstract residency is itself secret-tainted, in which case the
//!   BIA's skip-if-resident behavior makes the fetchset — and therefore
//!   the observable refill traffic — secret-dependent (1 bit per such
//!   line, and the paper's reason CT-ops must start from secret-free
//!   residency).
//!
//! A bound of exactly **0 bits** certifies the cell: no reachable
//! abstract state lets the attacker distinguish secrets through the
//! monitored cache. The bound is per-trace and single-level; see
//! DESIGN.md §15 for the soundness argument and its limits.

use crate::ir::{AccessProgram, AddrExpr, Op};
use ctbia_core::ds::DataflowSet;
use ctbia_core::linearize::{
    SwProfile, BIA_FETCH_INSTS, BIA_PAGE_INSTS, BIA_STORE_FETCH_INSTS, BIA_STORE_PAGE_INSTS,
};
use ctbia_core::strategy::Strategy;
use ctbia_machine::MachineConfig;
use ctbia_sim::abstract_cache::{AbstractCache, Residency};
use ctbia_sim::addr::{LineAddr, PhysAddr};

/// The result of abstractly interpreting one access program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsResult {
    /// Upper bound on the leakage of the trace through the monitored
    /// cache, in millibits (`round(bits * 1000)`); 0 certifies.
    pub trace_millibits: u64,
    /// Lines whose final abstract residency is secret-tainted — the
    /// attacker-distinguishable portion of the *final* cache state.
    pub state_lines: u64,
    /// Statically predicted instruction count (kernel bookkeeping plus
    /// the modeled lowering cost of every op) — a cross-check against
    /// the concrete run's instruction counter.
    pub predicted_insts: u64,
}

struct Interp {
    cache: AbstractCache,
    m_log2: u32,
    bits: f64,
    insts: u64,
}

impl Interp {
    /// A public demand access: exact touch, 1 instruction.
    fn demand_pub(&mut self, addr: u64) {
        self.cache.touch(PhysAddr::new(addr).line());
        self.insts += 1;
    }

    /// A symbolic demand access: the poisoned payload cannot resolve a
    /// region, so the candidate set is every allocated line — a sound
    /// over-approximation of "somewhere in the program's memory".
    fn demand_sym(&mut self, candidates: &[LineAddr]) {
        if candidates.len() <= 1 {
            if let Some(&line) = candidates.first() {
                self.cache.touch(line);
            }
        } else {
            self.bits += (candidates.len() as f64).log2();
            self.cache.touch_any(candidates);
        }
        self.insts += 1;
    }

    /// A software linearization sweep: every DS line touched in a fixed
    /// public order — no symbolic residency survives, no leakage.
    fn sweep_sw(&mut self, ds: &DataflowSet, store: bool, profile: &SwProfile) {
        let (extra, mem) = if store {
            (profile.extra_insts_store, 2)
        } else {
            (profile.extra_insts_load, 1)
        };
        for &line in ds.lines() {
            self.cache.touch(line);
            self.insts += extra + mem;
        }
    }

    /// A BIA sweep: per group, lines already resident are *skipped* —
    /// so a line whose residency is secret-tainted makes the fetchset
    /// observable (1 bit) — and non-resident lines are fetched. `Maybe`
    /// lines are forced resident (the CT op guarantees post-residency)
    /// without refreshing their age, preserving interval soundness.
    fn sweep_bia(&mut self, ds: &DataflowSet, store: bool) {
        let (page_insts, miss_insts) = if store {
            (BIA_PAGE_INSTS + BIA_STORE_PAGE_INSTS, BIA_STORE_FETCH_INSTS)
        } else {
            (BIA_PAGE_INSTS, BIA_FETCH_INSTS)
        };
        for group in ds.groups(self.m_log2).iter() {
            self.insts += page_insts;
            for i in 0..64 {
                if !group.bitmask.contains(i) {
                    continue;
                }
                let line = group.line(self.m_log2, i);
                if self.cache.residency_is_secret(line) {
                    self.bits += 1.0;
                }
                match self.cache.residency(line) {
                    Residency::In => {}
                    Residency::Out => {
                        self.cache.touch(line);
                        self.insts += miss_insts;
                    }
                    Residency::Maybe => self.cache.force_resident(line),
                }
            }
        }
    }

    fn ds_op(
        &mut self,
        store: bool,
        ds: &DataflowSet,
        addr: &AddrExpr,
        strategy: &Strategy,
        candidates: &[LineAddr],
    ) {
        match strategy {
            Strategy::Insecure => match addr {
                AddrExpr::Pub(a) => self.demand_pub(*a),
                AddrExpr::Sym(_) => {
                    // The secret index reaches the cache directly; the
                    // candidate set is at least the DS itself.
                    let lines = ds.lines();
                    if lines.len() > 1 {
                        self.bits += (lines.len() as f64).log2();
                        self.cache.touch_any(lines);
                    } else if let Some(&line) = lines.first() {
                        self.cache.touch(line);
                    }
                    self.insts += 1;
                    let _ = candidates;
                }
            },
            Strategy::SoftwareCt(profile) => self.sweep_sw(ds, store, profile),
            Strategy::Bia(_) => self.sweep_bia(ds, store),
            Strategy::BiaLoads(_) => {
                if store {
                    self.sweep_sw(ds, true, &SwProfile::scalar());
                } else {
                    self.sweep_bia(ds, false);
                }
            }
        }
    }
}

/// Abstractly interprets `program` under `strategy` on the machine
/// `config` describes, returning the leakage bound, the secret-tainted
/// final state, and the predicted instruction count.
#[must_use]
pub fn interpret(
    program: &AccessProgram,
    strategy: &Strategy,
    config: &MachineConfig,
) -> AbsResult {
    let mut it = Interp {
        cache: AbstractCache::new(config.monitored_cache()),
        m_log2: config.bia_granularity_log2(),
        bits: 0.0,
        insts: program.exec_insts,
    };
    let candidates = program.region_lines();
    for op in &program.ops {
        match op {
            Op::Ds {
                store, ds, addr, ..
            } => it.ds_op(*store, ds, addr, strategy, &candidates),
            Op::Demand { addr, .. } => match addr {
                AddrExpr::Pub(a) => it.demand_pub(*a),
                AddrExpr::Sym(_) => it.demand_sym(&candidates),
            },
            // Control-flow ops are the lint pass's concern; they cost
            // one instruction and touch nothing.
            Op::Branch { .. } | Op::TripCount { .. } | Op::CondMask { .. } => it.insts += 1,
        }
    }
    AbsResult {
        trace_millibits: (it.bits * 1000.0).round() as u64,
        state_lines: it.cache.secret_uncertain_lines(),
        predicted_insts: it.insts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Region;
    use ctbia_core::ctmem::Width;
    use ctbia_core::taint::Taint;
    use std::rc::Rc;

    fn program(ops: Vec<Op>) -> AccessProgram {
        AccessProgram {
            ops,
            regions: vec![Region {
                base: PhysAddr::new(0x1_0000),
                bytes: 1024,
            }],
            exec_insts: 10,
            ..Default::default()
        }
    }

    fn sym_ds(lines: u64) -> Op {
        Op::Ds {
            store: false,
            ds: Rc::new(DataflowSet::contiguous(PhysAddr::new(0x1_0000), lines * 64)),
            addr: AddrExpr::Sym(Taint::secret("k")),
            width: Width::U32,
            ctx: "t[k]".into(),
        }
    }

    #[test]
    fn public_traffic_is_free() {
        let p = program(vec![
            Op::Demand {
                store: false,
                addr: AddrExpr::Pub(0x1_0000),
                width: Width::U32,
                ctx: "a[0]".into(),
            },
            Op::Demand {
                store: true,
                addr: AddrExpr::Pub(0x1_0040),
                width: Width::U32,
                ctx: "b[0]".into(),
            },
        ]);
        let r = interpret(&p, &Strategy::Insecure, &MachineConfig::insecure());
        assert_eq!(r.trace_millibits, 0);
        assert_eq!(r.state_lines, 0);
        assert_eq!(r.predicted_insts, 12);
    }

    #[test]
    fn insecure_symbolic_ds_charges_log2_of_the_set() {
        let p = program(vec![sym_ds(16)]);
        let r = interpret(&p, &Strategy::Insecure, &MachineConfig::insecure());
        assert_eq!(r.trace_millibits, 4000);
        assert!(r.state_lines > 0, "uncertain touch taints residency");
    }

    #[test]
    fn sweeps_certify_the_same_program() {
        use ctbia_machine::BiaPlacement;
        let p = program(vec![sym_ds(16), sym_ds(16)]);
        for (strategy, config) in [
            (Strategy::software_ct(), MachineConfig::insecure()),
            (Strategy::bia(), MachineConfig::with_bia(BiaPlacement::L1d)),
            (Strategy::bia(), MachineConfig::with_bia(BiaPlacement::Llc)),
            (
                Strategy::bia_loads(),
                MachineConfig::with_bia(BiaPlacement::L2),
            ),
        ] {
            let r = interpret(&p, &strategy, &config);
            assert_eq!(r.trace_millibits, 0, "{strategy}");
            assert_eq!(r.state_lines, 0, "{strategy}");
        }
    }

    #[test]
    fn bia_sweep_over_secret_residency_is_charged() {
        use ctbia_machine::BiaPlacement;
        // An insecure symbolic access first poisons residency, then a
        // BIA sweep of the same set observes it through its fetchset.
        let p = program(vec![sym_ds(16), sym_ds(16)]);
        // Interpret the first op as insecure manually: build a program
        // where op 1 is a symbolic *demand* (always raw), op 2 the sweep.
        let mixed = program(vec![
            Op::Demand {
                store: false,
                addr: AddrExpr::Sym(Taint::secret("k")),
                width: Width::U32,
                ctx: "a[k]".into(),
            },
            sym_ds(16),
        ]);
        let r = interpret(
            &mixed,
            &Strategy::bia(),
            &MachineConfig::with_bia(BiaPlacement::L1d),
        );
        // log2(16 candidate region lines) = 4 bits for the demand, plus
        // ≥1 bit of fetchset observability on the sweep.
        assert!(r.trace_millibits > 4000, "{}", r.trace_millibits);
        let _ = p;
    }

    #[test]
    fn sw_sweep_instruction_model_matches_the_profile() {
        let p = AccessProgram {
            ops: vec![sym_ds(4)],
            ..Default::default()
        };
        let r = interpret(&p, &Strategy::software_ct(), &MachineConfig::insecure());
        // 4 lines x (6 bookkeeping + 1 load).
        assert_eq!(r.predicted_insts, 28);
    }
}
