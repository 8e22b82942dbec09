//! The [`TaintMem`] facade — a machine wrapper that propagates secret
//! taint through memory and checks the timing-visible sinks — and
//! [`taint_check`], which runs a workload's kernel body on it.
//!
//! `TaintMem` is the [`Tv`] implementation of the
//! [`TaintSink`] surface every workload kernel is written against, so
//! the sanitizer runs the very body the measured run executes, access
//! for access. It pairs every access with a taint judgment:
//!
//! * [`TaintSink::load`]/[`TaintSink::store`] are *raw demand accesses*
//!   — their address must be public. A secret address raises a
//!   [`LeakKind::RawAddress`] violation (the access still executes, so
//!   one bug does not hide the next).
//! * [`TaintSink::ds_load`]/[`TaintSink::ds_store`] are linearized
//!   accesses performed through the configured [`Strategy`] — secret
//!   addresses are exactly what they exist for, so no sink check; the
//!   loaded value inherits the address taint (the *which element* bit)
//!   joined with the shadow label of the bytes read.
//! * [`TaintSink::branch`] and [`TaintSink::trip_count`] guard native
//!   control flow: a secret condition or bound raises
//!   [`LeakKind::Branch`] / [`LeakKind::TripCount`].
//! * [`TaintSink::spec_branch`] runs the wrong path on the machine's
//!   bounded speculation window; a raw access there that the window
//!   lets issue at a secret address raises
//!   [`LeakKind::SpeculativeFill`].
//!
//! Value-level taint lives in [`Tv`]s; memory-level taint lives in the
//! machine's byte-granularity shadow map (see `Machine::enable_taint`),
//! so secrets survive round trips through RAM.

use ctbia_core::ctmem::{CtMemory, Width};
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::TaintSink;
use ctbia_core::taint::{LeakKind, LeakViolation, Taint, TaintLabel, Tv};
use ctbia_harness::WorkloadSpec;
use ctbia_machine::Machine;
use ctbia_sim::addr::{PhysAddr, LINE_BYTES};
use ctbia_workloads::Strategy;
use std::fmt;

/// What the taint pass observed for one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintOutcome {
    /// Whether the kernel's outputs matched its plain-Rust reference.
    pub outputs_ok: bool,
    /// The recorded violations (the machine stores the first 64).
    pub violations: Vec<LeakViolation>,
}

/// Runs `workload`'s kernel body on `m` under `strategy` through a
/// [`TaintMem`] and returns what the sanitizer saw. The machine performs
/// exactly the accesses a plain run of the workload performs.
pub fn taint_check(m: &mut Machine, workload: &WorkloadSpec, strategy: Strategy) -> TaintOutcome {
    let wl = workload.build();
    let outputs = wl.run_tainted(&mut TaintMem::new(m, strategy));
    TaintOutcome {
        outputs_ok: outputs.iter().map(|t| t.v).eq(wl.reference()),
        violations: m.take_taint_violations(),
    }
}

/// A taint-checking view of a [`Machine`] plus the [`Strategy`] used for
/// linearized accesses.
#[derive(Debug)]
pub struct TaintMem<'m> {
    m: &'m mut Machine,
    strategy: Strategy,
    /// Inside a wrong-path window (see [`TaintSink::spec_branch`]).
    speculating: bool,
}

impl<'m> TaintMem<'m> {
    /// Wraps `m`, enabling its shadow taint layer (idempotent).
    pub fn new(m: &'m mut Machine, strategy: Strategy) -> TaintMem<'m> {
        m.enable_taint();
        TaintMem {
            m,
            strategy,
            speculating: false,
        }
    }

    fn report(&mut self, kind: LeakKind, t: &Tv, addr: Option<u64>, what: &str) {
        self.m.report_leak(LeakViolation {
            kind,
            context: what.to_string(),
            addr,
            provenance: t.taint.chain(),
        });
    }

    /// A raw demand access at `addr`. Architecturally a secret address is
    /// a [`LeakKind::RawAddress`] leak; on a wrong path it is a
    /// [`LeakKind::SpeculativeFill`] leak if the window let it issue.
    fn raw<R>(&mut self, addr: &Tv, what: &str, access: impl FnOnce(&mut Machine) -> R) -> R {
        if !self.speculating {
            if addr.is_secret() {
                self.report(LeakKind::RawAddress, addr, Some(addr.v), what);
            }
            return access(self.m);
        }
        let issued = self.m.counters().spec.wrong_path_accesses;
        let r = access(self.m);
        if addr.is_secret() && self.m.counters().spec.wrong_path_accesses > issued {
            self.report(LeakKind::SpeculativeFill, addr, Some(addr.v), what);
        }
        r
    }

    /// The taint of the bytes a load reads back, as a fresh provenance
    /// root (memory round trips restart the chain at the load event).
    fn shadow_taint(&self, addr: &Tv, width: Width, what: &str) -> Taint {
        if self.m.taint_of(PhysAddr::new(addr.v), width).is_secret() {
            Taint::secret(format!("{what}: secret bytes loaded @ {:#x}", addr.v))
        } else {
            Taint::public()
        }
    }

    /// Sets the shadow label of a store's bytes; a wrong-path store never
    /// reaches memory, so it changes none.
    fn set_label(&mut self, addr: PhysAddr, width: Width, label: TaintLabel) {
        if !self.speculating {
            self.m.set_taint(addr, width, label);
        }
    }
}

impl TaintSink<Tv> for TaintMem<'_> {
    fn alloc(&mut self, bytes: u64) -> PhysAddr {
        self.m
            .alloc(bytes, LINE_BYTES)
            .expect("simulated RAM exhausted")
    }

    fn poke(&mut self, addr: PhysAddr, width: Width, value: &Tv) {
        self.m.poke(addr, width, value.v);
        if value.is_secret() {
            self.m.set_taint(addr, width, TaintLabel::SECRET);
        }
    }

    fn peek(&mut self, addr: PhysAddr, width: Width) -> Tv {
        Tv::public(self.m.peek(addr, width))
    }

    /// Marks the `bytes` bytes at `base` as secret in the shadow map —
    /// the taint source for memory-resident secret inputs.
    fn mark_secret(&mut self, base: PhysAddr, bytes: u64) {
        for i in 0..bytes {
            self.m
                .set_taint(base.offset(i), Width::U8, TaintLabel::SECRET);
        }
    }

    fn secret(&mut self, v: u64, detail: fmt::Arguments<'_>) -> Tv {
        Tv::secret(v, detail.to_string())
    }

    /// The result carries the shadow taint of the bytes read.
    fn load(&mut self, addr: &Tv, width: Width, what: &str) -> Tv {
        let v = self.raw(addr, what, |m| m.load(PhysAddr::new(addr.v), width));
        let taint = self.shadow_taint(addr, width, what);
        Tv { v, taint }
    }

    /// The shadow map takes the stored value's label.
    fn store(&mut self, addr: &Tv, width: Width, value: &Tv, what: &str) {
        let pa = PhysAddr::new(addr.v);
        self.raw(addr, what, |m| m.store(pa, width, value.v));
        self.set_label(pa, width, value.taint.label());
    }

    /// The result joins the address taint (extended with a `ds-load`
    /// provenance event) with the shadow label of the bytes read.
    fn ds_load(&mut self, ds: &DataflowSet, addr: &Tv, width: Width, what: &str) -> Tv {
        let v = self
            .strategy
            .load(&mut *self.m, ds, PhysAddr::new(addr.v), width);
        let taint = addr
            .taint
            .via("ds-load", what)
            .join(&self.shadow_taint(addr, width, what));
        Tv { v, taint }
    }

    /// The shadow map takes the join of the value and address labels:
    /// when the *destination* is secret-selected, which cell changed is
    /// itself a secret (implicit flow), and a later raw read of it must
    /// come back tainted.
    fn ds_store(&mut self, ds: &DataflowSet, addr: &Tv, width: Width, value: &Tv, _what: &str) {
        let pa = PhysAddr::new(addr.v);
        self.strategy.store(&mut *self.m, ds, pa, width, value.v);
        self.set_label(pa, width, value.taint.label().join(addr.taint.label()));
    }

    fn branch(&mut self, cond: &Tv, what: &str) -> bool {
        if cond.is_secret() {
            self.report(LeakKind::Branch, cond, None, what);
        }
        cond.v != 0
    }

    fn trip_count(&mut self, bound: &Tv, what: &str) -> u64 {
        if bound.is_secret() {
            self.report(LeakKind::TripCount, bound, None, what);
        }
        bound.v
    }

    fn exec(&mut self, insts: u64) {
        self.m.exec(insts);
    }

    fn spec_branch(
        &mut self,
        site: u64,
        taken: bool,
        wrong_path: &mut dyn FnMut(&mut dyn TaintSink<Tv>),
    ) {
        if self.m.spec_enter(site, taken) {
            self.speculating = true;
            wrong_path(self);
            self.speculating = false;
            self.m.spec_exit(site);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_core::sink::elem_addr;
    use ctbia_machine::MachineConfig;

    fn setup(m: &mut Machine, n: u64) -> (PhysAddr, DataflowSet) {
        let base = m.alloc_u32_array(n).unwrap();
        for i in 0..n {
            m.poke_u32(base.offset(i * 4), i as u32);
        }
        (base, DataflowSet::contiguous(base, n * 4))
    }

    #[test]
    fn raw_access_at_secret_address_is_a_violation() {
        let mut m = Machine::insecure();
        let (base, _) = setup(&mut m, 64);
        let mut tm = TaintMem::new(&mut m, Strategy::Insecure);
        let idx = Tv::secret(5, "the secret index");
        let v = tm.load(&elem_addr(base, &idx, 4), Width::U32, "probe");
        assert_eq!(v.v, 5);
        let violations = m.take_taint_violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, LeakKind::RawAddress);
        assert!(violations[0].provenance[0].contains("the secret index"));
    }

    #[test]
    fn ds_access_at_secret_address_is_allowed() {
        let mut m = Machine::insecure();
        let (base, ds) = setup(&mut m, 64);
        let mut tm = TaintMem::new(&mut m, Strategy::software_ct());
        let idx = Tv::secret(9, "key");
        let v = tm.ds_load(&ds, &elem_addr(base, &idx, 4), Width::U32, "lookup");
        assert_eq!(v.v, 9);
        assert!(v.is_secret(), "value inherits the address taint");
        assert!(m.take_taint_violations().is_empty());
    }

    #[test]
    fn shadow_map_carries_secrets_through_memory() {
        let mut m = Machine::insecure();
        let (base, _) = setup(&mut m, 64);
        let mut tm = TaintMem::new(&mut m, Strategy::Insecure);
        tm.mark_secret(base, 8);
        let a0 = elem_addr(base, &Tv::public(0), 4);
        let a4 = elem_addr(base, &Tv::public(4), 4);
        assert!(tm.load(&a0, Width::U32, "secret half").is_secret());
        assert!(!tm.load(&a4, Width::U32, "public half").is_secret());
        // A secret value stored to a public cell taints that cell.
        let s = Tv::secret(1, "k");
        tm.store(&a4, Width::U32, &s, "spill");
        assert!(tm.load(&a4, Width::U32, "reload").is_secret());
        assert!(m.take_taint_violations().is_empty());
    }

    #[test]
    fn ds_store_records_the_implicit_destination_flow() {
        let mut m = Machine::insecure();
        let (base, ds) = setup(&mut m, 64);
        let mut tm = TaintMem::new(&mut m, Strategy::software_ct());
        let idx = Tv::secret(3, "perm entry");
        // Public value, secret destination: the cell must become secret.
        tm.ds_store(
            &ds,
            &elem_addr(base, &idx, 4),
            Width::U32,
            &Tv::public(7),
            "a[b[i]] = i",
        );
        let back = tm.load(&elem_addr(base, &Tv::public(3), 4), Width::U32, "readback");
        assert_eq!(back.v, 7);
        assert!(back.is_secret());
    }

    #[test]
    fn control_flow_sinks_fire_only_on_secrets() {
        let mut m = Machine::insecure();
        let mut tm = TaintMem::new(&mut m, Strategy::Insecure);
        assert!(tm.branch(&Tv::public(1), "public branch"));
        assert_eq!(tm.trip_count(&Tv::public(10), "public loop"), 10);
        assert!(m.take_taint_violations().is_empty());

        let mut tm = TaintMem::new(&mut m, Strategy::Insecure);
        assert!(!tm.branch(&Tv::secret(0, "bit"), "if (secret)"));
        let _ = tm.trip_count(&Tv::secret(3, "len"), "for 0..secret");
        let violations = m.take_taint_violations();
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].kind, LeakKind::Branch);
        assert_eq!(violations[1].kind, LeakKind::TripCount);
    }

    #[test]
    fn leaky_kernel_reports_raw_address_violations_with_provenance() {
        let mut m = Machine::insecure();
        let spec = WorkloadSpec::named("leaky-bin", 300).unwrap();
        let outcome = taint_check(&mut m, &spec, Strategy::Insecure);
        assert!(outcome.outputs_ok, "the leak is a side channel, not a bug");
        assert!(!outcome.violations.is_empty());
        let v = &outcome.violations[0];
        assert_eq!(v.kind, LeakKind::RawAddress);
        assert!(v.addr.is_some());
        assert!(
            v.provenance.iter().any(|s| s.contains("search key")),
            "provenance must reach the secret input: {:?}",
            v.provenance
        );
        // The counter is exact; the stored list is capped at 64 samples.
        let reported = m.counters().taint.leak_violations;
        assert!(reported >= outcome.violations.len() as u64);
        assert_eq!(outcome.violations.len() as u64, reported.min(64));
    }

    #[test]
    fn spectre_kernel_is_clean_without_speculation_and_leaks_with_it() {
        let spec = WorkloadSpec::named("spectre", 256).unwrap();
        let outcome = taint_check(&mut Machine::insecure(), &spec, Strategy::Insecure);
        assert!(outcome.outputs_ok);
        assert!(
            outcome.violations.is_empty(),
            "no window, no transient fills: {}",
            outcome.violations[0]
        );

        let mut cfg = MachineConfig::insecure();
        cfg.spec_window = 32;
        let mut m = Machine::new(cfg).unwrap();
        let outcome = taint_check(&mut m, &spec, Strategy::Insecure);
        assert!(
            outcome.outputs_ok,
            "the leak is transient, not a wrong answer"
        );
        assert_eq!(outcome.violations.len(), 8, "one fill per attack round");
        for v in &outcome.violations {
            assert_eq!(v.kind, LeakKind::SpeculativeFill);
            assert!(v.addr.is_some());
            assert!(
                v.provenance.iter().any(|s| s.contains("planted secret")),
                "provenance must reach the planted secret: {:?}",
                v.provenance
            );
        }
    }

    #[test]
    fn wrong_path_fills_are_judged_only_within_the_window() {
        let spec = WorkloadSpec::named("spectre", 256).unwrap();
        let outcome_at = |window: u32| {
            let mut cfg = MachineConfig::insecure();
            cfg.spec_window = window;
            taint_check(&mut Machine::new(cfg).unwrap(), &spec, Strategy::Insecure)
        };
        // The out-of-bounds read issues at window 1; the secret-indexed
        // probe behind it needs a second slot.
        assert!(outcome_at(1).violations.is_empty());
        assert!(!outcome_at(2).violations.is_empty());
    }
}
