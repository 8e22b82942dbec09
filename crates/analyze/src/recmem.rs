//! The recording taint sink and the extraction driver.
//!
//! [`RecMem`] implements [`TaintSink`] without a machine behind it: the
//! same kernel body that the measured run and the dynamic sanitizer
//! execute concretely runs here *symbolically*, and every memory event
//! is lifted into the [`AccessProgram`] IR. Three invariants make the
//! result trustworthy:
//!
//! 1. **Secrets are poisoned.** [`TaintSink::secret`] discards the
//!    concrete value and hands back a recognizable poison payload, so no
//!    concrete secret can influence the extracted program. Every place
//!    the recorder consumes a value *concretely* (a public address, a
//!    branch condition, a trip count) asserts the value is not poisoned
//!    — a kernel that laundered a secret through the taint algebra
//!    panics instead of silently recording a secret-specific trace.
//! 2. **Secret control flow aborts extraction.** A secret branch or
//!    trip count records its violation and panics; the driver catches
//!    the unwind and returns the partial program with
//!    [`AccessProgram::aborted`] set. A panic *without* a recorded
//!    violation is a real bug and is re-raised.
//! 3. **Memory is conservative.** Bytes marked secret (or stored from a
//!    secret value, or addressed by a secret) read back as fresh
//!    poisoned secrets; taint in memory only ever grows.

use crate::ir::{AccessProgram, AddrExpr, Op, Region};
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::TaintSink;
use ctbia_core::taint::{LeakKind, LeakViolation, Taint, Tv};
use ctbia_harness::WorkloadSpec;
use ctbia_sim::addr::{PhysAddr, LINE_BYTES};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Base of the poison payload space handed out for secrets. The top 24
/// bits spell a recognizable pattern no kernel address or value reaches.
pub const POISON_BASE: u64 = 0x5EC2_E700_0000_0000;
const POISON_MASK: u64 = 0xFFFF_FF00_0000_0000;

/// Whether `v` is (derived within an offset of) a poisoned secret
/// payload.
#[must_use]
pub fn is_poisoned(v: u64) -> bool {
    v & POISON_MASK == POISON_BASE
}

/// First byte of the recorder's bump allocator — matches the general
/// neighbourhood real machines allocate in, but nothing depends on it.
const ALLOC_BASE: u64 = 0x1_0000;

#[derive(Debug, Default)]
struct RecState {
    ops: Vec<Op>,
    regions: Vec<Region>,
    exec_insts: u64,
    violations: Vec<LeakViolation>,
    next_base: u64,
    ram: HashMap<u64, u8>,
    secret_ranges: Vec<(u64, u64)>,
    next_poison: u64,
    ds_intern: HashMap<Vec<u64>, Rc<DataflowSet>>,
}

impl RecState {
    fn new() -> RecState {
        RecState {
            next_base: ALLOC_BASE,
            ..RecState::default()
        }
    }

    fn fresh_poison(&mut self) -> u64 {
        let v = POISON_BASE + self.next_poison;
        self.next_poison += 1;
        v
    }

    fn mark_secret(&mut self, start: u64, bytes: u64) {
        if bytes > 0 {
            self.secret_ranges.push((start, start + bytes));
        }
    }

    fn is_secret_at(&self, addr: u64, bytes: u64) -> bool {
        let end = addr + bytes;
        self.secret_ranges.iter().any(|&(s, e)| addr < e && s < end)
    }

    fn read(&self, addr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in (0..width.bytes()).rev() {
            v = (v << 8) | u64::from(*self.ram.get(&(addr + i)).unwrap_or(&0));
        }
        v
    }

    fn write(&mut self, addr: u64, width: Width, v: u64) {
        for i in 0..width.bytes() {
            self.ram.insert(addr + i, (v >> (8 * i)) as u8);
        }
    }

    fn intern(&mut self, ds: &DataflowSet) -> Rc<DataflowSet> {
        let key: Vec<u64> = ds.lines().iter().map(|l| l.raw()).collect();
        self.ds_intern
            .entry(key)
            .or_insert_with(|| Rc::new(ds.clone()))
            .clone()
    }

    fn into_program(self, aborted: bool) -> AccessProgram {
        AccessProgram {
            ops: self.ops,
            regions: self.regions,
            exec_insts: self.exec_insts,
            aborted,
            extraction_violations: self.violations,
        }
    }
}

/// The recording [`TaintSink`]: executes a kernel body symbolically and
/// accumulates the [`AccessProgram`]. Construct one per extraction via
/// [`extract`].
#[derive(Debug)]
pub struct RecMem {
    st: Rc<RefCell<RecState>>,
}

impl RecMem {
    fn new_shared() -> (RecMem, Rc<RefCell<RecState>>) {
        let st = Rc::new(RefCell::new(RecState::new()));
        (RecMem { st: st.clone() }, st)
    }

    fn assert_concrete(&self, v: u64, what: &str) {
        assert!(
            !is_poisoned(v),
            "ctbia-analyze: poisoned secret observed concretely in `{what}` \
             (a secret was laundered out of the taint algebra)"
        );
    }
}

impl TaintSink<Tv> for RecMem {
    fn alloc(&mut self, bytes: u64) -> PhysAddr {
        let mut st = self.st.borrow_mut();
        let base = st.next_base;
        st.next_base = (st.next_base + bytes + LINE_BYTES - 1) & !(LINE_BYTES - 1);
        st.regions.push(Region {
            base: PhysAddr::new(base),
            bytes,
        });
        PhysAddr::new(base)
    }

    fn poke(&mut self, addr: PhysAddr, width: Width, value: &Tv) {
        let mut st = self.st.borrow_mut();
        if value.is_secret() {
            st.mark_secret(addr.raw(), width.bytes());
        } else {
            st.write(addr.raw(), width, value.v);
        }
    }

    fn peek(&mut self, addr: PhysAddr, width: Width) -> Tv {
        Tv::public(self.st.borrow().read(addr.raw(), width))
    }

    fn mark_secret(&mut self, base: PhysAddr, bytes: u64) {
        self.st.borrow_mut().mark_secret(base.raw(), bytes);
    }

    fn secret(&mut self, v: u64, detail: fmt::Arguments<'_>) -> Tv {
        // The concrete value is deliberately dropped: the extracted
        // program must be identical for every secret.
        let _ = v;
        let payload = self.st.borrow_mut().fresh_poison();
        Tv {
            v: payload,
            taint: Taint::secret(detail.to_string()),
        }
    }

    fn load(&mut self, addr: &Tv, width: Width, what: &str) -> Tv {
        if addr.is_secret() {
            let t = addr.taint.via("demand-load", what);
            let mut st = self.st.borrow_mut();
            st.ops.push(Op::Demand {
                store: false,
                addr: AddrExpr::Sym(t.clone()),
                width,
                ctx: what.to_string(),
            });
            let payload = st.fresh_poison();
            return Tv {
                v: payload,
                taint: t,
            };
        }
        self.assert_concrete(addr.v, what);
        let mut st = self.st.borrow_mut();
        st.ops.push(Op::Demand {
            store: false,
            addr: AddrExpr::Pub(addr.v),
            width,
            ctx: what.to_string(),
        });
        if st.is_secret_at(addr.v, width.bytes()) {
            let payload = st.fresh_poison();
            Tv {
                v: payload,
                taint: Taint::secret(format!("{what}: secret bytes loaded @ {:#x}", addr.v)),
            }
        } else {
            Tv::public(st.read(addr.v, width))
        }
    }

    fn store(&mut self, addr: &Tv, width: Width, value: &Tv, what: &str) {
        if addr.is_secret() {
            let t = addr.taint.via("demand-store", what);
            self.st.borrow_mut().ops.push(Op::Demand {
                store: true,
                addr: AddrExpr::Sym(t),
                width,
                ctx: what.to_string(),
            });
            return;
        }
        self.assert_concrete(addr.v, what);
        let mut st = self.st.borrow_mut();
        st.ops.push(Op::Demand {
            store: true,
            addr: AddrExpr::Pub(addr.v),
            width,
            ctx: what.to_string(),
        });
        if value.is_secret() {
            st.mark_secret(addr.v, width.bytes());
        } else {
            st.write(addr.v, width, value.v);
        }
    }

    fn ds_load(&mut self, ds: &DataflowSet, addr: &Tv, width: Width, what: &str) -> Tv {
        if addr.is_secret() {
            let t = addr.taint.via("ds-load", what);
            let mut st = self.st.borrow_mut();
            let rds = st.intern(ds);
            st.ops.push(Op::Ds {
                store: false,
                ds: rds,
                addr: AddrExpr::Sym(t.clone()),
                width,
                ctx: what.to_string(),
            });
            let payload = st.fresh_poison();
            return Tv {
                v: payload,
                taint: t,
            };
        }
        self.assert_concrete(addr.v, what);
        let mut st = self.st.borrow_mut();
        let rds = st.intern(ds);
        st.ops.push(Op::Ds {
            store: false,
            ds: rds,
            addr: AddrExpr::Pub(addr.v),
            width,
            ctx: what.to_string(),
        });
        if st.is_secret_at(addr.v, width.bytes()) {
            let payload = st.fresh_poison();
            Tv {
                v: payload,
                taint: Taint::secret(format!("{what}: secret bytes loaded @ {:#x}", addr.v)),
            }
        } else {
            Tv::public(st.read(addr.v, width))
        }
    }

    fn ds_store(&mut self, ds: &DataflowSet, addr: &Tv, width: Width, value: &Tv, what: &str) {
        if addr.is_secret() {
            let t = addr.taint.via("ds-store", what);
            let mut st = self.st.borrow_mut();
            let rds = st.intern(ds);
            // Which cell changed is itself secret: conservatively, the
            // whole dataflow set becomes secret.
            for &line in ds.lines() {
                st.mark_secret(line.base().raw(), LINE_BYTES);
            }
            st.ops.push(Op::Ds {
                store: true,
                ds: rds,
                addr: AddrExpr::Sym(t),
                width,
                ctx: what.to_string(),
            });
            return;
        }
        self.assert_concrete(addr.v, what);
        let mut st = self.st.borrow_mut();
        let rds = st.intern(ds);
        st.ops.push(Op::Ds {
            store: true,
            ds: rds,
            addr: AddrExpr::Pub(addr.v),
            width,
            ctx: what.to_string(),
        });
        if value.is_secret() {
            st.mark_secret(addr.v, width.bytes());
        } else {
            st.write(addr.v, width, value.v);
        }
    }

    fn branch(&mut self, cond: &Tv, what: &str) -> bool {
        if cond.is_secret() {
            let mut st = self.st.borrow_mut();
            st.violations.push(LeakViolation {
                kind: LeakKind::Branch,
                context: what.to_string(),
                addr: None,
                provenance: cond.taint.chain(),
            });
            st.ops.push(Op::Branch {
                taint: cond.taint.clone(),
                bitmap: false,
                ctx: what.to_string(),
            });
            drop(st);
            panic!("ctbia-analyze: secret-dependent branch `{what}` — extraction aborted");
        }
        self.assert_concrete(cond.v, what);
        cond.v != 0
    }

    fn trip_count(&mut self, bound: &Tv, what: &str) -> u64 {
        if bound.is_secret() {
            let mut st = self.st.borrow_mut();
            st.violations.push(LeakViolation {
                kind: LeakKind::TripCount,
                context: what.to_string(),
                addr: None,
                provenance: bound.taint.chain(),
            });
            st.ops.push(Op::TripCount {
                taint: bound.taint.clone(),
                ctx: what.to_string(),
            });
            drop(st);
            panic!("ctbia-analyze: secret-dependent trip count `{what}` — extraction aborted");
        }
        self.assert_concrete(bound.v, what);
        bound.v
    }

    fn exec(&mut self, insts: u64) {
        self.st.borrow_mut().exec_insts += insts;
    }

    /// The recorder models no transient execution (a zero-wide window):
    /// wrong paths never run, so the static passes judge the
    /// architectural program only.
    fn spec_branch(
        &mut self,
        _site: u64,
        _taken: bool,
        _wrong_path: &mut dyn FnMut(&mut dyn TaintSink<Tv>),
    ) {
    }
}

thread_local! {
    static EXTRACTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`extract`] calls performed on this thread — lets tests
/// assert the analyzer executes each workload exactly once per cell.
#[must_use]
pub fn extractions_performed() -> u64 {
    EXTRACTIONS.with(Cell::get)
}

/// Extracts the access program of `workload` by running its kernel body
/// once against a recording sink with poisoned secrets.
///
/// # Panics
///
/// Re-raises any extraction panic that is *not* an intentional abort
/// (secret control flow) — e.g. a poisoned secret observed concretely,
/// which would mean the kernel laundered a secret.
#[must_use]
pub fn extract(workload: &WorkloadSpec) -> AccessProgram {
    EXTRACTIONS.with(|c| c.set(c.get() + 1));
    let (rec, st) = RecMem::new_shared();
    let result = catch_unwind(AssertUnwindSafe(move || {
        let mut rec = rec;
        let _ = workload.build().run_tainted(&mut rec);
    }));
    let state = Rc::try_unwrap(st)
        .expect("recorder released at extraction end")
        .into_inner();
    let aborted = result.is_err();
    let program = state.into_program(aborted);
    if let Err(payload) = result {
        if program.extraction_violations.is_empty() {
            resume_unwind(payload);
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secrets_come_back_poisoned_and_tainted() {
        let (mut rec, _st) = RecMem::new_shared();
        let s = rec.secret(42, format_args!("k"));
        assert!(is_poisoned(s.v), "concrete value must be discarded");
        assert!(s.is_secret());
        let t = rec.secret(42, format_args!("k2"));
        assert_ne!(s.v, t.v, "each secret gets a distinct payload");
    }

    #[test]
    #[should_panic(expected = "poisoned secret observed concretely")]
    fn laundered_secrets_panic_at_the_sink() {
        let (mut rec, _st) = RecMem::new_shared();
        let s = rec.secret(5, format_args!("key"));
        // Launder: strip the taint but keep the (poisoned) value.
        let laundered = Tv::public(s.v);
        let _ = rec.load(&laundered, Width::U32, "stealthy probe");
    }

    #[test]
    fn secret_branch_aborts_with_a_recorded_cause() {
        let spec = WorkloadSpec::named("bin", 64).unwrap();
        // Build a tiny synthetic run: branch on a secret directly.
        let (mut rec, st) = RecMem::new_shared();
        let s = rec.secret(1, format_args!("bit"));
        let caught = catch_unwind(AssertUnwindSafe(move || {
            let _ = rec.branch(&s, "if (secret)");
        }));
        assert!(caught.is_err());
        let state = Rc::try_unwrap(st).unwrap().into_inner();
        assert_eq!(state.violations.len(), 1);
        assert_eq!(state.violations[0].kind, LeakKind::Branch);
        // And a real extraction of a CT workload does not abort.
        assert!(!extract(&spec).aborted);
    }

    #[test]
    fn memory_round_trips_preserve_taint_conservatively() {
        let (mut rec, _st) = RecMem::new_shared();
        let base = rec.alloc(64);
        rec.poke(base, Width::U32, &Tv::public(7));
        let a = Tv::public(base.raw());
        assert_eq!(rec.load(&a, Width::U32, "pub").v, 7);
        let s = rec.secret(1, format_args!("k"));
        rec.store(&a, Width::U32, &s, "spill");
        let back = rec.load(&a, Width::U32, "reload");
        assert!(back.is_secret() && is_poisoned(back.v));
        assert!(back.taint.chain()[0].contains("reload"));
    }

    #[test]
    fn extraction_counter_increments_once_per_extract() {
        let before = extractions_performed();
        let _ = extract(&WorkloadSpec::named("hist", 64).unwrap());
        assert_eq!(extractions_performed(), before + 1);
    }

    #[test]
    fn every_crypto_ds_access_is_symbolic_and_xor_has_none() {
        use ctbia_harness::CryptoKernel;
        let aes = extract(&WorkloadSpec::Crypto(CryptoKernel::Aes));
        assert!(aes
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Ds { .. }))
            .all(Op::is_symbolic_access));
        let xor = extract(&WorkloadSpec::Crypto(CryptoKernel::Xor));
        assert_eq!(xor.ds_ops(), 0);
        assert!(!xor.ops.iter().any(Op::is_symbolic_access));
    }
}
