//! Crypto kernels — the Figure 9 benchmarks.
//!
//! Eight table-driven ciphers whose secret-indexed table lookups are the
//! classic cache side channel (e.g. AES T-table attacks, Bernstein 2005). Each kernel
//! routes exactly those lookups through a [`Strategy`]; everything that
//! operates on registers (rotations, XORs, bit permutations) is charged to
//! the cost model but performed host-side, as a constant-time
//! implementation would.
//!
//! Fidelity notes (see DESIGN.md §2):
//!
//! * **AES** uses the genuine S-box (computed over GF(2⁸)) and genuine
//!   T-tables derived from it; the T-table construction is cross-validated
//!   against a from-first-principles SubBytes/ShiftRows/MixColumns
//!   reference in the tests.
//! * **ARC4** is genuine RC4.
//! * **DES/DES3, Blowfish, CAST, ARC2** use the genuine algorithm
//!   *structure* (table
//!   shapes, access sequences, key-schedule data flow) with seeded
//!   pseudo-random table *contents* in place of the published constants;
//!   cache behaviour depends only on table sizes and access sequences, so
//!   the substitution preserves the measured quantity.
//! * **XOR** has no secret-indexed access at all — it is the paper's
//!   "nothing to linearize" control and costs the same under every
//!   strategy.

pub mod aes;
pub mod blowfish;
pub mod cast;
pub mod des;
pub mod rc2;
pub mod rc4;
pub mod xor;

pub use aes::Aes;
pub use blowfish::Blowfish;
pub use cast::Cast;
pub use des::{Des, Des3};
pub use rc2::Rc2;
pub use rc4::Rc4;
pub use xor::XorCipher;

use crate::run::Workload;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_sim::addr::PhysAddr;

/// All eight Figure 9 kernels, in the paper's order, with default seeds.
pub fn all_kernels() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Aes::default()),
        Box::new(Rc2::default()),
        Box::new(Rc4::default()),
        Box::new(Blowfish::default()),
        Box::new(Cast::default()),
        Box::new(Des::default()),
        Box::new(Des3::default()),
        Box::new(XorCipher::default()),
    ]
}

/// A lookup table placed in memory, with its dataflow linearization set
/// (the whole table — any entry could be indexed by a secret byte).
#[derive(Debug, Clone)]
pub(crate) struct SimTable {
    base: PhysAddr,
    ds: DataflowSet,
    width: Width,
}

impl SimTable {
    /// Allocates a line-aligned table of `width`-byte entries and fills
    /// it with `values` (secret values make secret entries).
    pub(crate) fn new<V: Value, S: TaintSink<V> + ?Sized>(
        s: &mut S,
        width: Width,
        values: &[V],
    ) -> Self {
        let bytes = values.len() as u64 * width.bytes();
        let base = s.alloc(bytes);
        for (i, v) in values.iter().enumerate() {
            s.poke(base.offset(i as u64 * width.bytes()), width, v);
        }
        SimTable {
            base,
            ds: DataflowSet::contiguous(base, bytes),
            width,
        }
    }

    /// A table of public constants.
    pub(crate) fn public<V: Value, S: TaintSink<V> + ?Sized>(
        s: &mut S,
        width: Width,
        values: impl IntoIterator<Item = u64>,
    ) -> Self {
        let values: Vec<V> = values.into_iter().map(V::public).collect();
        SimTable::new(s, width, &values)
    }

    fn addr<V: Value>(&self, index: &V) -> V {
        elem_addr(self.base, index, self.width.bytes())
    }

    /// Secret-indexed lookup through the strategy.
    pub(crate) fn lookup<V: Value, S: TaintSink<V> + ?Sized>(
        &self,
        s: &mut S,
        index: &V,
        what: &str,
    ) -> V {
        s.ds_load(&self.ds, &self.addr(index), self.width, what)
    }

    /// Secret-indexed store through the strategy (RC4's swap).
    pub(crate) fn store<V: Value, S: TaintSink<V> + ?Sized>(
        &self,
        s: &mut S,
        index: &V,
        value: &V,
        what: &str,
    ) {
        s.ds_store(&self.ds, &self.addr(index), self.width, value, what);
    }

    /// Direct (public-index) lookup — sequential walks whose addresses do
    /// not depend on secrets need no linearization.
    pub(crate) fn lookup_public<V: Value, S: TaintSink<V> + ?Sized>(
        &self,
        s: &mut S,
        index: u64,
        what: &str,
    ) -> V {
        s.load(&self.addr(&V::public(index)), self.width, what)
    }

    /// Direct (public-index) store.
    pub(crate) fn store_public<V: Value, S: TaintSink<V> + ?Sized>(
        &self,
        s: &mut S,
        index: u64,
        value: &V,
        what: &str,
    ) {
        s.store(&self.addr(&V::public(index)), self.width, value, what);
    }
}

/// Introduces each of `values` as a secret register value named `what`
/// (a cipher's host-side key material entering the kernel body).
pub(crate) fn secrets<V: Value, S: TaintSink<V> + ?Sized>(
    s: &mut S,
    values: impl IntoIterator<Item = u64>,
    what: &str,
) -> Vec<V> {
    values
        .into_iter()
        .map(|v| s.secret(v, format_args!("{what}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use crate::strategy::Strategy;
    use ctbia_machine::{BiaPlacement, Machine};

    #[test]
    fn all_kernels_lists_the_paper_order() {
        let names: Vec<String> = all_kernels().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            ["AES", "ARC2", "ARC4", "Blowfish", "CAST", "DES", "DES3", "XOR"]
        );
    }

    /// Every crypto kernel must compute the same digest under every
    /// strategy and machine placement — the cross-strategy functionality
    /// check of §5.2 applied to Figure 9's benchmarks.
    #[test]
    fn all_kernels_agree_across_strategies() {
        for kernel in all_kernels() {
            let run = |strategy: Strategy, placement: Option<BiaPlacement>| -> Run {
                let mut m = match placement {
                    Some(p) => Machine::with_bia(p),
                    None => Machine::insecure(),
                };
                kernel.run(&mut m, strategy)
            };
            let base = run(Strategy::Insecure, None);
            let ct = run(Strategy::software_ct(), None);
            let l1 = run(Strategy::bia(), Some(BiaPlacement::L1d));
            let l2 = run(Strategy::bia(), Some(BiaPlacement::L2));
            assert_eq!(base.digest, ct.digest, "{}: CT", kernel.name());
            assert_eq!(base.digest, l1.digest, "{}: BIA L1d", kernel.name());
            assert_eq!(base.digest, l2.digest, "{}: BIA L2", kernel.name());
        }
    }

    /// Each kernel's secret-indexed table accesses, counted as the
    /// software-CT linearize passes of its measured run (one pass per
    /// dataflow-set access). The counts are the ones the static
    /// extraction is checked against; XOR touches no table.
    #[test]
    fn mirror_ds_op_counts() {
        let expected = [640, 288, 704, 33_600, 512, 1024, 1536, 0];
        for (kernel, ds_ops) in all_kernels().iter().zip(expected) {
            let mut m = Machine::insecure();
            kernel.run(&mut m, Strategy::software_ct());
            assert_eq!(m.counters().linearize.passes, ds_ops, "{}", kernel.name());
        }
    }

    #[test]
    fn sim_table_round_trip() {
        let mut m = Machine::insecure();
        crate::run::measure(&mut m, Strategy::Insecure, |s| {
            let t = SimTable::public(s, Width::U32, [10, 20, 30]);
            assert_eq!(t.lookup(s, &1, "t[1]"), 20);
            t.store(s, &1, &99, "t[1] = 99");
            assert_eq!(t.lookup(s, &1, "t[1]"), 99);
            let b = SimTable::public(s, Width::U8, [7, 8]);
            assert_eq!(b.lookup(s, &0, "b[0]"), 7);
        });
    }
}
