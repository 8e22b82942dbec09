//! Permutation — Figure 7c workload.
//!
//! `a[b[i]] = i` where `b` is a secret permutation: the store's target
//! address exposes `b[i]` (Table 2), so its dataflow linearization set is
//! the whole output array `a` (`O(length_of_array)`).

use crate::run::{digest_u64, measure, size_label, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Per-element bookkeeping: loop control and address generation.
const PER_ELEMENT_INSTS: u64 = 4;

/// The Permutation workload (the paper sweeps 1k–8k elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Permutation {
    /// Array length.
    pub size: usize,
    /// Permutation seed.
    pub seed: u64,
}

impl Permutation {
    /// A permutation workload of `size` elements with the default seed.
    pub fn new(size: usize) -> Self {
        Permutation { size, seed: 0x9e12 }
    }

    /// The secret permutation `b`.
    pub fn permutation(&self) -> Vec<u32> {
        let mut b: Vec<u32> = (0..self.size as u32).collect();
        InputRng::new(self.seed).shuffle(&mut b);
        b
    }

    /// The kernel, written once for every surface: `b` is the secret, so
    /// `a[b[i]] = i` stores through the strategy at a secret destination
    /// (a pure implicit flow). Returns `a`.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let n = self.size as u64;
        let b = s.alloc(n * 4);
        let a = s.alloc(n * 4);
        for (i, &v) in self.permutation().iter().enumerate() {
            s.poke(b.offset(i as u64 * 4), Width::U32, &V::public(u64::from(v)));
        }
        let ds_a = DataflowSet::contiguous(a, n * 4);

        s.mark_secret(b, n * 4);
        for i in 0..s.trip_count(&V::public(n), "element loop") {
            // A public address; the loaded entry is the secret.
            let t = s.load(&elem_addr(b, &V::public(i), 4), Width::U32, "b[i]");
            s.exec(PER_ELEMENT_INSTS);
            s.ds_store(
                &ds_a,
                &elem_addr(a, &t, 4),
                Width::U32,
                &V::public(i),
                "a[b[i]] = i",
            );
        }
        (0..n)
            .map(|i| s.peek(a.offset(i * 4), Width::U32))
            .collect()
    }

    /// Runs the kernel; returns the inverted permutation `a` and the
    /// measured counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (a, counters) = measure(m, strategy, |s| self.body(s));
        (a.into_iter().map(|v| v as u32).collect(), counters)
    }
}

/// Plain-Rust reference: the inverse permutation.
pub fn reference(b: &[u32]) -> Vec<u32> {
    let mut a = vec![0u32; b.len()];
    for (i, &t) in b.iter().enumerate() {
        a[t as usize] = i as u32;
    }
    a
}

impl Workload for Permutation {
    fn name(&self) -> String {
        format!("perm_{}", size_label(self.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (a, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(a.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.permutation())
            .into_iter()
            .map(u64::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_machine::BiaPlacement;

    #[test]
    fn matches_reference_under_all_strategies() {
        let wl = Permutation {
            size: 400,
            seed: 11,
        };
        let expect = reference(&wl.permutation());
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let (a, _) = wl.run_full(&mut m, strategy);
            assert_eq!(a, expect, "{strategy}");
        }
    }

    #[test]
    fn inverse_of_inverse_is_identity() {
        let wl = Permutation::new(256);
        let b = wl.permutation();
        let a = reference(&b);
        let round_trip = reference(&a);
        assert_eq!(round_trip, b);
    }

    #[test]
    fn store_only_kernel_still_slower_under_ct() {
        let wl = Permutation::new(400);
        let mut mi = Machine::insecure();
        let base = wl.run(&mut mi, Strategy::Insecure);
        let mut mc = Machine::insecure();
        let ct = wl.run(&mut mc, Strategy::software_ct());
        assert_eq!(base.digest, ct.digest);
        assert!(ct.counters.cycles > 4 * base.counters.cycles);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(Permutation::new(4000).name(), "perm_4k");
    }
}
