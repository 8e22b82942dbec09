//! Histogram — the paper's running example (§2.3, §3.1, Figures 2/7b/10).
//!
//! ```c
//! void histogram(int in[], int out[]) {
//!     for (i = 0; i < SIZE; i++) {
//!         int v = in[i];
//!         if (v > 0) t = v % SIZE; else t = (0 - v) % SIZE;
//!         out[t] = out[t] + 1;
//!     }
//! }
//! ```
//!
//! `in` holds secret values; the read-modify-write of `out[t]` is the
//! secret-dependent access whose dataflow linearization set is the whole
//! `out` array (Table 2: DS size `O(number_of_Bin)`). The bin computation
//! itself is branchless (`t = |v| % SIZE`), so there is no secret branch to
//! linearize — the paper notes Histogram's overhead is purely dataflow
//! linearization.

use crate::run::{digest_u64, measure, size_label, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::predicate::ct_abs;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Bookkeeping instructions per element besides the explicit memory
/// operations: loop control, abs, modulo, address generation.
const PER_ELEMENT_INSTS: u64 = 12;

/// The Histogram workload. `size` is both the input length and the bin
/// count, as in the paper's benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Number of input elements and bins (the paper sweeps 1k–10k).
    pub size: usize,
    /// Input generation seed.
    pub seed: u64,
}

impl Histogram {
    /// A histogram of `size` elements/bins with the default seed.
    pub fn new(size: usize) -> Self {
        Histogram { size, seed: 0x5eed }
    }

    /// The secret input vector.
    pub fn input(&self) -> Vec<i32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.size)
            .map(|_| rng.range_i32(-20_000, 20_000))
            .collect()
    }

    /// The kernel, written once for every surface: the input values are
    /// secret, and the bin index derived from them addresses `out[]`
    /// only through linearized accesses. Returns the bins.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let n = self.size as u64;
        let in_arr = s.alloc(n * 4);
        let out = s.alloc(n * 4);
        for (i, &v) in self.input().iter().enumerate() {
            s.poke(
                in_arr.offset(i as u64 * 4),
                Width::U32,
                &V::public(u64::from(v as u32)),
            );
        }
        for i in 0..n {
            s.poke(out.offset(i * 4), Width::U32, &V::public(0));
        }
        let ds_out = DataflowSet::contiguous(out, n * 4);

        s.mark_secret(in_arr, n * 4);
        for i in 0..s.trip_count(&V::public(n), "element loop") {
            let v = s.load(&elem_addr(in_arr, &V::public(i), 4), Width::U32, "in[i]");
            s.exec(PER_ELEMENT_INSTS);
            let t =
                V::lift([&v], |[v]| ct_abs(i64::from(v as u32 as i32)) as u64).rem(&V::public(n));
            let addr = elem_addr(out, &t, 4);
            let p = s.ds_load(&ds_out, &addr, Width::U32, "out[t] read");
            s.ds_store(
                &ds_out,
                &addr,
                Width::U32,
                &p.add(&V::public(1)),
                "out[t] write",
            );
        }
        (0..n)
            .map(|i| s.peek(out.offset(i * 4), Width::U32))
            .collect()
    }

    /// Runs the kernel and returns the full bin vector plus the measured
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (bins, counters) = measure(m, strategy, |s| self.body(s));
        (bins.into_iter().map(|b| b as u32).collect(), counters)
    }
}

/// Plain-Rust reference implementation.
pub fn reference(input: &[i32], size: usize) -> Vec<u32> {
    let mut out = vec![0u32; size];
    for &v in input {
        let t = (v as i64).wrapping_abs() as u64 % size as u64;
        out[t as usize] += 1;
    }
    out
}

impl Workload for Histogram {
    fn name(&self) -> String {
        format!("hist_{}", size_label(self.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (bins, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(bins.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.input(), self.size)
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
        let wl = Histogram { size: 300, seed: 9 };
        let expect = reference(&wl.input(), 300);
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let (bins, _) = wl.run_full(&mut m, strategy);
            assert_eq!(bins, expect, "{strategy}");
        }
    }

    #[test]
    fn bia_l2_placement_matches_too() {
        let wl = Histogram { size: 200, seed: 5 };
        let expect = reference(&wl.input(), 200);
        let mut m = Machine::with_bia(BiaPlacement::L2);
        let (bins, _) = wl.run_full(&mut m, Strategy::bia());
        assert_eq!(bins, expect);
    }

    #[test]
    fn reference_counts_all_inputs() {
        let input = vec![-3, 3, 0, 5];
        let out = reference(&input, 4);
        assert_eq!(out.iter().sum::<u32>(), 4);
        assert_eq!(out[3], 2); // |-3| % 4 == 3 twice
        assert_eq!(out[0], 1); // 0
        assert_eq!(out[1], 1); // 5 % 4
    }

    #[test]
    fn ct_is_slower_than_insecure_and_bia_in_between() {
        let wl = Histogram::new(500);
        let mut mi = Machine::insecure();
        let base = wl.run(&mut mi, Strategy::Insecure);
        let mut mc = Machine::insecure();
        let ct = wl.run(&mut mc, Strategy::software_ct());
        let mut mb = Machine::with_bia(BiaPlacement::L1d);
        let bia = wl.run(&mut mb, Strategy::bia());
        assert_eq!(base.digest, ct.digest);
        assert_eq!(base.digest, bia.digest);
        assert!(
            ct.counters.cycles > 4 * base.counters.cycles,
            "CT should be far slower"
        );
        assert!(
            bia.counters.cycles < ct.counters.cycles / 2,
            "BIA should beat CT"
        );
        assert!(
            bia.counters.cycles > base.counters.cycles,
            "BIA still costs something"
        );
    }

    #[test]
    fn name_uses_paper_labels() {
        assert_eq!(Histogram::new(1000).name(), "hist_1k");
        assert_eq!(Histogram::new(8000).name(), "hist_8k");
    }
}
