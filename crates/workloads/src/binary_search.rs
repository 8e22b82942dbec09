//! Binary search — Figure 7d workload.
//!
//! Searching a sorted array for a secret key: the probe addresses follow
//! the comparison trace (Table 2), so every probe's dataflow linearization
//! set is the whole array (`O(length_of_array)`).
//!
//! The kernel is a fixed-iteration lower-bound search (`ceil(log2(n)) + 1`
//! probes with branchless bound updates) in **all** strategies, so outputs
//! are identical and the only difference between strategies is how the
//! probe load is performed. The insecure variant issues direct loads —
//! whose addresses leak the comparison trace.

use crate::run::{digest_u64, measure, size_label, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Per-probe bookkeeping: midpoint, clamp, compare, two bound selects.
const PER_PROBE_INSTS: u64 = 8;

/// Predictor site of the per-search loop branch. The branch is public
/// (the key count is not secret), so its wrong path — a phantom
/// search's first probe — is secret-independent: under bounded
/// speculation the kernel fills extra cache lines but still verifies.
const LOOP_SITE: u64 = 0x00b5_ea10;

/// The BinarySearch workload (the paper sweeps 2k–10k elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinarySearch {
    /// Sorted array length.
    pub size: usize,
    /// Number of secret keys searched per run.
    pub searches: usize,
    /// Key generation seed.
    pub seed: u64,
}

impl BinarySearch {
    /// A search workload over `size` elements, 20 searches, default seed.
    pub fn new(size: usize) -> Self {
        BinarySearch {
            size,
            searches: 20,
            seed: 0xb5ea,
        }
    }

    /// The sorted array contents: `a[i] = 3 * i + 1`.
    pub fn array(&self) -> Vec<u32> {
        (0..self.size as u32).map(|i| 3 * i + 1).collect()
    }

    /// The secret keys.
    pub fn keys(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.searches)
            .map(|_| rng.below(3 * self.size as u64 + 3) as u32)
            .collect()
    }

    /// The kernel, written once for every surface and for both probe
    /// flavours: `raw_probe` makes the probe a raw demand load at the
    /// secret-derived midpoint (the one line
    /// [`LeakyBinarySearch`](crate::LeakyBinarySearch) changes) instead
    /// of a load through the strategy. Returns the lower-bound index for
    /// each key.
    pub(crate) fn search<V: Value, S: TaintSink<V> + ?Sized>(
        &self,
        s: &mut S,
        raw_probe: bool,
    ) -> Vec<V> {
        let n = self.size as u64;
        let arr = s.alloc(n * 4);
        for (i, &v) in self.array().iter().enumerate() {
            s.poke(
                arr.offset(i as u64 * 4),
                Width::U32,
                &V::public(u64::from(v)),
            );
        }
        let ds = DataflowSet::contiguous(arr, n * 4);
        let probes = (64 - (n - 1).leading_zeros() as u64) + 1; // ceil(log2 n) + 1

        let mut results = Vec::with_capacity(self.searches);
        for (k, &key) in self.keys().iter().enumerate() {
            let key = s.secret(u64::from(key), format_args!("search key #{k}"));
            // Loop-continuation branch: the not-taken path (falling out
            // of the loop) touches no memory.
            s.spec_branch(LOOP_SITE, true, &mut |_| {});
            let mut lo = V::public(0);
            let mut hi = V::public(n);
            for _ in 0..s.trip_count(&V::public(probes), "probe loop") {
                s.exec(PER_PROBE_INSTS);
                let mid = lo.add(&hi).shr(1);
                // Clamp so the probe address stays in range even when
                // the logical range is empty (fixed probe count).
                let addr = elem_addr(arr, &mid.ct_min(&V::public(n - 1)), 4);
                let v = if raw_probe {
                    s.load(&addr, Width::U32, "probe a[mid] (raw)")
                } else {
                    s.ds_load(&ds, &addr, Width::U32, "probe a[mid]")
                };
                let active = lo.ct_lt(&hi);
                let go_right = v.ct_lt(&key).and(&active);
                lo = V::select(&go_right, &mid.add(&V::public(1)), &lo);
                hi = V::select(&go_right.not().and(&active), &mid, &hi);
            }
            results.push(lo);
        }
        // Loop exit: the trained predictor expects another search, so
        // the wrong path transiently issues a phantom search's first
        // probe (the clamped midpoint of the full range).
        let phantom = elem_addr(arr, &V::public((n / 2).min(n - 1)), 4);
        s.spec_branch(LOOP_SITE, false, &mut |s| {
            let _ = s.load(&phantom, Width::U32, "phantom probe a[mid]");
        });
        results
    }

    /// Runs the kernel; returns the lower-bound index for each key plus the
    /// measured counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (idx, counters) = measure(m, strategy, |s| self.search(s, false));
        (idx.into_iter().map(|i| i as u32).collect(), counters)
    }
}

/// Plain-Rust reference: lower-bound index (first element `>= key`).
pub fn reference(array: &[u32], keys: &[u32]) -> Vec<u32> {
    keys.iter()
        .map(|&k| array.partition_point(|&v| v < k) as u32)
        .collect()
}

impl Workload for BinarySearch {
    fn name(&self) -> String {
        format!("bin_{}", size_label(self.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (idx, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(idx.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.search(s, false)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.array(), &self.keys())
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
        let wl = BinarySearch {
            size: 700,
            searches: 25,
            seed: 3,
        };
        let expect = reference(&wl.array(), &wl.keys());
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let (idx, _) = wl.run_full(&mut m, strategy);
            assert_eq!(idx, expect, "{strategy}");
        }
    }

    #[test]
    fn finds_exact_and_boundary_keys() {
        // Keys at, below, and above every element of a small array.
        let wl = BinarySearch {
            size: 8,
            searches: 1,
            seed: 0,
        };
        let arr = wl.array(); // 1,4,7,...,22
        let keys = vec![0, 1, 2, 22, 23, 100];
        let expect = reference(&arr, &keys);
        assert_eq!(expect, vec![0, 0, 1, 7, 8, 8]);
    }

    #[test]
    fn non_power_of_two_sizes() {
        for size in [5usize, 9, 1000, 1023, 1025] {
            let wl = BinarySearch {
                size,
                searches: 10,
                seed: 1,
            };
            let expect = reference(&wl.array(), &wl.keys());
            let mut m = Machine::insecure();
            let (idx, _) = wl.run_full(&mut m, Strategy::Insecure);
            assert_eq!(idx, expect, "size {size}");
        }
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(BinarySearch::new(10_000).name(), "bin_10k");
    }
}
