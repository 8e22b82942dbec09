//! Heap pop — Figure 7e workload.
//!
//! Repeatedly popping the maximum from a binary max-heap: the sift-down
//! path depends on the heap's (secret) contents (Table 2), so every
//! element access along the path is linearized over the whole heap array.
//!
//! The constant-time kernel walks a **fixed depth** (`ceil(log2(n))`
//! levels) with branchless index updates; positions past the current heap
//! size are handled by clamping the probe address and masking the
//! comparison, so the demand trace is identical for every secret.

use crate::run::{digest_u64, measure, size_label, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Per-level bookkeeping: child index math, clamps, masks, selects.
const PER_LEVEL_INSTS: u64 = 14;

/// The HeapPop workload (the paper sweeps 2k–10k elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapPop {
    /// Heap size.
    pub size: usize,
    /// Number of pops per run.
    pub pops: usize,
    /// Heap content seed.
    pub seed: u64,
}

impl HeapPop {
    /// A heap of `size` secret elements, 32 pops, default seed.
    pub fn new(size: usize) -> Self {
        HeapPop {
            size,
            pops: 32,
            seed: 0x4ea9,
        }
    }

    /// The initial max-heap array (heapified host-side).
    pub fn heap(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        let mut h: Vec<u32> = (0..self.size)
            .map(|_| rng.below(1_000_000) as u32)
            .collect();
        // Floyd heapify.
        for i in (0..self.size / 2).rev() {
            sift_down_plain(&mut h, i, self.size);
        }
        h
    }

    /// The kernel, written once for every surface. The heap contents are
    /// secret; the root and last element sit at public addresses, but
    /// the sift path index is secret from the first comparison on and
    /// only ever addresses memory through the strategy. Returns the
    /// popped maxima in order.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        assert!(
            self.pops <= self.size,
            "cannot pop more than the heap holds"
        );
        let n = self.size as u64;
        let heap = s.alloc(n * 4);
        for (i, &v) in self.heap().iter().enumerate() {
            s.poke(
                heap.offset(i as u64 * 4),
                Width::U32,
                &V::public(u64::from(v)),
            );
        }
        let ds = DataflowSet::contiguous(heap, n * 4);
        let depth = 64 - (n.max(2) - 1).leading_zeros() as u64; // ceil(log2 n)

        s.mark_secret(heap, n * 4);
        let mut popped = Vec::with_capacity(self.pops);
        let mut size = n; // public: the pop count is public
        for _ in 0..s.trip_count(&V::public(self.pops as u64), "pop loop") {
            // Root and last element are at public addresses.
            let root = s.load(&elem_addr(heap, &V::public(0), 4), Width::U32, "heap[0]");
            size -= 1;
            let hold = s.load(
                &elem_addr(heap, &V::public(size), 4),
                Width::U32,
                "heap[size-1]",
            );
            s.exec(4);
            popped.push(root);
            // Sift `hold` down from the root along a secret path.
            let mut i = V::public(0);
            let size_v = V::public(size);
            let clamp = V::public(size.saturating_sub(1));
            for _ in 0..s.trip_count(&V::public(depth), "sift loop") {
                s.exec(PER_LEVEL_INSTS);
                let c1 = i.mul(&V::public(2)).add(&V::public(1));
                let c2 = i.mul(&V::public(2)).add(&V::public(2));
                let c1_ok = c1.ct_lt(&size_v);
                let c2_ok = c2.ct_lt(&size_v);
                let a1 = elem_addr(heap, &c1.ct_min(&clamp), 4);
                let a2 = elem_addr(heap, &c2.ct_min(&clamp), 4);
                let v1 = s.ds_load(&ds, &a1, Width::U32, "heap child 1").and(&c1_ok);
                let v2 = s.ds_load(&ds, &a2, Width::U32, "heap child 2").and(&c2_ok);
                // Larger valid child.
                let right = v1.ct_lt(&v2);
                let c = V::select(&right, &c2, &c1);
                let vc = V::select(&right, &v2, &v1);
                // Move down if the child beats the held value.
                let go = hold.ct_lt(&vc);
                let write = V::select(&go, &vc, &hold);
                s.ds_store(&ds, &elem_addr(heap, &i, 4), Width::U32, &write, "heap[i]");
                i = V::select(&go, &c, &i);
            }
            s.ds_store(
                &ds,
                &elem_addr(heap, &i, 4),
                Width::U32,
                &hold,
                "heap[i] settle",
            );
        }
        popped
    }

    /// Runs the kernel; returns the popped maxima in order plus the
    /// measured counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM, the pop count exceeds the heap, or
    /// (for [`Strategy::Bia`]) the machine has no BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (popped, counters) = measure(m, strategy, |s| self.body(s));
        (popped.into_iter().map(|v| v as u32).collect(), counters)
    }
}

/// Host-side sift-down used by heapify and the reference model.
fn sift_down_plain(h: &mut [u32], mut i: usize, size: usize) {
    loop {
        let (c1, c2) = (2 * i + 1, 2 * i + 2);
        let mut largest = i;
        if c1 < size && h[c1] > h[largest] {
            largest = c1;
        }
        if c2 < size && h[c2] > h[largest] {
            largest = c2;
        }
        if largest == i {
            return;
        }
        h.swap(i, largest);
        i = largest;
    }
}

/// Plain-Rust reference: pops `pops` maxima from a copy of `heap`.
pub fn reference(heap: &[u32], pops: usize) -> Vec<u32> {
    let mut h = heap.to_vec();
    let mut size = h.len();
    let mut out = Vec::with_capacity(pops);
    for _ in 0..pops {
        out.push(h[0]);
        size -= 1;
        h[0] = h[size];
        sift_down_plain(&mut h, 0, size);
    }
    out
}

impl Workload for HeapPop {
    fn name(&self) -> String {
        format!("heap_{}", size_label(self.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (popped, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(popped.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.heap(), self.pops)
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
    fn heap_property_holds_after_heapify() {
        let h = HeapPop::new(500).heap();
        for i in 0..500usize {
            for c in [2 * i + 1, 2 * i + 2] {
                if c < 500 {
                    assert!(h[i] >= h[c], "heap violated at {i}");
                }
            }
        }
    }

    #[test]
    fn reference_pops_descending() {
        let wl = HeapPop {
            size: 300,
            pops: 300,
            seed: 8,
        };
        let popped = reference(&wl.heap(), 300);
        for w in popped.windows(2) {
            assert!(w[0] >= w[1], "pops must be non-increasing");
        }
        let mut sorted = wl.heap();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(popped, sorted);
    }

    #[test]
    fn matches_reference_under_all_strategies() {
        let wl = HeapPop {
            size: 200,
            pops: 40,
            seed: 5,
        };
        let expect = reference(&wl.heap(), 40);
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let (popped, _) = wl.run_full(&mut m, strategy);
            assert_eq!(popped, expect, "{strategy}");
        }
    }

    #[test]
    fn l2_bia_matches_reference() {
        let wl = HeapPop {
            size: 128,
            pops: 16,
            seed: 6,
        };
        let mut m = Machine::with_bia(BiaPlacement::L2);
        let (popped, _) = wl.run_full(&mut m, Strategy::bia());
        assert_eq!(popped, reference(&wl.heap(), 16));
    }

    #[test]
    #[should_panic(expected = "cannot pop more")]
    fn over_popping_panics() {
        let wl = HeapPop {
            size: 4,
            pops: 5,
            seed: 0,
        };
        let mut m = Machine::insecure();
        let _ = wl.run_full(&mut m, Strategy::Insecure);
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(HeapPop::new(6000).name(), "heap_6k");
    }
}
