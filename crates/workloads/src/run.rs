//! The common workload harness: a [`Workload`] trait, measured [`Run`]
//! results, the measured surface [`MachineSink`], and deterministic
//! input generation.

use crate::strategy::Strategy;
use ctbia_core::ctmem::{CtMemory, Width};
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::TaintSink;
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};
use ctbia_sim::addr::{PhysAddr, LINE_BYTES};
use std::fmt;

/// The measured outcome of one workload execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// FNV-1a digest of the workload's architectural output, used to check
    /// that every strategy computes the same thing.
    pub digest: u64,
    /// Counter delta of the measured kernel region (setup via `poke` is
    /// cost-free, as in the paper where inputs pre-exist in memory).
    pub counters: Counters,
}

/// A benchmark kernel runnable under any [`Strategy`].
///
/// Each kernel is one generic body over a [`TaintSink`]; `run` executes
/// it measured on a machine, `run_tainted` on a taint-tracking surface
/// (the `ctbia-verify` sanitizer or the `ctbia-analyze` recorder).
pub trait Workload {
    /// Display name, including the size suffix the paper uses (e.g.
    /// `hist_1k`).
    fn name(&self) -> String;

    /// Executes the kernel on `m` with `strategy`, returning the output
    /// digest and the measured counters.
    ///
    /// # Panics
    ///
    /// Panics if `strategy` needs a BIA and `m` has none, or if `m`'s
    /// simulated RAM is too small for the workload.
    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run;

    /// Executes the same kernel body on a taint-tracking surface and
    /// returns its output words (the words [`Run::digest`] digests).
    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv>;

    /// The plain-Rust reference's output words: what every run of the
    /// kernel must compute.
    fn reference(&self) -> Vec<u64>;
}

/// The measured surface: a kernel body's `u64` run on a [`Machine`],
/// with its secret-dependent accesses performed through a [`Strategy`].
/// Labels and secret details are ignored, and taint checks are the
/// identity.
#[derive(Debug)]
pub struct MachineSink<'m> {
    m: &'m mut Machine,
    strategy: Strategy,
}

/// Runs `body` on `m` through `strategy` inside [`Machine::measure`].
pub fn measure<R>(
    m: &mut Machine,
    strategy: Strategy,
    body: impl FnOnce(&mut MachineSink<'_>) -> R,
) -> (R, Counters) {
    m.measure(|m| body(&mut MachineSink { m, strategy }))
}

impl TaintSink<u64> for MachineSink<'_> {
    fn alloc(&mut self, bytes: u64) -> PhysAddr {
        self.m
            .alloc(bytes, LINE_BYTES)
            .expect("simulated RAM exhausted")
    }

    fn poke(&mut self, addr: PhysAddr, width: Width, value: &u64) {
        self.m.poke(addr, width, *value);
    }

    fn peek(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.m.peek(addr, width)
    }

    #[inline]
    fn mark_secret(&mut self, _base: PhysAddr, _bytes: u64) {}

    #[inline]
    fn secret(&mut self, v: u64, _detail: fmt::Arguments<'_>) -> u64 {
        v
    }

    #[inline]
    fn load(&mut self, addr: &u64, width: Width, _what: &str) -> u64 {
        self.m.load(PhysAddr::new(*addr), width)
    }

    #[inline]
    fn store(&mut self, addr: &u64, width: Width, value: &u64, _what: &str) {
        self.m.store(PhysAddr::new(*addr), width, *value);
    }

    #[inline]
    fn ds_load(&mut self, ds: &DataflowSet, addr: &u64, width: Width, _what: &str) -> u64 {
        self.strategy
            .load(&mut *self.m, ds, PhysAddr::new(*addr), width)
    }

    #[inline]
    fn ds_store(&mut self, ds: &DataflowSet, addr: &u64, width: Width, value: &u64, _what: &str) {
        self.strategy
            .store(&mut *self.m, ds, PhysAddr::new(*addr), width, *value);
    }

    #[inline]
    fn branch(&mut self, cond: &u64, _what: &str) -> bool {
        *cond != 0
    }

    #[inline]
    fn trip_count(&mut self, bound: &u64, _what: &str) -> u64 {
        *bound
    }

    #[inline]
    fn exec(&mut self, insts: u64) {
        self.m.exec(insts);
    }

    fn spec_branch(
        &mut self,
        site: u64,
        taken: bool,
        wrong_path: &mut dyn FnMut(&mut dyn TaintSink<u64>),
    ) {
        if self.m.spec_enter(site, taken) {
            wrong_path(self);
            self.m.spec_exit(site);
        }
    }
}

/// FNV-1a over a stream of 64-bit words.
pub fn digest_u64<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for k in 0..8 {
            h ^= (w >> (8 * k)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A deterministic input generator (SplitMix64), used instead of `rand` in
/// kernel inputs so that workload crates stay dependency-light and inputs
/// are stable across `rand` versions.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        InputRng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.next_u64() % n
    }

    /// Uniform `i32` in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as u64) as i32
    }

    /// An in-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Formats a size the way the paper labels workloads (1000 → `1k`).
pub fn size_label(n: usize) -> String {
    if n % 1000 == 0 {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = digest_u64([1, 2, 3]);
        let b = digest_u64([3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, digest_u64([1, 2, 3]));
        assert_ne!(digest_u64([]), digest_u64([0]));
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = InputRng::new(42);
        let mut b = InputRng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(InputRng::new(1).next_u64(), InputRng::new(2).next_u64());
    }

    #[test]
    fn rng_ranges() {
        let mut r = InputRng::new(7);
        for _ in 0..100 {
            let v = r.below(10);
            assert!(v < 10);
            let v = r.range_i32(-5, 5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = InputRng::new(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<u32>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(1000), "1k");
        assert_eq!(size_label(8000), "8k");
        assert_eq!(size_label(128), "128");
    }
}
