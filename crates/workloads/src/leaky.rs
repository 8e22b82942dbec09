//! An **intentionally leaky** binary search — the verifier's negative
//! control.
//!
//! Identical to [`crate::binary_search::BinarySearch`] except for one
//! line: the probe load is a *raw demand load* at the secret-derived
//! midpoint address, ignoring the configured [`Strategy`] entirely.
//! This is exactly the bug class the verification layer exists to
//! catch — a secret reaching a raw address computation — so:
//!
//! * the trace-equivalence oracle must see **divergent** observation
//!   traces across secret pairs (the probe addresses follow the
//!   comparison trace), and
//! * the taint sanitizer must raise at least one
//!   [`ctbia_core::taint::LeakKind::RawAddress`] violation with a
//!   provenance chain rooted at the search key.
//!
//! Outputs still match [`crate::binary_search::reference`] — the leak
//! is a side channel, not a wrong answer — which is what makes it a
//! useful control: every *functional* check passes while every
//! *security* check must fail.

use crate::binary_search::BinarySearch;
use crate::run::{digest_u64, measure, size_label, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::sink::TaintSink;
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// The leaky negative-control workload. Wraps a [`BinarySearch`] for
/// its inputs; `strategy` is accepted but deliberately not honoured by
/// the probe load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakyBinarySearch {
    /// The underlying search parameters (array, keys, probe count).
    pub inner: BinarySearch,
}

impl LeakyBinarySearch {
    /// A leaky search over `size` elements, 20 searches, default seed.
    pub fn new(size: usize) -> Self {
        LeakyBinarySearch {
            inner: BinarySearch::new(size),
        }
    }

    /// Runs the kernel; returns the lower-bound index per key plus the
    /// measured counters. The probe is a raw demand load — the leak: its
    /// line address enters the cache state and the demand trace.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (idx, counters) = measure(m, strategy, |s| self.inner.search(s, true));
        (idx.into_iter().map(|i| i as u32).collect(), counters)
    }
}

impl Workload for LeakyBinarySearch {
    fn name(&self) -> String {
        format!("leaky-bin_{}", size_label(self.inner.size))
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (idx, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(idx.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.inner.search(s, true)
    }

    fn reference(&self) -> Vec<u64> {
        self.inner.reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary_search::reference;

    #[test]
    fn outputs_match_reference_despite_the_leak() {
        let wl = LeakyBinarySearch::new(500);
        let expect = reference(&wl.inner.array(), &wl.inner.keys());
        let mut m = Machine::insecure();
        let (idx, _) = wl.run_full(&mut m, Strategy::software_ct());
        assert_eq!(idx, expect);
    }

    #[test]
    fn demand_trace_depends_on_the_secret() {
        let trace_for = |seed: u64| {
            let wl = LeakyBinarySearch {
                inner: BinarySearch {
                    seed,
                    ..BinarySearch::new(500)
                },
            };
            let mut m = Machine::insecure();
            m.enable_observation();
            let _ = wl.run_full(&mut m, Strategy::software_ct());
            m.take_observation()
        };
        let a = trace_for(1);
        let b = trace_for(2);
        assert!(
            a.first_divergence(&b).is_some(),
            "different keys must probe different lines"
        );
    }

    #[test]
    fn name_is_distinct() {
        assert_eq!(LeakyBinarySearch::new(2000).name(), "leaky-bin_2k");
    }
}
