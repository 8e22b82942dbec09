//! XOR cipher — the "nothing to linearize" control.
//!
//! `out[i] = in[i] ^ key[i % klen]`: every address is a public loop
//! counter, so constant-time programming changes nothing and every
//! strategy costs the same — the ≈1× bar at the right edge of Figure 9.

use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per element: index math, xor, loop.
const PER_ELEMENT_INSTS: u64 = 5;

/// The XOR workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorCipher {
    /// Message length in 32-bit words.
    pub words: usize,
    /// Key length in 32-bit words.
    pub key_words: usize,
    /// Input seed.
    pub seed: u64,
}

impl XorCipher {
    /// The secret message words.
    pub fn message(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed);
        (0..self.words).map(|_| rng.next_u64() as u32).collect()
    }

    /// The secret key words.
    pub fn key(&self) -> Vec<u32> {
        let mut rng = InputRng::new(self.seed ^ 0xff);
        (0..self.key_words).map(|_| rng.next_u64() as u32).collect()
    }

    /// The kernel, written once for every surface: public-address demand
    /// traffic over secret message and key *contents*. Returns the
    /// ciphertext.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let n = self.words as u64;
        let kn = self.key_words as u64;
        let input = s.alloc(n * 4);
        let karr = s.alloc(kn * 4);
        let output = s.alloc(n * 4);
        for (base, words) in [(input, self.message()), (karr, self.key())] {
            for (i, &v) in words.iter().enumerate() {
                s.poke(
                    base.offset(i as u64 * 4),
                    Width::U32,
                    &V::public(u64::from(v)),
                );
            }
        }
        s.mark_secret(input, n * 4);
        s.mark_secret(karr, kn * 4);
        for i in 0..n {
            let v = s.load(&elem_addr(input, &V::public(i), 4), Width::U32, "in[i]");
            let k = s.load(
                &elem_addr(karr, &V::public(i % kn), 4),
                Width::U32,
                "key[i % klen]",
            );
            s.exec(PER_ELEMENT_INSTS);
            s.store(
                &elem_addr(output, &V::public(i), 4),
                Width::U32,
                &v.xor(&k),
                "out[i]",
            );
        }
        (0..n)
            .map(|i| s.peek(output.offset(i * 4), Width::U32))
            .collect()
    }

    /// Runs the kernel; returns the ciphertext and counters.
    ///
    /// The `strategy` parameter is accepted for harness uniformity but has
    /// no effect: there are no secret-dependent addresses.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (ct, counters) = measure(m, strategy, |s| self.body(s));
        (ct.into_iter().map(|w| w as u32).collect(), counters)
    }
}

impl Default for XorCipher {
    fn default() -> Self {
        XorCipher {
            words: 256,
            key_words: 8,
            seed: 0x0a,
        }
    }
}

/// Plain-Rust reference.
pub fn reference(msg: &[u32], key: &[u32]) -> Vec<u32> {
    msg.iter()
        .enumerate()
        .map(|(i, &v)| v ^ key[i % key.len()])
        .collect()
}

impl Workload for XorCipher {
    fn name(&self) -> String {
        "XOR".into()
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (ct, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(ct.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.message(), &self.key())
            .into_iter()
            .map(u64::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_matches_reference() {
        let wl = XorCipher {
            words: 64,
            key_words: 4,
            seed: 1,
        };
        let expect = reference(&wl.message(), &wl.key());
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn strategy_has_no_cost_effect() {
        let wl = XorCipher::default();
        let mut a = Machine::insecure();
        let ra = wl.run(&mut a, Strategy::Insecure);
        let mut b = Machine::insecure();
        let rb = wl.run(&mut b, Strategy::software_ct());
        assert_eq!(ra.digest, rb.digest);
        assert_eq!(ra.counters.cycles, rb.counters.cycles);
    }

    #[test]
    fn xor_is_an_involution() {
        let wl = XorCipher {
            words: 32,
            key_words: 3,
            seed: 2,
        };
        let ct = reference(&wl.message(), &wl.key());
        let pt = reference(&ct, &wl.key());
        assert_eq!(pt, wl.message());
    }
}
