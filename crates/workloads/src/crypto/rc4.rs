//! ARC4 (RC4) — genuine algorithm.
//!
//! The 256-byte state array `S` is read and written at secret indices in
//! both the key schedule (`j` accumulates key bytes) and the PRGA (`j` and
//! `S[i]+S[j]`). Sequential accesses at the public index `i` stay direct;
//! every `j`/`t`-indexed access is routed through the [`Strategy`]. The DS
//! is the whole state array — only 4 cache lines, the "small DS" regime of
//! the paper's §6.3 where the BIA's per-page preprocessing can cost more
//! than it saves.

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per RC4 step (index arithmetic, masking, loop).
const PER_STEP_INSTS: u64 = 6;

/// The ARC4 workload: key-schedule plus `stream_len` keystream bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rc4 {
    /// Key length in bytes.
    pub key_len: usize,
    /// Keystream bytes generated per run.
    pub stream_len: usize,
    /// Key seed.
    pub seed: u64,
}

impl Rc4 {
    /// The secret key bytes.
    pub fn key(&self) -> Vec<u8> {
        let mut rng = InputRng::new(self.seed);
        (0..self.key_len).map(|_| rng.below(256) as u8).collect()
    }

    /// The kernel, written once for every surface: the KSA then
    /// `stream_len` PRGA steps. Returns the keystream bytes.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let key: Vec<V> = secrets(s, self.key().into_iter().map(u64::from), "ARC4 key");
        let st = SimTable::public(s, Width::U8, 0..256);
        let byte = V::public(255);

        // KSA.
        let mut j = V::public(0);
        for i in 0..256u64 {
            let si = st.lookup_public(s, i, "S[i]");
            j = j.add(&si).add(&key[i as usize % key.len()]).and(&byte);
            s.exec(PER_STEP_INSTS);
            let sj = st.lookup(s, &j, "S[j]");
            st.store_public(s, i, &sj, "S[i] = S[j]");
            st.store(s, &j, &si, "S[j] = S[i]");
        }
        // PRGA.
        let mut out = Vec::with_capacity(self.stream_len);
        let mut i = 0u64;
        let mut j = V::public(0);
        for _ in 0..self.stream_len {
            i = (i + 1) & 255;
            let si = st.lookup_public(s, i, "S[i]");
            j = j.add(&si).and(&byte);
            s.exec(PER_STEP_INSTS);
            let sj = st.lookup(s, &j, "S[j]");
            st.store_public(s, i, &sj, "S[i] = S[j]");
            st.store(s, &j, &si, "S[j] = S[i]");
            let t = si.add(&sj).and(&byte);
            out.push(st.lookup(s, &t, "S[t] keystream"));
        }
        out
    }

    /// Runs the kernel, returning the keystream and counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u8>, Counters) {
        let (ks, counters) = measure(m, strategy, |s| self.body(s));
        (ks.into_iter().map(|b| b as u8).collect(), counters)
    }
}

impl Default for Rc4 {
    fn default() -> Self {
        Rc4 {
            key_len: 16,
            stream_len: 64,
            seed: 0xac4,
        }
    }
}

/// Plain-Rust RC4 reference.
pub fn reference(key: &[u8], stream_len: usize) -> Vec<u8> {
    let mut s: Vec<u8> = (0..=255).collect();
    let mut j = 0u8;
    for i in 0..256usize {
        j = j.wrapping_add(s[i]).wrapping_add(key[i % key.len()]);
        s.swap(i, j as usize);
    }
    let (mut i, mut j) = (0u8, 0u8);
    (0..stream_len)
        .map(|_| {
            i = i.wrapping_add(1);
            j = j.wrapping_add(s[i as usize]);
            s.swap(i as usize, j as usize);
            s[(s[i as usize].wrapping_add(s[j as usize])) as usize]
        })
        .collect()
}

impl Workload for Rc4 {
    fn name(&self) -> String {
        "ARC4".into()
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (ks, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(ks.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.key(), self.stream_len)
            .into_iter()
            .map(u64::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc4_known_answer() {
        // Wikipedia test vector: key "Key" -> keystream EB9F7781B734CA72A719...
        let ks = reference(b"Key", 10);
        assert_eq!(
            ks,
            [0xEB, 0x9F, 0x77, 0x81, 0xB7, 0x34, 0xCA, 0x72, 0xA7, 0x19]
        );
        // Key "Wiki" -> 6044DB6D41B7...
        let ks = reference(b"Wiki", 6);
        assert_eq!(ks, [0x60, 0x44, 0xDB, 0x6D, 0x41, 0xB7]);
    }

    #[test]
    fn machine_run_matches_reference() {
        let wl = Rc4 {
            key_len: 8,
            stream_len: 32,
            seed: 77,
        };
        let expect = reference(&wl.key(), 32);
        let mut m = Machine::insecure();
        let (ks, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ks, expect);
        let mut m = Machine::insecure();
        let (ks, _) = wl.run_full(&mut m, Strategy::software_ct());
        assert_eq!(ks, expect);
    }
}
