//! Blowfish — structure-faithful implementation.
//!
//! The genuine Blowfish data flow: an 18-entry P-array and four
//! 256-entry × u32 S-boxes (1 KiB each); a 16-round Feistel network whose
//! round function makes four secret-byte-indexed S-box lookups; and the
//! famously expensive key schedule that re-encrypts a zero block 521 times
//! to overwrite P and all four S-boxes. The paper (§7.3.3) singles this
//! setup phase out: its thousands of secret-indexed lookups are why
//! Blowfish benefits from the BIA while AES does not.
//!
//! Substitution (DESIGN.md §2): the published π-digit initial constants are
//! replaced by seeded pseudo-random values with identical table shapes —
//! cache behaviour depends only on table sizes and access sequences.
//!
//! P-array accesses use public indices (the round counter), so P lives in
//! host registers/stack as a constant-time implementation would keep it;
//! the S-boxes live in simulated memory and every read is secret-indexed.

// Round/index loops intentionally index several arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per round: XORs, adds, byte extraction, loop share.
const PER_ROUND_INSTS: u64 = 10;

/// Seeded stand-ins for the π-digit initial P and S values.
fn initial_tables(seed: u64) -> ([u32; 18], [[u32; 256]; 4]) {
    let mut rng = InputRng::new(seed);
    let mut p = [0u32; 18];
    for v in &mut p {
        *v = rng.next_u64() as u32;
    }
    let mut s = [[0u32; 256]; 4];
    for sb in &mut s {
        for v in sb.iter_mut() {
            *v = rng.next_u64() as u32;
        }
    }
    (p, s)
}

/// A host-side Blowfish state (the reference model).
#[derive(Debug, Clone)]
pub struct BlowfishRef {
    p: [u32; 18],
    s: [[u32; 256]; 4],
}

impl BlowfishRef {
    /// Expands `key` from the seeded initial tables.
    pub fn new(table_seed: u64, key: &[u8]) -> Self {
        let (mut p, s) = initial_tables(table_seed);
        for (i, v) in p.iter_mut().enumerate() {
            let mut k = 0u32;
            for j in 0..4 {
                k = (k << 8) | key[(4 * i + j) % key.len()] as u32;
            }
            *v ^= k;
        }
        let mut st = BlowfishRef { p, s };
        let (mut l, mut r) = (0u32, 0u32);
        for i in (0..18).step_by(2) {
            (l, r) = st.encrypt_block(l, r);
            st.p[i] = l;
            st.p[i + 1] = r;
        }
        for sb in 0..4 {
            for k in (0..256).step_by(2) {
                (l, r) = st.encrypt_block(l, r);
                st.s[sb][k] = l;
                st.s[sb][k + 1] = r;
            }
        }
        st
    }

    fn f(&self, x: u32) -> u32 {
        let a = (x >> 24) as usize;
        let b = (x >> 16 & 0xff) as usize;
        let c = (x >> 8 & 0xff) as usize;
        let d = (x & 0xff) as usize;
        (self.s[0][a].wrapping_add(self.s[1][b]) ^ self.s[2][c]).wrapping_add(self.s[3][d])
    }

    /// Encrypts one 64-bit block given as two halves.
    pub fn encrypt_block(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in 0..16 {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        (r ^ self.p[17], l ^ self.p[16])
    }
}

/// The Blowfish workload: key schedule plus `blocks` block encryptions,
/// all inside the measured region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blowfish {
    /// Data blocks encrypted after the key schedule.
    pub blocks: usize,
    /// Key seed.
    pub seed: u64,
    /// Seed for the initial-table substitution.
    pub table_seed: u64,
}

impl Blowfish {
    /// The secret key bytes (16).
    pub fn key(&self) -> Vec<u8> {
        let mut rng = InputRng::new(self.seed);
        (0..16).map(|_| rng.below(256) as u8).collect()
    }

    /// The round function F: four secret-byte-indexed S-box lookups.
    fn f<V: Value, S: TaintSink<V> + ?Sized>(sb: &[SimTable; 4], s: &mut S, x: &V) -> V {
        let byte = V::public(0xff);
        let v0 = sb[0].lookup(s, &x.shr(24), "S-box F lookup");
        let v1 = sb[1].lookup(s, &x.shr(16).and(&byte), "S-box F lookup");
        let v2 = sb[2].lookup(s, &x.shr(8).and(&byte), "S-box F lookup");
        let v3 = sb[3].lookup(s, &x.and(&byte), "S-box F lookup");
        s.exec(PER_ROUND_INSTS);
        V::lift([&v0, &v1, &v2, &v3], |v| {
            let [a, b, c, d] = v.map(|x| x as u32);
            u64::from((a.wrapping_add(b) ^ c).wrapping_add(d))
        })
    }

    /// One block encryption against the in-memory S-boxes.
    fn encrypt<V: Value, S: TaintSink<V> + ?Sized>(
        p: &[V],
        sb: &[SimTable; 4],
        s: &mut S,
        mut l: V,
        mut r: V,
    ) -> (V, V) {
        for pi in &p[..16] {
            l = l.xor(pi);
            r = r.xor(&Self::f(sb, s, &l));
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        (r.xor(&p[17]), l.xor(&p[16]))
    }

    /// The kernel, written once for every surface: the whole key
    /// schedule (the phase §7.3.3 highlights) then `blocks` data blocks.
    /// Returns the ciphertext halves.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let key: Vec<V> = secrets(s, self.key().into_iter().map(u64::from), "Blowfish key");
        let (p0, s0) = initial_tables(self.table_seed);
        let sb: [SimTable; 4] =
            std::array::from_fn(|k| SimTable::public(s, Width::U32, s0[k].map(u64::from)));

        // Key schedule.
        let mut p: Vec<V> = p0.iter().map(|&v| V::public(u64::from(v))).collect();
        for (i, v) in p.iter_mut().enumerate() {
            let k: [&V; 4] = std::array::from_fn(|j| &key[(4 * i + j) % key.len()]);
            let k = V::lift(k, |b| b.iter().fold(0, |k, &b| (k << 8) | b));
            *v = v.xor(&k);
            s.exec(6);
        }
        let (mut l, mut r) = (V::public(0), V::public(0));
        for i in (0..18).step_by(2) {
            (l, r) = Self::encrypt(&p, &sb, s, l, r);
            p[i] = l.clone();
            p[i + 1] = r.clone();
        }
        for t in &sb {
            for k in (0..256u64).step_by(2) {
                (l, r) = Self::encrypt(&p, &sb, s, l, r);
                t.store_public(s, k, &l, "S-box rewrite");
                t.store_public(s, k + 1, &r, "S-box rewrite");
            }
        }
        // Data encryption.
        let mut out = Vec::with_capacity(2 * self.blocks);
        for b in 0..self.blocks as u32 {
            let (cl, cr) = Self::encrypt(
                &p,
                &sb,
                s,
                V::public(u64::from(b.wrapping_mul(0x9e3779b9))),
                V::public(u64::from(!b)),
            );
            out.push(cl);
            out.push(cr);
        }
        out
    }

    /// Runs the kernel; returns ciphertext halves and counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (ct, counters) = measure(m, strategy, |s| self.body(s));
        (ct.into_iter().map(|h| h as u32).collect(), counters)
    }
}

impl Default for Blowfish {
    fn default() -> Self {
        Blowfish {
            blocks: 4,
            seed: 0xb1f,
            table_seed: 0x31415926,
        }
    }
}

impl Workload for Blowfish {
    fn name(&self) -> String {
        "Blowfish".into()
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
        let st = BlowfishRef::new(self.table_seed, &self.key());
        (0..self.blocks as u32)
            .flat_map(|b| {
                let (l, r) = st.encrypt_block(b.wrapping_mul(0x9e3779b9), !b);
                [u64::from(l), u64::from(r)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_run_matches_reference() {
        let wl = Blowfish {
            blocks: 3,
            seed: 5,
            table_seed: 0x31415926,
        };
        let st = BlowfishRef::new(wl.table_seed, &wl.key());
        let expect: Vec<u32> = (0..3u32)
            .flat_map(|b| {
                let (l, r) = st.encrypt_block(b.wrapping_mul(0x9e3779b9), !b);
                [l, r]
            })
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn encryption_is_key_dependent_and_nontrivial() {
        let a = BlowfishRef::new(1, b"0123456789abcdef");
        let b = BlowfishRef::new(1, b"0123456789abcdeg");
        assert_ne!(a.encrypt_block(0, 0), b.encrypt_block(0, 0));
        assert_ne!(a.encrypt_block(0, 0), (0, 0));
        // Deterministic.
        assert_eq!(a.encrypt_block(7, 9), a.encrypt_block(7, 9));
    }

    #[test]
    fn key_schedule_rewrites_all_tables() {
        let (p0, s0) = initial_tables(2);
        let st = BlowfishRef::new(2, b"some key bytes!!");
        assert_ne!(st.p, p0);
        for i in 0..4 {
            assert_ne!(st.s[i], s0[i], "S-box {i} must be rewritten");
        }
    }
}
