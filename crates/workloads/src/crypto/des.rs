//! DES and 3DES — Feistel-structure-faithful implementation.
//!
//! The genuine DES data flow: a 16-round Feistel network whose round
//! function expands the 32-bit half to 48 bits, XORs a round key, and runs
//! the result through **eight S-boxes** — the secret-indexed table lookups
//! that form the cache side channel. Each S-box here is 64 × 4-bit entries
//! stored one byte per entry (64 B = one cache line... the paper's
//! line-granular attacker cannot resolve within it, which is why DES shows
//! tiny linearization overhead in Figure 9).
//!
//! Substitutions (DESIGN.md §2): the S-box *contents* are seeded balanced
//! permutations rather than the published constants, and the bit
//! permutations (IP/E/P/PC1/PC2) run host-side in registers, as hardened
//! bitslice-style implementations do. Cache behaviour — eight one-line
//! secret lookups per round, 16 rounds per block, ×3 for 3DES — is exact.

// Round/index loops intentionally index several arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per round besides the lookups: expansion, XOR,
/// permutation, swap.
const PER_ROUND_INSTS: u64 = 18;

/// Seeded 8 × 64-entry S-boxes; each is a balanced mapping onto 4-bit
/// values (each output nibble appears exactly four times, like real DES).
pub fn sboxes(seed: u64) -> [[u8; 64]; 8] {
    let mut rng = InputRng::new(seed);
    let mut out = [[0u8; 64]; 8];
    for sb in &mut out {
        let mut vals: Vec<u8> = (0..64).map(|i| (i % 16) as u8).collect();
        rng.shuffle(&mut vals);
        sb.copy_from_slice(&vals);
    }
    out
}

/// The register-side expansion E: 32 → 48 bits (adjacent-bit overlap like
/// real DES: each 4-bit block is flanked by its neighbours' edge bits).
fn expand(r: u32) -> u64 {
    let mut out = 0u64;
    for chunk in 0..8 {
        let lo = (chunk * 4) as u32;
        // bits lo-1 .. lo+4 (wrapping), 6 bits total.
        let mut six = 0u64;
        for k in 0..6u32 {
            let bit = (lo + 31 + k) % 32; // lo-1+k mod 32
            six |= (((r >> bit) & 1) as u64) << k;
        }
        out |= six << (chunk * 6);
    }
    out
}

/// The register-side P permutation: a fixed bit rotation/mix (public).
fn permute_p(x: u32) -> u32 {
    x.rotate_left(11) ^ x.rotate_left(19) ^ x.rotate_left(29)
}

/// Derives 16 48-bit round keys from a 64-bit key (rotation schedule,
/// register-side).
pub fn round_keys(key: u64) -> [u64; 16] {
    let mut rk = [0u64; 16];
    let mut state = key ^ 0x0123_4567_89ab_cdef;
    for (i, k) in rk.iter_mut().enumerate() {
        state = state.rotate_left(if i % 2 == 0 { 1 } else { 2 })
            ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        *k = state & 0xffff_ffff_ffff; // 48 bits
    }
    rk
}

/// Host-side reference for one DES block.
pub fn encrypt_ref(s: &[[u8; 64]; 8], rk: &[u64; 16], block: u64) -> u64 {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    for k in rk {
        let x = expand(r) ^ k;
        let mut f = 0u32;
        for chunk in 0..8 {
            let six = (x >> (6 * chunk)) & 0x3f;
            f |= (s[chunk][six as usize] as u32) << (4 * chunk);
        }
        f = permute_p(f);
        let nl = r;
        r = l ^ f;
        l = nl;
    }
    ((r as u64) << 32) | l as u64 // final swap
}

/// Host-side reference for a 3DES (EDE with three independent schedules)
/// block. All three passes run the encryption network — the access pattern,
/// which is what the benchmark measures, is identical for the decrypt
/// direction.
pub fn encrypt3_ref(s: &[[u8; 64]; 8], rks: &[[u64; 16]; 3], block: u64) -> u64 {
    let a = encrypt_ref(s, &rks[0], block);
    let b = encrypt_ref(s, &rks[1], a);
    encrypt_ref(s, &rks[2], b)
}

/// The eight S-boxes in memory, one line each.
fn sbox_tables<V: Value, S: TaintSink<V> + ?Sized>(s: &mut S, seed: u64) -> Vec<SimTable> {
    sboxes(seed)
        .iter()
        .map(|sb| SimTable::public(s, Width::U8, sb.map(u64::from)))
        .collect()
}

/// One block encryption under the (secret) round keys `rk`.
fn encrypt<V: Value, S: TaintSink<V> + ?Sized>(
    tables: &[SimTable],
    s: &mut S,
    rk: &[V],
    block: &V,
) -> V {
    let (mut l, mut r) = (block.shr(32), block.and(&V::public(0xffff_ffff)));
    for k in rk {
        let x = V::lift([&r], |[r]| expand(r as u32)).xor(k);
        let mut f = V::public(0);
        for (chunk, table) in tables.iter().enumerate() {
            let six = x.shr(6 * chunk as u32).and(&V::public(0x3f));
            f = f.or(&table
                .lookup(s, &six, "DES S-box lookup")
                .shl(4 * chunk as u32));
        }
        s.exec(PER_ROUND_INSTS);
        f = V::lift([&f], |[f]| u64::from(permute_p(f as u32)));
        let nl = r;
        r = l.xor(&f);
        l = nl;
    }
    r.shl(32).or(&l)
}

/// The DES workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Des {
    /// Blocks encrypted per run.
    pub blocks: usize,
    /// Key seed.
    pub seed: u64,
    /// S-box substitution seed.
    pub table_seed: u64,
}

impl Des {
    fn key(&self) -> u64 {
        InputRng::new(self.seed).next_u64()
    }

    /// The block encrypted by run `b`.
    fn block(b: u64) -> u64 {
        b.wrapping_mul(0xdeadbeef_12345677)
    }

    /// The kernel, written once for every surface: the round keys enter
    /// as secrets. Returns the ciphertext blocks.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let tables = sbox_tables(s, self.table_seed);
        let rk: Vec<V> = secrets(s, round_keys(self.key()), "DES key");
        (0..self.blocks as u64)
            .map(|b| encrypt(&tables, s, &rk, &V::public(Self::block(b))))
            .collect()
    }

    /// Runs the kernel; returns ciphertext blocks and counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u64>, Counters) {
        measure(m, strategy, |s| self.body(s))
    }
}

impl Default for Des {
    fn default() -> Self {
        Des {
            blocks: 8,
            seed: 0xde5,
            table_seed: 0x5b0c,
        }
    }
}

impl Workload for Des {
    fn name(&self) -> String {
        "DES".into()
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (ct, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(ct),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        let (sb, rk) = (sboxes(self.table_seed), round_keys(self.key()));
        (0..self.blocks as u64)
            .map(|b| encrypt_ref(&sb, &rk, Self::block(b)))
            .collect()
    }
}

/// The 3DES (EDE) workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Des3 {
    /// Blocks encrypted per run.
    pub blocks: usize,
    /// Key seed.
    pub seed: u64,
    /// S-box substitution seed.
    pub table_seed: u64,
}

impl Des3 {
    fn keys(&self) -> [u64; 3] {
        let mut rng = InputRng::new(self.seed);
        [rng.next_u64(), rng.next_u64(), rng.next_u64()]
    }

    /// The block encrypted by run `b`.
    fn block(b: u64) -> u64 {
        b.wrapping_mul(0x0bad_cafe_dead_f00d)
    }

    /// The kernel, written once for every surface: three passes under
    /// three secret key schedules. Returns the ciphertext blocks.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let tables = sbox_tables(s, self.table_seed);
        let rks: Vec<Vec<V>> = self
            .keys()
            .iter()
            .map(|&k| secrets(s, round_keys(k), "DES key"))
            .collect();
        (0..self.blocks as u64)
            .map(|b| {
                rks.iter().fold(V::public(Self::block(b)), |x, rk| {
                    encrypt(&tables, s, rk, &x)
                })
            })
            .collect()
    }

    /// Runs the kernel; returns ciphertext blocks and counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u64>, Counters) {
        measure(m, strategy, |s| self.body(s))
    }
}

impl Default for Des3 {
    fn default() -> Self {
        Des3 {
            blocks: 4,
            seed: 0xde53,
            table_seed: 0x5b0c,
        }
    }
}

impl Workload for Des3 {
    fn name(&self) -> String {
        "DES3".into()
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (ct, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(ct),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        let sb = sboxes(self.table_seed);
        let rks = self.keys().map(round_keys);
        (0..self.blocks as u64)
            .map(|b| encrypt3_ref(&sb, &rks, Self::block(b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sboxes_are_balanced() {
        for sb in sboxes(1) {
            let mut counts = [0u8; 16];
            for v in sb {
                assert!(v < 16);
                counts[v as usize] += 1;
            }
            assert!(counts.iter().all(|&c| c == 4), "each nibble appears 4x");
        }
    }

    #[test]
    fn expansion_produces_48_bits_using_every_input_bit() {
        let full = expand(u32::MAX);
        assert_eq!(full, (1u64 << 48) - 1);
        assert_eq!(expand(0), 0);
        // Every input bit influences the output.
        for bit in 0..32 {
            assert_ne!(expand(1 << bit), 0, "bit {bit}");
        }
    }

    #[test]
    fn machine_matches_reference() {
        let wl = Des {
            blocks: 3,
            seed: 9,
            table_seed: 0x5b0c,
        };
        let s = sboxes(wl.table_seed);
        let rk = round_keys(InputRng::new(9).next_u64());
        let expect: Vec<u64> = (0..3u64)
            .map(|b| encrypt_ref(&s, &rk, b.wrapping_mul(0xdeadbeef_12345677)))
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn des3_matches_composition() {
        let wl = Des3 {
            blocks: 2,
            seed: 3,
            table_seed: 0x5b0c,
        };
        let s = sboxes(wl.table_seed);
        let rks_vec: Vec<[u64; 16]> = wl.keys().iter().map(|&k| round_keys(k)).collect();
        let rks: [[u64; 16]; 3] = [rks_vec[0], rks_vec[1], rks_vec[2]];
        let expect: Vec<u64> = (0..2u64)
            .map(|b| encrypt3_ref(&s, &rks, b.wrapping_mul(0x0bad_cafe_dead_f00d)))
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn different_keys_differ() {
        let s = sboxes(0);
        assert_ne!(
            encrypt_ref(&s, &round_keys(1), 42),
            encrypt_ref(&s, &round_keys(2), 42)
        );
    }
}
