//! AES-128, T-table implementation (the classic cache-attack target, Bernstein 2005).
//!
//! The S-box is computed from first principles (inversion in GF(2⁸)
//! followed by the affine transform), the four encryption T-tables are
//! derived from it, and the tests cross-validate the T-table round against
//! a direct SubBytes/ShiftRows/MixColumns implementation.
//!
//! Secret-indexed memory accesses: rounds 1–9 index `Te0..Te3` (each
//! 256 × u32 = 1 KiB — the paper's §6.3 example: a dataflow linearization
//! set of 16 cache lines) and the final round indexes the S-box (256 B).
//! The key schedule runs at setup time (it touches only the key, whose
//! addresses are public).

// Round/index loops intentionally index several arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per T-table lookup: shifts, XOR, loop share.
const PER_LOOKUP_INSTS: u64 = 4;

/// Multiplication by x in GF(2^8) mod x^8 + x^4 + x^3 + x + 1.
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// Full GF(2^8) multiply.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// The AES S-box, computed (not transcribed): multiplicative inverse in
/// GF(2^8) followed by the affine transformation.
pub fn sbox() -> [u8; 256] {
    // Build inverses by brute force; 256x256 is trivial at setup time.
    let mut inv = [0u8; 256];
    for a in 1..=255u8 {
        for b in 1..=255u8 {
            if gmul(a, b) == 1 {
                inv[a as usize] = b;
                break;
            }
        }
    }
    let mut s = [0u8; 256];
    for x in 0..256 {
        let i = inv[x];
        let mut v = i;
        let mut r = i;
        for _ in 0..4 {
            r = r.rotate_left(1);
            v ^= r;
        }
        s[x] = v ^ 0x63;
    }
    s
}

/// The four encryption T-tables derived from the S-box.
pub fn t_tables(s: &[u8; 256]) -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    for x in 0..256 {
        let sv = s[x];
        let t0 = u32::from_be_bytes([gmul(sv, 2), sv, sv, gmul(sv, 3)]);
        te[0][x] = t0;
        te[1][x] = t0.rotate_right(8);
        te[2][x] = t0.rotate_right(16);
        te[3][x] = t0.rotate_right(24);
    }
    te
}

/// AES-128 key schedule: 11 round keys of four big-endian words.
pub fn key_schedule(s: &[u8; 256], key: &[u8; 16]) -> [[u32; 4]; 11] {
    let mut w = [0u32; 44];
    for (i, chunk) in key.chunks(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let mut rcon = 1u8;
    for i in 4..44 {
        let mut t = w[i - 1];
        if i % 4 == 0 {
            t = t.rotate_left(8);
            let b = t.to_be_bytes();
            t = u32::from_be_bytes([
                s[b[0] as usize],
                s[b[1] as usize],
                s[b[2] as usize],
                s[b[3] as usize],
            ]);
            t ^= (rcon as u32) << 24;
            rcon = xtime(rcon);
        }
        w[i] = w[i - 4] ^ t;
    }
    let mut rk = [[0u32; 4]; 11];
    for r in 0..11 {
        rk[r].copy_from_slice(&w[4 * r..4 * r + 4]);
    }
    rk
}

/// Host-side T-table encryption (the reference the machine run must match).
pub fn encrypt_ref(te: &[[u32; 256]; 4], s: &[u8; 256], rk: &[[u32; 4]; 11], block: u128) -> u128 {
    let mut st = [0u32; 4];
    for (i, v) in st.iter_mut().enumerate() {
        *v = ((block >> (96 - 32 * i)) & 0xffff_ffff) as u32 ^ rk[0][i];
    }
    for round in 1..10 {
        let mut next = [0u32; 4];
        for (i, n) in next.iter_mut().enumerate() {
            *n = te[0][(st[i] >> 24) as usize]
                ^ te[1][(st[(i + 1) % 4] >> 16 & 0xff) as usize]
                ^ te[2][(st[(i + 2) % 4] >> 8 & 0xff) as usize]
                ^ te[3][(st[(i + 3) % 4] & 0xff) as usize]
                ^ rk[round][i];
        }
        st = next;
    }
    let mut out = 0u128;
    for i in 0..4 {
        let w = u32::from_be_bytes([
            s[(st[i] >> 24) as usize],
            s[(st[(i + 1) % 4] >> 16 & 0xff) as usize],
            s[(st[(i + 2) % 4] >> 8 & 0xff) as usize],
            s[(st[(i + 3) % 4] & 0xff) as usize],
        ]) ^ rk[10][i];
        out = (out << 32) | w as u128;
    }
    out
}

/// The AES workload: encrypts `blocks` counter blocks under a secret key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aes {
    /// Number of 16-byte blocks encrypted per run.
    pub blocks: usize,
    /// Key seed.
    pub seed: u64,
}

impl Aes {
    /// Key bytes derived from the seed.
    pub fn key(&self) -> [u8; 16] {
        let mut k = [0u8; 16];
        let mut rng = crate::run::InputRng::new(self.seed);
        for b in &mut k {
            *b = rng.below(256) as u8;
        }
        k
    }

    /// The counter blocks encrypted by run `blk`.
    fn block(blk: u128) -> u128 {
        blk.wrapping_mul(0x0123_4567_89ab_cdef_fedc_ba98_7654_3211)
    }

    /// The kernel, written once for every surface. The key schedule runs
    /// host-side; the round keys enter as secrets. Returns each
    /// ciphertext block as its low then high 64-bit word.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let sb = sbox();
        let te = t_tables(&sb);
        let te_tables: Vec<SimTable> = te
            .iter()
            .map(|t| SimTable::public(s, Width::U32, t.iter().map(|&x| u64::from(x))))
            .collect();
        let s_table = SimTable::public(s, Width::U8, sb.iter().map(|&x| u64::from(x)));
        let rk: Vec<V> = secrets(
            s,
            key_schedule(&sb, &self.key())
                .iter()
                .flatten()
                .map(|&w| u64::from(w)),
            "AES-128 round keys",
        );
        let byte = |x: &V, sh: u32| x.shr(sh).and(&V::public(0xff));

        let mut out = Vec::with_capacity(2 * self.blocks);
        for blk in 0..self.blocks as u128 {
            let block = Self::block(blk);
            let mut st = Vec::with_capacity(4);
            for i in 0..4 {
                let w = ((block >> (96 - 32 * i)) & 0xffff_ffff) as u64;
                st.push(V::public(w).xor(&rk[i]));
                s.exec(2);
            }
            for round in 1..10 {
                let mut next = Vec::with_capacity(4);
                for i in 0..4 {
                    let t0 = te_tables[0].lookup(s, &st[i].shr(24), "Te lookup");
                    let t1 = te_tables[1].lookup(s, &byte(&st[(i + 1) % 4], 16), "Te lookup");
                    let t2 = te_tables[2].lookup(s, &byte(&st[(i + 2) % 4], 8), "Te lookup");
                    let t3 = te_tables[3].lookup(s, &byte(&st[(i + 3) % 4], 0), "Te lookup");
                    s.exec(4 * PER_LOOKUP_INSTS);
                    next.push(t0.xor(&t1).xor(&t2).xor(&t3).xor(&rk[4 * round + i]));
                }
                st = next;
            }
            let mut w = Vec::with_capacity(4);
            for i in 0..4 {
                let b0 = s_table.lookup(s, &st[i].shr(24), "final S-box lookup");
                let b1 = s_table.lookup(s, &byte(&st[(i + 1) % 4], 16), "final S-box lookup");
                let b2 = s_table.lookup(s, &byte(&st[(i + 2) % 4], 8), "final S-box lookup");
                let b3 = s_table.lookup(s, &byte(&st[(i + 3) % 4], 0), "final S-box lookup");
                s.exec(4 * PER_LOOKUP_INSTS);
                let bytes = V::lift([&b0, &b1, &b2, &b3], |b| {
                    u64::from(u32::from_be_bytes(b.map(|x| x as u8)))
                });
                w.push(bytes.xor(&rk[40 + i]));
            }
            out.push(w[2].shl(32).or(&w[3]));
            out.push(w[0].shl(32).or(&w[1]));
        }
        out
    }

    /// Runs the kernel, returning the ciphertext blocks and counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u128>, Counters) {
        let (words, counters) = measure(m, strategy, |s| self.body(s));
        let blocks = words
            .chunks(2)
            .map(|w| u128::from(w[0]) | u128::from(w[1]) << 64)
            .collect();
        (blocks, counters)
    }
}

impl Default for Aes {
    fn default() -> Self {
        Aes {
            blocks: 4,
            seed: 0xae5,
        }
    }
}

impl Workload for Aes {
    fn name(&self) -> String {
        "AES".into()
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (ct, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(ct.into_iter().flat_map(|c| [c as u64, (c >> 64) as u64])),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        let sb = sbox();
        let te = t_tables(&sb);
        let rk = key_schedule(&sb, &self.key());
        (0..self.blocks as u128)
            .map(|blk| encrypt_ref(&te, &sb, &rk, Self::block(blk)))
            .flat_map(|c| [c as u64, (c >> 64) as u64])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_matches_known_values() {
        let s = sbox();
        // Canonical AES S-box spot values.
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7c);
        assert_eq!(s[0x53], 0xed);
        assert_eq!(s[0xff], 0x16);
        // The S-box is a permutation.
        let mut seen = [false; 256];
        for &v in &s {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fips197_known_answer() {
        // FIPS-197 appendix B: key 2b7e...; plaintext 3243f6a8885a308d313198a2e0370734.
        let s = sbox();
        let te = t_tables(&s);
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = key_schedule(&s, &key);
        let pt = 0x3243f6a8885a308d313198a2e0370734u128;
        let ct = encrypt_ref(&te, &s, &rk, pt);
        assert_eq!(ct, 0x3925841d02dc09fbdc118597196a0b32);
    }

    #[test]
    fn machine_run_matches_reference() {
        let wl = Aes { blocks: 2, seed: 7 };
        let s = sbox();
        let te = t_tables(&s);
        let rk = key_schedule(&s, &wl.key());
        let expect: Vec<u128> = (0..2u128)
            .map(|b| {
                encrypt_ref(
                    &te,
                    &s,
                    &rk,
                    b.wrapping_mul(0x0123_4567_89ab_cdef_fedc_ba98_7654_3211),
                )
            })
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn t_table_round_equals_first_principles() {
        // One round of T-table lookups must equal SubBytes + ShiftRows +
        // MixColumns on a random state.
        let s = sbox();
        let te = t_tables(&s);
        let st: [u32; 4] = [0x19a09ae9, 0x3df4c6f8, 0xe3e28d48, 0xbe2b2a08];
        // T-table round output (zero round key).
        let mut ttab = [0u32; 4];
        for (i, t) in ttab.iter_mut().enumerate() {
            *t = te[0][(st[i] >> 24) as usize]
                ^ te[1][(st[(i + 1) % 4] >> 16 & 0xff) as usize]
                ^ te[2][(st[(i + 2) % 4] >> 8 & 0xff) as usize]
                ^ te[3][(st[(i + 3) % 4] & 0xff) as usize];
        }
        // First-principles: state as 4x4 column-major byte matrix.
        let mut b = [[0u8; 4]; 4]; // b[row][col]
        for col in 0..4 {
            let w = st[col].to_be_bytes();
            for row in 0..4 {
                b[row][col] = w[row];
            }
        }
        // SubBytes + ShiftRows.
        let mut sh = [[0u8; 4]; 4];
        for row in 0..4 {
            for col in 0..4 {
                sh[row][col] = s[b[row][(col + row) % 4] as usize];
            }
        }
        // MixColumns.
        let mut direct = [0u32; 4];
        for col in 0..4 {
            let a = [sh[0][col], sh[1][col], sh[2][col], sh[3][col]];
            let w = [
                gmul(a[0], 2) ^ gmul(a[1], 3) ^ a[2] ^ a[3],
                a[0] ^ gmul(a[1], 2) ^ gmul(a[2], 3) ^ a[3],
                a[0] ^ a[1] ^ gmul(a[2], 2) ^ gmul(a[3], 3),
                gmul(a[0], 3) ^ a[1] ^ a[2] ^ gmul(a[3], 2),
            ];
            direct[col] = u32::from_be_bytes(w);
        }
        assert_eq!(ttab, direct);
    }

    #[test]
    fn gf_arithmetic() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS-197 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }
}
