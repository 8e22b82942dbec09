//! ARC2 (RC2) — structure-faithful implementation.
//!
//! The genuine RC2 data flow: key expansion walks a 256-byte PITABLE at
//! secret indices (each expanded byte indexes the table with a sum/xor of
//! earlier key bytes), then encryption runs MIX rounds (register-only
//! add/rotate) interleaved with two MASH rounds that index the 64-entry
//! expanded-key table with a secret word. PITABLE *contents* are seeded
//! (DESIGN.md §2); the published table is a permutation of 0..255 and so is
//! this one.

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per MIX quarter-round.
const PER_MIX_INSTS: u64 = 6;

/// Seeded PITABLE: a permutation of 0..=255, like the published one.
pub fn pitable(seed: u64) -> [u8; 256] {
    let mut t: Vec<u8> = (0..=255).collect();
    InputRng::new(seed).shuffle(&mut t);
    let mut out = [0u8; 256];
    out.copy_from_slice(&t);
    out
}

/// Host-side key expansion: 16 key bytes → 64 16-bit words (T1 = 1024
/// effective bits, T8 = 128, TM = 255 — the full-strength parameters).
pub fn expand_key_ref(pi: &[u8; 256], key: &[u8; 16]) -> [u16; 64] {
    let mut l = [0u8; 128];
    l[..16].copy_from_slice(key);
    for i in 16..128 {
        l[i] = pi[(l[i - 1].wrapping_add(l[i - 16])) as usize];
    }
    // T8 = 128 bits / 8 = 16; the backward pass starts at 128 - 16 - 1.
    l[111] = pi[l[111] as usize];
    for i in (0..111).rev() {
        l[i] = pi[(l[i + 1] ^ l[i + 16]) as usize];
    }
    let mut k = [0u16; 64];
    for (i, w) in k.iter_mut().enumerate() {
        *w = u16::from_le_bytes([l[2 * i], l[2 * i + 1]]);
    }
    k
}

/// One MIX quarter-round: the new value of word `i` of `r`, mixed with
/// expanded-key word `kj` (register-only).
fn mix(r: [u16; 4], kj: u16, i: usize) -> u16 {
    const S: [u32; 4] = [1, 2, 3, 5];
    r[i].wrapping_add(kj)
        .wrapping_add(r[(i + 3) % 4] & r[(i + 2) % 4])
        .wrapping_add(!r[(i + 3) % 4] & r[(i + 1) % 4])
        .rotate_left(S[i])
}

fn mix_quarter(r: &mut [u16; 4], k: &[u16; 64], j: &mut usize, i: usize) {
    r[i] = mix(*r, k[*j], i);
    *j += 1;
}

fn mash_quarter_ref(r: &mut [u16; 4], k: &[u16; 64], i: usize) {
    r[i] = r[i].wrapping_add(k[(r[(i + 3) % 4] & 63) as usize]);
}

/// Host-side reference encryption of one 64-bit block (four 16-bit words).
pub fn encrypt_ref(k: &[u16; 64], block: u64) -> u64 {
    let mut r = [
        block as u16,
        (block >> 16) as u16,
        (block >> 32) as u16,
        (block >> 48) as u16,
    ];
    let mut j = 0;
    for round in 0..16 {
        for i in 0..4 {
            mix_quarter(&mut r, k, &mut j, i);
        }
        if round == 4 || round == 10 {
            for i in 0..4 {
                mash_quarter_ref(&mut r, k, i);
            }
        }
    }
    (r[0] as u64) | (r[1] as u64) << 16 | (r[2] as u64) << 32 | (r[3] as u64) << 48
}

/// The ARC2 workload: key expansion (secret PITABLE walks) plus `blocks`
/// encryptions (secret MASH lookups), all measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rc2 {
    /// Blocks encrypted per run.
    pub blocks: usize,
    /// Key seed.
    pub seed: u64,
    /// PITABLE substitution seed.
    pub table_seed: u64,
}

impl Rc2 {
    /// The secret 16-byte key.
    pub fn key(&self) -> [u8; 16] {
        let mut rng = InputRng::new(self.seed);
        let mut k = [0u8; 16];
        for b in &mut k {
            *b = rng.below(256) as u8;
        }
        k
    }

    /// The kernel, written once for every surface: key expansion with
    /// secret-indexed PITABLE walks, then `blocks` encryptions whose MASH
    /// rounds index the in-memory expanded key with a secret word.
    /// Returns the ciphertext blocks.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let pi = SimTable::public(
            s,
            Width::U8,
            pitable(self.table_seed).iter().map(|&x| u64::from(x)),
        );
        let byte = V::public(0xff);
        let mut l: Vec<V> = secrets(s, self.key().map(u64::from), "ARC2 key bytes");
        l.resize(128, V::public(0));
        for i in 16..128 {
            let idx = l[i - 1].add(&l[i - 16]).and(&byte);
            l[i] = pi.lookup(s, &idx, "PITABLE walk");
            s.exec(4);
        }
        l[111] = pi.lookup(s, &l[111].clone(), "PITABLE walk");
        for i in (0..111).rev() {
            let idx = l[i + 1].xor(&l[i + 16]);
            l[i] = pi.lookup(s, &idx, "PITABLE walk");
            s.exec(4);
        }
        let kw: Vec<V> = (0..64).map(|i| l[2 * i].or(&l[2 * i + 1].shl(8))).collect();
        // The expanded key also lives in memory: MASH indexes it with a
        // secret word.
        let kt = SimTable::new(s, Width::U32, &kw);

        let mut out = Vec::with_capacity(self.blocks);
        for b in 0..self.blocks as u64 {
            let block = b.wrapping_mul(0xa2c2_0f0f_3c3c_5a5b);
            let mut r: [V; 4] = [0, 16, 32, 48].map(|sh| V::public(block >> sh & 0xffff));
            let mut j = 0usize;
            for round in 0..16 {
                for i in 0..4 {
                    r[i] = V::lift([&r[0], &r[1], &r[2], &r[3], &kw[j]], |[a, b, c, d, kj]| {
                        u64::from(mix([a, b, c, d].map(|x| x as u16), kj as u16, i))
                    });
                    j += 1;
                    s.exec(PER_MIX_INSTS);
                }
                if round == 4 || round == 10 {
                    for i in 0..4 {
                        let idx = r[(i + 3) % 4].and(&V::public(63));
                        let kv = kt.lookup(s, &idx, "MASH key lookup");
                        s.exec(3);
                        r[i] = r[i].add(&kv).and(&V::public(0xffff));
                    }
                }
            }
            out.push(r[0].or(&r[1].shl(16)).or(&r[2].shl(32)).or(&r[3].shl(48)));
        }
        out
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

impl Default for Rc2 {
    fn default() -> Self {
        Rc2 {
            blocks: 8,
            seed: 0xac2,
            table_seed: 0x9172,
        }
    }
}

impl Workload for Rc2 {
    fn name(&self) -> String {
        "ARC2".into()
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
        let k = expand_key_ref(&pitable(self.table_seed), &self.key());
        (0..self.blocks as u64)
            .map(|b| encrypt_ref(&k, b.wrapping_mul(0xa2c2_0f0f_3c3c_5a5b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pitable_is_a_permutation() {
        let t = pitable(3);
        let mut seen = [false; 256];
        for v in t {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn machine_matches_reference() {
        let wl = Rc2 {
            blocks: 3,
            seed: 5,
            table_seed: 6,
        };
        let pi = pitable(6);
        let k = expand_key_ref(&pi, &wl.key());
        let expect: Vec<u64> = (0..3u64)
            .map(|b| encrypt_ref(&k, b.wrapping_mul(0xa2c2_0f0f_3c3c_5a5b)))
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn expansion_is_key_sensitive() {
        let pi = pitable(0);
        let a = expand_key_ref(&pi, &[0u8; 16]);
        let b = expand_key_ref(&pi, &[1u8; 16]);
        assert_ne!(a, b);
    }
}
