//! CAST-128 — structure-faithful implementation.
//!
//! The genuine CAST-128 data flow: four 256-entry × u32 S-boxes (1 KiB
//! each), sixteen Feistel rounds cycling through three round-function
//! types (add/xor/sub combinations over the four S-box outputs), each with
//! a masking key and a rotation key. S-box *contents* and round keys are
//! seeded (DESIGN.md §2); the access pattern — four secret-byte-indexed
//! 1 KiB-table lookups per round — is exact.

// Round/index loops intentionally index several arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use super::{secrets, SimTable};
use crate::run::{digest_u64, measure, InputRng, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::sink::{TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Register work per round: key op, rotate, three combining ops, swap.
const PER_ROUND_INSTS: u64 = 12;

/// Seeded S-boxes and round keys.
fn tables_and_keys(table_seed: u64, key_seed: u64) -> ([[u32; 256]; 4], [u32; 16], [u32; 16]) {
    let mut rng = InputRng::new(table_seed);
    let mut s = [[0u32; 256]; 4];
    for sb in &mut s {
        for v in sb.iter_mut() {
            *v = rng.next_u64() as u32;
        }
    }
    let mut krng = InputRng::new(key_seed);
    let mut km = [0u32; 16];
    let mut kr = [0u32; 16];
    for i in 0..16 {
        km[i] = krng.next_u64() as u32;
        kr[i] = (krng.next_u64() % 32) as u32;
    }
    (s, km, kr)
}

fn combine(kind: usize, v: [u32; 4]) -> u32 {
    match kind {
        0 => (v[0].wrapping_add(v[1]) ^ v[2]).wrapping_sub(v[3]),
        1 => v[0].wrapping_sub(v[1]).wrapping_add(v[2]) ^ v[3],
        _ => (v[0] ^ v[1]).wrapping_sub(v[2]).wrapping_add(v[3]),
    }
}

fn mix(kind: usize, km: u32, kr: u32, d: u32) -> u32 {
    let t = match kind {
        0 => km.wrapping_add(d),
        1 => km ^ d,
        _ => km.wrapping_sub(d),
    };
    t.rotate_left(kr)
}

/// Host-side reference encryption of one 64-bit block.
pub fn encrypt_ref(s: &[[u32; 256]; 4], km: &[u32; 16], kr: &[u32; 16], block: u64) -> u64 {
    let (mut l, mut r) = ((block >> 32) as u32, block as u32);
    for i in 0..16 {
        let kind = i % 3;
        let x = mix(kind, km[i], kr[i], r);
        let v = [
            s[0][(x >> 24) as usize],
            s[1][(x >> 16 & 0xff) as usize],
            s[2][(x >> 8 & 0xff) as usize],
            s[3][(x & 0xff) as usize],
        ];
        let f = combine(kind, v);
        let nl = r;
        r = l ^ f;
        l = nl;
    }
    ((r as u64) << 32) | l as u64
}

/// The CAST workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cast {
    /// Blocks encrypted per run.
    pub blocks: usize,
    /// Round-key seed.
    pub seed: u64,
    /// S-box substitution seed.
    pub table_seed: u64,
}

impl Cast {
    /// The block encrypted by run `b`.
    fn block(b: u64) -> u64 {
        b.wrapping_mul(0xc457_1357_9bdf_0247)
    }

    /// The kernel, written once for every surface: the round keys enter
    /// as secrets; every round makes four secret-byte-indexed lookups.
    /// Returns the ciphertext blocks.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let (sb, km, kr) = tables_and_keys(self.table_seed, self.seed);
        let tables: Vec<SimTable> = sb
            .iter()
            .map(|t| SimTable::public(s, Width::U32, t.map(u64::from)))
            .collect();
        let km: Vec<V> = secrets(s, km.map(u64::from), "CAST key");
        let kr: Vec<V> = secrets(s, kr.map(u64::from), "CAST key");
        let byte = V::public(0xff);
        let mut out = Vec::with_capacity(self.blocks);
        for b in 0..self.blocks as u64 {
            let block = Self::block(b);
            let (mut l, mut r) = (V::public(block >> 32), V::public(block & 0xffff_ffff));
            for i in 0..16 {
                let kind = i % 3;
                let x = V::lift([&km[i], &kr[i], &r], |[km, kr, d]| {
                    u64::from(mix(kind, km as u32, kr as u32, d as u32))
                });
                let v0 = tables[0].lookup(s, &x.shr(24), "CAST S-box lookup");
                let v1 = tables[1].lookup(s, &x.shr(16).and(&byte), "CAST S-box lookup");
                let v2 = tables[2].lookup(s, &x.shr(8).and(&byte), "CAST S-box lookup");
                let v3 = tables[3].lookup(s, &x.and(&byte), "CAST S-box lookup");
                s.exec(PER_ROUND_INSTS);
                let f = V::lift([&v0, &v1, &v2, &v3], |v| {
                    u64::from(combine(kind, v.map(|x| x as u32)))
                });
                let nl = r;
                r = l.xor(&f);
                l = nl;
            }
            out.push(r.shl(32).or(&l));
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

impl Default for Cast {
    fn default() -> Self {
        Cast {
            blocks: 8,
            seed: 0xca57,
            table_seed: 0x7ab1e,
        }
    }
}

impl Workload for Cast {
    fn name(&self) -> String {
        "CAST".into()
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
        let (sb, km, kr) = tables_and_keys(self.table_seed, self.seed);
        (0..self.blocks as u64)
            .map(|b| encrypt_ref(&sb, &km, &kr, Self::block(b)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_matches_reference() {
        let wl = Cast {
            blocks: 3,
            seed: 2,
            table_seed: 4,
        };
        let (s, km, kr) = tables_and_keys(4, 2);
        let expect: Vec<u64> = (0..3u64)
            .map(|b| encrypt_ref(&s, &km, &kr, b.wrapping_mul(0xc457_1357_9bdf_0247)))
            .collect();
        let mut m = Machine::insecure();
        let (ct, _) = wl.run_full(&mut m, Strategy::Insecure);
        assert_eq!(ct, expect);
    }

    #[test]
    fn all_three_round_kinds_used_and_distinct() {
        assert_ne!(combine(0, [1, 2, 3, 4]), combine(1, [1, 2, 3, 4]));
        assert_ne!(combine(1, [1, 2, 3, 4]), combine(2, [1, 2, 3, 4]));
        assert_ne!(mix(0, 5, 1, 7), mix(1, 5, 1, 7));
    }

    #[test]
    fn key_sensitivity() {
        let (s, km, kr) = tables_and_keys(1, 1);
        let (_, km2, kr2) = tables_and_keys(1, 2);
        assert_ne!(
            encrypt_ref(&s, &km, &kr, 99),
            encrypt_ref(&s, &km2, &kr2, 99)
        );
    }
}
