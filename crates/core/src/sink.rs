//! The execution surface every kernel is written against.
//!
//! A workload kernel is one generic body over a register [`Value`] type
//! and a [`TaintSink`]. The same source then runs three ways:
//!
//! * `u64` on the measured machine through the cell's strategy (the
//!   simulation every figure reports);
//! * [`Tv`] on `ctbia-verify`'s `TaintMem`, which runs the kernel
//!   concretely on a real machine while judging the taint sinks (the
//!   dynamic sanitizer);
//! * [`Tv`] on `ctbia-analyze`'s `RecMem`, which runs it symbolically
//!   with poisoned secrets and records the access program the static
//!   passes certify.
//!
//! Because all three run the one body, neither analysis can drift from
//! the program that is measured.

use crate::ctmem::Width;
use crate::ds::DataflowSet;
use crate::predicate;
use crate::taint::{Taint, Tv};
use ctbia_sim::addr::PhysAddr;
use std::fmt;

/// A register value a kernel computes with. Every combinator mirrors
/// [`predicate`] bit for bit; on [`Tv`] each also joins its operands'
/// taints, so derived values are at least as secret as their inputs.
pub trait Value: Clone + fmt::Debug {
    /// A public constant.
    fn public(v: u64) -> Self;
    /// Wrapping addition.
    #[must_use]
    fn add(&self, o: &Self) -> Self;
    /// Wrapping subtraction.
    #[must_use]
    fn sub(&self, o: &Self) -> Self;
    /// Wrapping multiplication.
    #[must_use]
    fn mul(&self, o: &Self) -> Self;
    /// Remainder (panics on a zero divisor, like native `%`).
    #[must_use]
    fn rem(&self, o: &Self) -> Self;
    /// Bitwise AND.
    #[must_use]
    fn and(&self, o: &Self) -> Self;
    /// Bitwise OR.
    #[must_use]
    fn or(&self, o: &Self) -> Self;
    /// Bitwise XOR.
    #[must_use]
    fn xor(&self, o: &Self) -> Self;
    /// Bitwise NOT.
    #[must_use]
    fn not(&self) -> Self;
    /// Logical shift right by a public amount.
    #[must_use]
    fn shr(&self, sh: u32) -> Self;
    /// Shift left by a public amount.
    #[must_use]
    fn shl(&self, sh: u32) -> Self;
    /// All-ones/all-zeros equality mask ([`predicate::ct_eq`]).
    #[must_use]
    fn ct_eq(&self, o: &Self) -> Self;
    /// Unsigned less-than mask ([`predicate::ct_lt`]).
    #[must_use]
    fn ct_lt(&self, o: &Self) -> Self;
    /// Unsigned less-or-equal mask ([`predicate::ct_le`]).
    #[must_use]
    fn ct_le(&self, o: &Self) -> Self;
    /// Branchless unsigned minimum ([`predicate::ct_min`]).
    #[must_use]
    fn ct_min(&self, o: &Self) -> Self;
    /// Branchless select ([`predicate::select`]): `a` where `mask` is
    /// all-ones, else `b`.
    #[must_use]
    fn select(mask: &Self, a: &Self, b: &Self) -> Self;
    /// A pure register function of `args` that the combinators do not
    /// spell (a DES expansion, an AES byte extract, a sign trick): the
    /// result is derived from, and so as secret as, its inputs.
    #[must_use]
    fn lift<const N: usize>(args: [&Self; N], f: impl FnOnce([u64; N]) -> u64) -> Self;
}

impl Value for u64 {
    #[inline]
    fn public(v: u64) -> u64 {
        v
    }
    #[inline]
    fn add(&self, o: &u64) -> u64 {
        self.wrapping_add(*o)
    }
    #[inline]
    fn sub(&self, o: &u64) -> u64 {
        self.wrapping_sub(*o)
    }
    #[inline]
    fn mul(&self, o: &u64) -> u64 {
        self.wrapping_mul(*o)
    }
    #[inline]
    fn rem(&self, o: &u64) -> u64 {
        self % o
    }
    #[inline]
    fn and(&self, o: &u64) -> u64 {
        self & o
    }
    #[inline]
    fn or(&self, o: &u64) -> u64 {
        self | o
    }
    #[inline]
    fn xor(&self, o: &u64) -> u64 {
        self ^ o
    }
    #[inline]
    fn not(&self) -> u64 {
        !self
    }
    #[inline]
    fn shr(&self, sh: u32) -> u64 {
        self >> sh
    }
    #[inline]
    fn shl(&self, sh: u32) -> u64 {
        self << sh
    }
    #[inline]
    fn ct_eq(&self, o: &u64) -> u64 {
        predicate::ct_eq(*self, *o)
    }
    #[inline]
    fn ct_lt(&self, o: &u64) -> u64 {
        predicate::ct_lt(*self, *o)
    }
    #[inline]
    fn ct_le(&self, o: &u64) -> u64 {
        predicate::ct_le(*self, *o)
    }
    #[inline]
    fn ct_min(&self, o: &u64) -> u64 {
        predicate::ct_min(*self, *o)
    }
    #[inline]
    fn select(mask: &u64, a: &u64, b: &u64) -> u64 {
        predicate::select(*mask, *a, *b)
    }
    #[inline]
    fn lift<const N: usize>(args: [&u64; N], f: impl FnOnce([u64; N]) -> u64) -> u64 {
        f(args.map(|a| *a))
    }
}

impl Tv {
    /// A binary operation's result: the value `v`, joining both taints.
    fn bin(&self, o: &Tv, v: u64) -> Tv {
        Tv {
            v,
            taint: self.taint.join(&o.taint),
        }
    }

    /// A unary operation's result: the value `v`, keeping this taint.
    fn unary(&self, v: u64) -> Tv {
        Tv {
            v,
            taint: self.taint.clone(),
        }
    }
}

impl Value for Tv {
    fn public(v: u64) -> Tv {
        Tv::public(v)
    }
    fn add(&self, o: &Tv) -> Tv {
        self.bin(o, self.v.add(&o.v))
    }
    fn sub(&self, o: &Tv) -> Tv {
        self.bin(o, self.v.sub(&o.v))
    }
    fn mul(&self, o: &Tv) -> Tv {
        self.bin(o, self.v.mul(&o.v))
    }
    fn rem(&self, o: &Tv) -> Tv {
        self.bin(o, self.v.rem(&o.v))
    }
    fn and(&self, o: &Tv) -> Tv {
        self.bin(o, self.v & o.v)
    }
    fn or(&self, o: &Tv) -> Tv {
        self.bin(o, self.v | o.v)
    }
    fn xor(&self, o: &Tv) -> Tv {
        self.bin(o, self.v ^ o.v)
    }
    fn not(&self) -> Tv {
        self.unary(!self.v)
    }
    fn shr(&self, sh: u32) -> Tv {
        self.unary(self.v >> sh)
    }
    fn shl(&self, sh: u32) -> Tv {
        self.unary(self.v << sh)
    }
    fn ct_eq(&self, o: &Tv) -> Tv {
        self.bin(o, predicate::ct_eq(self.v, o.v))
    }
    fn ct_lt(&self, o: &Tv) -> Tv {
        self.bin(o, predicate::ct_lt(self.v, o.v))
    }
    fn ct_le(&self, o: &Tv) -> Tv {
        self.bin(o, predicate::ct_le(self.v, o.v))
    }
    fn ct_min(&self, o: &Tv) -> Tv {
        self.bin(o, predicate::ct_min(self.v, o.v))
    }
    /// Selecting between publics under a secret mask yields a secret.
    fn select(mask: &Tv, a: &Tv, b: &Tv) -> Tv {
        Tv {
            v: predicate::select(mask.v, a.v, b.v),
            taint: mask.taint.join(&a.taint).join(&b.taint),
        }
    }
    fn lift<const N: usize>(args: [&Tv; N], f: impl FnOnce([u64; N]) -> u64) -> Tv {
        // The join keeps the first secret argument's provenance chain.
        let taint = args.iter().fold(Taint::public(), |t, a| t.join(&a.taint));
        Tv {
            v: f(args.map(|a| a.v)),
            taint,
        }
    }
}

/// The address of `base[index]` for `scale`-byte elements: secret
/// indices yield secret addresses, which is how an index leak becomes an
/// address leak the sinks can see.
#[must_use]
pub fn elem_addr<V: Value>(base: PhysAddr, index: &V, scale: u64) -> V {
    V::public(base.raw()).add(&index.mul(&V::public(scale)))
}

/// The execution surface a kernel body runs on. Accesses take their
/// address as a [`Value`], so a taint-tracking surface sees exactly which
/// secrets reach which sink; labels are `&str` and secret details
/// [`fmt::Arguments`], so the measured surface builds no string.
///
/// Setup (`alloc`, `poke`, `mark_secret`, `peek`) is cost-free on a
/// machine — inputs pre-exist in memory, as in the paper — and goes
/// through the surface so a recorder can build its region map.
pub trait TaintSink<V: Value> {
    /// Allocates `bytes` of fresh, line-aligned memory.
    fn alloc(&mut self, bytes: u64) -> PhysAddr;
    /// Writes setup data (cost-free). A secret value taints the bytes.
    fn poke(&mut self, addr: PhysAddr, width: Width, value: &V);
    /// Reads output data (cost-free).
    fn peek(&mut self, addr: PhysAddr, width: Width) -> V;
    /// Marks `bytes` bytes at `base` secret — the memory taint source.
    fn mark_secret(&mut self, base: PhysAddr, bytes: u64);
    /// Introduces a secret register value. Concrete surfaces carry `v`;
    /// a recorder replaces it with a poisoned payload, so no concrete
    /// secret can shape the extracted program.
    fn secret(&mut self, v: u64, detail: fmt::Arguments<'_>) -> V;
    /// A raw demand load (public-address sink).
    fn load(&mut self, addr: &V, width: Width, what: &str) -> V;
    /// A raw demand store (public-address sink).
    fn store(&mut self, addr: &V, width: Width, value: &V, what: &str);
    /// A linearized load through the strategy.
    fn ds_load(&mut self, ds: &DataflowSet, addr: &V, width: Width, what: &str) -> V;
    /// A linearized store through the strategy.
    fn ds_store(&mut self, ds: &DataflowSet, addr: &V, width: Width, value: &V, what: &str);
    /// Resolves a native branch condition (secret-condition sink).
    fn branch(&mut self, cond: &V, what: &str) -> bool;
    /// Resolves a loop bound (secret-trip-count sink).
    fn trip_count(&mut self, bound: &V, what: &str) -> u64;
    /// Charges bookkeeping instructions.
    fn exec(&mut self, insts: u64);
    /// A conditional branch at static site `site` whose architectural
    /// outcome is `taken`; `wrong_path` is the code of the side not
    /// taken. A speculating machine runs it inside a bounded wrong-path
    /// window on a misprediction (see `CtMemory::spec_branch`); a
    /// surface without speculation never runs it.
    fn spec_branch(
        &mut self,
        site: u64,
        taken: bool,
        wrong_path: &mut dyn FnMut(&mut dyn TaintSink<V>),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_and_tv_compute_the_same_bits() {
        let (a, b) = (0xdead_beef_u64, 0x1234_u64);
        let (ta, tb) = (Tv::secret(a, "a"), Tv::public(b));
        let pairs: [(u64, Tv); 6] = [
            (a.add(&b), ta.add(&tb)),
            (a.rem(&b), ta.rem(&tb)),
            (a.ct_lt(&b), ta.ct_lt(&tb)),
            (
                u64::select(&a.ct_eq(&a), &a, &b),
                Tv::select(&ta.ct_eq(&ta), &ta, &tb),
            ),
            (
                u64::lift([&a, &b], |[x, y]| x.rotate_left(y as u32)),
                Tv::lift([&ta, &tb], |[x, y]| x.rotate_left(y as u32)),
            ),
            (elem_addr(PhysAddr::new(0x100), &b, 4), {
                elem_addr(PhysAddr::new(0x100), &tb, 4)
            }),
        ];
        for (i, (plain, tainted)) in pairs.iter().enumerate() {
            assert_eq!(*plain, tainted.v, "combinator #{i}");
        }
        assert!(Tv::lift([&tb, &ta], |[x, _]| x).is_secret());
        assert!(!Tv::lift([&tb], |[x]| x).is_secret());
    }
}
