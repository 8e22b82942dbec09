//! The [`CtMemory`] abstraction: what a machine must provide for the
//! paper's algorithms to run on it.
//!
//! The paper adds two micro-operations to the ISA (§4.1):
//!
//! * `CTLoad(address) -> (data, existence)`
//! * `CTStore(address, data) -> dirtiness`
//!
//! plus the ordinary loads and stores the linearization algorithms issue
//! around them. [`CtMemory`] captures exactly that contract, with three
//! flavours of ordinary access:
//!
//! * [`CtMemory::load`]/[`CtMemory::store`] — regular program accesses;
//! * [`CtMemory::ds_load`]/[`CtMemory::ds_store`] — accesses to elements of
//!   a dataflow linearization set. The machine routes these according to the
//!   BIA placement: under an L2-resident BIA they bypass L1 (§4.2), and they
//!   are replacement-neutral (§3.2);
//! * [`CtMemory::dram_load`]/[`CtMemory::dram_store`] — cache-bypassing
//!   accesses used by the §6.5 large-fetchset optimization.
//!
//! Every memory operation implicitly executes one instruction;
//! [`CtMemory::exec`] charges the surrounding bookkeeping instructions
//! (address generation, bitmap arithmetic, loop control) so that the
//! instruction counts the paper's Figure 8 plots are reproduced.
//!
//! `CTLoad`/`CTStore` operate on the naturally aligned 8-byte window
//! containing the requested address, mirroring a 64-bit datapath. The
//! [`extract_word`]/[`merge_word`] helpers move narrower values in and out
//! of windows branchlessly.

use crate::predicate::{ct_eq, select};
use ctbia_sim::addr::{LineAddr, PhysAddr};

/// The width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    U8,
    /// 2 bytes.
    U16,
    /// 4 bytes.
    U32,
    /// 8 bytes.
    U64,
}

impl Width {
    /// Size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            Width::U8 => 1,
            Width::U16 => 2,
            Width::U32 => 4,
            Width::U64 => 8,
        }
    }

    /// Value mask (`0xff` for `U8`, ... , all-ones for `U64`).
    #[inline]
    pub const fn mask(self) -> u64 {
        match self {
            Width::U8 => 0xff,
            Width::U16 => 0xffff,
            Width::U32 => 0xffff_ffff,
            Width::U64 => u64::MAX,
        }
    }
}

/// Result of a `CTLoad` (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtLoad {
    /// The aligned 8-byte window at the requested address **if the line was
    /// resident in the monitored cache**; `0` otherwise (the paper's "fake
    /// data"). `CTLoad` never forwards a miss to the next level.
    pub data: u64,
    /// Existence bitmap of the 64 lines of the page containing the address:
    /// bit *i* set ⇒ line *i* of the page is recorded resident by the BIA.
    pub existence: u64,
}

/// Result of a `CTStore` (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtStore {
    /// Dirtiness bitmap of the page: bit *i* set ⇒ line *i* is recorded
    /// dirty by the BIA. The store itself happened only if the addressed
    /// line's dirty bit was set in the cache.
    pub dirtiness: u64,
}

/// One linearization pass over a dataflow group, reported to the machine
/// through [`CtMemory::note_linearize_pass`] so an observability layer can
/// attribute the sweep's work (how many lines the BIA bitmap let the pass
/// skip) without the algorithms knowing anything about tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearizeInfo {
    /// True for the store algorithm (Algorithm 3), false for the load
    /// algorithm (Algorithm 2).
    pub store: bool,
    /// True for the software fallback, which fetches the whole set.
    pub software: bool,
    /// The dataflow group swept (0 for the software fallback, which is
    /// not group-structured).
    pub group: u64,
    /// Lines in the group's dataflow set.
    pub ds_lines: u32,
    /// Lines the bitmap allowed the pass to skip.
    pub skipped: u32,
    /// Lines the pass streamed in.
    pub fetched: u32,
}

/// The machine interface required by the linearization algorithms.
///
/// Implementors: [`ctbia-machine`](https://docs.rs/ctbia-machine)'s
/// `Machine` is the canonical one; tests use lightweight reference models.
pub trait CtMemory {
    /// A regular demand load of `width` bytes at `addr` (must be naturally
    /// aligned). Returns the zero-extended value.
    fn load(&mut self, addr: PhysAddr, width: Width) -> u64;

    /// A regular demand store of the low `width` bytes of `value`.
    fn store(&mut self, addr: PhysAddr, width: Width, value: u64);

    /// A demand load addressed within a dataflow linearization set:
    /// replacement-neutral, and routed past L1 when the BIA is L2-resident.
    fn ds_load(&mut self, addr: PhysAddr, width: Width) -> u64;

    /// A demand store within a dataflow linearization set (see
    /// [`CtMemory::ds_load`]).
    fn ds_store(&mut self, addr: PhysAddr, width: Width, value: u64);

    /// A cache-bypassing load (straight to DRAM), used by the §6.5
    /// optimization when the fetchset is too large to be worth caching.
    fn dram_load(&mut self, addr: PhysAddr, width: Width) -> u64;

    /// A cache-bypassing store (straight to DRAM).
    fn dram_store(&mut self, addr: PhysAddr, width: Width, value: u64);

    /// The `CTLoad` micro-operation on the aligned 8-byte window containing
    /// `addr`.
    ///
    /// # Panics
    ///
    /// Implementations panic if no BIA is configured.
    fn ct_load(&mut self, addr: PhysAddr) -> CtLoad;

    /// The `CTStore` micro-operation: writes the 8-byte window `data` at
    /// `addr` **only if** the containing line is dirty in the monitored
    /// cache; always returns the page's dirtiness bitmap.
    ///
    /// # Panics
    ///
    /// Implementations panic if no BIA is configured.
    fn ct_store(&mut self, addr: PhysAddr, data: u64) -> CtStore;

    /// Charges `insts` bookkeeping instructions (address arithmetic, bitmap
    /// logic, loop control) to the cost model.
    fn exec(&mut self, insts: u64);

    /// The BIA's management granularity `M` (log2 bytes per bitmap entry).
    /// Defaults to page size (`M = 12`); an LLC-resident BIA may use a
    /// finer granularity bounded by the slice hash (§6.4). The
    /// linearization algorithms split dataflow sets at this granularity.
    fn bia_granularity_log2(&self) -> u32 {
        12
    }

    /// Whether the opt-in shadow taint layer is active. Defaults to
    /// `false`; implementations without taint support keep the default
    /// and the remaining taint hooks stay no-ops (zero cost).
    fn taint_enabled(&self) -> bool {
        false
    }

    /// The join of the shadow taint labels of the `width` bytes at
    /// `addr`. Defaults to `PUBLIC` (taint layer disabled).
    fn taint_of(&self, _addr: PhysAddr, _width: Width) -> crate::taint::TaintLabel {
        crate::taint::TaintLabel::PUBLIC
    }

    /// Sets the shadow taint label of the `width` bytes at `addr`.
    /// A no-op by default.
    fn set_taint(&mut self, _addr: PhysAddr, _width: Width, _label: crate::taint::TaintLabel) {}

    /// Records a [`crate::taint::LeakViolation`] raised by a taint
    /// checker driving this memory. A no-op by default.
    fn report_leak(&mut self, _violation: crate::taint::LeakViolation) {}

    /// Sweeps a software dataflow-linearized **load** over `lines`: one
    /// replacement-neutral [`CtMemory::ds_load`] per line at `offset`
    /// within the line, a branchless select against `target`, and
    /// `extra_insts` of bookkeeping per line. Returns the selected value
    /// (zero when `target` is not among the swept addresses).
    ///
    /// The default implementation is the per-line loop the Constantine
    /// baseline executes. Machines may override it with a batched
    /// equivalent, but every observable effect — counters, cycle charges,
    /// cache state, memory contents — must be identical to the loop.
    fn ds_sweep_load(
        &mut self,
        lines: &[LineAddr],
        offset: u64,
        width: Width,
        target: PhysAddr,
        extra_insts: u64,
    ) -> u64 {
        let mut ret = 0u64;
        for &line in lines {
            let addr = line.with_offset(offset);
            let v = self.ds_load(addr, width);
            ret = select(ct_eq(addr.raw(), target.raw()), v, ret);
            self.exec(extra_insts);
        }
        ret
    }

    /// Sweeps a software dataflow-linearized **store** over `lines`: a
    /// read-modify-write of every line at `offset`, merging `value` in
    /// branchlessly only where the address matches `target`, with
    /// `extra_insts` of bookkeeping per line. Same override contract as
    /// [`CtMemory::ds_sweep_load`].
    fn ds_sweep_store(
        &mut self,
        lines: &[LineAddr],
        offset: u64,
        width: Width,
        target: PhysAddr,
        value: u64,
        extra_insts: u64,
    ) {
        for &line in lines {
            let addr = line.with_offset(offset);
            let old = self.ds_load(addr, width);
            let new = select(ct_eq(addr.raw(), target.raw()), value & width.mask(), old);
            self.ds_store(addr, width, new);
            self.exec(extra_insts);
        }
    }

    /// Reports one linearization pass (see [`LinearizeInfo`]). The
    /// algorithms call this once per swept group, right after the bitmap
    /// response determines the fetch set; a machine with an observability
    /// layer turns it into counters and trace events. A no-op by default,
    /// like the taint hooks.
    fn note_linearize_pass(&mut self, _info: LinearizeInfo) {}

    /// Reports a conditional branch at the static site `site` whose
    /// architectural outcome is `taken`, handing the machine the code of
    /// the side **not** taken as `wrong_path`.
    ///
    /// A machine with bounded speculation predicts the branch with a
    /// deterministic, seeded predictor; on a misprediction it runs
    /// `wrong_path` inside a speculation window whose demand accesses
    /// warm the real hierarchy, then squashes every architectural effect
    /// (registers, memory, counters other than the `speculative` phase
    /// and cache statistics). A no-op by default — machines without
    /// speculation never execute the wrong path, like the taint hooks.
    fn spec_branch(
        &mut self,
        _site: u64,
        _taken: bool,
        _wrong_path: &mut dyn FnMut(&mut dyn CtMemory),
    ) {
    }
}

/// Extracts a `width`-sized value from the aligned 8-byte window containing
/// `addr`.
///
/// # Examples
///
/// ```
/// use ctbia_core::ctmem::{extract_word, Width};
/// use ctbia_sim::addr::PhysAddr;
///
/// let window = 0x1122_3344_5566_7788u64;
/// assert_eq!(extract_word(window, PhysAddr::new(0x1000), Width::U32), 0x5566_7788);
/// assert_eq!(extract_word(window, PhysAddr::new(0x1004), Width::U32), 0x1122_3344);
/// ```
#[inline]
pub fn extract_word(window: u64, addr: PhysAddr, width: Width) -> u64 {
    let shift = (addr.raw() & 7) * 8;
    (window >> shift) & width.mask()
}

/// Replaces the `width`-sized field of the window at `addr` with `value`.
///
/// # Examples
///
/// ```
/// use ctbia_core::ctmem::{merge_word, Width};
/// use ctbia_sim::addr::PhysAddr;
///
/// let w = merge_word(0, PhysAddr::new(0x1004), Width::U32, 0xdead_beef);
/// assert_eq!(w, 0xdead_beef_0000_0000);
/// ```
#[inline]
pub fn merge_word(window: u64, addr: PhysAddr, width: Width, value: u64) -> u64 {
    let shift = (addr.raw() & 7) * 8;
    let mask = width.mask() << shift;
    (window & !mask) | ((value & width.mask()) << shift)
}

/// Typed convenience methods over [`CtMemory`].
///
/// Blanket-implemented for every `CtMemory`; not meant to be implemented
/// directly.
pub trait CtMemoryExt: CtMemory {
    /// Loads a `u8`.
    fn load_u8(&mut self, addr: PhysAddr) -> u8 {
        self.load(addr, Width::U8) as u8
    }
    /// Loads a `u16`.
    fn load_u16(&mut self, addr: PhysAddr) -> u16 {
        self.load(addr, Width::U16) as u16
    }
    /// Loads a `u32`.
    fn load_u32(&mut self, addr: PhysAddr) -> u32 {
        self.load(addr, Width::U32) as u32
    }
    /// Loads a `u64`.
    fn load_u64(&mut self, addr: PhysAddr) -> u64 {
        self.load(addr, Width::U64)
    }
    /// Loads an `i32` (sign-preserving bit cast of the stored pattern).
    fn load_i32(&mut self, addr: PhysAddr) -> i32 {
        self.load(addr, Width::U32) as u32 as i32
    }
    /// Stores a `u8`.
    fn store_u8(&mut self, addr: PhysAddr, v: u8) {
        self.store(addr, Width::U8, v as u64);
    }
    /// Stores a `u16`.
    fn store_u16(&mut self, addr: PhysAddr, v: u16) {
        self.store(addr, Width::U16, v as u64);
    }
    /// Stores a `u32`.
    fn store_u32(&mut self, addr: PhysAddr, v: u32) {
        self.store(addr, Width::U32, v as u64);
    }
    /// Stores a `u64`.
    fn store_u64(&mut self, addr: PhysAddr, v: u64) {
        self.store(addr, Width::U64, v);
    }
    /// Stores an `i32` as its bit pattern.
    fn store_i32(&mut self, addr: PhysAddr, v: i32) {
        self.store(addr, Width::U32, v as u32 as u64);
    }
}

impl<M: CtMemory + ?Sized> CtMemoryExt for M {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_sizes_and_masks() {
        assert_eq!(Width::U8.bytes(), 1);
        assert_eq!(Width::U16.bytes(), 2);
        assert_eq!(Width::U32.bytes(), 4);
        assert_eq!(Width::U64.bytes(), 8);
        assert_eq!(Width::U8.mask(), 0xff);
        assert_eq!(Width::U64.mask(), u64::MAX);
    }

    #[test]
    fn extract_merge_round_trip() {
        let window = 0x0102_0304_0506_0708u64;
        for (off, width) in [
            (0, Width::U8),
            (3, Width::U8),
            (2, Width::U16),
            (4, Width::U32),
            (0, Width::U64),
        ] {
            let addr = PhysAddr::new(0x2000 + off);
            let v = extract_word(window, addr, width);
            assert_eq!(
                merge_word(window, addr, width, v),
                window,
                "round trip at off {off}"
            );
        }
    }

    #[test]
    fn merge_replaces_only_target_field() {
        let window = u64::MAX;
        let w = merge_word(window, PhysAddr::new(0x1002), Width::U16, 0);
        assert_eq!(w, 0xffff_ffff_0000_ffff);
        let w = merge_word(w, PhysAddr::new(0x1002), Width::U16, 0xabcd);
        assert_eq!(extract_word(w, PhysAddr::new(0x1002), Width::U16), 0xabcd);
    }

    #[test]
    fn extract_zero_extends() {
        let window = 0xffff_ffff_ffff_fff0u64;
        assert_eq!(extract_word(window, PhysAddr::new(0x1000), Width::U8), 0xf0);
        assert_eq!(
            extract_word(window, PhysAddr::new(0x1004), Width::U32),
            0xffff_ffff
        );
    }

    /// A trivial `CtMemory` to exercise the blanket ext trait.
    #[derive(Debug, Default)]
    struct Flat(std::collections::HashMap<u64, u8>);

    impl CtMemory for Flat {
        fn load(&mut self, addr: PhysAddr, width: Width) -> u64 {
            let mut v = 0u64;
            for i in 0..width.bytes() {
                v |= (*self.0.get(&(addr.raw() + i)).unwrap_or(&0) as u64) << (8 * i);
            }
            v
        }
        fn store(&mut self, addr: PhysAddr, width: Width, value: u64) {
            for i in 0..width.bytes() {
                self.0.insert(addr.raw() + i, (value >> (8 * i)) as u8);
            }
        }
        fn ds_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
            self.load(addr, width)
        }
        fn ds_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
            self.store(addr, width, value);
        }
        fn dram_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
            self.load(addr, width)
        }
        fn dram_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
            self.store(addr, width, value);
        }
        fn ct_load(&mut self, _addr: PhysAddr) -> CtLoad {
            unimplemented!("no BIA in the flat model")
        }
        fn ct_store(&mut self, _addr: PhysAddr, _data: u64) -> CtStore {
            unimplemented!("no BIA in the flat model")
        }
        fn exec(&mut self, _insts: u64) {}
    }

    #[test]
    fn ext_trait_typed_round_trips() {
        let mut m = Flat::default();
        let a = PhysAddr::new(0x100);
        m.store_u32(a, 0xdead_beef);
        assert_eq!(m.load_u32(a), 0xdead_beef);
        m.store_i32(a, -7);
        assert_eq!(m.load_i32(a), -7);
        m.store_u64(a, u64::MAX);
        assert_eq!(m.load_u64(a), u64::MAX);
        m.store_u8(a, 0x42);
        assert_eq!(m.load_u8(a), 0x42);
        m.store_u16(a, 0x4243);
        assert_eq!(m.load_u16(a), 0x4243);
    }
}
