//! Simulated RAM and a bump allocator.
//!
//! The caches in `ctbia-sim` are metadata-only; all data lives here, in a
//! flat little-endian byte array indexed by physical address. The machine
//! keeps RAM authoritative at all times (a store updates RAM immediately
//! and the dirty bit only tracks write-back cost), which is functionally
//! exact for a single simulated agent.
//!
//! [`SimRam::alloc`] is a bump allocator: simulated programs allocate their
//! arrays once up front, like the statically allocated benchmark inputs in
//! the paper.

use ctbia_sim::addr::PhysAddr;
use std::fmt;

/// Error returned when an allocation does not fit in simulated RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfSimRam {
    /// Requested size in bytes.
    pub requested: u64,
    /// Bytes remaining.
    pub remaining: u64,
}

impl fmt::Display for OutOfSimRam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of simulated RAM: requested {} B, {} B remaining",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for OutOfSimRam {}

/// Flat simulated RAM with a bump allocator.
///
/// The byte array is backed lazily: `new` reserves only the logical size,
/// and the backing vector grows (zero-filled) the first time a write
/// touches an address beyond it. Reads past the backed prefix see zeros,
/// exactly as they would from an eagerly zeroed array, so the laziness is
/// invisible to simulated programs — it only spares every short-lived
/// machine the cost of faulting in and tearing down tens of megabytes it
/// never touches.
#[derive(Debug, Clone)]
pub struct SimRam {
    bytes: Vec<u8>,
    /// Logical capacity in bytes; the bounds the access checks enforce.
    size: u64,
    /// First address handed out by the allocator; kept off zero so that a
    /// "null" address is never a valid allocation.
    base: u64,
    next: u64,
}

impl SimRam {
    /// Default allocation base: one page in, so address 0 stays invalid.
    pub const DEFAULT_BASE: u64 = 0x1_0000;

    /// Creates `size` bytes of zeroed RAM.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_machine::memory::SimRam;
    ///
    /// let mut ram = SimRam::new(1 << 20);
    /// let a = ram.alloc(4096, 4096)?;
    /// assert!(a.is_aligned(4096));
    /// # Ok::<(), ctbia_machine::memory::OutOfSimRam>(())
    /// ```
    pub fn new(size: u64) -> Self {
        assert!(
            size > Self::DEFAULT_BASE,
            "RAM must exceed the allocation base"
        );
        SimRam {
            bytes: Vec::new(),
            size,
            base: Self::DEFAULT_BASE,
            next: Self::DEFAULT_BASE,
        }
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Bytes still available to the allocator.
    pub fn remaining(&self) -> u64 {
        self.size() - self.next
    }

    /// Allocates `size` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfSimRam`] if the region does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<PhysAddr, OutOfSimRam> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = (self.next + align - 1) & !(align - 1);
        let end = start.checked_add(size).ok_or(OutOfSimRam {
            requested: size,
            remaining: self.remaining(),
        })?;
        if end > self.size() {
            return Err(OutOfSimRam {
                requested: size,
                remaining: self.remaining(),
            });
        }
        self.next = end;
        Ok(PhysAddr::new(start))
    }

    /// Restores the exactly-as-built state while keeping the backing
    /// capacity. Truncating the backed prefix to zero *is* the fresh-RAM
    /// semantics: every address reads as zero again, and rewrites re-extend
    /// the (already reserved) backing without faulting new pages in.
    pub fn reset(&mut self) {
        self.bytes.clear();
        self.next = self.base;
    }

    #[inline]
    fn check(&self, addr: PhysAddr, len: u64) {
        assert!(
            addr.raw().saturating_add(len) <= self.size(),
            "simulated access at {addr}+{len} beyond RAM of {} B",
            self.size()
        );
    }

    /// Extends the backing vector to cover `end`, zero-filled. Growth is
    /// geometric (and at least one 64 KiB chunk) so a sequential fill does
    /// amortized-constant work per byte. `end` has already been checked
    /// against the logical size.
    #[cold]
    fn grow_to(&mut self, end: usize) {
        let target = end
            .next_power_of_two()
            .max(64 * 1024)
            .min(self.size as usize)
            .max(end);
        self.bytes.resize(target, 0);
    }

    /// Reads `width` little-endian bytes, zero-extended.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    #[inline]
    pub fn read(&self, addr: PhysAddr, width_bytes: u64) -> u64 {
        self.check(addr, width_bytes);
        let i = addr.raw() as usize;
        let n = width_bytes as usize;
        // One bounds-checked copy into a fixed 8-byte buffer instead of a
        // byte-at-a-time shift loop; `from_le_bytes` matches the simulated
        // little-endian layout and the zero padding gives the
        // zero-extension for free. Bytes past the lazily backed prefix are
        // zero by definition, so only the backed overlap is copied.
        let backed = self.bytes.len();
        // Common case: a whole aligned-window read fits in the backed
        // prefix. One fixed 8-byte load plus a mask beats the
        // variable-length copy below (which lowers to a memcpy call).
        if i + 8 <= backed {
            let word = u64::from_le_bytes(self.bytes[i..i + 8].try_into().unwrap());
            return if n == 8 {
                word
            } else {
                word & ((1u64 << (8 * n)) - 1)
            };
        }
        let mut buf = [0u8; 8];
        if i < backed {
            let avail = n.min(backed - i);
            buf[..avail].copy_from_slice(&self.bytes[i..i + avail]);
        }
        u64::from_le_bytes(buf)
    }

    /// Writes the low `width` bytes of `value`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    #[inline]
    pub fn write(&mut self, addr: PhysAddr, width_bytes: u64, value: u64) {
        self.check(addr, width_bytes);
        let i = addr.raw() as usize;
        let n = width_bytes as usize;
        // Mirror of the read fast path: a fixed 8-byte read-modify-write of
        // the containing word stores exactly the low `n` bytes of `value`
        // without a variable-length copy.
        if i + 8 <= self.bytes.len() {
            let old = u64::from_le_bytes(self.bytes[i..i + 8].try_into().unwrap());
            let mask = if n == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * n)) - 1
            };
            let new = (old & !mask) | (value & mask);
            self.bytes[i..i + 8].copy_from_slice(&new.to_le_bytes());
            return;
        }
        if i + n > self.bytes.len() {
            self.grow_to(i + n);
        }
        self.bytes[i..i + n].copy_from_slice(&value.to_le_bytes()[..n]);
    }

    /// Copies a byte slice into RAM.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range address.
    pub fn write_bytes(&mut self, addr: PhysAddr, data: &[u8]) {
        self.check(addr, data.len() as u64);
        let i = addr.raw() as usize;
        if i + data.len() > self.bytes.len() {
            self.grow_to(i + data.len());
        }
        self.bytes[i..i + data.len()].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_order() {
        let mut ram = SimRam::new(1 << 20);
        let a = ram.alloc(10, 8).unwrap();
        let b = ram.alloc(10, 64).unwrap();
        assert!(a.is_aligned(8));
        assert!(b.is_aligned(64));
        assert!(b.raw() >= a.raw() + 10);
    }

    #[test]
    fn alloc_exhaustion() {
        let mut ram = SimRam::new(SimRam::DEFAULT_BASE + 128);
        assert!(ram.alloc(64, 1).is_ok());
        let err = ram.alloc(128, 1).unwrap_err();
        assert_eq!(err.remaining, 64);
        assert!(err.to_string().contains("out of simulated RAM"));
    }

    #[test]
    fn read_write_round_trip_little_endian() {
        let mut ram = SimRam::new(1 << 20);
        let a = PhysAddr::new(0x2_0000);
        ram.write(a, 8, 0x1122_3344_5566_7788);
        assert_eq!(ram.read(a, 8), 0x1122_3344_5566_7788);
        assert_eq!(ram.read(a, 4), 0x5566_7788);
        assert_eq!(ram.read(a, 1), 0x88);
        assert_eq!(ram.read(a.offset(7), 1), 0x11);
        ram.write(a.offset(2), 2, 0xaabb);
        assert_eq!(ram.read(a, 8), 0x1122_3344_aabb_7788);
    }

    #[test]
    fn bulk_bytes() {
        let mut ram = SimRam::new(1 << 20);
        let a = PhysAddr::new(0x3_0000);
        ram.write_bytes(a, &[1, 2, 3, 4]);
        assert_eq!(ram.read(a, 4), 0x0403_0201);
    }

    #[test]
    fn lazy_backing_is_invisible() {
        let mut ram = SimRam::new(64 << 20);
        // Nothing backed yet: reads anywhere in range see zeros.
        assert_eq!(ram.read(PhysAddr::new(32 << 20), 8), 0);
        // A write far into RAM backs only a bounded prefix, and a read
        // straddling the backed boundary still zero-extends correctly.
        ram.write(PhysAddr::new(0x2_0000), 8, u64::MAX);
        assert!(ram.bytes.len() >= 0x2_0008);
        assert!((ram.bytes.len() as u64) < ram.size());
        let edge = PhysAddr::new(ram.bytes.len() as u64 - 4);
        assert_eq!(ram.read(edge, 8), 0);
        assert_eq!(ram.size(), 64 << 20);
    }

    #[test]
    #[should_panic(expected = "beyond RAM")]
    fn out_of_range_read_panics() {
        let ram = SimRam::new(1 << 17);
        ram.read(PhysAddr::new(1 << 17), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut ram = SimRam::new(1 << 20);
        let _ = ram.alloc(8, 3);
    }
}
