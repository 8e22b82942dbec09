//! The BIA (BItmAp) structure — the paper's proposed hardware (§4.2).
//!
//! The BIA is a small set-associative table. Each entry is tagged with a
//! page index and holds two 64-bit vectors: *existence* (bit *i* ⇒ line *i*
//! of the page is in the monitored cache) and *dirtiness* (bit *i* ⇒ line
//! *i* is dirty there). The default configuration matches Table 1: 1 KiB of
//! bitmap payload (64 entries of 16 bytes), 1-cycle latency.
//!
//! Life cycle, exactly as §4.2 describes:
//!
//! * An entry is **installed** when a `CTLoad`/`CTStore` misses in the BIA;
//!   it is initialized with *all-zero* bitmaps even if some of the page's
//!   lines are already cached. The BIA is therefore a **conservative
//!   subset** of the cache's ground truth — which preserves both
//!   correctness (missed lines are simply re-fetched, §5.2) and security
//!   (§5.3).
//! * The BIA **monitors** the cache: hits set the existence bit (and sync
//!   the dirtiness bit), fills set existence, evictions/invalidations clear
//!   both, dirty-bit transitions update dirtiness.
//!
//! The subset invariant is checked by `debug_assert`s here and by dedicated
//! property tests against [`ctbia_sim::cache::Cache::page_truth`].

use ctbia_sim::addr::{LineAddr, PageIdx};
use ctbia_sim::hierarchy::{CacheEventKind, CacheMonitor};
use ctbia_sim::replacement::{ReplacementKind, ReplacementState};
use std::fmt;

/// Why a [`BiaConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BiaConfigError {
    /// `entries` or `associativity` is zero.
    ZeroGeometry,
    /// `entries` is not a multiple of `associativity`.
    NonMultipleAssociativity {
        /// The configured entry count.
        entries: u32,
        /// The configured associativity.
        associativity: u32,
    },
    /// The set count (`entries / associativity`) is not a power of two.
    SetCountNotPowerOfTwo {
        /// The resulting set count.
        sets: u32,
    },
    /// `granularity_log2` is outside `7..=12` (one line per bit, at most 64
    /// bits per entry).
    GranularityOutOfRange {
        /// The configured management granularity.
        granularity_log2: u32,
    },
}

impl fmt::Display for BiaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiaConfigError::ZeroGeometry => {
                f.write_str("BIA entries and associativity must be non-zero")
            }
            BiaConfigError::NonMultipleAssociativity {
                entries,
                associativity,
            } => write!(
                f,
                "BIA entries ({entries}) must be a multiple of associativity ({associativity})"
            ),
            BiaConfigError::SetCountNotPowerOfTwo { sets } => {
                write!(f, "BIA set count ({sets}) must be a power of two")
            }
            BiaConfigError::GranularityOutOfRange { granularity_log2 } => write!(
                f,
                "BIA granularity M={granularity_log2} must be in 7..=12 (one line per bit, at \
                 most 64 bits)"
            ),
        }
    }
}

impl std::error::Error for BiaConfigError {}

/// Configuration of a BIA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiaConfig {
    /// Number of entries (pages tracked simultaneously). The paper's 1 KiB
    /// BIA is 64 entries (16 bytes of bitmap payload each).
    pub entries: u32,
    /// Ways per set.
    pub associativity: u32,
    /// Lookup latency in cycles (Table 1: 1).
    pub latency: u64,
    /// Replacement policy among entries.
    pub replacement: ReplacementKind,
    /// Management granularity `M` (log2 bytes per entry). The default is
    /// page size (`M = 12`, 64 lines per entry); an LLC-resident BIA must
    /// shrink `M` to the slice-hash boundary `LS_Hash` when
    /// `6 < LS_Hash < 12` (paper §6.4).
    pub granularity_log2: u32,
}

impl BiaConfig {
    /// The paper's Table 1 BIA: 1 KiB (64 entries), 4-way, 1-cycle, LRU,
    /// page granularity.
    pub fn paper_table1() -> Self {
        BiaConfig {
            entries: 64,
            associativity: 4,
            latency: 1,
            replacement: ReplacementKind::Lru,
            granularity_log2: 12,
        }
    }

    /// A Table 1 BIA at management granularity `m_log2` (§6.4).
    pub fn with_granularity(m_log2: u32) -> Self {
        BiaConfig {
            granularity_log2: m_log2,
            ..Self::paper_table1()
        }
    }

    /// Cache lines covered by one entry (`2^(M-6)`).
    pub fn lines_per_entry(&self) -> u32 {
        1 << (self.granularity_log2 - 6)
    }

    /// Payload capacity in bytes (16 bytes of bitmaps per entry).
    pub fn size_bytes(&self) -> u64 {
        self.entries as u64 * 16
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BiaConfigError`] if `entries` is not a positive multiple
    /// of `associativity` with a power-of-two set count, or if the
    /// management granularity is out of range.
    pub fn validate(&self) -> Result<(), BiaConfigError> {
        if self.entries == 0 || self.associativity == 0 {
            return Err(BiaConfigError::ZeroGeometry);
        }
        if self.entries % self.associativity != 0 {
            return Err(BiaConfigError::NonMultipleAssociativity {
                entries: self.entries,
                associativity: self.associativity,
            });
        }
        let sets = self.entries / self.associativity;
        if !sets.is_power_of_two() {
            return Err(BiaConfigError::SetCountNotPowerOfTwo { sets });
        }
        if !(7..=12).contains(&self.granularity_log2) {
            return Err(BiaConfigError::GranularityOutOfRange {
                granularity_log2: self.granularity_log2,
            });
        }
        Ok(())
    }
}

impl Default for BiaConfig {
    fn default() -> Self {
        BiaConfig::paper_table1()
    }
}

/// Statistics of a BIA instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BiaStats {
    /// `CTLoad`/`CTStore` lookups.
    pub accesses: u64,
    /// Lookups that found the page's entry.
    pub hits: u64,
    /// Lookups that installed a fresh (all-zero) entry.
    pub installs: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Cache events applied to some entry.
    pub events_applied: u64,
    /// Cache events ignored because no entry tracks the page.
    pub events_ignored: u64,
}

impl fmt::Display for BiaStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses {}, hits {}, installs {}, evictions {}, events applied {} / ignored {}",
            self.accesses,
            self.hits,
            self.installs,
            self.evictions,
            self.events_applied,
            self.events_ignored,
        )
    }
}

/// One page's view as returned by a BIA lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BiaView {
    /// Existence bitmap (bit *i* ⇒ line *i* recorded resident).
    pub existence: u64,
    /// Dirtiness bitmap (bit *i* ⇒ line *i* recorded dirty).
    pub dirtiness: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    tag: u64,
    valid: bool,
    existence: u64,
    dirtiness: u64,
}

/// The BIA table.
#[derive(Debug, Clone)]
pub struct Bia {
    cfg: BiaConfig,
    entries: Vec<Entry>,
    repl: ReplacementState,
    stats: BiaStats,
    num_sets: u32,
    /// Index of the most recently found entry. Monitored-cache events
    /// arrive in group-clustered bursts (a linearization pass sweeps one
    /// group's lines back to back), so rechecking this slot first skips
    /// the set scan for the common case. Purely a lookup shortcut: a stale
    /// slot fails the valid/tag check and falls back to the scan.
    last_found: u32,
}

impl Bia {
    /// Builds a BIA from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BiaConfigError`] for an invalid configuration (see
    /// [`BiaConfig::validate`]).
    pub fn new(cfg: BiaConfig) -> Result<Self, BiaConfigError> {
        cfg.validate()?;
        let num_sets = cfg.entries / cfg.associativity;
        Ok(Bia {
            entries: vec![Entry::default(); cfg.entries as usize],
            repl: ReplacementState::new(
                cfg.replacement,
                num_sets as usize,
                cfg.associativity as usize,
                0xb1a,
            ),
            stats: BiaStats::default(),
            num_sets,
            cfg,
            last_found: 0,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BiaConfig {
        &self.cfg
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// The management granularity in effect.
    pub fn granularity_log2(&self) -> u32 {
        self.cfg.granularity_log2
    }

    /// The group index of an address (`addr >> M`).
    #[inline]
    fn group_of_addr(&self, addr: ctbia_sim::addr::PhysAddr) -> u64 {
        addr.raw() >> self.cfg.granularity_log2
    }

    /// The (group, bit) pair of a line under the configured granularity.
    #[inline]
    fn group_and_bit(&self, line: LineAddr) -> (u64, u32) {
        let shift = self.cfg.granularity_log2 - 6;
        (
            line.raw() >> shift,
            (line.raw() & ((1 << shift) - 1)) as u32,
        )
    }

    #[inline]
    fn set_of(&self, group: u64) -> usize {
        (group & (self.num_sets as u64 - 1)) as usize
    }

    #[inline]
    fn find(&self, group: u64) -> Option<usize> {
        let set = self.set_of(group);
        let assoc = self.cfg.associativity as usize;
        let base = set * assoc;
        (base..base + assoc).find(|&i| self.entries[i].valid && self.entries[i].tag == group)
    }

    /// [`Bia::find`] with the last-found shortcut. Entries store the full
    /// group index as their tag, so a valid/tag match on the cached slot
    /// identifies the entry unambiguously — no set check needed.
    #[inline]
    fn find_cached(&mut self, group: u64) -> Option<usize> {
        let i = self.last_found as usize;
        if let Some(e) = self.entries.get(i) {
            if e.valid && e.tag == group {
                return Some(i);
            }
        }
        let found = self.find(group);
        if let Some(i) = found {
            self.last_found = i as u32;
        }
        found
    }

    /// The `CTLoad`/`CTStore` lookup for the page containing `page` —
    /// convenience for the default `M = 12` granularity.
    pub fn access(&mut self, page: PageIdx) -> BiaView {
        self.access_for(page.base())
    }

    /// The `CTLoad`/`CTStore` lookup: returns the bitmaps of the management
    /// group containing `addr`, installing a fresh all-zero entry on a miss
    /// (§4.2).
    pub fn access_for(&mut self, addr: ctbia_sim::addr::PhysAddr) -> BiaView {
        let group = self.group_of_addr(addr);
        self.stats.accesses += 1;
        let set = self.set_of(group);
        let assoc = self.cfg.associativity as usize;
        let base = set * assoc;
        if let Some(i) = self.find_cached(group) {
            self.stats.hits += 1;
            self.repl.on_hit(set, i - base);
            let e = &self.entries[i];
            return BiaView {
                existence: e.existence,
                dirtiness: e.dirtiness,
            };
        }
        // Miss: install with all-zero bitmaps.
        self.stats.installs += 1;
        let slot = (0..assoc).find(|&w| !self.entries[base + w].valid);
        let way = match slot {
            Some(w) => w,
            None => {
                self.stats.evictions += 1;
                self.repl.victim(set)
            }
        };
        self.entries[base + way] = Entry {
            tag: group,
            valid: true,
            existence: 0,
            dirtiness: 0,
        };
        self.repl.on_fill(set, way);
        BiaView {
            existence: 0,
            dirtiness: 0,
        }
    }

    /// Non-installing inspection of a page's entry (`M = 12` convenience).
    pub fn peek(&self, page: PageIdx) -> Option<BiaView> {
        self.peek_for(page.base())
    }

    /// Non-installing inspection of the entry covering `addr`.
    pub fn peek_for(&self, addr: ctbia_sim::addr::PhysAddr) -> Option<BiaView> {
        self.find(self.group_of_addr(addr)).map(|i| BiaView {
            existence: self.entries[i].existence,
            dirtiness: self.entries[i].dirtiness,
        })
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &BiaStats {
        &self.stats
    }

    /// Restores the exactly-as-built state — all entries invalid, stats
    /// zeroed, replacement rewound — while keeping the entry allocation.
    pub fn reset(&mut self) {
        self.entries.fill(Entry::default());
        self.repl.reset();
        self.stats = BiaStats::default();
        self.last_found = 0;
    }

    /// Pages currently tracked (tests and debugging; meaningful for
    /// `M = 12`, where groups are pages).
    pub fn tracked_pages(&self) -> Vec<PageIdx> {
        self.entries
            .iter()
            .filter(|e| e.valid)
            .map(|e| PageIdx::new(e.tag))
            .collect()
    }
}

/// The BIA "monitors the cache for any update" (§4.2): the hierarchy hands
/// it each monitored-level event at the emit site, in emission order
/// (DESIGN.md §14). Events for pages without an entry are ignored — the
/// source of the benign subset inconsistency the paper discusses.
impl CacheMonitor for Bia {
    #[inline]
    fn cache_event(&mut self, line: LineAddr, kind: CacheEventKind) {
        let (group, bit_idx) = self.group_and_bit(line);
        let Some(i) = self.find_cached(group) else {
            self.stats.events_ignored += 1;
            return;
        };
        self.stats.events_applied += 1;
        let bit = 1u64 << bit_idx;
        let e = &mut self.entries[i];
        match kind {
            CacheEventKind::Hit { dirty } | CacheEventKind::Fill { dirty } => {
                e.existence |= bit;
                if dirty {
                    e.dirtiness |= bit;
                } else {
                    e.dirtiness &= !bit;
                }
            }
            CacheEventKind::Evict => {
                e.existence &= !bit;
                e.dirtiness &= !bit;
            }
            CacheEventKind::DirtyChange { dirty } => {
                if dirty {
                    e.existence |= bit;
                    e.dirtiness |= bit;
                } else {
                    e.dirtiness &= !bit;
                }
            }
        }
        debug_assert_eq!(
            e.dirtiness & !e.existence,
            0,
            "dirtiness must be a subset of existence"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let cfg = BiaConfig::paper_table1();
        cfg.validate().unwrap();
        assert_eq!(cfg.size_bytes(), 1024);
        assert_eq!(cfg.entries, 64);
    }

    #[test]
    fn install_starts_all_zero() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        let v = bia.access(PageIdx::new(7));
        assert_eq!(
            v,
            BiaView {
                existence: 0,
                dirtiness: 0
            }
        );
        assert_eq!(bia.stats().installs, 1);
        assert_eq!(bia.stats().hits, 0);
    }

    #[test]
    fn events_update_tracked_pages_only() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        let p = PageIdx::new(3);
        bia.access(p);
        bia.cache_event(p.line(5), CacheEventKind::Fill { dirty: false });
        bia.cache_event(
            PageIdx::new(99).line(5),
            CacheEventKind::Fill { dirty: false },
        );
        assert_eq!(bia.peek(p).unwrap().existence, 1 << 5);
        assert_eq!(bia.peek(PageIdx::new(99)), None);
        assert_eq!(bia.stats().events_applied, 1);
        assert_eq!(bia.stats().events_ignored, 1);
    }

    #[test]
    fn hit_sets_existence_and_syncs_dirtiness() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        let p = PageIdx::new(1);
        bia.access(p);
        bia.cache_event(p.line(2), CacheEventKind::Hit { dirty: true });
        let v = bia.peek(p).unwrap();
        assert_eq!(v.existence, 1 << 2);
        assert_eq!(v.dirtiness, 1 << 2);
        bia.cache_event(p.line(2), CacheEventKind::Hit { dirty: false });
        let v = bia.peek(p).unwrap();
        assert_eq!(v.dirtiness, 0, "clean hit clears stale dirtiness");
        assert_eq!(v.existence, 1 << 2);
    }

    #[test]
    fn evict_clears_both_bits() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        let p = PageIdx::new(2);
        bia.access(p);
        bia.cache_event(p.line(9), CacheEventKind::Fill { dirty: true });
        bia.cache_event(p.line(9), CacheEventKind::Evict);
        assert_eq!(
            bia.peek(p).unwrap(),
            BiaView {
                existence: 0,
                dirtiness: 0
            }
        );
    }

    #[test]
    fn dirty_change_implies_existence() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        let p = PageIdx::new(4);
        bia.access(p);
        bia.cache_event(p.line(1), CacheEventKind::DirtyChange { dirty: true });
        let v = bia.peek(p).unwrap();
        assert_eq!(v.existence, 0b10);
        assert_eq!(v.dirtiness, 0b10);
        bia.cache_event(p.line(1), CacheEventKind::DirtyChange { dirty: false });
        let v = bia.peek(p).unwrap();
        assert_eq!(v.existence, 0b10);
        assert_eq!(v.dirtiness, 0);
    }

    #[test]
    fn reinstall_after_eviction_is_zeroed() {
        // 4 entries, 2-way -> 2 sets. Pages with equal parity collide.
        let cfg = BiaConfig {
            entries: 4,
            associativity: 2,
            ..BiaConfig::paper_table1()
        };
        let mut bia = Bia::new(cfg).unwrap();
        let p0 = PageIdx::new(0);
        bia.access(p0);
        bia.cache_event(p0.line(0), CacheEventKind::Fill { dirty: false });
        assert_eq!(bia.peek(p0).unwrap().existence, 1);
        bia.access(PageIdx::new(2));
        bia.access(PageIdx::new(4)); // evicts p0 (LRU) from set 0
        assert_eq!(bia.stats().evictions, 1);
        assert_eq!(bia.peek(p0), None);
        // Reinstall: must come back all-zero even though the line may still
        // be cached (the paper's benign inconsistency).
        let v = bia.access(p0);
        assert_eq!(v.existence, 0);
    }

    #[test]
    fn lru_among_entries() {
        let cfg = BiaConfig {
            entries: 4,
            associativity: 2,
            ..BiaConfig::paper_table1()
        };
        let mut bia = Bia::new(cfg).unwrap();
        bia.access(PageIdx::new(0));
        bia.access(PageIdx::new(2));
        bia.access(PageIdx::new(0)); // refresh page 0
        bia.access(PageIdx::new(4)); // must evict page 2
        assert!(bia.peek(PageIdx::new(0)).is_some());
        assert!(bia.peek(PageIdx::new(2)).is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(BiaConfig {
            entries: 0,
            ..BiaConfig::default()
        }
        .validate()
        .is_err());
        assert!(BiaConfig {
            entries: 6,
            associativity: 4,
            ..BiaConfig::default()
        }
        .validate()
        .is_err());
        assert!(BiaConfig {
            entries: 12,
            associativity: 4,
            ..BiaConfig::default()
        }
        .validate()
        .is_err());
        assert!(Bia::new(BiaConfig {
            entries: 0,
            ..BiaConfig::default()
        })
        .is_err());
        assert_eq!(
            BiaConfig {
                entries: 0,
                ..BiaConfig::default()
            }
            .validate(),
            Err(BiaConfigError::ZeroGeometry)
        );
        let err = BiaConfig {
            entries: 6,
            associativity: 4,
            ..BiaConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");
    }

    #[test]
    fn granularity_validation_and_geometry() {
        assert!(BiaConfig::with_granularity(6).validate().is_err());
        assert!(BiaConfig::with_granularity(13).validate().is_err());
        for m in 7..=12 {
            let cfg = BiaConfig::with_granularity(m);
            cfg.validate().unwrap();
            assert_eq!(cfg.lines_per_entry(), 1 << (m - 6));
        }
    }

    #[test]
    fn finer_granularity_tracks_smaller_groups() {
        use ctbia_sim::addr::PhysAddr;
        // M = 9: one entry covers 512 B = 8 lines.
        let mut bia = Bia::new(BiaConfig::with_granularity(9)).unwrap();
        assert_eq!(bia.granularity_log2(), 9);
        let addr = PhysAddr::new(0x1200); // group 0x1200 >> 9 = 9
        bia.access_for(addr);
        // Line 0x1240/64 = 0x49 -> group 0x49 >> 3 = 9, bit 1.
        bia.cache_event(LineAddr::new(0x49), CacheEventKind::Fill { dirty: false });
        let v = bia.peek_for(addr).unwrap();
        assert_eq!(v.existence, 0b10);
        // A line one group over is ignored (group 10 not tracked).
        bia.cache_event(LineAddr::new(0x50), CacheEventKind::Fill { dirty: false });
        assert_eq!(bia.peek_for(PhysAddr::new(0x1400)), None);
        assert_eq!(bia.stats().events_ignored, 1);
    }

    #[test]
    fn stats_display() {
        let bia = Bia::new(BiaConfig::default()).unwrap();
        assert!(bia.stats().to_string().contains("accesses"));
    }

    #[test]
    fn tracked_pages_lists_valid_entries() {
        let mut bia = Bia::new(BiaConfig::default()).unwrap();
        bia.access(PageIdx::new(10));
        bia.access(PageIdx::new(20));
        let mut pages = bia.tracked_pages();
        pages.sort();
        assert_eq!(pages, vec![PageIdx::new(10), PageIdx::new(20)]);
    }
}
