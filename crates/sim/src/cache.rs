//! A single set-associative, write-back cache level.
//!
//! The cache stores no data — data lives in the simulated RAM owned by the
//! machine — only tags, valid bits, and dirty bits, which is exactly the
//! state the paper's BIA mirrors. The [`Hierarchy`](crate::hierarchy)
//! composes several `Cache` levels into the full memory system.
//!
//! # Storage layout
//!
//! The per-line state is stored structure-of-arrays (DESIGN.md §14): a flat
//! `Vec<u64>` of tags (set-major), plus one 64-bit *valid* word and one
//! 64-bit *dirty* word per set (bit *w* = way *w*; associativity is capped
//! at 64). A lookup compares the whole contiguous tag row, masks the
//! resulting hit bits with the valid word, and takes `trailing_zeros` —
//! no per-way branch. Whole-cache sweeps ([`Cache::for_each_resident`],
//! [`Cache::resident_count`]) walk the valid words with `count_ones`/
//! `trailing_zeros` instead of visiting every way.
//!
//! Two access paths matter for the paper:
//!
//! * [`Cache::access`] — a demand access. Counts against the per-set access
//!   counters (the statistic the paper's Figure 10 security test observes)
//!   and, unless the caller opts out, updates replacement state.
//! * [`Cache::probe`] — the lookup performed by `CTLoad`/`CTStore`. It
//!   changes *no* state (no fill, no replacement update, no dirty-bit
//!   change) and is therefore architecturally invisible to a Prime+Probe
//!   attacker; it is deliberately excluded from the per-set access counters
//!   and recorded under a separate statistic.

use crate::addr::{LineAddr, PageIdx, LINES_PER_PAGE};
use crate::config::{CacheConfig, ConfigError};
use crate::replacement::ReplacementState;
use crate::stats::CacheStats;

/// Whether an access reads or writes the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (marks the line dirty on hit/fill).
    Write,
}

/// The result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit {
        /// Dirty state of the line *after* the access (a write hit sets it).
        dirty: bool,
        /// Whether the access flipped the dirty bit from clean to dirty.
        dirtied: bool,
    },
    /// The line was absent. The caller is responsible for filling it (after
    /// fetching from the next level) via [`Cache::fill`].
    Miss,
}

/// The result of a non-destructive probe (`CTLoad`/`CTStore` lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Whether the line is resident.
    pub resident: bool,
    /// Whether the line is resident *and* dirty.
    pub dirty: bool,
}

/// Where a resident line sits: its set and its way, as a one-hot bit.
///
/// A slot returned by [`Cache::access_if_hit`] names the same line for as
/// long as the cache's [`Cache::epoch`] does not move: only a fill, an
/// invalidation or a reset can change which line a slot holds, and each
/// of them bumps the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    set: usize,
    bit: u64,
}

/// A line pushed out of the cache by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether it was dirty (and therefore must be written back).
    pub dirty: bool,
}

/// One set-associative cache level, stored structure-of-arrays: a set-major
/// tag array plus per-set valid/dirty occupancy words.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `num_sets * assoc` tags, set-major. A slot's tag is meaningful only
    /// while its valid bit is set; invalidation leaves the stale tag in
    /// place and clears the bit.
    tags: Vec<u64>,
    /// One occupancy word per set (bit *w* = way *w* holds a line).
    valid: Vec<u64>,
    /// One dirty word per set (bit *w* = way *w* is dirty). Always a subset
    /// of `valid`.
    dirty: Vec<u64>,
    repl: ReplacementState,
    stats: CacheStats,
    set_accesses: Vec<u64>,
    num_sets: usize,
    assoc: usize,
    /// The low `assoc` bits set — the frame of one set's occupancy word.
    way_mask: u64,
    set_mask: u64,
    set_bits: u32,
    /// Residency epoch: bumped by every write of `valid` or `tags` (a fill,
    /// an invalidation, a reset) and never rewound, so two equal readings
    /// prove that no line entered or left in between.
    epoch: u64,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_sim::cache::Cache;
    /// use ctbia_sim::config::CacheConfig;
    ///
    /// let cache = Cache::new(CacheConfig::new("L1d", 64 * 1024, 8, 2))?;
    /// assert_eq!(cache.num_sets(), 128);
    /// # Ok::<(), ctbia_sim::config::ConfigError>(())
    /// ```
    pub fn new(cfg: CacheConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let num_sets = cfg.num_sets() as usize;
        let assoc = cfg.associativity as usize;
        // Deterministic per-cache seed so Random replacement differs between
        // levels but is reproducible across runs.
        let seed = cfg.name.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        Ok(Cache {
            repl: ReplacementState::new(cfg.replacement, num_sets, assoc, seed),
            tags: vec![0; num_sets * assoc],
            valid: vec![0; num_sets],
            dirty: vec![0; num_sets],
            stats: CacheStats::default(),
            set_accesses: vec![0; num_sets],
            num_sets,
            assoc,
            way_mask: u64::MAX >> (64 - assoc as u32),
            set_mask: num_sets as u64 - 1,
            set_bits: (num_sets as u64).trailing_zeros(),
            epoch: 0,
            cfg,
        })
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// The set index a line maps to.
    #[inline]
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, line: LineAddr) -> u64 {
        line.raw() >> self.set_bits
    }

    /// Branchless lookup of `tag` in `set`: compares the whole contiguous
    /// tag row into a hit-bit word, masks it with the valid word, and takes
    /// the lowest set bit. Tags are unique among the valid ways of a set,
    /// so at most one masked bit is set.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<u32> {
        let base = set * self.assoc;
        let row = &self.tags[base..base + self.assoc];
        let mut hits = 0u64;
        for (w, &t) in row.iter().enumerate() {
            hits |= ((t == tag) as u64) << w;
        }
        hits &= self.valid[set];
        if hits != 0 {
            Some(hits.trailing_zeros())
        } else {
            None
        }
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<(usize, u32)> {
        let set = self.set_index(line);
        self.find_way(set, self.tag_of(line)).map(|w| (set, w))
    }

    /// Reconstructs the line stored in way `way` of `set`.
    #[inline]
    fn line_of(&self, set: usize, way: usize) -> LineAddr {
        LineAddr::new((self.tags[set * self.assoc + way] << self.set_bits) | set as u64)
    }

    /// A demand access: hit or miss, with statistics and (optionally)
    /// replacement update. A miss does **not** fill; call [`Cache::fill`]
    /// once the next level has supplied the line.
    ///
    /// `update_replacement = false` implements the paper's replacement-
    /// neutral access (§3.2): the access behaves normally but leaves the
    /// LRU state untouched so that a later attacker probe cannot tell which
    /// resident line was touched.
    #[inline]
    pub fn access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        update_replacement: bool,
    ) -> AccessOutcome {
        let set = self.set_index(line);
        self.set_accesses[set] += 1;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        match self.find_way(set, self.tag_of(line)) {
            Some(w) => {
                self.stats.hits += 1;
                if update_replacement {
                    self.repl.on_hit(set, w as usize);
                }
                let bit = 1u64 << w;
                let was_dirty = self.dirty[set] & bit != 0;
                let write = kind == AccessKind::Write;
                // Conditional-or instead of a dirty-bit branch.
                self.dirty[set] |= bit * write as u64;
                AccessOutcome::Hit {
                    dirty: was_dirty | write,
                    dirtied: write && !was_dirty,
                }
            }
            None => {
                self.stats.misses += 1;
                AccessOutcome::Miss
            }
        }
    }

    /// Hit-only variant of [`Cache::access`]: on a hit it performs exactly
    /// the same bookkeeping (per-set counter, read/write statistic, hit
    /// statistic, optional replacement update, dirty bit) and returns the
    /// hit's [`Slot`]. On a miss it touches **nothing** — no counters at
    /// all — and returns `None`, so the caller can retry with the full
    /// [`Cache::access`] without double counting. The slot stays valid
    /// until [`Cache::epoch`] moves; [`Cache::replay_hits`] repeats the
    /// replacement-neutral hit on it without a tag search.
    #[inline]
    pub fn access_if_hit(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        update_replacement: bool,
    ) -> Option<Slot> {
        let set = self.set_index(line);
        let w = self.find_way(set, self.tag_of(line))?;
        self.set_accesses[set] += 1;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.hits += 1;
        if update_replacement {
            self.repl.on_hit(set, w as usize);
        }
        let bit = 1u64 << w;
        self.dirty[set] |= bit * (kind == AccessKind::Write) as u64;
        Some(Slot { set, bit })
    }

    /// Repeats one replacement-neutral hit (`access_if_hit` with
    /// `update_replacement = false`) per slot, without looking up a tag:
    /// the per-set counter, the read/write and hit statistics, and the
    /// dirty bit on writes. The caller must hold every slot from an
    /// `access_if_hit` made at the current [`Cache::epoch`].
    pub fn replay_hits(&mut self, slots: &[Slot], kind: AccessKind) {
        let n = slots.len() as u64;
        match kind {
            AccessKind::Read => {
                self.stats.reads += n;
                for s in slots {
                    self.set_accesses[s.set] += 1;
                }
            }
            AccessKind::Write => {
                self.stats.writes += n;
                for s in slots {
                    self.set_accesses[s.set] += 1;
                    self.dirty[s.set] |= s.bit;
                }
            }
        }
        self.stats.hits += n;
    }

    /// The residency epoch: it moves whenever a line is filled,
    /// invalidated or the cache is reset, and at no other time.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A state-free lookup: the cache access half of `CTLoad`/`CTStore`.
    ///
    /// Does not touch replacement state, dirty bits, or per-set access
    /// counters; increments only the dedicated probe statistic. See the
    /// module docs for why probes are excluded from per-set counts.
    #[inline]
    pub fn probe(&mut self, line: LineAddr) -> ProbeOutcome {
        self.stats.probes += 1;
        let set = self.set_index(line);
        match self.find_way(set, self.tag_of(line)) {
            Some(w) => ProbeOutcome {
                resident: true,
                dirty: self.dirty[set] & (1 << w) != 0,
            },
            None => ProbeOutcome {
                resident: false,
                dirty: false,
            },
        }
    }

    /// Installs `line`, evicting a victim if the set is full.
    ///
    /// `dirty` marks the incoming line dirty immediately (used when a write
    /// allocates, or when a dirty victim from an upper level is written back
    /// into this level).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        debug_assert!(self.find(line).is_none(), "fill of already-resident {line}");
        let set = self.set_index(line);
        // Lowest invalid way first, then the replacement victim.
        let free = !self.valid[set] & self.way_mask;
        let (way, evicted) = if free != 0 {
            (free.trailing_zeros() as usize, None)
        } else {
            let victim = self.repl.victim(set);
            let vdirty = self.dirty[set] & (1 << victim) != 0;
            let ev = Evicted {
                line: self.line_of(set, victim),
                dirty: vdirty,
            };
            self.stats.evictions += 1;
            if vdirty {
                self.stats.writebacks += 1;
            }
            (victim, Some(ev))
        };
        let bit = 1u64 << way;
        self.tags[set * self.assoc + way] = self.tag_of(line);
        self.valid[set] |= bit;
        if dirty {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.repl.on_fill(set, way);
        self.stats.fills += 1;
        self.epoch += 1;
        evicted
    }

    /// Sets the dirty bit of `line` without counting a demand access — used
    /// when a dirty victim from an upper level is written back into a line
    /// already resident here.
    ///
    /// Returns `None` if the line is absent (nothing changes), otherwise
    /// whether the bit changed from clean to dirty.
    pub fn mark_dirty(&mut self, line: LineAddr) -> Option<bool> {
        let (set, w) = self.find(line)?;
        let bit = 1u64 << w;
        let changed = self.dirty[set] & bit == 0;
        self.dirty[set] |= bit;
        Some(changed)
    }

    /// Removes `line` if present, returning its dirty state.
    ///
    /// Returns `None` if the line was not resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let (set, w) = self.find(line)?;
        let bit = 1u64 << w;
        let dirty = self.dirty[set] & bit != 0;
        // The stale tag stays in the array; the cleared valid bit masks it
        // out of every future lookup.
        self.valid[set] &= !bit;
        self.dirty[set] &= !bit;
        self.stats.invalidations += 1;
        self.epoch += 1;
        Some(dirty)
    }

    /// Ground truth: is `line` resident?
    #[inline]
    pub fn is_resident(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Ground truth: is `line` resident and dirty?
    #[inline]
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        match self.find(line) {
            Some((set, w)) => self.dirty[set] & (1 << w) != 0,
            None => false,
        }
    }

    /// Ground-truth existence/dirtiness bitmaps for the 64 lines of `page`,
    /// in the same bit layout as a BIA entry (bit *i* = line *i* of the
    /// page). Used by tests to check the BIA-subset invariant (§5.2).
    pub fn page_truth(&self, page: PageIdx) -> (u64, u64) {
        let mut exist = 0u64;
        let mut dirty = 0u64;
        for i in 0..LINES_PER_PAGE as u32 {
            let line = page.line(i);
            if let Some((set, w)) = self.find(line) {
                exist |= 1 << i;
                if self.dirty[set] & (1 << w) != 0 {
                    dirty |= 1 << i;
                }
            }
        }
        (exist, dirty)
    }

    /// Visits every currently resident line (unordered: set-major, then
    /// way order) without allocating. The sweep walks the per-set valid
    /// words with `trailing_zeros`, so its cost is proportional to the
    /// number of *sets* plus the number of resident lines, not to
    /// `sets * assoc`. The allocation-free form of
    /// [`Cache::resident_lines`], for property-check loops that run per
    /// step.
    pub fn for_each_resident(&self, mut f: impl FnMut(LineAddr)) {
        for set in 0..self.num_sets {
            let mut v = self.valid[set];
            while v != 0 {
                let w = v.trailing_zeros() as usize;
                v &= v - 1;
                f(self.line_of(set, w));
            }
        }
    }

    /// Number of currently resident lines, without allocating: a popcount
    /// over the occupancy words.
    pub fn resident_count(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// All currently resident lines (unordered). Intended for tests and
    /// debugging; linear in the cache size and allocates — hot paths should
    /// use [`Cache::for_each_resident`] instead.
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::with_capacity(self.resident_count());
        self.for_each_resident(|line| out.push(line));
        out
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-set demand access counts (the Figure 10 statistic).
    pub fn set_access_counts(&self) -> &[u64] {
        &self.set_accesses
    }

    /// Restores the exactly-as-built state while keeping every allocation,
    /// so one cache can serve many back-to-back simulations.
    ///
    /// The tag array is deliberately left stale: a slot's tag is meaningful
    /// only while its valid bit is set (see the field docs), every tag read
    /// is masked through `valid`, and a fill writes the tag before setting
    /// the bit — so clearing `valid` alone makes old contents unreachable.
    /// The residency epoch moves forward, never back, so no slot taken
    /// before the reset can pass for a current one.
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.valid.fill(0);
        self.dirty.fill(0);
        self.set_accesses.fill(0);
        self.stats = CacheStats::default();
        self.repl.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways.
        Cache::new(CacheConfig::new("T", 4 * 2 * 64, 2, 1)).unwrap()
    }

    fn line(set: u64, tag: u64) -> LineAddr {
        LineAddr::new(tag << 2 | set)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let l = line(1, 5);
        assert_eq!(c.access(l, AccessKind::Read, true), AccessOutcome::Miss);
        assert!(c.fill(l, false).is_none());
        assert!(matches!(
            c.access(l, AccessKind::Read, true),
            AccessOutcome::Hit { dirty: false, .. }
        ));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_hit_sets_dirty_once() {
        let mut c = tiny();
        let l = line(0, 3);
        c.fill(l, false);
        let o = c.access(l, AccessKind::Write, true);
        assert_eq!(
            o,
            AccessOutcome::Hit {
                dirty: true,
                dirtied: true
            }
        );
        let o = c.access(l, AccessKind::Write, true);
        assert_eq!(
            o,
            AccessOutcome::Hit {
                dirty: true,
                dirtied: false
            }
        );
        assert!(c.is_dirty(l));
    }

    #[test]
    fn eviction_reports_dirty_victim() {
        let mut c = tiny();
        let a = line(2, 1);
        let b = line(2, 2);
        let d = line(2, 3);
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, AccessKind::Write, true); // dirty a; b is now LRU victim
        let ev = c.fill(d, false).expect("set full, must evict");
        assert_eq!(
            ev,
            Evicted {
                line: b,
                dirty: false
            }
        );
        // Next fill must evict dirty `a`.
        let ev = c.fill(line(2, 4), false).expect("evict again");
        assert_eq!(
            ev,
            Evicted {
                line: a,
                dirty: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn probe_changes_nothing() {
        let mut c = tiny();
        let a = line(1, 1);
        let b = line(1, 2);
        c.fill(a, false);
        c.fill(b, false);
        c.access(b, AccessKind::Read, true); // a is LRU victim
        let before_sets: Vec<u64> = c.set_access_counts().to_vec();
        let p = c.probe(a);
        assert!(p.resident && !p.dirty);
        assert!(!c.probe(line(1, 9)).resident);
        // Probes must not perturb per-set counters, hit/miss stats, or LRU.
        assert_eq!(c.set_access_counts(), before_sets.as_slice());
        assert_eq!(c.stats().probes, 2);
        assert_eq!(c.stats().misses, 0);
        let ev = c.fill(line(1, 3), false).unwrap();
        assert_eq!(ev.line, a, "probe must not refresh LRU");
    }

    #[test]
    fn replacement_neutral_access_preserves_lru() {
        let mut c = tiny();
        let a = line(3, 1);
        let b = line(3, 2);
        c.fill(a, false);
        c.fill(b, false);
        // Touch `a` without updating replacement: `a` stays the LRU victim.
        c.access(a, AccessKind::Read, false);
        let ev = c.fill(line(3, 3), false).unwrap();
        assert_eq!(ev.line, a);
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        let l = line(0, 7);
        c.fill(l, true);
        assert_eq!(c.invalidate(l), Some(true));
        assert!(!c.is_resident(l));
        assert_eq!(c.invalidate(l), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn page_truth_matches_contents() {
        let mut c = Cache::new(CacheConfig::new("T", 64 * 1024, 8, 1)).unwrap();
        let page = PageIdx::new(3);
        c.fill(page.line(0), false);
        c.fill(page.line(5), true);
        c.fill(page.line(63), false);
        let (exist, dirty) = c.page_truth(page);
        assert_eq!(exist, 1 | 1 << 5 | 1 << 63);
        assert_eq!(dirty, 1 << 5);
    }

    #[test]
    fn set_access_counts_track_demand_accesses() {
        let mut c = tiny();
        let l = line(2, 1);
        c.access(l, AccessKind::Read, true); // miss counts too
        c.fill(l, false);
        c.access(l, AccessKind::Read, true);
        c.access(l, AccessKind::Write, true);
        assert_eq!(c.set_access_counts(), &[0, 0, 3, 0]);
    }

    #[test]
    fn resident_lines_enumerates() {
        let mut c = tiny();
        c.fill(line(0, 1), false);
        c.fill(line(3, 9), false);
        let mut lines = c.resident_lines();
        lines.sort();
        assert_eq!(lines, vec![line(0, 1), line(3, 9)]);
        assert_eq!(c.resident_count(), 2);
        let mut walked = Vec::new();
        c.for_each_resident(|l| walked.push(l));
        walked.sort();
        assert_eq!(walked, lines, "visitor and allocating walk agree");
    }

    #[test]
    fn fills_prefer_invalid_ways() {
        let mut c = tiny();
        let a = line(1, 1);
        c.fill(a, false);
        c.invalidate(a);
        // Set has an invalid way; filling must not evict the other way.
        c.fill(line(1, 2), false);
        assert!(c.fill(line(1, 3), false).is_none());
    }

    #[test]
    fn stale_tag_is_masked_after_invalidate() {
        // Invalidation leaves the tag word in place; a lookup for that tag
        // must still miss, and a refill of a *different* tag into the freed
        // way must not resurrect the old line.
        let mut c = tiny();
        let a = line(2, 5);
        let b = line(2, 6);
        c.fill(a, true);
        c.invalidate(a);
        assert!(!c.is_resident(a));
        assert!(!c.is_dirty(a), "dirty bit cleared with the valid bit");
        c.fill(b, false);
        assert!(c.is_resident(b));
        assert!(!c.is_resident(a), "stale tag stays invisible");
        assert!(!c.is_dirty(b), "freed way's dirty bit must not leak");
    }

    #[test]
    fn epoch_moves_on_fill_invalidate_and_reset() {
        let mut c = tiny();
        let l = line(1, 4);
        let e0 = c.epoch();
        c.fill(l, false);
        let e1 = c.epoch();
        assert!(e1 > e0, "a fill moves the epoch");
        assert_eq!(c.invalidate(line(1, 9)), None);
        assert_eq!(c.epoch(), e1, "invalidating an absent line changes nothing");
        c.invalidate(l);
        let e2 = c.epoch();
        assert!(e2 > e1, "an invalidation moves the epoch");
        c.reset();
        assert!(
            c.epoch() > e2,
            "a reset moves the epoch forward, never back"
        );
    }

    #[test]
    fn epoch_holds_on_hits_probes_dirty_marks_and_stat_resets() {
        let mut c = tiny();
        let l = line(3, 2);
        c.fill(l, false);
        let e = c.epoch();
        c.access(l, AccessKind::Read, true);
        c.access(l, AccessKind::Write, false);
        assert!(c.access_if_hit(l, AccessKind::Read, true).is_some());
        assert!(c
            .access_if_hit(line(3, 7), AccessKind::Read, true)
            .is_none());
        c.access(line(3, 7), AccessKind::Read, true); // a miss that is not filled
        c.probe(l);
        c.mark_dirty(l);
        let slot = c.access_if_hit(l, AccessKind::Read, false).unwrap();
        c.replay_hits(&[slot], AccessKind::Write);
        assert_eq!(c.epoch(), e);
    }

    /// Everything a replayed hit may touch, compared state for state.
    fn state(c: &Cache) -> (CacheStats, Vec<u64>, Vec<u64>, Vec<u64>, Vec<LineAddr>) {
        (
            *c.stats(),
            c.set_access_counts().to_vec(),
            c.valid.clone(),
            c.dirty.clone(),
            c.resident_lines(),
        )
    }

    #[test]
    fn replayed_hits_equal_looked_up_hits() {
        let lines: Vec<LineAddr> = (0..8).map(|i| line(i % 4, i / 4 + 1)).collect();
        let mut looked = tiny();
        for &l in &lines {
            looked.fill(l, false);
        }
        let mut replayed = looked.clone();
        let slots: Vec<Slot> = lines
            .iter()
            .map(|&l| replayed.access_if_hit(l, AccessKind::Read, false).unwrap())
            .collect();
        for &l in &lines {
            looked.access_if_hit(l, AccessKind::Read, false).unwrap();
        }
        assert_eq!(state(&replayed), state(&looked));
        // Again, reads then writes, over a repeated and a skipped line.
        let picks = [0usize, 3, 3, 6, 7];
        let picked: Vec<Slot> = picks.iter().map(|&i| slots[i]).collect();
        replayed.replay_hits(&picked, AccessKind::Read);
        replayed.replay_hits(&picked, AccessKind::Write);
        for kind in [AccessKind::Read, AccessKind::Write] {
            for &i in &picks {
                looked.access_if_hit(lines[i], kind, false).unwrap();
            }
        }
        assert_eq!(state(&replayed), state(&looked));
        assert!(replayed.is_dirty(lines[3]) && !replayed.is_dirty(lines[1]));
        // A replacement-neutral hit leaves the victim order alone on both.
        assert_eq!(
            replayed.fill(line(0, 9), false),
            looked.fill(line(0, 9), false)
        );
    }

    #[test]
    fn full_associativity_word_arithmetic() {
        // 64-way single set: the occupancy word is exactly full at
        // capacity, exercising the way_mask = u64::MAX edge.
        let mut c = Cache::new(CacheConfig::new("W", 64 * 64, 64, 1)).unwrap();
        assert_eq!(c.num_sets(), 1);
        for t in 0..64u64 {
            assert!(c.fill(LineAddr::new(t), t % 2 == 0).is_none());
        }
        assert_eq!(c.resident_count(), 64);
        // The 65th fill must evict (LRU: the first line).
        let ev = c.fill(LineAddr::new(64), false).expect("set full");
        assert_eq!(ev.line, LineAddr::new(0));
        assert!(ev.dirty);
    }
}
