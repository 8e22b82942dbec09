//! The data-side memory hierarchy: L1d, unified L2, unified LLC, DRAM.
//! Instruction fetches are not simulated; the machine counts L1i
//! references analytically.
//!
//! The hierarchy is **mostly-inclusive, write-back, write-allocate**: a
//! demand miss fills the line into every probed level, dirty victims are
//! written back one level down, and explicit invalidation removes a line
//! from every level. The paper's threat model is explicitly insensitive to
//! inclusivity (§2.4), so this common arrangement is used throughout.
//!
//! # Monitoring
//!
//! The BIA "monitors the cache for any update" (§4.2). The hierarchy
//! realizes that monitoring through the [`CacheMonitor`] trait: when a
//! monitor level is selected via [`Hierarchy::set_monitor`], every hit,
//! fill, eviction, invalidation, and dirty-bit change *at that level* is
//! handed to the monitor passed into [`Hierarchy::access_with`] or
//! [`Hierarchy::invalidate_everywhere_with`], at the point the state
//! change happens and in that order (DESIGN.md §14). The hierarchy keeps
//! no event buffer: a caller that passes [`NullMonitor`] discards the
//! events, which is why the plain [`Hierarchy::access`] refuses (in debug
//! builds) a monitored hierarchy.
//!
//! # CT operations
//!
//! [`Hierarchy::ct_probe`] and [`Hierarchy::ct_write_if_dirty`] implement
//! the cache-access half of the paper's `CTLoad`/`CTStore` (§4.1): they
//! never fill on a miss, never update replacement state, and never forward
//! a miss to the next level.

use crate::addr::LineAddr;
use crate::cache::{AccessKind, AccessOutcome, Cache, ProbeOutcome, Slot};
use crate::config::{ConfigError, HierarchyConfig, InclusionPolicy};
use crate::dram::Dram;
use crate::stats::{CacheStats, HierarchyStats};

/// Identifies a cache level (or DRAM) in results and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// L1 data cache.
    L1d,
    /// Unified second-level cache.
    L2,
    /// Unified last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::L1d => f.write_str("L1d"),
            Level::L2 => f.write_str("L2"),
            Level::Llc => f.write_str("LLC"),
            Level::Dram => f.write_str("DRAM"),
        }
    }
}

/// The cache level a BIA monitors. The paper evaluates L1d- and L2-resident
/// BIAs (§4.2) and discusses LLC residency (§6.4), where slice hashing
/// constrains the feasible management granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorLevel {
    /// BIA attached to the L1 data cache.
    L1d,
    /// BIA attached to the unified L2 (CT operations bypass L1).
    L2,
    /// BIA attached to the LLC (CT operations bypass L1 and L2; §6.4).
    Llc,
}

impl MonitorLevel {
    /// The corresponding hierarchy level.
    pub fn level(self) -> Level {
        match self {
            MonitorLevel::L1d => Level::L1d,
            MonitorLevel::L2 => Level::L2,
            MonitorLevel::Llc => Level::Llc,
        }
    }
}

/// What happened at the monitored level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEventKind {
    /// A demand access hit the line; `dirty` is its state after the access.
    Hit {
        /// Dirty state after the access.
        dirty: bool,
    },
    /// The line was installed; `dirty` is its initial state.
    Fill {
        /// Dirty state at fill time.
        dirty: bool,
    },
    /// The line was evicted (capacity/conflict) or invalidated.
    Evict,
    /// The line's dirty bit changed.
    DirtyChange {
        /// New dirty state.
        dirty: bool,
    },
}

/// A consumer of monitored-level state changes.
///
/// The hierarchy calls [`CacheMonitor::cache_event`] at every emit site
/// *for the monitored level only*, in the exact order the state changes
/// happen. The BIA in `ctbia-core` implements it and updates its bitmaps
/// right there; nothing is buffered in between.
pub trait CacheMonitor {
    /// Observes one state change at the monitored level.
    fn cache_event(&mut self, line: LineAddr, kind: CacheEventKind);
}

/// A monitor that discards every event: the monitor of a hierarchy with
/// no monitored level, where nothing is emitted in the first place.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl CacheMonitor for NullMonitor {
    #[inline]
    fn cache_event(&mut self, _line: LineAddr, _kind: CacheEventKind) {}
}

/// Options for a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// Read or write.
    pub kind: AccessKind,
    /// Whether the access refreshes replacement state. Secret-relevant
    /// accesses pass `false` (§3.2).
    pub update_replacement: bool,
    /// Skip L1d and start at L2 — used by all dataflow-set traffic when the
    /// BIA is L2-resident (§4.2).
    pub bypass_l1: bool,
    /// Skip L1d and L2, starting at the LLC — used by all dataflow-set
    /// traffic when the BIA is LLC-resident (§6.4).
    pub bypass_l2: bool,
    /// Skip every cache and go straight to DRAM — the §6.5 large-fetchset
    /// optimization.
    pub dram_direct: bool,
}

impl AccessFlags {
    /// A plain demand read.
    pub fn read() -> Self {
        AccessFlags {
            kind: AccessKind::Read,
            update_replacement: true,
            bypass_l1: false,
            bypass_l2: false,
            dram_direct: false,
        }
    }

    /// A plain demand write.
    pub fn write() -> Self {
        AccessFlags {
            kind: AccessKind::Write,
            update_replacement: true,
            bypass_l1: false,
            bypass_l2: false,
            dram_direct: false,
        }
    }

    /// Marks the access replacement-neutral (secret-relevant).
    #[must_use]
    pub fn replacement_neutral(mut self) -> Self {
        self.update_replacement = false;
        self
    }

    /// Makes the access bypass L1d.
    #[must_use]
    pub fn bypassing_l1(mut self) -> Self {
        self.bypass_l1 = true;
        self
    }

    /// Makes the access bypass both L1d and L2 (LLC-resident BIA, §6.4).
    #[must_use]
    pub fn bypassing_l2(mut self) -> Self {
        self.bypass_l1 = true;
        self.bypass_l2 = true;
        self
    }

    /// Makes the access bypass every cache (DRAM direct).
    #[must_use]
    pub fn dram_direct(mut self) -> Self {
        self.dram_direct = true;
        self
    }
}

/// Result of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency in cycles (lookup latencies down to the hit level, plus
    /// DRAM on a full miss).
    pub latency: u64,
    /// Where the line was found.
    pub hit_level: Level,
    /// The DRAM portion of `latency`: the row-buffer/array time on a full
    /// miss or DRAM-direct access, 0 on a cache hit. Lets consumers split
    /// an access into cache-service time and DRAM-stall time.
    pub dram_latency: u64,
}

/// The composed memory hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    dram: Dram,
    prefetch_next_line: bool,
    prefetch_fills: u64,
    monitor: Option<MonitorLevel>,
    llc_slices: u32,
    llc_ls_hash_bit: u32,
    slice_counts: Vec<u64>,
    inclusion: InclusionPolicy,
}

impl Hierarchy {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any level's configuration is invalid.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_sim::config::HierarchyConfig;
    /// use ctbia_sim::hierarchy::{AccessFlags, Hierarchy, Level};
    /// use ctbia_sim::addr::LineAddr;
    ///
    /// let mut h = Hierarchy::new(HierarchyConfig::paper_table1())?;
    /// let cold = h.access(LineAddr::new(100), AccessFlags::read());
    /// assert_eq!(cold.hit_level, Level::Dram);
    /// let warm = h.access(LineAddr::new(100), AccessFlags::read());
    /// assert_eq!(warm.hit_level, Level::L1d);
    /// assert_eq!(warm.latency, 2);
    /// # Ok::<(), ctbia_sim::config::ConfigError>(())
    /// ```
    pub fn new(cfg: HierarchyConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Hierarchy {
            l1d: Cache::new(cfg.l1d.clone())?,
            l2: Cache::new(cfg.l2.clone())?,
            llc: Cache::new(cfg.llc.clone())?,
            dram: Dram::new(cfg.dram.clone()),
            prefetch_next_line: cfg.l1d_next_line_prefetcher,
            prefetch_fills: 0,
            monitor: None,
            llc_slices: cfg.llc_slices,
            llc_ls_hash_bit: cfg.llc_ls_hash_bit,
            slice_counts: vec![0; cfg.llc_slices as usize],
            inclusion: cfg.inclusion,
        })
    }

    /// Selects (or clears) the level whose state changes are delivered to
    /// the monitor passed into each access.
    pub fn set_monitor(&mut self, monitor: Option<MonitorLevel>) {
        self.monitor = monitor;
    }

    /// The currently monitored level.
    pub fn monitor(&self) -> Option<MonitorLevel> {
        self.monitor
    }

    #[inline]
    fn monitoring(&self, level: Level) -> bool {
        self.monitor.map(MonitorLevel::level) == Some(level)
    }

    /// Delivers `kind` to the monitor when `level` is the monitored level.
    /// The level filter lives here, so monitors only ever see the stream
    /// for the level they watch.
    #[inline]
    fn emit<M: CacheMonitor>(
        &self,
        mon: &mut M,
        level: Level,
        line: LineAddr,
        kind: CacheEventKind,
    ) {
        if self.monitoring(level) {
            mon.cache_event(line, kind);
        }
    }

    fn cache_mut(&mut self, level: Level) -> &mut Cache {
        match level {
            Level::L1d => &mut self.l1d,
            Level::L2 => &mut self.l2,
            Level::Llc => &mut self.llc,
            Level::Dram => unreachable!("DRAM is not a cache"),
        }
    }

    /// Borrows a cache level immutably (for inspection and tests).
    pub fn cache(&self, level: Level) -> &Cache {
        match level {
            Level::L1d => &self.l1d,
            Level::L2 => &self.l2,
            Level::Llc => &self.llc,
            Level::Dram => panic!("DRAM is not a cache"),
        }
    }

    /// Borrows the DRAM model.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Number of LLC slices.
    pub fn llc_slices(&self) -> u32 {
        self.llc_slices
    }

    /// The least-significant address bit used by the slice hash
    /// (the paper's `LS_Hash`).
    pub fn llc_ls_hash_bit(&self) -> u32 {
        self.llc_ls_hash_bit
    }

    /// The LLC slice `line` maps to: an XOR fold of the physical-address
    /// bits from `ls_hash_bit` upward (the reverse-engineered Intel hashes
    /// [49, 50] are XOR trees over exactly those bits).
    pub fn llc_slice_of(&self, line: LineAddr) -> u32 {
        if self.llc_slices <= 1 {
            return 0;
        }
        let bits = line.base().raw() >> self.llc_ls_hash_bit;
        let shift = self.llc_slices.trailing_zeros().max(1);
        let mut x = bits;
        let mut folded = 0u64;
        while x != 0 {
            folded ^= x;
            x >>= shift;
        }
        (folded & (self.llc_slices as u64 - 1)) as u32
    }

    /// Per-slice LLC demand access counts — the interconnect-traffic
    /// statistic of §6.4 (what a ring/mesh attacker observes).
    pub fn llc_slice_counts(&self) -> &[u64] {
        &self.slice_counts
    }

    #[inline]
    fn count_slice(&mut self, line: LineAddr) {
        let s = self.llc_slice_of(line);
        self.slice_counts[s as usize] += 1;
    }

    /// The inclusion policy in effect.
    pub fn inclusion(&self) -> InclusionPolicy {
        self.inclusion
    }

    /// Installs `line` into `level`, writing back a dirty victim one level
    /// down (recursively) and emitting fill/evict events at the monitored
    /// level. Under [`InclusionPolicy::Exclusive`] clean victims also spill
    /// down; under [`InclusionPolicy::Inclusive`] an eviction from L2/LLC
    /// back-invalidates the levels above.
    fn fill_at<M: CacheMonitor>(&mut self, mon: &mut M, level: Level, line: LineAddr, dirty: bool) {
        let evicted = self.cache_mut(level).fill(line, dirty);
        self.emit(mon, level, line, CacheEventKind::Fill { dirty });
        if let Some(ev) = evicted {
            self.emit(mon, level, ev.line, CacheEventKind::Evict);
            if ev.dirty {
                self.writeback(mon, level, ev.line);
            } else if self.inclusion == InclusionPolicy::Exclusive {
                self.spill_clean(mon, level, ev.line);
            }
            if self.inclusion == InclusionPolicy::Inclusive {
                self.back_invalidate(mon, level, ev.line);
            }
        }
    }

    /// Exclusive hierarchies spill clean victims one level down so the
    /// line is not lost from the hierarchy (victim-cache behaviour).
    fn spill_clean<M: CacheMonitor>(&mut self, mon: &mut M, from: Level, line: LineAddr) {
        let below = match from {
            Level::L1d => Level::L2,
            Level::L2 => Level::Llc,
            Level::Llc | Level::Dram => return, // dropped; still in DRAM
        };
        if !self.cache(below).is_resident(line) {
            self.fill_at(mon, below, line, false);
        }
    }

    /// Inclusive hierarchies remove upper-level copies when a lower level
    /// evicts. A dirty upper copy is flushed to DRAM (simplification: the
    /// victim has already left the lower levels).
    fn back_invalidate<M: CacheMonitor>(&mut self, mon: &mut M, from: Level, line: LineAddr) {
        let uppers: &[Level] = match from {
            Level::L2 => &[Level::L1d],
            Level::Llc => &[Level::L1d, Level::L2],
            _ => return,
        };
        for &u in uppers {
            if let Some(dirty) = self.cache_mut(u).invalidate(line) {
                self.emit(mon, u, line, CacheEventKind::Evict);
                if dirty {
                    self.dram.write(line);
                }
            }
        }
    }

    /// Writes a dirty victim evicted from `from` into the next level down.
    fn writeback<M: CacheMonitor>(&mut self, mon: &mut M, from: Level, line: LineAddr) {
        let below = match from {
            Level::L1d => Level::L2,
            Level::L2 => Level::Llc,
            Level::Llc => {
                self.dram.write(line);
                return;
            }
            Level::Dram => unreachable!(),
        };
        match self.cache_mut(below).mark_dirty(line) {
            Some(true) => self.emit(
                mon,
                below,
                line,
                CacheEventKind::DirtyChange { dirty: true },
            ),
            Some(false) => {}
            None => self.fill_at(mon, below, line, true),
        }
    }

    /// Fast path for non-bypassing demand accesses when no level is
    /// monitored: exactly the state change [`Hierarchy::access_with`] makes
    /// for an L1d hit. Returns the hit's [`Slot`]; on a miss nothing is
    /// touched — no statistics, no counters — so the caller can fall back
    /// to the full access path without double counting.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no level is monitored; with a monitor installed
    /// the hit would have to emit events and the caller must use
    /// [`Hierarchy::access_with`].
    #[inline]
    pub fn l1d_access_if_hit(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        update_replacement: bool,
    ) -> Option<Slot> {
        debug_assert!(
            self.monitor.is_none(),
            "L1d fast path requires an unmonitored hierarchy"
        );
        self.l1d.access_if_hit(line, kind, update_replacement)
    }

    /// The L1d's residency epoch ([`Cache::epoch`]).
    #[inline]
    pub fn l1d_epoch(&self) -> u64 {
        self.l1d.epoch()
    }

    /// Repeats replacement-neutral L1d hits on `slots` taken at the current
    /// [`Hierarchy::l1d_epoch`] ([`Cache::replay_hits`]): the state change
    /// of one [`Hierarchy::l1d_access_if_hit`] per slot, without the tag
    /// search.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no level is monitored, as for
    /// [`Hierarchy::l1d_access_if_hit`].
    pub fn l1d_replay_hits(&mut self, slots: &[Slot], kind: AccessKind) {
        debug_assert!(
            self.monitor.is_none(),
            "L1d fast path requires an unmonitored hierarchy"
        );
        self.l1d.replay_hits(slots, kind);
    }

    /// A demand data access on an unmonitored hierarchy: see
    /// [`AccessFlags`] for routing options and [`Hierarchy::access_with`]
    /// for the monitored form.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no level is monitored, since the events a
    /// monitored level emits would be dropped here.
    pub fn access(&mut self, line: LineAddr, flags: AccessFlags) -> AccessResult {
        debug_assert!(
            self.monitor.is_none(),
            "plain access would drop the monitored level's events; use access_with"
        );
        self.access_with(line, flags, &mut NullMonitor)
    }

    /// A demand data access delivering monitored events directly to `mon`
    /// at each emit site.
    pub fn access_with<M: CacheMonitor>(
        &mut self,
        line: LineAddr,
        flags: AccessFlags,
        mon: &mut M,
    ) -> AccessResult {
        if flags.dram_direct {
            let latency = match flags.kind {
                AccessKind::Read => self.dram.read(line),
                AccessKind::Write => self.dram.write(line),
            };
            return AccessResult {
                latency,
                hit_level: Level::Dram,
                dram_latency: latency,
            };
        }

        let path: &[Level] = if flags.bypass_l2 {
            &[Level::Llc]
        } else if flags.bypass_l1 {
            &[Level::L2, Level::Llc]
        } else {
            &[Level::L1d, Level::L2, Level::Llc]
        };

        let mut latency = 0;
        let mut hit_at: Option<(usize, Level)> = None;
        for (i, &level) in path.iter().enumerate() {
            latency += self.cache(level).hit_latency();
            // Only the nearest level sees the demand kind; deeper levels are
            // fetch reads — the dirty data will live in the nearest level.
            let kind = if i == 0 { flags.kind } else { AccessKind::Read };
            let update = if i == 0 {
                flags.update_replacement
            } else {
                true
            };
            if level == Level::Llc {
                self.count_slice(line);
            }
            match self.cache_mut(level).access(line, kind, update) {
                AccessOutcome::Hit { dirty, dirtied } => {
                    self.emit(mon, level, line, CacheEventKind::Hit { dirty });
                    if dirtied {
                        self.emit(
                            mon,
                            level,
                            line,
                            CacheEventKind::DirtyChange { dirty: true },
                        );
                    }
                    hit_at = Some((i, level));
                    break;
                }
                AccessOutcome::Miss => {}
            }
        }

        let mut dram_latency = 0;
        let (filled_up_to, hit_level) = match hit_at {
            Some((i, level)) => (i, level),
            None => {
                dram_latency = self.dram.read(line);
                latency += dram_latency;
                (path.len(), Level::Dram)
            }
        };

        // Fill the missed levels. Exclusive hierarchies migrate the line to
        // the nearest probed level only, invalidating the lower copy it was
        // found in; the other policies fill every probed level (nearest
        // last so its fill sees the final dirty state).
        if self.inclusion == InclusionPolicy::Exclusive {
            let mut dirty = flags.kind == AccessKind::Write;
            if let Some((i, level)) = hit_at {
                if i > 0 {
                    if let Some(d) = self.cache_mut(level).invalidate(line) {
                        self.emit(mon, level, line, CacheEventKind::Evict);
                        dirty |= d;
                    }
                }
            }
            if filled_up_to > 0 {
                self.fill_at(mon, path[0], line, dirty);
            }
        } else {
            for (i, &level) in path.iter().enumerate().take(filled_up_to).rev() {
                let dirty = i == 0 && flags.kind == AccessKind::Write;
                self.fill_at(mon, level, line, dirty);
            }
        }

        // Next-line prefetch on an L1d demand miss.
        if self.prefetch_next_line
            && !flags.bypass_l1
            && hit_level != Level::L1d
            && !self.l1d.is_resident(line.offset(1))
        {
            self.prefetch_fills += 1;
            self.fill_at(mon, Level::L1d, line.offset(1), false);
        }

        AccessResult {
            latency,
            hit_level,
            dram_latency,
        }
    }

    /// The cache-lookup half of `CTLoad`/`CTStore`: a state-free probe at
    /// the level the BIA monitors. Returns the probe outcome and the lookup
    /// latency (the monitored level's hit latency; probes do not recurse).
    pub fn ct_probe(&mut self, line: LineAddr, at: MonitorLevel) -> (ProbeOutcome, u64) {
        let level = at.level();
        let latency = self.cache(level).hit_latency();
        (self.cache_mut(level).probe(line), latency)
    }

    /// The conditional-store half of `CTStore`: writes the line **only if it
    /// is already dirty** at the monitored level (§4.1). Never fills, never
    /// updates replacement state. Returns whether the write happened and the
    /// latency.
    ///
    /// Like [`Hierarchy::ct_probe`], this is architecturally invisible: it
    /// changes only the *data* of an already-dirty resident line ("they do
    /// not change anything except data", §5.3), so it is recorded as a
    /// probe, not a demand access — in particular it must not perturb the
    /// per-set access counters, whose secret-independence the Figure 10
    /// security test checks (the spliced `CTStore` address carries
    /// secret-derived offset bits).
    pub fn ct_write_if_dirty(&mut self, line: LineAddr, at: MonitorLevel) -> (bool, u64) {
        let level = at.level();
        let latency = self.cache(level).hit_latency();
        let outcome = self.cache_mut(level).probe(line);
        (outcome.dirty, latency)
    }

    /// Removes `line` from every level (a `clflush`-like operation, used by
    /// the machine's `flush_line` and co-runner), delivering monitored
    /// evictions directly to `mon`. Dirty copies are written back to DRAM.
    pub fn invalidate_everywhere_with<M: CacheMonitor>(&mut self, line: LineAddr, mon: &mut M) {
        let mut was_dirty = false;
        for level in [Level::L1d, Level::L2, Level::Llc] {
            if let Some(dirty) = self.cache_mut(level).invalidate(line) {
                self.emit(mon, level, line, CacheEventKind::Evict);
                was_dirty |= dirty;
            }
        }
        if was_dirty {
            self.dram.write(line);
        }
    }

    /// Snapshot of every counter in the hierarchy. No instruction cache is
    /// simulated, so `l1i` is always zero.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: CacheStats::default(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            llc: *self.llc.stats(),
            dram: *self.dram.stats(),
            prefetch_fills: self.prefetch_fills,
        }
    }

    /// Restores the exactly-as-built state — contents and stats cleared —
    /// while keeping every allocation and the monitored level. A reset
    /// hierarchy is indistinguishable from a freshly constructed one to
    /// everything that can observe it.
    pub fn reset(&mut self) {
        self.l1d.reset();
        self.l2.reset();
        self.llc.reset();
        self.dram.reset();
        self.prefetch_fills = 0;
        self.slice_counts.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn h() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::tiny()).unwrap()
    }

    /// Records the monitored level's events in emission order.
    type Events = Vec<(LineAddr, CacheEventKind)>;

    impl CacheMonitor for Events {
        fn cache_event(&mut self, line: LineAddr, kind: CacheEventKind) {
            self.push((line, kind));
        }
    }

    fn access_recorded(h: &mut Hierarchy, line: LineAddr, flags: AccessFlags) -> Events {
        let mut evs = Events::new();
        h.access_with(line, flags, &mut evs);
        evs
    }

    #[test]
    fn cold_miss_fills_all_levels() {
        let mut h = h();
        let l = LineAddr::new(10);
        let r = h.access(l, AccessFlags::read());
        assert_eq!(r.hit_level, Level::Dram);
        assert_eq!(r.latency, 2 + 15 + 41 + 200);
        assert!(h.cache(Level::L1d).is_resident(l));
        assert!(h.cache(Level::L2).is_resident(l));
        assert!(h.cache(Level::Llc).is_resident(l));
    }

    #[test]
    fn l2_hit_fills_l1() {
        let mut h = h();
        let l = LineAddr::new(3);
        h.access(l, AccessFlags::read());
        h.cache_mut(Level::L1d).invalidate(l);
        let r = h.access(l, AccessFlags::read());
        assert_eq!(r.hit_level, Level::L2);
        assert_eq!(r.latency, 2 + 15);
        assert!(h.cache(Level::L1d).is_resident(l));
    }

    #[test]
    fn dram_latency_isolates_the_dram_portion() {
        let mut h = h();
        let l = LineAddr::new(10);
        // Full miss: the DRAM portion plus the cache lookups is the total.
        let cold = h.access(l, AccessFlags::read());
        assert_eq!(cold.hit_level, Level::Dram);
        assert_eq!(cold.dram_latency + 2 + 15 + 41, cold.latency);
        // Cache hit: no DRAM time at all.
        let warm = h.access(l, AccessFlags::read());
        assert_eq!(warm.hit_level, Level::L1d);
        assert_eq!(warm.dram_latency, 0);
        // DRAM-direct: the whole access is DRAM time.
        let direct = h.access(LineAddr::new(999), AccessFlags::read().dram_direct());
        assert_eq!(direct.dram_latency, direct.latency);
    }

    #[test]
    fn write_dirties_nearest_level_only() {
        let mut h = h();
        let l = LineAddr::new(4);
        h.access(l, AccessFlags::write());
        assert!(h.cache(Level::L1d).is_dirty(l));
        assert!(!h.cache(Level::L2).is_dirty(l));
    }

    #[test]
    fn dirty_eviction_writes_back_down() {
        let mut h = h(); // L1d: 8 sets x 2 ways
        let sets = h.cache(Level::L1d).num_sets() as u64;
        let a = LineAddr::new(0);
        h.access(a, AccessFlags::write());
        // Evict `a` from L1d by filling its set with two more lines.
        h.access(LineAddr::new(sets), AccessFlags::read());
        h.access(LineAddr::new(2 * sets), AccessFlags::read());
        assert!(!h.cache(Level::L1d).is_resident(a));
        assert!(h.cache(Level::L2).is_dirty(a), "write-back must dirty L2");
    }

    #[test]
    fn bypass_l1_leaves_l1_untouched() {
        let mut h = h();
        let l = LineAddr::new(77);
        let r = h.access(l, AccessFlags::read().bypassing_l1());
        assert_eq!(r.hit_level, Level::Dram);
        assert_eq!(r.latency, 15 + 41 + 200);
        assert!(!h.cache(Level::L1d).is_resident(l));
        assert!(h.cache(Level::L2).is_resident(l));
    }

    #[test]
    fn dram_direct_touches_no_cache() {
        let mut h = h();
        let l = LineAddr::new(55);
        let r = h.access(l, AccessFlags::read().dram_direct());
        assert_eq!(r.hit_level, Level::Dram);
        assert_eq!(r.latency, 200);
        assert!(!h.cache(Level::L1d).is_resident(l));
        assert!(!h.cache(Level::L2).is_resident(l));
        assert!(!h.cache(Level::Llc).is_resident(l));
        assert_eq!(h.stats().l1d.accesses(), 0);
    }

    #[test]
    fn ct_probe_never_fills_or_forwards() {
        let mut h = h();
        let l = LineAddr::new(9);
        h.access(l, AccessFlags::read());
        h.cache_mut(Level::L1d).invalidate(l); // still in L2
        let (p, lat) = h.ct_probe(l, MonitorLevel::L1d);
        assert!(!p.resident, "probe must not look past L1d");
        assert_eq!(lat, 2);
        assert!(!h.cache(Level::L1d).is_resident(l), "probe must not fill");
        let (p, _) = h.ct_probe(l, MonitorLevel::L2);
        assert!(p.resident);
    }

    #[test]
    fn ct_write_if_dirty_semantics() {
        let mut h = h();
        let clean = LineAddr::new(1);
        let dirty = LineAddr::new(2);
        h.access(clean, AccessFlags::read());
        h.access(dirty, AccessFlags::write());
        let (wrote, _) = h.ct_write_if_dirty(clean, MonitorLevel::L1d);
        assert!(!wrote, "clean line must not be written");
        assert!(!h.cache(Level::L1d).is_dirty(clean));
        let (wrote, _) = h.ct_write_if_dirty(dirty, MonitorLevel::L1d);
        assert!(wrote);
        let (wrote, _) = h.ct_write_if_dirty(LineAddr::new(99), MonitorLevel::L1d);
        assert!(!wrote, "absent line must not be written");
        assert!(
            !h.cache(Level::L1d).is_resident(LineAddr::new(99)),
            "CTStore must not fill"
        );
    }

    #[test]
    fn events_track_monitored_level_only() {
        let mut h = h();
        h.set_monitor(Some(MonitorLevel::L1d));
        let l = LineAddr::new(6);
        let evs = access_recorded(&mut h, l, AccessFlags::read());
        assert_eq!(evs, vec![(l, CacheEventKind::Fill { dirty: false })]);
        let evs = access_recorded(&mut h, l, AccessFlags::write());
        assert!(evs.contains(&(l, CacheEventKind::Hit { dirty: true })));
        assert!(evs.contains(&(l, CacheEventKind::DirtyChange { dirty: true })));
        h.set_monitor(None);
        let evs = access_recorded(&mut h, LineAddr::new(7), AccessFlags::read());
        assert!(evs.is_empty());
    }

    #[test]
    fn eviction_event_emitted_at_monitored_level() {
        let mut h = h();
        h.set_monitor(Some(MonitorLevel::L1d));
        let sets = h.cache(Level::L1d).num_sets() as u64;
        let a = LineAddr::new(0);
        access_recorded(&mut h, a, AccessFlags::read());
        access_recorded(&mut h, LineAddr::new(sets), AccessFlags::read());
        let evs = access_recorded(&mut h, LineAddr::new(2 * sets), AccessFlags::read());
        assert!(
            evs.contains(&(a, CacheEventKind::Evict)),
            "expected eviction of {a} in {evs:?}"
        );
    }

    #[test]
    fn invalidate_everywhere_clears_all_levels() {
        let mut h = h();
        let l = LineAddr::new(21);
        h.access(l, AccessFlags::write());
        h.invalidate_everywhere_with(l, &mut NullMonitor);
        for level in [Level::L1d, Level::L2, Level::Llc] {
            assert!(!h.cache(level).is_resident(l));
        }
        assert_eq!(h.stats().dram.writes, 1, "dirty data flushed to DRAM");
    }

    #[test]
    fn next_line_prefetcher_fills_neighbor() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l1d_next_line_prefetcher = true;
        let mut h = Hierarchy::new(cfg).unwrap();
        let l = LineAddr::new(30);
        h.access(l, AccessFlags::read());
        assert!(
            h.cache(Level::L1d).is_resident(l.offset(1)),
            "next line prefetched"
        );
        assert_eq!(h.stats().prefetch_fills, 1);
        // A hit must not trigger prefetch.
        h.access(l, AccessFlags::read());
        assert_eq!(h.stats().prefetch_fills, 1);
    }

    #[test]
    fn l1d_epoch_moves_on_prefetch_fills() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l1d_next_line_prefetcher = true;
        let mut h = Hierarchy::new(cfg).unwrap();
        let e = h.l1d_epoch();
        h.access(LineAddr::new(30), AccessFlags::read());
        assert_eq!(h.stats().prefetch_fills, 1);
        assert_eq!(
            h.l1d_epoch(),
            e + 2,
            "the demand fill and the prefetch fill"
        );
        let e = h.l1d_epoch();
        h.access(LineAddr::new(31), AccessFlags::read());
        assert_eq!(h.stats().prefetch_fills, 1, "a hit prefetches nothing");
        assert_eq!(h.l1d_epoch(), e, "a hit leaves the epoch alone");
    }

    #[test]
    fn l1d_epoch_moves_on_inclusive_back_invalidation() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.inclusion = InclusionPolicy::Inclusive;
        let mut h = Hierarchy::new(cfg).unwrap();
        let llc_sets = h.cache(Level::Llc).num_sets() as u64;
        let ways = h.cache(Level::Llc).config().associativity as u64;
        let a = LineAddr::new(5);
        h.access(a, AccessFlags::read());
        let e = h.l1d_epoch();
        // Lines of `a`'s LLC set, installed in the LLC only: the last one
        // evicts `a` there, and inclusion takes it out of the L1d.
        for k in 1..=ways {
            assert_eq!(h.l1d_epoch(), e, "LLC-only fills leave the L1d alone");
            h.access(
                LineAddr::new(5 + k * llc_sets),
                AccessFlags::read().bypassing_l2(),
            );
        }
        assert!(!h.cache(Level::L1d).is_resident(a));
        assert!(h.l1d_epoch() > e);
    }

    #[test]
    fn l1d_replay_hits_forwards_to_the_l1d() {
        let mut h = h();
        let l = LineAddr::new(12);
        h.access(l, AccessFlags::read());
        let slot = h.l1d_access_if_hit(l, AccessKind::Read, false).unwrap();
        let before = h.stats();
        h.l1d_replay_hits(&[slot, slot], AccessKind::Write);
        let delta = h.stats() - before;
        assert_eq!((delta.l1d.writes, delta.l1d.hits), (2, 2));
        assert_eq!(delta.l2, CacheStats::default());
        assert!(h.cache(Level::L1d).is_dirty(l));
    }

    #[test]
    fn bypass_l2_goes_straight_to_llc() {
        let mut h = h();
        let l = LineAddr::new(123);
        let r = h.access(l, AccessFlags::read().bypassing_l2());
        assert_eq!(r.hit_level, Level::Dram);
        assert_eq!(r.latency, 41 + 200);
        assert!(!h.cache(Level::L1d).is_resident(l));
        assert!(!h.cache(Level::L2).is_resident(l));
        assert!(h.cache(Level::Llc).is_resident(l));
        let r = h.access(l, AccessFlags::read().bypassing_l2());
        assert_eq!(r.hit_level, Level::Llc);
        assert_eq!(r.latency, 41);
    }

    #[test]
    fn llc_monitor_emits_events() {
        let mut h = h();
        h.set_monitor(Some(MonitorLevel::Llc));
        let l = LineAddr::new(9);
        let evs = access_recorded(&mut h, l, AccessFlags::read().bypassing_l2());
        assert!(evs.contains(&(l, CacheEventKind::Fill { dirty: false })));
        let (p, lat) = h.ct_probe(l, MonitorLevel::Llc);
        assert!(p.resident);
        assert_eq!(lat, 41);
    }

    #[test]
    fn slice_counts_track_llc_demand_traffic() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.llc_slices = 4;
        cfg.llc_ls_hash_bit = 12;
        let mut h = Hierarchy::new(cfg).unwrap();
        // Touch one line per page across 8 pages; each LLC access counts
        // against that page's slice.
        for p in 0..8u64 {
            h.access(LineAddr::new(p * 64), AccessFlags::read());
        }
        let total: u64 = h.llc_slice_counts().iter().sum();
        assert_eq!(total, 8, "each cold miss reached the LLC once");
        // Lines within one page map to one slice (LS_Hash = 12).
        let s0 = h.llc_slice_of(LineAddr::new(0));
        for i in 0..64 {
            assert_eq!(h.llc_slice_of(LineAddr::new(i)), s0);
        }
        // Monolithic LLC: everything slice 0.
        let h2 = Hierarchy::new(HierarchyConfig::tiny()).unwrap();
        assert_eq!(h2.llc_slice_of(LineAddr::new(12345)), 0);
    }
}
