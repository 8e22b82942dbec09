//! Replacement policies for set-associative caches.
//!
//! The paper's configuration uses LRU everywhere (including in the BIA
//! itself, §4.2). The alternative policies exist for the ablation benches
//! called out in DESIGN.md — §3.2 of the paper notes that when a dataflow
//! linearization set exceeds the cache, "a straightforward way to deal with
//! this problem is to change the replacement policy".
//!
//! Policies are implemented as per-set metadata updated through a small
//! enum rather than a trait object, keeping the simulator allocation-free on
//! the access path and fully deterministic (the random policy is seeded).

/// A minimal SplitMix64 generator for the random replacement policy.
///
/// Embedded (rather than `rand::StdRng`) so the replacement state stays
/// `Clone` and the simulator can be checkpointed by value.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (n small; modulo bias is negligible for the
    /// way counts involved and irrelevant to correctness).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// Least-recently-used: evict the way with the oldest access stamp.
    #[default]
    Lru,
    /// First-in-first-out: evict the way with the oldest fill stamp.
    Fifo,
    /// Uniform random victim, from a deterministic seeded generator.
    Random,
}

impl ReplacementKind {
    /// The policy's name, as displayed and as hashed into cell digests.
    pub fn tag(self) -> &'static str {
        match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::Fifo => "FIFO",
            ReplacementKind::Random => "random",
        }
    }
}

impl std::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Replacement state for one cache (all sets).
///
/// Stamps are stored per way in a flat `sets * assoc` vector. A global
/// monotonic counter provides recency ordering; `u64` cannot realistically
/// overflow within a simulation.
#[derive(Debug, Clone)]
pub struct ReplacementState {
    kind: ReplacementKind,
    assoc: usize,
    stamps: Vec<u64>,
    clock: u64,
    rng: SplitMix64,
    /// The construction seed, kept so [`ReplacementState::reset`] can
    /// rewind the generator to its initial state.
    seed: u64,
}

impl ReplacementState {
    /// Creates replacement state for `num_sets` sets of `assoc` ways.
    ///
    /// The random policy draws from a generator seeded with `seed` so that
    /// simulations are reproducible.
    pub fn new(kind: ReplacementKind, num_sets: usize, assoc: usize, seed: u64) -> Self {
        ReplacementState {
            kind,
            assoc,
            stamps: vec![0; num_sets * assoc],
            clock: 0,
            rng: SplitMix64(seed),
            seed,
        }
    }

    /// Rewinds to the exactly-as-built state while keeping the stamp
    /// buffer. Stale stamps are deliberately left behind: a way's stamp is
    /// only ever read by [`ReplacementState::victim`], which the cache
    /// consults when every way of the set is valid — and validity is only
    /// granted by a post-reset fill, which writes the way's stamp first.
    pub fn reset(&mut self) {
        self.clock = 0;
        self.rng = SplitMix64(self.seed);
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }

    /// Records a fill of `way` in `set` (a new line installed).
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        self.clock += 1;
        let i = self.idx(set, way);
        self.stamps[i] = self.clock;
    }

    /// Records a hit on `way` in `set`.
    ///
    /// Under FIFO this is a no-op (age is fill order). Under LRU the stamp is
    /// refreshed. The cache layer skips this call entirely for
    /// replacement-neutral accesses — the paper's "not updating
    /// \[the\] replacement bit (LRU bit) if the access is secret-relevant"
    /// (§3.2).
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        if self.kind == ReplacementKind::Lru {
            self.clock += 1;
            let i = self.idx(set, way);
            self.stamps[i] = self.clock;
        }
    }

    /// Chooses a victim way in `set`. All ways are assumed valid (the cache
    /// fills invalid ways before consulting the policy).
    ///
    /// LRU/FIFO pick the way with the *first strict minimum* stamp. The
    /// min-scan is written with select expressions rather than an `if`
    /// chain so it compiles to conditional moves over the contiguous stamp
    /// row instead of a data-dependent branch per way.
    #[inline]
    pub fn victim(&mut self, set: usize) -> usize {
        match self.kind {
            ReplacementKind::Lru | ReplacementKind::Fifo => {
                let base = set * self.assoc;
                let row = &self.stamps[base..base + self.assoc];
                let mut best = 0usize;
                let mut best_stamp = row[0];
                for (way, &s) in row.iter().enumerate().skip(1) {
                    let better = s < best_stamp;
                    best = if better { way } else { best };
                    best_stamp = if better { s } else { best_stamp };
                }
                best
            }
            ReplacementKind::Random => self.rng.below(self.assoc),
        }
    }

    /// The policy kind in effect.
    pub fn kind(&self) -> ReplacementKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = ReplacementState::new(ReplacementKind::Lru, 1, 4, 0);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        r.on_hit(0, 0); // way 0 becomes most recent; way 1 is now oldest
        assert_eq!(r.victim(0), 1);
        r.on_hit(0, 1);
        assert_eq!(r.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = ReplacementState::new(ReplacementKind::Fifo, 1, 4, 0);
        for way in 0..4 {
            r.on_fill(0, way);
        }
        r.on_hit(0, 0);
        r.on_hit(0, 0);
        // Way 0 was filled first; hits must not rescue it under FIFO.
        assert_eq!(r.victim(0), 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = ReplacementState::new(ReplacementKind::Random, 1, 8, 7);
        let mut b = ReplacementState::new(ReplacementKind::Random, 1, 8, 7);
        let va: Vec<usize> = (0..32).map(|_| a.victim(0)).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.victim(0)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().all(|&w| w < 8));
    }

    #[test]
    fn sets_are_independent() {
        let mut r = ReplacementState::new(ReplacementKind::Lru, 2, 2, 0);
        r.on_fill(0, 0);
        r.on_fill(0, 1);
        r.on_fill(1, 1);
        r.on_fill(1, 0);
        r.on_hit(0, 0);
        assert_eq!(r.victim(0), 1);
        assert_eq!(r.victim(1), 1); // filled before way 0 in set 1
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementKind::Lru.to_string(), "LRU");
        assert_eq!(ReplacementKind::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementKind::Random.to_string(), "random");
    }
}
