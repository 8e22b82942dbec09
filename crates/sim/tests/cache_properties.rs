//! Property tests: the set-associative cache against an executable
//! reference model, plus hierarchy-wide invariants under random traffic.

use ctbia_sim::addr::LineAddr;
use ctbia_sim::cache::{AccessKind, AccessOutcome, Cache};
use ctbia_sim::config::{CacheConfig, HierarchyConfig};
use ctbia_sim::hierarchy::{AccessFlags, Hierarchy, Level};
use proptest::prelude::*;

/// A straightforward reference model of a set-associative LRU cache:
/// per set, a recency-ordered list of (tag, dirty).
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>,
    assoc: usize,
    set_mask: u64,
    set_bits: u32,
}

impl RefCache {
    fn new(num_sets: usize, assoc: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            assoc,
            set_mask: num_sets as u64 - 1,
            set_bits: (num_sets as u64).trailing_zeros(),
        }
    }

    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        (
            (line.raw() & self.set_mask) as usize,
            line.raw() >> self.set_bits,
        )
    }

    /// Returns whether the access hit; fills on miss (LRU eviction).
    fn access(&mut self, line: LineAddr, write: bool) -> bool {
        let (s, tag) = self.set_and_tag(line);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(t, _)| t == tag) {
            let (t, d) = set.remove(pos);
            set.push((t, d || write)); // most recent at the back
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0); // LRU at the front
            }
            set.push((tag, write));
            false
        }
    }

    fn is_resident(&self, line: LineAddr) -> bool {
        let (s, tag) = self.set_and_tag(line);
        self.sets[s].iter().any(|&(t, _)| t == tag)
    }

    fn is_dirty(&self, line: LineAddr) -> bool {
        let (s, tag) = self.set_and_tag(line);
        self.sets[s].iter().any(|&(t, d)| t == tag && d)
    }

    fn invalidate(&mut self, line: LineAddr) {
        let (s, tag) = self.set_and_tag(line);
        self.sets[s].retain(|&(t, _)| t != tag);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64),
    Invalidate(u64),
    Probe(u64),
}

fn op_strategy(line_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..line_space).prop_map(Op::Read),
        (0..line_space).prop_map(Op::Write),
        (0..line_space).prop_map(Op::Invalidate),
        (0..line_space).prop_map(Op::Probe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The real cache agrees with the reference model on hits, residency,
    /// and dirtiness after every operation.
    #[test]
    fn cache_matches_reference_model(ops in proptest::collection::vec(op_strategy(96), 1..400)) {
        // 8 sets x 4 ways over a 96-line space forces plenty of evictions.
        let mut cache = Cache::new(CacheConfig::new("T", 8 * 4 * 64, 4, 1)).unwrap();
        let mut model = RefCache::new(8, 4);
        for op in &ops {
            match *op {
                Op::Read(l) | Op::Write(l) => {
                    let line = LineAddr::new(l);
                    let write = matches!(op, Op::Write(_));
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let hit = matches!(cache.access(line, kind, true), AccessOutcome::Hit { .. });
                    let model_hit = model.access(line, write);
                    prop_assert_eq!(hit, model_hit, "hit mismatch at {}", line);
                    if !hit {
                        cache.fill(line, write);
                    }
                }
                Op::Invalidate(l) => {
                    let line = LineAddr::new(l);
                    cache.invalidate(line);
                    model.invalidate(line);
                }
                Op::Probe(l) => {
                    let line = LineAddr::new(l);
                    let p = cache.probe(line);
                    prop_assert_eq!(p.resident, model.is_resident(line));
                    prop_assert_eq!(p.dirty, model.is_dirty(line));
                }
            }
            // Full-state agreement after every step.
            for l in 0..96 {
                let line = LineAddr::new(l);
                prop_assert_eq!(cache.is_resident(line), model.is_resident(line), "residency of {}", line);
                prop_assert_eq!(cache.is_dirty(line), model.is_dirty(line), "dirtiness of {}", line);
            }
        }
    }

    /// Statistics identities hold under arbitrary traffic.
    #[test]
    fn cache_stats_identities(ops in proptest::collection::vec(op_strategy(64), 1..300)) {
        let mut cache = Cache::new(CacheConfig::new("T", 4 * 2 * 64, 2, 1)).unwrap();
        for op in &ops {
            match *op {
                Op::Read(l) => {
                    if cache.access(LineAddr::new(l), AccessKind::Read, true) == AccessOutcome::Miss {
                        cache.fill(LineAddr::new(l), false);
                    }
                }
                Op::Write(l) => {
                    if cache.access(LineAddr::new(l), AccessKind::Write, true) == AccessOutcome::Miss {
                        cache.fill(LineAddr::new(l), true);
                    }
                }
                Op::Invalidate(l) => {
                    cache.invalidate(LineAddr::new(l));
                }
                Op::Probe(l) => {
                    cache.probe(LineAddr::new(l));
                }
            }
        }
        let s = *cache.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses());
        prop_assert!(s.writebacks <= s.evictions);
        prop_assert!(s.fills >= s.evictions);
        let per_set: u64 = cache.set_access_counts().iter().sum();
        prop_assert_eq!(per_set, s.accesses(), "per-set counts sum to demand accesses");
        // Residency never exceeds capacity, and dirty lines are resident.
        prop_assert!(cache.resident_count() <= 8);
        let mut visited = 0usize;
        cache.for_each_resident(|line| {
            visited += 1;
            if cache.is_dirty(line) {
                assert!(cache.is_resident(line));
            }
        });
        // The allocation-free walk and the allocating one agree.
        prop_assert_eq!(visited, cache.resident_lines().len());
    }

    /// Hierarchy invariants: latency is the sum of the probed levels'
    /// latencies, every demand access lands somewhere, and the hit level is
    /// consistent with residency afterwards.
    #[test]
    fn hierarchy_latency_and_fill_invariants(
        lines in proptest::collection::vec(0u64..4096, 1..200),
        writes in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let mut h = Hierarchy::new(HierarchyConfig::tiny()).unwrap();
        for (i, &l) in lines.iter().enumerate() {
            let line = LineAddr::new(l);
            let flags = if writes[i] { AccessFlags::write() } else { AccessFlags::read() };
            let r = h.access(line, flags);
            let expected_latency = match r.hit_level {
                Level::L1d => 2,
                Level::L2 => 2 + 15,
                Level::Llc => 2 + 15 + 41,
                Level::Dram => 2 + 15 + 41 + 200,
            };
            prop_assert_eq!(r.latency, expected_latency);
            // After any access the line is in L1d (fill-on-miss).
            prop_assert!(h.cache(Level::L1d).is_resident(line));
            if writes[i] {
                prop_assert!(h.cache(Level::L1d).is_dirty(line));
            }
        }
        // Conservation: every line resident in L1d was filled at some point.
        let s = h.stats();
        prop_assert!(s.l1d.fills >= h.cache(Level::L1d).resident_count() as u64);
        prop_assert_eq!(s.l1d.hits + s.l1d.misses, s.l1d.accesses());
    }

    /// A second run over the same inputs produces identical statistics —
    /// the determinism the security methodology depends on.
    #[test]
    fn hierarchy_is_deterministic(lines in proptest::collection::vec(0u64..2048, 1..150)) {
        let run = || {
            let mut h = Hierarchy::new(HierarchyConfig::tiny()).unwrap();
            for &l in &lines {
                h.access(LineAddr::new(l), AccessFlags::read());
            }
            h.stats()
        };
        prop_assert_eq!(run(), run());
    }
}
