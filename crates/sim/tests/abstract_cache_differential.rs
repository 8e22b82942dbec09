//! Differential property test for the dense per-set abstract cache: the
//! row-per-set implementation is compared against the original
//! `HashMap`-backed abstract domain, kept here verbatim as the reference
//! model. Random streams of concrete touches, secret-dependent touches of
//! one to six candidate lines and forced residencies run over a 4-set ×
//! 2-way geometry and over the Table 1 L1d geometry; after every operation
//! both models must agree on the state and secret residency of every line
//! touched so far, and on the count of secret, uncertain lines.

use ctbia_sim::abstract_cache::{AbstractCache, LineState, Residency};
use ctbia_sim::addr::LineAddr;
use ctbia_sim::config::{CacheConfig, HierarchyConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference: the original map-backed abstract cache.
///
/// Untracked lines are definitely not resident; the map is populated
/// lazily on first touch, so the cost is proportional to the program's
/// footprint, not the cache size.
#[derive(Debug, Clone)]
pub struct RefCache {
    set_mask: u64,
    ways: u32,
    lines: HashMap<u64, LineState>,
    /// Lines per set, for iterating set-mates cheaply.
    sets: HashMap<u64, Vec<u64>>,
}

impl RefCache {
    /// Builds the abstract mirror of a cache with `cfg`'s geometry.
    pub fn new(cfg: &CacheConfig) -> RefCache {
        RefCache {
            set_mask: cfg.num_sets() - 1,
            ways: cfg.associativity,
            lines: HashMap::new(),
            sets: HashMap::new(),
        }
    }

    /// The associativity (the age value meaning "not resident").
    pub fn ways(&self) -> u32 {
        self.ways
    }

    fn set_of(&self, line: LineAddr) -> u64 {
        line.raw() & self.set_mask
    }

    fn state(&self, line: LineAddr) -> LineState {
        self.lines.get(&line.raw()).copied().unwrap_or(LineState {
            lo: self.ways,
            hi: self.ways,
            secret: false,
        })
    }

    fn put(&mut self, line: LineAddr, st: LineState) {
        let raw = line.raw();
        if self.lines.insert(raw, st).is_none() {
            self.sets.entry(raw & self.set_mask).or_default().push(raw);
        }
    }

    /// The current abstract state of `line`.
    pub fn line_state(&self, line: LineAddr) -> LineState {
        self.state(line)
    }

    /// Three-valued residency of `line`.
    pub fn residency(&self, line: LineAddr) -> Residency {
        let st = self.state(line);
        if st.hi < self.ways {
            Residency::In
        } else if st.lo >= self.ways {
            Residency::Out
        } else {
            Residency::Maybe
        }
    }

    /// Whether `line`'s *residency* is both uncertain and
    /// secret-correlated — the condition under which an existence probe
    /// (a `CTLoad` bitmap) observes the secret.
    pub fn residency_is_secret(&self, line: LineAddr) -> bool {
        self.state(line).secret && self.residency(line) == Residency::Maybe
    }

    /// Number of tracked lines whose state is secret-correlated and still
    /// uncertain — the analyzer's final-state leak diagnostic.
    pub fn secret_uncertain_lines(&self) -> u64 {
        self.lines
            .iter()
            .filter(|(_, st)| st.secret && st.lo != st.hi)
            .count() as u64
    }

    /// Ages every set-mate of `accessed` for an access whose *age at
    /// access time* was in `[a_lo, a_hi]`: a set-mate younger than the
    /// accessed age certainly ages, one certainly older is untouched, and
    /// an overlap widens (Ferdinand's interval update). `taints` marks the
    /// mates secret (the access's effect depends on a secret).
    fn age_set_mates(&mut self, set: u64, skip: u64, a_lo: u32, a_hi: u32, taints: bool) {
        let ways = self.ways;
        let mates = self.sets.get(&set).cloned().unwrap_or_default();
        for raw in mates {
            if raw == skip {
                continue;
            }
            let st = self.lines.get_mut(&raw).expect("tracked mate");
            if st.lo >= ways {
                continue; // definitely out: nothing to age.
            }
            if st.hi < a_lo {
                // Certainly younger than the accessed line: ages.
                st.lo = (st.lo + 1).min(ways);
                st.hi = (st.hi + 1).min(ways);
            } else if st.lo > a_hi {
                // Certainly older: unaffected.
            } else {
                // Overlap: may or may not age.
                st.hi = (st.hi + 1).min(ways);
                st.secret |= taints;
            }
        }
    }

    /// A concrete access to `line`: exact LRU update. Along a
    /// deterministic trace every interval stays a singleton. The accessed
    /// line's state becomes deterministic (`[0,0]`), clearing its secret
    /// flag.
    pub fn touch(&mut self, line: LineAddr) {
        let st = self.state(line);
        let set = self.set_of(line);
        // Whether this was a hit or a miss may itself be secret-correlated
        // (st.secret with uncertain residency); the mates' intervals widen
        // accordingly through the overlap rule, and inherit the flag.
        self.age_set_mates(set, line.raw(), st.lo, st.hi, st.secret);
        self.put(
            line,
            LineState {
                lo: 0,
                hi: 0,
                secret: false,
            },
        );
    }

    /// A secret-dependent access to *one of* `candidates`: the join of the
    /// post-states of every possible choice. Every candidate may have been
    /// accessed (`lo = 0`) or not (ages by at most one); every set-mate of
    /// a candidate may have aged. All affected lines are flagged secret.
    pub fn touch_any(&mut self, candidates: &[LineAddr]) {
        let ways = self.ways;
        // Age set-mates first (overlap everywhere: the access's age is
        // unknown, [0, ways]), then join the candidates' own states.
        let mut cand_sets: Vec<u64> = candidates.iter().map(|&l| self.set_of(l)).collect();
        cand_sets.sort_unstable();
        cand_sets.dedup();
        let is_candidate = |raw: u64| candidates.iter().any(|&l| l.raw() == raw);
        for &set in &cand_sets {
            let mates = self.sets.get(&set).cloned().unwrap_or_default();
            for raw in mates {
                if is_candidate(raw) {
                    continue;
                }
                let st = self.lines.get_mut(&raw).expect("tracked mate");
                if st.lo >= ways {
                    continue;
                }
                // May or may not age, and the choice is secret.
                st.hi = (st.hi + 1).min(ways);
                st.secret = true;
            }
        }
        for &line in candidates {
            let st = self.state(line);
            self.put(
                line,
                LineState {
                    lo: 0,
                    hi: (st.hi + 1).min(ways),
                    secret: true,
                },
            );
        }
    }

    /// Forces `line` resident with an unknown age without touching its
    /// set-mates' lower bounds — the post-state of a BIA sweep over a line
    /// whose prior residency was uncertain (fetched if absent, left alone
    /// if present). The secret flag is preserved: *which* happened remains
    /// secret-correlated.
    pub fn force_resident(&mut self, line: LineAddr) {
        let st = self.state(line);
        let set = self.set_of(line);
        // If it was fetched, set-mates may have aged.
        self.age_set_mates(set, line.raw(), st.lo, st.hi, st.secret);
        self.put(
            line,
            LineState {
                lo: 0,
                hi: self.ways.saturating_sub(1),
                secret: st.secret,
            },
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    Touch(LineAddr),
    TouchAny(Vec<LineAddr>),
    ForceResident(LineAddr),
}

/// Lines drawn from the first `sets` sets of a cache with `num_sets` sets,
/// with `tags` distinct lines per set: a few more than the associativity,
/// so set-mates age, collide and fall out.
fn line_strategy(num_sets: u64, sets: u64, tags: u64) -> impl Strategy<Value = LineAddr> {
    (0..sets, 0..tags).prop_map(move |(set, tag)| LineAddr::new(set + tag * num_sets))
}

fn op_strategy(num_sets: u64, sets: u64, tags: u64) -> impl Strategy<Value = Op> {
    let line = move || line_strategy(num_sets, sets, tags);
    prop_oneof![
        line().prop_map(Op::Touch),
        proptest::collection::vec(line(), 1..7).prop_map(Op::TouchAny),
        line().prop_map(Op::ForceResident),
    ]
}

fn run_differential(cfg: &CacheConfig, ops: &[Op]) {
    let mut cache = AbstractCache::new(cfg);
    let mut model = RefCache::new(cfg);
    prop_assert_eq!(cache.ways(), model.ways());
    let mut touched: Vec<LineAddr> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Touch(l) => {
                cache.touch(*l);
                model.touch(*l);
            }
            Op::TouchAny(ls) => {
                cache.touch_any(ls);
                model.touch_any(ls);
            }
            Op::ForceResident(l) => {
                cache.force_resident(*l);
                model.force_resident(*l);
            }
        }
        let new = match op {
            Op::Touch(l) | Op::ForceResident(l) => std::slice::from_ref(l),
            Op::TouchAny(ls) => ls.as_slice(),
        };
        for l in new {
            if !touched.contains(l) {
                touched.push(*l);
            }
        }
        for &l in &touched {
            prop_assert_eq!(
                cache.line_state(l),
                model.line_state(l),
                "step {} ({:?}): state of {}",
                step,
                op,
                l
            );
            prop_assert_eq!(
                cache.residency_is_secret(l),
                model.residency_is_secret(l),
                "step {} ({:?}): secret residency of {}",
                step,
                op,
                l
            );
        }
        prop_assert_eq!(
            cache.secret_uncertain_lines(),
            model.secret_uncertain_lines(),
            "step {} ({:?})",
            step,
            op
        );
    }
}

fn tiny() -> CacheConfig {
    CacheConfig::new("t", 4 * 2 * 64, 2, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_rows_match_reference_on_4x2(
        ops in proptest::collection::vec(op_strategy(4, 4, 6), 1..200),
    ) {
        run_differential(&tiny(), &ops);
    }

    #[test]
    fn dense_rows_match_reference_on_l1d(
        ops in proptest::collection::vec(
            op_strategy(HierarchyConfig::paper_table1().l1d.num_sets(), 3, 12),
            1..200,
        ),
    ) {
        run_differential(&HierarchyConfig::paper_table1().l1d, &ops);
    }
}
