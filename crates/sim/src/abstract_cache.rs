//! CacheAudit-style abstract LRU cache domain (DESIGN.md §15).
//!
//! An [`AbstractCache`] tracks, for every cache line a program may touch,
//! an *interval of possible LRU ages* `[lo, hi]` within the line's set —
//! the classic must/may analysis of Ferdinand-style cache abstract
//! interpretation ("Rigorous Analysis of Software Countermeasures against
//! Cache Attacks", PAPERS.md). Age `0` is most-recently-used; any age
//! `>= associativity` means *not resident*, so the interval encodes
//! residency three-valued-ly:
//!
//! * `hi < ways`  — the line is **definitely resident** ([`Residency::In`]);
//! * `lo >= ways` — **definitely not resident** ([`Residency::Out`]);
//! * otherwise    — **maybe resident** ([`Residency::Maybe`]).
//!
//! Concrete accesses ([`AbstractCache::touch`]) update ages exactly (the
//! intervals stay singletons along a deterministic trace); a
//! *secret-dependent* access whose target is only known to lie in a
//! candidate line set ([`AbstractCache::touch_any`]) joins the states of
//! every possible choice and flags the affected lines *secret* — their
//! state now correlates with the secret. The static analyzer counts
//! reachable observable states from those flags and interval widths; a run
//! in which every interval stays a singleton and no line is ever flagged
//! is observation-deterministic for all secrets.
//!
//! The geometry (set mapping, associativity) mirrors [`crate::cache::Cache`]
//! exactly — same `line & set_mask` index, same LRU ordering — so the
//! abstract domain is a sound mirror of the packed concrete sets.

use crate::addr::LineAddr;
use crate::config::CacheConfig;

/// Three-valued residency of a line in the abstract cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Definitely resident (max age < associativity).
    In,
    /// Definitely not resident (min age >= associativity).
    Out,
    /// Resident on some possible executions only.
    Maybe,
}

/// Abstract state of one tracked line: the interval of its possible LRU
/// ages plus whether that state is secret-correlated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Minimum possible age (0 = MRU).
    pub lo: u32,
    /// Maximum possible age, saturated at the associativity ("out").
    pub hi: u32,
    /// Whether this line's state depends on a secret-dependent choice.
    pub secret: bool,
}

/// Abstract per-set LRU cache over age intervals.
///
/// Stored as one dense row per set: every line touched so far in that set,
/// with its state, in first-touch order. Untracked lines are definitely
/// not resident, so the rows grow with the program's footprint, not the
/// cache size. Every access already ages the whole row of its set, so
/// finding a line by scanning that row adds no new order of cost, and no
/// update depends on the row's order.
#[derive(Debug, Clone)]
pub struct AbstractCache {
    set_mask: u64,
    ways: u32,
    sets: Vec<Vec<(u64, LineState)>>,
}

impl AbstractCache {
    /// Builds the abstract mirror of a cache with `cfg`'s geometry.
    pub fn new(cfg: &CacheConfig) -> AbstractCache {
        AbstractCache {
            set_mask: cfg.num_sets() - 1,
            ways: cfg.associativity,
            sets: vec![Vec::new(); cfg.num_sets() as usize],
        }
    }

    /// The associativity (the age value meaning "not resident").
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// `line`'s set and its position in that set's row, if tracked.
    fn slot(&self, line: LineAddr) -> (usize, Option<usize>) {
        let raw = line.raw();
        let set = (raw & self.set_mask) as usize;
        (set, self.sets[set].iter().position(|&(r, _)| r == raw))
    }

    /// The state at `slot`; an untracked line is definitely out.
    fn state_at(&self, (set, pos): (usize, Option<usize>)) -> LineState {
        pos.map_or(
            LineState {
                lo: self.ways,
                hi: self.ways,
                secret: false,
            },
            |i| self.sets[set][i].1,
        )
    }

    /// Stores `st` for `line` at `slot`, tracking the line on first touch.
    fn put_at(&mut self, (set, pos): (usize, Option<usize>), line: LineAddr, st: LineState) {
        let row = &mut self.sets[set];
        match pos {
            Some(i) => row[i].1 = st,
            None => row.push((line.raw(), st)),
        }
    }

    /// The current abstract state of `line`.
    pub fn line_state(&self, line: LineAddr) -> LineState {
        self.state_at(self.slot(line))
    }

    /// Three-valued residency of `line`.
    pub fn residency(&self, line: LineAddr) -> Residency {
        self.residency_of(self.line_state(line))
    }

    fn residency_of(&self, st: LineState) -> Residency {
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
        let st = self.line_state(line);
        st.secret && self.residency_of(st) == Residency::Maybe
    }

    /// Number of tracked lines whose state is secret-correlated and still
    /// uncertain — the analyzer's final-state leak diagnostic.
    pub fn secret_uncertain_lines(&self) -> u64 {
        self.sets
            .iter()
            .flatten()
            .filter(|(_, st)| st.secret && st.lo != st.hi)
            .count() as u64
    }

    /// Ages every line of `set`'s row except the one at `skip` for an
    /// access whose *age at access time* was in `[a_lo, a_hi]`: a set-mate
    /// younger than the accessed age certainly ages, one certainly older
    /// is untouched, and an overlap widens (Ferdinand's interval update).
    /// `taints` marks the mates secret (the access's effect depends on a
    /// secret).
    fn age_set_mates(
        &mut self,
        (set, skip): (usize, Option<usize>),
        a_lo: u32,
        a_hi: u32,
        taints: bool,
    ) {
        let ways = self.ways;
        for (i, (_, st)) in self.sets[set].iter_mut().enumerate() {
            if Some(i) == skip || st.lo >= ways {
                continue; // the accessed line, or definitely out.
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
        let slot = self.slot(line);
        let st = self.state_at(slot);
        // Whether this was a hit or a miss may itself be secret-correlated
        // (st.secret with uncertain residency); the mates' intervals widen
        // accordingly through the overlap rule, and inherit the flag.
        self.age_set_mates(slot, st.lo, st.hi, st.secret);
        self.put_at(
            slot,
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
        let mut cand_sets: Vec<usize> = candidates.iter().map(|&l| self.slot(l).0).collect();
        cand_sets.sort_unstable();
        cand_sets.dedup();
        let is_candidate = |raw: u64| candidates.iter().any(|&l| l.raw() == raw);
        for set in cand_sets {
            for (raw, st) in &mut self.sets[set] {
                if is_candidate(*raw) || st.lo >= ways {
                    continue;
                }
                // May or may not age, and the choice is secret.
                st.hi = (st.hi + 1).min(ways);
                st.secret = true;
            }
        }
        for &line in candidates {
            let slot = self.slot(line);
            let st = self.state_at(slot);
            self.put_at(
                slot,
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
        let slot = self.slot(line);
        let st = self.state_at(slot);
        // If it was fetched, set-mates may have aged.
        self.age_set_mates(slot, st.lo, st.hi, st.secret);
        self.put_at(
            slot,
            line,
            LineState {
                lo: 0,
                hi: self.ways.saturating_sub(1),
                secret: st.secret,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AbstractCache {
        // 4 sets x 2 ways.
        AbstractCache::new(&CacheConfig::new("t", 4 * 2 * 64, 2, 1))
    }

    fn line(set: u64, n: u64) -> LineAddr {
        LineAddr::new(set + n * 4)
    }

    #[test]
    fn deterministic_trace_stays_singleton() {
        let mut c = tiny();
        let (a, b, x) = (line(0, 0), line(0, 1), line(0, 2));
        c.touch(a);
        c.touch(b);
        assert_eq!(c.residency(a), Residency::In);
        assert_eq!(
            c.line_state(a),
            LineState {
                lo: 1,
                hi: 1,
                secret: false
            }
        );
        c.touch(x); // evicts a (age 1 -> 2 = out)
        assert_eq!(c.residency(a), Residency::Out);
        assert_eq!(c.residency(b), Residency::In);
        assert_eq!(
            c.line_state(b),
            LineState {
                lo: 1,
                hi: 1,
                secret: false
            }
        );
        assert_eq!(c.secret_uncertain_lines(), 0);
    }

    #[test]
    fn touch_hit_refreshes_without_aging_elders() {
        let mut c = tiny();
        let (a, b) = (line(0, 0), line(0, 1));
        c.touch(a);
        c.touch(b);
        c.touch(b); // hit at age 0: a (age 1) is older, unaffected.
        assert_eq!(c.line_state(a).hi, 1);
        assert_eq!(c.line_state(b).lo, 0);
    }

    #[test]
    fn symbolic_access_joins_and_flags() {
        let mut c = tiny();
        let (a, b) = (line(0, 0), line(0, 1));
        c.touch(a); // a at [0,0]
        c.touch_any(&[a, b]);
        // a: either touched ([0,0]) or aged by b's miss ([1,1]) -> [0,1].
        let sa = c.line_state(a);
        assert_eq!((sa.lo, sa.hi), (0, 1));
        assert!(sa.secret);
        // b: either fetched ([0,0]) or untouched (out) -> [0, ways].
        assert_eq!(c.residency(b), Residency::Maybe);
        assert!(c.residency_is_secret(b));
        assert!(c.secret_uncertain_lines() >= 1);
    }

    #[test]
    fn concrete_touch_clears_the_secret_flag() {
        let mut c = tiny();
        let (a, b) = (line(0, 0), line(0, 1));
        c.touch_any(&[a, b]);
        assert!(c.line_state(a).secret);
        c.touch(a);
        assert!(!c.line_state(a).secret, "state forced deterministic");
        assert_eq!(
            c.line_state(a),
            LineState {
                lo: 0,
                hi: 0,
                secret: false
            }
        );
    }

    #[test]
    fn untracked_lines_are_out() {
        let c = tiny();
        assert_eq!(c.residency(line(3, 7)), Residency::Out);
        assert!(!c.residency_is_secret(line(3, 7)));
    }

    #[test]
    fn force_resident_preserves_uncertainty_flag() {
        let mut c = tiny();
        let (a, b) = (line(1, 0), line(1, 1));
        c.touch_any(&[a, b]);
        c.force_resident(a);
        assert_eq!(c.residency(a), Residency::In);
        assert!(c.line_state(a).secret, "which path filled it is secret");
    }

    #[test]
    fn different_sets_do_not_interact() {
        let mut c = tiny();
        c.touch(line(0, 0));
        c.touch(line(1, 0));
        assert_eq!(
            c.line_state(line(0, 0)).hi,
            0,
            "other set's touch is invisible"
        );
    }
}
