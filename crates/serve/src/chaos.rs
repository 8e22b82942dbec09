//! Seeded fault injection for the serving daemon.
//!
//! A [`ChaosSpec`] is a budget of faults — worker panics, job stalls, torn
//! cache writes, transient cache I/O errors — parsed from the CLI
//! (`ctbia serve --chaos panic:2,stall:1,seed:7`). The running server
//! wraps it in a [`ChaosState`], which hands out at most one injection per
//! *fresh* job (coalesced waiters share their job's fate) until every
//! budget is spent, then gets out of the way. A submit the daemon answers
//! from its memo index draws too, as if it were a fresh job, and is
//! queued as one when it draws a fault.
//!
//! Everything is deterministic: given the same spec (seed included) and
//! the same submit order, the same jobs receive the same faults. That is
//! what lets the chaos suite assert exact counter values and byte-identical
//! surviving results instead of "it probably survived".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One kind of injected fault, applied at a job's execution site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Panic the worker thread mid-job (after the coalescing window).
    Panic,
    /// Stall the job for `stall_ms` before executing it normally.
    Stall,
    /// Execute normally, then tear the job's cache entry mid-file.
    TornWrite,
    /// Fail the job's memo-cache store with a synthetic I/O error.
    IoError,
}

/// A parsed chaos budget: how many of each fault to inject, plus knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Worker panics to inject.
    pub panics: u64,
    /// Job stalls to inject.
    pub stalls: u64,
    /// Cache entries to tear after a successful execution.
    pub torn_writes: u64,
    /// Memo-cache stores to fail with a synthetic I/O error.
    pub io_errors: u64,
    /// How long an injected stall sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Seed of the injection-order RNG.
    pub seed: u64,
}

impl Default for ChaosSpec {
    fn default() -> ChaosSpec {
        ChaosSpec {
            panics: 0,
            stalls: 0,
            torn_writes: 0,
            io_errors: 0,
            stall_ms: 250,
            seed: 1,
        }
    }
}

/// Why a chaos spec did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosSpecError {
    /// A clause without a `:` between key and value.
    NotKeyValue(String),
    /// A clause whose value is not a `u64`.
    BadValue(String),
    /// A key other than `panic`, `stall`, `torn`, `io`, `stall-ms`, `seed`.
    UnknownKey(String),
    /// `seed:0` (the injection-order RNG needs a nonzero state).
    ZeroSeed,
    /// The four fault counts sum past `u64::MAX`.
    BudgetOverflow,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosSpecError::NotKeyValue(clause) => {
                write!(f, "chaos clause {clause:?} is not key:value")
            }
            ChaosSpecError::BadValue(clause) => {
                write!(f, "chaos clause {clause:?} needs an integer value")
            }
            ChaosSpecError::UnknownKey(key) => write!(
                f,
                "unknown chaos key {key:?} (panic, stall, torn, io, stall-ms, seed)"
            ),
            ChaosSpecError::ZeroSeed => f.write_str("chaos seed must be nonzero"),
            ChaosSpecError::BudgetOverflow => {
                f.write_str("chaos fault counts sum past the largest budget (2^64 - 1)")
            }
        }
    }
}

impl std::error::Error for ChaosSpecError {}

impl ChaosSpec {
    /// Parses a comma-separated `key:value` spec, e.g.
    /// `panic:2,stall:1,torn:1,io:1,stall-ms:500,seed:42`. Every key is
    /// optional; unknown keys are errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ChaosSpecError`] naming the offending clause, a zero
    /// seed, or fault counts whose [`ChaosSpec::budget`] would overflow.
    pub fn parse(text: &str) -> Result<ChaosSpec, ChaosSpecError> {
        let mut spec = ChaosSpec::default();
        for clause in text.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once(':')
                .ok_or_else(|| ChaosSpecError::NotKeyValue(clause.to_string()))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| ChaosSpecError::BadValue(clause.to_string()))?;
            match key.trim() {
                "panic" => spec.panics = value,
                "stall" => spec.stalls = value,
                "torn" => spec.torn_writes = value,
                "io" => spec.io_errors = value,
                "stall-ms" => spec.stall_ms = value,
                "seed" => spec.seed = value,
                other => return Err(ChaosSpecError::UnknownKey(other.to_string())),
            }
        }
        if spec.seed == 0 {
            return Err(ChaosSpecError::ZeroSeed);
        }
        spec.checked_budget()
            .ok_or(ChaosSpecError::BudgetOverflow)?;
        Ok(spec)
    }

    /// Total faults budgeted across all kinds, saturating at `u64::MAX`
    /// (a parsed spec never saturates: [`ChaosSpec::parse`] rejects counts
    /// whose sum overflows).
    pub fn budget(&self) -> u64 {
        self.checked_budget().unwrap_or(u64::MAX)
    }

    fn checked_budget(&self) -> Option<u64> {
        self.panics
            .checked_add(self.stalls)?
            .checked_add(self.torn_writes)?
            .checked_add(self.io_errors)
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "panic:{},stall:{},torn:{},io:{},stall-ms:{},seed:{}",
            self.panics, self.stalls, self.torn_writes, self.io_errors, self.stall_ms, self.seed
        )
    }
}

/// Remaining budgets plus the RNG state, updated under one lock so the
/// assignment is a pure function of submit order.
#[derive(Debug)]
struct Budgets {
    panics: u64,
    stalls: u64,
    torn_writes: u64,
    io_errors: u64,
    rng: u64,
}

/// The live injection state a server carries: hands each fresh job its
/// fault (or `None` once the budgets are spent) and counts what it did.
#[derive(Debug)]
pub struct ChaosState {
    spec: ChaosSpec,
    budgets: Mutex<Budgets>,
    injected: AtomicU64,
}

impl ChaosState {
    /// Wraps a spec into live state with full budgets.
    pub fn new(spec: ChaosSpec) -> ChaosState {
        ChaosState {
            spec,
            budgets: Mutex::new(Budgets {
                panics: spec.panics,
                stalls: spec.stalls,
                torn_writes: spec.torn_writes,
                io_errors: spec.io_errors,
                rng: spec.seed,
            }),
            injected: AtomicU64::new(0),
        }
    }

    /// The spec this state was built from.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Faults handed out so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Assigns the next fresh job its fault: a seeded pick among the kinds
    /// with budget left, or `None` once every budget is spent. Called once
    /// per fresh job, in submit order, so the assignment is deterministic.
    pub fn next_injection(&self) -> Option<ChaosKind> {
        let mut b = self.budgets.lock().unwrap();
        let mut kinds = Vec::with_capacity(4);
        if b.panics > 0 {
            kinds.push(ChaosKind::Panic);
        }
        if b.stalls > 0 {
            kinds.push(ChaosKind::Stall);
        }
        if b.torn_writes > 0 {
            kinds.push(ChaosKind::TornWrite);
        }
        if b.io_errors > 0 {
            kinds.push(ChaosKind::IoError);
        }
        if kinds.is_empty() {
            return None;
        }
        // xorshift64: cheap, deterministic, no dependency.
        b.rng ^= b.rng << 13;
        b.rng ^= b.rng >> 7;
        b.rng ^= b.rng << 17;
        let kind = kinds[(b.rng % kinds.len() as u64) as usize];
        match kind {
            ChaosKind::Panic => b.panics -= 1,
            ChaosKind::Stall => b.stalls -= 1,
            ChaosKind::TornWrite => b.torn_writes -= 1,
            ChaosKind::IoError => b.io_errors -= 1,
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_defaults() {
        let spec = ChaosSpec::parse("panic:2,stall:1,torn:3,io:4,stall-ms:500,seed:42").unwrap();
        assert_eq!(spec.panics, 2);
        assert_eq!(spec.stalls, 1);
        assert_eq!(spec.torn_writes, 3);
        assert_eq!(spec.io_errors, 4);
        assert_eq!(spec.stall_ms, 500);
        assert_eq!(spec.seed, 42);
        assert_eq!(ChaosSpec::parse(&spec.to_string()).unwrap(), spec);
        let sparse = ChaosSpec::parse("panic:1").unwrap();
        assert_eq!(sparse.panics, 1);
        assert_eq!(sparse.budget(), 1);
        assert_eq!(sparse.stall_ms, ChaosSpec::default().stall_ms);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(ChaosSpec::parse("panic").is_err());
        assert!(ChaosSpec::parse("panic:lots").is_err());
        assert!(ChaosSpec::parse("explode:1").is_err());
        assert!(ChaosSpec::parse("seed:0").is_err());
    }

    #[test]
    fn parse_rejects_budgets_that_overflow() {
        assert_eq!(
            ChaosSpec::parse("panic:18446744073709551615,stall:1"),
            Err(ChaosSpecError::BudgetOverflow)
        );
        assert_eq!(
            ChaosSpec::parse("torn:9223372036854775808,io:9223372036854775808"),
            Err(ChaosSpecError::BudgetOverflow)
        );
        // The largest budget still parses, and its sum is exact.
        let max = ChaosSpec::parse("panic:18446744073709551614,io:1").unwrap();
        assert_eq!(max.budget(), u64::MAX);
        // stall-ms and seed are knobs, not faults: they never overflow it.
        let knobs = ChaosSpec::parse("panic:18446744073709551615,stall-ms:18446744073709551615");
        assert_eq!(knobs.unwrap().budget(), u64::MAX);
    }

    #[test]
    fn injections_drain_the_budget_deterministically() {
        let spec = ChaosSpec::parse("panic:2,io:1,seed:7").unwrap();
        let a: Vec<_> = {
            let state = ChaosState::new(spec);
            (0..5).map(|_| state.next_injection()).collect()
        };
        let b: Vec<_> = {
            let state = ChaosState::new(spec);
            (0..5).map(|_| state.next_injection()).collect()
        };
        assert_eq!(a, b, "same seed, same submit order, same plan");
        let drawn: Vec<_> = a.iter().flatten().collect();
        assert_eq!(drawn.len(), 3, "exactly the budget is handed out");
        assert_eq!(a[3], None);
        assert_eq!(a[4], None);
        assert_eq!(drawn.iter().filter(|k| ***k == ChaosKind::Panic).count(), 2);
        assert_eq!(
            drawn.iter().filter(|k| ***k == ChaosKind::IoError).count(),
            1
        );
        let state = ChaosState::new(spec);
        for _ in 0..3 {
            state.next_injection();
        }
        assert_eq!(state.injected(), 3);
        state.next_injection();
        assert_eq!(state.injected(), 3, "spent budgets inject nothing");
    }
}
