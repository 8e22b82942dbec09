//! A digest-prefix-sharded in-memory memo index over the disk cache.
//!
//! The serve daemon's warm path used to funnel every lookup through the
//! filesystem (one `open`+`read` per hit) and every coalescing decision
//! through a single global map. [`MemoIndex`] keeps completed reports
//! in memory ([`CellReport`]s by default; any grid cell's report type
//! through its parameter), sharded by the **top bits of the cell
//! digest** so concurrent warm lookups land on independent locks instead
//! of contending on one global mutex.
//!
//! Invariants the shards maintain:
//!
//! * **Exactly-once execution.** [`MemoIndex::get_or_execute`] admits one
//!   executor per digest; concurrent callers for the same digest block on
//!   the shard's condvar and are answered from memory when the executor
//!   finishes. A failed (or panicked) execution releases the claim and
//!   wakes the waiters, one of which re-claims — failures are never
//!   memoized.
//! * **Index ⊆ disk.** The executor closure reports whether its result is
//!   durable; a result whose disk store failed is *not* indexed, so a
//!   store failure still costs exactly one future re-simulation (the PR 6
//!   contract) instead of being silently masked by memory.
//! * **Prefix sharding.** A digest's shard is a pure function of its top
//!   32 bits (a multiply-shift range map), so each shard owns one
//!   contiguous prefix range and the shard count never changes which
//!   digests collide — only which lock they take.

use crate::report::CellReport;
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex};

/// Where a [`MemoIndex::get_or_execute`] answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoProvenance {
    /// Served from the in-memory index (or from the executor another
    /// caller was already running) — no disk touched, nothing simulated.
    Memory,
    /// The executor closure loaded it from the disk cache.
    Disk,
    /// The executor closure simulated it from scratch.
    Simulated,
}

/// What an executor closure hands back to [`MemoIndex::get_or_execute`].
#[derive(Debug, Clone)]
pub struct MemoFill<R = CellReport> {
    /// The completed report.
    pub report: R,
    /// `true` when the report was loaded from the disk cache rather than
    /// simulated.
    pub from_disk: bool,
    /// `true` when the report is durable on disk (loaded from it, or the
    /// store succeeded). Only durable results are indexed, keeping the
    /// index a strict subset of the disk cache.
    pub durable: bool,
}

impl<R> MemoFill<R> {
    /// Where the filled report came from: the disk cache or a fresh
    /// execution.
    pub fn provenance(&self) -> MemoProvenance {
        if self.from_disk {
            MemoProvenance::Disk
        } else {
            MemoProvenance::Simulated
        }
    }
}

#[derive(Debug)]
struct ShardState<R> {
    ready: HashMap<u128, R>,
    pending: HashSet<u128>,
}

#[derive(Debug)]
struct Shard<R> {
    state: Mutex<ShardState<R>>,
    cv: Condvar,
}

/// Clears a digest's pending claim when the executor finishes — or
/// unwinds. Without this, a panicking executor would leave its digest
/// claimed forever and every waiter would block.
struct PendingGuard<'a, R> {
    shard: &'a Shard<R>,
    digest: u128,
}

impl<R> Drop for PendingGuard<'_, R> {
    fn drop(&mut self) {
        let mut state = self.shard.state.lock().unwrap();
        state.pending.remove(&self.digest);
        drop(state);
        self.shard.cv.notify_all();
    }
}

/// The sharded in-memory memo index over reports of type `R`. See the
/// module docs for invariants.
#[derive(Debug)]
pub struct MemoIndex<R = CellReport> {
    shards: Vec<Shard<R>>,
}

impl<R: Clone> MemoIndex<R> {
    /// An index with `shards` independent locks (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        MemoIndex {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        ready: HashMap::new(),
                        pending: HashSet::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// Maps a digest to its shard by prefix: the top 32 bits, range-mapped
    /// onto `[0, shards)` with a multiply-shift so every shard owns one
    /// contiguous prefix interval.
    pub fn shard_of(&self, digest: u128) -> usize {
        let prefix = (digest >> 96) as u64;
        ((prefix * self.shards.len() as u64) >> 32) as usize
    }

    /// Looks up a digest without executing anything.
    pub fn lookup(&self, digest: u128) -> Option<R> {
        let shard = &self.shards[self.shard_of(digest)];
        let state = shard.state.lock().unwrap();
        state.ready.get(&digest).cloned()
    }

    /// Inserts a completed report directly (used by tests and warm-up
    /// paths that already hold a durable report).
    pub fn insert(&self, digest: u128, report: R) {
        let shard = &self.shards[self.shard_of(digest)];
        let mut state = shard.state.lock().unwrap();
        state.ready.insert(digest, report);
    }

    /// Total indexed entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().unwrap().ready.len())
            .sum()
    }

    /// `true` when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The get-or-execute choke point: returns the memoized report for
    /// `digest`, or runs `exec` exactly once per digest to fill it.
    ///
    /// Concurrent callers for the same digest block until the executor
    /// finishes and are answered [`MemoProvenance::Memory`]. If the
    /// executor fails, its waiters wake and one of them re-claims the
    /// digest (failures are not memoized).
    ///
    /// # Errors
    ///
    /// Propagates the executor closure's error to the caller that ran it.
    pub fn get_or_execute<F>(&self, digest: u128, exec: F) -> Result<(R, MemoProvenance), String>
    where
        F: FnOnce() -> Result<MemoFill<R>, String>,
    {
        let shard = &self.shards[self.shard_of(digest)];
        let mut state = shard.state.lock().unwrap();
        loop {
            if let Some(hit) = state.ready.get(&digest) {
                return Ok((hit.clone(), MemoProvenance::Memory));
            }
            if state.pending.insert(digest) {
                break; // our claim: we execute
            }
            state = shard.cv.wait(state).unwrap();
        }
        drop(state);
        let guard = PendingGuard { shard, digest };
        let fill = exec()?;
        if fill.durable {
            let mut state = shard.state.lock().unwrap();
            state.ready.insert(digest, fill.report.clone());
        }
        // The guard's drop clears the pending claim and wakes waiters,
        // which now find the ready entry (or re-claim after a failure).
        drop(guard);
        let provenance = fill.provenance();
        Ok((fill.report, provenance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellReport;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread;

    fn report(tag: u64) -> CellReport {
        CellReport {
            label: format!("cell-{tag}"),
            digest: tag,
            counters: Default::default(),
        }
    }

    fn fill(tag: u64) -> MemoFill {
        MemoFill {
            report: report(tag),
            from_disk: false,
            durable: true,
        }
    }

    #[test]
    fn lookup_insert_round_trip_across_shard_counts() {
        for shards in [1usize, 4, 16] {
            let index = MemoIndex::new(shards);
            assert!(index.is_empty());
            for d in 0..64u128 {
                let digest = d << 96 | d; // spread prefixes
                assert!(index.lookup(digest).is_none());
                index.insert(digest, report(d as u64));
                assert_eq!(index.lookup(digest).unwrap().digest, d as u64);
            }
            assert_eq!(index.len(), 64);
        }
    }

    #[test]
    fn shard_of_is_a_prefix_partition() {
        let index = MemoIndex::<CellReport>::new(16);
        // Equal prefixes land on equal shards regardless of the low bits.
        let a = 0xdead_beef_u128 << 96 | 1;
        let b = 0xdead_beef_u128 << 96 | 0xffff_ffff;
        assert_eq!(index.shard_of(a), index.shard_of(b));
        // The map covers [0, shards) and is monotone in the prefix.
        let lo = index.shard_of(0);
        let hi = index.shard_of(u128::MAX);
        assert_eq!(lo, 0);
        assert_eq!(hi, 15);
    }

    #[test]
    fn racing_callers_execute_exactly_once() {
        let index = Arc::new(MemoIndex::new(4));
        let executions = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let digest = 42u128 << 96;
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let index = Arc::clone(&index);
                let executions = Arc::clone(&executions);
                let barrier = Arc::clone(&barrier);
                thread::spawn(move || {
                    barrier.wait();
                    index
                        .get_or_execute(digest, || {
                            executions.fetch_add(1, Ordering::SeqCst);
                            thread::sleep(std::time::Duration::from_millis(20));
                            Ok(fill(7))
                        })
                        .unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "one executor");
        assert!(results.iter().all(|(r, _)| r.digest == 7));
        let simulated = results
            .iter()
            .filter(|(_, p)| *p == MemoProvenance::Simulated)
            .count();
        assert_eq!(simulated, 1, "exactly one caller simulated");
    }

    #[test]
    fn failures_release_the_claim_and_are_not_memoized() {
        let index = MemoIndex::new(1);
        let digest = 9u128;
        let err = index
            .get_or_execute(digest, || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(index.lookup(digest).is_none(), "failures are not indexed");
        // The claim is released: a retry executes and succeeds.
        let (r, p) = index.get_or_execute(digest, || Ok(fill(3))).unwrap();
        assert_eq!((r.digest, p), (3, MemoProvenance::Simulated));
    }

    #[test]
    fn non_durable_results_are_returned_but_not_indexed() {
        let index = MemoIndex::new(1);
        let digest = 5u128;
        let mut f = fill(11);
        f.durable = false;
        let (r, p) = index.get_or_execute(digest, || Ok(f)).unwrap();
        assert_eq!((r.digest, p), (11, MemoProvenance::Simulated));
        assert!(
            index.lookup(digest).is_none(),
            "a failed store must cost a future re-simulation, not be masked"
        );
    }

    #[test]
    fn a_panicking_executor_does_not_wedge_waiters() {
        let index = Arc::new(MemoIndex::new(1));
        let digest = 77u128;
        let claimed = Arc::new(Barrier::new(2));
        let panicker = {
            let index = Arc::clone(&index);
            let claimed = Arc::clone(&claimed);
            thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    index.get_or_execute(digest, || {
                        claimed.wait();
                        thread::sleep(std::time::Duration::from_millis(30));
                        panic!("injected");
                    })
                }));
            })
        };
        claimed.wait(); // the panicker holds the claim now
        let (r, p) = index.get_or_execute(digest, || Ok(fill(1))).unwrap();
        assert_eq!((r.digest, p), (1, MemoProvenance::Simulated));
        panicker.join().unwrap();
    }
}
