//! A digest-prefix-sharded in-memory memo index over the disk cache.
//!
//! The serve daemon's warm path used to funnel every lookup through the
//! filesystem (one `open`+`read` per hit). [`MemoIndex`] keeps completed
//! reports in memory ([`CellReport`]s by default; any grid cell's report
//! type through its parameter), sharded by the **top bits of the cell
//! digest** so concurrent warm lookups land on independent locks instead
//! of contending on one global mutex.
//!
//! The index is a plain map: it never decides who executes a cell.
//! Exactly-once execution is the serving front end's job (the daemon's
//! coalescing map admits one job per digest). The engine inserts only
//! **durable** reports — loaded from disk, or stored to it — so the index
//! stays a subset of the disk cache and a failed store still costs one
//! future re-simulation instead of being masked by memory.
//!
//! A digest's shard is a pure function of its top 32 bits (a
//! multiply-shift range map), so each shard owns one contiguous prefix
//! range and the shard count never changes which digests collide, only
//! which lock they take.

use crate::report::CellReport;
use std::collections::HashMap;
use std::sync::Mutex;

/// The sharded in-memory memo index over reports of type `R`. See the
/// module docs for invariants.
#[derive(Debug)]
pub struct MemoIndex<R = CellReport> {
    maps: Vec<Mutex<HashMap<u128, R>>>,
}

impl<R: Clone> MemoIndex<R> {
    /// An index with `shards` independent locks (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        MemoIndex {
            maps: std::iter::repeat_with(Mutex::default)
                .take(shards.max(1))
                .collect(),
        }
    }

    /// Maps a digest to its shard by prefix: the top 32 bits, range-mapped
    /// onto `[0, shards)` with a multiply-shift so every shard owns one
    /// contiguous prefix interval.
    fn shard_of(&self, digest: u128) -> usize {
        let prefix = (digest >> 96) as u64;
        ((prefix * self.maps.len() as u64) >> 32) as usize
    }

    /// The report indexed under `digest`, if any.
    pub fn lookup(&self, digest: u128) -> Option<R> {
        let shard = self.maps[self.shard_of(digest)].lock().unwrap();
        shard.get(&digest).cloned()
    }

    /// Indexes a durable report under `digest`.
    pub fn insert(&self, digest: u128, report: R) {
        let mut shard = self.maps[self.shard_of(digest)].lock().unwrap();
        shard.insert(digest, report);
    }

    /// Total indexed entries across all shards.
    pub fn len(&self) -> usize {
        self.maps.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// `true` when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tag: u64) -> CellReport {
        CellReport {
            label: format!("cell-{tag}"),
            digest: tag,
            counters: Default::default(),
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
        assert_eq!(index.shard_of(0), 0);
        assert_eq!(index.shard_of(u128::MAX), 15);
    }

    #[test]
    fn non_durable_results_are_returned_but_not_indexed() {
        use crate::engine::SweepEngine;
        use crate::spec::{CellSpec, StrategySpec, WorkloadSpec};
        use ctbia_machine::BiaPlacement;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("ctbia-memo-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::DiskCache::open(&dir).unwrap();
        let index = Arc::new(MemoIndex::new(4));
        let engine = SweepEngine::serial()
            .with_cache(cache.clone())
            .with_memo_index(Arc::clone(&index));
        let spec = CellSpec::new(
            WorkloadSpec::named("hist", 200).unwrap(),
            StrategySpec::Insecure,
            BiaPlacement::L1d,
        );
        let digest = spec.digest();
        let key = format!("{digest:032x}");

        cache.fail_next_stores(1);
        let lost = engine.run_cell(&spec).unwrap();
        assert!(
            index.lookup(digest).is_none(),
            "a failed store must cost a future re-simulation, not be masked"
        );
        assert!(cache.load_text(&key).is_none());

        // The re-simulation stores, so the index may now hold it: every
        // indexed digest has its disk entry.
        let stored = engine.run_cell(&spec).unwrap();
        assert_eq!(lost, stored);
        assert_eq!(index.lookup(digest), Some(stored));
        assert!(cache.load_text(&key).is_some());
        assert_eq!(engine.cells_executed(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
