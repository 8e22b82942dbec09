//! Property tests: the digest-prefix-sharded [`MemoIndex`] is observably
//! one global map, whatever the shard count.
//!
//! * **Sequential equivalence** — an arbitrary interleaving of lookups
//!   and inserts produces, on every shard count in {1, 4, 16}, exactly the
//!   hits and misses a single global `HashMap` reference model predicts.
//! * **Racing inserts and lookups** — threads inserting and looking up
//!   colliding digests concurrently never see a wrong report, and the
//!   index ends holding exactly the distinct digests inserted. Sharding
//!   changes which lock is taken, never what is stored.

use ctbia_harness::{CellReport, MemoIndex};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;

const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

fn report(tag: u64) -> CellReport {
    CellReport {
        label: format!("memo-cell-{tag}"),
        digest: tag,
        counters: Default::default(),
    }
}

/// A digest pool small enough that random choices collide constantly,
/// with prefixes spread across the full top-32-bit range so every shard
/// of a 16-way index sees traffic.
fn digest(choice: u8) -> u128 {
    let c = choice as u128;
    (c << 123) | (c << 64) | c
}

#[derive(Debug, Clone)]
enum Op {
    Lookup(u8),
    /// Inserts digest `.0` with report tag `.1`, overwriting any entry.
    Insert(u8, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<bool>(), any::<u8>().prop_map(|d| d % 24), 0u64..4).prop_map(|(lookup, d, tag)| {
        if lookup {
            Op::Lookup(d)
        } else {
            Op::Insert(d, tag)
        }
    })
}

/// What one operation shows a caller: a lookup's answer, or nothing.
#[derive(Debug, PartialEq, Eq)]
enum Observed {
    Miss,
    Hit(u64),
    Stored,
}

/// Applies one op to the single global map reference model.
fn apply_model(model: &mut HashMap<u128, u64>, op: &Op) -> Observed {
    match *op {
        Op::Lookup(d) => model
            .get(&digest(d))
            .map_or(Observed::Miss, |tag| Observed::Hit(*tag)),
        Op::Insert(d, tag) => {
            model.insert(digest(d), tag);
            Observed::Stored
        }
    }
}

/// Applies one op to the sharded index under test.
fn apply_index(index: &MemoIndex, op: &Op) -> Observed {
    match *op {
        Op::Lookup(d) => index
            .lookup(digest(d))
            .map_or(Observed::Miss, |r| Observed::Hit(r.digest)),
        Op::Insert(d, tag) => {
            index.insert(digest(d), report(tag));
            Observed::Stored
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every shard count observes exactly what the global map observes,
    /// op for op, and ends with the same indexed contents.
    #[test]
    fn sharded_index_matches_the_global_map_reference(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        for shards in SHARD_COUNTS {
            let index = MemoIndex::new(shards);
            let mut model: HashMap<u128, u64> = HashMap::new();
            for (i, op) in ops.iter().enumerate() {
                let expected = apply_model(&mut model, op);
                let got = apply_index(&index, op);
                prop_assert_eq!(
                    got, expected,
                    "shards={} op[{}]={:?} diverged from the global map", shards, i, op
                );
            }
            prop_assert_eq!(index.len(), model.len(),
                "shards={} final size diverged", shards);
            for (d, tag) in &model {
                prop_assert_eq!(index.lookup(*d).map(|r| r.digest), Some(*tag));
            }
        }
    }

    /// Four threads each look up and then insert every chosen digest
    /// (with the report a digest always maps to), racing on colliding
    /// digests: every hit is that report, and the index ends holding
    /// exactly the distinct digests, on every shard count.
    #[test]
    fn racing_inserts_and_lookups_agree_on_every_shard_count(
        choices in proptest::collection::vec(any::<u8>().prop_map(|d| d % 6), 8..24),
    ) {
        for shards in SHARD_COUNTS {
            let index: Arc<MemoIndex> = Arc::new(MemoIndex::new(shards));
            let barrier = Arc::new(Barrier::new(4));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let index = Arc::clone(&index);
                    let barrier = Arc::clone(&barrier);
                    let choices = choices.clone();
                    thread::spawn(move || {
                        barrier.wait();
                        for &d in &choices {
                            if let Some(hit) = index.lookup(digest(d)) {
                                assert_eq!(hit.digest, u64::from(d), "wrong report for digest");
                            }
                            index.insert(digest(d), report(u64::from(d)));
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let mut distinct: Vec<u8> = choices.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(index.len(), distinct.len(), "shards={}", shards);
            for d in distinct {
                prop_assert_eq!(index.lookup(digest(d)).map(|r| r.digest), Some(u64::from(d)));
            }
        }
    }
}
