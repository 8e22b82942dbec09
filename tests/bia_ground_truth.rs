//! Ground truth for the BIA on the real machine: on a fault-free event
//! stream the BIA stays a conservative subset of the cache it monitors
//! (§5.2) — every existence bit it holds names a resident line and every
//! dirtiness bit a dirty one — and BIA-linearized workloads compute the
//! insecure reference's result at every placement, with a co-runner
//! flushing their lines underneath them.

use ctbia::core::bia::BiaConfig;
use ctbia::core::ctmem::{CtMemory, Width};
use ctbia::core::ds::DataflowSet;
use ctbia::core::linearize::{ct_load_bia, ct_store_bia, BiaOptions};
use ctbia::machine::{BiaPlacement, CoRunnerOp, Interference, Machine, MachineConfig};
use ctbia::sim::config::CacheConfig;
use ctbia::sim::hierarchy::Level;
use ctbia::workloads::{
    BinarySearch, Dijkstra, HeapPop, Histogram, Permutation, Strategy as Linearization, Workload,
};
use proptest::prelude::*;
use std::collections::HashMap;

const PLACEMENTS: [BiaPlacement; 3] = [BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc];

fn monitored_level(placement: BiaPlacement) -> Level {
    match placement {
        BiaPlacement::L1d => Level::L1d,
        BiaPlacement::L2 => Level::L2,
        BiaPlacement::Llc => Level::Llc,
    }
}

/// Asserts the subset invariant for every tracked group: the BIA's
/// existence and dirtiness bitmaps are subsets of the monitored level's
/// resident and dirty lines. The BIA runs at page granularity (`M = 12`),
/// so a group is a page and `Cache::page_truth` is its ground truth.
fn check_subset(m: &Machine, context: &str) {
    let placement = m.bia_placement().expect("machine has a BIA");
    let bia = m.bia().expect("machine has a BIA");
    assert_eq!(bia.granularity_log2(), 12, "page-granular BIA");
    let cache = m.hierarchy().cache(monitored_level(placement));
    for page in bia.tracked_pages() {
        let view = bia.peek(page).expect("tracked page has an entry");
        let (exist, dirty) = cache.page_truth(page);
        assert_eq!(
            view.existence & !exist,
            0,
            "{context}: BIA@{placement} claims non-resident lines of {page}"
        );
        assert_eq!(
            view.dirtiness & !dirty,
            0,
            "{context}: BIA@{placement} claims clean lines of {page} dirty"
        );
    }
}

fn ghostrider_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Dijkstra::new(12)),
        Box::new(Histogram::new(300)),
        Box::new(Permutation::new(300)),
        Box::new(BinarySearch::new(300)),
        Box::new(HeapPop {
            size: 120,
            pops: 12,
            seed: 0x4ea9,
        }),
    ]
}

/// Lines of a fresh machine's allocation region, where every workload's
/// arrays start.
const REGION_LINES: u64 = 48;

/// A co-runner that flushes the workload's own lines, one every other
/// demand access: the BIA tracks those lines, so a flush it failed to see
/// would leave an existence bit naming a line that is gone.
fn region_flusher() -> Interference {
    let base = Machine::insecure()
        .alloc(64, 64)
        .expect("a fresh machine allocates");
    Interference {
        period: 2,
        actions: (0..REGION_LINES)
            .map(|k| CoRunnerOp::Flush(base.offset(k * 64)))
            .collect(),
    }
}

#[test]
fn ghostrider_workloads_match_reference_and_keep_the_subset() {
    for wl in &ghostrider_workloads() {
        let reference = wl.run(&mut Machine::insecure(), Linearization::Insecure);
        for placement in PLACEMENTS {
            for strategy in [Linearization::bia(), Linearization::bia_loads()] {
                let context = format!("{} under {strategy}@{placement}", wl.name());
                let mut m = Machine::with_bia(placement);
                m.set_interference(Some(region_flusher()));
                let run = wl.run(&mut m, strategy);
                assert_eq!(run.digest, reference.digest, "{context}: wrong result");
                // Every kernel makes secret-indexed loads or stores, so the
                // full strategy always uses the BIA (the loads-only one may
                // not: `perm` only stores).
                assert!(
                    strategy != Linearization::bia()
                        || !m.bia().unwrap().tracked_pages().is_empty(),
                    "{context}: the BIA tracked nothing"
                );
                check_subset(&m, &context);
            }
        }
    }
}

#[test]
fn llc_placement_works_on_default_hierarchy() {
    // Guards the CLI's `--placement llc`: Table 1 has a monolithic LLC, so
    // the §6.4 feasibility constraint does not bite.
    let m = Machine::new(MachineConfig::with_bia(BiaPlacement::Llc));
    assert!(m.is_ok());
}

/// 64-bit words in each dataflow set.
const SET_WORDS: u64 = 1024;

/// A machine small enough that a few sets overflow every cache level and
/// the BIA itself: 4 KiB L1d, 8 KiB L2, 16 KiB LLC, an 8-entry BIA.
fn small_machine(placement: BiaPlacement) -> Machine {
    let mut config = MachineConfig::with_bia(placement);
    let h = &mut config.hierarchy;
    h.l1d = CacheConfig::new("L1d", 4 << 10, 4, h.l1d.hit_latency);
    h.l2 = CacheConfig::new("L2", 8 << 10, 4, h.l2.hit_latency);
    h.llc = CacheConfig::new("LLC", 16 << 10, 8, h.llc.hit_latency);
    config.bia = Some((
        placement,
        BiaConfig {
            entries: 8,
            associativity: 2,
            ..BiaConfig::paper_table1()
        },
    ));
    Machine::new(config).expect("valid small machine")
}

#[derive(Debug, Clone)]
enum Op {
    /// `ct_load_bia` on set `.0` at word `.1`.
    CtLoad(usize, u64),
    /// `ct_store_bia` on set `.0` at word `.1`.
    CtStore(usize, u64, u64),
    Load(usize, u64),
    Store(usize, u64, u64),
    Flush(usize, u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, 0..SET_WORDS).prop_map(|(s, i)| Op::CtLoad(s, i)),
        (0..3usize, 0..SET_WORDS, any::<u64>()).prop_map(|(s, i, v)| Op::CtStore(s, i, v)),
        (0..3usize, 0..SET_WORDS).prop_map(|(s, i)| Op::Load(s, i)),
        (0..3usize, 0..SET_WORDS, any::<u64>()).prop_map(|(s, i, v)| Op::Store(s, i, v)),
        (0..3usize, 0..SET_WORDS).prop_map(|(s, i)| Op::Flush(s, i)),
    ]
}

/// Runs `ops` on a small machine with `sets` dataflow sets of
/// [`SET_WORDS`] words (ops naming a missing set use set `s % sets`),
/// checking the subset invariant after every op and every value against
/// a flat model. With `co_runner`, a co-runner flushes, touches and
/// prefetches lines of the sets every third demand access.
fn drive(placement: BiaPlacement, sets: usize, co_runner: bool, ops: &[Op]) {
    let mut m = small_machine(placement);
    let bases: Vec<_> = (0..sets)
        .map(|_| m.alloc_u64_array(SET_WORDS).unwrap())
        .collect();
    let dss: Vec<_> = bases
        .iter()
        .map(|&b| DataflowSet::contiguous(b, SET_WORDS * 8))
        .collect();
    if co_runner {
        let line = |s: usize, i: u64| bases[s % sets].offset(i * 64 % (SET_WORDS * 8));
        m.set_interference(Some(Interference {
            period: 3,
            actions: vec![
                CoRunnerOp::Flush(line(0, 5)),
                CoRunnerOp::Touch(line(1, 77)),
                CoRunnerOp::Prefetch(line(2, 31)),
                CoRunnerOp::Flush(line(2, 100)),
            ],
        }));
    }
    let mut model: HashMap<(usize, u64), u64> = HashMap::new();
    let context = format!("BIA@{placement}, {sets} set(s), co-runner {co_runner}");
    for (step, o) in ops.iter().enumerate() {
        let at = |s: usize, i: u64| (s % sets, bases[s % sets].offset(i * 8));
        match *o {
            Op::CtLoad(s, i) => {
                let (s, addr) = at(s, i);
                let v = ct_load_bia(&mut m, &dss[s], addr, Width::U64, BiaOptions::default());
                assert_eq!(v, *model.get(&(s, i)).unwrap_or(&0), "{context}: {o:?}");
            }
            Op::CtStore(s, i, v) => {
                let (s, addr) = at(s, i);
                ct_store_bia(&mut m, &dss[s], addr, Width::U64, v, BiaOptions::default());
                model.insert((s, i), v);
            }
            Op::Load(s, i) => {
                let (s, addr) = at(s, i);
                let v = m.load(addr, Width::U64);
                assert_eq!(v, *model.get(&(s, i)).unwrap_or(&0), "{context}: {o:?}");
            }
            Op::Store(s, i, v) => {
                let (s, addr) = at(s, i);
                m.store(addr, Width::U64, v);
                model.insert((s, i), v);
            }
            Op::Flush(s, i) => m.flush_line(at(s, i).1),
        }
        check_subset(&m, &format!("{context}, step {step} ({o:?})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated traffic over one to three dataflow sets, at every
    /// placement, with and without a co-runner: the BIA never claims a
    /// line its level does not hold, and linearized accesses read back
    /// what was stored.
    #[test]
    fn bia_is_a_subset_of_the_monitored_cache_after_every_op(
        placement in 0..3usize,
        sets in 1..4usize,
        co_runner in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        drive(PLACEMENTS[placement], sets, co_runner, &ops);
    }
}
