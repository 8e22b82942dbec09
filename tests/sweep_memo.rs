//! Reference twin for the sweep memo: a software constant-time sweep
//! whose lines all hit the L1d is remembered with its cache slots, and a
//! later sweep of the same lines at an unchanged L1d residency epoch
//! replays those slots instead of searching the tags. Attaching a trace
//! sink forces the plain per-line loop, so every generated program is run
//! twice — as is, and with a sink — and the two machines must agree on
//! every loaded value, the counters, every level's statistics and per-set
//! access counts, the L1d's resident lines and dirty bits, the
//! observation trace, and the RAM words of every dataflow-set line.
//!
//! Programs interleave `ct_load_sw`/`ct_store_sw` over contiguous and
//! strided sets of 1–300 lines (some larger than the L1d), evicting plain
//! loads and stores, flushes of single set lines, repeated sweeps of one
//! set, and `Machine::reset`, on three hierarchies, with and without
//! observation.

use ctbia::core::ctmem::{CtMemory, Width};
use ctbia::core::ds::DataflowSet;
use ctbia::core::linearize::{ct_load_sw, ct_store_sw, SwProfile};
use ctbia::machine::{Counters, Machine, MachineConfig, ObsTrace};
use ctbia::sim::addr::PhysAddr;
use ctbia::sim::config::{CacheConfig, HierarchyConfig, InclusionPolicy};
use ctbia::sim::hierarchy::Level;
use ctbia::sim::{CacheStats, LineAddr};
use ctbia::trace::RingBufferSink;
use proptest::collection::vec;
use proptest::prelude::*;

/// Bytes of the plain-traffic region: four times the largest L2 below,
/// so its accesses evict dataflow-set lines from every small level.
const SCRATCH_BYTES: u64 = 256 * 1024;

/// A dataflow set of `lines` lines placed `stride` lines apart.
#[derive(Debug, Clone, Copy)]
struct Shape {
    lines: u64,
    stride: u64,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Software-CT load of element `i` of set `ds` (`wide`: 8 bytes,
    /// otherwise 4).
    CtLoad { ds: usize, i: u32, wide: bool },
    /// Software-CT store of `value` to element `i` of set `ds`.
    CtStore {
        ds: usize,
        i: u32,
        wide: bool,
        value: u64,
    },
    /// The last CT operation, `n` more times.
    Repeat(u8),
    /// Plain load of word `w` of the scratch region.
    Load(u32),
    /// Plain store to word `w` of the scratch region.
    Store(u32, u64),
    /// `clflush` of line `i` of set `ds`: an L1d invalidation with no fill.
    Flush { ds: usize, i: u32 },
    /// `Machine::reset`, then the same allocations again.
    Reset,
}

#[derive(Debug, Clone)]
struct Program {
    hierarchy: u8,
    shapes: Vec<Shape>,
    ops: Vec<Op>,
    observe: bool,
    avx2: bool,
}

fn shape() -> impl Strategy<Value = Shape> {
    // Half the sets fit even the 16-line L1d, so replays happen there too.
    (prop_oneof![1..17u64, 1..301u64], 1..4u64).prop_map(|(lines, stride)| Shape { lines, stride })
}

fn op() -> impl Strategy<Value = Op> {
    let ct_load = (0..4usize, any::<u32>(), any::<bool>()).prop_map(|(ds, i, wide)| Op::CtLoad {
        ds,
        i,
        wide,
    });
    let ct_store = (0..4usize, any::<u32>(), any::<bool>(), any::<u64>())
        .prop_map(|(ds, i, wide, value)| Op::CtStore { ds, i, wide, value });
    prop_oneof![
        ct_load.clone(),
        ct_load,
        ct_store.clone(),
        ct_store,
        (1..6u8).prop_map(Op::Repeat),
        (1..6u8).prop_map(Op::Repeat),
        any::<u32>().prop_map(Op::Load),
        (any::<u32>(), any::<u64>()).prop_map(|(w, v)| Op::Store(w, v)),
        (0..4usize, any::<u32>()).prop_map(|(ds, i)| Op::Flush { ds, i }),
        (0..8u8).prop_map(|n| if n == 0 {
            Op::Reset
        } else {
            Op::Load(n as u32)
        }),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    (
        0..3u8,
        vec(shape(), 1..5),
        vec(op(), 1..60),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(hierarchy, shapes, ops, observe, avx2)| Program {
            hierarchy,
            shapes,
            ops,
            observe,
            avx2,
        })
}

/// A 16-line L1d, a 128-line L1d under an inclusive hierarchy with the
/// next-line prefetcher (back-invalidations and prefetch fills move the
/// epoch too), or the paper's Table 1.
fn config(hierarchy: u8) -> MachineConfig {
    let hierarchy = match hierarchy {
        0 => HierarchyConfig::tiny(),
        1 => HierarchyConfig {
            l1d: CacheConfig::new("L1d", 8 * 1024, 4, 2),
            l2: CacheConfig::new("L2", 64 * 1024, 8, 15),
            l1d_next_line_prefetcher: true,
            inclusion: InclusionPolicy::Inclusive,
            ..HierarchyConfig::tiny()
        },
        _ => HierarchyConfig::paper_table1(),
    };
    MachineConfig {
        hierarchy,
        ..MachineConfig::insecure()
    }
}

/// Where a program's data lives: its dataflow sets and the scratch region.
#[derive(Debug, PartialEq)]
struct Layout {
    sets: Vec<(PhysAddr, DataflowSet)>,
    scratch: PhysAddr,
}

/// Attaches the program's observers and allocates its data, on a fresh or
/// freshly reset machine.
fn start(m: &mut Machine, p: &Program, looped: bool) -> Layout {
    if p.observe {
        m.enable_observation();
    }
    if looped {
        m.set_trace_sink(Box::new(RingBufferSink::new(1)));
    }
    let sets = p
        .shapes
        .iter()
        .map(|s| {
            let base = m.alloc(s.lines * s.stride * 64, 4096).expect("fits RAM");
            (base, DataflowSet::strided(base, s.lines, s.stride * 64, 64))
        })
        .collect();
    let scratch = m.alloc(SCRATCH_BYTES, 64).expect("fits RAM");
    Layout { sets, scratch }
}

/// Everything the two runs must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    values: Vec<u64>,
    traces: Vec<ObsTrace>,
    counters: Counters,
    stats: Vec<CacheStats>,
    set_counts: Vec<Vec<u64>>,
    l1d: Vec<(LineAddr, bool)>,
    ram: Vec<u64>,
}

fn run(p: &Program, looped: bool) -> Outcome {
    let mut m = Machine::new(config(p.hierarchy)).expect("valid config");
    let layout = start(&mut m, p, looped);
    let profile = if p.avx2 {
        SwProfile::avx2()
    } else {
        SwProfile::scalar()
    };
    let mut values = Vec::new();
    let mut traces = Vec::new();
    let mut last: Option<Op> = None;
    let ct = |m: &mut Machine, op: Op, values: &mut Vec<u64>| {
        let (ds, i, wide) = match op {
            Op::CtLoad { ds, i, wide } | Op::CtStore { ds, i, wide, .. } => (ds, i, wide),
            _ => unreachable!("not a CT operation"),
        };
        let shape = p.shapes[ds % p.shapes.len()];
        let (base, set) = &layout.sets[ds % p.shapes.len()];
        let line = i as u64 % shape.lines;
        let word = (i as u64 / shape.lines) % 8;
        let (width, half) = if wide {
            (Width::U64, 0)
        } else {
            (Width::U32, 4 * (i as u64 >> 31))
        };
        let addr = base.offset(line * shape.stride * 64 + word * 8 + half);
        match op {
            Op::CtStore { value, .. } => ct_store_sw(m, set, addr, width, value, profile),
            _ => values.push(ct_load_sw(m, set, addr, width, profile)),
        }
    };
    for &op in &p.ops {
        match op {
            Op::CtLoad { .. } | Op::CtStore { .. } => {
                ct(&mut m, op, &mut values);
                last = Some(op);
            }
            Op::Repeat(n) => {
                if let Some(op) = last {
                    for _ in 0..n {
                        ct(&mut m, op, &mut values);
                    }
                }
            }
            Op::Load(w) => {
                let addr = layout.scratch.offset((w as u64 * 8) % SCRATCH_BYTES);
                values.push(m.load(addr, Width::U64));
            }
            Op::Store(w, v) => {
                let addr = layout.scratch.offset((w as u64 * 8) % SCRATCH_BYTES);
                m.store(addr, Width::U64, v);
            }
            Op::Flush { ds, i } => {
                let ds = ds % p.shapes.len();
                m.flush_line(
                    layout.sets[ds].1.lines()[i as usize % p.shapes[ds].lines as usize]
                        .with_offset(0),
                );
            }
            Op::Reset => {
                if p.observe {
                    traces.push(m.take_observation());
                }
                m.reset();
                assert_eq!(start(&mut m, p, looped), layout, "reset replays the layout");
            }
        }
    }
    if p.observe {
        traces.push(m.take_observation());
    }
    let levels = [Level::L1d, Level::L2, Level::Llc];
    let h = m.hierarchy();
    let l1d = h.cache(Level::L1d);
    let mut resident = l1d.resident_lines();
    resident.sort();
    let ram = layout
        .sets
        .iter()
        .flat_map(|(_, set)| set.lines().to_vec())
        .flat_map(|line| (0..8).map(move |w| line.with_offset(w * 8)))
        .map(|addr| m.peek_u64(addr))
        .collect();
    Outcome {
        values,
        traces,
        counters: m.counters(),
        stats: levels.iter().map(|&l| *h.cache(l).stats()).collect(),
        set_counts: levels
            .iter()
            .map(|&l| h.cache(l).set_access_counts().to_vec())
            .collect(),
        l1d: resident.into_iter().map(|l| (l, l1d.is_dirty(l))).collect(),
        ram,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batched sweep and its memo replay are state-for-state the
    /// per-line loop.
    #[test]
    fn memo_replayed_sweeps_match_the_per_line_loop(p in program()) {
        let batched = run(&p, false);
        let looped = run(&p, true);
        prop_assert_eq!(batched, looped, "{:?}", p);
    }
}
