//! Reference twin for the machine's fast paths: the batched software
//! constant-time sweep, its sweep memo and the demand L1d-hit shortcut. A
//! sweep whose lines all hit the L1d is remembered with its cache slots,
//! and a later sweep of the same lines at an unchanged L1d residency epoch
//! replays those slots instead of searching the tags.
//! `Machine::disable_fast_paths` forces the plain per-access path, so
//! every generated program is run twice — as is, and with the fast paths
//! off — and the two machines must agree on every loaded value, the
//! counters, every level's statistics and per-set access counts, the
//! L1d's resident lines and dirty bits, the BIA's bitmaps, the
//! observation trace, the JSONL stream of a trace sink (every event's
//! cycle stamp and statistics delta), and the RAM words of every
//! dataflow-set line.
//!
//! Programs interleave software and (on a BIA machine) BIA
//! `ct_load`/`ct_store` over contiguous and strided sets of 1–300 lines
//! (some larger than the L1d), evicting plain loads and stores, flushes
//! of single set lines, repeated sweeps of one set, branches whose wrong
//! path loads or sweeps a set, detaching the sink, and `Machine::reset`,
//! on three hierarchies, with no BIA or a BIA at any placement, with
//! speculation off or on, and with and without observation.

use ctbia::core::ctmem::{CtMemory, Width};
use ctbia::core::ds::DataflowSet;
use ctbia::core::linearize::{ct_load_bia, ct_load_sw, ct_store_bia, ct_store_sw};
use ctbia::core::linearize::{BiaOptions, SwProfile};
use ctbia::machine::{BiaPlacement, Counters, Machine, MachineConfig, ObsTrace};
use ctbia::sim::addr::PhysAddr;
use ctbia::sim::config::{CacheConfig, HierarchyConfig, InclusionPolicy};
use ctbia::sim::hierarchy::Level;
use ctbia::sim::{CacheStats, LineAddr};
use ctbia::trace::JsonlSink;
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
    /// CT load of element `i` of set `ds` (`wide`: 8 bytes, otherwise 4),
    /// linearized by the BIA when `bia` is set and the machine has one,
    /// in software otherwise.
    CtLoad {
        ds: usize,
        i: u32,
        wide: bool,
        bia: bool,
    },
    /// CT store of `value` to element `i` of set `ds`.
    CtStore {
        ds: usize,
        i: u32,
        wide: bool,
        value: u64,
        bia: bool,
    },
    /// The last CT operation, `n` more times.
    Repeat(u8),
    /// Plain load of word `w` of the scratch region.
    Load(u32),
    /// Plain store to word `w` of the scratch region.
    Store(u32, u64),
    /// `clflush` of line `i` of set `ds`: an L1d invalidation with no fill.
    Flush { ds: usize, i: u32 },
    /// A branch at `site` whose outcome is `taken`; its wrong path, run
    /// on a misprediction, software-CT loads element `i` of set `ds` when
    /// `sweep` is set and plain-loads it otherwise.
    Branch {
        site: u8,
        taken: bool,
        ds: usize,
        i: u32,
        sweep: bool,
    },
    /// Detaches the trace sink, if one is attached, keeping its stream.
    Untrace,
    /// `Machine::reset`, then the same allocations and observers again.
    Reset,
}

#[derive(Debug, Clone)]
struct Program {
    hierarchy: u8,
    placement: Option<BiaPlacement>,
    spec_window: u32,
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
    let ct_load = (0..4usize, any::<u32>(), any::<bool>(), any::<bool>())
        .prop_map(|(ds, i, wide, bia)| Op::CtLoad { ds, i, wide, bia });
    let ct_store = (
        0..4usize,
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(ds, i, wide, value, bia)| Op::CtStore {
            ds,
            i,
            wide,
            value,
            bia,
        });
    let branch = (
        0..4u8,
        any::<bool>(),
        0..4usize,
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(site, taken, ds, i, sweep)| Op::Branch {
            site,
            taken,
            ds,
            i,
            sweep,
        });
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
        branch.clone(),
        branch,
        (0..8u8).prop_map(|n| match n {
            0 => Op::Reset,
            1 => Op::Untrace,
            _ => Op::Load(n as u32),
        }),
    ]
}

fn placement() -> impl Strategy<Value = Option<BiaPlacement>> {
    // Half the machines have no BIA: only they take the batched sweep.
    prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        Just(Some(BiaPlacement::L1d)),
        Just(Some(BiaPlacement::L2)),
        Just(Some(BiaPlacement::Llc)),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    (
        (0..3u8, placement(), prop_oneof![Just(0u32), 1..33u32]),
        vec(shape(), 1..5),
        vec(op(), 1..60),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |((hierarchy, placement, spec_window), shapes, ops, observe, avx2)| Program {
                hierarchy,
                placement,
                spec_window,
                shapes,
                ops,
                observe,
                avx2,
            },
        )
}

/// A 16-line L1d, a 128-line L1d under an inclusive hierarchy with the
/// next-line prefetcher (back-invalidations and prefetch fills move the
/// epoch too), or the paper's Table 1 (with an 8-slice LLC under an
/// LLC-resident BIA, so CT operations have slices to observe).
fn config(p: &Program) -> MachineConfig {
    let hierarchy = match p.hierarchy {
        0 => HierarchyConfig::tiny(),
        1 => HierarchyConfig {
            l1d: CacheConfig::new("L1d", 8 * 1024, 4, 2),
            l2: CacheConfig::new("L2", 64 * 1024, 8, 15),
            l1d_next_line_prefetcher: true,
            inclusion: InclusionPolicy::Inclusive,
            ..HierarchyConfig::tiny()
        },
        _ if p.placement == Some(BiaPlacement::Llc) => HierarchyConfig::sliced_llc(8, 12),
        _ => HierarchyConfig::paper_table1(),
    };
    let base = match p.placement {
        Some(placement) => MachineConfig::with_bia(placement),
        None => MachineConfig::insecure(),
    };
    MachineConfig {
        hierarchy,
        spec_window: p.spec_window,
        ..base
    }
}

/// Where a program's data lives: its dataflow sets and the scratch region.
#[derive(Debug, PartialEq)]
struct Layout {
    sets: Vec<(PhysAddr, DataflowSet)>,
    scratch: PhysAddr,
}

/// Attaches the program's observers and allocates its data, on a fresh or
/// freshly reset machine; `reference` turns the fast paths off.
fn start(m: &mut Machine, p: &Program, reference: bool) -> Layout {
    if p.observe {
        m.enable_observation();
    }
    m.set_trace_sink(Box::new(JsonlSink::new()));
    if reference {
        m.disable_fast_paths();
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
    streams: Vec<String>,
    counters: Counters,
    stats: Vec<CacheStats>,
    set_counts: Vec<Vec<u64>>,
    l1d: Vec<(LineAddr, bool)>,
    bia: Vec<(u64, u64, u64)>,
    ram: Vec<u64>,
}

/// The JSONL stream of the machine's sink, detached; `None` if none is
/// attached.
fn untrace(m: &mut Machine) -> Option<String> {
    let sink = m.take_trace_sink()?;
    Some(
        sink.into_any()
            .downcast::<JsonlSink>()
            .expect("a JSONL sink")
            .into_string(),
    )
}

fn run(p: &Program, reference: bool) -> Outcome {
    let mut m = Machine::new(config(p)).expect("valid config");
    let layout = start(&mut m, p, reference);
    let profile = if p.avx2 {
        SwProfile::avx2()
    } else {
        SwProfile::scalar()
    };
    let mut values = Vec::new();
    let mut traces = Vec::new();
    let mut streams = Vec::new();
    let mut last: Option<Op> = None;
    // Element `i` of set `ds`, and the set.
    let element = |ds: usize, i: u32, wide: bool| {
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
        (addr, width, set)
    };
    let ct = |m: &mut Machine, op: Op, values: &mut Vec<u64>| {
        let (ds, i, wide, bia) = match op {
            Op::CtLoad { ds, i, wide, bia }
            | Op::CtStore {
                ds, i, wide, bia, ..
            } => (ds, i, wide, bia && m.bia().is_some()),
            _ => unreachable!("not a CT operation"),
        };
        let (addr, width, set) = element(ds, i, wide);
        let opts = BiaOptions::default();
        match op {
            Op::CtStore { value, .. } if bia => ct_store_bia(m, set, addr, width, value, opts),
            Op::CtStore { value, .. } => ct_store_sw(m, set, addr, width, value, profile),
            _ if bia => values.push(ct_load_bia(m, set, addr, width, opts)),
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
            Op::Branch {
                site,
                taken,
                ds,
                i,
                sweep,
            } => {
                let (addr, width, set) = element(ds, i, false);
                m.spec_branch(site as u64, taken, &mut |w: &mut dyn CtMemory| {
                    if sweep {
                        let _ = ct_load_sw(w, set, addr, width, profile);
                    } else {
                        let _ = w.load(addr, width);
                    }
                });
            }
            Op::Untrace => streams.extend(untrace(&mut m)),
            Op::Reset => {
                if p.observe {
                    traces.push(m.take_observation());
                }
                streams.extend(untrace(&mut m));
                m.reset();
                assert_eq!(
                    start(&mut m, p, reference),
                    layout,
                    "reset replays the layout"
                );
            }
        }
    }
    if p.observe {
        traces.push(m.take_observation());
    }
    streams.extend(untrace(&mut m));
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
    let bia = m.bia().map_or_else(Vec::new, |bia| {
        bia.tracked_pages()
            .into_iter()
            .map(|page| {
                let view = bia.peek(page).expect("a tracked page");
                (page.raw(), view.existence, view.dirtiness)
            })
            .collect()
    });
    Outcome {
        values,
        traces,
        streams,
        counters: m.counters(),
        stats: levels.iter().map(|&l| *h.cache(l).stats()).collect(),
        set_counts: levels
            .iter()
            .map(|&l| h.cache(l).set_access_counts().to_vec())
            .collect(),
        l1d: resident.into_iter().map(|l| (l, l1d.is_dirty(l))).collect(),
        bia,
        ram,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The batched sweep, its memo replay and the demand L1d-hit
    /// shortcut are state-for-state, and event for event, the plain path.
    #[test]
    fn memo_replayed_sweeps_match_the_per_line_loop(p in program()) {
        let batched = run(&p, false);
        let looped = run(&p, true);
        prop_assert_eq!(batched, looped, "{:?}", p);
    }
}
