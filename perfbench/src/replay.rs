//! Layer replay: capture a cell's demand stream once, then push it through
//! each simulator layer on its own and reconcile the layers with the cell.
//!
//! For one BIA cell the replay measures, in host ns per demand access:
//!
//! * `cache`: a lone L1d [`Cache::access`] (with a fill on each miss);
//! * `hierarchy`: [`Hierarchy::access_with`] a discarding monitor;
//! * `hierarchy_bia`: [`Hierarchy::access_with`] the cell's [`Bia`], so the
//!   BIA monitor's share is `hierarchy_bia - hierarchy`;
//! * `cell`: the cell's simulation, `Machine::reset` plus the workload's
//!   run on one warm machine, as `execute_cell` runs it on a pooled one
//!   (the harness's own per-cell work is measured by `harness.*`);
//! * `capture`: the same with [`Machine::enable_trace`] on, less
//!   `trace_record` (pushing as many events into a fresh vector, the
//!   capture's own cost). The machine residual is
//!   `capture - hierarchy_bia`: workload code, CT operations and the
//!   machine's own bookkeeping.
//!
//! `cell` and `capture` are timed in alternation. The hierarchy, the BIA
//! monitor and the residual must add back to the untraced cell's ns per
//! access within [`RECONCILE_TOLERANCE`]. Only BIA cells are captured:
//! they never take the machine's batched sweep fast path, so turning the
//! demand trace on changes no code path they run. A fast-path cell would
//! run a different path with the trace on, and could not be reconciled.

use ctbia_core::bia::Bia;
use ctbia_harness::CellSpec;
use ctbia_machine::{BiaPlacement, Machine, TraceEvent, TraceOp};
use ctbia_sim::cache::{AccessKind, AccessOutcome, Cache};
use ctbia_sim::hierarchy::{AccessFlags, CacheMonitor, Hierarchy, MonitorLevel, NullMonitor};
use ctbia_sim::stats::HierarchyStats;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

/// Largest relative gap between the layer sum and the untraced cell's
/// host ns per access that still counts as reconciled.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Per-access host times of one captured cell, in ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerTimes {
    /// Demand accesses in the captured stream.
    pub accesses: u64,
    /// The untraced cell's simulation, per access.
    pub cell: f64,
    /// The traced cell, per access, before removing `trace_record`.
    pub capture: f64,
    /// Pushing one event into the trace vector.
    pub trace_record: f64,
    /// Lone L1d replay.
    pub cache: f64,
    /// Hierarchy replay with no monitor work.
    pub hierarchy: f64,
    /// Hierarchy replay feeding the BIA.
    pub hierarchy_bia: f64,
}

/// The reconciled breakdown of one cell, in ns per access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// The hierarchy alone.
    pub hierarchy: f64,
    /// What feeding the BIA monitor adds to the hierarchy.
    pub bia_monitor: f64,
    /// Everything the machine and workload add around the hierarchy.
    pub residual: f64,
    /// hierarchy + bia_monitor + residual.
    pub sum: f64,
    /// |sum - cell| / cell.
    pub err: f64,
}

/// Splits `t` into layers and measures how far their sum lands from the
/// untraced cell.
pub fn reconcile(t: &LayerTimes) -> Breakdown {
    let bia_monitor = t.hierarchy_bia - t.hierarchy;
    let residual = t.capture - t.trace_record - t.hierarchy_bia;
    let sum = t.hierarchy + bia_monitor + residual;
    Breakdown {
        hierarchy: t.hierarchy,
        bia_monitor,
        residual,
        sum,
        err: (sum - t.cell).abs() / t.cell,
    }
}

/// Hierarchy event counts of the BIA replay, for the exact per-layer
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// L1d misses.
    pub l1d_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// DRAM reads and write-backs.
    pub dram_accesses: u64,
}

impl ReplayCounts {
    fn of(s: &HierarchyStats) -> ReplayCounts {
        ReplayCounts {
            l1d_misses: s.l1d.misses,
            l2_misses: s.l2.misses,
            llc_misses: s.llc.misses,
            dram_accesses: s.dram.reads + s.dram.writes,
        }
    }
}

/// A whole replay of one cell.
#[derive(Debug, Clone)]
pub struct CellReplay {
    /// The cell's label.
    pub label: String,
    /// Measured layer times.
    pub times: LayerTimes,
    /// Their reconciliation.
    pub breakdown: Breakdown,
    /// Counts from the hierarchy + BIA replay.
    pub counts: ReplayCounts,
}

/// A first run at least this long is the measurement itself: such a cell
/// dwarfs warm-up costs, and repeating it would dominate the run.
const LONG_RUN_S: f64 = 0.25;

/// Median wall seconds of `run`, each repetition on fresh state built
/// (untimed) by `setup`. A long first run is returned as is; otherwise
/// the first run only warms caches and pools, and fresh repetitions (at
/// least three, at most `max_reps`) are taken until they cover
/// `min_total` seconds.
pub fn timed_median<S>(
    min_total: f64,
    max_reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S),
) -> f64 {
    let mut time = || {
        let state = setup();
        let t = Instant::now();
        run(state);
        t.elapsed().as_secs_f64()
    };
    let first = time();
    if first >= LONG_RUN_S {
        return first;
    }
    let mut runs = Vec::new();
    let mut total = 0.0;
    while runs.len() < max_reps && (runs.len() < 3 || total < min_total) {
        let s = time();
        total += s;
        runs.push(s);
    }
    crate::stats::median(&runs)
}

/// Median wall seconds of `a` and of `b`, timed in alternation so that a
/// host changing speed mid-measurement biases neither, with the untimed
/// `tidy` after each pair. At least three pairs are timed, until they
/// cover `min_total` seconds (at most `max_reps`); for short calls a first
/// pair only warms caches and pools.
pub fn timed_pair(
    min_total: f64,
    max_reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
    mut tidy: impl FnMut(),
) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut ra, mut rb) = (Vec::new(), Vec::new());
    let first = (time(&mut a), time(&mut b));
    tidy();
    if first.0 >= LONG_RUN_S {
        ra.push(first.0);
        rb.push(first.1);
    }
    let mut total: f64 = ra.iter().chain(&rb).sum();
    while ra.len() < max_reps && (ra.len() < 3 || total < min_total) {
        let (x, y) = (time(&mut a), time(&mut b));
        tidy();
        total += x + y;
        ra.push(x);
        rb.push(y);
    }
    (crate::stats::median(&ra), crate::stats::median(&rb))
}

fn monitor_of(placement: BiaPlacement) -> MonitorLevel {
    match placement {
        BiaPlacement::L1d => MonitorLevel::L1d,
        BiaPlacement::L2 => MonitorLevel::L2,
        BiaPlacement::Llc => MonitorLevel::Llc,
    }
}

/// The hierarchy flags the machine issues a traced op with: plain demand
/// for loads and stores, replacement-neutral dataflow-set traffic routed
/// past the levels above the BIA's placement, and DRAM-direct accesses.
fn flags_for(op: TraceOp, placement: Option<BiaPlacement>) -> AccessFlags {
    let ds = |base: AccessFlags| {
        let flags = base.replacement_neutral();
        match placement {
            Some(BiaPlacement::L2) => flags.bypassing_l1(),
            Some(BiaPlacement::Llc) => flags.bypassing_l2(),
            _ => flags,
        }
    };
    match op {
        TraceOp::Load => AccessFlags::read(),
        TraceOp::Store => AccessFlags::write(),
        TraceOp::DsLoad => ds(AccessFlags::read()),
        TraceOp::DsStore => ds(AccessFlags::write()),
        TraceOp::DramLoad => AccessFlags::read().dram_direct(),
        TraceOp::DramStore => AccessFlags::write().dram_direct(),
    }
}

/// Takes the warm state out of `slot` and resets it.
fn reset_taken<S>(slot: &Cell<Option<S>>, reset: impl FnOnce(&mut S)) -> S {
    let mut state = slot.take().expect("replay returns its state");
    reset(&mut state);
    state
}

fn replay_cache(mut l1d: Cache, events: &[TraceEvent], placement: Option<BiaPlacement>) -> Cache {
    for e in events {
        let f = flags_for(e.op, placement);
        if let AccessOutcome::Miss = l1d.access(e.line, f.kind, f.update_replacement) {
            black_box(l1d.fill(e.line, f.kind == AccessKind::Write));
        }
    }
    l1d
}

fn replay_hierarchy<M: CacheMonitor>(h: &mut Hierarchy, mon: &mut M, events: &[TraceEvent]) {
    let placement = h.monitor().map(|m| match m {
        MonitorLevel::L1d => BiaPlacement::L1d,
        MonitorLevel::L2 => BiaPlacement::L2,
        MonitorLevel::Llc => BiaPlacement::Llc,
    });
    for e in events {
        black_box(h.access_with(e.line, flags_for(e.op, placement), mon));
    }
}

/// Captures `spec`'s demand stream and replays it through every layer.
///
/// # Errors
///
/// Returns a message if the cell cannot run.
pub fn replay_cell(spec: &CellSpec) -> Result<CellReplay, String> {
    let cfg = spec.machine_config();
    if cfg.bia.is_none() {
        return Err(format!("{}: only BIA cells are replayed", spec.label()));
    }
    let (placement, bia_cfg) = cfg.bia.expect("checked above");
    let m = RefCell::new(Machine::new(cfg.clone()).map_err(|e| format!("{}: {e}", spec.label()))?);
    let strategy = spec.strategy.to_strategy();
    let run = |trace: bool| {
        let mut m = m.borrow_mut();
        m.reset();
        if trace {
            m.enable_trace();
        }
        black_box(spec.workload.build().run(&mut m, strategy));
    };
    // Each capture is freed in `tidy`, untimed, so at most one trace is
    // alive at a time; the trace replayed below is captured afterwards.
    let trace = RefCell::new(Vec::new());
    let n = Cell::new(0);
    let (cell_s, capture_s) = timed_pair(
        0.3,
        60,
        || run(false),
        || {
            run(true);
            *trace.borrow_mut() = m.borrow_mut().take_trace();
        },
        || n.set(trace.take().len()),
    );
    // The capture's own cost: pushing as many events into a fresh vector,
    // growth and page faults included, freed untimed.
    let n = n.get();
    let pushed = Cell::new(Vec::new());
    let probe = TraceEvent {
        op: TraceOp::Load,
        line: ctbia_sim::addr::LineAddr::new(0),
    };
    let trace_record_s = timed_median(
        0.02,
        9,
        || drop(pushed.take()),
        |()| {
            let mut v = Vec::new();
            for _ in 0..n {
                v.push(black_box(probe));
            }
            pushed.set(v);
        },
    );
    drop(pushed);
    run(true);
    let events = m.into_inner().take_trace();
    // Each replay reuses one warm structure, reset (untimed) before every
    // repetition, as the machine pool reuses a warm machine per cell.
    let warm_l1d = Cell::new(Some(
        Cache::new(cfg.hierarchy.l1d.clone()).map_err(|e| e.to_string())?,
    ));
    let cache_s = timed_median(
        0.05,
        9,
        || reset_taken(&warm_l1d, Cache::reset),
        |c| warm_l1d.set(Some(replay_cache(c, &events, Some(placement)))),
    );
    let mut h = Hierarchy::new(cfg.hierarchy.clone()).map_err(|e| e.to_string())?;
    h.set_monitor(Some(monitor_of(placement)));
    let warm = Cell::new(Some((h, Bia::new(bia_cfg).map_err(|e| e.to_string())?)));
    let reset_both = || {
        reset_taken(&warm, |(h, b): &mut (Hierarchy, Bia)| {
            h.reset();
            b.reset();
        })
    };
    let hierarchy_s = timed_median(0.05, 9, reset_both, |(mut h, b)| {
        replay_hierarchy(&mut h, &mut NullMonitor, &events);
        warm.set(Some((h, b)));
    });
    let mut stats = HierarchyStats::default();
    let hierarchy_bia_s = timed_median(0.05, 9, reset_both, |(mut h, mut b)| {
        replay_hierarchy(&mut h, &mut b, &events);
        stats = h.stats();
        warm.set(Some((h, b)));
    });
    let per = |s: f64| s * 1e9 / n.max(1) as f64;
    let times = LayerTimes {
        accesses: n as u64,
        cell: per(cell_s),
        capture: per(capture_s),
        trace_record: per(trace_record_s),
        cache: per(cache_s),
        hierarchy: per(hierarchy_s),
        hierarchy_bia: per(hierarchy_bia_s),
    };
    Ok(CellReplay {
        label: spec.label(),
        breakdown: reconcile(&times),
        times,
        counts: ReplayCounts::of(&stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(
        cell: f64,
        capture: f64,
        trace_record: f64,
        hierarchy: f64,
        hierarchy_bia: f64,
    ) -> LayerTimes {
        LayerTimes {
            accesses: 1000,
            cell,
            capture,
            trace_record,
            cache: 1.0,
            hierarchy,
            hierarchy_bia,
        }
    }

    #[test]
    fn layers_split_the_capture_and_add_back_to_the_cell() {
        // 100 ns/access untraced; the capture pays 8 ns for recording.
        let b = reconcile(&times(100.0, 108.0, 8.0, 30.0, 45.0));
        assert_eq!(b.hierarchy, 30.0);
        assert_eq!(b.bia_monitor, 15.0);
        assert_eq!(b.residual, 55.0);
        assert_eq!(b.sum, 100.0);
        assert_eq!(b.err, 0.0);
    }

    #[test]
    fn reconciliation_error_is_relative_to_the_cell() {
        // The traced run costs 20 ns more than recording explains.
        let b = reconcile(&times(100.0, 128.0, 8.0, 30.0, 45.0));
        assert_eq!(b.sum, 120.0);
        assert!((b.err - 0.20).abs() < 1e-12);
        assert!(b.err > RECONCILE_TOLERANCE);
        let under = reconcile(&times(100.0, 95.0, 5.0, 30.0, 45.0));
        assert!((under.err - 0.10).abs() < 1e-12);
        assert!(under.err <= RECONCILE_TOLERANCE);
    }

    #[test]
    fn traced_flags_follow_the_bia_placement() {
        let f = flags_for(TraceOp::DsLoad, Some(BiaPlacement::L2));
        assert!(f.bypass_l1 && !f.bypass_l2 && !f.update_replacement);
        let f = flags_for(TraceOp::DsStore, Some(BiaPlacement::Llc));
        assert!(f.bypass_l1 && f.bypass_l2 && f.kind == AccessKind::Write);
        assert_eq!(
            flags_for(TraceOp::Load, Some(BiaPlacement::L2)),
            AccessFlags::read()
        );
        assert!(flags_for(TraceOp::DramStore, None).dram_direct);
    }
}
