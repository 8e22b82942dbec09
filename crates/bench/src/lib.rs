//! # ctbia-bench — the evaluation harness
//!
//! Shared plumbing for the figure/table regenerators (`src/bin/*`). Each
//! binary reprints one table or figure of the paper from a fresh
//! simulation; see DESIGN.md §5 for the full experiment index and
//! EXPERIMENTS.md for paper-vs-measured notes. Host-time measurement
//! lives in `perfbench/` (see `perfbench/README.md`).
//!
//! Strategy↔machine pairings follow the paper's bars:
//!
//! | Paper bar | Here |
//! |---|---|
//! | insecure baseline | [`run_insecure`] |
//! | `CT` (Constantine) | [`run_ct`] / [`run_ct_avx2`] |
//! | `L1d` | [`run_bia_l1d`] |
//! | `L2` | [`run_bia_l2`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ctbia_harness::{CellReport, CellSpec, DiskCache, StrategySpec, SweepEngine, WorkloadSpec};
use ctbia_machine::{BiaPlacement, CostModel, Machine, MachineConfig};
use ctbia_workloads::{Run, Strategy, Workload};

/// Builds an evaluation machine: Table 1 hierarchy, the `o3_approx` cost
/// model (see `ctbia_machine::cost` — linearization sweeps pipeline at
/// cache throughput, as on the paper's out-of-order core), and an optional
/// BIA.
pub fn eval_machine(bia: Option<BiaPlacement>) -> Machine {
    let mut cfg = match bia {
        Some(p) => MachineConfig::with_bia(p),
        None => MachineConfig::insecure(),
    };
    cfg.cost = CostModel::o3_approx();
    Machine::new(cfg).expect("default configuration is valid")
}

/// Runs `wl` on a fresh insecure machine (no BIA) with direct accesses.
pub fn run_insecure(wl: &dyn Workload) -> Run {
    let mut m = eval_machine(None);
    wl.run(&mut m, Strategy::Insecure)
}

/// Runs `wl` under scalar software constant-time programming.
pub fn run_ct_scalar(wl: &dyn Workload) -> Run {
    let mut m = eval_machine(None);
    wl.run(&mut m, Strategy::software_ct())
}

/// Runs `wl` under software constant-time programming at Constantine's
/// default (AVX2-vectorized) profile — the paper's `CT` bar.
pub fn run_ct(wl: &dyn Workload) -> Run {
    let mut m = eval_machine(None);
    wl.run(&mut m, Strategy::software_ct_avx2())
}

/// Alias for the AVX2 profile (the `secure with avx` rows of §3.1/Fig. 2).
pub fn run_ct_avx2(wl: &dyn Workload) -> Run {
    run_ct(wl)
}

/// Runs `wl` with the BIA beside L1d.
pub fn run_bia_l1d(wl: &dyn Workload) -> Run {
    let mut m = eval_machine(Some(BiaPlacement::L1d));
    wl.run(&mut m, Strategy::bia())
}

/// Runs `wl` with the BIA beside L2.
pub fn run_bia_l2(wl: &dyn Workload) -> Run {
    let mut m = eval_machine(Some(BiaPlacement::L2));
    wl.run(&mut m, Strategy::bia())
}

/// The shared figure engine: a parallel worker pool over the repo-wide
/// `results/cache/` memo table, so sibling figure bins (and `ctbia run`)
/// share completed cells. If the cache directory cannot be created the
/// engine simply runs uncached.
pub fn figure_engine() -> SweepEngine {
    let engine = SweepEngine::new();
    match DiskCache::open_default() {
        Ok(cache) => engine.with_cache(cache),
        Err(_) => engine,
    }
}

/// One figure cell: `workload` under `strategy` (with `placement` for BIA
/// cells) on the evaluation configuration — Table 1 hierarchy and the
/// `o3_approx` cost model, exactly what [`eval_machine`] simulates.
pub fn eval_cell(
    workload: WorkloadSpec,
    strategy: StrategySpec,
    placement: BiaPlacement,
) -> CellSpec {
    CellSpec::new(workload, strategy, placement).with_eval_config()
}

/// Execution-time overhead of a cell report relative to a baseline report
/// (1.0 = equal) — [`overhead`] for sweep-engine output.
pub fn report_overhead(report: &CellReport, baseline: &CellReport) -> f64 {
    assert_eq!(
        report.digest, baseline.digest,
        "strategies disagree on the output"
    );
    report.counters.cycles as f64 / baseline.counters.cycles.max(1) as f64
}

/// Execution-time overhead of `run` relative to `baseline` (1.0 = equal).
pub fn overhead(run: &Run, baseline: &Run) -> f64 {
    assert_eq!(
        run.digest, baseline.digest,
        "strategies disagree on the output"
    );
    run.counters.cycles as f64 / baseline.counters.cycles.max(1) as f64
}

/// One row of a Figure 7-style table.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Workload label (`hist_1k`, ...).
    pub name: String,
    /// L1d-BIA overhead vs insecure.
    pub l1d: f64,
    /// L2-BIA overhead vs insecure.
    pub l2: f64,
    /// Software-CT overhead vs insecure.
    pub ct: f64,
}

/// Runs all four configurations of `wl` and assembles the Figure 7 row.
pub fn figure7_row(wl: &dyn Workload) -> OverheadRow {
    let base = run_insecure(wl);
    let l1d = run_bia_l1d(wl);
    let l2 = run_bia_l2(wl);
    let ct = run_ct(wl);
    OverheadRow {
        name: wl.name(),
        l1d: overhead(&l1d, &base),
        l2: overhead(&l2, &base),
        ct: overhead(&ct, &base),
    }
}

/// Assembles one Figure 7 row per workload spec through the sweep engine:
/// the whole `workloads × {insecure, L1d, L2, CT}` grid is expanded up
/// front, simulated in parallel (memoized under `results/cache/`), and
/// folded back into rows in grid order.
pub fn figure7_rows(workloads: &[WorkloadSpec]) -> Vec<OverheadRow> {
    figure7_rows_on(&figure_engine(), workloads)
}

/// [`figure7_rows`] on a caller-provided engine (no-cache engines keep
/// tests hermetic).
pub fn figure7_rows_on(engine: &SweepEngine, workloads: &[WorkloadSpec]) -> Vec<OverheadRow> {
    let mut grid = Vec::with_capacity(workloads.len() * 4);
    for &wl in workloads {
        grid.push(eval_cell(wl, StrategySpec::Insecure, BiaPlacement::L1d));
        grid.push(eval_cell(wl, StrategySpec::Bia, BiaPlacement::L1d));
        grid.push(eval_cell(wl, StrategySpec::Bia, BiaPlacement::L2));
        grid.push(eval_cell(wl, StrategySpec::CtAvx2, BiaPlacement::L1d));
    }
    let reports = engine.run(&grid).expect("figure 7 grid is valid");
    reports
        .chunks_exact(4)
        .zip(workloads)
        .map(|(chunk, wl)| OverheadRow {
            name: wl.name(),
            l1d: report_overhead(&chunk[1], &chunk[0]),
            l2: report_overhead(&chunk[2], &chunk[0]),
            ct: report_overhead(&chunk[3], &chunk[0]),
        })
        .collect()
}

/// Prints a Figure 7-style table to stdout.
pub fn print_overhead_table(title: &str, rows: &[OverheadRow]) {
    println!("\n{title}");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>14}",
        "workload", "L1d", "L2", "CT", "CT/best-BIA"
    );
    for r in rows {
        let best = r.l1d.min(r.l2);
        println!(
            "{:<12} {:>8.2} {:>8.2} {:>8.2} {:>13.2}x",
            r.name,
            r.l1d,
            r.l2,
            r.ct,
            r.ct / best
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_workloads::Histogram;

    #[test]
    fn figure7_row_orders_strategies_sanely() {
        let row = figure7_row(&Histogram::new(400));
        assert!(row.ct > row.l1d, "CT should cost more than L1d BIA");
        assert!(row.l1d >= 1.0 && row.l2 >= 1.0);
        assert_eq!(row.name, "hist_400");
    }

    #[test]
    fn overhead_is_relative() {
        let wl = Histogram::new(200);
        let base = run_insecure(&wl);
        assert!((overhead(&base, &base) - 1.0).abs() < 1e-12);
        let ct = run_ct(&wl);
        assert!(overhead(&ct, &base) > 1.0);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn overhead_rejects_mismatched_outputs() {
        let a = run_insecure(&Histogram::new(100));
        let b = run_insecure(&Histogram::new(101));
        let _ = overhead(&a, &b);
    }

    #[test]
    fn engine_rows_match_direct_simulation() {
        // The sweep-engine path must reproduce the direct-simulation path
        // exactly — same machines, same cost model, same numbers.
        let rows = figure7_rows_on(
            &SweepEngine::serial(),
            &[WorkloadSpec::named("hist", 300).unwrap()],
        );
        let direct = figure7_row(&Histogram::new(300));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, direct.name);
        assert!((rows[0].l1d - direct.l1d).abs() < 1e-12);
        assert!((rows[0].l2 - direct.l2).abs() < 1e-12);
        assert!((rows[0].ct - direct.ct).abs() < 1e-12);
    }
}
