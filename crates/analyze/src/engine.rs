//! The certification grid: [`AnalyzeCell`] as a [`GridCell`], the
//! [`AnalyzeEngine`] that runs it, and the canonical certification grids.
//!
//! The engine is `ctbia_harness`'s one [`GridEngine`] pool (DESIGN.md
//! §9). Verdicts are memoized under the cell's content digest in the
//! same [`DiskCache`](ctbia_harness::DiskCache) as simulation and
//! verification cells, encoded with the analyzer's own
//! [`ANALYZE_SCHEMA_VERSION`](crate::cell::ANALYZE_SCHEMA_VERSION) text,
//! so the kinds share one store without colliding.

use crate::cell::{execute_analyze_cell, AnalyzeCell, AnalyzeReport};
use ctbia_harness::{CellSpec, CryptoKernel, GridCell, GridEngine, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;
use ctbia_verify::ghostrider_workloads;

/// The worker pool and memo layers for certification grids.
pub type AnalyzeEngine = GridEngine<AnalyzeCell>;

impl GridCell for AnalyzeCell {
    type Report = AnalyzeReport;

    fn digest(&self) -> u128 {
        AnalyzeCell::digest(self)
    }

    fn execute(&self) -> Result<AnalyzeReport, String> {
        execute_analyze_cell(self)
    }

    fn to_cache_text(report: &AnalyzeReport) -> String {
        report.to_cache_text()
    }

    fn from_cache_text(text: &str) -> Option<AnalyzeReport> {
        AnalyzeReport::from_cache_text(text)
    }
}

/// The crypto kernels whose *insecure* versions still certify clean —
/// DES/3DES tables fit a single cache line and XOR never indexes by a
/// secret — so the grid's Insecure arm excludes them (a 0-bit bound
/// there is correct, not a miss).
const INSECURE_CLEAN_KERNELS: [CryptoKernel; 3] =
    [CryptoKernel::Des, CryptoKernel::Des3, CryptoKernel::Xor];

/// The canonical certification grid.
///
/// Full mode certifies all five Ghostrider workloads under software CT
/// and under BIA at every placement, plus every crypto kernel under CT
/// and BIA, and demands a strictly positive verdict from every
/// *insecure* cell (line-granularity-clean kernels excluded) and from
/// the leaky negative control. Quick mode trims to L1d and the
/// Ghostrider set — the CI smoke grid.
pub fn analyze_grid(quick: bool) -> Vec<AnalyzeCell> {
    let mut cells = Vec::new();
    let mut push = |workload: WorkloadSpec, strategy: StrategySpec, placement: BiaPlacement| {
        cells.push(AnalyzeCell::new(CellSpec::new(
            workload, strategy, placement,
        )));
    };

    let bia_placements: &[BiaPlacement] = if quick {
        &[BiaPlacement::L1d]
    } else {
        &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc]
    };

    for wl in ghostrider_workloads(quick) {
        push(wl, StrategySpec::Ct, BiaPlacement::L1d);
        for &placement in bia_placements {
            push(wl, StrategySpec::Bia, placement);
        }
        push(wl, StrategySpec::Insecure, BiaPlacement::L1d);
    }
    if !quick {
        for kernel in CryptoKernel::ALL {
            for strategy in [StrategySpec::Ct, StrategySpec::Bia] {
                push(WorkloadSpec::Crypto(kernel), strategy, BiaPlacement::L1d);
            }
        }
        for kernel in CryptoKernel::ALL {
            if !INSECURE_CLEAN_KERNELS.contains(&kernel) {
                push(
                    WorkloadSpec::Crypto(kernel),
                    StrategySpec::Insecure,
                    BiaPlacement::L1d,
                );
            }
        }
    }
    // The negative control: must fail both passes.
    push(
        WorkloadSpec::named("leaky-bin", if quick { 300 } else { 500 }).expect("known workload"),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_harness::DiskCache;

    fn tiny_grid() -> Vec<AnalyzeCell> {
        let mut cells: Vec<AnalyzeCell> = [("hist", 150), ("perm", 120), ("bin", 200)]
            .iter()
            .map(|&(name, size)| {
                AnalyzeCell::new(CellSpec::new(
                    WorkloadSpec::named(name, size).unwrap(),
                    StrategySpec::Ct,
                    BiaPlacement::L1d,
                ))
            })
            .collect();
        cells.push(AnalyzeCell::new(CellSpec::new(
            WorkloadSpec::named("leaky-bin", 150).unwrap(),
            StrategySpec::Insecure,
            BiaPlacement::L1d,
        )));
        cells
    }

    #[test]
    fn parallel_matches_serial() {
        let grid = tiny_grid();
        let serial = AnalyzeEngine::serial().run(&grid).unwrap();
        let parallel = AnalyzeEngine::new().with_threads(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        for (cell, report) in grid.iter().zip(&serial) {
            assert!(report.passed(cell.expects_leak()), "{report}");
        }
    }

    #[test]
    fn verdicts_memoize() {
        let dir = std::env::temp_dir().join(format!("ctbia-analyze-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        let grid = tiny_grid();
        let first = AnalyzeEngine::serial()
            .with_cache(cache)
            .run(&grid)
            .unwrap();

        let engine = AnalyzeEngine::serial().with_cache(DiskCache::open(&dir).unwrap());
        let second = engine.run(&grid).unwrap();
        assert_eq!(first, second, "cached verdicts replay byte-identically");
        assert_eq!(engine.cells_executed(), 0);
        assert_eq!(engine.cache_hits(), grid.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grids_have_the_advertised_shape() {
        let quick = analyze_grid(true);
        let full = analyze_grid(false);
        // quick: 5 workloads x (CT + BIA@L1d + insecure) + leaky control.
        assert_eq!(quick.len(), 5 * 3 + 1);
        // full: 5 x (CT + BIA@3 + insecure) + crypto x (CT + BIA)
        //       + 5 insecure-positive crypto + leaky control.
        assert_eq!(full.len(), 5 * 5 + 8 * 2 + 5 + 1);
        assert_eq!(quick.iter().filter(|c| c.expects_leak()).count(), 6);
        assert_eq!(full.iter().filter(|c| c.expects_leak()).count(), 11);
        // Every cell key is distinct — no cache collisions inside a grid.
        let mut keys: Vec<u128> = full.iter().map(AnalyzeCell::digest).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len());
    }

    #[test]
    fn the_quick_grid_passes_end_to_end() {
        let grid = analyze_grid(true);
        let reports = AnalyzeEngine::new().run(&grid).unwrap();
        for (cell, report) in grid.iter().zip(&reports) {
            assert!(report.passed(cell.expects_leak()), "{report}");
        }
    }
}
