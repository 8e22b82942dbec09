//! The verification grid: [`VerifyCell`] as a [`GridCell`], the
//! [`VerifyEngine`] that runs it, and the canonical verification grids.
//!
//! The engine is `ctbia_harness`'s one [`GridEngine`] pool (DESIGN.md
//! §9). Verdicts are memoized under the cell's content digest in the
//! same [`DiskCache`](ctbia_harness::DiskCache) as simulation cells,
//! encoded with the verifier's own
//! [`VERIFY_SCHEMA_VERSION`](crate::cell::VERIFY_SCHEMA_VERSION) text, so
//! the kinds share one store without colliding.

use crate::cell::{execute_verify_cell, VerifyCell, VerifyReport};
use ctbia_harness::{CellSpec, CryptoKernel, GridCell, GridEngine, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;

/// The worker pool and memo layers for verification grids.
pub type VerifyEngine = GridEngine<VerifyCell>;

impl GridCell for VerifyCell {
    type Report = VerifyReport;

    fn digest(&self) -> u128 {
        VerifyCell::digest(self)
    }

    fn execute(&self) -> Result<VerifyReport, String> {
        execute_verify_cell(self)
    }

    fn to_cache_text(report: &VerifyReport) -> String {
        report.to_cache_text()
    }

    fn from_cache_text(text: &str) -> Option<VerifyReport> {
        VerifyReport::from_cache_text(text)
    }
}

/// The secret-seed family the canonical grids replay: 4 seeds in quick
/// mode, 9 (= 8 pairs) in full mode. Deterministic, so cached verdicts
/// stay valid across runs.
pub fn verify_seeds(quick: bool) -> Vec<u64> {
    let n = if quick { 4 } else { 9 };
    (0..n)
        .map(|i| 0x5ec2e7 ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

/// The five Ghostrider workloads at the sizes both verdict grids (this
/// one and `ctbia-analyze`'s) check: CI-sized in quick mode.
pub fn ghostrider_workloads(quick: bool) -> Vec<WorkloadSpec> {
    let sizes = if quick {
        [
            ("dij", 24),
            ("hist", 300),
            ("perm", 300),
            ("bin", 400),
            ("heap", 400),
        ]
    } else {
        [
            ("dij", 32),
            ("hist", 500),
            ("perm", 500),
            ("bin", 600),
            ("heap", 600),
        ]
    };
    sizes
        .iter()
        .map(|&(name, size)| WorkloadSpec::named(name, size).expect("known workload"))
        .collect()
}

/// The canonical verification grid.
///
/// Full mode covers all five Ghostrider workloads under software CT and
/// under BIA / BIA-loads at every placement, plus every crypto kernel
/// (oracle-only) and the leaky negative control, with 9 seeds. Quick
/// mode trims to two strategies, smaller sizes, and 4 seeds — the CI
/// smoke grid.
pub fn verify_grid(quick: bool) -> Vec<VerifyCell> {
    let seeds = verify_seeds(quick);
    let mut cells = Vec::new();
    let mut push = |workload: WorkloadSpec, strategy: StrategySpec, placement: BiaPlacement| {
        cells.push(VerifyCell::new(
            CellSpec::new(workload, strategy, placement),
            seeds.clone(),
        ));
    };

    let strategies: &[(StrategySpec, &[BiaPlacement])] = if quick {
        &[
            (StrategySpec::Ct, &[BiaPlacement::L1d]),
            (StrategySpec::Bia, &[BiaPlacement::L1d]),
        ]
    } else {
        &[
            (StrategySpec::Ct, &[BiaPlacement::L1d]),
            (
                StrategySpec::BiaLoads,
                &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc],
            ),
            (
                StrategySpec::Bia,
                &[BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc],
            ),
        ]
    };

    for wl in ghostrider_workloads(quick) {
        for (strategy, placements) in strategies {
            for &placement in *placements {
                push(wl, *strategy, placement);
            }
        }
    }
    if !quick {
        for kernel in CryptoKernel::ALL {
            for strategy in [StrategySpec::Ct, StrategySpec::BiaLoads, StrategySpec::Bia] {
                push(WorkloadSpec::Crypto(kernel), strategy, BiaPlacement::L1d);
            }
        }
    }
    // The negative control: must fail both analyses.
    push(
        WorkloadSpec::named("leaky-bin", if quick { 300 } else { 500 }).expect("known workload"),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );
    // The speculation controls: the Spectre gadget must verify clean on
    // the default (non-speculating) machine, and must be caught by both
    // analyses once the machine executes bounded wrong-path windows.
    let spectre =
        WorkloadSpec::named("spectre", if quick { 192 } else { 256 }).expect("known workload");
    push(spectre, StrategySpec::Insecure, BiaPlacement::L1d);
    let mut speculating = VerifyCell::new(
        CellSpec::new(spectre, StrategySpec::Insecure, BiaPlacement::L1d),
        seeds.clone(),
    );
    speculating.spec.config.spec_window = 32;
    cells.push(speculating);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_harness::DiskCache;

    fn tiny_grid() -> Vec<VerifyCell> {
        let seeds = verify_seeds(true);
        let mut cells: Vec<VerifyCell> = [("hist", 150), ("perm", 120), ("bin", 200)]
            .iter()
            .map(|&(name, size)| {
                VerifyCell::new(
                    CellSpec::new(
                        WorkloadSpec::named(name, size).unwrap(),
                        StrategySpec::Ct,
                        BiaPlacement::L1d,
                    ),
                    seeds.clone(),
                )
            })
            .collect();
        cells.push(VerifyCell::new(
            CellSpec::new(
                WorkloadSpec::named("leaky-bin", 150).unwrap(),
                StrategySpec::Insecure,
                BiaPlacement::L1d,
            ),
            seeds,
        ));
        cells
    }

    #[test]
    fn parallel_matches_serial() {
        let grid = tiny_grid();
        let serial = VerifyEngine::serial().run(&grid).unwrap();
        let parallel = VerifyEngine::new().with_threads(4).run(&grid).unwrap();
        assert_eq!(serial, parallel);
        for (cell, report) in grid.iter().zip(&serial) {
            assert!(report.passed(cell.expects_leak()), "{report}");
        }
    }

    #[test]
    fn verdicts_memoize() {
        let dir = std::env::temp_dir().join(format!("ctbia-verify-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = DiskCache::open(&dir).unwrap();
        let grid = tiny_grid();
        let first = VerifyEngine::serial().with_cache(cache).run(&grid).unwrap();

        let engine = VerifyEngine::serial().with_cache(DiskCache::open(&dir).unwrap());
        let second = engine.run(&grid).unwrap();
        assert_eq!(first, second, "cached verdicts replay byte-identically");
        assert_eq!(engine.cells_executed(), 0);
        assert_eq!(engine.cache_hits(), grid.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ct_workloads_trace_identically_across_eight_pairs() {
        let seeds = verify_seeds(false);
        assert_eq!(seeds.len(), 9, "nine seeds = eight secret pairs");
        for (name, size) in [
            ("bin", 300),
            ("hist", 200),
            ("perm", 200),
            ("heap", 300),
            ("dij", 16),
        ] {
            let spec = CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                StrategySpec::Ct,
                BiaPlacement::L1d,
            );
            let outcome = crate::oracle::trace_equivalence(&spec, &seeds).unwrap();
            assert_eq!(outcome.pairs, 8);
            assert!(
                outcome.equal,
                "{name}: {}",
                outcome.first_divergence.unwrap_or_default()
            );
        }
    }

    #[test]
    fn grids_have_the_advertised_shape() {
        let quick = verify_grid(true);
        let full = verify_grid(false);
        // quick: 5 workloads x 2 strategies + leaky control + 2 spectre
        // controls (non-speculating and speculating).
        assert_eq!(quick.len(), 5 * 2 + 3);
        // full: 5 x (1 + 3 + 3) + crypto x 3 + leaky + 2 spectre controls.
        assert_eq!(full.len(), 5 * 7 + CryptoKernel::ALL.len() * 3 + 3);
        // Exactly two cells per grid must be caught: the leaky control
        // and the speculating Spectre cell.
        assert_eq!(quick.iter().filter(|c| c.expects_leak()).count(), 2);
        assert_eq!(full.iter().filter(|c| c.expects_leak()).count(), 2);
        for cell in &full {
            assert!(cell.seeds.len() >= 9, "full grid replays >= 8 pairs");
        }
        // Every cell key is distinct — no cache collisions inside a grid.
        let mut keys: Vec<u128> = full.iter().map(VerifyCell::digest).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len());
    }
}
