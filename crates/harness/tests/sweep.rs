//! Sweep-engine determinism and memoization guarantees:
//!
//! * a parallel sweep is byte-identical to a serial one over the full
//!   5-workload × 3-placement grid plus the figure-configuration grid
//!   (every strategy family and all eight crypto kernels);
//! * a warm cache returns byte-identical reports without touching the
//!   simulator (checked through the engine's cell-execution counter);
//! * changing the workload size changes the digest and forces
//!   re-simulation.

use ctbia_harness::{
    CellReport, CellSpec, CryptoKernel, DiskCache, StrategySpec, SweepEngine, WorkloadSpec,
};
use ctbia_machine::BiaPlacement;
use std::fs;
use std::path::PathBuf;

/// The full Ghostrider grid: every workload at a small (fast) size, under
/// the BIA strategy at every placement.
fn ghostrider_grid() -> Vec<CellSpec> {
    let workloads = [
        ("dijkstra", 16),
        ("histogram", 300),
        ("permutation", 200),
        ("binary-search", 400),
        ("heappop", 300),
    ];
    let placements = [BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc];
    let mut grid = Vec::new();
    for (name, size) in workloads {
        for placement in placements {
            grid.push(CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                StrategySpec::Bia,
                placement,
            ));
        }
    }
    grid
}

/// The figure-configuration grid (`with_eval_config`, the `o3_approx`
/// cost model): the five Ghostrider workloads under insecure, CT-AVX2,
/// BIA@L1d and BIA@L2, plus the eight Figure 9 crypto kernels under
/// insecure, CT-AVX2 and BIA@L1d — 44 cells.
fn eval_grid() -> Vec<CellSpec> {
    let mut grid = Vec::new();
    for (name, size) in [
        ("dijkstra", 16),
        ("histogram", 400),
        ("permutation", 400),
        ("binary-search", 600),
        ("heappop", 600),
    ] {
        let workload = WorkloadSpec::named(name, size).unwrap();
        for (strategy, placement) in [
            (StrategySpec::Insecure, BiaPlacement::L1d),
            (StrategySpec::CtAvx2, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L2),
        ] {
            grid.push(CellSpec::new(workload, strategy, placement).with_eval_config());
        }
    }
    for kernel in CryptoKernel::ALL {
        for (strategy, placement) in [
            (StrategySpec::Insecure, BiaPlacement::L1d),
            (StrategySpec::CtAvx2, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
        ] {
            grid.push(
                CellSpec::new(WorkloadSpec::Crypto(kernel), strategy, placement).with_eval_config(),
            );
        }
    }
    grid
}

/// Every cell the determinism and memoization tests sweep.
fn full_grid() -> Vec<CellSpec> {
    let mut grid = ghostrider_grid();
    grid.extend(eval_grid());
    grid
}

/// Asserts two report lists serialize to the same cache text, cell for
/// cell, in grid order.
fn assert_same_bytes(a: &[CellReport], b: &[CellReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_cache_text(),
            y.to_cache_text(),
            "{what}: cell {i} ({})",
            x.label
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctbia-sweep-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let grid = full_grid();
    assert_eq!(
        grid.len(),
        15 + 44,
        "5 workloads x 3 placements + the eval grid"
    );

    let serial_engine = SweepEngine::serial();
    let serial = serial_engine.run(&grid).unwrap();
    assert_eq!(serial_engine.cells_executed(), grid.len() as u64);

    // Force real concurrency even on single-core hosts.
    let parallel_engine = SweepEngine::new().with_threads(4);
    let parallel = parallel_engine.run(&grid).unwrap();
    assert_eq!(parallel_engine.cells_executed(), grid.len() as u64);

    assert_eq!(
        serial, parallel,
        "reports differ between serial and parallel"
    );
    // Byte-level check: the serialized form (what lands on disk and on
    // the wire) is identical too, cell for cell, in grid order.
    assert_same_bytes(&serial, &parallel, "serial vs parallel");
}

#[test]
fn warm_cache_serves_identical_reports_without_simulating() {
    let grid = full_grid();
    let dir = tmp_dir("warm");

    let cold_engine = SweepEngine::new()
        .with_threads(2)
        .with_cache(DiskCache::open(&dir).unwrap());
    let cold = cold_engine.run(&grid).unwrap();
    assert_eq!(cold_engine.cells_executed(), grid.len() as u64);
    assert_eq!(cold_engine.cache_hits(), 0);

    // A fresh engine over the same directory: every cell must come from
    // disk, with the simulator never invoked.
    let warm_engine = SweepEngine::new()
        .with_threads(2)
        .with_cache(DiskCache::open(&dir).unwrap());
    let warm = warm_engine.run(&grid).unwrap();
    assert_eq!(
        warm_engine.cells_executed(),
        0,
        "warm cache must not touch the simulator"
    );
    assert_eq!(warm_engine.cache_hits(), grid.len() as u64);
    assert_eq!(cold, warm, "cached reports differ from simulated ones");
    assert_same_bytes(&cold, &warm, "cold vs warm");
    // And the warm reports are the serial reference's bytes.
    let serial = SweepEngine::serial().run(&grid).unwrap();
    assert_same_bytes(&serial, &warm, "serial vs warm");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changed_workload_size_forces_resimulation() {
    let dir = tmp_dir("invalidate");
    let cache = DiskCache::open(&dir).unwrap();

    let small = CellSpec::new(
        WorkloadSpec::named("hist", 200).unwrap(),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );
    let mut larger = small.clone();
    larger.workload = WorkloadSpec::named("hist", 201).unwrap();
    assert_ne!(small.digest(), larger.digest());

    let engine = SweepEngine::serial().with_cache(cache);
    engine.run_cell(&small).unwrap();
    assert_eq!(engine.cells_executed(), 1);
    engine.run_cell(&small).unwrap();
    assert_eq!(engine.cells_executed(), 1, "identical cell must hit");
    let report = engine.run_cell(&larger).unwrap();
    assert_eq!(
        engine.cells_executed(),
        2,
        "a different size is a different cell and must re-simulate"
    );
    assert_eq!(report.label, "hist_201/insecure");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_fall_back_to_simulation() {
    let dir = tmp_dir("corrupt");
    let cache = DiskCache::open(&dir).unwrap();
    let cell = CellSpec::new(
        WorkloadSpec::named("perm", 150).unwrap(),
        StrategySpec::Insecure,
        BiaPlacement::L1d,
    );

    let engine = SweepEngine::serial().with_cache(cache.clone());
    let first = engine.run_cell(&cell).unwrap();
    fs::write(dir.join(cell.digest_hex()), "scrambled").unwrap();
    let second = engine.run_cell(&cell).unwrap();
    assert_eq!(engine.cells_executed(), 2, "corrupt entry must re-simulate");
    assert_eq!(first, second);
    // The re-simulation repaired the entry.
    assert_eq!(cache.load(&cell.digest_hex()), Some(second));

    let _ = fs::remove_dir_all(&dir);
}
