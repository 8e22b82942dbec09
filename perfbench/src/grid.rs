//! The cell-grid workloads, run on `SweepEngine`: `sweep` and `spill`.
//!
//! A pass resolves the whole grid cold (a fresh `DiskCache` directory, so
//! every cell simulates and stores), then reloads every cell from that
//! cache through the engine. `cells_per_s` is the cold pass's rate;
//! `hit_*` are the reload latencies. Every cold report and every reload
//! must be byte-equal to `execute_cell(..).to_cache_text()`, and every
//! strategy must compute the insecure run's digest.

use crate::probes::{cell_layers, pass_metrics, traced_pass};
use crate::record::{Check, Fnv, Metrics};
use crate::span::SpanLog;
use crate::stats::median;
use crate::{enough_setups, Outcome, RunCfg, GRID_WORKERS};
use ctbia_harness::{
    CellReport, CellSpec, CryptoKernel, DiskCache, StrategySpec, SweepEngine, WorkloadSpec,
};
use ctbia_machine::BiaPlacement;
use ctbia_sim::config::CacheConfig;
use std::path::Path;
use std::time::Instant;

/// Reload samples an untraced run collects at least, so `hit_p99_us`
/// has ten samples beyond it.
pub const MIN_HITS: usize = 1010;

/// A grid workload: the cells of one pass and how many times a pass
/// reloads them.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The cells, in grid order.
    pub cells: Vec<CellSpec>,
    /// Reload rounds per pass.
    pub reload_rounds: usize,
}

/// SplitMix64 step: decorrelates the per-workload input seeds drawn from
/// one `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `w` with its input seed replaced. Sizes and iteration counts stay as
/// they are, so the work a constant-time cell does is the same for every
/// seed; crypto kernels run at fixed parameters and are returned as is.
pub fn reseed(w: WorkloadSpec, seed: u64) -> WorkloadSpec {
    match w {
        WorkloadSpec::Dijkstra { vertices, .. } => WorkloadSpec::Dijkstra { vertices, seed },
        WorkloadSpec::Histogram { size, .. } => WorkloadSpec::Histogram { size, seed },
        WorkloadSpec::Permutation { size, .. } => WorkloadSpec::Permutation { size, seed },
        WorkloadSpec::BinarySearch { size, searches, .. } => WorkloadSpec::BinarySearch {
            size,
            searches,
            seed,
        },
        WorkloadSpec::HeapPop { size, pops, .. } => WorkloadSpec::HeapPop { size, pops, seed },
        WorkloadSpec::LeakyBinarySearch { size, searches, .. } => WorkloadSpec::LeakyBinarySearch {
            size,
            searches,
            seed,
        },
        WorkloadSpec::SpectreGadget { size, attacks, .. } => WorkloadSpec::SpectreGadget {
            size,
            attacks,
            seed,
        },
        WorkloadSpec::Crypto(k) => WorkloadSpec::Crypto(k),
    }
}

fn named(name: &str, size: usize, seed: u64, salt: u64) -> WorkloadSpec {
    reseed(
        WorkloadSpec::named(name, size).expect("built-in workload"),
        mix(seed, salt),
    )
}

/// `sweep` is in the benchmark because it is the simulator's main
/// product: the 44-cell full `ctbia bench` grid under the evaluation
/// (`o3_approx`) configuration, 5 Ghostrider workloads at full size ×
/// {insecure, CT(avx2), BIA@L1d, BIA@L2} plus 8 crypto kernels ×
/// {insecure, CT(avx2), BIA@L1d}.
///
/// It loads the machine's fast paths, the workloads, `execute_cell` and
/// the engine. Every working set fits the 64 KB L1d, so the hierarchy's
/// miss path does almost nothing, and serve, verify and analyze are not
/// called at all.
pub fn sweep(seed: u64) -> Grid {
    let sizes = [
        ("dijkstra", 64),
        ("histogram", 2000),
        ("permutation", 2000),
        ("binary-search", 4000),
        ("heappop", 4000),
    ];
    let mut cells = Vec::new();
    for (salt, (name, size)) in sizes.into_iter().enumerate() {
        let workload = named(name, size, seed, salt as u64);
        for (strategy, placement) in [
            (StrategySpec::Insecure, BiaPlacement::L1d),
            (StrategySpec::CtAvx2, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L1d),
            (StrategySpec::Bia, BiaPlacement::L2),
        ] {
            cells.push(CellSpec::new(workload, strategy, placement).with_eval_config());
        }
    }
    for kernel in CryptoKernel::ALL {
        for strategy in [
            StrategySpec::Insecure,
            StrategySpec::CtAvx2,
            StrategySpec::Bia,
        ] {
            cells.push(
                CellSpec::new(WorkloadSpec::Crypto(kernel), strategy, BiaPlacement::L1d)
                    .with_eval_config(),
            );
        }
    }
    Grid {
        cells,
        reload_rounds: 1,
    }
}

/// The L1d of the `spill` cells: a quarter of Table 1's 64 KB.
const SPILL_L1D_BYTES: u64 = 16 * 1024;
/// Entries of the `spill` cells: a 17 000-byte dataflow set, one
/// sixteenth larger than `SPILL_L1D_BYTES` (as 68 KB is to 64 KB).
const SPILL_ENTRIES: usize = 4_250;

/// `spill` is in the benchmark because it is the working-set-beyond-the-
/// cache side of the traffic: histogram and permutation under BIA@L1d
/// with a dataflow set one sixteenth larger than the L1d.
///
/// BIA cells never take the machine's batched sweep fast path, and here
/// every linearized access walks the per-line loop through `Hierarchy`
/// misses, evictions and BIA monitor events, so `sim` and `core` do most
/// of the work. The engine, the disk cache and serve barely register.
///
/// The spill is scaled down by four, a 16 KB L1d and 4 250 entries rather
/// than Table 1's 64 KB and 17 000, because a cell's work grows with the
/// square of its size: at full size a cell takes 2-3 s, a ten-second run
/// holds two or three passes, and ten seeds spread `cells_per_s` by 0.44
/// on a host whose speed drifts over seconds. At this size a run holds
/// about thirty passes.
pub fn spill(seed: u64) -> Grid {
    let cells = [("histogram", 0), ("permutation", 1)]
        .into_iter()
        .map(|(name, salt)| {
            let mut cell = CellSpec::new(
                named(name, SPILL_ENTRIES, seed, salt),
                StrategySpec::Bia,
                BiaPlacement::L1d,
            )
            .with_eval_config();
            cell.config.hierarchy.l1d = CacheConfig::new("L1d", SPILL_L1D_BYTES, 8, 2);
            cell
        })
        .collect();
    Grid {
        cells,
        reload_rounds: 20,
    }
}

/// Runs `cells` through `execute_cell` on `threads` workers (untimed
/// reference outputs).
pub fn par_execute(cells: &[CellSpec], threads: usize) -> Result<Vec<CellReport>, String> {
    let engine = SweepEngine::new().with_threads(threads);
    engine.run(cells)
}

/// Checks that every cell computes the same digest as the insecure run of
/// its workload.
pub fn check_digests(
    cells: &[CellSpec],
    reports: &[CellReport],
    threads: usize,
    check: &mut Check,
) -> Result<(), String> {
    let mut baselines: Vec<CellSpec> = Vec::new();
    for c in cells {
        if !baselines.iter().any(|b| b.workload == c.workload) {
            baselines.push(CellSpec {
                strategy: StrategySpec::Insecure,
                ..c.clone()
            });
        }
    }
    let baseline_reports = par_execute(&baselines, threads)?;
    for (c, r) in cells.iter().zip(reports) {
        let i = baselines
            .iter()
            .position(|b| b.workload == c.workload)
            .expect("every workload has a baseline");
        check.expect(r.digest == baseline_reports[i].digest, || {
            format!("{}: digest differs from the insecure run", c.label())
        });
    }
    Ok(())
}

/// One cold engine pass into a fresh cache at `dir`: wall seconds and
/// reports, checked against the reference texts.
fn cold_pass(
    cells: &[CellSpec],
    dir: &Path,
    threads: usize,
    texts: &[String],
    check: &mut Check,
) -> Result<f64, String> {
    let t = Instant::now();
    let cache = DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    let engine = SweepEngine::new().with_threads(threads).with_cache(cache);
    let reports = engine.run(cells)?;
    let wall = t.elapsed().as_secs_f64();
    for ((c, r), text) in cells.iter().zip(&reports).zip(texts) {
        check.expect(r.to_cache_text() == *text, || {
            format!("{}: engine report differs from execute_cell", c.label())
        });
    }
    check.expect(engine.cache_store_failures() == 0, || {
        format!("{} cache store(s) failed", engine.cache_store_failures())
    });
    Ok(wall)
}

/// Reloads every cell `rounds` times from the cache at `dir` through the
/// engine, returning each reload's latency in seconds.
fn reload(
    cells: &[CellSpec],
    dir: &Path,
    rounds: usize,
    texts: &[String],
    check: &mut Check,
) -> Result<Vec<f64>, String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    let engine = SweepEngine::serial().with_cache(cache);
    let mut latencies = Vec::with_capacity(cells.len() * rounds);
    for _ in 0..rounds {
        for (c, text) in cells.iter().zip(texts) {
            let t = Instant::now();
            let report = engine.run_cell(c);
            latencies.push(t.elapsed().as_secs_f64());
            check.expect(report.is_ok_and(|r| r.to_cache_text() == *text), || {
                format!("{}: reload differs from execute_cell", c.label())
            });
        }
    }
    check.expect(engine.cells_executed() == 0, || {
        format!(
            "{}: reload re-simulated {} cell(s)",
            dir.display(),
            engine.cells_executed()
        )
    });
    Ok(latencies)
}

/// Runs a grid workload for one benchmark run.
pub fn run(grid: &Grid, cfg: &RunCfg) -> Result<Outcome, String> {
    let cells = &grid.cells;
    let n = cells.len();
    let mut check = Check::default();
    let refs = par_execute(cells, cfg.threads)?;
    check_digests(cells, &refs, cfg.threads, &mut check)?;
    let texts: Vec<String> = refs.iter().map(CellReport::to_cache_text).collect();

    // Set-up: the warm-up pass, repeated so its median is steady.
    let mut setups = Vec::new();
    while !enough_setups(&setups) {
        let dir = cfg.scratch.fresh("setup");
        let t = Instant::now();
        cold_pass(cells, &dir, GRID_WORKERS, &texts, &mut check)?;
        setups.push(t.elapsed().as_secs_f64());
        cfg.scratch.remove(&dir);
    }

    // The measurement window. A traced run alternates untraced and traced
    // passes through the same window, so the tracing overhead is not
    // confounded with the host's speed drifting between two halves.
    let log = SpanLog::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut hits = Vec::new();
    let mut passes = Vec::new();
    while walls.is_empty()
        || start.elapsed().as_secs_f64() < cfg.seconds
        || (!cfg.traced && hits.len() < MIN_HITS)
    {
        let dir = cfg.scratch.fresh("pass");
        walls.push(cold_pass(cells, &dir, GRID_WORKERS, &texts, &mut check)?);
        hits.extend(reload(cells, &dir, grid.reload_rounds, &texts, &mut check)?);
        cfg.scratch.remove(&dir);
        if cfg.traced {
            let dir = cfg.scratch.fresh("traced");
            let p = traced_pass(&log, cells, &dir, passes.len() as u64, &mut check)?;
            for ((c, r), text) in cells.iter().zip(&p.reports).zip(&texts) {
                check.expect(r.to_cache_text() == *text, || {
                    format!("{}: traced report differs from execute_cell", c.label())
                });
            }
            passes.push(p);
            cfg.scratch.remove(&dir);
        }
    }

    let mut m = Metrics::default();
    m.push_with("setup_s", median(&setups), "s", Some(setups.len()));
    m.push_with("cells_per_s", rate(n, &walls), "1/s", Some(walls.len()));
    m.push_pct("hit_p50_us", &hits, 50, 1e6, "us");
    m.push_pct("hit_p99_us", &hits, 99, 1e6, "us");
    m.push_round_mean("hit_mean_us", &hits, n, 1e6, "us");

    let mut out = Outcome {
        schedule_digest: cells_digest(cells),
        output_digest: texts_digest(&texts),
        cells: cells.clone(),
        ..Outcome::default()
    };
    if cfg.traced {
        let traced_walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
        m.push(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
            "frac",
        );
        m.extend(pass_metrics(&passes));
        m.push("harness.cells_executed", n as f64, "count");
        m.push(
            "harness.cache_hits",
            (n * grid.reload_rounds) as f64,
            "count",
        );
        m.push("harness.memo_hits", 0.0, "count");
        let dir = cfg.scratch.fresh("probe");
        let (layers, replays) = cell_layers(&log, cells, &passes[0], &dir, &mut check)?;
        cfg.scratch.remove(&dir);
        m.extend(layers);
        out.replays = replays;
        out.spans = log.spans();
    }
    out.metrics = m;
    out.check = check;
    Ok(out)
}

/// Cells completed per second over every timed pass: total cells over
/// total pass time. A time-weighted rate, so a host that switches speed
/// mid-run moves it in proportion rather than flipping a median.
pub fn rate(cells_per_pass: usize, walls: &[f64]) -> f64 {
    (cells_per_pass * walls.len()) as f64 / walls.iter().sum::<f64>()
}

/// Digest over the cells' content digests, in input order: the identity
/// of the generated inputs.
pub fn cells_digest(cells: &[CellSpec]) -> String {
    let mut h = Fnv::new();
    for c in cells {
        h.u128(c.digest());
    }
    h.hex()
}

/// Digest over report texts, in input order.
pub fn texts_digest(texts: &[String]) -> String {
    let mut h = Fnv::new();
    for t in texts {
        h.bytes(t.as_bytes());
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_digest() {
        for grid in [sweep, spill] {
            assert_eq!(cells_digest(&grid(7).cells), cells_digest(&grid(7).cells));
            assert_ne!(cells_digest(&grid(7).cells), cells_digest(&grid(8).cells));
        }
        assert_eq!(sweep(1).cells.len(), 44);
    }

    #[test]
    fn reseeding_keeps_the_public_shape() {
        let w = WorkloadSpec::named("bin", 600).unwrap();
        let r = reseed(w, 99);
        match (w, r) {
            (
                WorkloadSpec::BinarySearch { size, searches, .. },
                WorkloadSpec::BinarySearch {
                    size: s2,
                    searches: q2,
                    seed,
                },
            ) => {
                assert_eq!((size, searches, seed), (s2, q2, 99));
            }
            _ => panic!("variant changed"),
        }
    }
}
