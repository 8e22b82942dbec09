//! The `certify` workload: the full `verify` grid plus the full `analyze`
//! grid, run cold.
//!
//! `certify` is in the benchmark because it is the only workload that
//! loads `ctbia-verify` (the dynamic taint sanitizer and the
//! trace-equivalence oracle) and `ctbia-analyze` (extraction, lint and
//! the abstract cache interpreter), and the only one that runs the
//! machine's observed (non-fast) path. It bypasses serve entirely and
//! barely uses the engine's disk cache. The grids' workload inputs and the
//! oracle's secret family are drawn from the seed; every verdict must
//! equal the cell's `expects_leak()` through `passed(..)`.

use crate::grid::{cells_digest, mix, rate, reseed, texts_digest};
use crate::probes::{cell_layers, traced_pass};
use crate::record::{Check, Metrics};
use crate::span::{durations, SpanLog};
use crate::stats::median;
use crate::{enough_setups, Outcome, RunCfg, GRID_WORKERS};
use ctbia_analyze::{analyze_grid, extract, interpret, lint, AnalyzeCell, AnalyzeEngine};
use ctbia_harness::{CellSpec, DiskCache};
use ctbia_machine::Machine;
use ctbia_verify::{taint_check, trace_equivalence, verify_grid, VerifyCell, VerifyEngine};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Reload rounds per pass: enough hits for `hit_p99_us` in one window.
const RELOAD_ROUNDS: usize = 3;

/// The seed family of the oracle: nine secrets, eight pairs, as in the
/// full `ctbia verify` grid.
fn secret_family(seed: u64) -> Vec<u64> {
    (0..9).map(|i| mix(seed, 0x5ec2_e700 + i)).collect()
}

fn reseeded(spec: &CellSpec, seed: u64) -> CellSpec {
    let mut spec = spec.clone();
    spec.workload = reseed(spec.workload, seed);
    spec
}

/// The two full grids with their inputs drawn from `seed`.
pub fn grids(seed: u64) -> (Vec<VerifyCell>, Vec<AnalyzeCell>) {
    let family = secret_family(seed);
    let input = mix(seed, 0xce27);
    let verify = verify_grid(false)
        .iter()
        .map(|c| VerifyCell::new(reseeded(&c.spec, input), family.clone()))
        .collect();
    let analyze = analyze_grid(false)
        .iter()
        .map(|c| AnalyzeCell::new(reseeded(&c.spec, input)))
        .collect();
    (verify, analyze)
}

/// Report texts of one cold pass, verify cells first.
type Texts = Vec<String>;

/// One cold pass over both grids into a fresh cache at `dir`, every
/// verdict checked. Returns the wall time and the report texts.
fn cold_pass(
    v: &[VerifyCell],
    a: &[AnalyzeCell],
    dir: &Path,
    threads: usize,
    check: &mut Check,
) -> Result<(f64, Texts), String> {
    let open = || DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()));
    let t = Instant::now();
    let verify = VerifyEngine::new()
        .with_threads(threads)
        .with_cache(open()?);
    let vr = verify.run(v)?;
    let analyze = AnalyzeEngine::new()
        .with_threads(threads)
        .with_cache(open()?);
    let ar = analyze.run(a)?;
    let wall = t.elapsed().as_secs_f64();
    let mut texts = Vec::with_capacity(v.len() + a.len());
    for (c, r) in v.iter().zip(&vr) {
        check.expect(r.passed(c.expects_leak()), || {
            format!("{}: wrong verdict", r.label)
        });
        texts.push(r.to_cache_text());
    }
    for (c, r) in a.iter().zip(&ar) {
        check.expect(r.passed(c.expects_leak()), || {
            format!("{}: wrong verdict", r.label)
        });
        texts.push(r.to_cache_text());
    }
    Ok((wall, texts))
}

/// Reloads every cell from the cache at `dir`, `RELOAD_ROUNDS` times,
/// returning each reload's latency in seconds.
fn reload(
    v: &[VerifyCell],
    a: &[AnalyzeCell],
    dir: &Path,
    texts: &[String],
    check: &mut Check,
) -> Result<Vec<f64>, String> {
    let open = || DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()));
    let verify = VerifyEngine::serial().with_cache(open()?);
    let analyze = AnalyzeEngine::serial().with_cache(open()?);
    let mut latencies = Vec::new();
    for _ in 0..RELOAD_ROUNDS {
        for (c, text) in v.iter().zip(texts) {
            let t = Instant::now();
            let r = verify.run_cell(c);
            latencies.push(t.elapsed().as_secs_f64());
            check.expect(r.is_ok_and(|r| r.to_cache_text() == *text), || {
                format!("{}: reload differs from the cold report", c.label())
            });
        }
        for (c, text) in a.iter().zip(&texts[v.len()..]) {
            let t = Instant::now();
            let r = analyze.run_cell(c);
            latencies.push(t.elapsed().as_secs_f64());
            check.expect(r.is_ok_and(|r| r.to_cache_text() == *text), || {
                format!("{}: reload differs from the cold report", c.label())
            });
        }
    }
    let executed = verify.cells_executed() + analyze.cells_executed();
    check.expect(executed == 0, || {
        format!("reload re-ran {executed} cell(s)")
    });
    Ok(latencies)
}

/// One traced pass through the engines, as the untraced pass runs them
/// (serial engines over a fresh cache at `dir`), with a `verify.cell` or
/// `analyze.cell` span around each cell inside one `certify.pass` span.
/// Returns the pass wall time; every verdict is checked.
fn traced_engine_pass(
    log: &SpanLog,
    v: &[VerifyCell],
    a: &[AnalyzeCell],
    dir: &Path,
    pass: u64,
    check: &mut Check,
) -> Result<f64, String> {
    let open = || DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()));
    let verify = VerifyEngine::serial().with_cache(open()?);
    let analyze = AnalyzeEngine::serial().with_cache(open()?);
    let (passed, wall) = log.span("certify.pass", pass, None, |pid| {
        let mut passed = Vec::with_capacity(v.len() + a.len());
        for (i, c) in v.iter().enumerate() {
            let (r, _) = log.span("verify.cell", pass << 32 | i as u64, Some(pid), |_| {
                verify.run_cell(c)
            });
            passed.push(r.map(|r| (r.passed(c.expects_leak()), r.label)));
        }
        for (i, c) in a.iter().enumerate() {
            let trace = pass << 32 | (v.len() + i) as u64;
            let (r, _) = log.span("analyze.cell", trace, Some(pid), |_| analyze.run_cell(c));
            passed.push(r.map(|r| (r.passed(c.expects_leak()), r.label)));
        }
        passed
    });
    for r in passed {
        let (ok, label) = r?;
        check.expect(ok, || format!("{label}: wrong verdict in a traced pass"));
    }
    Ok(wall)
}

/// One pass through the layers' public functions with a span around
/// each: `verify.taint` and `verify.oracle` per verify cell,
/// `analyze.extract`, `analyze.lint` and `analyze.absint` per analyze
/// cell. Returns the oracle's secret pairs and the extracted ops, summed;
/// the verdicts are checked on the engine passes.
fn layer_pass(log: &SpanLog, v: &[VerifyCell], a: &[AnalyzeCell]) -> Result<(u64, u64), String> {
    let mut pairs = 0;
    for (i, c) in v.iter().enumerate() {
        let trace = i as u64;
        let mut m =
            Machine::new(c.spec.machine_config()).map_err(|e| format!("{}: {e}", c.label()))?;
        log.span("verify.taint", trace, None, |_| {
            black_box(taint_check(
                &mut m,
                &c.spec.workload,
                c.spec.strategy.to_strategy(),
            ))
        });
        let (oracle, _) = log.span("verify.oracle", trace, None, |_| {
            trace_equivalence(&c.spec, &c.seeds)
        });
        pairs += oracle?.pairs;
    }
    let mut ops = 0;
    for (i, c) in a.iter().enumerate() {
        let trace = (v.len() + i) as u64;
        let config = c.spec.machine_config();
        let strategy = c.spec.strategy.to_strategy();
        let (program, _) = log.span("analyze.extract", trace, None, |_| {
            extract(&c.spec.workload)
        });
        log.span("analyze.lint", trace, None, |_| {
            black_box(lint(&program, &strategy, config.bia_granularity_log2()))
        });
        log.span("analyze.absint", trace, None, |_| {
            black_box(interpret(&program, &strategy, &config))
        });
        ops += program.ops.len() as u64;
    }
    Ok((pairs, ops))
}

/// Runs `certify` for one benchmark run.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (v, a) = grids(cfg.seed);
    let n = (v.len() + a.len()) as f64;
    let mut check = Check::default();

    // Set-up: the warm-up pass, repeated so its median is steady. The
    // first pass's texts are the reference every later pass must match.
    let mut setups = Vec::new();
    let mut reference: Option<Texts> = None;
    while !enough_setups(&setups) {
        let dir = cfg.scratch.fresh("setup");
        let t = Instant::now();
        let (_, texts) = cold_pass(&v, &a, &dir, GRID_WORKERS, &mut check)?;
        setups.push(t.elapsed().as_secs_f64());
        cfg.scratch.remove(&dir);
        match &reference {
            Some(r) => check.expect(*r == texts, || "cold passes disagree".into()),
            None => reference = Some(texts),
        }
    }
    let reference = reference.expect("at least one set-up");

    // The measurement window; a traced run alternates untraced and traced
    // passes through it (see `grid::run`).
    let log = SpanLog::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut hits = Vec::new();
    let mut traced = Vec::new();
    while walls.is_empty()
        || start.elapsed().as_secs_f64() < cfg.seconds
        || (!cfg.traced && hits.len() < crate::grid::MIN_HITS)
    {
        let dir = cfg.scratch.fresh("pass");
        let (wall, texts) = cold_pass(&v, &a, &dir, GRID_WORKERS, &mut check)?;
        check.expect(texts == reference, || {
            "a cold pass differs from the first".into()
        });
        walls.push(wall);
        hits.extend(reload(&v, &a, &dir, &reference, &mut check)?);
        cfg.scratch.remove(&dir);
        if cfg.traced {
            let dir = cfg.scratch.fresh("traced");
            let pass = traced.len() as u64;
            traced.push(traced_engine_pass(&log, &v, &a, &dir, pass, &mut check)?);
            cfg.scratch.remove(&dir);
        }
    }

    let mut m = Metrics::default();
    m.push_with("setup_s", median(&setups), "s", Some(setups.len()));
    m.push_with(
        "cells_per_s",
        rate(v.len() + a.len(), &walls),
        "1/s",
        Some(walls.len()),
    );
    m.push_pct("hit_p50_us", &hits, 50, 1e6, "us");
    m.push_pct("hit_p99_us", &hits, 99, 1e6, "us");
    m.push_round_mean("hit_mean_us", &hits, v.len() + a.len(), 1e6, "us");

    let specs: Vec<CellSpec> = v.iter().map(|c| c.spec.clone()).collect();
    let mut out = Outcome {
        schedule_digest: cells_digest(&specs),
        output_digest: texts_digest(&reference),
        cells: specs.clone(),
        ..Outcome::default()
    };
    if cfg.traced {
        m.push(
            "trace.overhead_frac",
            median(&traced) / median(&walls) - 1.0,
            "frac",
        );
        // The layer split: one more pass, through each layer's functions.
        let (pairs, ops) = layer_pass(&log, &v, &a)?;
        let spans = log.spans();
        let total_ms = |name: &str| durations(&spans, name).iter().sum::<f64>() * 1e3;
        m.push("verify.taint_ms", total_ms("verify.taint"), "ms");
        m.push("verify.oracle_ms", total_ms("verify.oracle"), "ms");
        m.push("verify.oracle_pairs", pairs as f64, "count");
        m.push("analyze.extract_ms", total_ms("analyze.extract"), "ms");
        m.push("analyze.lint_ms", total_ms("analyze.lint"), "ms");
        m.push("analyze.absint_ms", total_ms("analyze.absint"), "ms");
        m.push("analyze.ops", ops as f64, "count");
        m.push("harness.cells_executed", n, "count");
        m.push("harness.cache_hits", n * RELOAD_ROUNDS as f64, "count");
        m.push("harness.memo_hits", 0.0, "count");

        // The cells under verification, run once through the harness so
        // the shared machine, sim and core layers are measured on them.
        let dir = cfg.scratch.fresh("cells");
        let pass = traced_pass(&log, &specs, &dir, u64::from(u32::MAX), &mut check)?;
        cfg.scratch.remove(&dir);
        m.extend(crate::probes::pass_metrics(std::slice::from_ref(&pass)));
        let dir = cfg.scratch.fresh("probe");
        let (layers, replays) = cell_layers(&log, &specs, &pass, &dir, &mut check)?;
        cfg.scratch.remove(&dir);
        m.extend(layers);
        out.replays = replays;
        out.spans = log.spans();
    }
    out.metrics = m;
    out.check = check;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_grids() {
        let (v1, a1) = grids(5);
        let (v2, a2) = grids(5);
        assert_eq!(v1, v2);
        assert_eq!(a1, a2);
        let (v3, _) = grids(6);
        assert_ne!(v1, v3);
        assert_eq!(v1.len(), verify_grid(false).len());
        assert_eq!(a1.len(), analyze_grid(false).len());
    }
}
