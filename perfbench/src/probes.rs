//! Layer probes shared by every workload's traced run: the harness calls
//! around one traced grid pass, the machine's construction and counters,
//! the memo index, the digest, linearization, and the layer replay.

use crate::record::{Check, Metrics};
use crate::replay::{replay_cell, timed_median, CellReplay, RECONCILE_TOLERANCE};
use crate::span::{covered, durations, SpanLog};
use crate::stats::median;
use ctbia_core::ds::DataflowSet;
use ctbia_core::linearize::{ct_load_bia, ct_load_sw, BiaOptions, SwProfile};
use ctbia_core::Width;
use ctbia_harness::{execute_cell, CellReport, CellSpec, DiskCache, MemoIndex};
use ctbia_machine::{BiaPlacement, Machine, MachineConfig};
use ctbia_serve::DEFAULT_MEMO_SHARDS;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Work simulated by one cell, in events: retired instructions plus every
/// cache- and DRAM-level access (the `ctbia bench` definition).
pub fn sim_events(report: &CellReport) -> u64 {
    let c = &report.counters;
    c.insts
        + c.hier.l1i.accesses()
        + c.hier.l1d.accesses()
        + c.hier.l2.accesses()
        + c.hier.llc.accesses()
        + c.dram_accesses()
}

/// One grid pass run through the harness's public calls with a span
/// around each: `harness.digest`, `harness.execute_cell` and
/// `harness.disk_store` per cell, all inside one `harness.pass` span. Like
/// the timed untraced passes it runs on one worker (`GRID_WORKERS`).
#[derive(Debug, Clone)]
pub struct TracedPass {
    /// Pass wall time, seconds.
    pub wall: f64,
    /// Reports in grid order.
    pub reports: Vec<CellReport>,
    /// Per-cell `execute_cell` seconds, in grid order.
    pub exec_s: Vec<f64>,
    /// Pass wall time minus the interval covered by `execute_cell` calls.
    pub overhead_s: f64,
}

/// Runs `cells` once as a traced pass, storing into a fresh cache at
/// `dir`. `pass` numbers the pass; each cell's spans carry the trace id
/// `pass << 32 | index`.
///
/// # Errors
///
/// Returns the first cell's failure, or a cache that cannot open. Failed
/// stores are counted in `check`.
pub fn traced_pass(
    log: &SpanLog,
    cells: &[CellSpec],
    dir: &Path,
    pass: u64,
    check: &mut Check,
) -> Result<TracedPass, String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    let mut pass_id = 0;
    let (resolved, wall) = log.span("harness.pass", pass, None, |pid| {
        pass_id = pid;
        let mut resolved = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let trace = pass << 32 | i as u64;
            let (key, _) = log.span("harness.digest", trace, Some(pid), |_| cell.digest_hex());
            let (report, exec) = log.span("harness.execute_cell", trace, Some(pid), |_| {
                execute_cell(cell)
            });
            resolved.push(report.map(|r| {
                let (stored, _) = log.span("harness.disk_store", trace, Some(pid), |_| {
                    cache.store(&key, &r)
                });
                (r, exec, stored.is_ok())
            }));
        }
        resolved
    });
    let mut reports = Vec::with_capacity(cells.len());
    let mut exec_s = Vec::with_capacity(cells.len());
    for (cell, r) in cells.iter().zip(resolved) {
        let (report, exec, stored) = r?;
        check.expect(stored, || format!("{}: cache store failed", cell.label()));
        reports.push(report);
        exec_s.push(exec);
    }
    let spans = log.spans();
    let pass_span = spans
        .iter()
        .find(|s| s.id == pass_id)
        .expect("pass span recorded");
    let executing = spans
        .iter()
        .filter(|s| s.parent == Some(pass_id) && s.name == "harness.execute_cell")
        .map(|s| (s.start, s.end));
    let overhead_s = wall - covered(executing, pass_span.start, pass_span.end);
    Ok(TracedPass {
        wall,
        reports,
        exec_s,
        overhead_s,
    })
}

/// The harness metrics of a set of traced passes: median per-pass
/// `execute_cell` total and engine overhead.
pub fn pass_metrics(passes: &[TracedPass]) -> Metrics {
    let mut m = Metrics::default();
    let exec: Vec<f64> = passes.iter().map(|p| p.exec_s.iter().sum()).collect();
    let overhead: Vec<f64> = passes.iter().map(|p| p.overhead_s).collect();
    m.push_with(
        "harness.execute_cell_s",
        median(&exec),
        "s",
        Some(exec.len()),
    );
    m.push_with(
        "harness.engine_overhead_s",
        median(&overhead),
        "s",
        Some(overhead.len()),
    );
    m
}

/// Store and load samples for the `DiskCache` percentiles, taken on the
/// workload's own reports so every workload has enough of them: each
/// report is stored under a fresh key and loaded back, round-robin,
/// until `samples` of each are in hand. Loads are checked byte for byte.
pub fn disk_probe(
    log: &SpanLog,
    reports: &[CellReport],
    dir: &Path,
    samples: usize,
    check: &mut Check,
) -> Result<Metrics, String> {
    let cache = DiskCache::open(dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    for k in 0..samples {
        let report = &reports[k % reports.len()];
        let key = format!("{:032x}", 0xbe4c_0000_0000_u128 + k as u128);
        let (stored, _) = log.span("harness.disk_store", k as u64, None, |_| {
            cache.store(&key, report)
        });
        check.expect(stored.is_ok(), || format!("probe store {key} failed"));
        let (loaded, _) = log.span("harness.disk_load", k as u64, None, |_| cache.load(&key));
        check.expect(
            loaded.is_some_and(|l| l.to_cache_text() == report.to_cache_text()),
            || format!("probe reload {key} differs from the stored report"),
        );
    }
    let spans = log.spans();
    let mut m = Metrics::default();
    let stores: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "harness.disk_store" && s.parent.is_none())
        .map(|s| s.duration())
        .collect();
    m.push_pct("harness.disk_store_us_p50", &stores, 50, 1e6, "us");
    m.push_pct("harness.disk_store_us_p99", &stores, 99, 1e6, "us");
    m.push_pct(
        "harness.disk_load_us_p50",
        &durations(&spans, "harness.disk_load"),
        50,
        1e6,
        "us",
    );
    Ok(m)
}

/// Nanoseconds per call of `f`, as the median over `batches` batches of
/// `per_batch` calls (batching keeps clock overhead out of sub-µs calls).
pub fn batched_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..batches)
        .map(|b| {
            let t = Instant::now();
            for i in 0..per_batch {
                f(b * per_batch + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / per_batch as f64
        })
        .collect()
}

/// `CellSpec::digest` and `MemoIndex::lookup` per call on the workload's
/// own cells, the two harness steps of a memo hit.
pub fn memo_probe(cells: &[CellSpec], reports: &[CellReport]) -> Metrics {
    let mut m = Metrics::default();
    let digest = batched_ns(200, 100, |i| {
        black_box(black_box(&cells[i % cells.len()]).digest());
    });
    m.push_pct("harness.digest_ns_p50", &digest, 50, 1.0, "ns");
    let index = MemoIndex::new(DEFAULT_MEMO_SHARDS);
    let digests: Vec<u128> = cells.iter().map(CellSpec::digest).collect();
    for (d, r) in digests.iter().zip(reports) {
        index.insert(*d, r.clone());
    }
    let lookup = batched_ns(200, 100, |i| {
        black_box(index.lookup(black_box(digests[i % digests.len()])));
    });
    m.push_pct("harness.memo_lookup_ns_p50", &lookup, 50, 1.0, "ns");
    m
}

/// `Machine::new` and `Machine::reset` per distinct machine
/// configuration of `cells`, in µs (medians over configurations of
/// per-configuration medians). Reset is timed on an as-built machine.
pub fn machine_probe(cells: &[CellSpec]) -> Result<Metrics, String> {
    let mut configs: Vec<(String, MachineConfig)> = Vec::new();
    for c in cells {
        let cfg = c.machine_config();
        let key = format!("{cfg:?}");
        if !configs.iter().any(|(k, _)| *k == key) {
            configs.push((key, cfg));
        }
    }
    let mut new_us = Vec::new();
    let mut reset_us = Vec::new();
    for (_, cfg) in &configs {
        let mut built = Vec::new();
        let mut failure = None;
        new_us.push(
            timed_median(
                0.01,
                9,
                || (),
                |()| match Machine::new(cfg.clone()) {
                    Ok(m) => built.push(m),
                    Err(e) => failure = Some(e.to_string()),
                },
            ) * 1e6,
        );
        if let Some(e) = failure {
            return Err(e);
        }
        let mut m = built.pop().expect("machine built");
        drop(built);
        reset_us.push(timed_median(0.01, 9, || (), |()| m.reset()) * 1e6);
    }
    let mut m = Metrics::default();
    m.push_with("machine.new_us", median(&new_us), "us", Some(new_us.len()));
    m.push_with(
        "machine.reset_us",
        median(&reset_us),
        "us",
        Some(reset_us.len()),
    );
    Ok(m)
}

/// Exact simulated counts summed over one pass of the workload's cells,
/// and host ns per simulated event from the same pass's `execute_cell`
/// times.
pub fn counter_metrics(reports: &[CellReport], exec_s: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    let sum = |f: &dyn Fn(&CellReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let events = sum(&sim_events);
    m.push(
        "machine.ns_per_sim_event",
        exec_s.iter().sum::<f64>() * 1e9 / events.max(1.0),
        "ns",
    );
    m.push("machine.sim_events", events, "count");
    m.push("machine.cycles", sum(&|r| r.counters.cycles), "count");
    m.push("machine.insts", sum(&|r| r.counters.insts), "count");
    m.push("machine.ct_loads", sum(&|r| r.counters.ct_loads), "count");
    m.push("machine.ct_stores", sum(&|r| r.counters.ct_stores), "count");
    m.push(
        "machine.lines_swept",
        sum(&|r| r.counters.linearize.lines_fetched),
        "count",
    );
    type Field = fn(&CellReport) -> u64;
    let phases: [(&str, Field); 7] = [
        ("machine.phase.compute", |r| r.counters.phases.compute),
        ("machine.phase.demand_access", |r| {
            r.counters.phases.demand_access
        }),
        ("machine.phase.linearize_sweep", |r| {
            r.counters.phases.linearize_sweep
        }),
        ("machine.phase.bia_maintenance", |r| {
            r.counters.phases.bia_maintenance
        }),
        ("machine.phase.dram_stall", |r| r.counters.phases.dram_stall),
        ("machine.phase.degraded", |r| r.counters.phases.degraded),
        ("machine.phase.speculative", |r| {
            r.counters.phases.speculative
        }),
    ];
    for (name, f) in phases {
        m.push(name, sum(&f), "count");
    }
    m.push(
        "core.bia_resyncs",
        sum(&|r| r.counters.robust.resyncs),
        "count",
    );
    m.push(
        "core.degrades",
        sum(&|r| r.counters.robust.downgrades),
        "count",
    );
    m
}

/// Host ns per dataflow-set line of a software (Constantine-style) and a
/// BIA-assisted linearized load over a 256-line set that fits the L1d.
pub fn linearize_probe() -> Result<Metrics, String> {
    const LINES: u64 = 256;
    const CALLS: u64 = 64;
    let mut m = Metrics::default();
    for (name, placement) in [
        ("core.linearize_ns_per_line", None),
        ("core.linearize_bia_ns_per_line", Some(BiaPlacement::L1d)),
    ] {
        let cfg = match placement {
            Some(p) => MachineConfig::with_bia(p),
            None => MachineConfig::insecure(),
        };
        let mut machine = Machine::new(cfg).map_err(|e| e.to_string())?;
        let base = machine
            .alloc_u32_array(LINES * 16)
            .map_err(|e| e.to_string())?;
        let ds = DataflowSet::contiguous(base, LINES * 64);
        let secs = timed_median(
            0.02,
            15,
            || (),
            |()| {
                for k in 0..CALLS {
                    let addr = base.offset(((k * 68) % (LINES * 64)) & !3);
                    black_box(match placement {
                        Some(_) => {
                            ct_load_bia(&mut machine, &ds, addr, Width::U32, BiaOptions::default())
                        }
                        None => ct_load_sw(&mut machine, &ds, addr, Width::U32, SwProfile::avx2()),
                    });
                }
            },
        );
        m.push(name, secs * 1e9 / (CALLS * LINES) as f64, "ns");
    }
    Ok(m)
}

/// Replays one BIA cell per distinct workload of `cells` through each
/// layer and aggregates the results, access-weighted.
pub fn replay_probe(cells: &[CellSpec]) -> Result<(Metrics, Vec<CellReplay>), String> {
    let mut seen = Vec::new();
    let mut replays = Vec::new();
    for c in cells.iter().filter(|c| c.strategy.needs_bia()) {
        if seen.contains(&c.workload) {
            continue;
        }
        seen.push(c.workload);
        replays.push(replay_cell(c)?);
    }
    let mut m = Metrics::default();
    let total: f64 = replays.iter().map(|r| r.times.accesses as f64).sum();
    let weighted = |f: &dyn Fn(&CellReplay) -> f64| {
        replays
            .iter()
            .map(|r| f(r) * r.times.accesses as f64)
            .sum::<f64>()
            / total.max(1.0)
    };
    let n = Some(replays.len());
    m.push_with(
        "sim.cache_ns_per_access",
        weighted(&|r| r.times.cache),
        "ns",
        n,
    );
    m.push_with(
        "sim.hierarchy_ns_per_access",
        weighted(&|r| r.breakdown.hierarchy),
        "ns",
        n,
    );
    m.push_with(
        "core.bia_monitor_ns_per_access",
        weighted(&|r| r.breakdown.bia_monitor),
        "ns",
        n,
    );
    m.push_with(
        "machine.residual_ns_per_access",
        weighted(&|r| r.breakdown.residual),
        "ns",
        n,
    );
    m.push_with(
        "replay.cell_ns_per_access",
        weighted(&|r| r.times.cell),
        "ns",
        n,
    );
    m.push("replay.accesses", total, "count");
    let count = |f: &dyn Fn(&CellReplay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    m.push("sim.l1d_misses", count(&|r| r.counts.l1d_misses), "count");
    m.push("sim.l2_misses", count(&|r| r.counts.l2_misses), "count");
    m.push("sim.llc_misses", count(&|r| r.counts.llc_misses), "count");
    m.push(
        "sim.dram_accesses",
        count(&|r| r.counts.dram_accesses),
        "count",
    );
    m.push_with(
        "replay.reconcile_err",
        weighted(&|r| r.breakdown.err),
        "frac",
        n,
    );
    let worst = replays.iter().map(|r| r.breakdown.err).fold(0.0, f64::max);
    m.push("replay.reconcile_err_max", worst, "frac");
    m.push("replay.tolerance", RECONCILE_TOLERANCE, "frac");
    m.push(
        "replay.reconciled",
        replays
            .iter()
            .filter(|r| r.breakdown.err <= RECONCILE_TOLERANCE)
            .count() as f64,
        "count",
    );
    Ok((m, replays))
}

/// Every shared layer probe over a workload's cell set, given one traced
/// pass of it.
pub fn cell_layers(
    log: &SpanLog,
    cells: &[CellSpec],
    pass: &TracedPass,
    dir: &Path,
    check: &mut Check,
) -> Result<(Metrics, Vec<CellReplay>), String> {
    let mut m = counter_metrics(&pass.reports, &pass.exec_s);
    m.extend(disk_probe(log, &pass.reports, dir, 1100, check)?);
    m.extend(memo_probe(cells, &pass.reports));
    m.extend(machine_probe(cells)?);
    m.extend(linearize_probe()?);
    let (replay, replays) = replay_probe(cells)?;
    m.extend(replay);
    Ok((m, replays))
}
