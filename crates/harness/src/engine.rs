//! The sweep engine: a deterministic worker pool over experiment cells.
//!
//! [`SweepEngine::run`] takes a grid of [`CellSpec`]s and returns one
//! [`CellReport`] per cell, **in grid order**. Workers claim cells from a
//! shared atomic index and write results into the cell's own output slot,
//! so the merged output never depends on completion order; combined with
//! cells owning their seeds, a parallel sweep is byte-identical to a serial
//! one. An optional [`DiskCache`] memoizes completed cells across runs and
//! across binaries.

use crate::cache::DiskCache;
use crate::memo::{MemoFill, MemoIndex, MemoProvenance};
use crate::report::CellReport;
use crate::spec::CellSpec;
use ctbia_machine::Machine;
use ctbia_trace::TraceSink;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Most machine configurations a pool thread will keep warm at once.
///
/// Machines beyond this are simply dropped after their cell instead of
/// pooled, bounding per-thread memory for long-lived callers (the serve
/// daemon) that see arbitrarily many distinct configurations. A sweep grid
/// uses only a handful of configurations, so the cap is never hit there.
const MACHINE_POOL_CAP: usize = 8;

thread_local! {
    /// Per-worker machines kept warm between cells, keyed by their debug-
    /// formatted configuration. `Machine::reset` restores as-built state,
    /// so a pooled machine is observationally identical to a fresh one
    /// while keeping its large allocations (cache arrays, RAM backing).
    static MACHINE_POOL: RefCell<HashMap<String, Machine>> = RefCell::new(HashMap::new());
}

/// Executes one cell from scratch — a pure function of the spec.
///
/// Plain cells (no audit, no fault injection) run on a pooled per-thread
/// machine when one exists for the same configuration; the pooled-reuse
/// engine test pins down that this is invisible in the report.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid (e.g.
/// an LLC placement on a sliced hierarchy the BIA granularity cannot
/// serve).
pub fn execute_cell(spec: &CellSpec) -> Result<CellReport, String> {
    let label = spec.label();
    let config = spec.machine_config();
    let poolable = !spec.audit && spec.faults.is_none();
    let key = poolable.then(|| format!("{config:?}"));
    let pooled = key
        .as_ref()
        .and_then(|k| MACHINE_POOL.with(|p| p.borrow_mut().remove(k)));
    let mut m = match pooled {
        Some(mut m) => {
            m.reset();
            m
        }
        None => Machine::new(config).map_err(|e| format!("{label}: {e}"))?,
    };
    if spec.audit {
        m.enable_audit().map_err(|e| format!("{label}: {e}"))?;
    }
    if let Some(f) = &spec.faults {
        m.set_fault_injector(Some(f.to_config()))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    let wl = spec.workload.build();
    let run = wl.run(&mut m, spec.strategy.to_strategy());
    if let Some(k) = key {
        MACHINE_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MACHINE_POOL_CAP || pool.contains_key(&k) {
                pool.insert(k, m);
            }
        });
    }
    Ok(CellReport {
        label,
        digest: run.digest,
        counters: run.counters,
    })
}

/// Executes one cell with a trace sink attached, returning both the report
/// and the sink (fed every event the cell emitted).
///
/// The report is identical to [`execute_cell`]'s for the same spec — the
/// sink observes the simulation without perturbing it — which the
/// observational-inertness suite asserts byte-for-byte.
///
/// # Errors
///
/// Same conditions as [`execute_cell`].
///
/// # Panics
///
/// Never in practice: the sink handed to the machine is always recovered
/// and downcast back to `S`.
pub fn execute_cell_traced<S: TraceSink + 'static>(
    spec: &CellSpec,
    sink: S,
) -> Result<(CellReport, S), String> {
    let label = spec.label();
    let mut m = Machine::new(spec.machine_config()).map_err(|e| format!("{label}: {e}"))?;
    if spec.audit {
        m.enable_audit().map_err(|e| format!("{label}: {e}"))?;
    }
    if let Some(f) = &spec.faults {
        m.set_fault_injector(Some(f.to_config()))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    m.set_trace_sink(Box::new(sink));
    let wl = spec.workload.build();
    let run = wl.run(&mut m, spec.strategy.to_strategy());
    let sink = m
        .take_trace_sink()
        .expect("machine returns the sink it was given")
        .into_any()
        .downcast::<S>()
        .expect("sink type is preserved");
    Ok((
        CellReport {
            label,
            digest: run.digest,
            counters: run.counters,
        },
        *sink,
    ))
}

/// The result of resolving one cell, with its provenance: whether the
/// report was served from the memo cache or freshly simulated.
///
/// Long-running callers (the `ctbia-serve` daemon, `ctbia submit`) surface
/// the flag to their clients; batch callers that only want the report can
/// keep using [`SweepEngine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome {
    /// The cell's report — identical whether cached or simulated.
    pub report: CellReport,
    /// `true` when the report came from the memo cache without simulating.
    pub cached: bool,
}

/// A worker pool plus optional memo cache for running cell grids.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    cache: Option<DiskCache>,
    memo: Option<Arc<MemoIndex>>,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    memo_hits: AtomicU64,
    store_failures: AtomicU64,
}

impl SweepEngine {
    /// An engine sized from [`std::thread::available_parallelism`], with no
    /// cache.
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        SweepEngine {
            threads,
            cache: None,
            memo: None,
            executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
        }
    }

    /// A single-threaded engine with no cache — the reference ordering the
    /// parallel pool must reproduce byte-for-byte.
    pub fn serial() -> Self {
        SweepEngine::new().with_threads(1)
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a memo cache: completed cells are stored, and matching
    /// cells are served from disk without touching the simulator.
    #[must_use]
    pub fn with_cache(mut self, cache: DiskCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a sharded in-memory [`MemoIndex`]: warm lookups are served
    /// from memory (sharded locks) before touching the disk cache, and the
    /// index's per-digest claims make concurrent identical cells execute
    /// exactly once even without a serving front end's coalescing map.
    ///
    /// Only durable results (disk store succeeded, or no cache attached)
    /// are indexed, so a failed store still costs exactly one future
    /// re-simulation.
    #[must_use]
    pub fn with_memo_index(mut self, memo: Arc<MemoIndex>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&DiskCache> {
        self.cache.as_ref()
    }

    /// Cells this engine actually simulated (cache hits excluded).
    pub fn cells_executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Cells this engine served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cells served from the in-memory memo index without touching disk.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// The attached memo index, if any.
    pub fn memo_index(&self) -> Option<&Arc<MemoIndex>> {
        self.memo.as_ref()
    }

    /// Memo-cache stores that failed. Each failure costs a future
    /// re-simulation, never correctness, but a serving front end surfaces
    /// the count so a sick disk is visible instead of silent.
    pub fn cache_store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Runs one cell: cache lookup, then simulation on a miss, then a
    /// best-effort store (a failed store costs a future re-simulation, not
    /// correctness).
    ///
    /// # Errors
    ///
    /// Propagates [`execute_cell`] errors.
    pub fn run_cell(&self, spec: &CellSpec) -> Result<CellReport, String> {
        self.run_cell_outcome(spec).map(|o| o.report)
    }

    /// Like [`SweepEngine::run_cell`], but also reports whether the cell was
    /// served from the memo cache — the provenance a serving front end
    /// forwards to its clients.
    ///
    /// # Errors
    ///
    /// Propagates [`execute_cell`] errors.
    pub fn run_cell_outcome(&self, spec: &CellSpec) -> Result<CellOutcome, String> {
        if let Some(memo) = &self.memo {
            let digest = spec.digest();
            let (report, provenance) =
                memo.get_or_execute(digest, || self.fill_from_disk_or_simulate(spec, digest))?;
            match provenance {
                MemoProvenance::Memory => self.memo_hits.fetch_add(1, Ordering::Relaxed),
                MemoProvenance::Disk => self.cache_hits.fetch_add(1, Ordering::Relaxed),
                MemoProvenance::Simulated => self.executed.fetch_add(1, Ordering::Relaxed),
            };
            return Ok(CellOutcome {
                report,
                cached: provenance != MemoProvenance::Simulated,
            });
        }
        let key = spec.digest_hex();
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.load(&key) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(CellOutcome {
                    report: hit,
                    cached: true,
                });
            }
        }
        let report = execute_cell(spec)?;
        self.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            if cache.store(&key, &report).is_err() {
                self.store_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(CellOutcome {
            report,
            cached: false,
        })
    }

    /// The executor closure behind the memo index: disk lookup, then
    /// simulation, then a best-effort store whose outcome decides whether
    /// the result is durable enough to index. `digest` is `spec.digest()`,
    /// hashed once by the caller for both the index and the disk key.
    fn fill_from_disk_or_simulate(
        &self,
        spec: &CellSpec,
        digest: u128,
    ) -> Result<MemoFill, String> {
        let key = format!("{digest:032x}");
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.load(&key) {
                return Ok(MemoFill {
                    report: hit,
                    from_disk: true,
                    durable: true,
                });
            }
        }
        let report = execute_cell(spec)?;
        let durable = match &self.cache {
            Some(cache) => {
                let stored = cache.store(&key, &report).is_ok();
                if !stored {
                    self.store_failures.fetch_add(1, Ordering::Relaxed);
                }
                stored
            }
            // No disk behind the index: memory is the only memo there is.
            None => true,
        };
        Ok(MemoFill {
            report,
            from_disk: false,
            durable,
        })
    }

    /// Runs every cell of `cells`, returning reports **ordered by grid
    /// index** regardless of worker scheduling.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell; the sweep does
    /// not short-circuit cells already claimed by other workers.
    pub fn run(&self, cells: &[CellSpec]) -> Result<Vec<CellReport>, String> {
        self.run_batch(cells)
            .into_iter()
            .map(|r| r.map(|o| o.report))
            .collect()
    }

    /// The batch-submit API: runs every cell of `cells` on the pool and
    /// returns one result **per cell**, ordered by grid index, without
    /// short-circuiting on failures. A serving front end uses this to
    /// answer each request in a batch independently — one infeasible cell
    /// yields one typed error, not a failed batch.
    pub fn run_batch(&self, cells: &[CellSpec]) -> Vec<Result<CellOutcome, String>> {
        let n = cells.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return cells
                .iter()
                .map(|spec| self.run_cell_outcome(spec))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Result<CellOutcome, String>>>> =
            Mutex::new((0..n).map(|_| None).collect());
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = self.run_cell_outcome(&cells[i]);
                    slots.lock().unwrap()[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|slot| slot.expect("worker pool covered every cell"))
            .collect()
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StrategySpec, WorkloadSpec};
    use ctbia_machine::BiaPlacement;

    fn cell(strategy: StrategySpec) -> CellSpec {
        CellSpec::new(
            WorkloadSpec::named("hist", 200).unwrap(),
            strategy,
            BiaPlacement::L1d,
        )
    }

    #[test]
    fn execute_cell_matches_direct_simulation() {
        let report = execute_cell(&cell(StrategySpec::Insecure)).unwrap();
        let wl = ctbia_workloads::Histogram::new(200);
        let run = ctbia_workloads::Workload::run(
            &wl,
            &mut Machine::insecure(),
            ctbia_workloads::Strategy::Insecure,
        );
        assert_eq!(report.digest, run.digest);
        assert_eq!(report.counters, run.counters);
        assert_eq!(report.label, "hist_200/insecure");
    }

    #[test]
    fn strategies_agree_on_output_through_the_engine() {
        let engine = SweepEngine::serial();
        let grid = [
            cell(StrategySpec::Insecure),
            cell(StrategySpec::CtAvx2),
            cell(StrategySpec::Bia),
        ];
        let reports = engine.run(&grid).unwrap();
        assert_eq!(reports[0].digest, reports[1].digest);
        assert_eq!(reports[0].digest, reports[2].digest);
        assert_eq!(engine.cells_executed(), 3);
        assert_eq!(engine.cache_hits(), 0);
    }

    #[test]
    fn traced_execution_is_observationally_inert() {
        let spec = cell(StrategySpec::Bia);
        let plain = execute_cell(&spec).unwrap();
        let (traced, sink) = execute_cell_traced(&spec, ctbia_trace::MetricsSink::new()).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(plain.to_cache_text(), traced.to_cache_text());
        assert!(sink.events > 0, "the sink saw the cell's events");
        // Phase attribution partitions the cycle count exactly.
        assert_eq!(traced.counters.phases.total(), traced.counters.cycles);
    }

    #[test]
    fn pooled_machine_reuse_is_byte_identical() {
        let engine = SweepEngine::serial();
        let grid = [
            cell(StrategySpec::Insecure),
            cell(StrategySpec::CtAvx2),
            cell(StrategySpec::Bia),
        ];
        // Two consecutive serial runs: the second is served entirely by
        // pooled machines (same thread, same configurations) and must match
        // the first in every report field, including the cache text.
        let first = engine.run(&grid).unwrap();
        let second = engine.run(&grid).unwrap();
        assert_eq!(first, second);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_cache_text(), b.to_cache_text());
        }
    }

    #[test]
    fn run_cell_outcome_reports_cache_provenance() {
        let dir = std::env::temp_dir().join(format!("ctbia-engine-outcome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::DiskCache::open(&dir).unwrap();
        let engine = SweepEngine::serial().with_cache(cache);
        let spec = cell(StrategySpec::Bia);
        let first = engine.run_cell_outcome(&spec).unwrap();
        assert!(!first.cached, "cold cache simulates");
        let second = engine.run_cell_outcome(&spec).unwrap();
        assert!(second.cached, "warm cache memo-hits");
        assert_eq!(first.report, second.report);
        assert_eq!(engine.cells_executed(), 1);
        assert_eq!(engine.cache_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_batch_does_not_short_circuit_on_failures() {
        let mut bad = cell(StrategySpec::Bia);
        bad.placement = BiaPlacement::Llc;
        bad.config.hierarchy = ctbia_sim::config::HierarchyConfig::sliced_llc(8, 6);
        let grid = [cell(StrategySpec::Insecure), bad, cell(StrategySpec::Bia)];
        let results = SweepEngine::serial().run_batch(&grid);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err(), "infeasible cell fails alone");
        assert!(results[2].is_ok(), "later cells still run");
        // Batch results agree with the plain grid runner cell-for-cell.
        let solo = execute_cell(&grid[2]).unwrap();
        assert_eq!(results[2].as_ref().unwrap().report, solo);
    }

    #[test]
    fn infeasible_cells_report_errors() {
        // LLC placement on an 8-slice hierarchy with page-granularity BIA
        // (M = 12 > LS_Hash = 6) is rejected by the machine; the engine must
        // surface that instead of panicking the pool.
        let mut spec = cell(StrategySpec::Bia);
        spec.placement = BiaPlacement::Llc;
        spec.config.hierarchy = ctbia_sim::config::HierarchyConfig::sliced_llc(8, 6);
        let err = SweepEngine::serial()
            .run(std::slice::from_ref(&spec))
            .unwrap_err();
        assert!(err.contains("hist_200"), "error names the cell: {err}");
    }
}
