//! The grid engine: one deterministic worker pool for every cell kind.
//!
//! [`GridEngine::run`] takes a grid of [`GridCell`]s and returns one
//! report per cell, **in grid order**. Workers claim cells from a shared
//! atomic index and write results into the cell's own output slot, so the
//! merged output never depends on completion order; combined with cells
//! owning their seeds, a parallel run is byte-identical to a serial one.
//! An optional [`DiskCache`] memoizes completed cells across runs and
//! across binaries, and an optional [`MemoIndex`] serves warm cells from
//! memory. [`SweepEngine`] is the engine over simulation cells
//! ([`CellSpec`] → [`CellReport`], executed by [`execute_cell`]); the
//! verify and analyze crates alias it over their own cells.

use crate::cache::DiskCache;
use crate::memo::MemoIndex;
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
/// Every cell runs on a pooled per-thread machine when one exists for the
/// same configuration; the pooled-reuse engine test pins down that this
/// is invisible in the report.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid (e.g.
/// an LLC placement on a sliced hierarchy the BIA granularity cannot
/// serve).
pub fn execute_cell(spec: &CellSpec) -> Result<CellReport, String> {
    let label = spec.label();
    let config = spec.machine_config();
    let key = format!("{config:?}");
    let pooled = MACHINE_POOL.with(|p| p.borrow_mut().remove(&key));
    let mut m = match pooled {
        Some(mut m) => {
            m.reset();
            m
        }
        None => Machine::new(config).map_err(|e| format!("{label}: {e}"))?,
    };
    let wl = spec.workload.build();
    let run = wl.run(&mut m, spec.strategy.to_strategy());
    MACHINE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MACHINE_POOL_CAP || pool.contains_key(&key) {
            pool.insert(key, m);
        }
    });
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

/// One kind of grid cell: a content digest that keys both memo layers,
/// an executor, and the report's versioned cache text.
///
/// Simulation cells ([`CellSpec`]), verification cells and analysis
/// cells each implement it once; [`GridEngine`] is the one pool that
/// runs any of them.
pub trait GridCell: Sync {
    /// What executing the cell produces.
    type Report: Clone + Send;

    /// The cell's 128-bit content digest. Its 32-digit hex form is the
    /// disk cache key, so it must cover every input the report depends
    /// on, and cell kinds sharing one cache must not collide.
    fn digest(&self) -> u128;

    /// Computes the report from scratch — a pure function of the cell.
    ///
    /// # Errors
    ///
    /// Returns a message naming the cell when it cannot run.
    fn execute(&self) -> Result<Self::Report, String>;

    /// Encodes a report as the cache text stored under the digest.
    fn to_cache_text(report: &Self::Report) -> String;

    /// Decodes a cache text; `None` (a miss) on any anomaly.
    fn from_cache_text(text: &str) -> Option<Self::Report>;
}

impl GridCell for CellSpec {
    type Report = CellReport;

    fn digest(&self) -> u128 {
        CellSpec::digest(self)
    }

    fn execute(&self) -> Result<CellReport, String> {
        execute_cell(self)
    }

    fn to_cache_text(report: &CellReport) -> String {
        report.to_cache_text()
    }

    fn from_cache_text(text: &str) -> Option<CellReport> {
        CellReport::from_cache_text(text)
    }
}

/// The result of resolving one cell, with its provenance: whether the
/// report was served from a memo layer or freshly executed.
///
/// Long-running callers (the `ctbia-serve` daemon, `ctbia submit`) surface
/// the flag to their clients; batch callers that only want the report can
/// keep using [`GridEngine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellOutcome<R = CellReport> {
    /// The cell's report — identical whether cached or executed.
    pub report: R,
    /// `true` when the report came from a memo layer without executing.
    pub cached: bool,
}

/// A worker pool plus optional memo layers for running grids of any
/// [`GridCell`] kind.
#[derive(Debug)]
pub struct GridEngine<C: GridCell> {
    threads: usize,
    cache: Option<DiskCache>,
    memo: Option<Arc<MemoIndex<C::Report>>>,
    executed: AtomicU64,
    cache_hits: AtomicU64,
    memo_hits: AtomicU64,
    store_failures: AtomicU64,
}

/// The simulation grid engine.
pub type SweepEngine = GridEngine<CellSpec>;

impl<C: GridCell> GridEngine<C> {
    /// An engine sized from [`std::thread::available_parallelism`], with no
    /// cache.
    pub fn new() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        GridEngine {
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
        GridEngine::new().with_threads(1)
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a memo cache: completed cells are stored, and matching
    /// cells are served from disk without executing.
    #[must_use]
    pub fn with_cache(mut self, cache: DiskCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a sharded in-memory [`MemoIndex`]: warm lookups are served
    /// from memory (sharded locks) before touching the disk cache. The
    /// index only remembers; it does not coalesce concurrent identical
    /// cells — the serve daemon, its one user, does that in its in-flight
    /// map.
    ///
    /// Only durable results (disk store succeeded, or no cache attached)
    /// are indexed, so a failed store still costs exactly one future
    /// re-execution.
    #[must_use]
    pub fn with_memo_index(mut self, memo: Arc<MemoIndex<C::Report>>) -> Self {
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

    /// Cells this engine actually executed (memo hits excluded).
    pub fn cells_executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Cells this engine served from the disk cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Cells served from the in-memory memo index without touching disk.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Memo-cache stores that failed. Each failure costs a future
    /// re-execution, never correctness, but a serving front end surfaces
    /// the count so a sick disk is visible instead of silent.
    pub fn cache_store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }

    /// Answers a cell from the in-memory memo index alone, counting a
    /// memo hit: no disk read, no execution. `None`
    /// when no index is attached or `digest` (the cell's
    /// [`GridCell::digest`]) is not indexed; resolve those through
    /// [`GridEngine::run_cell_outcome`].
    pub fn memo_hit(&self, digest: u128) -> Option<C::Report> {
        let report = self.memo.as_ref()?.lookup(digest)?;
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Runs one cell: memo lookup, then execution on a miss, then a
    /// best-effort store (a failed store costs a future re-execution, not
    /// correctness).
    ///
    /// # Errors
    ///
    /// Propagates [`GridCell::execute`] errors.
    pub fn run_cell(&self, cell: &C) -> Result<C::Report, String> {
        self.run_cell_outcome(cell).map(|o| o.report)
    }

    /// Like [`GridEngine::run_cell`], but also reports whether the cell was
    /// served from a memo layer — the provenance a serving front end
    /// forwards to its clients.
    ///
    /// The memo index is consulted first; on a miss the cell is filled
    /// from disk or executed, and indexed only when the result is durable.
    /// The index admits no claims: two concurrent calls for one missing
    /// digest both execute, so a caller that needs exactly-once execution
    /// (the serve daemon's coalescing map) admits one call per digest.
    ///
    /// # Errors
    ///
    /// Propagates [`GridCell::execute`] errors.
    pub fn run_cell_outcome(&self, cell: &C) -> Result<CellOutcome<C::Report>, String> {
        let digest = cell.digest();
        if let Some(report) = self.memo_hit(digest) {
            return Ok(CellOutcome {
                report,
                cached: true,
            });
        }
        let (outcome, durable) = self.fill(cell, digest)?;
        if let (Some(memo), true) = (&self.memo, durable) {
            memo.insert(digest, outcome.report.clone());
        }
        Ok(outcome)
    }

    /// Resolves a cell below the memo index: disk lookup, then execution,
    /// then a best-effort store. Returns the outcome and whether it is
    /// durable (loaded from disk, stored to it, or no disk attached), which
    /// decides whether the index may hold it. `digest` is `cell.digest()`,
    /// hashed once by the caller for both the index and the disk key.
    fn fill(&self, cell: &C, digest: u128) -> Result<(CellOutcome<C::Report>, bool), String> {
        let key = format!("{digest:032x}");
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache
                .load_text(&key)
                .as_deref()
                .and_then(C::from_cache_text)
            {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let outcome = CellOutcome {
                    report: hit,
                    cached: true,
                };
                return Ok((outcome, true));
            }
        }
        let report = cell.execute()?;
        self.executed.fetch_add(1, Ordering::Relaxed);
        let durable = match &self.cache {
            Some(cache) => {
                let stored = cache.store_text(&key, &C::to_cache_text(&report)).is_ok();
                if !stored {
                    self.store_failures.fetch_add(1, Ordering::Relaxed);
                }
                stored
            }
            // No disk behind the index: memory is the only memo there is.
            None => true,
        };
        let outcome = CellOutcome {
            report,
            cached: false,
        };
        Ok((outcome, durable))
    }

    /// Runs every cell of `cells`, returning reports **ordered by grid
    /// index** regardless of worker scheduling.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing cell; the run does
    /// not short-circuit, so every other cell still executes.
    pub fn run(&self, cells: &[C]) -> Result<Vec<C::Report>, String> {
        self.run_all(cells).into_iter().collect()
    }

    /// Runs every cell on the pool and returns one result per cell, in
    /// grid order. Workers claim cells from a shared atomic index and
    /// write into the cell's own slot, so the output never depends on
    /// completion order.
    fn run_all(&self, cells: &[C]) -> Vec<Result<C::Report, String>> {
        let n = cells.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            return cells.iter().map(|cell| self.run_cell(cell)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..n).map(|_| None).collect::<Vec<_>>());
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = self.run_cell(&cells[i]);
                    // A worker only panics inside `run_cell`, never while
                    // holding this lock, and the scope re-raises its panic.
                    slots.lock().expect("slot lock never poisoned")[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .expect("slot lock never poisoned")
            .into_iter()
            .map(|slot| slot.expect("worker pool covered every cell"))
            .collect()
    }
}

impl<C: GridCell> Default for GridEngine<C> {
    fn default() -> Self {
        GridEngine::new()
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

    /// A cheap cell for exercising the pool itself: its report is a
    /// function of its digest, it fails on request, and it counts how
    /// often it actually executes.
    #[derive(Debug)]
    struct Fake {
        digest: u128,
        fails: bool,
        runs: Arc<AtomicU64>,
    }

    impl GridCell for Fake {
        type Report = u64;

        fn digest(&self) -> u128 {
            self.digest
        }

        fn execute(&self) -> Result<u64, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            if self.fails {
                return Err(format!("fake {} failed", self.digest));
            }
            Ok(self.digest as u64 * 3 + 1)
        }

        fn to_cache_text(report: &u64) -> String {
            format!("ctbia-fake-v1\n{report}\nend\n")
        }

        fn from_cache_text(text: &str) -> Option<u64> {
            let mut lines = text.lines();
            (lines.next()? == "ctbia-fake-v1").then_some(())?;
            let report = lines.next()?.parse().ok()?;
            (lines.next()? == "end").then_some(report)
        }
    }

    /// `n` fake cells, cell `i` with digest `digest(i)`, sharing one run
    /// counter.
    fn fakes(n: usize, digest: impl Fn(usize) -> u128) -> (Vec<Fake>, Arc<AtomicU64>) {
        let runs = Arc::new(AtomicU64::new(0));
        let cells = (0..n)
            .map(|i| Fake {
                digest: digest(i),
                fails: false,
                runs: Arc::clone(&runs),
            })
            .collect();
        (cells, runs)
    }

    fn temp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("ctbia-grid-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskCache::open(dir).unwrap()
    }

    #[test]
    fn threaded_output_is_serial_output_in_grid_order() {
        let (cells, runs) = fakes(64, |i| (i as u128) << 64 | 7);
        let serial = GridEngine::serial().run(&cells).unwrap();
        let threaded = GridEngine::new().with_threads(4).run(&cells).unwrap();
        let expected: Vec<u64> = cells.iter().map(|c| c.digest as u64 * 3 + 1).collect();
        assert_eq!(serial, expected);
        assert_eq!(threaded, expected);
        assert_eq!(runs.load(Ordering::SeqCst), 128);
    }

    #[test]
    fn lowest_index_error_wins_and_later_cells_still_run() {
        for threads in [1, 4] {
            let (mut cells, runs) = fakes(8, |i| i as u128);
            cells[5].fails = true;
            cells[3].fails = true;
            let engine = GridEngine::new().with_threads(threads);
            assert_eq!(engine.run(&cells).unwrap_err(), "fake 3 failed");
            assert_eq!(runs.load(Ordering::SeqCst), 8, "every cell ran");
            assert_eq!(engine.cells_executed(), 6, "cells after the failures ran");
        }
    }

    #[test]
    fn a_failed_execution_is_not_indexed_and_a_retry_executes() {
        let (mut cells, runs) = fakes(1, |_| 9);
        cells[0].fails = true;
        let memo = Arc::new(MemoIndex::new(1));
        let engine = GridEngine::serial().with_memo_index(Arc::clone(&memo));
        assert_eq!(engine.run_cell(&cells[0]).unwrap_err(), "fake 9 failed");
        assert!(memo.is_empty(), "failures are not indexed");
        assert_eq!(engine.cells_executed(), 0);

        cells[0].fails = false;
        let outcome = engine.run_cell_outcome(&cells[0]).unwrap();
        assert_eq!((outcome.report, outcome.cached), (28, false));
        assert_eq!(memo.lookup(9), Some(28), "the retry is indexed");
        assert_eq!(engine.run_cell(&cells[0]).unwrap(), 28);
        assert_eq!((engine.cells_executed(), engine.memo_hits()), (1, 1));
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "the failure ran, then the retry"
        );
    }

    #[test]
    fn memo_hit_answers_only_from_the_index() {
        let cache = temp_cache("memo-hit");
        let (cells, runs) = fakes(2, |i| 10 + i as u128);
        let engine = GridEngine::serial()
            .with_cache(cache.clone())
            .with_memo_index(Arc::new(MemoIndex::new(1)));
        assert_eq!(engine.memo_hit(10), None, "cold index");
        assert_eq!(engine.run_cell(&cells[0]).unwrap(), 31);
        assert_eq!(engine.memo_hit(10), Some(31));
        assert_eq!(engine.memo_hits(), 1);

        // A disk entry the index has not seen is not a memo hit.
        GridEngine::serial()
            .with_cache(cache.clone())
            .run_cell(&cells[1])
            .unwrap();
        assert_eq!(engine.memo_hit(11), None, "never reads the disk");
        assert_eq!(GridEngine::<Fake>::serial().memo_hit(10), None, "no index");
        assert_eq!(engine.memo_hits(), 1);
        assert_eq!((engine.cache_hits(), engine.cells_executed()), (0, 1));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_failed_store_is_counted_not_indexed_and_re_executed() {
        let cache = temp_cache("store-fault");
        let (cells, runs) = fakes(1, |_| 42);
        let memo = Arc::new(MemoIndex::new(1));
        let engine = GridEngine::serial()
            .with_cache(cache.clone())
            .with_memo_index(Arc::clone(&memo));
        cache.fail_next_stores(1);
        assert_eq!(engine.run_cell(&cells[0]).unwrap(), 127);
        assert_eq!(engine.cache_store_failures(), 1);
        assert!(memo.lookup(42).is_none(), "a lost store is not indexed");

        let fresh = GridEngine::serial().with_cache(cache.clone());
        assert_eq!(fresh.run_cell(&cells[0]).unwrap(), 127);
        assert_eq!(fresh.cells_executed(), 1, "the lost store costs a re-run");
        assert_eq!(fresh.cache_store_failures(), 0);

        let warm = GridEngine::serial().with_cache(cache.clone());
        let outcome = warm.run_cell_outcome(&cells[0]).unwrap();
        assert!(outcome.cached);
        assert_eq!((warm.cells_executed(), warm.cache_hits()), (0, 1));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }
}
