//! # ctbia-harness — the parallel, memoizing sweep engine
//!
//! Every result in the paper is a sweep over (workload × strategy ×
//! placement × configuration) cells. This crate turns such sweeps into
//! data:
//!
//! 1. **Grid → cells.** A [`CellSpec`] is a pure-data description of one
//!    simulation; grids are plain `Vec<CellSpec>`.
//! 2. **Cells → pool.** [`GridEngine`] executes cells on a
//!    [`std::thread::scope`] worker pool sized from
//!    [`std::thread::available_parallelism`]. Workers claim cells from an
//!    atomic index and write into per-cell output slots, so merged output
//!    is ordered by grid index — never by completion order — and a parallel
//!    sweep is byte-identical to a serial one. The engine is generic over
//!    the [`GridCell`] trait; [`SweepEngine`] is its simulation instance,
//!    and the verify and analyze crates run their grids on the same pool.
//! 3. **Cells → cache.** A [`DiskCache`] memoizes completed cells under
//!    `results/cache/`, keyed by a 128-bit content digest of everything
//!    that determines the result (workload descriptor, strategy, placement,
//!    [`SimConfig`]). Figure bins, `ctbia run` and `ctbia compare` share
//!    work instead of re-simulating identical cells.
//!
//! ```
//! use ctbia_harness::{CellSpec, StrategySpec, SweepEngine, WorkloadSpec};
//! use ctbia_machine::BiaPlacement;
//!
//! let grid = vec![
//!     CellSpec::new(WorkloadSpec::named("hist", 200).unwrap(),
//!                   StrategySpec::Insecure, BiaPlacement::L1d),
//!     CellSpec::new(WorkloadSpec::named("hist", 200).unwrap(),
//!                   StrategySpec::Bia, BiaPlacement::L1d),
//! ];
//! let reports = SweepEngine::new().run(&grid).unwrap();
//! assert_eq!(reports[0].digest, reports[1].digest); // same answer
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod digest;
pub mod engine;
pub mod memo;
pub mod report;
pub mod spec;

pub use cache::{DiskCache, RecoveryReport};
pub use digest::Digest;
pub use engine::{
    execute_cell, execute_cell_traced, CellOutcome, GridCell, GridEngine, SweepEngine,
};
pub use memo::MemoIndex;
pub use report::{counter_fields, CacheTextReader, CellReport};
pub use spec::{CellSpec, CryptoKernel, SimConfig, StrategySpec, WorkloadSpec};
