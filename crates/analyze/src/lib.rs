//! # ctbia-analyze — static constant-time certification
//!
//! Certifies a workload/strategy/placement cell **without executing any
//! concrete secret**, in three passes over an access-program IR:
//!
//! 1. **Extraction** ([`recmem`], [`ir`]) — the workload's kernel body,
//!    the code the measured run executes, runs exactly once on the
//!    [`TaintSink`](ctbia_core::sink::TaintSink) recording backend. Public values compute concretely;
//!    every secret is replaced by a *poisoned* symbolic payload that
//!    panics the moment it would be observed concretely, so the
//!    extracted [`AccessProgram`](ir::AccessProgram) provably depends
//!    only on public inputs. A secret reaching native control flow
//!    aborts extraction with a recorded cause — itself a certification
//!    failure.
//! 2. **Lint** ([`lint`]) — a flow-sensitive walk re-deriving the
//!    dynamic sanitizer's verdicts statically (secret addresses
//!    escaping to demand accesses, secret branches and trip counts)
//!    plus BIA-specific rules the sanitizer cannot see: sweeps
//!    degradable by the §6.5 DRAM threshold, existence bitmaps flowing
//!    into branches, non-canonical predicate masks.
//! 3. **Abstract interpretation** ([`absint`]) — a CacheAudit-style
//!    replay against the simulator's
//!    [`AbstractCache`](ctbia_sim::abstract_cache::AbstractCache) at
//!    the level the cell's BIA monitors, summing the observable
//!    distinctions an attacker could draw. A bound of exactly 0 bits
//!    certifies the cell.
//!
//! [`cell`] and [`engine`] package the pipeline as a
//! [`GridCell`](ctbia_harness::GridCell) kind memoized in the same
//! content-addressed store the simulation and verification grids use:
//! [`analyze_grid`] is the canonical certification grid (Ghostrider and
//! crypto kernels under CT and BIA must certify; every insecure cell and
//! the leaky control must fail with a named violation *and* a positive
//! bound), and [`AnalyzeEngine`] — the harness's one grid engine over
//! analyze cells — runs it in parallel with on-disk verdict caching.
//!
//! The analysis is sound for the recorded trace under the assumptions
//! spelled out in `DESIGN.md` §15 (public control flow enforced by the
//! abort rule, single monitored cache level, modeled — not executed —
//! lowering); its companion dynamic analyses in `ctbia-verify` cover
//! the residual gap, and a property test pins the static lint to a
//! superset of the dynamic sanitizer's findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod absint;
pub mod cell;
pub mod engine;
pub mod ir;
pub mod lint;
pub mod recmem;

pub use absint::{interpret, AbsResult};
pub use cell::{execute_analyze_cell, AnalyzeCell, AnalyzeReport, ANALYZE_SCHEMA_VERSION};
pub use engine::{analyze_grid, AnalyzeEngine};
pub use ir::{AccessProgram, AddrExpr, Op, Region};
pub use lint::lint;
pub use recmem::{extract, extractions_performed, RecMem};
