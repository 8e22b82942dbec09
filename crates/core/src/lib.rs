//! # ctbia-core — BIA, `CTLoad`/`CTStore`, and dataflow linearization
//!
//! The primary contribution of *Hardware Support for Constant-Time
//! Programming* (MICRO '23), reimplemented as a library:
//!
//! * [`bia`] — the **BIA** (BItmAp) table: a 1 KiB set-associative structure
//!   recording, per 4 KiB page, which of the page's 64 cache lines exist in
//!   the monitored cache and which are dirty (paper §4.2).
//! * [`ctmem`] — the [`ctmem::CtMemory`] machine interface, whose
//!   `ct_load`/`ct_store` methods carry the semantics of the paper's two
//!   new micro-operations (§4.1): probe-without-fill plus bitmap return,
//!   and write-only-if-dirty plus bitmap return.
//! * [`ds`] — dataflow linearization sets and their per-page bitmasks
//!   (§2.3, §5.1).
//! * [`linearize`] — the software baseline (Constantine-style: touch every
//!   DS line) and the paper's Algorithms 2 and 3, which skip
//!   already-resident / already-dirty lines using the BIA bitmaps.
//! * [`predicate`] — branchless constant-time primitives used by the
//!   algorithms and the workloads.
//! * [`taint`] — the value-level secret-taint lattice, taint-carrying
//!   values ([`taint::Tv`]), and structured [`taint::LeakViolation`]
//!   reports consumed by the `ctbia-verify` sanitizer.
//! * [`sink`] — the [`sink::TaintSink`] surface and [`sink::Value`]
//!   trait every workload kernel is written against, so one kernel body
//!   runs measured (`u64`), sanitized and recorded ([`taint::Tv`]).
//!
//! # Example: mitigating a secret-indexed load
//!
//! ```no_run
//! use ctbia_core::ds::DataflowSet;
//! use ctbia_core::ctmem::{CtMemory, Width};
//! use ctbia_core::linearize::{ct_load_bia, BiaOptions};
//! use ctbia_sim::addr::PhysAddr;
//!
//! fn lookup<M: CtMemory>(m: &mut M, table: PhysAddr, table_bytes: u64, secret_index: u64) -> u64 {
//!     // The DS of `table[secret_index]` is the whole table.
//!     let ds = DataflowSet::contiguous(table, table_bytes);
//!     let target = table.offset(secret_index * 4);
//!     ct_load_bia(m, &ds, target, Width::U32, BiaOptions::default())
//! }
//! ```
//!
//! See `ctbia-machine` for the cycle-cost machine that implements
//! [`ctmem::CtMemory`], and the workspace root crate `ctbia` for
//! runnable examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bia;
pub mod ctflow;
pub mod ctmem;
pub mod ds;
pub mod linearize;
pub mod predicate;
pub mod sink;
pub mod strategy;
pub mod taint;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod testutil;

pub use bia::{Bia, BiaConfig, BiaConfigError, BiaStats, BiaView};
pub use ctflow::CtCond;
pub use ctmem::{CtLoad, CtMemory, CtMemoryExt, CtStore, LinearizeInfo, Width};
pub use ds::{Bitmask, DataflowSet, DsGroup, DsPage};
pub use linearize::{ct_load_bia, ct_load_sw, ct_store_bia, ct_store_sw, BiaOptions, SwProfile};
pub use sink::{elem_addr, TaintSink, Value};
pub use strategy::Strategy;
pub use taint::{LeakKind, LeakViolation, Taint, TaintLabel, Tv};
