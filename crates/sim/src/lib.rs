//! # ctbia-sim — cache hierarchy simulator substrate
//!
//! A from-scratch, cycle-cost simulator of a classic memory hierarchy
//! (L1d, unified L2, unified LLC, DRAM), built as the substrate for the
//! `ctbia` reproduction of *Hardware Support for Constant-Time Programming*
//! (MICRO '23). It plays the role gem5's classic memory system plays in the
//! paper's evaluation (Table 1).
//!
//! Design goals, in order:
//!
//! 1. **Faithful counts.** The paper's results are driven by access counts
//!    and hit/miss latencies: every demand access, fill, eviction,
//!    write-back, and DRAM access is counted, per level, plus per-set access
//!    counters for the Figure 10 security test.
//! 2. **CT-operation semantics.** [`hierarchy::Hierarchy::ct_probe`] and
//!    [`hierarchy::Hierarchy::ct_write_if_dirty`] implement the cache half
//!    of the paper's `CTLoad`/`CTStore`: probe without fill, never forward a
//!    miss, never touch replacement state.
//! 3. **Observability.** A monitored level hands every state change to a
//!    [`hierarchy::CacheMonitor`] as it happens — exactly the "BIA monitors
//!    the cache for any update" interface of §4.2.
//! 4. **Determinism.** No wall-clock, no OS threads, seeded randomness; two
//!    runs with the same inputs produce identical statistics, which the
//!    security tests rely on.
//!
//! # Quickstart
//!
//! ```
//! use ctbia_sim::addr::PhysAddr;
//! use ctbia_sim::config::HierarchyConfig;
//! use ctbia_sim::hierarchy::{AccessFlags, Hierarchy, Level};
//!
//! # fn main() -> Result<(), ctbia_sim::config::ConfigError> {
//! let mut hier = Hierarchy::new(HierarchyConfig::paper_table1())?;
//! let line = PhysAddr::new(0x1048).line();
//!
//! let cold = hier.access(line, AccessFlags::read());
//! assert_eq!(cold.hit_level, Level::Dram);
//!
//! let warm = hier.access(line, AccessFlags::read());
//! assert_eq!((warm.hit_level, warm.latency), (Level::L1d, 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abstract_cache;
pub mod addr;
pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod replacement;
pub mod stats;

pub use abstract_cache::{AbstractCache, LineState, Residency};
pub use addr::{LineAddr, PageIdx, PhysAddr, LINES_PER_PAGE, LINE_BYTES, PAGE_BYTES};
pub use cache::{AccessKind, Cache, ProbeOutcome, Slot};
pub use config::{CacheConfig, ConfigError, DramConfig, HierarchyConfig};
pub use hierarchy::{AccessFlags, AccessResult, CacheEventKind, Hierarchy, Level, MonitorLevel};
pub use stats::{CacheStats, DramStats, HierarchyStats};
