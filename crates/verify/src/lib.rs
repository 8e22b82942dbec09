//! # ctbia-verify — the secret-taint leakage verifier
//!
//! Two complementary analyses that check, rather than assume, the
//! constant-time property of every workload/strategy/placement cell:
//!
//! 1. **Taint sanitizer** ([`kernels`], [`mem`]) — the five Ghostrider
//!    kernels re-expressed over tainted values
//!    ([`Tv`](ctbia_core::taint::Tv)) running against the real machine
//!    through the [`TaintMem`] facade. Secrets carry a provenance
//!    chain; a secret reaching a raw address computation, a native
//!    branch condition, or a loop trip count raises a
//!    [`LeakViolation`](ctbia_core::taint::LeakViolation) naming the
//!    sink and the chain that fed it. The
//!    lattice is two-point (`public ⊑ secret`); memory round trips go
//!    through the machine's byte-granularity shadow map so taint
//!    survives spills, and secret-*destination* stores taint the cell
//!    they select (implicit flows).
//!
//! 2. **Trace-equivalence oracle** ([`oracle`]) — a black-box
//!    noninterference check: replay any runnable workload (crypto
//!    kernels included) under a family of secrets and require the
//!    machine's observation trace — demand line addresses, `CTLoad`/
//!    `CTStore` response bitmaps, LLC probe slices — to be
//!    byte-identical across all of them.
//!
//! [`cell`] and [`engine`] package the two analyses as a
//! [`GridCell`](ctbia_harness::GridCell) kind: [`verify_grid`] is the
//! canonical coverage grid (all five workloads × software CT, BIA, and
//! BIA-loads × all placements, the crypto kernels, and an intentionally
//! leaky negative control that must fail *both* analyses), and
//! [`VerifyEngine`] — the harness's one grid engine over verify cells —
//! runs it in parallel with on-disk verdict caching.
//!
//! The verifier models the *memory-system* side channel only:
//! speculation is covered through the machine's bounded wrong-path
//! windows (`DESIGN.md` §17), and timing indirectly (the cost model is a
//! deterministic function of the observation trace). See `DESIGN.md`
//! §10 for the precise claims and their limits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cell;
pub mod engine;
pub mod kernels;
pub mod mem;
pub mod oracle;
pub mod table;

pub use cell::{
    execute_verify_cell, leak_kind_tag, parse_leak_kind, write_violations, CacheTextReader,
    VerifyCell, VerifyReport, STORED_VIOLATIONS, VERIFY_SCHEMA_VERSION,
};
pub use engine::{ghostrider_workloads, verify_grid, verify_seeds, VerifyEngine};
pub use kernels::{run_mirror, taint_check, TaintOutcome};
pub use mem::{tv_addr, TaintMem, TaintSink};
pub use oracle::{trace_equivalence, OracleOutcome};
