//! # ctbia-serve — the concurrent batch-simulation service
//!
//! Every sweep, verify, and trace run used to pay full process startup and
//! could only be driven by one local CLI invocation at a time. This crate
//! turns the PR 2 sweep engine and content-addressed memo cache into a
//! long-running daemon:
//!
//! * [`Server`] — `ctbia serve --socket PATH`: a Unix-domain-socket
//!   service speaking the newline-delimited JSON [`proto`] (versioned
//!   `ctbia-serve-v1` envelopes), with a shared job queue, duplicate-cell
//!   coalescing, per-connection backpressure, typed error responses, and
//!   graceful drain on shutdown or SIGTERM.
//! * [`Client`] — the blocking client `ctbia submit` / `ctbia status` use,
//!   and the instrument the e2e/stress suites drive concurrently, with a
//!   [`client::RetryPolicy`] retrying typed-transient failures with
//!   exponential backoff.
//! * [`loadgen::Schedule`] — the seeded request schedule perfbench's
//!   `serve` workload replays (see `perfbench/README.md`).
//!
//! The daemon is supervised end to end: jobs execute under
//! `catch_unwind` with poisoned workers respawned (the supervisor),
//! overdue jobs are answered `deadline-exceeded` by a watchdog, the
//! global queue sheds load past its high-water mark (`overloaded`), the
//! memo cache recovers from torn writes at startup, and a seeded
//! [`chaos`] harness injects all of those faults deterministically so the
//! `serve_chaos` suite can assert survival byte-for-byte.
//!
//! The determinism contract is inherited, not re-proved: a served report
//! is the cell's full versioned cache text, so it is byte-identical to
//! what a direct [`ctbia_harness::SweepEngine`] sweep produces — the
//! `serve_e2e` suite asserts exactly that under ≥4 concurrent clients.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod net;
pub mod proto;
pub mod server;
pub mod signal;
mod supervisor;
pub mod tenant;

pub use chaos::{ChaosKind, ChaosSpec, ChaosSpecError, ChaosState};
pub use client::{submit_with_retry_to, Client, RetryPolicy, ServeTarget};
pub use net::bind_tcp;
pub use proto::{
    ErrorCode, HealthSnapshot, ProtoError, Request, Response, StatusSnapshot, SubmitRequest,
    MAX_LINE, SERVE_SCHEMA,
};
pub use server::{Server, ServerConfig, ServerHandle, DEFAULT_MEMO_SHARDS};
pub use tenant::TenantSpec;
