//! # ctbia-trace — structured trace/metrics observability layer
//!
//! Every number in the paper is *counter*-shaped, and until now the
//! simulator only exposed end-of-run aggregates. This crate turns those
//! aggregates into an auditable timeline:
//!
//! - **Typed events** ([`TraceRecord`]/[`EventKind`]): per-access cache
//!   events with level/latency/statistics-delta detail, `CTLoad`/`CTStore`
//!   bitmap responses, linearization passes with skipped-line counts, and
//!   wrong-path accesses and squashes under speculation. Every event
//!   is stamped with the deterministic cycle clock — never wall-clock — so
//!   traces are byte-reproducible across machines and across serial vs
//!   parallel sweep execution.
//! - **Sinks** ([`TraceSink`]): a byte-deterministic [`JsonlSink`], an
//!   aggregating [`MetricsSink`] whose totals reconcile exactly against
//!   the machine's counters, and a [`TeeSink`] feeding two at once. The
//!   emitting side pays nothing when no sink is attached.
//! - **Cycle attribution** ([`Phase`]/[`PhaseCycles`]): every simulated
//!   cycle lands in exactly one named bucket (compute, demand access,
//!   linearization sweep, BIA maintenance, DRAM stall, speculative), and
//!   the bucket totals sum exactly to the cycle counter.
//! - **Metrics documents** ([`MetricsDoc`]): a versioned, flat
//!   `ctbia-metrics-v1` JSON document emitted by `ctbia run --metrics` /
//!   `ctbia status --metrics`.
//! - **One JSON codec** ([`json`]): the strict flat-object parser and
//!   writer that metrics documents and the `ctbia-serve-v1` protocol
//!   share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod sink;

pub use event::{EventKind, MemOp, TraceRecord};
pub use metrics::{MetricsDoc, METRICS_SCHEMA};
pub use phase::{LinearizeStats, Phase, PhaseCycles};
pub use sink::{JsonlSink, MetricsSink, TeeSink, TraceSink};
