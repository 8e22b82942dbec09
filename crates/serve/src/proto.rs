//! The `ctbia-serve-v1` wire protocol.
//!
//! Requests and responses are *envelopes*: one flat JSON object per line
//! (see [`ctbia_trace::json`]), newline-delimited, over a Unix domain socket.
//! Every request carries a client-chosen `id` that the matching response
//! echoes, so clients may pipeline requests and correlate out-of-order
//! completions. Malformed input of any kind is answered with a typed
//! [`ErrorCode`] envelope — the server never drops a connection over bad
//! bytes.
//!
//! ```text
//! -> {"schema": "ctbia-serve-v1", "id": "1", "op": "submit", "workload": "hist", "size": 400, "strategy": "bia", "placement": "l1d"}
//! <- {"schema": "ctbia-serve-v1", "id": "1", "ok": true, "kind": "report", "cached": false, "coalesced": false, "report": "ctbia-cell-v2\n..."}
//! -> {"schema": "ctbia-serve-v1", "id": "2", "op": "status"}
//! <- {"schema": "ctbia-serve-v1", "id": "2", "ok": true, "kind": "status", "jobs_submitted": 1, ...}
//! -> garbage
//! <- {"schema": "ctbia-serve-v1", "id": "-", "ok": false, "kind": "error", "code": "bad-json", "message": "..."}
//! ```
//!
//! A report envelope embeds the cell's full versioned cache text (the PR 2
//! on-disk format) as an escaped string, so a served report carries exactly
//! the bytes a direct sweep would have produced — byte-identity is a
//! protocol property, not an approximation.

use ctbia_harness::{CellReport, CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;
use ctbia_trace::json::{parse_object, Object};
use std::fmt;

/// Schema tag carried by every request and response envelope.
pub const SERVE_SCHEMA: &str = "ctbia-serve-v1";

/// Hard cap on one request line, in bytes. Longer lines are answered with
/// an [`ErrorCode::OversizedLine`] envelope and skipped to the next
/// newline.
pub const MAX_LINE: usize = 64 * 1024;

/// Longest accepted request `id`, in characters.
pub const MAX_ID_LEN: usize = 128;

/// The `id` echoed when a request was too malformed to carry one.
pub const UNKNOWN_ID: &str = "-";

/// Typed protocol error codes. Every failure mode a client can provoke has
/// a stable code, so tests (and clients) can dispatch on the *kind* of
/// rejection rather than parsing prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line exceeded [`MAX_LINE`] bytes.
    OversizedLine,
    /// The line was not a flat JSON object.
    BadJson,
    /// The `schema` field was missing or not `ctbia-serve-v1`.
    BadSchema,
    /// A required field was missing, mistyped, or out of range.
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The submitted cell description was invalid (unknown workload,
    /// strategy, or placement).
    BadCell,
    /// The client exceeded its `--max-inflight` budget; resubmit after a
    /// response arrives.
    Backpressure,
    /// The global queue-depth high-water mark was hit; the server is
    /// shedding load. Distinct from [`ErrorCode::Backpressure`]: that is
    /// one connection over its window, this is the whole daemon saturated.
    Overloaded,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The cell was accepted but simulation failed (infeasible config, or
    /// a worker panic isolated by the supervisor).
    CellFailed,
    /// The job did not complete within its deadline; the submit slot was
    /// released and the cell may be resubmitted.
    DeadlineExceeded,
    /// The server runs in tenanted mode and the submit carried no token,
    /// or one matching no configured tenant. The connection stays open —
    /// only the submit is refused.
    Unauthorized,
    /// The tenant is over its configured max-in-flight quota; resubmit
    /// after one of its jobs completes.
    QuotaExceeded,
}

impl ErrorCode {
    /// The stable wire form of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::OversizedLine => "oversized-line",
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadSchema => "bad-schema",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::BadCell => "bad-cell",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::CellFailed => "cell-failed",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::QuotaExceeded => "quota-exceeded",
        }
    }

    /// Whether a client may safely retry the same submit after seeing this
    /// code. Submits are idempotent (content-addressed), so retryability is
    /// purely about whether the condition is transient: `backpressure`,
    /// `overloaded`, `quota-exceeded` (the tenant's window reopens as its
    /// jobs complete), and `shutting-down` (another instance may be
    /// binding) clear on their own; the rest are caused by the request
    /// itself (malformed, infeasible, `unauthorized`) or consumed real
    /// work (`deadline-exceeded`, `cell-failed`), where blind retry would
    /// loop.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Backpressure
                | ErrorCode::Overloaded
                | ErrorCode::ShuttingDown
                | ErrorCode::QuotaExceeded
        )
    }

    /// Parses a wire code (the client side of [`ErrorCode::as_str`]).
    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "oversized-line" => ErrorCode::OversizedLine,
            "bad-json" => ErrorCode::BadJson,
            "bad-schema" => ErrorCode::BadSchema,
            "bad-request" => ErrorCode::BadRequest,
            "unknown-op" => ErrorCode::UnknownOp,
            "bad-cell" => ErrorCode::BadCell,
            "backpressure" => ErrorCode::Backpressure,
            "overloaded" => ErrorCode::Overloaded,
            "shutting-down" => ErrorCode::ShuttingDown,
            "cell-failed" => ErrorCode::CellFailed,
            "deadline-exceeded" => ErrorCode::DeadlineExceeded,
            "unauthorized" => ErrorCode::Unauthorized,
            "quota-exceeded" => ErrorCode::QuotaExceeded,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request rejection: which code, with what prose, attributed to which
/// request id (when one could be recovered from the line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, if the line carried a parseable one.
    pub id: Option<String>,
    /// The typed rejection code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<String>, code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            code,
            message: message.into(),
        }
    }
}

/// One cell-submission request: the pure-data description a client sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Workload name (`hist`, `dijkstra`, ... or a crypto kernel tag).
    pub workload: String,
    /// Element count; defaults per workload when absent.
    pub size: Option<u64>,
    /// Strategy name; defaults to `bia`.
    pub strategy: Option<String>,
    /// BIA placement name; defaults to `l1d`.
    pub placement: Option<String>,
    /// Run under the figure-harness (`o3_approx`) configuration.
    pub eval: bool,
    /// Per-job deadline in milliseconds, overriding the server's
    /// `--deadline-ms` default (`None` keeps the server default).
    pub deadline_ms: Option<u64>,
    /// Per-tenant auth token. Required (and checked) when the server runs
    /// in tenanted mode; ignored by an open server.
    pub token: Option<String>,
}

impl SubmitRequest {
    /// Resolves the request into an executable [`CellSpec`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the invalid field (unknown workload,
    /// strategy, or placement; zero size).
    pub fn to_spec(&self) -> Result<CellSpec, String> {
        let strategy = StrategySpec::parse(self.strategy.as_deref().unwrap_or("bia"))?;
        let placement = BiaPlacement::parse(self.placement.as_deref().unwrap_or("l1d"))?;
        let workload = self.workload_spec()?;
        let mut spec = CellSpec::new(workload, strategy, placement);
        if self.eval {
            spec = spec.with_eval_config();
        }
        Ok(spec)
    }

    fn workload_spec(&self) -> Result<WorkloadSpec, String> {
        // Crypto kernels are named by tag and take no size parameter.
        for kernel in CryptoKernel::ALL {
            if kernel.tag() == self.workload {
                return Ok(WorkloadSpec::Crypto(kernel));
            }
        }
        let size = match self.size {
            Some(0) => return Err("size must be at least 1".into()),
            Some(n) => usize::try_from(n).map_err(|_| "size does not fit usize".to_string())?,
            None => WorkloadSpec::default_size(&self.workload),
        };
        WorkloadSpec::named(&self.workload, size)
    }
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit one cell for execution.
    Submit(SubmitRequest),
    /// Query server counters; `metrics` additionally requests the
    /// aggregated `ctbia-metrics-v1` document over all served jobs.
    Status {
        /// Include the aggregated metrics document in the response.
        metrics: bool,
    },
    /// Liveness probe.
    Ping,
    /// Supervision probe: queue depth, workers alive, restart and
    /// fault-handling counters — the load balancer's view of the daemon.
    Health,
}

const SUBMIT_KEYS: &[&str] = &[
    "schema",
    "id",
    "op",
    "workload",
    "size",
    "strategy",
    "placement",
    "eval",
    "deadline_ms",
    "token",
];
// `token` is accepted (and ignored) on every op so a tenanted client can
// attach it unconditionally; only submits are gated on it.
const STATUS_KEYS: &[&str] = &["schema", "id", "op", "metrics", "token"];
const PING_KEYS: &[&str] = &["schema", "id", "op", "token"];
const HEALTH_KEYS: &[&str] = &["schema", "id", "op", "token"];

/// Parses and validates one request line into `(id, request)`.
///
/// # Errors
///
/// Returns a [`ProtoError`] carrying the typed code (and the request id
/// when the line was well-formed enough to have one) for any violation:
/// non-JSON, wrong schema, missing or mistyped fields, unknown operations,
/// unknown envelope keys.
pub fn parse_request(line: &str) -> Result<(String, Request), ProtoError> {
    let obj = parse_object(line)
        .map_err(|e| ProtoError::new(None, ErrorCode::BadJson, format!("not a request: {e}")))?;
    // Recover the id as early as possible so even schema errors correlate.
    let id = obj.get_str("id").map(str::to_string);
    let id = match id {
        Some(s) if !s.is_empty() && s.chars().count() <= MAX_ID_LEN => s,
        Some(_) => {
            return Err(ProtoError::new(
                None,
                ErrorCode::BadRequest,
                format!("\"id\" must be a non-empty string of at most {MAX_ID_LEN} characters"),
            ))
        }
        None => {
            return Err(ProtoError::new(
                None,
                ErrorCode::BadRequest,
                "missing string field \"id\"",
            ))
        }
    };
    let fail = |code: ErrorCode, msg: String| Err(ProtoError::new(Some(id.clone()), code, msg));
    match obj.get_str("schema") {
        Some(SERVE_SCHEMA) => {}
        Some(other) => {
            return fail(
                ErrorCode::BadSchema,
                format!("schema {other:?} is not {SERVE_SCHEMA:?}"),
            )
        }
        None => {
            return fail(
                ErrorCode::BadSchema,
                "missing string field \"schema\"".into(),
            )
        }
    }
    let op = match obj.get_str("op") {
        Some(op) => op,
        None => return fail(ErrorCode::BadRequest, "missing string field \"op\"".into()),
    };
    let allowed = match op {
        "submit" => SUBMIT_KEYS,
        "status" => STATUS_KEYS,
        "ping" => PING_KEYS,
        "health" => HEALTH_KEYS,
        other => {
            return fail(
                ErrorCode::UnknownOp,
                format!("unknown op {other:?} (submit, status, ping or health)"),
            )
        }
    };
    for (key, _) in obj.fields() {
        if !allowed.contains(&key.as_str()) {
            return fail(
                ErrorCode::BadRequest,
                format!("unknown field {key:?} for op {op:?}"),
            );
        }
    }
    if obj.get("token").is_some() && obj.get_str("token").is_none() {
        return fail(ErrorCode::BadRequest, "\"token\" must be a string".into());
    }
    let request = match op {
        "submit" => {
            let workload = match obj.get_str("workload") {
                Some(w) => w.to_string(),
                None => {
                    return fail(
                        ErrorCode::BadRequest,
                        "submit requires a string field \"workload\"".into(),
                    )
                }
            };
            let typed = |key: &str| -> Result<(), ProtoError> {
                match key {
                    "size" | "deadline_ms"
                        if obj.get(key).is_some() && obj.get_num(key).is_none() =>
                    {
                        Err(ProtoError::new(
                            Some(id.clone()),
                            ErrorCode::BadRequest,
                            format!("{key:?} must be a non-negative integer"),
                        ))
                    }
                    "strategy" | "placement"
                        if obj.get(key).is_some() && obj.get_str(key).is_none() =>
                    {
                        Err(ProtoError::new(
                            Some(id.clone()),
                            ErrorCode::BadRequest,
                            format!("{key:?} must be a string"),
                        ))
                    }
                    "eval" if obj.get("eval").is_some() && obj.get_bool("eval").is_none() => {
                        Err(ProtoError::new(
                            Some(id.clone()),
                            ErrorCode::BadRequest,
                            "\"eval\" must be a boolean".to_string(),
                        ))
                    }
                    _ => Ok(()),
                }
            };
            for key in ["size", "strategy", "placement", "eval", "deadline_ms"] {
                typed(key)?;
            }
            Request::Submit(SubmitRequest {
                workload,
                size: obj.get_num("size"),
                strategy: obj.get_str("strategy").map(str::to_string),
                placement: obj.get_str("placement").map(str::to_string),
                eval: obj.get_bool("eval").unwrap_or(false),
                deadline_ms: obj.get_num("deadline_ms"),
                token: obj.get_str("token").map(str::to_string),
            })
        }
        "status" => {
            if obj.get("metrics").is_some() && obj.get_bool("metrics").is_none() {
                return fail(
                    ErrorCode::BadRequest,
                    "\"metrics\" must be a boolean".into(),
                );
            }
            Request::Status {
                metrics: obj.get_bool("metrics").unwrap_or(false),
            }
        }
        "health" => Request::Health,
        _ => Request::Ping,
    };
    Ok((id, request))
}

/// Builds a submit request envelope (the client side of
/// [`parse_request`]).
pub fn submit_line(id: &str, req: &SubmitRequest) -> String {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_str("op", "submit")
        .push_str("workload", &req.workload);
    if let Some(size) = req.size {
        obj.push_num("size", size);
    }
    if let Some(strategy) = &req.strategy {
        obj.push_str("strategy", strategy);
    }
    if let Some(placement) = &req.placement {
        obj.push_str("placement", placement);
    }
    if req.eval {
        obj.push_bool("eval", true);
    }
    if let Some(deadline) = req.deadline_ms {
        obj.push_num("deadline_ms", deadline);
    }
    if let Some(token) = &req.token {
        obj.push_str("token", token);
    }
    obj.to_line()
}

/// Builds a status request envelope.
pub fn status_line(id: &str, metrics: bool) -> String {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_str("op", "status");
    if metrics {
        obj.push_bool("metrics", true);
    }
    obj.to_line()
}

/// Builds a ping request envelope.
pub fn ping_line(id: &str) -> String {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_str("op", "ping");
    obj.to_line()
}

/// Builds a health request envelope.
pub fn health_line(id: &str) -> String {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_str("op", "health");
    obj.to_line()
}

/// The supervision view of a running server, as carried by a health
/// response: is the daemon keeping up, and what has it survived so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Jobs currently queued or executing.
    pub queue_depth: u64,
    /// Global queue-depth high-water mark; submits past it are shed.
    pub queue_limit: u64,
    /// Worker threads currently alive.
    pub workers_alive: u64,
    /// Workers respawned by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Jobs killed for exceeding their deadline.
    pub deadline_kills: u64,
    /// Submits shed by admission control (`overloaded`).
    pub shed_submits: u64,
    /// Torn cache entries quarantined by the startup recovery scan.
    pub cache_quarantined: u64,
    /// Whether a graceful drain is in progress.
    pub shutting_down: bool,
}

impl HealthSnapshot {
    /// The snapshot's numeric fields in canonical wire order (the boolean
    /// `shutting_down` is encoded separately).
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queue_depth", self.queue_depth),
            ("queue_limit", self.queue_limit),
            ("workers_alive", self.workers_alive),
            ("worker_restarts", self.worker_restarts),
            ("deadline_kills", self.deadline_kills),
            ("shed_submits", self.shed_submits),
            ("cache_quarantined", self.cache_quarantined),
        ]
    }

    fn from_object(obj: &Object) -> Result<HealthSnapshot, String> {
        let get = |key: &str| -> Result<u64, String> {
            obj.get_num(key)
                .ok_or_else(|| format!("health response missing integer field {key:?}"))
        };
        Ok(HealthSnapshot {
            queue_depth: get("queue_depth")?,
            queue_limit: get("queue_limit")?,
            workers_alive: get("workers_alive")?,
            worker_restarts: get("worker_restarts")?,
            deadline_kills: get("deadline_kills")?,
            shed_submits: get("shed_submits")?,
            cache_quarantined: get("cache_quarantined")?,
            shutting_down: obj
                .get_bool("shutting_down")
                .ok_or("health response missing boolean field \"shutting_down\"")?,
        })
    }
}

/// A point-in-time snapshot of the server's counters, as carried by a
/// status response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Submit requests accepted (including coalesced attachments).
    pub jobs_submitted: u64,
    /// Jobs resolved (one per distinct digest, cached or simulated).
    pub jobs_completed: u64,
    /// Jobs that failed simulation.
    pub jobs_failed: u64,
    /// Jobs resolved by simulating the cell.
    pub executed: u64,
    /// Jobs resolved from the memo cache.
    pub cache_hits: u64,
    /// Jobs served from the sharded in-memory memo index without touching
    /// disk.
    pub memo_hits: u64,
    /// Submits that attached to an already-in-flight duplicate digest.
    pub coalesced: u64,
    /// Submits rejected for exceeding the per-connection in-flight cap
    /// or a tenant's queue share.
    pub backpressure_rejections: u64,
    /// Submits rejected for exceeding the tenant's max-in-flight quota.
    pub quota_rejections: u64,
    /// Submits rejected for a missing or unknown tenant token.
    pub unauthorized_rejections: u64,
    /// Request lines answered with a protocol error envelope.
    pub protocol_errors: u64,
    /// Jobs currently queued or executing.
    pub inflight_jobs: u64,
    /// Worker threads serving the job queue.
    pub threads: u64,
    /// Per-connection in-flight request cap.
    pub max_inflight: u64,
    /// Configured tenants (0 when the server runs open).
    pub tenants: u64,
    /// Shard count of the in-memory memo index (0 when disabled).
    pub memo_shards: u64,
    /// Worker threads currently alive (== `threads` unless one is being
    /// respawned right now).
    pub workers_alive: u64,
    /// Workers respawned by the supervisor after a panic.
    pub worker_restarts: u64,
    /// Jobs killed for exceeding their deadline.
    pub deadline_kills: u64,
    /// Submits shed by admission control with a typed `overloaded` error.
    pub shed_submits: u64,
    /// Torn cache entries quarantined by the startup recovery scan.
    pub cache_quarantined: u64,
    /// Memo-cache stores that failed (memoization lost, correctness kept).
    pub cache_store_failures: u64,
    /// Chaos injections fired so far (0 outside chaos drills).
    pub chaos_injections: u64,
}

/// The `(wire key, field)` list of a status snapshot; one table drives the
/// encoder, the parser, and the status display so they cannot disagree.
pub const STATUS_FIELDS: &[&str] = &[
    "jobs_submitted",
    "jobs_completed",
    "jobs_failed",
    "executed",
    "cache_hits",
    "memo_hits",
    "coalesced",
    "backpressure_rejections",
    "quota_rejections",
    "unauthorized_rejections",
    "protocol_errors",
    "inflight_jobs",
    "threads",
    "max_inflight",
    "tenants",
    "memo_shards",
    "workers_alive",
    "worker_restarts",
    "deadline_kills",
    "shed_submits",
    "cache_quarantined",
    "cache_store_failures",
    "chaos_injections",
];

impl StatusSnapshot {
    /// The snapshot's fields in canonical wire order.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("jobs_submitted", self.jobs_submitted),
            ("jobs_completed", self.jobs_completed),
            ("jobs_failed", self.jobs_failed),
            ("executed", self.executed),
            ("cache_hits", self.cache_hits),
            ("memo_hits", self.memo_hits),
            ("coalesced", self.coalesced),
            ("backpressure_rejections", self.backpressure_rejections),
            ("quota_rejections", self.quota_rejections),
            ("unauthorized_rejections", self.unauthorized_rejections),
            ("protocol_errors", self.protocol_errors),
            ("inflight_jobs", self.inflight_jobs),
            ("threads", self.threads),
            ("max_inflight", self.max_inflight),
            ("tenants", self.tenants),
            ("memo_shards", self.memo_shards),
            ("workers_alive", self.workers_alive),
            ("worker_restarts", self.worker_restarts),
            ("deadline_kills", self.deadline_kills),
            ("shed_submits", self.shed_submits),
            ("cache_quarantined", self.cache_quarantined),
            ("cache_store_failures", self.cache_store_failures),
            ("chaos_injections", self.chaos_injections),
        ]
    }

    fn from_object(obj: &Object) -> Result<StatusSnapshot, String> {
        let get = |key: &str| -> Result<u64, String> {
            obj.get_num(key)
                .ok_or_else(|| format!("status response missing integer field {key:?}"))
        };
        Ok(StatusSnapshot {
            jobs_submitted: get("jobs_submitted")?,
            jobs_completed: get("jobs_completed")?,
            jobs_failed: get("jobs_failed")?,
            executed: get("executed")?,
            cache_hits: get("cache_hits")?,
            memo_hits: get("memo_hits")?,
            coalesced: get("coalesced")?,
            backpressure_rejections: get("backpressure_rejections")?,
            quota_rejections: get("quota_rejections")?,
            unauthorized_rejections: get("unauthorized_rejections")?,
            protocol_errors: get("protocol_errors")?,
            inflight_jobs: get("inflight_jobs")?,
            threads: get("threads")?,
            max_inflight: get("max_inflight")?,
            tenants: get("tenants")?,
            memo_shards: get("memo_shards")?,
            workers_alive: get("workers_alive")?,
            worker_restarts: get("worker_restarts")?,
            deadline_kills: get("deadline_kills")?,
            shed_submits: get("shed_submits")?,
            cache_quarantined: get("cache_quarantined")?,
            cache_store_failures: get("cache_store_failures")?,
            chaos_injections: get("chaos_injections")?,
        })
    }
}

/// A parsed response envelope (the client side of the protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A served cell report.
    Report {
        /// Echoed request id.
        id: String,
        /// Served from the memo cache without simulating.
        cached: bool,
        /// Attached to another client's in-flight execution.
        coalesced: bool,
        /// The report, decoded from its embedded cache text (boxed: a
        /// `CellReport` dwarfs every other variant).
        report: Box<CellReport>,
    },
    /// A typed rejection.
    Error {
        /// Echoed request id, or [`UNKNOWN_ID`].
        id: String,
        /// The typed code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Server counters.
    Status {
        /// Echoed request id.
        id: String,
        /// The counter snapshot.
        snapshot: StatusSnapshot,
        /// The aggregated metrics document (JSON text), when requested.
        metrics: Option<String>,
    },
    /// Liveness reply.
    Pong {
        /// Echoed request id.
        id: String,
    },
    /// Supervision reply.
    Health {
        /// Echoed request id.
        id: String,
        /// The supervision snapshot.
        health: HealthSnapshot,
    },
}

impl Response {
    /// The echoed request id of any response kind.
    pub fn id(&self) -> &str {
        match self {
            Response::Report { id, .. }
            | Response::Error { id, .. }
            | Response::Status { id, .. }
            | Response::Pong { id }
            | Response::Health { id, .. } => id,
        }
    }
}

fn envelope(id: &str, ok: bool, kind: &str) -> Object {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_bool("ok", ok)
        .push_str("kind", kind);
    obj
}

/// Encodes a report response. The report travels as its full versioned
/// cache text, escaped into one JSON string.
pub fn report_response(id: &str, cached: bool, coalesced: bool, report: &CellReport) -> String {
    let mut obj = envelope(id, true, "report");
    obj.push_bool("cached", cached)
        .push_bool("coalesced", coalesced)
        .push_str("report", report.to_cache_text());
    obj.to_line()
}

/// Encodes a typed error response.
pub fn error_response(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    let mut obj = envelope(id.unwrap_or(UNKNOWN_ID), false, "error");
    obj.push_str("code", code.as_str())
        .push_str("message", message);
    obj.to_line()
}

/// Encodes a status response; `metrics` carries an aggregated
/// `ctbia-metrics-v1` document when the request asked for one.
pub fn status_response(id: &str, snapshot: &StatusSnapshot, metrics: Option<&str>) -> String {
    let mut obj = envelope(id, true, "status");
    for (key, value) in snapshot.fields() {
        obj.push_num(key, value);
    }
    if let Some(doc) = metrics {
        obj.push_str("metrics", doc);
    }
    obj.to_line()
}

/// Encodes a pong response.
pub fn pong_response(id: &str) -> String {
    envelope(id, true, "pong").to_line()
}

/// Encodes a health response.
pub fn health_response(id: &str, health: &HealthSnapshot) -> String {
    let mut obj = envelope(id, true, "health");
    for (key, value) in health.fields() {
        obj.push_num(key, value);
    }
    obj.push_bool("shutting_down", health.shutting_down);
    obj.to_line()
}

/// Parses one response line.
///
/// # Errors
///
/// Returns a message when the line is not a well-formed `ctbia-serve-v1`
/// response envelope (which would indicate a server bug, not bad luck).
pub fn parse_response(line: &str) -> Result<Response, String> {
    let obj = parse_object(line).map_err(|e| format!("not a response envelope: {e}"))?;
    match obj.get_str("schema") {
        Some(SERVE_SCHEMA) => {}
        other => return Err(format!("response schema {other:?} is not {SERVE_SCHEMA:?}")),
    }
    let id = obj
        .get_str("id")
        .ok_or("response missing \"id\"")?
        .to_string();
    match obj.get_str("kind") {
        Some("report") => {
            let text = obj
                .get_str("report")
                .ok_or("report response missing body")?;
            let report =
                CellReport::from_cache_text(text).ok_or("report response body failed to decode")?;
            Ok(Response::Report {
                id,
                cached: obj.get_bool("cached").ok_or("report missing \"cached\"")?,
                coalesced: obj
                    .get_bool("coalesced")
                    .ok_or("report missing \"coalesced\"")?,
                report: Box::new(report),
            })
        }
        Some("error") => {
            let code = obj.get_str("code").ok_or("error response missing code")?;
            let code =
                ErrorCode::parse(code).ok_or_else(|| format!("unknown error code {code:?}"))?;
            Ok(Response::Error {
                id,
                code,
                message: obj
                    .get_str("message")
                    .ok_or("error response missing message")?
                    .to_string(),
            })
        }
        Some("status") => Ok(Response::Status {
            id,
            snapshot: StatusSnapshot::from_object(&obj)?,
            metrics: obj.get_str("metrics").map(str::to_string),
        }),
        Some("pong") => Ok(Response::Pong { id }),
        Some("health") => Ok(Response::Health {
            id,
            health: HealthSnapshot::from_object(&obj)?,
        }),
        other => Err(format!("unknown response kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_machine::Counters;

    fn sample_report() -> CellReport {
        let counters = Counters {
            cycles: 987,
            insts: 55,
            ..Default::default()
        };
        CellReport {
            label: "hist_400/BIA@L1d".into(),
            digest: 0x1234_5678,
            counters,
        }
    }

    #[test]
    fn submit_round_trips() {
        let req = SubmitRequest {
            workload: "hist".into(),
            size: Some(400),
            strategy: Some("bia".into()),
            placement: Some("l1d".into()),
            eval: true,
            deadline_ms: Some(250),
            token: Some("tok-alpha".into()),
        };
        let line = submit_line("42", &req);
        let (id, parsed) = parse_request(&line).unwrap();
        assert_eq!(id, "42");
        assert_eq!(parsed, Request::Submit(req));
    }

    #[test]
    fn status_and_ping_round_trip() {
        assert_eq!(
            parse_request(&status_line("s", true)).unwrap(),
            ("s".into(), Request::Status { metrics: true })
        );
        assert_eq!(
            parse_request(&ping_line("p")).unwrap(),
            ("p".into(), Request::Ping)
        );
    }

    #[test]
    fn typed_errors_cover_the_failure_modes() {
        let cases: &[(&str, ErrorCode)] = &[
            ("nonsense", ErrorCode::BadJson),
            ("{\"id\": \"1\"}", ErrorCode::BadSchema),
            (
                "{\"schema\": \"ctbia-serve-v0\", \"id\": \"1\", \"op\": \"ping\"}",
                ErrorCode::BadSchema,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"op\": \"ping\"}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", \"op\": \"dance\"}",
                ErrorCode::UnknownOp,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", \"op\": \"submit\"}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", \"op\": \"submit\", \
                 \"workload\": \"hist\", \"size\": \"big\"}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", \"op\": \"ping\", \
                 \"extra\": 1}",
                ErrorCode::BadRequest,
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", \"op\": \"submit\", \
                 \"workload\": \"hist\", \"token\": 99}",
                ErrorCode::BadRequest,
            ),
        ];
        for (line, want) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, *want, "line {line:?} -> {err:?}");
        }
    }

    #[test]
    fn submit_resolves_cells_like_the_cli() {
        let req = SubmitRequest {
            workload: "hist".into(),
            size: None,
            strategy: None,
            placement: None,
            eval: false,
            deadline_ms: None,
            token: None,
        };
        let spec = req.to_spec().unwrap();
        // Defaults mirror `ctbia run hist`: size 2000, BIA at L1d.
        assert_eq!(spec.label(), "hist_2k/BIA@L1d");
        let crypto = SubmitRequest {
            workload: "aes".into(),
            size: None,
            strategy: Some("insecure".into()),
            placement: None,
            eval: false,
            deadline_ms: None,
            token: None,
        };
        assert_eq!(crypto.to_spec().unwrap().label(), "AES/insecure");
        let bad = SubmitRequest {
            workload: "nope".into(),
            size: None,
            strategy: None,
            placement: None,
            eval: false,
            deadline_ms: None,
            token: None,
        };
        assert!(bad.to_spec().is_err());
    }

    #[test]
    fn report_response_round_trips_byte_identically() {
        let report = sample_report();
        let line = report_response("7", true, false, &report);
        match parse_response(&line).unwrap() {
            Response::Report {
                id,
                cached,
                coalesced,
                report: parsed,
            } => {
                assert_eq!(id, "7");
                assert!(cached);
                assert!(!coalesced);
                assert_eq!(parsed.to_cache_text(), report.to_cache_text());
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn error_and_status_responses_round_trip() {
        let line = error_response(None, ErrorCode::BadJson, "zap");
        match parse_response(&line).unwrap() {
            Response::Error { id, code, message } => {
                assert_eq!(id, UNKNOWN_ID);
                assert_eq!(code, ErrorCode::BadJson);
                assert_eq!(message, "zap");
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let snapshot = StatusSnapshot {
            jobs_submitted: 9,
            jobs_completed: 8,
            executed: 5,
            cache_hits: 3,
            coalesced: 1,
            threads: 4,
            max_inflight: 32,
            ..StatusSnapshot::default()
        };
        let line = status_response("s", &snapshot, Some("{\"schema\": \"x\"}\n"));
        match parse_response(&line).unwrap() {
            Response::Status {
                id,
                snapshot: parsed,
                metrics,
            } => {
                assert_eq!(id, "s");
                assert_eq!(parsed, snapshot);
                assert_eq!(metrics.as_deref(), Some("{\"schema\": \"x\"}\n"));
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::OversizedLine,
            ErrorCode::BadJson,
            ErrorCode::BadSchema,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::BadCell,
            ErrorCode::Backpressure,
            ErrorCode::ShuttingDown,
            ErrorCode::CellFailed,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Unauthorized,
            ErrorCode::QuotaExceeded,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn only_transient_codes_are_retryable() {
        for code in [
            ErrorCode::Backpressure,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::QuotaExceeded,
        ] {
            assert!(code.retryable(), "{code:?} should be retryable");
        }
        for code in [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::BadCell,
            ErrorCode::CellFailed,
            ErrorCode::DeadlineExceeded,
            ErrorCode::Unauthorized,
        ] {
            assert!(!code.retryable(), "{code:?} must not be retryable");
        }
    }

    #[test]
    fn health_round_trips() {
        assert_eq!(
            parse_request(&health_line("h")).unwrap(),
            ("h".into(), Request::Health)
        );
        let health = HealthSnapshot {
            queue_depth: 3,
            queue_limit: 1024,
            workers_alive: 4,
            worker_restarts: 2,
            deadline_kills: 1,
            shed_submits: 5,
            cache_quarantined: 7,
            shutting_down: true,
        };
        let line = health_response("h", &health);
        match parse_response(&line).unwrap() {
            Response::Health { id, health: parsed } => {
                assert_eq!(id, "h");
                assert_eq!(parsed, health);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
