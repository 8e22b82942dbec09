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
//!
//! Each wire field is declared once. `wire_snapshot!` generates
//! [`StatusSnapshot`] and [`HealthSnapshot`] — the struct, `fields()`, the
//! encoder and the parser — from one list of fields in wire order, each
//! named by its wire key. `wire_enum!` pairs every [`ErrorCode`] with its
//! wire string. `OPS` lists each request op's keys with their JSON types,
//! and [`parse_request`] checks a line against it in one pass.

use ctbia_harness::{CellReport, CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;
use ctbia_trace::json::{parse_object, Object, Value};
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

/// Declares an enum of `Variant = "wire-form"` pairs and its `WIRE`
/// table, so the variants and their wire forms are written once.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$doc:meta])* $code:ident = $wire:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$doc])* $code,)*
        }

        impl $name {
            /// Every variant with its wire form, in declaration order.
            const WIRE: &'static [($name, &'static str)] = &[$(($name::$code, $wire),)*];
        }
    };
}

wire_enum! {
    /// Typed protocol error codes. Every failure mode a client can provoke has
    /// a stable code, so tests (and clients) can dispatch on the *kind* of
    /// rejection rather than parsing prose.
    pub enum ErrorCode {
        /// The request line exceeded [`MAX_LINE`] bytes.
        OversizedLine = "oversized-line",
        /// The line was not a flat JSON object.
        BadJson = "bad-json",
        /// The `schema` field was missing or not `ctbia-serve-v1`.
        BadSchema = "bad-schema",
        /// A required field was missing, mistyped, or out of range.
        BadRequest = "bad-request",
        /// The `op` field named no known operation.
        UnknownOp = "unknown-op",
        /// The submitted cell description was invalid (unknown workload,
        /// strategy, or placement).
        BadCell = "bad-cell",
        /// The client exceeded its `--max-inflight` budget; resubmit after a
        /// response arrives.
        Backpressure = "backpressure",
        /// The global queue-depth high-water mark was hit; the server is
        /// shedding load. Distinct from [`ErrorCode::Backpressure`]: that is
        /// one connection over its window, this is the whole daemon saturated.
        Overloaded = "overloaded",
        /// The server is draining and accepts no new work.
        ShuttingDown = "shutting-down",
        /// The cell was accepted but simulation failed (infeasible config, or
        /// a worker panic isolated by the supervisor).
        CellFailed = "cell-failed",
        /// The job did not complete within its deadline; the submit slot was
        /// released and the cell may be resubmitted.
        DeadlineExceeded = "deadline-exceeded",
        /// The server runs in tenanted mode and the submit carried no token,
        /// or one matching no configured tenant. The connection stays open —
        /// only the submit is refused.
        Unauthorized = "unauthorized",
        /// The tenant is over its configured max-in-flight quota; resubmit
        /// after one of its jobs completes.
        QuotaExceeded = "quota-exceeded",
    }
}

impl ErrorCode {
    /// The stable wire form of the code.
    pub fn as_str(self) -> &'static str {
        // `WIRE` lists the codes in declaration order.
        ErrorCode::WIRE[self as usize].1
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
        ErrorCode::WIRE
            .iter()
            .find(|(_, wire)| *wire == s)
            .map(|&(code, _)| code)
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

/// The JSON type a request field must have when present.
#[derive(Debug, Clone, Copy)]
enum FieldType {
    Str,
    Num,
    Bool,
    /// A string the op cannot do without.
    RequiredStr,
}

impl FieldType {
    fn admits(self, value: Option<&Value>) -> bool {
        matches!(
            (self, value),
            (FieldType::Str | FieldType::Num | FieldType::Bool, None)
                | (FieldType::Str | FieldType::RequiredStr, Some(Value::Str(_)))
                | (FieldType::Num, Some(Value::Num(_)))
                | (FieldType::Bool, Some(Value::Bool(_)))
        )
    }

    fn fault(self, op: &str, key: &str) -> String {
        match self {
            FieldType::Str => format!("{key:?} must be a string"),
            FieldType::Num => format!("{key:?} must be a non-negative integer"),
            FieldType::Bool => format!("{key:?} must be a boolean"),
            FieldType::RequiredStr => format!("{op} requires a string field {key:?}"),
        }
    }
}

/// One request op: its name, the keys it accepts besides the envelope's
/// `schema`, `id` and `op` with their types, and how a validated object
/// becomes its [`Request`].
type OpSpec = (
    &'static str,
    &'static [(&'static str, FieldType)],
    fn(&Object) -> Request,
);

/// Every op's field table. A line's first fault is an unknown key; failing
/// that, the first mistyped or missing key in table order. `token` is
/// accepted (and ignored) on every op so a tenanted client can attach it
/// unconditionally; only submits are gated on it.
const OPS: [OpSpec; 4] = [
    (
        "submit",
        &[
            ("token", FieldType::Str),
            ("workload", FieldType::RequiredStr),
            ("size", FieldType::Num),
            ("strategy", FieldType::Str),
            ("placement", FieldType::Str),
            ("eval", FieldType::Bool),
            ("deadline_ms", FieldType::Num),
        ],
        |obj| {
            let string = |key| obj.get_str(key).map(str::to_string);
            Request::Submit(SubmitRequest {
                workload: string("workload").unwrap_or_default(),
                size: obj.get_num("size"),
                strategy: string("strategy"),
                placement: string("placement"),
                eval: obj.get_bool("eval").unwrap_or(false),
                deadline_ms: obj.get_num("deadline_ms"),
                token: string("token"),
            })
        },
    ),
    (
        "status",
        &[("token", FieldType::Str), ("metrics", FieldType::Bool)],
        |obj| Request::Status {
            metrics: obj.get_bool("metrics").unwrap_or(false),
        },
    ),
    ("ping", &[("token", FieldType::Str)], |_| Request::Ping),
    ("health", &[("token", FieldType::Str)], |_| Request::Health),
];

/// The keys every request envelope carries.
const ENVELOPE_KEYS: [&str; 3] = ["schema", "id", "op"];

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
    let Some(&(_, keys, build)) = OPS.iter().find(|(name, ..)| *name == op) else {
        return fail(
            ErrorCode::UnknownOp,
            format!("unknown op {op:?} (submit, status, ping or health)"),
        );
    };
    // One pass over the op's table counts its keys present and finds the
    // first fault; more fields than counted means an unknown key.
    let mut known = ENVELOPE_KEYS.len();
    let mut fault = None;
    for &(key, ty) in keys {
        let value = obj.get(key);
        known += usize::from(value.is_some());
        if fault.is_none() && !ty.admits(value) {
            fault = Some(ty.fault(op, key));
        }
    }
    if known < obj.fields().len() {
        let unknown = obj
            .fields()
            .iter()
            .map(|(key, _)| key.as_str())
            .find(|key| {
                !ENVELOPE_KEYS.contains(key) && !keys.iter().any(|(known, _)| known == key)
            });
        return fail(
            ErrorCode::BadRequest,
            format!(
                "unknown field {:?} for op {op:?}",
                unknown.unwrap_or_default()
            ),
        );
    }
    match fault {
        Some(message) => fail(ErrorCode::BadRequest, message),
        None => Ok((id, build(&obj))),
    }
}

/// A request envelope for `op`, ready for its op-specific fields.
fn request_envelope(id: &str, op: &str) -> Object {
    let mut obj = Object::new();
    obj.push_str("schema", SERVE_SCHEMA)
        .push_str("id", id)
        .push_str("op", op);
    obj
}

/// Builds a submit request envelope (the client side of
/// [`parse_request`]).
pub fn submit_line(id: &str, req: &SubmitRequest) -> String {
    let mut obj = request_envelope(id, "submit");
    obj.push_str("workload", &req.workload);
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
    let mut obj = request_envelope(id, "status");
    if metrics {
        obj.push_bool("metrics", true);
    }
    obj.to_line()
}

/// Builds a ping request envelope.
pub fn ping_line(id: &str) -> String {
    request_envelope(id, "ping").to_line()
}

/// Builds a health request envelope.
pub fn health_line(id: &str) -> String {
    request_envelope(id, "health").to_line()
}

/// Declares a snapshot struct from one list of its wire fields, in wire
/// order: `u64` counters, then at most one boolean after the braces. Each
/// field's name is its wire key; the struct, `fields`, the encoder and the
/// parser are all generated from the list, so they cannot disagree.
macro_rules! wire_snapshot {
    (
        $(#[$meta:meta])*
        pub struct $name:ident for $kind:literal {
            $($(#[$doc:meta])* $field:ident: u64,)*
        }
        $($(#[$flag_doc:meta])* $flag:ident: bool)?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
            $($(#[$flag_doc])* pub $flag: bool,)?
        }

        impl $name {
            /// The snapshot's `u64` fields in canonical wire order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }

            fn encode(&self, obj: &mut Object) {
                $(obj.push_num(stringify!($field), self.$field);)*
                $(obj.push_bool(stringify!($flag), self.$flag);)?
            }

            fn from_object(obj: &Object) -> Result<$name, String> {
                let get = |key: &str| -> Result<u64, String> {
                    obj.get_num(key).ok_or_else(|| {
                        format!(concat!($kind, " response missing integer field {:?}"), key)
                    })
                };
                Ok($name {
                    $($field: get(stringify!($field))?,)*
                    $($flag: obj.get_bool(stringify!($flag)).ok_or(concat!(
                        $kind,
                        " response missing boolean field \"",
                        stringify!($flag),
                        "\""
                    ))?,)?
                })
            }
        }
    };
}

wire_snapshot! {
    /// The supervision view of a running server, as carried by a health
    /// response: is the daemon keeping up, and what has it survived so far.
    pub struct HealthSnapshot for "health" {
        /// Jobs currently queued or executing.
        queue_depth: u64,
        /// Global queue-depth high-water mark; submits past it are shed.
        queue_limit: u64,
        /// Worker threads currently alive.
        workers_alive: u64,
        /// Workers respawned by the supervisor after a panic.
        worker_restarts: u64,
        /// Jobs killed for exceeding their deadline.
        deadline_kills: u64,
        /// Submits shed by admission control (`overloaded`).
        shed_submits: u64,
        /// Torn cache entries quarantined by the startup recovery scan.
        cache_quarantined: u64,
    }
    /// Whether a graceful drain is in progress.
    shutting_down: bool
}

wire_snapshot! {
    /// A point-in-time snapshot of the server's counters, as carried by a
    /// status response.
    pub struct StatusSnapshot for "status" {
        /// Submit requests accepted (including coalesced attachments).
        jobs_submitted: u64,
        /// Jobs resolved (one per distinct digest, cached or simulated).
        jobs_completed: u64,
        /// Jobs that failed simulation.
        jobs_failed: u64,
        /// Jobs resolved by simulating the cell.
        executed: u64,
        /// Jobs resolved from the memo cache.
        cache_hits: u64,
        /// Jobs served from the sharded in-memory memo index without touching
        /// disk.
        memo_hits: u64,
        /// Submits that attached to an already-in-flight duplicate digest.
        coalesced: u64,
        /// Submits rejected for exceeding the per-connection in-flight cap
        /// or a tenant's queue share.
        backpressure_rejections: u64,
        /// Submits rejected for exceeding the tenant's max-in-flight quota.
        quota_rejections: u64,
        /// Submits rejected for a missing or unknown tenant token.
        unauthorized_rejections: u64,
        /// Request lines answered with a protocol error envelope.
        protocol_errors: u64,
        /// Jobs currently queued or executing.
        inflight_jobs: u64,
        /// Worker threads serving the job queue.
        threads: u64,
        /// Per-connection in-flight request cap.
        max_inflight: u64,
        /// Configured tenants (0 when the server runs open).
        tenants: u64,
        /// Shard count of the always-on in-memory memo index.
        memo_shards: u64,
        /// Worker threads currently alive (== `threads` unless one is being
        /// respawned right now).
        workers_alive: u64,
        /// Workers respawned by the supervisor after a panic.
        worker_restarts: u64,
        /// Jobs killed for exceeding their deadline.
        deadline_kills: u64,
        /// Submits shed by admission control with a typed `overloaded` error.
        shed_submits: u64,
        /// Torn cache entries quarantined by the startup recovery scan.
        cache_quarantined: u64,
        /// Memo-cache stores that failed (memoization lost, correctness kept).
        cache_store_failures: u64,
        /// Chaos injections fired so far (0 outside chaos drills).
        chaos_injections: u64,
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
    snapshot.encode(&mut obj);
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
    health.encode(&mut obj);
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

    /// A status response whose 23 fields all differ pins each key to its
    /// field and the wire order: swapping any two changes the line.
    #[test]
    fn status_response_bytes_are_pinned() {
        let snapshot = StatusSnapshot {
            jobs_submitted: 1,
            jobs_completed: 2,
            jobs_failed: 3,
            executed: 4,
            cache_hits: 5,
            memo_hits: 6,
            coalesced: 7,
            backpressure_rejections: 8,
            quota_rejections: 9,
            unauthorized_rejections: 10,
            protocol_errors: 11,
            inflight_jobs: 12,
            threads: 13,
            max_inflight: 14,
            tenants: 15,
            memo_shards: 16,
            workers_alive: 17,
            worker_restarts: 18,
            deadline_kills: 19,
            shed_submits: 20,
            cache_quarantined: 21,
            cache_store_failures: 22,
            chaos_injections: 23,
        };
        let line = status_response("s", &snapshot, Some("m"));
        assert_eq!(
            line,
            "{\"schema\": \"ctbia-serve-v1\", \"id\": \"s\", \"ok\": true, \"kind\": \"status\", \
             \"jobs_submitted\": 1, \"jobs_completed\": 2, \"jobs_failed\": 3, \"executed\": 4, \
             \"cache_hits\": 5, \"memo_hits\": 6, \"coalesced\": 7, \
             \"backpressure_rejections\": 8, \"quota_rejections\": 9, \
             \"unauthorized_rejections\": 10, \"protocol_errors\": 11, \"inflight_jobs\": 12, \
             \"threads\": 13, \"max_inflight\": 14, \"tenants\": 15, \"memo_shards\": 16, \
             \"workers_alive\": 17, \"worker_restarts\": 18, \"deadline_kills\": 19, \
             \"shed_submits\": 20, \"cache_quarantined\": 21, \"cache_store_failures\": 22, \
             \"chaos_injections\": 23, \"metrics\": \"m\"}"
        );
        match parse_response(&line).unwrap() {
            Response::Status {
                snapshot: parsed, ..
            } => assert_eq!(parsed, snapshot),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn health_response_bytes_are_pinned() {
        let health = HealthSnapshot {
            queue_depth: 1,
            queue_limit: 2,
            workers_alive: 3,
            worker_restarts: 4,
            deadline_kills: 5,
            shed_submits: 6,
            cache_quarantined: 7,
            shutting_down: true,
        };
        let line = health_response("h", &health);
        assert_eq!(
            line,
            "{\"schema\": \"ctbia-serve-v1\", \"id\": \"h\", \"ok\": true, \"kind\": \"health\", \
             \"queue_depth\": 1, \"queue_limit\": 2, \"workers_alive\": 3, \
             \"worker_restarts\": 4, \"deadline_kills\": 5, \"shed_submits\": 6, \
             \"cache_quarantined\": 7, \"shutting_down\": true}"
        );
        match parse_response(&line).unwrap() {
            Response::Health { health: parsed, .. } => assert_eq!(parsed, health),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// Every malformed request line, with the exact code and message it
    /// draws. The two-fault lines pin which fault is reported first: an
    /// unknown key before any mistyped one, then `token`, then the op's
    /// fields in a fixed order, whatever their order on the line.
    #[test]
    fn malformed_requests_draw_pinned_errors() {
        const HEAD: &str = "{\"schema\": \"ctbia-serve-v1\", \"id\": \"1\", ";
        let cases: &[(&str, ErrorCode, &str)] = &[
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"size\": \"big\"}",
                ErrorCode::BadRequest,
                "\"size\" must be a non-negative integer",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"strategy\": 1}",
                ErrorCode::BadRequest,
                "\"strategy\" must be a string",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"placement\": true}",
                ErrorCode::BadRequest,
                "\"placement\" must be a string",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"eval\": \"yes\"}",
                ErrorCode::BadRequest,
                "\"eval\" must be a boolean",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"deadline_ms\": false}",
                ErrorCode::BadRequest,
                "\"deadline_ms\" must be a non-negative integer",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"token\": 99}",
                ErrorCode::BadRequest,
                "\"token\" must be a string",
            ),
            (
                "\"op\": \"submit\"}",
                ErrorCode::BadRequest,
                "submit requires a string field \"workload\"",
            ),
            (
                "\"op\": \"submit\", \"workload\": 7}",
                ErrorCode::BadRequest,
                "submit requires a string field \"workload\"",
            ),
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"metrics\": true}",
                ErrorCode::BadRequest,
                "unknown field \"metrics\" for op \"submit\"",
            ),
            (
                "\"op\": \"status\", \"metrics\": 1}",
                ErrorCode::BadRequest,
                "\"metrics\" must be a boolean",
            ),
            (
                "\"op\": \"status\", \"token\": true}",
                ErrorCode::BadRequest,
                "\"token\" must be a string",
            ),
            (
                "\"op\": \"status\", \"workload\": \"hist\"}",
                ErrorCode::BadRequest,
                "unknown field \"workload\" for op \"status\"",
            ),
            (
                "\"op\": \"ping\", \"token\": 5}",
                ErrorCode::BadRequest,
                "\"token\" must be a string",
            ),
            (
                "\"op\": \"ping\", \"metrics\": true}",
                ErrorCode::BadRequest,
                "unknown field \"metrics\" for op \"ping\"",
            ),
            (
                "\"op\": \"health\", \"token\": 5}",
                ErrorCode::BadRequest,
                "\"token\" must be a string",
            ),
            (
                "\"op\": \"health\", \"extra\": 1}",
                ErrorCode::BadRequest,
                "unknown field \"extra\" for op \"health\"",
            ),
            (
                "\"op\": \"dance\"}",
                ErrorCode::UnknownOp,
                "unknown op \"dance\" (submit, status, ping or health)",
            ),
            (
                "\"op\": 3}",
                ErrorCode::BadRequest,
                "missing string field \"op\"",
            ),
            // Two faults each: the first is the one reported.
            (
                "\"op\": \"submit\", \"workload\": \"hist\", \"size\": \"big\", \"extra\": 1}",
                ErrorCode::BadRequest,
                "unknown field \"extra\" for op \"submit\"",
            ),
            (
                "\"op\": \"submit\", \"eval\": 1, \"size\": \"big\", \"workload\": \"hist\"}",
                ErrorCode::BadRequest,
                "\"size\" must be a non-negative integer",
            ),
            (
                "\"op\": \"submit\", \"workload\": 7, \"token\": 1}",
                ErrorCode::BadRequest,
                "\"token\" must be a string",
            ),
            (
                "\"op\": \"submit\", \"size\": \"big\"}",
                ErrorCode::BadRequest,
                "submit requires a string field \"workload\"",
            ),
        ];
        for (tail, code, message) in cases {
            let line = format!("{HEAD}{tail}");
            let err = parse_request(&line).unwrap_err();
            assert_eq!(
                (err.id.as_deref(), err.code, err.message.as_str()),
                (Some("1"), *code, *message),
                "line {line}"
            );
        }
        let envelope_faults: &[(&str, ErrorCode, &str)] = &[
            (
                "{\"schema\": \"ctbia-serve-v1\", \"op\": \"ping\"}",
                ErrorCode::BadRequest,
                "missing string field \"id\"",
            ),
            (
                "{\"schema\": \"ctbia-serve-v1\", \"id\": \"\", \"op\": \"ping\"}",
                ErrorCode::BadRequest,
                "\"id\" must be a non-empty string of at most 128 characters",
            ),
        ];
        for (line, code, message) in envelope_faults {
            let err = parse_request(line).unwrap_err();
            assert_eq!(
                (err.id, err.code, err.message.as_str()),
                (None, *code, *message),
                "line {line}"
            );
        }
        let err = parse_request("{\"id\": \"2\", \"op\": \"ping\"}").unwrap_err();
        assert_eq!(
            (err.id.as_deref(), err.code, err.message.as_str()),
            (
                Some("2"),
                ErrorCode::BadSchema,
                "missing string field \"schema\""
            )
        );
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
