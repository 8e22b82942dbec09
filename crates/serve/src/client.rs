//! A small blocking client for the `ctbia-serve-v1` protocol — what
//! `ctbia submit` and `ctbia status` are built on, and what the e2e tests
//! drive concurrently.
//!
//! The client speaks either transport the daemon binds: a Unix domain
//! socket ([`Client::connect`]) or TCP ([`Client::connect_tcp`]); a
//! [`ServeTarget`] names one of the two for callers that are generic
//! over transport. The wire protocol is byte-identical on both.
//!
//! [`submit_with_retry_to`] adds the resilience layer `ctbia submit
//! --retries` uses: transient failures — a connect refused while the
//! daemon restarts, a typed `backpressure`/`overloaded`/`shutting-down`/
//! `quota-exceeded` rejection — are retried under an exponential-backoff
//! [`RetryPolicy`] with deterministic seeded jitter, while permanent
//! errors (`bad-cell`, `cell_failed`, `unauthorized`, …) surface
//! immediately. The retry loop reconnects per attempt, so it spans a
//! daemon restart.

use crate::proto::{
    health_line, parse_response, ping_line, status_line, submit_line, Response, SubmitRequest,
};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a client connects: the daemon's socket path or TCP address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeTarget {
    /// A Unix-domain-socket path.
    Unix(PathBuf),
    /// A TCP `host:port` address.
    Tcp(String),
}

impl ServeTarget {
    /// Opens one connection to the target.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the endpoint is absent or refuses.
    pub fn connect(&self) -> io::Result<Client> {
        match self {
            ServeTarget::Unix(path) => Client::connect(path),
            ServeTarget::Tcp(addr) => Client::connect_tcp(addr),
        }
    }
}

impl std::fmt::Display for ServeTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeTarget::Unix(path) => write!(f, "{}", path.display()),
            ServeTarget::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// One established connection, over either transport.
#[derive(Debug)]
enum Transport {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Transport {
    fn try_clone(&self) -> io::Result<Transport> {
        match self {
            Transport::Unix(s) => s.try_clone().map(Transport::Unix),
            Transport::Tcp(s) => s.try_clone().map(Transport::Tcp),
        }
    }
}

impl Read for Transport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Transport::Unix(s) => s.read(buf),
            Transport::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Transport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Transport::Unix(s) => s.write(buf),
            Transport::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Transport::Unix(s) => s.flush(),
            Transport::Tcp(s) => s.flush(),
        }
    }
}

/// One connection to a running `ctbia serve` daemon.
#[derive(Debug)]
pub struct Client {
    writer: Transport,
    reader: BufReader<Transport>,
    next_id: u64,
}

impl Client {
    /// Connects to the daemon at the Unix socket `socket`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket is absent or refuses.
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        Client::from_transport(Transport::Unix(UnixStream::connect(socket)?))
    }

    /// Connects to the daemon's TCP listener at `addr` (`host:port`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if nothing accepts at the address.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // The protocol is one-line request / one-line response; leaving
        // Nagle on would delay every turn by an ack round trip.
        let _ = stream.set_nodelay(true);
        Client::from_transport(Transport::Tcp(stream))
    }

    fn from_transport(stream: Transport) -> io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            next_id: 1,
        })
    }

    /// Allocates the next request id.
    pub fn fresh_id(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        id.to_string()
    }

    /// Sends one raw line (appending the newline). Exposed so tests can
    /// feed the server arbitrary bytes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error on a broken connection.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        // One write, so a `TCP_NODELAY` stream sends one segment and the
        // server's reader wakes once per request.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())
    }

    /// Reads one response line; `None` on a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns the I/O error on a broken connection.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Reads and parses one response envelope.
    ///
    /// # Errors
    ///
    /// Returns a message on EOF, I/O failure, or a malformed envelope.
    pub fn recv_response(&mut self) -> Result<Response, String> {
        let line = self
            .recv_line()
            .map_err(|e| format!("connection lost: {e}"))?
            .ok_or("server closed the connection")?;
        parse_response(&line)
    }

    /// Pipelines a submit without waiting for the response; returns the
    /// request id to correlate with.
    ///
    /// # Errors
    ///
    /// Returns a message on a broken connection.
    pub fn send_submit(&mut self, req: &SubmitRequest) -> Result<String, String> {
        let id = self.fresh_id();
        self.send_line(&submit_line(&id, req))
            .map_err(|e| format!("cannot submit: {e}"))?;
        Ok(id)
    }

    /// Submits one cell and waits for its response.
    ///
    /// # Errors
    ///
    /// Returns a message on connection or envelope failure (a typed server
    /// rejection is returned as `Ok(Response::Error { .. })`, not `Err`).
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<Response, String> {
        self.send_submit(req)?;
        self.recv_response()
    }

    /// Sends the request line built for a fresh id and waits for its
    /// response; `doing` names the request in a send failure.
    fn round_trip(
        &mut self,
        doing: &str,
        line: impl FnOnce(&str) -> String,
    ) -> Result<Response, String> {
        let id = self.fresh_id();
        self.send_line(&line(&id))
            .map_err(|e| format!("cannot {doing}: {e}"))?;
        self.recv_response()
    }

    /// Queries server status.
    ///
    /// # Errors
    ///
    /// Returns a message on connection or envelope failure.
    pub fn status(&mut self, metrics: bool) -> Result<Response, String> {
        self.round_trip("query status", |id| status_line(id, metrics))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Returns a message on connection or envelope failure.
    pub fn ping(&mut self) -> Result<Response, String> {
        self.round_trip("ping", ping_line)
    }

    /// Queries the supervision snapshot (queue depth, workers, restarts).
    ///
    /// # Errors
    ///
    /// Returns a message on connection or envelope failure.
    pub fn health(&mut self) -> Result<Response, String> {
        self.round_trip("query health", health_line)
    }
}

/// How [`submit_with_retry_to`] behaves across attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = a single attempt, no retry).
    pub retries: u32,
    /// Base backoff before the first retry, in milliseconds; each further
    /// retry doubles it.
    pub backoff_ms: u64,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed of the jitter RNG. Deterministic given the seed, so tests can
    /// pin the exact sleep schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            backoff_ms: 50,
            max_backoff_ms: 2_000,
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The full jittered backoff schedule: one sleep per retry, attempt
    /// `k` (0-based) backing off `backoff_ms << k`, capped at
    /// `max_backoff_ms`, scaled by a jitter factor in [0.5, 1.0].
    pub fn schedule(&self) -> Vec<Duration> {
        let mut rng = self.seed.max(1);
        (0..self.retries)
            .map(|k| {
                let base = self
                    .backoff_ms
                    .checked_shl(k.min(32))
                    .unwrap_or(self.max_backoff_ms)
                    .min(self.max_backoff_ms);
                // xorshift64 jitter: halve-to-full spread de-synchronizes
                // clients that all saw the same rejection.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let jittered = base / 2 + rng % (base / 2 + 1);
                Duration::from_millis(jittered)
            })
            .collect()
    }
}

/// Whether an I/O failure is the transient face of a restarting daemon:
/// the socket file is momentarily gone (unlinked by the old process) or
/// present but unserved (`ECONNREFUSED` before the new bind).
fn connect_error_is_transient(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound)
}

/// Submits one cell to `target` (either transport), retrying transient
/// failures per `policy` on a fresh connection each attempt. Retried: a
/// refused/absent endpoint and typed `backpressure` / `overloaded` /
/// `shutting-down` / `quota-exceeded` rejections (see
/// [`crate::proto::ErrorCode::retryable`]). Everything else — including a
/// successful response carrying a permanent typed error — is returned
/// as-is from the attempt that produced it.
///
/// # Errors
///
/// Returns the final attempt's failure message once the budget is spent.
pub fn submit_with_retry_to(
    target: &ServeTarget,
    req: &SubmitRequest,
    policy: &RetryPolicy,
) -> Result<Response, String> {
    let mut sleeps = policy.schedule().into_iter();
    loop {
        let (attempt, retryable) = match target.connect() {
            Ok(mut client) => {
                // A failure *after* the connect (broken mid-submit) is
                // never retried: the request may already be executing, and
                // resubmitting would break the at-most-once send contract.
                let attempt = client.submit(req);
                let retryable =
                    matches!(&attempt, Ok(Response::Error { code, .. }) if code.retryable());
                (attempt, retryable)
            }
            Err(e) => {
                let retryable = connect_error_is_transient(&e);
                let msg = format!("cannot connect to {target}: {e}");
                (Err(msg), retryable)
            }
        };
        if !retryable {
            return attempt;
        }
        match sleeps.next() {
            Some(sleep) => std::thread::sleep(sleep),
            None => return attempt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy {
            retries: 6,
            backoff_ms: 50,
            max_backoff_ms: 400,
            seed: 42,
        };
        let a = policy.schedule();
        let b = policy.schedule();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 6);
        for (k, sleep) in a.iter().enumerate() {
            let base = (50u64 << k).min(400);
            let ms = sleep.as_millis() as u64;
            assert!(
                ms >= base / 2 && ms <= base,
                "sleep {k} = {ms}ms outside [{}, {base}]",
                base / 2
            );
        }
        let other = RetryPolicy { seed: 43, ..policy };
        assert_ne!(a, other.schedule(), "different seeds de-synchronize");
    }

    #[test]
    fn zero_retries_means_one_attempt() {
        assert!(RetryPolicy::default().schedule().is_empty());
    }

    #[test]
    fn retry_gives_up_after_the_budget_on_a_dead_socket() {
        let socket = std::env::temp_dir().join(format!(
            "ctbia-retry-test-{}-nobody-home.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&socket);
        let policy = RetryPolicy {
            retries: 2,
            backoff_ms: 1,
            max_backoff_ms: 2,
            seed: 7,
        };
        let req = SubmitRequest {
            workload: "hist".into(),
            size: Some(200),
            strategy: None,
            placement: None,
            eval: false,
            deadline_ms: None,
            token: None,
        };
        let err = submit_with_retry_to(&ServeTarget::Unix(socket), &req, &policy).unwrap_err();
        assert!(err.contains("cannot connect"), "final failure: {err}");
    }

    #[test]
    fn retry_gives_up_on_a_dead_tcp_port() {
        // Bind-then-drop guarantees a port nobody listens on right now.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            retries: 1,
            backoff_ms: 1,
            max_backoff_ms: 2,
            seed: 7,
        };
        let req = SubmitRequest {
            workload: "hist".into(),
            size: Some(200),
            strategy: None,
            placement: None,
            eval: false,
            deadline_ms: None,
            token: None,
        };
        let target = ServeTarget::Tcp(format!("127.0.0.1:{port}"));
        let err = submit_with_retry_to(&target, &req, &policy).unwrap_err();
        assert!(err.contains("cannot connect"), "final failure: {err}");
    }
}
