//! The `serve` workload: an in-process `ctbia-serve` daemon over TCP
//! loopback, driven closed-loop.
//!
//! `serve` is in the benchmark because it is the repository's second hot
//! path, a served request: connect, parse, admit, queue, memo lookup or
//! execute, respond. One connection per tenant (as many as the host has
//! cores) each waits for its reply before sending the next request.
//! About nine in ten requests name a cell of a pre-warmed zipf(1.0) pool
//! of 32, dealt by `loadgen::Schedule::generate`, and are answered from
//! the in-memory memo index; the rest name never-seen cells, which
//! simulate and then take a fsync'd `DiskCache::store` and an index
//! publish. It loads the protocol, the network layer, the server's
//! queues and the memo layer both ways; the simulator does little, and
//! verify and analyze are not called. Every served report must be
//! byte-equal to `execute_cell(..).to_cache_text()`.

use crate::grid::{mix, par_execute};
use crate::probes::{cell_layers, pass_metrics, traced_pass};
use crate::record::{Check, Fnv, Metrics};
use crate::span::SpanLog;
use crate::stats::{median, percentile};
use crate::{enough_setups, Outcome, RunCfg};
use ctbia_harness::{CellReport, CellSpec};
use ctbia_serve::loadgen::Schedule;
use ctbia_serve::proto::{parse_request, parse_response, report_response, submit_line};
use ctbia_serve::{
    Client, Request, Response, Server, ServerConfig, ServerHandle, SubmitRequest, TenantSpec,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Cells in the pre-warmed pool.
const POOL: usize = 32;
/// Requests dealt per run; connections wrap around their share if the
/// window outlasts it (a wrapped request never misses).
const DEALT: usize = 400_000;
/// One request in `MISS_EVERY` names a never-seen cell.
const MISS_EVERY: u64 = 10;
/// Length of one slice of the closed-loop window, seconds.
const SLICE_S: f64 = 1.0;
/// Request/response line pairs each connection keeps per traced slice for
/// the codec probes.
const KEPT_LINES: usize = 100;

fn request(workload: &str, size: u64, strategy: &str, placement: &str) -> SubmitRequest {
    SubmitRequest {
        workload: workload.to_string(),
        size: Some(size),
        strategy: Some(strategy.to_string()),
        placement: Some(placement.to_string()),
        eval: false,
        deadline_ms: None,
        token: None,
    }
}

const KINDS: [&str; 4] = ["hist", "perm", "bin", "heap"];

/// The pool: 32 distinct BIA@L1d cells with seed-drawn sizes in
/// [100, 356).
pub fn pool(seed: u64) -> Vec<SubmitRequest> {
    (0..POOL as u64)
        .map(|i| {
            request(
                KINDS[i as usize % 4],
                100 + 8 * i + mix(seed, i) % 8,
                "bia",
                "l1d",
            )
        })
        .collect()
}

/// Never-seen cells, in a seed-shuffled order: every (workload, size in
/// [600, 1000), BIA variant) combination once, so miss costs are drawn
/// from one fixed distribution whatever the seed.
pub fn misses(seed: u64) -> Vec<SubmitRequest> {
    let mut all = Vec::new();
    for kind in KINDS {
        for size in 600..1000 {
            for (strategy, placement) in [("bia", "l1d"), ("bia", "l2"), ("bia-loads", "l1d")] {
                all.push(request(kind, size, strategy, placement));
            }
        }
    }
    for i in (1..all.len()).rev() {
        let j = (mix(seed, 0x5ca1_0000 + i as u64) % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    all
}

/// The dealt schedule and which of its requests miss.
pub fn schedule(seed: u64, conns: usize) -> (Schedule, Vec<bool>) {
    let schedule = Schedule::generate(seed, conns, DEALT, POOL, conns);
    let miss = (0..DEALT as u64)
        .map(|i| mix(seed, 0x3155 + i) % MISS_EVERY == 0)
        .collect();
    (schedule, miss)
}

/// Digest of everything the run sends: schedule, miss mask, pool and
/// miss order.
pub fn inputs_digest(seed: u64, conns: usize) -> String {
    let (s, miss) = schedule(seed, conns);
    let mut h = Fnv::new();
    h.bytes(s.digest().as_bytes());
    for m in miss {
        h.bytes(&[m as u8]);
    }
    for r in pool(seed).iter().chain(&misses(seed)) {
        h.bytes(submit_line("-", r).as_bytes());
    }
    h.hex()
}

/// A running daemon with one connected client per tenant.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<Client>,
    tokens: Vec<String>,
    /// Per connection, how far into its share of the deal it has got.
    cursors: Vec<usize>,
}

/// Starts a daemon, pre-warms the pool through it and connects the
/// clients. Returns the daemon, set-up seconds, `Server::start` seconds
/// and per-client connect µs.
fn start(
    cfg: &RunCfg,
    pool: &[SubmitRequest],
    pool_texts: &[String],
    check: &mut Check,
) -> Result<(Daemon, f64, f64, Vec<f64>), String> {
    let tokens: Vec<String> = (0..cfg.threads).map(|i| format!("tok-t{i}")).collect();
    let mut config = ServerConfig::new(cfg.scratch.fresh("sock"));
    config.tcp = Some("127.0.0.1:0".to_string());
    config.cache_dir = Some(cfg.scratch.fresh("cache"));
    config.tenants = tokens
        .iter()
        .enumerate()
        .map(|(i, token)| TenantSpec {
            name: format!("t{i}"),
            token: token.clone(),
            max_inflight: usize::MAX,
            queue_share: usize::MAX,
            weight: 1,
        })
        .collect();
    let t = Instant::now();
    let handle = Server::start(config).map_err(|e| format!("daemon: {e}"))?;
    let start_s = t.elapsed().as_secs_f64();
    let addr = handle
        .tcp_addr()
        .ok_or("daemon reported no TCP address")?
        .to_string();
    let mut clients = Vec::new();
    let mut connect_us = Vec::new();
    for _ in 0..cfg.threads {
        let c = Instant::now();
        clients.push(Client::connect_tcp(&addr).map_err(|e| format!("connect {addr}: {e}"))?);
        connect_us.push(c.elapsed().as_secs_f64() * 1e6);
    }
    for (req, text) in pool.iter().zip(pool_texts) {
        let mut req = req.clone();
        req.token = Some(tokens[0].clone());
        let ok = matches!(clients[0].submit(&req)?,
            Response::Report { report, .. } if report.to_cache_text() == *text);
        check.expect(ok, || {
            format!("pre-warm of {} {:?} failed", req.workload, req.size)
        });
    }
    let setup = t.elapsed().as_secs_f64();
    Ok((
        Daemon {
            handle,
            cursors: vec![0; clients.len()],
            clients,
            tokens,
        },
        setup,
        start_s,
        connect_us,
    ))
}

/// What one closed-loop window observed.
#[derive(Debug, Default)]
struct Window {
    elapsed: f64,
    completed: u64,
    /// Latencies of requests answered `cached`, seconds.
    hits: Vec<f64>,
    /// Latencies of requests that simulated, seconds.
    misses: Vec<f64>,
    /// Each miss's request and served report text, checked afterwards.
    served_misses: Vec<(SubmitRequest, String)>,
    /// Hit request and response lines, for the codec probes.
    lines: Vec<(String, String)>,
}

impl Window {
    /// Adds `other`'s observations (and elapsed time) to this window.
    fn absorb(&mut self, other: Window) {
        self.elapsed += other.elapsed;
        self.completed += other.completed;
        self.hits.extend(other.hits);
        self.misses.extend(other.misses);
        self.served_misses.extend(other.served_misses);
        self.lines.extend(other.lines);
    }
}

/// The requests of connection `conn`: indices into the deal.
fn share(schedule: &Schedule, conn: usize) -> Vec<usize> {
    (0..schedule.requests.len())
        .filter(|&i| schedule.requests[i].conn == conn)
        .collect()
}

/// Drives the daemon closed-loop for `seconds`.
#[allow(clippy::too_many_arguments)]
fn drive(
    d: &mut Daemon,
    seconds: f64,
    schedule: &Schedule,
    miss_mask: &[bool],
    pool: &[SubmitRequest],
    pool_texts: &[String],
    misses: &[SubmitRequest],
    next_miss: &AtomicUsize,
    log: Option<&SpanLog>,
    check: &mut Check,
) -> Result<Window, String> {
    let start = Instant::now();
    let parts: Vec<Result<(Window, Check), String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            d.clients
                .iter_mut()
                .zip(&d.tokens)
                .zip(d.cursors.iter_mut())
                .enumerate()
                .map(|(conn, ((client, token), cursor))| {
                    s.spawn(move || -> Result<(Window, Check), String> {
                        let mine = share(schedule, conn);
                        let mut w = Window::default();
                        let mut check = Check::default();
                        let mut k = *cursor;
                        while start.elapsed().as_secs_f64() < seconds {
                            let i = mine[k % mine.len()];
                            let first_lap = k < mine.len();
                            k += 1;
                            let miss = if first_lap && miss_mask[i] {
                                // Relaxed: the counter only hands out distinct cells.
                                let j = next_miss.fetch_add(1, Ordering::Relaxed);
                                misses.get(j)
                            } else {
                                None
                            };
                            let cell = schedule.requests[i].cell;
                            let mut req = miss.unwrap_or(&pool[cell]).clone();
                            req.token = Some(token.clone());
                            let line = submit_line(&client.fresh_id(), &req);
                            let trace = (conn as u64) << 32 | k as u64;
                            let mut round_trip =
                                |parent: Option<u64>| -> Result<(String, Response), String> {
                                    client.send_line(&line).map_err(|e| format!("send: {e}"))?;
                                    let resp = client
                                        .recv_line()
                                        .map_err(|e| format!("receive: {e}"))?
                                        .ok_or("daemon closed the connection")?;
                                    let parsed = match log {
                                        Some(log) => {
                                            log.span("serve.decode", trace, parent, |_| {
                                                parse_response(&resp)
                                            })
                                            .0
                                        }
                                        None => parse_response(&resp),
                                    }?;
                                    Ok((resp, parsed))
                                };
                            let (result, secs) = match log {
                                Some(log) => log
                                    .span("serve.request", trace, None, |id| round_trip(Some(id))),
                                None => {
                                    let t = Instant::now();
                                    let r = round_trip(None);
                                    (r, t.elapsed().as_secs_f64())
                                }
                            };
                            let (resp_line, response) = result?;
                            w.completed += 1;
                            match response {
                                Response::Report { cached, report, .. } => {
                                    if cached {
                                        w.hits.push(secs);
                                    } else {
                                        w.misses.push(secs);
                                    }
                                    if miss.is_some() {
                                        check_later(&mut w, &mut check, req, cached, &report);
                                    } else {
                                        check.expect(
                                            cached && report.to_cache_text() == pool_texts[cell],
                                            || format!("pool cell {cell}: served report differs"),
                                        );
                                        if log.is_some() && w.lines.len() < KEPT_LINES {
                                            w.lines.push((line, resp_line));
                                        }
                                    }
                                }
                                other => {
                                    check.expect(false, || format!("unexpected response {other:?}"))
                                }
                            }
                        }
                        *cursor = k;
                        Ok((w, check))
                    })
                })
                .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a connection thread panicked".into()))
            })
            .collect()
    });
    let mut all = Window {
        elapsed: start.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for part in parts {
        let (w, c) = part?;
        all.absorb(Window { elapsed: 0.0, ..w });
        check.attempted += c.attempted;
        check.failed += c.failed;
        check.notes.extend(c.notes);
    }
    Ok(all)
}

/// A miss must not be answered from cache; its text is checked against
/// `execute_cell` after the window.
fn check_later(
    w: &mut Window,
    check: &mut Check,
    req: SubmitRequest,
    cached: bool,
    report: &CellReport,
) {
    if cached {
        check.expect(false, || {
            format!(
                "never-seen {} {:?} was answered cached",
                req.workload, req.size
            )
        });
    } else {
        w.served_misses.push((req, report.to_cache_text()));
    }
}

/// Checks every served miss against `execute_cell`.
fn check_misses(
    served: &[(SubmitRequest, String)],
    threads: usize,
    check: &mut Check,
) -> Result<(), String> {
    let specs: Vec<CellSpec> = served
        .iter()
        .map(|(r, _)| r.to_spec())
        .collect::<Result<_, _>>()?;
    let reference = par_execute(&specs, threads)?;
    for ((req, text), r) in served.iter().zip(&reference) {
        check.expect(r.to_cache_text() == *text, || {
            format!(
                "never-seen {} {:?}: served report differs",
                req.workload, req.size
            )
        });
    }
    Ok(())
}

/// ns per call of each protocol step, timed on the window's own lines.
fn codec_probe(lines: &[(String, String)]) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    if lines.is_empty() {
        return Err("no served lines to time the codec on".into());
    }
    let requests: Vec<SubmitRequest> = lines
        .iter()
        .map(|(l, _)| match parse_request(l) {
            Ok((_, Request::Submit(r))) => Ok(r),
            other => Err(format!("kept line is not a submit: {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let reports: Vec<CellReport> = lines
        .iter()
        .map(|(_, r)| match parse_response(r) {
            Ok(Response::Report { report, .. }) => Ok(*report),
            other => Err(format!("kept response is not a report: {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let at = |i: usize| i % lines.len();
    let probes: [(&str, Vec<f64>); 4] = [
        (
            "serve.parse_request_ns",
            crate::probes::batched_ns(200, 50, |i| {
                black_box(parse_request(black_box(&lines[at(i)].0)).is_ok());
            }),
        ),
        (
            "serve.to_spec_ns",
            crate::probes::batched_ns(200, 50, |i| {
                black_box(requests[at(i)].to_spec().is_ok());
            }),
        ),
        (
            "serve.encode_ns",
            crate::probes::batched_ns(200, 50, |i| {
                black_box(report_response("1", true, false, &reports[at(i)]));
            }),
        ),
        (
            "serve.decode_ns",
            crate::probes::batched_ns(200, 50, |i| {
                black_box(parse_response(black_box(&lines[at(i)].1)).is_ok());
            }),
        ),
    ];
    for (name, samples) in probes {
        m.push_pct(name, &samples, 50, 1.0, "ns");
    }
    Ok(m)
}

/// Runs `serve` for one benchmark run.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut check = Check::default();
    let pool = pool(cfg.seed);
    let misses = misses(cfg.seed);
    let (schedule, miss_mask) = schedule(cfg.seed, cfg.threads);
    let pool_specs: Vec<CellSpec> = pool
        .iter()
        .map(SubmitRequest::to_spec)
        .collect::<Result<_, _>>()?;
    let pool_reports = par_execute(&pool_specs, cfg.threads)?;
    let pool_texts: Vec<String> = pool_reports.iter().map(CellReport::to_cache_text).collect();

    // Set-up: daemon start, pool pre-warm and connect, repeated so its
    // median is steady; the last daemon serves the window.
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut connects = Vec::new();
    let mut daemon = None;
    while !enough_setups(&setups) {
        if let Some(d) = daemon.take() {
            stop(d);
        }
        let (d, setup, start_s, connect_us) = start(cfg, &pool, &pool_texts, &mut check)?;
        setups.push(setup);
        starts.push(start_s);
        connects.extend(connect_us);
        daemon = Some(d);
    }
    let mut d = daemon.expect("at least one set-up");
    let next_miss = AtomicUsize::new(0);
    let drive_for = |d: &mut Daemon, log: Option<&SpanLog>, check: &mut Check| {
        drive(
            d,
            SLICE_S.min(cfg.seconds),
            &schedule,
            &miss_mask,
            &pool,
            &pool_texts,
            &misses,
            &next_miss,
            log,
            check,
        )
    };
    // The measurement window, in slices; a traced run alternates untraced
    // and traced slices, so the tracing overhead is not confounded with
    // the host's speed drifting between two halves.
    let log = SpanLog::new();
    let mut untraced = Window::default();
    let mut traced = Window::default();
    let start = Instant::now();
    let mut failure = None;
    while untraced.completed == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        match drive_for(&mut d, None, &mut check) {
            Ok(w) => untraced.absorb(w),
            Err(e) => failure = Some(e),
        }
        if cfg.traced && failure.is_none() {
            match drive_for(&mut d, Some(&log), &mut check) {
                Ok(w) => traced.absorb(w),
                Err(e) => failure = Some(e),
            }
        }
        if failure.is_some() {
            break;
        }
    }
    let status = stop(d);
    if let Some(e) = failure {
        return Err(e);
    }
    check_misses(&untraced.served_misses, cfg.threads, &mut check)?;

    let mut m = Metrics::default();
    m.push_with("setup_s", median(&setups), "s", Some(setups.len()));
    let rate = untraced.completed as f64 / untraced.elapsed;
    m.push_with(
        "cells_per_s",
        rate,
        "1/s",
        Some(untraced.completed as usize),
    );
    m.push_with("req_per_s", rate, "1/s", Some(untraced.completed as usize));
    m.push_pct("hit_p50_us", &untraced.hits, 50, 1e6, "us");
    m.push_pct("hit_p99_us", &untraced.hits, 99, 1e6, "us");
    m.push_round_mean("hit_mean_us", &untraced.hits, POOL, 1e6, "us");
    m.push_pct("miss_p50_us", &untraced.misses, 50, 1e6, "us");
    m.push_pct("miss_p99_us", &untraced.misses, 99, 1e6, "us");

    let mut out = Outcome {
        schedule_digest: inputs_digest(cfg.seed, cfg.threads),
        output_digest: crate::grid::texts_digest(&pool_texts),
        cells: pool_specs.clone(),
        ..Outcome::default()
    };
    if cfg.traced {
        check_misses(&traced.served_misses, cfg.threads, &mut check)?;
        let traced_rate = traced.completed as f64 / traced.elapsed;
        m.push("trace.overhead_frac", rate / traced_rate - 1.0, "frac");
        m.push_with("serve.start_s", median(&starts), "s", Some(starts.len()));
        m.push_with(
            "serve.connect_us",
            median(&connects),
            "us",
            Some(connects.len()),
        );
        m.extend(codec_probe(&traced.lines)?);
        m.push(
            "serve.jobs_submitted",
            status.jobs_submitted as f64,
            "count",
        );
        m.push("serve.executed", status.executed as f64, "count");
        m.push("serve.memo_hits", status.memo_hits as f64, "count");
        m.push("serve.coalesced", status.coalesced as f64, "count");
        m.push(
            "serve.protocol_errors",
            status.protocol_errors as f64,
            "count",
        );
        m.push(
            "serve.cache_store_failures",
            status.cache_store_failures as f64,
            "count",
        );
        m.push(
            "serve.memo_hit_ratio",
            status.memo_hits as f64 / status.jobs_submitted.max(1) as f64,
            "frac",
        );
        m.push("harness.cells_executed", status.executed as f64, "count");
        m.push("harness.cache_hits", status.cache_hits as f64, "count");
        m.push("harness.memo_hits", status.memo_hits as f64, "count");

        // The pool cells, run once through the harness so the shared
        // machine, sim and core layers are measured on them.
        let dir = cfg.scratch.fresh("cells");
        let pass = traced_pass(&log, &pool_specs, &dir, u64::from(u32::MAX), &mut check)?;
        cfg.scratch.remove(&dir);
        m.extend(pass_metrics(std::slice::from_ref(&pass)));
        let dir = cfg.scratch.fresh("probe");
        let (layers, replays) = cell_layers(&log, &pool_specs, &pass, &dir, &mut check)?;
        cfg.scratch.remove(&dir);
        m.extend(layers);
        let hit_p50_ns = percentile(&untraced.hits, 50).map_or(0.0, |p| p.value * 1e9);
        let attributed: f64 = [
            "serve.parse_request_ns",
            "serve.to_spec_ns",
            "harness.digest_ns_p50",
            "harness.memo_lookup_ns_p50",
            "serve.encode_ns",
            "serve.decode_ns",
        ]
        .iter()
        .map(|name| m.value(name))
        .sum();
        m.push(
            "serve.unattributed_hit_us",
            (hit_p50_ns - attributed) / 1e3,
            "us",
        );
        out.replays = replays;
        out.spans = log.spans();
    }
    out.metrics = m;
    out.check = check;
    Ok(out)
}

/// Closes the clients, shuts the daemon down and waits for every one of
/// its threads; returns its final counters.
fn stop(d: Daemon) -> ctbia_serve::StatusSnapshot {
    drop(d.clients);
    d.handle.shutdown();
    d.handle.join()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_digest() {
        assert_eq!(inputs_digest(3, 2), inputs_digest(3, 2));
        assert_ne!(inputs_digest(3, 2), inputs_digest(4, 2));
    }

    #[test]
    fn pool_and_misses_are_distinct_cells() {
        let pool = pool(9);
        let misses = misses(9);
        let mut digests: Vec<u128> = pool
            .iter()
            .chain(&misses)
            .map(|r| r.to_spec().unwrap().digest())
            .collect();
        let n = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), n, "every pool and miss cell is distinct");
        let (_, mask) = schedule(9, 2);
        let share = mask.iter().filter(|&&m| m).count() as f64 / mask.len() as f64;
        assert!(
            (share - 0.1).abs() < 0.01,
            "about one miss in ten, got {share}"
        );
    }
}
