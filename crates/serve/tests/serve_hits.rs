//! Memo-index hits answered on the connection's reader thread.
//!
//! A submit whose digest is already in the daemon's in-memory memo index
//! is answered before the job queue: it never waits behind a worker,
//! never counts against its tenant's quota, and yet leaves every
//! observable count exactly where a queued hit would:
//!
//! * a hit pipelined behind a slow fresh cell is answered first;
//! * a tenant at its `max_inflight` quota still gets its hits;
//! * under chaos, the seeded fault assignment over a serial mix of
//!   indexed and fresh cells is the one the queued design dealt;
//! * the `status --metrics` counter sums equal the sum of the counters of
//!   every report answered, hits included.

use ctbia_harness::counter_fields;
use ctbia_serve::{
    ChaosSpec, Client, ErrorCode, Response, Server, ServerConfig, ServerHandle, SubmitRequest,
    TenantSpec,
};
use ctbia_trace::MetricsDoc;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctbia-serve-hits-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(size: u64, token: Option<&str>) -> SubmitRequest {
    SubmitRequest {
        workload: "hist".to_string(),
        size: Some(size),
        strategy: Some("insecure".to_string()),
        placement: None,
        eval: false,
        deadline_ms: None,
        token: token.map(str::to_string),
    }
}

/// Submits one cell, waits for its report, then for its job to release
/// its quota slot (a worker answers a job's waiters before it releases
/// the job).
fn warm(handle: &ServerHandle, client: &mut Client, req: &SubmitRequest) {
    match client.submit(req).unwrap() {
        Response::Report { cached, .. } => assert!(!cached, "the warm-up simulates"),
        other => panic!("warm-up failed: {other:?}"),
    }
    while handle.status().inflight_jobs > 0 {
        std::thread::yield_now();
    }
}

/// With one worker pinned for 300 ms on a fresh cell, a hit pipelined
/// right behind it is answered first — it never queues behind the
/// worker.
#[test]
fn a_hit_is_answered_ahead_of_a_busy_worker() {
    let dir = tmp_dir("skip");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = None;
    config.worker_delay_ms = 300;
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    warm(&handle, &mut client, &request(800, None));
    let fresh = client.send_submit(&request(801, None)).unwrap();
    let sent = Instant::now();
    let hit = client.send_submit(&request(800, None)).unwrap();
    match client.recv_response().unwrap() {
        Response::Report {
            id,
            cached,
            coalesced,
            ..
        } => {
            let waited = sent.elapsed();
            assert_eq!(id, hit, "the hit is answered before the fresh cell");
            assert!(cached && !coalesced);
            assert!(
                waited < Duration::from_millis(150),
                "the hit waited {waited:?} behind the worker"
            );
        }
        other => panic!("expected the hit's report, got {other:?}"),
    }
    match client.recv_response().unwrap() {
        Response::Report { id, cached, .. } => {
            assert_eq!(id, fresh);
            assert!(!cached);
        }
        other => panic!("expected the fresh cell's report, got {other:?}"),
    }

    let snapshot = handle.join();
    assert_eq!(snapshot.jobs_submitted, 3);
    assert_eq!(snapshot.jobs_completed, 3);
    assert_eq!((snapshot.executed, snapshot.memo_hits), (2, 1));
    let _ = fs::remove_dir_all(&dir);
}

/// A tenant whose one quota slot is taken by a slow fresh cell still
/// gets its hits: they cost no execution and no queue slot, so they are
/// always admitted.
#[test]
fn a_hit_is_admitted_at_the_tenants_quota() {
    let dir = tmp_dir("quota");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = None;
    config.worker_delay_ms = 300;
    config.tenants = vec![TenantSpec::parse("capped:tok-c:1").unwrap()];
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    warm(&handle, &mut client, &request(810, Some("tok-c")));
    let fresh = client.send_submit(&request(811, Some("tok-c"))).unwrap();
    let hit = client.send_submit(&request(810, Some("tok-c"))).unwrap();
    for _ in 0..2 {
        match client.recv_response().unwrap() {
            Response::Report { id, cached, .. } => {
                assert!(id == fresh || (id == hit && cached), "report {id}");
            }
            other => panic!("both submits are admitted, got {other:?}"),
        }
    }

    let snapshot = handle.join();
    assert_eq!(snapshot.quota_rejections, 0);
    assert_eq!(snapshot.jobs_completed, 3);
    assert_eq!(snapshot.memo_hits, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A fixed serial mix of indexed and fresh cells under a mixed chaos
/// budget. Every submit that would create a job draws from the budget in
/// submit order, an indexed hit included: the hit that draws the panic
/// is queued and fails typed even though its cell is indexed, and the
/// io fault armed by another hit fails the next fresh cell's store.
#[test]
fn chaos_deals_the_same_faults_to_a_mix_of_hits_and_misses() {
    let dir = tmp_dir("chaos");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = Some(dir.join("cache"));
    config.chaos = Some(ChaosSpec::parse("panic:2,stall:2,io:1,stall-ms:5,seed:50").unwrap());
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    let sizes = [820u64, 820, 821, 820, 821, 822, 820, 822, 823, 821];
    let outcomes: Vec<&str> = sizes
        .iter()
        .map(|&size| match client.submit(&request(size, None)).unwrap() {
            Response::Report { cached: true, .. } => "hit",
            Response::Report { cached: false, .. } => "run",
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::CellFailed);
                "failed"
            }
            other => panic!("unexpected response {other:?}"),
        })
        .collect();
    // The budget deals stall, panic, stall, io, panic to submits 1-5.
    // Submits 2 and 5 are indexed hits that draw a panic. Submit 4 is a
    // hit that draws the io fault, which fails the store of the next
    // fresh cell (submit 6), so that cell runs again at submit 8.
    assert_eq!(
        outcomes,
        ["run", "failed", "run", "hit", "failed", "run", "hit", "run", "run", "hit"]
    );

    let snapshot = handle.join();
    assert_eq!(snapshot.chaos_injections, 5);
    assert_eq!(snapshot.jobs_failed, 2);
    assert_eq!(snapshot.cache_store_failures, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// After a mix of hits and misses, the `--metrics` counter sums are the
/// sums over every report the client was answered — an inline hit rolls
/// its counters in exactly as a queued one did.
#[test]
fn metrics_sums_cover_every_report_answered() {
    let dir = tmp_dir("metrics");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = Some(dir.join("cache"));
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    let mut expected: Vec<(&'static str, u64)> = Vec::new();
    let mut hits = 0;
    for size in [830u64, 831, 830, 832, 831, 830, 830, 832] {
        match client.submit(&request(size, None)).unwrap() {
            Response::Report { cached, report, .. } => {
                hits += u64::from(cached);
                let fields = counter_fields(&report.counters);
                if expected.is_empty() {
                    expected = fields;
                } else {
                    for (acc, field) in expected.iter_mut().zip(fields) {
                        acc.1 += field.1;
                    }
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(hits, 5);
    let doc = match client.status(true).unwrap() {
        Response::Status {
            metrics: Some(json),
            ..
        } => MetricsDoc::parse(&json).unwrap(),
        other => panic!("expected a status with metrics, got {other:?}"),
    };
    for (key, value) in &expected {
        assert_eq!(doc.get(key), Some(*value), "metrics sum of {key}");
    }
    assert_eq!(doc.get("serve.jobs_submitted"), Some(8));
    assert_eq!(doc.get("serve.jobs_completed"), Some(8));
    assert_eq!(doc.get("serve.memo_hits"), Some(5));
    assert_eq!(doc.get("serve.executed"), Some(3));

    handle.join();
    let _ = fs::remove_dir_all(&dir);
}
