//! Contention and resource-limit stress tests:
//!
//! * clients racing on **identical digests** share one execution per
//!   digest — the coalescing map catches the overlap in flight, the memo
//!   index catches anything slower, and either way each distinct cell
//!   simulates once;
//! * a cache entry **corrupted mid-run** silently re-simulates: both
//!   clients asking for the poisoned digest get correct, byte-identical
//!   reports and the entry is repaired on disk;
//! * the per-connection in-flight cap turns excess pipelined submits into
//!   typed `backpressure` rejections instead of unbounded queueing;
//! * the global `queue_limit` high-water mark sheds fresh digests with a
//!   typed `overloaded` while still admitting coalescers;
//! * a worker panic under coalescing fails **every** waiter with a typed
//!   `cell-failed` and the supervisor respawns the worker.
//!
//! Timing knobs (`worker_delay_ms`, single-thread pools) make the races
//! deterministic rather than probabilistic.

use ctbia_harness::{CellSpec, DiskCache, StrategySpec, SweepEngine, WorkloadSpec};
use ctbia_machine::BiaPlacement;
use ctbia_serve::{ChaosSpec, Client, ErrorCode, Response, Server, ServerConfig, SubmitRequest};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::thread;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctbia-serve-stress-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The cell every contention test fights over, in both wire and local form.
fn contended_request() -> SubmitRequest {
    SubmitRequest {
        workload: "histogram".to_string(),
        size: Some(350),
        strategy: Some("bia".to_string()),
        placement: Some("l1d".to_string()),
        eval: false,
        deadline_ms: None,
        token: None,
    }
}

fn contended_spec() -> CellSpec {
    CellSpec::new(
        WorkloadSpec::named("histogram", 350).unwrap(),
        StrategySpec::Bia,
        BiaPlacement::L1d,
    )
}

fn expect_report(response: Response) -> String {
    match response {
        Response::Report { report, .. } => report.to_cache_text(),
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn racing_identical_digests_share_one_execution() {
    let dir = tmp_dir("race");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    // As many workers as racers per digest: were duplicates not
    // coalesced, the first jobs popped would include two of one digest,
    // executing side by side.
    config.threads = 4;
    config.cache_dir = Some(dir.join("cache"));
    // Hold each job long enough that every racer's submit lands while
    // the first job of its digest is still executing.
    config.worker_delay_ms = 100;
    let handle = Server::start(config).unwrap();

    const DIGESTS: usize = 2;
    const RACERS_PER_DIGEST: usize = 4;
    let clients = DIGESTS * RACERS_PER_DIGEST;
    let barrier = Arc::new(Barrier::new(clients));
    let racers: Vec<_> = (0..clients)
        .map(|i| {
            let socket = socket.clone();
            let barrier = Arc::clone(&barrier);
            let mut request = contended_request();
            request.size = Some(350 + (i % DIGESTS) as u64);
            thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                barrier.wait();
                expect_report(client.submit(&request).unwrap())
            })
        })
        .collect();
    let texts: Vec<String> = racers.into_iter().map(|r| r.join().unwrap()).collect();
    for (i, text) in texts.iter().enumerate() {
        assert_eq!(
            text,
            &texts[i % DIGESTS],
            "racers on one digest must see the same report bytes"
        );
    }
    assert_ne!(texts[0], texts[1], "the digests are distinct cells");

    let snapshot = handle.join();
    assert_eq!(snapshot.jobs_submitted, texts.len() as u64);
    assert_eq!(
        snapshot.executed, DIGESTS as u64,
        "each distinct digest must execute exactly once"
    );
    assert_eq!(
        snapshot.cache_hits + snapshot.memo_hits + snapshot.coalesced,
        (texts.len() - DIGESTS) as u64,
        "every other racer must coalesce onto its digest's job or hit its memoized result"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entry_mid_run_is_resimulated_for_both_clients() {
    let dir = tmp_dir("corrupt");
    let socket = dir.join("ctbia.sock");
    let cache_dir = dir.join("cache");
    // Prime the cache with the genuine article before the daemon starts,
    // so the entry is on disk but not in the daemon's memo index.
    let pristine = SweepEngine::serial()
        .with_cache(DiskCache::open(&cache_dir).unwrap())
        .run_cell(&contended_spec())
        .unwrap()
        .to_cache_text();
    let entry = cache_dir.join(contended_spec().digest_hex());
    assert!(entry.is_file(), "expected a cache entry at {entry:?}");

    let mut config = ServerConfig::new(&socket);
    config.threads = 2;
    config.cache_dir = Some(cache_dir.clone());
    let handle = Server::start(config).unwrap();
    // Startup recovery has run; poison the entry the way a torn write or
    // bit flip would, before any submit reads it.
    fs::write(&entry, "scrambled mid-run").unwrap();

    // Two clients ask for the poisoned digest concurrently. The load
    // fails closed, the cell re-simulates (once: the second client
    // coalesces onto the job or hits its memoized result), and both get
    // bytes identical to the pristine report.
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                expect_report(client.submit(&contended_request()).unwrap())
            })
        })
        .collect();
    for client in clients {
        assert_eq!(
            client.join().unwrap(),
            pristine,
            "a corrupt cache entry must re-simulate to the same bytes"
        );
    }

    let snapshot = handle.join();
    assert_eq!(snapshot.jobs_failed, 0);
    assert_eq!(
        snapshot.executed, 1,
        "one re-simulation after corruption; never a second"
    );
    // The re-simulation repaired the on-disk entry.
    let repaired = fs::read_to_string(&entry).unwrap();
    assert_eq!(repaired, pristine);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn excess_pipelined_submits_get_backpressure_rejections() {
    let dir = tmp_dir("backpressure");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.max_inflight = 1;
    config.cache_dir = None;
    // The first job occupies the single worker long enough for the other
    // two submits to be read and judged while it is still in flight.
    config.worker_delay_ms = 300;
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    for size in [201u64, 202, 203] {
        client
            .send_submit(&SubmitRequest {
                workload: "hist".to_string(),
                size: Some(size),
                strategy: Some("insecure".to_string()),
                placement: None,
                eval: false,
                deadline_ms: None,
                token: None,
            })
            .unwrap();
    }
    let mut reports = 0;
    let mut rejections = 0;
    for _ in 0..3 {
        match client.recv_response().unwrap() {
            Response::Report { .. } => reports += 1,
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Backpressure);
                rejections += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!((reports, rejections), (1, 2));

    let snapshot = handle.join();
    assert_eq!(snapshot.backpressure_rejections, 2);
    assert_eq!(snapshot.jobs_completed, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_sheds_fresh_digests_but_still_admits_coalescers() {
    let dir = tmp_dir("shed");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = None;
    // One job fills the whole queue; hold it long enough to judge the
    // other submits while it is in flight.
    config.queue_limit = 1;
    config.worker_delay_ms = 300;
    let handle = Server::start(config).unwrap();

    let mut client = Client::connect(&socket).unwrap();
    // Occupies the queue's single slot.
    client.send_submit(&contended_request()).unwrap();
    thread::sleep(std::time::Duration::from_millis(100));
    // A fresh digest must be shed with the global `overloaded`, not the
    // per-connection `backpressure` (this connection is nowhere near its
    // in-flight cap).
    let mut fresh = contended_request();
    fresh.size = Some(351);
    client.send_submit(&fresh).unwrap();
    // A duplicate of the in-flight digest costs no new execution and is
    // always admitted, even with the queue at its high-water mark.
    let mut coalescer = Client::connect(&socket).unwrap();
    coalescer.send_submit(&contended_request()).unwrap();

    match client.recv_response().unwrap() {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(message.contains("limit"), "sheds name the limit: {message}");
        }
        other => panic!("expected overloaded for the fresh digest, got {other:?}"),
    }
    let first = expect_report(client.recv_response().unwrap());
    let shared = expect_report(coalescer.recv_response().unwrap());
    assert_eq!(first, shared, "the admitted coalescer shares the result");

    let snapshot = handle.join();
    assert_eq!(snapshot.shed_submits, 1);
    assert_eq!(snapshot.coalesced, 1);
    assert_eq!(snapshot.executed, 1);
    assert_eq!(
        snapshot.jobs_submitted, 2,
        "a shed submit never counts as submitted"
    );
    assert_eq!(snapshot.backpressure_rejections, 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn coalesced_panic_fails_both_clients_and_respawns_the_worker() {
    let dir = tmp_dir("panic");
    let socket = dir.join("ctbia.sock");
    let mut config = ServerConfig::new(&socket);
    config.threads = 1;
    config.cache_dir = Some(dir.join("cache"));
    // Hold the job long enough that the second submit coalesces onto it
    // before the injected panic fires.
    config.worker_delay_ms = 300;
    config.chaos = Some(ChaosSpec::parse("panic:1,seed:9").unwrap());
    let handle = Server::start(config).unwrap();

    let barrier = Arc::new(Barrier::new(2));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                barrier.wait();
                client.submit(&contended_request()).unwrap()
            })
        })
        .collect();
    for client in clients {
        match client.join().unwrap() {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::CellFailed);
                assert!(
                    message.contains("panic"),
                    "both coalesced waiters hear the panic: {message}"
                );
            }
            other => panic!("expected cell_failed for both waiters, got {other:?}"),
        }
    }

    // The failed digest left the coalescing map: a follow-up submit of
    // the same cell starts fresh on the respawned worker and succeeds.
    let mut retry = Client::connect(&socket).unwrap();
    let text = expect_report(retry.submit(&contended_request()).unwrap());
    assert_eq!(
        text,
        ctbia_harness::execute_cell(&contended_spec())
            .unwrap()
            .to_cache_text(),
        "the rerun matches a from-scratch execution byte for byte"
    );

    let snapshot = handle.join();
    assert_eq!(snapshot.jobs_failed, 1, "one job failed, two waiters told");
    assert_eq!(snapshot.coalesced, 1);
    assert_eq!(snapshot.worker_restarts, 1);
    assert_eq!(snapshot.inflight_jobs, 0, "no inflight entry leaks");
    let _ = fs::remove_dir_all(&dir);
}
