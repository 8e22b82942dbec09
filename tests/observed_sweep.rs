//! Reference twin for the observed batched sweep: a software
//! constant-time run under observation and a trace sink takes the
//! machine's batched dataflow-set sweep, which emits an event for each
//! of its inline and replayed L1d hits itself.
//! `Machine::disable_fast_paths` forces the plain per-line loop, so the
//! same cell run twice — as is, then with the fast paths off — must give
//! equal observation traces, equal JSONL sink streams (every hit's cycle
//! stamp and statistics delta) and equal counters. Covers the five
//! Ghostrider workloads and every crypto kernel under scalar and AVX2
//! software CT, at three secret seeds.

use ctbia::harness::{CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia::machine::{BiaPlacement, Counters, Machine, ObsTrace};
use ctbia::trace::JsonlSink;

const SEEDS: [u64; 3] = [1, 0x5eed, 0xdead_beef];

fn workloads() -> Vec<WorkloadSpec> {
    let mut out: Vec<WorkloadSpec> = [
        ("dijkstra", 16),
        ("histogram", 300),
        ("permutation", 300),
        ("binary-search", 300),
        ("heappop", 200),
    ]
    .iter()
    .map(|&(name, size)| WorkloadSpec::named(name, size).expect("known workload"))
    .collect();
    out.extend(CryptoKernel::ALL.map(WorkloadSpec::Crypto));
    out
}

/// One observed and traced run of `spec` reseeded with `seed`: its
/// observation trace, counters and JSONL stream. `reference` turns the
/// machine's fast paths off.
fn observe(spec: &CellSpec, seed: u64, reference: bool) -> (ObsTrace, Counters, String) {
    let mut m = Machine::new(spec.machine_config()).expect("valid cell config");
    m.enable_observation();
    m.set_trace_sink(Box::new(JsonlSink::new()));
    if reference {
        m.disable_fast_paths();
    }
    let _ = spec
        .workload
        .build_reseeded(seed)
        .run(&mut m, spec.strategy.to_strategy());
    let counters = m.counters();
    let jsonl = m
        .take_trace_sink()
        .expect("the sink attached above")
        .into_any()
        .downcast::<JsonlSink>()
        .expect("a JSONL sink")
        .into_string();
    (m.take_observation(), counters, jsonl)
}

#[test]
fn batched_observed_sweeps_match_the_per_line_loop() {
    for workload in workloads() {
        for strategy in [StrategySpec::Ct, StrategySpec::CtAvx2] {
            let spec = CellSpec::new(workload, strategy, BiaPlacement::L1d);
            for seed in SEEDS {
                let (batched, batched_counters, batched_jsonl) = observe(&spec, seed, false);
                let (looped, looped_counters, looped_jsonl) = observe(&spec, seed, true);
                assert!(
                    !batched.demand.is_empty(),
                    "{} seed {seed:#x}: nothing observed",
                    spec.label()
                );
                assert_eq!(
                    batched.first_divergence(&looped),
                    None,
                    "{} seed {seed:#x}",
                    spec.label()
                );
                assert_eq!(batched, looped, "{} seed {seed:#x}", spec.label());
                assert_eq!(
                    batched_counters,
                    looped_counters,
                    "{} seed {seed:#x}",
                    spec.label()
                );
                if let Some((i, (a, b))) = batched_jsonl
                    .lines()
                    .zip(looped_jsonl.lines())
                    .enumerate()
                    .find(|(_, (a, b))| a != b)
                {
                    panic!(
                        "{} seed {seed:#x}: event {i} differs\n batched: {a}\n  looped: {b}",
                        spec.label()
                    );
                }
                assert_eq!(
                    batched_jsonl.len(),
                    looped_jsonl.len(),
                    "{} seed {seed:#x}: event streams differ in length",
                    spec.label()
                );
            }
        }
    }
}
