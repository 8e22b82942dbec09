//! Reference twin for the observed batched sweep: a software
//! constant-time run under observation takes the machine's batched
//! dataflow-set sweep, which records its inline L1d hits into the trace
//! itself. Attaching a structured trace sink forces the plain per-line
//! loop, so the same cell run twice — observation only, then observation
//! plus a sink — must give equal observation traces and equal counters.
//! Covers the five Ghostrider workloads and every crypto kernel under
//! scalar and AVX2 software CT, at three secret seeds.

use ctbia::harness::{CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia::machine::{BiaPlacement, Counters, Machine, ObsTrace};
use ctbia::trace::RingBufferSink;

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

/// One observed run of `spec` reseeded with `seed`; `sink` attaches a
/// ring-buffer trace sink, which refuses the batched sweep.
fn observe(spec: &CellSpec, seed: u64, sink: bool) -> (ObsTrace, Counters) {
    let mut m = Machine::new(spec.machine_config()).expect("valid cell config");
    m.enable_observation();
    if sink {
        m.set_trace_sink(Box::new(RingBufferSink::new(1)));
    }
    let _ = spec
        .workload
        .build_reseeded(seed)
        .run(&mut m, spec.strategy.to_strategy());
    let counters = m.counters();
    (m.take_observation(), counters)
}

#[test]
fn batched_observed_sweeps_match_the_per_line_loop() {
    for workload in workloads() {
        for strategy in [StrategySpec::Ct, StrategySpec::CtAvx2] {
            let spec = CellSpec::new(workload, strategy, BiaPlacement::L1d);
            for seed in SEEDS {
                let (batched, batched_counters) = observe(&spec, seed, false);
                let (looped, looped_counters) = observe(&spec, seed, true);
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
            }
        }
    }
}
