//! The taint sanitizer runs the measured program, not a copy of it.
//!
//! For every kernel and every strategy, a `taint_check` run and a plain
//! `Workload::run` on fresh, observed machines of the same configuration
//! must leave equal observation traces and equal counters (taint
//! counters aside): the sanitizer's machine performs exactly the
//! accesses, instructions and wrong-path windows the measured run does.

use ctbia_harness::{CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::{BiaPlacement, Counters, Machine, ObsTrace, TaintStats};
use ctbia_verify::taint_check;
use proptest::prelude::*;

const STRATEGIES: [StrategySpec; 5] = [
    StrategySpec::Insecure,
    StrategySpec::Ct,
    StrategySpec::CtAvx2,
    StrategySpec::Bia,
    StrategySpec::BiaLoads,
];

/// Runs `workload` both ways under `strategy` and a `window`-wide
/// speculation window; panics on the first difference.
fn assert_same_run(workload: WorkloadSpec, strategy: StrategySpec, window: u32) {
    let mut spec = CellSpec::new(workload, strategy, BiaPlacement::L1d);
    spec.config.spec_window = window;
    let label = format!("{} @ window {window}", spec.label());
    let observed = || {
        let mut m = Machine::new(spec.machine_config()).unwrap();
        m.enable_observation();
        m
    };
    let finish = |m: &mut Machine| -> (ObsTrace, Counters) {
        let counters = Counters {
            taint: TaintStats::default(),
            ..m.counters()
        };
        (m.take_observation(), counters)
    };

    let mut plain = observed();
    let _ = workload.build().run(&mut plain, strategy.to_strategy());
    let (plain_trace, plain_counters) = finish(&mut plain);

    let mut tainted = observed();
    let outcome = taint_check(&mut tainted, &workload, strategy.to_strategy());
    assert!(outcome.outputs_ok, "{label}: wrong outputs under taint");
    let (taint_trace, taint_counters) = finish(&mut tainted);

    if let Some(d) = plain_trace.first_divergence(&taint_trace) {
        panic!("{label}: observation traces differ: {d}");
    }
    assert_eq!(plain_trace, taint_trace, "{label}");
    assert_eq!(plain_counters, taint_counters, "{label}: counters differ");
}

#[test]
fn every_kernel_and_strategy_runs_the_same_under_the_sanitizer() {
    let mut kernels: Vec<(WorkloadSpec, u32)> = [
        ("dij", 12),
        ("hist", 150),
        ("perm", 150),
        ("bin", 200),
        ("heap", 150),
        ("leaky-bin", 200),
    ]
    .iter()
    .map(|&(name, size)| (WorkloadSpec::named(name, size).unwrap(), 0))
    .collect();
    let spectre = WorkloadSpec::named("spectre", 128).unwrap();
    kernels.extend([(spectre, 0), (spectre, 32)]);
    kernels.extend(CryptoKernel::ALL.map(|k| (WorkloadSpec::Crypto(k), 0)));
    for (workload, window) in kernels {
        for strategy in STRATEGIES {
            assert_same_run(workload, strategy, window);
        }
    }
}

fn ghostrider_workload() -> impl Strategy<Value = WorkloadSpec> {
    (0usize..6, 16usize..160, any::<u64>()).prop_map(|(which, size, seed)| match which {
        0 => WorkloadSpec::Dijkstra {
            vertices: 4 + size % 12,
            seed,
        },
        1 => WorkloadSpec::Histogram { size, seed },
        2 => WorkloadSpec::Permutation { size, seed },
        3 => WorkloadSpec::BinarySearch {
            size,
            searches: 1 + size % 8,
            seed,
        },
        4 => WorkloadSpec::HeapPop {
            size: size.max(2),
            pops: 1 + size % 8,
            seed,
        },
        _ => WorkloadSpec::SpectreGadget {
            size,
            attacks: 1 + size % 8,
            seed,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_cells_run_the_same_under_the_sanitizer(
        workload in ghostrider_workload(),
        which in 0usize..5,
        window in prop_oneof![Just(0u32), Just(2u32), Just(32u32)],
    ) {
        assert_same_run(workload, STRATEGIES[which], window);
    }
}
