//! Property tests tying the static analyzer to the dynamic verifier.
//!
//! Two directions, fuzzed over workloads, sizes, seeds, and strategies:
//!
//! * **Superset** — every violation the dynamic taint sanitizer reports
//!   while actually executing the cell is also found by the static lint
//!   on the extracted access program (same kind, same context string).
//!   The static pass may find strictly more (it judges ds ops the
//!   dynamic facade lets through), never less.
//! * **Agreement with the oracle** — whenever the trace-equivalence
//!   oracle proves a protected cell noninterferent over a seed family,
//!   the abstract leakage bound is exactly zero: the static certificate
//!   is at least as strong as the dynamic evidence.

use ctbia_analyze::{execute_analyze_cell, extract, lint, AnalyzeCell};
use ctbia_harness::{CellSpec, CryptoKernel, StrategySpec, WorkloadSpec};
use ctbia_machine::{BiaPlacement, Machine};
use ctbia_verify::{leak_kind_tag, taint_check, trace_equivalence};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn workload_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (0usize..6, 16usize..200, any::<u64>()).prop_map(|(which, size, seed)| match which {
        0 => WorkloadSpec::Dijkstra {
            vertices: 8 + size % 24,
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
        _ => WorkloadSpec::LeakyBinarySearch {
            size,
            searches: 1 + size % 8,
            seed,
        },
    })
}

/// Ghostrider workloads and the eight crypto kernels.
fn any_workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        workload_strategy(),
        (0usize..8).prop_map(|k| WorkloadSpec::Crypto(CryptoKernel::ALL[k])),
    ]
}

fn spec_strategy() -> impl Strategy<Value = StrategySpec> {
    prop_oneof![
        Just(StrategySpec::Insecure),
        Just(StrategySpec::Ct),
        Just(StrategySpec::Bia),
        Just(StrategySpec::BiaLoads),
    ]
}

/// The comparable fingerprint of a violation: kind tag plus the
/// kernel-supplied context string (identical in both analyses because
/// both run the same kernel body).
fn fingerprints(violations: &[ctbia_core::taint::LeakViolation]) -> BTreeSet<(String, String)> {
    violations
        .iter()
        .map(|v| (leak_kind_tag(v.kind).to_string(), v.context.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn static_lint_finds_everything_the_dynamic_sanitizer_does(
        workload in any_workload(),
        strategy in spec_strategy(),
    ) {
        let spec = CellSpec::new(workload, strategy, BiaPlacement::L1d);
        let mut m = Machine::new(spec.machine_config()).unwrap();
        let dynamic = taint_check(&mut m, &spec.workload, strategy.to_strategy());

        let program = extract(&spec.workload);
        let cfg = spec.machine_config();
        let derived = lint(&program, &strategy.to_strategy(), cfg.bia_granularity_log2());

        let dyn_set = fingerprints(&dynamic.violations);
        let static_set = fingerprints(&derived);
        prop_assert!(
            dyn_set.is_subset(&static_set),
            "dynamic-only findings: {:?}",
            dyn_set.difference(&static_set).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn oracle_equivalence_implies_a_zero_bound(
        workload in workload_strategy(),
        strategy in prop_oneof![
            Just(StrategySpec::Ct),
            Just(StrategySpec::Bia),
            Just(StrategySpec::BiaLoads),
        ],
        seed_base in any::<u64>(),
    ) {
        if matches!(workload, WorkloadSpec::LeakyBinarySearch { .. }) {
            // The leaky control fails the oracle; nothing to relate.
            return;
        }
        let spec = CellSpec::new(workload, strategy, BiaPlacement::L1d);
        let seeds: Vec<u64> = (0..3u64)
            .map(|i| seed_base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let oracle = trace_equivalence(&spec, &seeds).unwrap();
        prop_assert!(oracle.equal, "protected cell must pass the oracle");

        let report = execute_analyze_cell(&AnalyzeCell::new(spec)).unwrap();
        prop_assert_eq!(report.trace_millibits, 0, "{}", report);
        prop_assert!(report.certified(), "{}", report);
    }
}
