//! Reconciliation suite: trace-derived aggregates are not estimates —
//! every number a [`MetricsSink`] accumulates must equal the machine's own
//! counter snapshot *exactly*, and the cycle-attribution phases must
//! partition the cycle count with no remainder. Checked exhaustively over
//! the Ghostrider grid and property-tested over random cells.

use ctbia::harness::{execute_cell, execute_cell_traced, CellSpec, StrategySpec, WorkloadSpec};
use ctbia::machine::{BiaPlacement, RobustnessStats};
use ctbia::trace::{MemOp, MetricsSink};
use proptest::prelude::*;

/// Runs `spec` twice — bare and with a [`MetricsSink`] attached — and
/// asserts byte-level inertness plus exact aggregate reconciliation.
fn check_cell(spec: &CellSpec) {
    let label = spec.label();
    let plain = execute_cell(spec).unwrap();
    let (traced, m) = execute_cell_traced(spec, MetricsSink::new()).unwrap();
    // Attaching a sink must not perturb the simulation in any observable
    // way: same digest, same counters, same cache-text bytes.
    assert_eq!(plain, traced, "{label}: tracing perturbed the report");
    assert_eq!(
        plain.to_cache_text(),
        traced.to_cache_text(),
        "{label}: tracing perturbed the cache encoding"
    );

    let c = &traced.counters;
    // Phases partition the cycle count exactly.
    assert_eq!(
        c.phases.total(),
        c.cycles,
        "{label}: phase totals do not sum to cycles"
    );
    // Hierarchy deltas summed over every event equal the counter snapshot.
    assert_eq!(m.hier, c.hier, "{label}: hierarchy deltas do not reconcile");
    // CT micro-op counts.
    assert_eq!(m.ct_loads, c.ct_loads, "{label}: ct_loads");
    assert_eq!(m.ct_stores, c.ct_stores, "{label}: ct_stores");
    // Linearization-pass aggregates.
    assert_eq!(m.linearize, c.linearize, "{label}: linearize stats");
    // Speculation: every wrong-path access and squash is one event, and
    // the summed wrong-path cycles equal the `speculative` phase — the
    // seventh phase reconciles exactly, like the other six.
    assert_eq!(
        m.spec_accesses, c.spec.wrong_path_accesses,
        "{label}: wrong-path accesses"
    );
    assert_eq!(m.squashes, c.spec.squashes, "{label}: squashes");
    assert_eq!(
        m.spec_cycles, c.phases.speculative,
        "{label}: speculative-phase cycles do not reconcile"
    );
    // The cell text still carries the degraded phase and the robustness
    // counters, but nothing in the machine feeds them.
    assert_eq!(c.phases.degraded, 0, "{label}: degraded phase");
    assert_eq!(c.robust, RobustnessStats::default(), "{label}: robust");
    // The sink saw at least every demand access and CT micro-op (one
    // event each), so a non-trivial cell always produces events.
    let demand: u64 = MemOp::ALL.iter().map(|&op| m.op_count(op)).sum();
    assert!(
        m.events >= demand + m.ct_loads + m.ct_stores,
        "{label}: event total is at least one per access and CT op"
    );
    assert!(m.events > 0, "{label}: cell produced no events");
}

const GHOSTRIDER: &[(&str, usize)] = &[
    ("dijkstra", 8),
    ("histogram", 60),
    ("permutation", 60),
    ("binary-search", 80),
    ("heappop", 64),
];

const STRATEGIES: &[StrategySpec] = &[
    StrategySpec::Insecure,
    StrategySpec::Ct,
    StrategySpec::CtAvx2,
    StrategySpec::Bia,
    StrategySpec::BiaLoads,
];

/// The headline acceptance check: for every Ghostrider workload under
/// every strategy, phase totals sum exactly to total cycles and the trace
/// aggregates reconcile exactly with the counters.
#[test]
fn ghostrider_grid_reconciles_exactly() {
    for &(name, size) in GHOSTRIDER {
        for &strategy in STRATEGIES {
            let spec = CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                strategy,
                BiaPlacement::L1d,
            );
            check_cell(&spec);
        }
    }
}

/// The seventh phase under load: the whole Ghostrider grid again with a
/// 32-entry wrong-path window. Aggregates still reconcile exactly, and
/// the suite is non-vacuous — binary-search's loop branch speculates
/// under every strategy, so the grid must attribute speculative cycles
/// somewhere.
#[test]
fn ghostrider_grid_reconciles_under_speculation() {
    let mut speculative_cycles = 0u64;
    for &(name, size) in GHOSTRIDER {
        for &strategy in STRATEGIES {
            let mut spec = CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                strategy,
                BiaPlacement::L1d,
            );
            spec.config.spec_window = 32;
            check_cell(&spec);
            let report = execute_cell(&spec).unwrap();
            speculative_cycles += report.counters.phases.speculative;
        }
    }
    assert!(
        speculative_cycles > 0,
        "no grid cell opened a speculation window — the sweep is vacuous"
    );
}

/// With `spec-window = 0` the seventh phase does not exist: zero
/// speculative cycles and zero speculation counters across the whole
/// grid, for every strategy.
#[test]
fn speculative_phase_is_zero_across_the_grid_without_a_window() {
    for &(name, size) in GHOSTRIDER {
        for &strategy in STRATEGIES {
            let spec = CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                strategy,
                BiaPlacement::L1d,
            );
            let report = execute_cell(&spec).unwrap();
            assert_eq!(
                report.counters.phases.speculative,
                0,
                "{}: speculative cycles without a window",
                spec.label()
            );
            assert!(
                report.counters.spec.is_zero(),
                "{}: speculation counters without a window",
                spec.label()
            );
        }
    }
}

fn arb_spec() -> impl Strategy<Value = CellSpec> {
    (
        0..GHOSTRIDER.len(),
        0..STRATEGIES.len(),
        0..3usize,
        any::<u64>(),
    )
        .prop_map(|(w, s, p, seed)| {
            // Roughly half the random cells speculate (derived from the
            // seed).
            let spec_window = if seed % 2 == 0 { 32 } else { 0 };
            let (name, base) = GHOSTRIDER[w];
            // Sizes stay small (the base grid already covers bigger runs)
            // but vary with the seed so cells differ meaningfully.
            let size = base / 2 + (seed % 17) as usize;
            let placement = [BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc][p];
            let mut spec = CellSpec::new(
                WorkloadSpec::named(name, size.max(34)).unwrap(),
                STRATEGIES[s],
                placement,
            );
            spec.config.spec_window = spec_window;
            spec
        })
}

/// Tracing compiled in but *off* must be free: the disabled path is a
/// handful of `sink.is_some()` branches and two u64 adds per charge, and
/// in particular takes no hierarchy-stats snapshots. If someone breaks
/// the gating, the untraced path inherits the traced path's snapshot
/// cost and this tripwire fires. Ignored by default (timing-sensitive):
/// run explicitly with `cargo test --release -- --ignored` on a quiet
/// machine.
#[test]
#[ignore = "timing-sensitive; run explicitly with -- --ignored"]
fn disabled_tracing_is_not_slower_than_enabled() {
    use std::time::Instant;
    let spec = CellSpec::new(
        WorkloadSpec::named("histogram", 600).unwrap(),
        StrategySpec::Bia,
        BiaPlacement::L1d,
    );
    let median = |mut samples: Vec<u128>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let rounds = 7;
    let off = median(
        (0..rounds)
            .map(|_| {
                let t = Instant::now();
                execute_cell(&spec).unwrap();
                t.elapsed().as_nanos()
            })
            .collect(),
    );
    let on = median(
        (0..rounds)
            .map(|_| {
                let t = Instant::now();
                execute_cell_traced(&spec, MetricsSink::new()).unwrap();
                t.elapsed().as_nanos()
            })
            .collect(),
    );
    // 2% grace for timer noise: the disabled path must never cost more
    // than the enabled one, which pays for snapshots and aggregation.
    assert!(
        off as f64 <= on as f64 * 1.02,
        "disabled tracing ({off} ns) slower than enabled tracing ({on} ns)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random cells — any workload, strategy, placement and speculation
    /// window — always reconcile exactly.
    #[test]
    fn random_cells_reconcile(spec in arb_spec()) {
        check_cell(&spec);
    }
}
