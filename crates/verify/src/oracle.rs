//! The trace-equivalence oracle: a black-box noninterference check.
//!
//! The sanitizer ([`crate::kernels`]) argues from *inside* the program;
//! the oracle argues from *outside*. It replays one workload cell under
//! a family of secrets — [`CellSpec::build_reseeded`](ctbia_harness::WorkloadSpec::build_reseeded)
//! varies only the secret inputs, never the public structure — and
//! asserts that the machine's **observation trace** (demand line-address
//! sequence plus `CTLoad`/`CTStore` response bitmaps plus LLC probe
//! slices; see `ctbia_machine::ObsTrace`) is byte-identical across all
//! of them. If any pair of secrets produces different observations, an
//! attacker watching the memory system can distinguish them — a leak,
//! whatever the taint analysis thought.
//!
//! The two analyses are complementary: the sanitizer localizes bugs with
//! provenance but only covers mirrored kernels; the oracle covers any
//! runnable workload (crypto included) but reports only the first
//! divergence, not its cause.

use ctbia_harness::CellSpec;
use ctbia_machine::{Machine, ObsTrace};

/// What the oracle concluded for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Number of secret pairs in the seed family (`seeds - 1`: every later
    /// seed against the first). It stays `seeds - 1` when the oracle stops
    /// at an early divergence, so it counts the pairs scheduled, not the
    /// pairs actually compared.
    pub pairs: u64,
    /// Whether every trace was identical.
    pub equal: bool,
    /// Description of the first differing observation, when not equal.
    pub first_divergence: Option<String>,
    /// Digest of the (first) observation trace — the cell's observable
    /// fingerprint, cacheable and comparable across runs.
    pub obs_digest: u64,
}

/// Replays `spec`'s workload once per seed and compares observation
/// traces pairwise against the first. Returns at the first divergence.
///
/// All runs share one machine, reset between seeds, and every later
/// seed records into the buffers of the previous, already-compared
/// trace, so a cell builds one machine and at most two traces whatever
/// the number of seeds.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid or
/// fewer than two seeds are supplied (no pair to compare).
pub fn trace_equivalence(spec: &CellSpec, seeds: &[u64]) -> Result<OracleOutcome, String> {
    if seeds.len() < 2 {
        return Err(format!(
            "{}: trace equivalence needs at least two seeds, got {}",
            spec.label(),
            seeds.len()
        ));
    }
    let (seed0, rest) = (seeds[0], &seeds[1..]);
    let mut m =
        Machine::new(spec.machine_config()).map_err(|e| format!("{}: {e}", spec.label()))?;
    let trace0 = observe(&mut m, spec, seed0, ObsTrace::default());
    let mut spare = ObsTrace::default();
    for &seed in rest {
        m.reset();
        let trace = observe(&mut m, spec, seed, spare);
        if let Some(diff) = trace0.first_divergence(&trace) {
            return Ok(OracleOutcome {
                pairs: rest.len() as u64,
                equal: false,
                first_divergence: Some(format!("secrets {seed0:#x} vs {seed:#x}: {diff}")),
                obs_digest: trace0.digest(),
            });
        }
        spare = trace;
    }
    Ok(OracleOutcome {
        pairs: rest.len() as u64,
        equal: true,
        first_divergence: None,
        obs_digest: trace0.digest(),
    })
}

/// One observed run on `m` (fresh or reset), recording into `buf`'s
/// vectors, with the workload reseeded with `seed`.
fn observe(m: &mut Machine, spec: &CellSpec, seed: u64, buf: ObsTrace) -> ObsTrace {
    m.enable_observation_into(buf);
    let wl = spec.workload.build_reseeded(seed);
    let _ = wl.run(m, spec.strategy.to_strategy());
    m.take_observation()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_harness::{StrategySpec, WorkloadSpec};
    use ctbia_machine::BiaPlacement;

    fn cell(name: &str, size: usize, strategy: StrategySpec) -> CellSpec {
        CellSpec::new(
            WorkloadSpec::named(name, size).unwrap(),
            strategy,
            BiaPlacement::L1d,
        )
    }

    #[test]
    fn ct_histogram_traces_are_equal() {
        let outcome = trace_equivalence(&cell("hist", 150, StrategySpec::Ct), &[1, 2, 3]).unwrap();
        assert!(outcome.equal, "{:?}", outcome.first_divergence);
        assert_eq!(outcome.pairs, 2);
        assert_ne!(outcome.obs_digest, 0);
    }

    #[test]
    fn leaky_search_traces_diverge() {
        let outcome =
            trace_equivalence(&cell("leaky-bin", 200, StrategySpec::Insecure), &[1, 2]).unwrap();
        assert!(!outcome.equal);
        let diff = outcome.first_divergence.unwrap();
        assert!(diff.contains("secrets 0x1 vs 0x2"), "{diff}");
    }

    #[test]
    fn too_few_seeds_is_an_error() {
        let err = trace_equivalence(&cell("hist", 100, StrategySpec::Ct), &[1]).unwrap_err();
        assert!(err.contains("at least two seeds"), "{err}");
    }
}
