//! Analysis cells and their cacheable certification reports.
//!
//! An [`AnalyzeCell`] wraps an experiment [`CellSpec`]; executing it
//! runs the full static pipeline — extraction, lint, abstract
//! interpretation — and folds the verdict into an [`AnalyzeReport`]
//! with its own versioned text encoding ([`ANALYZE_SCHEMA_VERSION`]),
//! stored in the same content-addressed
//! [`DiskCache`](ctbia_harness::DiskCache) as simulation and
//! verification cells. The analysis is a pure function of the spec (no
//! seeds: the extractor never observes a secret value), so the cache
//! key is just the cell digest under the analyze schema marker.

use crate::absint::interpret;
use crate::ir::AccessProgram;
use crate::lint::lint;
use crate::recmem::extract;
use ctbia_core::taint::LeakViolation;
use ctbia_harness::{CellSpec, Digest, WorkloadSpec};
use ctbia_verify::{write_violations, CacheTextReader, STORED_VIOLATIONS};
use std::fmt;

/// Version tag of the certification-report cache encoding. Bump whenever
/// the analyzer's semantics change so stale verdicts miss.
pub const ANALYZE_SCHEMA_VERSION: &str = "ctbia-analyze-v1";

/// One static-analysis cell: the workload/strategy/placement/config to
/// certify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeCell {
    /// The cell under certification.
    pub spec: CellSpec,
}

impl AnalyzeCell {
    /// An analysis cell over `spec`.
    pub fn new(spec: CellSpec) -> Self {
        AnalyzeCell { spec }
    }

    /// Whether this cell is a negative control that *must* fail
    /// certification: the intentionally leaky workload, or any cell run
    /// with no protection at all (the grid excludes the few kernels
    /// whose access pattern is secret-independent even insecurely).
    pub fn expects_leak(&self) -> bool {
        matches!(self.spec.workload, WorkloadSpec::LeakyBinarySearch { .. })
            || self.spec.strategy == ctbia_harness::StrategySpec::Insecure
    }

    /// Human-readable label, e.g. `analyze:bin_600/BIA@L1d`.
    pub fn label(&self) -> String {
        format!("analyze:{}", self.spec.label())
    }

    /// The content digest: the underlying cell digest extended with the
    /// analyze schema marker.
    pub fn digest(&self) -> u128 {
        let mut d = Digest::new();
        d.field_str("analyze", ANALYZE_SCHEMA_VERSION);
        let cell = self.spec.digest();
        d.field_u64("cell.hi", (cell >> 64) as u64);
        d.field_u64("cell.lo", cell as u64);
        d.finish()
    }
}

/// The verdict of one analysis cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// The cell label at execution time.
    pub label: String,
    /// Recorded ops in the extracted access program.
    pub ops: u64,
    /// Of which, linearized (dataflow-set) ops.
    pub ds_ops: u64,
    /// Whether extraction aborted (a secret reached native control
    /// flow — itself a certification failure).
    pub aborted: bool,
    /// Total lint violations, extraction abort causes included (exact
    /// count).
    pub violation_count: u64,
    /// The first few violations, verbatim, for display.
    pub violations: Vec<LeakViolation>,
    /// Abstract leakage upper bound, in millibits; 0 certifies.
    pub trace_millibits: u64,
    /// Cache lines whose final abstract residency is secret-tainted.
    pub state_lines: u64,
    /// Statically predicted instruction count.
    pub predicted_insts: u64,
}

impl AnalyzeReport {
    /// Whether the cell is certified constant-time: extraction
    /// completed, the lint found nothing, and the abstract bound is
    /// exactly zero bits.
    pub fn certified(&self) -> bool {
        !self.aborted && self.violation_count == 0 && self.trace_millibits == 0
    }

    /// Whether the cell behaved as required: certified for protected
    /// cells; caught by **both** passes (a named violation *and* a
    /// positive leakage bound) for an expected-leaky cell.
    pub fn passed(&self, expect_leak: bool) -> bool {
        if expect_leak {
            self.violation_count > 0 && self.trace_millibits > 0
        } else {
            self.certified()
        }
    }

    /// Encodes the report in the versioned cache text format.
    pub fn to_cache_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(ANALYZE_SCHEMA_VERSION);
        out.push('\n');
        out.push_str(&format!("label {}\n", self.label));
        out.push_str(&format!("ops {}\n", self.ops));
        out.push_str(&format!("ds_ops {}\n", self.ds_ops));
        out.push_str(&format!("aborted {}\n", self.aborted as u8));
        out.push_str(&format!("violation_count {}\n", self.violation_count));
        out.push_str(&format!("trace_millibits {}\n", self.trace_millibits));
        out.push_str(&format!("state_lines {}\n", self.state_lines));
        out.push_str(&format!("predicted_insts {}\n", self.predicted_insts));
        write_violations(&mut out, &self.violations);
        out.push_str("end\n");
        out
    }

    /// Decodes a report from the cache text format in one pass, in the
    /// order [`AnalyzeReport::to_cache_text`] writes it. Any anomaly —
    /// wrong version, a missing, reordered or duplicated line, a garbage
    /// value, a missing `end` trailer — returns `None` (a cache miss, so
    /// the cell re-analyzes).
    pub fn from_cache_text(text: &str) -> Option<AnalyzeReport> {
        let mut r = CacheTextReader::open(text, ANALYZE_SCHEMA_VERSION)?;
        // Struct fields evaluate in the order written: the encoding order.
        Some(AnalyzeReport {
            label: r.text("label")?.to_string(),
            ops: r.number("ops")?,
            ds_ops: r.number("ds_ops")?,
            aborted: r.flag("aborted")?,
            violation_count: r.number("violation_count")?,
            trace_millibits: r.number("trace_millibits")?,
            state_lines: r.number("state_lines")?,
            predicted_insts: r.number("predicted_insts")?,
            violations: r.violations_then_end()?,
        })
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.certified() {
            write!(
                f,
                "{}: certified 0 bits over {} op(s) ({} linearized)",
                self.label, self.ops, self.ds_ops
            )
        } else {
            write!(
                f,
                "{}: NOT certified — {} violation(s), ≤ {}.{:03} bit(s) leaked{}",
                self.label,
                self.violation_count,
                self.trace_millibits / 1000,
                self.trace_millibits % 1000,
                if self.aborted {
                    " (extraction aborted)"
                } else {
                    ""
                },
            )
        }
    }
}

/// Executes one analysis cell from scratch: extract the access program
/// (exactly one symbolic execution), lint it, abstractly interpret it.
/// A pure function of the cell.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid.
pub fn execute_analyze_cell(cell: &AnalyzeCell) -> Result<AnalyzeReport, String> {
    let spec = &cell.spec;
    let config = spec.machine_config();
    let strategy = spec.strategy.to_strategy();
    let program: AccessProgram = extract(&spec.workload);

    let mut violations = lint(&program, &strategy, config.bia_granularity_log2());
    let violation_count = violations.len() as u64;
    violations.truncate(STORED_VIOLATIONS);

    let abs = interpret(&program, &strategy, &config);

    Ok(AnalyzeReport {
        label: cell.label(),
        ops: program.ops.len() as u64,
        ds_ops: program.ds_ops(),
        aborted: program.aborted,
        violation_count,
        violations,
        trace_millibits: abs.trace_millibits,
        state_lines: abs.state_lines,
        predicted_insts: abs.predicted_insts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_core::taint::{LeakKind, Taint};
    use ctbia_harness::{CryptoKernel, StrategySpec};
    use ctbia_machine::BiaPlacement;

    fn cell(name: &str, size: usize, strategy: StrategySpec) -> AnalyzeCell {
        AnalyzeCell::new(CellSpec::new(
            WorkloadSpec::named(name, size).unwrap(),
            strategy,
            BiaPlacement::L1d,
        ))
    }

    fn crypto_cell(kernel: CryptoKernel, strategy: StrategySpec) -> AnalyzeCell {
        AnalyzeCell::new(CellSpec::new(
            WorkloadSpec::Crypto(kernel),
            strategy,
            BiaPlacement::L1d,
        ))
    }

    fn sample_report() -> AnalyzeReport {
        AnalyzeReport {
            label: "analyze:leaky-bin_300/insecure".into(),
            ops: 123,
            ds_ops: 0,
            aborted: false,
            violation_count: 9,
            violations: vec![LeakViolation {
                kind: LeakKind::RawAddress,
                context: "probe a[mid] (raw)".into(),
                addr: None,
                provenance: Taint::secret("search key #0").chain(),
            }],
            trace_millibits: 41_641,
            state_lines: 25,
            predicted_insts: 2400,
        }
    }

    #[test]
    fn cache_text_round_trips() {
        let r = sample_report();
        assert_eq!(AnalyzeReport::from_cache_text(&r.to_cache_text()), Some(r));
        let clean = AnalyzeReport {
            violations: Vec::new(),
            violation_count: 0,
            trace_millibits: 0,
            state_lines: 0,
            ..sample_report()
        };
        assert!(clean.certified());
        assert_eq!(
            AnalyzeReport::from_cache_text(&clean.to_cache_text()),
            Some(clean)
        );
    }

    #[test]
    fn truncation_and_corruption_miss() {
        let text = sample_report().to_cache_text();
        assert_eq!(
            AnalyzeReport::from_cache_text(&text[..text.len() - 5]),
            None
        );
        assert_eq!(
            AnalyzeReport::from_cache_text(&text.replacen("v1", "v0", 1)),
            None
        );
        assert_eq!(
            AnalyzeReport::from_cache_text(&text.replacen("ds_ops", "dsops", 1)),
            None
        );
        assert_eq!(AnalyzeReport::from_cache_text(""), None);
    }

    #[test]
    fn digest_separates_cells_and_schemas() {
        let a = cell("hist", 200, StrategySpec::Ct);
        assert_eq!(a.digest(), a.digest());
        let b = cell("hist", 201, StrategySpec::Ct);
        assert_ne!(a.digest(), b.digest());
        let c = cell("hist", 200, StrategySpec::Bia);
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.label(), "analyze:hist_200/CT");
        // Same spec, different schema namespace than verify cells.
        let v = ctbia_verify::VerifyCell::new(a.spec.clone(), vec![]);
        assert_ne!(a.digest(), v.digest());
    }

    #[test]
    fn ghostrider_kernels_certify_under_ct_and_bia() {
        for name in ["dij", "hist", "perm", "bin", "heap"] {
            for strategy in [StrategySpec::Ct, StrategySpec::Bia, StrategySpec::BiaLoads] {
                let report = execute_analyze_cell(&cell(name, 64, strategy)).unwrap();
                assert!(report.certified(), "{report}");
                assert!(report.passed(false));
                assert!(!report.passed(true));
            }
        }
    }

    #[test]
    fn insecure_ghostrider_cells_are_strictly_positive() {
        for name in ["dij", "hist", "perm", "bin", "heap"] {
            let report = execute_analyze_cell(&cell(name, 64, StrategySpec::Insecure)).unwrap();
            assert!(report.violation_count > 0, "{report}");
            assert!(report.trace_millibits > 0, "{report}");
            assert!(report.passed(true), "{report}");
        }
    }

    #[test]
    fn leaky_binary_search_fails_with_named_provenance() {
        let report = execute_analyze_cell(&cell("leaky-bin", 300, StrategySpec::Insecure)).unwrap();
        assert!(!report.certified());
        assert!(report.passed(true), "{report}");
        assert!(report.trace_millibits > 0);
        let raw = report
            .violations
            .iter()
            .find(|v| v.kind == LeakKind::RawAddress)
            .expect("a raw-address violation");
        assert_eq!(raw.context, "probe a[mid] (raw)");
        assert!(
            raw.provenance.iter().any(|s| s.contains("search key")),
            "{:?}",
            raw.provenance
        );
    }

    #[test]
    fn crypto_kernels_certify_under_ct_and_bia() {
        for kernel in CryptoKernel::ALL {
            for strategy in [StrategySpec::Ct, StrategySpec::Bia] {
                let report = execute_analyze_cell(&crypto_cell(kernel, strategy)).unwrap();
                assert!(report.certified(), "{report}");
            }
        }
    }

    #[test]
    fn table_driven_crypto_kernels_leak_insecurely() {
        for kernel in [
            CryptoKernel::Aes,
            CryptoKernel::Rc2,
            CryptoKernel::Rc4,
            CryptoKernel::Blowfish,
            CryptoKernel::Cast,
        ] {
            let report =
                execute_analyze_cell(&crypto_cell(kernel, StrategySpec::Insecure)).unwrap();
            assert!(report.passed(true), "{report}");
        }
    }

    /// DES/3DES tables fit one cache line and XOR has no secret-indexed
    /// access at all, so even the insecure versions leak nothing *at
    /// line granularity* — which is why the grid's Insecure arm
    /// excludes them rather than demanding a positive bound.
    #[test]
    fn line_sized_kernels_are_insecure_clean_by_design() {
        for kernel in [CryptoKernel::Des, CryptoKernel::Des3, CryptoKernel::Xor] {
            let report =
                execute_analyze_cell(&crypto_cell(kernel, StrategySpec::Insecure)).unwrap();
            assert_eq!(report.trace_millibits, 0, "{report}");
        }
    }

    #[test]
    fn extraction_is_deterministic_across_secret_seeds() {
        let a = execute_analyze_cell(&AnalyzeCell::new(CellSpec::new(
            WorkloadSpec::BinarySearch {
                size: 200,
                searches: 20,
                seed: 1,
            },
            StrategySpec::Ct,
            BiaPlacement::L1d,
        )))
        .unwrap();
        let b = execute_analyze_cell(&AnalyzeCell::new(CellSpec::new(
            WorkloadSpec::BinarySearch {
                size: 200,
                searches: 20,
                seed: 99,
            },
            StrategySpec::Ct,
            BiaPlacement::L1d,
        )))
        .unwrap();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ds_ops, b.ds_ops);
        assert_eq!(a.trace_millibits, b.trace_millibits);
        assert_eq!(a.predicted_insts, b.predicted_insts);
    }

    #[test]
    fn analysis_extracts_exactly_once_per_cell() {
        let before = crate::recmem::extractions_performed();
        let report = execute_analyze_cell(&cell("hist", 100, StrategySpec::Bia)).unwrap();
        assert!(report.certified());
        assert_eq!(crate::recmem::extractions_performed() - before, 1);
    }

    /// Fidelity pin: under software CT the concrete kernel performs one
    /// linearize pass per dataflow-set access, so the mirror's ds-op
    /// count must equal the real run's pass counter — for *every*
    /// kernel, crypto included.
    #[test]
    fn mirrors_match_concrete_linearize_pass_counts() {
        use ctbia_machine::Machine;
        let specs: Vec<WorkloadSpec> = CryptoKernel::ALL
            .iter()
            .map(|&k| WorkloadSpec::Crypto(k))
            .chain(
                ["dij", "hist", "perm", "bin", "heap"]
                    .iter()
                    .map(|n| WorkloadSpec::named(n, 48).unwrap()),
            )
            .collect();
        for spec in specs {
            let program = crate::recmem::extract(&spec);
            let mut m = Machine::insecure();
            let run = spec
                .build()
                .run(&mut m, ctbia_core::strategy::Strategy::software_ct());
            let _ = run;
            assert_eq!(program.ds_ops(), m.counters().linearize.passes, "{spec:?}");
        }
    }
}
