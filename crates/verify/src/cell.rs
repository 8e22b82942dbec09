//! Verification cells and their cacheable reports.
//!
//! A [`VerifyCell`] pairs an experiment [`CellSpec`] with the seed
//! family the oracle replays. Executing it runs both analyses — the
//! taint sanitizer over the workload's kernel body and the
//! trace-equivalence oracle — and folds the results into a
//! [`VerifyReport`] with its own versioned text encoding
//! ([`VERIFY_SCHEMA_VERSION`]), stored in the same content-addressed
//! [`DiskCache`](ctbia_harness::DiskCache) as simulation cells via the
//! raw `load_text`/`store_text` API. As with simulation cells, the cache
//! key covers every input that determines the verdict (the cell digest
//! plus the seed family), so verification memoizes exactly like
//! simulation does.

use crate::mem::taint_check;
use crate::oracle::trace_equivalence;
use ctbia_core::taint::{LeakKind, LeakViolation};
use ctbia_harness::{CacheTextReader, CellSpec, Digest, WorkloadSpec};
use ctbia_machine::Machine;
use std::fmt::{self, Write};

/// Version tag of the verification-report cache encoding. Bump whenever
/// the verifier's semantics change so stale verdicts miss.
pub const VERIFY_SCHEMA_VERSION: &str = "ctbia-verify-v2";

/// How many violations a verify or analyze report stores verbatim (the
/// count is always exact; the samples are for display).
pub const STORED_VIOLATIONS: usize = 8;

/// One verification cell: a simulation cell plus the secret seeds the
/// oracle draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyCell {
    /// The workload/strategy/placement/config under verification.
    pub spec: CellSpec,
    /// Secret seeds; the oracle compares every later seed's trace
    /// against the first, and the taint pass runs on the spec's own
    /// seed.
    pub seeds: Vec<u64>,
}

impl VerifyCell {
    /// A verification cell over `spec` with the given seed family.
    pub fn new(spec: CellSpec, seeds: Vec<u64>) -> Self {
        VerifyCell { spec, seeds }
    }

    /// Whether this cell is a negative control that *must* fail both
    /// analyses: the intentionally leaky workload always, and the
    /// Spectre gadget exactly when the cell's machine speculates (with
    /// `spec_window = 0` the gadget is genuinely constant-time and must
    /// verify clean).
    pub fn expects_leak(&self) -> bool {
        match self.spec.workload {
            WorkloadSpec::LeakyBinarySearch { .. } => true,
            WorkloadSpec::SpectreGadget { .. } => self.spec.config.spec_window > 0,
            _ => false,
        }
    }

    /// Human-readable label, e.g. `verify:bin_600/BIA@L1d`.
    pub fn label(&self) -> String {
        format!("verify:{}", self.spec.label())
    }

    /// The content digest: the underlying cell digest extended with the
    /// verify schema marker and the seed family.
    pub fn digest(&self) -> u128 {
        let mut d = Digest::new();
        d.field_str("verify", VERIFY_SCHEMA_VERSION);
        let cell = self.spec.digest();
        d.field_u64("cell.hi", (cell >> 64) as u64);
        d.field_u64("cell.lo", cell as u64);
        if let WorkloadSpec::Crypto(_) = self.spec.workload {
            // Crypto verdicts gained the taint pass (they were
            // oracle-only): a distinct key keeps entries written before
            // it from being served.
            d.field_str("taint", "kernel");
        }
        d.field_u64("seeds", self.seeds.len() as u64);
        for &s in &self.seeds {
            d.write_u64(s);
        }
        d.finish()
    }
}

/// The verdict of one verification cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The cell label at execution time.
    pub label: String,
    /// Whether the taint pass ran. Every workload's kernel body runs
    /// under the sanitizer, so this is always true; the field stays in
    /// the encoding until the next schema bump.
    pub taint_checked: bool,
    /// Whether the taint pass's outputs matched the plain-Rust
    /// reference.
    pub outputs_ok: bool,
    /// Total leak violations the sanitizer reported (exact count).
    pub leak_violations: u64,
    /// The first few violations, verbatim, for display.
    pub violations: Vec<LeakViolation>,
    /// Secret pairs the oracle compared.
    pub pairs: u64,
    /// Whether every observation trace was identical.
    pub traces_equal: bool,
    /// The first differing observation, when traces diverged.
    pub first_divergence: Option<String>,
    /// Digest of the cell's observation trace.
    pub obs_digest: u64,
}

impl VerifyReport {
    /// Whether the cell verified clean: reference-correct outputs, zero
    /// violations, equal traces.
    pub fn clean(&self) -> bool {
        self.outputs_ok && self.leak_violations == 0 && self.traces_equal
    }

    /// Whether the cell behaved as required: clean for real workloads;
    /// caught by **both** analyses for an expected-leaky control.
    pub fn passed(&self, expect_leak: bool) -> bool {
        if expect_leak {
            self.leak_violations > 0 && !self.traces_equal
        } else {
            self.clean()
        }
    }

    /// Encodes the report in the versioned cache text format.
    pub fn to_cache_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(VERIFY_SCHEMA_VERSION);
        out.push('\n');
        out.push_str(&format!("label {}\n", self.label));
        out.push_str(&format!("taint_checked {}\n", self.taint_checked as u8));
        out.push_str(&format!("outputs_ok {}\n", self.outputs_ok as u8));
        out.push_str(&format!("leak_violations {}\n", self.leak_violations));
        out.push_str(&format!("pairs {}\n", self.pairs));
        out.push_str(&format!("traces_equal {}\n", self.traces_equal as u8));
        out.push_str(&format!("obs_digest {}\n", self.obs_digest));
        if let Some(d) = &self.first_divergence {
            out.push_str(&format!("divergence {d}\n"));
        }
        write_violations(&mut out, &self.violations);
        out.push_str("end\n");
        out
    }

    /// Decodes a report from the cache text format in one pass, in the
    /// order [`VerifyReport::to_cache_text`] writes it. Any anomaly —
    /// wrong version, a missing, reordered or duplicated line, a garbage
    /// value, a missing `end` trailer — returns `None` (a cache miss, so
    /// the cell re-verifies).
    pub fn from_cache_text(text: &str) -> Option<VerifyReport> {
        let mut r = CacheTextReader::open(text, VERIFY_SCHEMA_VERSION)?;
        // Struct fields evaluate in the order written: the encoding order.
        Some(VerifyReport {
            label: r.text("label")?.to_string(),
            taint_checked: r.flag("taint_checked")?,
            outputs_ok: r.flag("outputs_ok")?,
            leak_violations: r.number("leak_violations")?,
            pairs: r.number("pairs")?,
            traces_equal: r.flag("traces_equal")?,
            obs_digest: r.number("obs_digest")?,
            first_divergence: r.optional("divergence").map(str::to_string),
            violations: read_violations_then_end(r)?,
        })
    }
}

/// Stable one-token cache-text tag for a [`LeakKind`], shared by the
/// `ctbia-verify-v2` and `ctbia-analyze-v1` report encodings.
pub fn leak_kind_tag(kind: LeakKind) -> &'static str {
    match kind {
        LeakKind::RawAddress => "raw-addr",
        LeakKind::Branch => "branch",
        LeakKind::TripCount => "trip-count",
        LeakKind::PartialSweep => "partial-sweep",
        LeakKind::BitmapBranch => "bitmap-branch",
        LeakKind::PartialMask => "partial-mask",
        LeakKind::SpeculativeFill => "spec-fill",
    }
}

/// Inverse of [`leak_kind_tag`]; `None` on an unknown tag (treated as a
/// cache miss by the decoders).
pub fn parse_leak_kind(tag: &str) -> Option<LeakKind> {
    Some(match tag {
        "raw-addr" => LeakKind::RawAddress,
        "branch" => LeakKind::Branch,
        "trip-count" => LeakKind::TripCount,
        "partial-sweep" => LeakKind::PartialSweep,
        "bitmap-branch" => LeakKind::BitmapBranch,
        "partial-mask" => LeakKind::PartialMask,
        "spec-fill" => LeakKind::SpeculativeFill,
        _ => return None,
    })
}

/// Appends the evidence section of a verify or analyze cache text: one
/// `viol KIND ADDR CONTEXT` line per violation (`ADDR` is `-` or hex),
/// each followed by one `prov STEP` line per provenance step.
pub fn write_violations(out: &mut String, violations: &[LeakViolation]) {
    // Writing into a `String` cannot fail.
    for v in violations {
        let _ = write!(out, "viol {} ", leak_kind_tag(v.kind));
        match v.addr {
            Some(a) => {
                let _ = write!(out, "{a:#x}");
            }
            None => out.push('-'),
        }
        let _ = writeln!(out, " {}", v.context);
        for step in &v.provenance {
            let _ = writeln!(out, "prov {step}");
        }
    }
}

/// Reads the [`write_violations`] evidence section through the `end`
/// trailer, on the shared [`CacheTextReader`]. Text after `end` is
/// ignored; any other line is a miss.
pub fn read_violations_then_end(mut r: CacheTextReader<'_>) -> Option<Vec<LeakViolation>> {
    let mut violations: Vec<LeakViolation> = Vec::new();
    loop {
        let line = r.line()?;
        if line == "end" {
            return Some(violations);
        }
        if let Some(step) = line.strip_prefix("prov ") {
            violations.last_mut()?.provenance.push(step.to_string());
            continue;
        }
        let (kind, rest) = line.strip_prefix("viol ")?.split_once(' ')?;
        let (addr, context) = rest.split_once(' ')?;
        let addr = match addr {
            "-" => None,
            hex => Some(u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()?),
        };
        violations.push(LeakViolation {
            kind: parse_leak_kind(kind)?,
            context: context.to_string(),
            addr,
            provenance: Vec::new(),
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let taint = if self.taint_checked {
            format!(
                "taint {} ({} violation(s), outputs {})",
                if self.leak_violations == 0 {
                    "clean"
                } else {
                    "LEAK"
                },
                self.leak_violations,
                if self.outputs_ok { "ok" } else { "WRONG" },
            )
        } else {
            "taint n/a".to_string()
        };
        write!(
            f,
            "{}: {taint}; traces {} over {} pair(s)",
            self.label,
            if self.traces_equal {
                "equal"
            } else {
                "DIVERGENT"
            },
            self.pairs
        )
    }
}

/// Executes one verification cell from scratch: taint pass, then the
/// oracle. A pure function of the cell.
///
/// # Errors
///
/// Returns a message if the cell's machine configuration is invalid or
/// the seed family is too small for the oracle.
pub fn execute_verify_cell(cell: &VerifyCell) -> Result<VerifyReport, String> {
    let spec = &cell.spec;
    let label = cell.label();

    // Taint pass: run the kernel body on a fresh machine under the
    // cell's own strategy and placement.
    let mut m = Machine::new(spec.machine_config()).map_err(|e| format!("{label}: {e}"))?;
    let taint = taint_check(&mut m, &spec.workload, spec.strategy.to_strategy());
    let reported = m.counters().taint.leak_violations;
    let mut violations = taint.violations;
    violations.truncate(STORED_VIOLATIONS);

    // Oracle pass: replay under the seed family.
    let oracle = trace_equivalence(spec, &cell.seeds)?;

    Ok(VerifyReport {
        label,
        taint_checked: true,
        outputs_ok: taint.outputs_ok,
        leak_violations: reported,
        violations,
        pairs: oracle.pairs,
        traces_equal: oracle.equal,
        first_divergence: oracle.first_divergence,
        obs_digest: oracle.obs_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_core::taint::Taint;
    use ctbia_harness::StrategySpec;
    use ctbia_machine::BiaPlacement;

    fn cell(name: &str, size: usize, strategy: StrategySpec, seeds: &[u64]) -> VerifyCell {
        VerifyCell::new(
            CellSpec::new(
                WorkloadSpec::named(name, size).unwrap(),
                strategy,
                BiaPlacement::L1d,
            ),
            seeds.to_vec(),
        )
    }

    fn sample_report() -> VerifyReport {
        VerifyReport {
            label: "verify:leaky-bin_300/insecure".into(),
            taint_checked: true,
            outputs_ok: true,
            leak_violations: 190,
            violations: vec![LeakViolation {
                kind: LeakKind::RawAddress,
                context: "probe a[mid] (raw)".into(),
                addr: Some(0x1040),
                provenance: Taint::secret("search key #0").chain(),
            }],
            pairs: 3,
            traces_equal: false,
            first_divergence: Some("secrets 0x1 vs 0x2: demand[4]: ...".into()),
            obs_digest: 0xabc,
        }
    }

    #[test]
    fn cache_text_round_trips() {
        let r = sample_report();
        assert_eq!(VerifyReport::from_cache_text(&r.to_cache_text()), Some(r));
        // And a clean report with no optional sections.
        let clean = VerifyReport {
            violations: Vec::new(),
            leak_violations: 0,
            traces_equal: true,
            first_divergence: None,
            ..sample_report()
        };
        assert_eq!(
            VerifyReport::from_cache_text(&clean.to_cache_text()),
            Some(clean)
        );
    }

    #[test]
    fn truncation_and_corruption_miss() {
        let text = sample_report().to_cache_text();
        assert_eq!(VerifyReport::from_cache_text(&text[..text.len() - 5]), None);
        assert_eq!(
            VerifyReport::from_cache_text(&text.replacen("v2", "v0", 1)),
            None
        );
        assert_eq!(
            VerifyReport::from_cache_text(&text.replacen("pairs 3", "pears 3", 1)),
            None
        );
        assert_eq!(VerifyReport::from_cache_text(""), None);
    }

    #[test]
    fn digest_covers_spec_and_seeds() {
        let a = cell("hist", 200, StrategySpec::Ct, &[1, 2, 3]);
        assert_eq!(a.digest(), a.digest());
        let b = cell("hist", 200, StrategySpec::Ct, &[1, 2, 4]);
        assert_ne!(a.digest(), b.digest());
        let c = cell("hist", 201, StrategySpec::Ct, &[1, 2, 3]);
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.label(), "verify:hist_200/CT");
    }

    #[test]
    fn clean_cell_verifies_clean() {
        let report = execute_verify_cell(&cell("hist", 150, StrategySpec::Ct, &[1, 2, 3])).unwrap();
        assert!(report.taint_checked);
        assert!(report.clean(), "{report}");
        assert!(report.passed(false));
        assert!(!report.passed(true), "a clean cell is not a caught leak");
    }

    #[test]
    fn leaky_cell_fails_both_analyses() {
        let report =
            execute_verify_cell(&cell("leaky-bin", 200, StrategySpec::Insecure, &[1, 2])).unwrap();
        assert!(!report.clean());
        assert!(report.passed(true), "{report}");
        assert!(report.leak_violations > 0);
        assert!(!report.traces_equal);
        assert!(!report.violations.is_empty());
        assert!(report.violations[0]
            .provenance
            .iter()
            .any(|s| s.contains("search key")));
    }

    #[test]
    fn spectre_cell_leaks_exactly_when_the_machine_speculates() {
        let c0 = cell("spectre", 128, StrategySpec::Insecure, &[1, 2]);
        assert!(!c0.expects_leak(), "no window, no threat model");
        let report = execute_verify_cell(&c0).unwrap();
        assert!(report.clean(), "{report}");

        let mut c32 = cell("spectre", 128, StrategySpec::Insecure, &[1, 2]);
        c32.spec.config.spec_window = 32;
        assert!(c32.expects_leak());
        assert_ne!(c0.digest(), c32.digest());
        let report = execute_verify_cell(&c32).unwrap();
        assert!(report.passed(true), "{report}");
        assert!(report.leak_violations > 0);
        assert!(!report.traces_equal);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == LeakKind::SpeculativeFill));
        assert!(report
            .first_divergence
            .as_ref()
            .is_some_and(|d| d.contains("wrong-path")));
    }

    #[test]
    fn crypto_cells_are_taint_checked() {
        for kernel in [
            ctbia_harness::CryptoKernel::Xor,
            ctbia_harness::CryptoKernel::Rc4,
        ] {
            let report = execute_verify_cell(&VerifyCell::new(
                CellSpec::new(
                    WorkloadSpec::Crypto(kernel),
                    StrategySpec::Ct,
                    BiaPlacement::L1d,
                ),
                vec![1, 2],
            ))
            .unwrap();
            assert!(report.taint_checked);
            assert!(report.clean(), "{report}");
        }
    }
}
