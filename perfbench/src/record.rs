//! What a run reports: named metrics with units, output checks, the run's
//! identity, and the JSON lines that carry them.

use crate::stats::{median_round_mean, percentile, Pct};
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run prints in its result line,
/// with their units, in the order `BENCHMARK.json` lists them. The others
/// (`cells_per_s`, `req_per_s`, `miss_*`, `hit_p50_us`, `hit_p99_us`,
/// `fail_frac`, `peak_rss_mb`) are printed in the table and the run record
/// but not gated: on the shared two-vCPU host they were measured on, ten
/// seeds spread `cells_per_s` by up to 0.36 as the host's speed drifted,
/// `hit_p50_us` by 0.23 (`hit_mean_us` measures the same hits without
/// depending on which cell sits at the median), `hit_p99_us` by 0.19, and
/// `certify`'s peak RSS takes one of two values (25 or 34 MB) on
/// identical inputs, all beyond any bound a gate can use.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("hit_mean_us", "us")];

/// The per-layer metrics every traced run prints in its result line, with
/// their units, in the order `BENCHMARK.json` lists them. Workload-specific
/// layers (`serve.*`, `verify.*`, `analyze.*`) travel only in the
/// traced-run document, because the result line must carry the same names
/// for every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("harness.execute_cell_s", "s"),
    ("harness.engine_overhead_s", "s"),
    ("harness.disk_store_us_p50", "us"),
    ("harness.disk_store_us_p99", "us"),
    ("harness.disk_load_us_p50", "us"),
    ("harness.memo_lookup_ns_p50", "ns"),
    ("harness.digest_ns_p50", "ns"),
    ("harness.cells_executed", "count"),
    ("harness.cache_hits", "count"),
    ("harness.memo_hits", "count"),
    ("machine.new_us", "us"),
    ("machine.reset_us", "us"),
    ("machine.ns_per_sim_event", "ns"),
    ("machine.cycles", "count"),
    ("machine.insts", "count"),
    ("machine.ct_loads", "count"),
    ("machine.ct_stores", "count"),
    ("machine.lines_swept", "count"),
    ("machine.phase.compute", "count"),
    ("machine.phase.demand_access", "count"),
    ("machine.phase.linearize_sweep", "count"),
    ("machine.phase.bia_maintenance", "count"),
    ("machine.phase.dram_stall", "count"),
    ("machine.phase.degraded", "count"),
    ("machine.phase.speculative", "count"),
    ("sim.cache_ns_per_access", "ns"),
    ("sim.hierarchy_ns_per_access", "ns"),
    ("core.bia_monitor_ns_per_access", "ns"),
    ("machine.residual_ns_per_access", "ns"),
    ("sim.l1d_misses", "count"),
    ("sim.l2_misses", "count"),
    ("sim.llc_misses", "count"),
    ("sim.dram_accesses", "count"),
    ("core.bia_resyncs", "count"),
    ("core.degrades", "count"),
    ("core.linearize_ns_per_line", "ns"),
    ("replay.reconcile_err", "frac"),
    ("trace.overhead_frac", "frac"),
    ("fail_frac", "frac"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `hit_p50_us`.
    pub name: String,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind a timing, when it summarises several.
    pub samples: Option<usize>,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records a value (replacing an earlier one of the same name).
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_with(name, value, unit, None);
    }

    /// Records a value summarising `samples` measurements.
    pub fn push_with(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
    ) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records nearest-rank percentile `pct` of `samples` scaled by
    /// `scale`, unless too few samples lie beyond it.
    pub fn push_pct(
        &mut self,
        name: &str,
        samples: &[f64],
        pct: u32,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(Pct { value, samples }) = percentile(samples, pct) {
            self.push_with(name, value * scale, unit, Some(samples));
        }
    }

    /// Records the median round mean of `samples` (see
    /// [`median_round_mean`]) scaled by `scale`, with its round count.
    pub fn push_round_mean(
        &mut self,
        name: &str,
        samples: &[f64],
        per_round: usize,
        scale: f64,
        unit: &'static str,
    ) {
        if let Some(Pct { value, samples }) = median_round_mean(samples, per_round) {
            self.push_with(name, value * scale, unit, Some(samples));
        }
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for m in other.0 {
            self.push_with(&m.name, m.value, m.unit, m.samples);
        }
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// The value of `name`, or 0 when it was not measured.
    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }
}

/// Output checks: every operation the run attempted, and those whose
/// output was wrong or that failed outright.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Operations attempted (cells resolved, reloads, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Check {
    /// Counts one operation, failed unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Failed operations over attempted operations.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Incremental 64-bit FNV-1a, for schedule and output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Mixes in a `u128` (cell digests).
    pub fn u128(&mut self, v: u128) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Where a number came from: the configuration that produced it. Every
/// result line is preceded by a record carrying this stamp.
#[derive(Debug, Clone, Default)]
pub struct Identity {
    /// `git rev-parse --short HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Available parallelism of the host.
    pub nproc: usize,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Digest of the generated inputs (grid cells, request schedule).
    pub schedule_digest: String,
    /// The simulated cache hierarchy of the workload's cells.
    pub hierarchy: String,
    /// `o3_approx`, `default`, or both when a workload mixes them.
    pub cost_model: String,
    /// Digest over every report the run checked, in input order.
    pub output_digest: String,
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives it; non-finite values (a bug) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Identity {
    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": {}, \"nproc\": {}, \"seed\": {}, \"schedule_digest\": {}, \
             \"hierarchy\": {}, \"cost_model\": {}, \"output_digest\": {}}}",
            json_str(&self.git_rev),
            self.nproc,
            self.seed,
            json_str(&self.schedule_digest),
            json_str(&self.hierarchy),
            json_str(&self.cost_model),
            json_str(&self.output_digest),
        )
    }
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}` over `metrics`.
pub fn metrics_json<'a>(
    metrics: impl IntoIterator<Item = &'a Metric>,
    with_samples: bool,
) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            let samples = match (with_samples, m.samples) {
                (true, Some(n)) => format!(", \"samples\": {n}"),
                _ => String::new(),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let value_of = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
            entry[at..at + entry[at..].find('"').unwrap()].to_string()
        };
        let metrics_in = |section: &str| -> Vec<(String, String)> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split('{')
                .skip(1)
                .map(|m| (value_of(m, "name"), value_of(m, "unit")))
                .collect()
        };
        let listed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(metrics_in("end_to_end"), listed(END_TO_END));
        assert_eq!(metrics_in("per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(1.203_456_789), "1.203456789");
        assert_eq!(json_num(44.0), "44");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Check::default();
        c.expect(true, String::new);
        c.expect(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.fail_frac(), 0.5);
        assert_eq!(c.notes, ["bad"]);
    }
}
