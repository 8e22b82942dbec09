//! Fuzz tests for the two verdict cache codecs: `VerifyReport` and
//! `AnalyzeReport` (both built on `ctbia_verify::CacheTextReader`).
//!
//! Each decoder reads in one pass, in the exact line order its encoder
//! writes: the schema line, the fixed `key value` lines, the optional
//! `divergence` line (verify only), the `viol`/`prov` evidence section
//! and the `end` trailer. The contract checked here:
//!
//! * a generated report's text is byte-equal to what the encoders wrote
//!   before the shared codec existed (the reference twins below), so
//!   every stored entry still hits, and it decodes back to the report;
//! * a truncated, mutated or wrong-schema text never panics and never
//!   decodes to a report with a different verdict: it misses (`None`),
//!   or decodes to the original. The evidence lines carry no count, so
//!   a mutation confined to them (a deleted `prov` step, two swapped
//!   `viol` blocks) can still be the canonical text of another report;
//!   that is accepted only with every fixed field intact and only when
//!   re-encoding gives back exactly the mutated text.

use ctbia_analyze::{AnalyzeReport, ANALYZE_SCHEMA_VERSION};
use ctbia_core::taint::{LeakKind, LeakViolation};
use ctbia_verify::{leak_kind_tag, VerifyReport, VERIFY_SCHEMA_VERSION};
use proptest::prelude::*;
use std::fmt::Debug;

/// A report kind under test.
trait Codec: Sized + Clone + PartialEq + Debug {
    /// The fixed lines whose value is a number or a flag.
    const TYPED_KEYS: &'static [&'static str];
    /// First lines that are not this kind's schema line.
    const WRONG_SCHEMAS: &'static [&'static str];
    /// Lines a mutation may insert.
    const JUNK_LINES: &'static [&'static str];

    fn generate(rng: &mut Rng) -> Self;
    fn encode(&self) -> String;
    fn reference_encode(&self) -> String;
    fn decode(text: &str) -> Option<Self>;
    /// The report with its count-free evidence cleared.
    fn verdict(&self) -> Self;
}

impl Codec for VerifyReport {
    const TYPED_KEYS: &'static [&'static str] = &[
        "taint_checked",
        "outputs_ok",
        "leak_violations",
        "pairs",
        "traces_equal",
        "obs_digest",
    ];
    const WRONG_SCHEMAS: &'static [&'static str] = &[
        "ctbia-verify-v1",
        "",
        "ctbia-verify-v2 ",
        "ctbia-analyze-v1",
    ];
    const JUNK_LINES: &'static [&'static str] = &[
        "pairs 5",
        "label other",
        "divergence x",
        "viol raw-addr - x",
        "prov y",
        "end",
        "",
        "garbage",
        "ctbia-verify-v2",
    ];

    fn generate(rng: &mut Rng) -> Self {
        VerifyReport {
            label: rng.text(),
            taint_checked: rng.flag(),
            outputs_ok: rng.flag(),
            leak_violations: rng.number(),
            violations: rng.violations(),
            pairs: rng.number(),
            traces_equal: rng.flag(),
            first_divergence: rng.flag().then(|| rng.text()),
            obs_digest: rng.number(),
        }
    }

    fn encode(&self) -> String {
        self.to_cache_text()
    }

    /// The encoder as it was before the shared codec.
    fn reference_encode(&self) -> String {
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
        reference_violations(&mut out, &self.violations);
        out.push_str("end\n");
        out
    }

    fn decode(text: &str) -> Option<Self> {
        VerifyReport::from_cache_text(text)
    }

    fn verdict(&self) -> Self {
        VerifyReport {
            violations: Vec::new(),
            first_divergence: None,
            ..self.clone()
        }
    }
}

impl Codec for AnalyzeReport {
    const TYPED_KEYS: &'static [&'static str] = &[
        "ops",
        "ds_ops",
        "aborted",
        "violation_count",
        "trace_millibits",
        "state_lines",
        "predicted_insts",
    ];
    const WRONG_SCHEMAS: &'static [&'static str] = &[
        "ctbia-analyze-v0",
        "",
        "ctbia-analyze-v1 ",
        "ctbia-verify-v2",
    ];
    const JUNK_LINES: &'static [&'static str] = &[
        "ops 5",
        "label other",
        "divergence x",
        "viol branch 0x40 x",
        "prov y",
        "end",
        "",
        "garbage",
        "ctbia-analyze-v1",
    ];

    fn generate(rng: &mut Rng) -> Self {
        AnalyzeReport {
            label: rng.text(),
            ops: rng.number(),
            ds_ops: rng.number(),
            aborted: rng.flag(),
            violation_count: rng.number(),
            violations: rng.violations(),
            trace_millibits: rng.number(),
            state_lines: rng.number(),
            predicted_insts: rng.number(),
        }
    }

    fn encode(&self) -> String {
        self.to_cache_text()
    }

    /// The encoder as it was before the shared codec.
    fn reference_encode(&self) -> String {
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
        reference_violations(&mut out, &self.violations);
        out.push_str("end\n");
        out
    }

    fn decode(text: &str) -> Option<Self> {
        AnalyzeReport::from_cache_text(text)
    }

    fn verdict(&self) -> Self {
        AnalyzeReport {
            violations: Vec::new(),
            ..self.clone()
        }
    }
}

/// The evidence section as both encoders wrote it before the shared codec.
fn reference_violations(out: &mut String, violations: &[LeakViolation]) {
    for v in violations {
        let kind = leak_kind_tag(v.kind);
        let addr = v
            .addr
            .map_or_else(|| "-".to_string(), |a| format!("{a:#x}"));
        out.push_str(&format!("viol {kind} {addr} {}\n", v.context));
        for step in &v.provenance {
            out.push_str(&format!("prov {step}\n"));
        }
    }
}

/// Characters free text (labels, contexts, provenance steps, divergences)
/// may hold: key and trailer fragments, spaces, tabs, digits and
/// multi-byte UTF-8. No line breaks: free text is one line of the text.
const TEXT_CHARS: &[char] = &[
    'e', 'n', 'd', 'v', 'i', 'o', 'l', 'p', 'r', ' ', '\t', '-', '0', 'x', '1', '/', '@', 'é', '€',
    '😀',
];

const KINDS: [LeakKind; 7] = [
    LeakKind::RawAddress,
    LeakKind::Branch,
    LeakKind::TripCount,
    LeakKind::PartialSweep,
    LeakKind::BitmapBranch,
    LeakKind::PartialMask,
    LeakKind::SpeculativeFill,
];

/// A splitmix64 stream: every generated field comes from the case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A value at every magnitude from one digit to twenty.
    fn number(&mut self) -> u64 {
        let z = self.next();
        z >> (z % 64)
    }

    fn text(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| TEXT_CHARS[self.below(TEXT_CHARS.len() as u64) as usize])
            .collect()
    }

    fn violations(&mut self) -> Vec<LeakViolation> {
        (0..self.below(4))
            .map(|_| LeakViolation {
                kind: KINDS[self.below(KINDS.len() as u64) as usize],
                context: self.text(),
                addr: self.flag().then(|| self.number()),
                provenance: (0..self.below(3)).map(|_| self.text()).collect(),
            })
            .collect()
    }
}

/// Values no number or flag line may carry.
const BAD_VALUES: &[&str] = &[
    "",
    "x",
    "-1",
    "1.5",
    " 7",
    "7 ",
    "0x10",
    "18446744073709551616",
    "true",
    "1 1",
];

/// Applies mutation `op` to `text`, steered by `a` and `b`.
fn mutate<R: Codec>(text: &str, op: u8, a: u64, b: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len() as u64;
    let (i, j) = ((a % n) as usize, (b % n) as usize);
    // A number or flag line: free text takes any value, so damage to a
    // value is only detectable where the value is typed.
    let typed: Vec<usize> = (0..lines.len())
        .filter(|&k| R::TYPED_KEYS.contains(&lines[k].split(' ').next().unwrap_or_default()))
        .collect();
    let t = typed[(a % typed.len() as u64) as usize];
    let key = lines[t].split(' ').next().unwrap_or_default().to_string();
    match op {
        0 => lines.swap(i, j),
        1 => {
            lines.remove(i);
        }
        2 => {
            let copy = lines[i].clone();
            lines.insert(j, copy);
        }
        3 => lines[t] = format!("{key} {}", BAD_VALUES[(b as usize) % BAD_VALUES.len()]),
        4 => lines[0] = R::WRONG_SCHEMAS[(a as usize) % R::WRONG_SCHEMAS.len()].into(),
        5 => lines.push(R::JUNK_LINES[(a as usize) % R::JUNK_LINES.len()].into()),
        6 => lines.insert(j, R::JUNK_LINES[(a as usize) % R::JUNK_LINES.len()].into()),
        _ => lines[t] = lines[t].replacen(' ', "  ", 1),
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// `text` through its first `end` line, as an encoder would write it.
fn through_end(text: &str) -> String {
    let mut out: String = text
        .lines()
        .take_while(|l| *l != "end")
        .map(|l| format!("{l}\n"))
        .collect();
    out.push_str("end\n");
    out
}

/// The decoder's contract on a damaged copy of `original`'s text.
fn assert_safe<R: Codec>(original: &R, text: &str) {
    let Some(decoded) = R::decode(text) else {
        return;
    };
    if decoded == *original {
        return;
    }
    assert_eq!(
        decoded.verdict(),
        original.verdict(),
        "a damaged text decoded to a different verdict:\n{text}"
    );
    assert_eq!(
        decoded.encode(),
        through_end(text),
        "the decoder accepted a non-canonical evidence section:\n{text}"
    );
}

fn round_trips<R: Codec>(seed: u64) {
    let r = R::generate(&mut Rng(seed));
    let text = r.encode();
    assert_eq!(text, r.reference_encode(), "cache bytes changed");
    assert_eq!(R::decode(&text), Some(r));
}

fn every_truncation_misses<R: Codec>(seed: u64) {
    let r = R::generate(&mut Rng(seed));
    let text = r.encode();
    for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
        let decoded = R::decode(&text[..cut]);
        assert!(
            decoded.is_none() || decoded.as_ref() == Some(&r),
            "truncation at {cut} decoded to another report:\n{}",
            &text[..cut]
        );
    }
}

/// Every fixed line (schema excluded) deleted in turn must miss: the
/// field must not silently take a default.
fn deleting_a_fixed_line_misses<R: Codec>(seed: u64, fixed_lines: usize) {
    let text = R::generate(&mut Rng(seed)).encode();
    for i in 1..=fixed_lines {
        let kept: String = text
            .lines()
            .enumerate()
            .filter(|&(k, _)| k != i)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        assert_eq!(R::decode(&kept), None, "line {i} deleted:\n{kept}");
    }
}

#[test]
fn a_deleted_fixed_line_is_a_miss() {
    for seed in 0..64 {
        // label + six typed lines; label + seven typed lines.
        deleting_a_fixed_line_misses::<VerifyReport>(seed, 7);
        deleting_a_fixed_line_misses::<AnalyzeReport>(seed, 8);
    }
    // The entry the encoder writes for a clean verify cell, one line short.
    let text = "ctbia-verify-v2\nlabel x\nend\n";
    assert_eq!(VerifyReport::from_cache_text(text), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn verify_text_round_trips(seed in any::<u64>()) {
        round_trips::<VerifyReport>(seed);
    }

    #[test]
    fn analyze_text_round_trips(seed in any::<u64>()) {
        round_trips::<AnalyzeReport>(seed);
    }

    #[test]
    fn mutated_verify_text_keeps_its_verdict(
        seed in any::<u64>(),
        op in 0u8..8,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let r = VerifyReport::generate(&mut Rng(seed));
        assert_safe(&r, &mutate::<VerifyReport>(&r.encode(), op, a, b));
    }

    #[test]
    fn mutated_analyze_text_keeps_its_verdict(
        seed in any::<u64>(),
        op in 0u8..8,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let r = AnalyzeReport::generate(&mut Rng(seed));
        assert_safe(&r, &mutate::<AnalyzeReport>(&r.encode(), op, a, b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_verify_truncation_misses(seed in any::<u64>()) {
        every_truncation_misses::<VerifyReport>(seed);
    }

    #[test]
    fn every_analyze_truncation_misses(seed in any::<u64>()) {
        every_truncation_misses::<AnalyzeReport>(seed);
    }
}
