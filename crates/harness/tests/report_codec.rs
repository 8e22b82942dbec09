//! Differential tests for the cell-report cache codec.
//!
//! `CellReport::from_cache_text` decodes in one pass, in the exact line
//! order `to_cache_text` writes. Its reference twin here is the
//! order-free decoder it replaced: every `key value` line into a map,
//! then every counter looked up by key. On any text the one-pass decoder
//! must either miss (`None`) or return exactly the reference's report,
//! and it must never accept a text the reference rejects.

use ctbia_core::BiaStats;
use ctbia_harness::digest::SCHEMA_VERSION;
use ctbia_harness::CellReport;
use ctbia_machine::{Counters, RobustnessStats, SpecStats, TaintStats};
use ctbia_sim::{CacheStats, DramStats, HierarchyStats};
use ctbia_trace::{LinearizeStats, PhaseCycles};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Builds a `Counters` with every field read through `get(key)`, by the
/// field's cache-text key. A full struct literal on purpose: a new
/// counter field does not compile here until it is given a key, and the
/// round trip below then fails unless the codec carries it too.
fn counters_from(mut get: impl FnMut(&str) -> Option<u64>) -> Option<Counters> {
    let mut cache = |level: &str| -> Option<CacheStats> {
        let mut f = |name: &str| get(&format!("{level}.{name}"));
        Some(CacheStats {
            reads: f("reads")?,
            writes: f("writes")?,
            hits: f("hits")?,
            misses: f("misses")?,
            fills: f("fills")?,
            evictions: f("evictions")?,
            writebacks: f("writebacks")?,
            invalidations: f("invalidations")?,
            probes: f("probes")?,
        })
    };
    let (l1i, l1d, l2, llc) = (cache("l1i")?, cache("l1d")?, cache("l2")?, cache("llc")?);
    Some(Counters {
        cycles: get("cycles")?,
        insts: get("insts")?,
        ct_loads: get("ct_loads")?,
        ct_stores: get("ct_stores")?,
        phases: PhaseCycles {
            compute: get("phase.compute")?,
            demand_access: get("phase.demand_access")?,
            linearize_sweep: get("phase.linearize_sweep")?,
            bia_maintenance: get("phase.bia_maintenance")?,
            dram_stall: get("phase.dram_stall")?,
            degraded: get("phase.degraded")?,
            speculative: get("phase.speculative")?,
        },
        linearize: LinearizeStats {
            passes: get("linearize.passes")?,
            lines_skipped: get("linearize.lines_skipped")?,
            lines_fetched: get("linearize.lines_fetched")?,
        },
        hier: HierarchyStats {
            l1i,
            l1d,
            l2,
            llc,
            dram: DramStats {
                reads: get("dram.reads")?,
                writes: get("dram.writes")?,
                row_hits: get("dram.row_hits")?,
                row_misses: get("dram.row_misses")?,
            },
            prefetch_fills: get("prefetch_fills")?,
        },
        bia: BiaStats {
            accesses: get("bia.accesses")?,
            hits: get("bia.hits")?,
            installs: get("bia.installs")?,
            evictions: get("bia.evictions")?,
            events_applied: get("bia.events_applied")?,
            events_ignored: get("bia.events_ignored")?,
        },
        robust: RobustnessStats {
            audit_batches: get("robust.audit_batches")?,
            audit_violations: get("robust.audit_violations")?,
            inline_desyncs: get("robust.inline_desyncs")?,
            downgrades: get("robust.downgrades")?,
            degraded_ct_ops: get("robust.degraded_ct_ops")?,
            resyncs: get("robust.resyncs")?,
            faults_injected: get("robust.faults_injected")?,
        },
        taint: TaintStats {
            marked_bytes: get("taint.marked_bytes")?,
            leak_violations: get("taint.leak_violations")?,
        },
        spec: SpecStats {
            branches: get("spec.branches")?,
            mispredicts: get("spec.mispredicts")?,
            squashes: get("spec.squashes")?,
            wrong_path_accesses: get("spec.wrong_path_accesses")?,
            wrong_path_fills: get("spec.wrong_path_fills")?,
        },
    })
}

/// The reference decoder: the order-free `HashMap` decoder the one-pass
/// decoder replaced. Lines may come in any order, a repeated key keeps
/// its last value, unknown keys are ignored, and everything after the
/// first `end` line is ignored.
fn reference_decode(text: &str) -> Option<CellReport> {
    let mut lines = text.lines();
    if lines.next()? != SCHEMA_VERSION {
        return None;
    }
    let mut label = None;
    let mut digest = None;
    let mut fields: HashMap<&str, u64> = HashMap::new();
    let mut closed = false;
    for line in lines {
        if line == "end" {
            closed = true;
            break;
        }
        let (key, value) = line.split_once(' ')?;
        match key {
            "label" => label = Some(value.to_string()),
            "digest" => digest = Some(value.parse().ok()?),
            _ => {
                fields.insert(key, value.parse().ok()?);
            }
        }
    }
    if !closed {
        return None;
    }
    Some(CellReport {
        label: label?,
        digest: digest?,
        counters: counters_from(|key| fields.get(key).copied())?,
    })
}

/// Characters a label may hold: cell-label punctuation, spaces, digits
/// and multi-byte UTF-8, including characters whose continuation bytes
/// end in the bits of `\n` or a space (`Ċ` is `C4 8A`, `Ġ` is `C4 A0`),
/// Unicode line breaks `str::lines` does not split on, and a non-ASCII
/// digit. No `\n`: a label is one line of the text.
const LABEL_CHARS: &[char] = &[
    'h', 'i', 's', 't', '_', '2', 'k', '/', '@', ' ', '\t', 'é', '€', '😀', 'Ċ', 'Ġ', '\u{85}',
    '\u{2028}', '\u{663}',
];

/// Whole labels a mutation may write: multi-byte UTF-8 only.
const MULTIBYTE_LABELS: &[&str] = &["é€😀", "ĊĠ", "\u{2028}\u{85}", "\u{663}\u{ff17}", "😀 end"];

fn label() -> impl Strategy<Value = String> {
    vec(0..LABEL_CHARS.len(), 0..24).prop_map(|ix| ix.into_iter().map(|i| LABEL_CHARS[i]).collect())
}

/// A report whose every counter is drawn from `seed`, at every magnitude
/// from one digit to twenty, `u64::MAX` included.
fn report(label: String, digest: u64, seed: u64) -> CellReport {
    let mut x = seed;
    let counters = counters_from(|_| {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        Some(match z % 65 {
            64 => u64::MAX,
            shift => z >> shift,
        })
    })
    .expect("the generator never runs out");
    CellReport {
        label,
        digest,
        counters,
    }
}

/// Values no counter line may carry (among them `u64::MAX + 1` and
/// non-ASCII digits), plus edge cases the reference's `u64` parser
/// accepts: a leading `+`, leading zeros and `u64::MAX`.
const EDGE_VALUES: &[&str] = &[
    "",
    "x",
    "-1",
    "1.5",
    " 7",
    "7 ",
    "0x10",
    "18446744073709551616",
    "99999999999999999999",
    "\u{663}",
    "\u{ff17}",
    "+5",
    "007",
    "00",
    "18446744073709551615",
];

/// Lines a mutation may insert: foreign keys, a repeated real key, a
/// stray trailer, an early schema line, junk.
const JUNK_LINES: &[&str] = &[
    "cycles 5",
    "label other",
    "digest 1",
    "bogus 3",
    "end",
    "",
    "garbage",
    "ctbia-cell-v3",
];

/// Applies mutation `op` to `text`, steered by `a` and `b`.
fn mutate(text: &str, op: u8, a: u64, b: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len() as u64;
    let (i, j) = ((a % n) as usize, (b % n) as usize);
    match op {
        0 => lines.swap(i, j),
        1 => {
            lines.remove(i);
        }
        2 => {
            let copy = lines[i].clone();
            lines.insert(j, copy);
        }
        3 => {
            let key = lines[i].split(' ').next().unwrap_or_default().to_string();
            lines[i] = format!("{key} {}", EDGE_VALUES[(b as usize) % EDGE_VALUES.len()]);
        }
        4 => lines[0] = ["ctbia-cell-v2", "", "ctbia-cell-v3 "][(a % 3) as usize].into(),
        5 => lines.push(JUNK_LINES[(a as usize) % JUNK_LINES.len()].into()),
        6 => lines.insert(j, JUNK_LINES[(a as usize) % JUNK_LINES.len()].into()),
        7 => lines[i] = lines[i].replacen(' ', "  ", 1),
        // `\r\n` line endings throughout, which the reference reads as
        // `\n`.
        8 => return lines.iter().map(|l| format!("{l}\r\n")).collect(),
        // A `\r` before one number line's `\n`.
        9 => lines[2 + (a % (n - 3)) as usize].push('\r'),
        _ => {
            lines[1] = format!(
                "label {}",
                MULTIBYTE_LABELS[(a as usize) % MULTIBYTE_LABELS.len()]
            )
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// The one-pass decoder's contract against the reference on `text`.
fn assert_agrees(text: &str) {
    let fast = CellReport::from_cache_text(text);
    let reference = reference_decode(text);
    if let Some(fast) = &fast {
        assert_eq!(
            Some(fast),
            reference.as_ref(),
            "one-pass decoder accepted a text the reference reads otherwise:\n{text}"
        );
    }
}

#[test]
fn canonical_text_is_what_both_decoders_read() {
    let r = report("hist_2k/BIA@L1d".into(), 0xdead_beef, 7);
    let text = r.to_cache_text();
    assert_eq!(reference_decode(&text), Some(r.clone()));
    assert_eq!(CellReport::from_cache_text(&text), Some(r));
}

#[test]
fn twenty_digit_counters_round_trip_and_one_past_misses() {
    let r = CellReport {
        label: "é€😀/ĊĠ".into(),
        digest: u64::MAX,
        counters: counters_from(|_| Some(u64::MAX)).unwrap(),
    };
    let text = r.to_cache_text();
    assert_eq!(reference_decode(&text), Some(r.clone()));
    assert_eq!(CellReport::from_cache_text(&text), Some(r));
    let past = text.replacen(
        "cycles 18446744073709551615",
        "cycles 18446744073709551616",
        1,
    );
    assert_ne!(past, text);
    assert_eq!(CellReport::from_cache_text(&past), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_text_round_trips(label in label(), digest in any::<u64>(), seed in any::<u64>()) {
        let r = report(label, digest, seed);
        let text = r.to_cache_text();
        prop_assert_eq!(CellReport::from_cache_text(&text), Some(r.clone()));
        prop_assert_eq!(reference_decode(&text), Some(r));
    }

    #[test]
    fn mutated_text_misses_or_matches_the_reference(
        label in label(),
        digest in any::<u64>(),
        seed in any::<u64>(),
        op in 0u8..11,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let text = report(label, digest, seed).to_cache_text();
        assert_agrees(&mutate(&text, op, a, b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_truncation_misses_or_matches_the_reference(
        label in label(),
        digest in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let text = report(label, digest, seed).to_cache_text();
        for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert_agrees(&text[..cut]);
        }
    }
}
