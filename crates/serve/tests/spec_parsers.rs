//! Fuzz tests for the hand-written command-line spec parsers:
//! `TenantSpec::parse`, `ChaosSpec::parse` and `StrategySpec::parse`.
//!
//! Each parser gets garbage, every truncation of a valid spec, and
//! mutated valid specs. No input may panic. Garbage built so that no
//! valid spec can contain it must be an `Err`. Any spec a parser does
//! accept must satisfy the parser's own invariants and survive a round
//! trip through its rendered form.

use ctbia_harness::StrategySpec;
use ctbia_serve::{ChaosSpec, ChaosSpecError, TenantSpec};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters the fuzzer draws from: every separator and key letter the
/// grammars use, digits, signs, whitespace, and multi-byte UTF-8 (a byte
/// slice cut inside one would panic).
const ALPHABET: &[char] = &[
    ':', ',', '-', '+', ' ', '\t', '0', '1', '7', '9', 'a', 'c', 'e', 'i', 'l', 'n', 'o', 'p', 's',
    't', 'v', 'x', '2', 'é', '€', '😀', '\0',
];

const TENANTS: &[&str] = &[
    "alice:s3cret",
    "bob:tok:8:4:2",
    "capped:tok-c:1",
    "shared:tok-s:100:2",
    "w:t::3",
    "é€:😀:1:1:1",
];

const CHAOS: &[&str] = &[
    "panic:2,stall:1,torn:3,io:4,stall-ms:500,seed:42",
    "panic:1",
    " io : 3 , seed : 7 ",
    "torn:18446744073709551615",
    "",
];

const STRATEGIES: &[(&str, StrategySpec)] = &[
    ("insecure", StrategySpec::Insecure),
    ("ct", StrategySpec::Ct),
    ("ct-avx2", StrategySpec::CtAvx2),
    ("bia", StrategySpec::Bia),
    ("bia-loads", StrategySpec::BiaLoads),
];

fn text(chars: &'static [char], len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    vec(0..chars.len(), len).prop_map(move |ix| ix.into_iter().map(|i| chars[i]).collect())
}

/// Every prefix of `s` cut at a character boundary, `s` excluded.
fn truncations(s: &str) -> impl Iterator<Item = &str> {
    s.char_indices().map(move |(i, _)| &s[..i])
}

/// Applies mutation `op` at character `at` of `s`: replace, delete,
/// duplicate, or insert `c`.
fn mutate(s: &str, op: u8, at: usize, c: char) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    let i = if chars.is_empty() {
        0
    } else {
        at % chars.len()
    };
    match op % 4 {
        0 if !chars.is_empty() => chars[i] = c,
        1 if !chars.is_empty() => {
            chars.remove(i);
        }
        2 if !chars.is_empty() => chars.insert(i, chars[i]),
        _ => chars.insert(i, c),
    }
    chars.into_iter().collect()
}

/// Checks an accepted tenant against the grammar
/// `NAME:TOKEN[:MAX_INFLIGHT[:QUEUE_SHARE[:WEIGHT]]]` and re-parses its
/// fully spelled-out form.
fn check_tenant(input: &str) {
    let Ok(t) = TenantSpec::parse(input) else {
        return;
    };
    assert!(!t.name.is_empty() && !t.name.contains(':'), "{input:?}");
    assert!(!t.token.is_empty() && !t.token.contains(':'), "{input:?}");
    assert!(
        t.max_inflight >= 1 && t.queue_share >= 1 && t.weight >= 1,
        "{input:?}"
    );
    let full = format!(
        "{}:{}:{}:{}:{}",
        t.name, t.token, t.max_inflight, t.queue_share, t.weight
    );
    assert_eq!(TenantSpec::parse(&full), Ok(t), "{input:?}");
}

/// Checks an accepted chaos spec: a nonzero seed, a budget that does not
/// overflow, and `parse(spec.to_string()) == spec`.
fn check_chaos(input: &str) {
    let Ok(spec) = ChaosSpec::parse(input) else {
        return;
    };
    assert_ne!(spec.seed, 0, "{input:?}");
    let sum = [spec.stalls, spec.torn_writes, spec.io_errors]
        .iter()
        .try_fold(spec.panics, |a, &b| a.checked_add(b));
    assert_eq!(sum, Some(spec.budget()), "{input:?}");
    assert_eq!(ChaosSpec::parse(&spec.to_string()), Ok(spec), "{input:?}");
}

/// The strategy parser accepts exactly the five names.
fn check_strategy(input: &str) {
    let expected = STRATEGIES
        .iter()
        .find(|(name, _)| *name == input)
        .map(|&(_, s)| s);
    assert_eq!(StrategySpec::parse(input).ok(), expected, "{input:?}");
}

#[test]
fn truncated_specs_never_panic() {
    for spec in TENANTS {
        for cut in truncations(spec) {
            check_tenant(cut);
            if !cut.contains(':') {
                assert!(TenantSpec::parse(cut).is_err(), "{cut:?} has no token");
            }
        }
    }
    for spec in CHAOS {
        for cut in truncations(spec) {
            check_chaos(cut);
        }
    }
    for (name, _) in STRATEGIES {
        for cut in truncations(name) {
            check_strategy(cut);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Garbage: no valid tenant has one field or more than five, no valid
    /// chaos clause holds a `#`, and only five strings name a strategy.
    #[test]
    fn garbage_is_rejected(s in text(ALPHABET, 0..40), at in any::<u16>()) {
        check_tenant(&s);
        check_chaos(&s);
        check_strategy(&s);
        let one_field: String = s.chars().filter(|&c| c != ':').collect();
        prop_assert!(TenantSpec::parse(&one_field).is_err(), "{:?}", one_field);
        prop_assert!(TenantSpec::parse(&format!("{s}:a:1:1:1:")).is_err(), "{:?}", s);
        let mut poisoned: Vec<char> = s.chars().collect();
        poisoned.insert(at as usize % (poisoned.len() + 1), '#');
        let poisoned: String = poisoned.into_iter().collect();
        prop_assert!(ChaosSpec::parse(&poisoned).is_err(), "{:?}", poisoned);
    }

    /// Mutated valid specs, up to three edits deep, never panic, and
    /// whatever they parse to satisfies the parser's invariants.
    #[test]
    fn mutated_specs_never_panic(
        pick in any::<u16>(),
        edits in vec((any::<u8>(), any::<u16>(), 0..ALPHABET.len()), 1..4),
    ) {
        let apply = |base: &str| {
            edits
                .iter()
                .fold(base.to_string(), |s, &(op, at, c)| mutate(&s, op, at as usize, ALPHABET[c]))
        };
        check_tenant(&apply(TENANTS[pick as usize % TENANTS.len()]));
        check_chaos(&apply(CHAOS[pick as usize % CHAOS.len()]));
        check_strategy(&apply(STRATEGIES[pick as usize % STRATEGIES.len()].0));
    }

    /// Every spec the grammar allows round-trips through its rendered
    /// form; fault counts that sum past `u64::MAX` are a typed error.
    #[test]
    fn chaos_specs_round_trip(
        counts in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        shift in 0..64u32,
        stall_ms in any::<u64>(),
        seed in 1..u64::MAX,
    ) {
        // Shifted counts reach every magnitude, so both sides of the
        // overflow boundary are drawn.
        let spec = ChaosSpec {
            panics: counts.0 >> shift,
            stalls: counts.1 >> shift,
            torn_writes: counts.2 >> shift,
            io_errors: counts.3 >> shift,
            stall_ms,
            seed,
        };
        let fits = [spec.stalls, spec.torn_writes, spec.io_errors]
            .iter()
            .try_fold(spec.panics, |a, &b| a.checked_add(b))
            .is_some();
        let parsed = ChaosSpec::parse(&spec.to_string());
        if fits {
            prop_assert_eq!(parsed, Ok(spec));
        } else {
            prop_assert_eq!(parsed, Err(ChaosSpecError::BudgetOverflow));
        }
    }
}
