//! Property test: the cell digest is sensitive to **every** `SimConfig`
//! field and to the workload size — changing any of them must change the
//! digest, so a stale cache entry can never be returned for a modified
//! experiment. Plus literal pins: the keys of representative cells may
//! never move, or every `results/cache/` entry, `results/verdicts/` file
//! and served memo key written under them is silently orphaned. And a
//! reference twin: the digest over generated configs equals the one the
//! `to_string()`-based encoding of the policy names gave.

use ctbia_analyze::analyze_grid;
use ctbia_harness::{CellSpec, CryptoKernel, Digest, SimConfig, StrategySpec, WorkloadSpec};
use ctbia_machine::BiaPlacement;
use ctbia_sim::config::InclusionPolicy;
use ctbia_sim::replacement::ReplacementKind;
use ctbia_verify::verify_grid;
use proptest::prelude::*;

fn base_cell() -> CellSpec {
    CellSpec::new(
        WorkloadSpec::named("hist", 777).unwrap(),
        StrategySpec::Bia,
        BiaPlacement::L1d,
    )
}

/// Number of distinct mutations below.
const MUTATIONS: usize = 30;

/// Applies mutation `field` (perturbing by `bump`, never a no-op) to the
/// cell's `SimConfig` — one arm per digestible field.
fn mutate(cfg: &mut SimConfig, field: usize, bump: u64) {
    let bump32 = (bump % 1000 + 1) as u32;
    match field {
        0 => cfg.hierarchy.l1i.size_bytes += bump,
        1 => cfg.hierarchy.l1i.associativity += bump32,
        2 => cfg.hierarchy.l1i.hit_latency += bump,
        3 => cfg.hierarchy.l1d.size_bytes += bump,
        4 => cfg.hierarchy.l1d.associativity += bump32,
        5 => cfg.hierarchy.l1d.hit_latency += bump,
        6 => {
            cfg.hierarchy.l1d.replacement = ReplacementKind::Fifo;
        }
        7 => cfg.hierarchy.l2.size_bytes += bump,
        8 => cfg.hierarchy.l2.associativity += bump32,
        9 => cfg.hierarchy.l2.hit_latency += bump,
        10 => cfg.hierarchy.llc.size_bytes += bump,
        11 => cfg.hierarchy.llc.associativity += bump32,
        12 => cfg.hierarchy.llc.hit_latency += bump,
        13 => cfg.hierarchy.dram.latency += bump,
        14 => cfg.hierarchy.dram.row_buffer = !cfg.hierarchy.dram.row_buffer,
        15 => cfg.hierarchy.dram.row_hit_latency += bump,
        16 => cfg.hierarchy.dram.row_bytes += bump,
        17 => cfg.hierarchy.dram.banks += bump32,
        18 => cfg.hierarchy.l1d_next_line_prefetcher = !cfg.hierarchy.l1d_next_line_prefetcher,
        19 => cfg.hierarchy.llc_slices += bump32,
        20 => cfg.hierarchy.llc_ls_hash_bit += bump32,
        21 => {
            cfg.hierarchy.inclusion = InclusionPolicy::Exclusive;
        }
        22 => cfg.bia.entries += bump32,
        23 => cfg.bia.associativity += bump32,
        24 => cfg.bia.latency += bump,
        25 => cfg.bia.granularity_log2 += bump32,
        26 => cfg.cost.cycles_per_inst += bump,
        27 => cfg.cost.ct_overlap += bump,
        28 => cfg.ram_bytes += bump,
        _ => cfg.silent_stores = !cfg.silent_stores,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn any_sim_config_change_changes_the_digest(
        field in 0usize..MUTATIONS,
        bump in 1u64..1_000_000,
    ) {
        let base = base_cell();
        let mut modified = base.clone();
        mutate(&mut modified.config, field, bump);
        prop_assert_ne!(base.config.clone(), modified.config.clone(),
            "mutation {} must actually change the config", field);
        prop_assert_ne!(base.digest(), modified.digest(),
            "mutation {} must change the digest", field);
    }

    #[test]
    fn workload_size_and_seed_reach_the_digest(
        size in 1usize..10_000,
        delta in 1usize..500,
        seed_bump in 1u64..1_000_000,
    ) {
        let mut a = base_cell();
        a.workload = WorkloadSpec::named("hist", size).unwrap();
        let mut b = a.clone();
        b.workload = WorkloadSpec::named("hist", size + delta).unwrap();
        prop_assert_ne!(a.digest(), b.digest(), "size change must change the digest");
        let mut c = a.clone();
        if let WorkloadSpec::Histogram { seed, .. } = &mut c.workload {
            *seed = seed.wrapping_add(seed_bump);
        }
        prop_assert_ne!(a.digest(), c.digest(), "seed change must change the digest");
    }

    #[test]
    fn cost_model_options_reach_the_digest(flat in 0u64..64, overlap in 1u64..64) {
        // ds_hit_cycles is an Option: None, Some(0), Some(k) must all be
        // distinct digests (the bool+value encoding).
        let base = base_cell();
        let mut some = base.clone();
        some.config.cost.ds_hit_cycles = Some(flat);
        prop_assert_ne!(base.digest(), some.digest());
        let mut more = base.clone();
        more.config.cost.l1_hit_overlap += overlap;
        prop_assert_ne!(base.digest(), more.digest());
    }
}

#[test]
fn bia_replacement_kind_reaches_the_digest() {
    let base = base_cell();
    let mut modified = base.clone();
    modified.config.bia.replacement = ReplacementKind::Random;
    assert_ne!(base.digest(), modified.digest());
}

#[test]
fn mutation_arms_cover_every_field_once() {
    // Sanity: all arms produce distinct configs (no two arms collide on the
    // same field with the same effect).
    let mut digests = std::collections::HashSet::new();
    digests.insert(base_cell().digest());
    for field in 0..MUTATIONS {
        let mut cell = base_cell();
        mutate(&mut cell.config, field, 3);
        assert!(
            digests.insert(cell.digest()),
            "mutation {field} collided with a previous digest"
        );
    }
    assert_eq!(digests.len(), MUTATIONS + 1);
}

/// Representative cells and their cache keys, recorded before the cell
/// lost its audit and fault fields: the digest still ends with their
/// fault-free encoding, so none of these may change.
fn pinned_cells() -> Vec<(&'static str, CellSpec)> {
    let hist = WorkloadSpec::named("hist", 500).unwrap();
    let mut spectre = CellSpec::new(
        WorkloadSpec::named("spectre", 256).unwrap(),
        StrategySpec::Ct,
        BiaPlacement::L1d,
    );
    spectre.config.spec_window = 32;
    let mut silent = CellSpec::new(
        WorkloadSpec::named("bin", 600).unwrap(),
        StrategySpec::Bia,
        BiaPlacement::L1d,
    );
    silent.config.silent_stores = true;
    vec![
        (
            "fc2b6708f0118626ccf9a2c4d83ecb58",
            CellSpec::new(hist, StrategySpec::Bia, BiaPlacement::L1d),
        ),
        (
            "1f92f2d0482281d6e1421d4f1ff96d5e",
            CellSpec::new(hist, StrategySpec::Bia, BiaPlacement::L1d).with_eval_config(),
        ),
        (
            "7d83b9af4e004c7100ee253f9abf750e",
            CellSpec::new(hist, StrategySpec::Bia, BiaPlacement::L2).with_eval_config(),
        ),
        (
            "39b25bd9f8fd288d0a029eea0be203c6",
            CellSpec::new(hist, StrategySpec::Bia, BiaPlacement::Llc).with_eval_config(),
        ),
        (
            "3cd0bef0dad583ef2c42b72d5b3d8c68",
            CellSpec::new(
                WorkloadSpec::named("dij", 32).unwrap(),
                StrategySpec::Insecure,
                BiaPlacement::L1d,
            ),
        ),
        (
            "ee3f1818ee803193d2965d7844aaf9e2",
            CellSpec::new(
                WorkloadSpec::named("perm", 1000).unwrap(),
                StrategySpec::CtAvx2,
                BiaPlacement::L1d,
            )
            .with_eval_config(),
        ),
        (
            "7a4c3185bf996c00b33efd2208f825ab",
            CellSpec::new(
                WorkloadSpec::Crypto(CryptoKernel::Aes),
                StrategySpec::BiaLoads,
                BiaPlacement::L1d,
            ),
        ),
        ("18ac323437f7b82858a59b9a3df8a7b7", spectre),
        ("44e974b783b7c7a55079c155c8227872", silent),
    ]
}

#[test]
fn cache_keys_are_pinned() {
    for (key, cell) in pinned_cells() {
        assert_eq!(cell.digest_hex(), key, "{}: cache key moved", cell.label());
    }
}

#[test]
fn quick_grid_verdict_keys_are_pinned() {
    // Both name a committed `results/verdicts/` file.
    let verify = &verify_grid(true)[1];
    assert_eq!(verify.label(), "verify:dij_24/BIA@L1d");
    assert_eq!(
        format!("{:032x}", verify.digest()),
        "80fa65cc5a5b9825315f112126720675"
    );
    let analyze = &analyze_grid(true)[1];
    assert_eq!(analyze.label(), "analyze:dij_24/BIA@L1d");
    assert_eq!(
        format!("{:032x}", analyze.digest()),
        "46a614ea12b23adce92b0e9fb6846423"
    );
}

#[test]
fn crypto_verify_verdict_key_is_pinned() {
    // Crypto verdicts run the taint pass on the kernel itself, so their
    // keys differ from those of the oracle-only verdicts before it; this
    // one names a committed `results/verdicts/` file.
    let aes = verify_grid(false)
        .into_iter()
        .find(|c| c.label() == "verify:AES/CT")
        .unwrap();
    assert_eq!(
        format!("{:032x}", aes.digest()),
        "2872fb8db8530e0f8043e12dedae1e10"
    );
}

const REPLACEMENTS: [ReplacementKind; 3] = [
    ReplacementKind::Lru,
    ReplacementKind::Fifo,
    ReplacementKind::Random,
];
const INCLUSIONS: [InclusionPolicy; 3] = [
    InclusionPolicy::MostlyInclusive,
    InclusionPolicy::Inclusive,
    InclusionPolicy::Exclusive,
];
const STRATEGIES: [StrategySpec; 5] = [
    StrategySpec::Insecure,
    StrategySpec::Ct,
    StrategySpec::CtAvx2,
    StrategySpec::Bia,
    StrategySpec::BiaLoads,
];
const PLACEMENTS: [BiaPlacement; 3] = [BiaPlacement::L1d, BiaPlacement::L2, BiaPlacement::Llc];

/// The reference twin of `CellSpec::digest` for histogram cells: the
/// encoding as written when the replacement and inclusion policies were
/// hashed through `to_string()`.
fn reference_digest(cell: &CellSpec) -> u128 {
    let WorkloadSpec::Histogram { size, seed } = cell.workload else {
        panic!("the reference covers histogram cells");
    };
    let mut d = Digest::new();
    d.field_str("workload", "histogram");
    d.field_u64("size", size as u64);
    d.field_u64("seed", seed);
    let strategy = match cell.strategy {
        StrategySpec::Insecure => "insecure",
        StrategySpec::Ct => "ct",
        StrategySpec::CtAvx2 => "ct-avx2",
        StrategySpec::Bia => "bia",
        StrategySpec::BiaLoads => "bia-loads",
    };
    d.field_str("strategy", strategy);
    let placement = match (cell.strategy.needs_bia(), cell.placement) {
        (false, _) => "-",
        (true, BiaPlacement::L1d) => "l1d",
        (true, BiaPlacement::L2) => "l2",
        (true, BiaPlacement::Llc) => "llc",
    };
    d.field_str("placement", placement);
    let c = &cell.config;
    let h = &c.hierarchy;
    for (prefix, cache) in [
        ("l1i", &h.l1i),
        ("l1d", &h.l1d),
        ("l2", &h.l2),
        ("llc", &h.llc),
    ] {
        d.field_str(prefix, &cache.name);
        d.field_u64("size_bytes", cache.size_bytes);
        d.field_u64("associativity", cache.associativity as u64);
        d.field_u64("hit_latency", cache.hit_latency);
        d.field_str("replacement", &cache.replacement.to_string());
    }
    d.field_u64("dram.latency", h.dram.latency);
    d.field_bool("dram.row_buffer", h.dram.row_buffer);
    d.field_u64("dram.row_hit_latency", h.dram.row_hit_latency);
    d.field_u64("dram.row_bytes", h.dram.row_bytes);
    d.field_u64("dram.banks", h.dram.banks as u64);
    d.field_bool("prefetcher", h.l1d_next_line_prefetcher);
    d.field_u64("llc_slices", h.llc_slices as u64);
    d.field_u64("llc_ls_hash_bit", h.llc_ls_hash_bit as u64);
    d.field_str("inclusion", &h.inclusion.to_string());
    d.field_u64("bia.entries", c.bia.entries as u64);
    d.field_u64("bia.associativity", c.bia.associativity as u64);
    d.field_u64("bia.latency", c.bia.latency);
    d.field_str("bia.replacement", &c.bia.replacement.to_string());
    d.field_u64("bia.granularity_log2", c.bia.granularity_log2 as u64);
    d.field_u64("cost.cycles_per_inst", c.cost.cycles_per_inst);
    d.field_u64("cost.l1_hit_overlap", c.cost.l1_hit_overlap);
    d.field_bool("cost.ds_hit", c.cost.ds_hit_cycles.is_some());
    d.field_u64("cost.ds_hit_cycles", c.cost.ds_hit_cycles.unwrap_or(0));
    d.field_u64("cost.ct_overlap", c.cost.ct_overlap);
    d.field_u64("ram_bytes", c.ram_bytes);
    d.field_bool("silent_stores", c.silent_stores);
    d.field_u64("spec_window", u64::from(c.spec_window));
    d.field_u64("spec_seed", c.spec_seed);
    d.field_bool("audit", false);
    d.field_str("faults", "-");
    d.finish()
}

#[test]
fn policy_names_are_the_hashed_strings() {
    // The reference hashes `to_string()`: pin what it produced.
    let names: Vec<String> = REPLACEMENTS.iter().map(|r| r.to_string()).collect();
    assert_eq!(names, ["LRU", "FIFO", "random"]);
    let names: Vec<String> = INCLUSIONS.iter().map(|i| i.to_string()).collect();
    assert_eq!(names, ["mostly-inclusive", "inclusive", "exclusive"]);
}

#[test]
fn pinned_cells_match_the_reference() {
    for (key, cell) in pinned_cells() {
        if let WorkloadSpec::Histogram { .. } = cell.workload {
            assert_eq!(format!("{:032x}", reference_digest(&cell)), key);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn digest_equals_the_to_string_reference(
        policies in proptest::collection::vec(0usize..3, 6),
        strategy in 0usize..5,
        placement in 0usize..3,
        size in 1usize..5_000,
        eval in any::<bool>(),
        field in 0usize..MUTATIONS,
        bump in 1u64..1_000_000,
    ) {
        let hist = WorkloadSpec::named("hist", size).unwrap();
        let mut cell = CellSpec::new(hist, STRATEGIES[strategy], PLACEMENTS[placement]);
        if eval {
            cell = cell.with_eval_config();
        }
        mutate(&mut cell.config, field, bump);
        let h = &mut cell.config.hierarchy;
        h.l1i.replacement = REPLACEMENTS[policies[0]];
        h.l1d.replacement = REPLACEMENTS[policies[1]];
        h.l2.replacement = REPLACEMENTS[policies[2]];
        h.llc.replacement = REPLACEMENTS[policies[3]];
        h.inclusion = INCLUSIONS[policies[4]];
        cell.config.bia.replacement = REPLACEMENTS[policies[5]];
        prop_assert_eq!(cell.digest(), reference_digest(&cell));
    }
}

#[test]
fn every_policy_at_every_level_matches_the_reference() {
    // Exhaustive over each slot on its own, so no generated draw can
    // miss a (level, policy) pair.
    for slot in 0..6 {
        for k in 0..3 {
            let mut cell = base_cell();
            let h = &mut cell.config.hierarchy;
            match slot {
                0 => h.l1i.replacement = REPLACEMENTS[k],
                1 => h.l1d.replacement = REPLACEMENTS[k],
                2 => h.l2.replacement = REPLACEMENTS[k],
                3 => h.llc.replacement = REPLACEMENTS[k],
                4 => h.inclusion = INCLUSIONS[k],
                _ => cell.config.bia.replacement = REPLACEMENTS[k],
            }
            assert_eq!(
                cell.digest(),
                reference_digest(&cell),
                "slot {slot}, kind {k}"
            );
        }
    }
}
