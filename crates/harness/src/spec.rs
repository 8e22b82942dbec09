//! Experiment-cell descriptors: what to simulate, declaratively.
//!
//! A [`CellSpec`] is a pure-data description of one simulation — workload,
//! strategy, BIA placement, and the complete [`SimConfig`]. Cells carry
//! their own seeds (inside the workload descriptor), so executing a cell
//! is a pure function of the spec: the
//! same spec always produces the same [`CellReport`](crate::report::CellReport),
//! no matter which worker thread runs it or in what order. That property is
//! what makes both the parallel pool and the on-disk cache sound.

use crate::digest::Digest;
use ctbia_core::bia::BiaConfig;
use ctbia_machine::{BiaPlacement, CostModel, MachineConfig};
use ctbia_sim::config::HierarchyConfig;
use ctbia_workloads::crypto::{Aes, Blowfish, Cast, Des, Des3, Rc2, Rc4, XorCipher};
use ctbia_workloads::{
    BinarySearch, Dijkstra, HeapPop, Histogram, LeakyBinarySearch, Permutation, SpectreGadget,
    Workload,
};
use std::fmt;

/// One of the eight Figure 9 crypto kernels, at its default parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoKernel {
    /// AES-128 encryption (T-table style S-box lookups).
    Aes,
    /// RC2 block cipher.
    Rc2,
    /// RC4 stream cipher.
    Rc4,
    /// Blowfish (including the data-dependent key schedule).
    Blowfish,
    /// CAST-128.
    Cast,
    /// Single DES.
    Des,
    /// Triple DES.
    Des3,
    /// XOR stream cipher (the no-table control).
    Xor,
}

impl CryptoKernel {
    /// All eight kernels in the Figure 9 presentation order.
    pub const ALL: [CryptoKernel; 8] = [
        CryptoKernel::Aes,
        CryptoKernel::Rc2,
        CryptoKernel::Rc4,
        CryptoKernel::Blowfish,
        CryptoKernel::Cast,
        CryptoKernel::Des,
        CryptoKernel::Des3,
        CryptoKernel::Xor,
    ];

    /// The kernel's workload name, as the serve protocol spells it.
    pub fn tag(self) -> &'static str {
        match self {
            CryptoKernel::Aes => "aes",
            CryptoKernel::Rc2 => "rc2",
            CryptoKernel::Rc4 => "rc4",
            CryptoKernel::Blowfish => "blowfish",
            CryptoKernel::Cast => "cast",
            CryptoKernel::Des => "des",
            CryptoKernel::Des3 => "des3",
            CryptoKernel::Xor => "xor",
        }
    }

    fn build(self) -> Box<dyn Workload> {
        match self {
            CryptoKernel::Aes => Box::new(Aes::default()),
            CryptoKernel::Rc2 => Box::new(Rc2::default()),
            CryptoKernel::Rc4 => Box::new(Rc4::default()),
            CryptoKernel::Blowfish => Box::new(Blowfish::default()),
            CryptoKernel::Cast => Box::new(Cast::default()),
            CryptoKernel::Des => Box::new(Des::default()),
            CryptoKernel::Des3 => Box::new(Des3::default()),
            CryptoKernel::Xor => Box::new(XorCipher::default()),
        }
    }

    /// The kernel at its default parameters but with the key/input seed
    /// replaced — the trace-equivalence oracle's way of drawing fresh
    /// secrets while keeping the public structure fixed.
    pub fn build_seeded(self, seed: u64) -> Box<dyn Workload> {
        match self {
            CryptoKernel::Aes => Box::new(Aes {
                seed,
                ..Aes::default()
            }),
            CryptoKernel::Rc2 => Box::new(Rc2 {
                seed,
                ..Rc2::default()
            }),
            CryptoKernel::Rc4 => Box::new(Rc4 {
                seed,
                ..Rc4::default()
            }),
            CryptoKernel::Blowfish => Box::new(Blowfish {
                seed,
                ..Blowfish::default()
            }),
            CryptoKernel::Cast => Box::new(Cast {
                seed,
                ..Cast::default()
            }),
            CryptoKernel::Des => Box::new(Des {
                seed,
                ..Des::default()
            }),
            CryptoKernel::Des3 => Box::new(Des3 {
                seed,
                ..Des3::default()
            }),
            CryptoKernel::Xor => Box::new(XorCipher {
                seed,
                ..XorCipher::default()
            }),
        }
    }
}

/// A pure-data workload descriptor: which kernel, at what size, with which
/// input seed. Every parameter that shapes the simulated access stream is
/// explicit here so it reaches the cell digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Dijkstra single-source shortest paths on `vertices` vertices.
    Dijkstra {
        /// Vertex count.
        vertices: usize,
        /// Input-graph seed.
        seed: u64,
    },
    /// Secret-indexed histogram over `size` input elements.
    Histogram {
        /// Input length.
        size: usize,
        /// Input seed.
        seed: u64,
    },
    /// Secret permutation of a `size`-element array.
    Permutation {
        /// Array length.
        size: usize,
        /// Permutation seed.
        seed: u64,
    },
    /// `searches` binary searches over a `size`-element sorted array.
    BinarySearch {
        /// Array length.
        size: usize,
        /// Number of searches.
        searches: usize,
        /// Key seed.
        seed: u64,
    },
    /// `pops` pops from a `size`-element binary heap.
    HeapPop {
        /// Heap size.
        size: usize,
        /// Number of pops.
        pops: usize,
        /// Heap-content seed.
        seed: u64,
    },
    /// The intentionally leaky binary search — the verifier's negative
    /// control (raw secret-indexed probe).
    LeakyBinarySearch {
        /// Array length.
        size: usize,
        /// Number of searches.
        searches: usize,
        /// Key seed.
        seed: u64,
    },
    /// The Spectre-v1 bounds-check-bypass gadget — the speculation-era
    /// negative control (leaks only when `spec_window > 0`).
    SpectreGadget {
        /// Architecturally accessible array length.
        size: usize,
        /// Out-of-bounds attack rounds.
        attacks: usize,
        /// Planted-secret seed.
        seed: u64,
    },
    /// One of the crypto kernels at its default parameters.
    Crypto(CryptoKernel),
}

impl WorkloadSpec {
    /// The spec equivalent of the CLI's workload constructors: `name` is a
    /// CLI workload name (long or short form) and `size` the element count.
    /// Seeds and auxiliary parameters match the workload's `new()` defaults,
    /// so a spec-built cell simulates exactly what `ctbia run` always has.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown workload.
    pub fn named(name: &str, size: usize) -> Result<WorkloadSpec, String> {
        Ok(match name {
            "dijkstra" | "dij" => {
                let w = Dijkstra::new(size.min(256));
                WorkloadSpec::Dijkstra {
                    vertices: w.vertices,
                    seed: w.seed,
                }
            }
            "histogram" | "hist" => {
                let w = Histogram::new(size);
                WorkloadSpec::Histogram {
                    size: w.size,
                    seed: w.seed,
                }
            }
            "permutation" | "perm" => {
                let w = Permutation::new(size);
                WorkloadSpec::Permutation {
                    size: w.size,
                    seed: w.seed,
                }
            }
            "binary-search" | "bin" => {
                let w = BinarySearch::new(size);
                WorkloadSpec::BinarySearch {
                    size: w.size,
                    searches: w.searches,
                    seed: w.seed,
                }
            }
            "heappop" | "heap" => {
                let w = HeapPop::new(size);
                WorkloadSpec::HeapPop {
                    size: w.size,
                    pops: w.pops,
                    seed: w.seed,
                }
            }
            "leaky-bin" | "leaky" => {
                let w = LeakyBinarySearch::new(size);
                WorkloadSpec::LeakyBinarySearch {
                    size: w.inner.size,
                    searches: w.inner.searches,
                    seed: w.inner.seed,
                }
            }
            "spectre" | "spec" => {
                let w = SpectreGadget::new(size);
                WorkloadSpec::SpectreGadget {
                    size: w.size,
                    attacks: w.attacks,
                    seed: w.seed,
                }
            }
            other => return Err(format!("unknown workload '{other}' (try `ctbia list`)")),
        })
    }

    /// The size `ctbia run` and a size-less serve submit use for the
    /// workload `name`.
    pub fn default_size(name: &str) -> usize {
        match name {
            "dijkstra" | "dij" => 64,
            _ => 2000,
        }
    }

    /// Instantiates the runnable workload this spec describes.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Dijkstra { vertices, seed } => Box::new(Dijkstra { vertices, seed }),
            WorkloadSpec::Histogram { size, seed } => Box::new(Histogram { size, seed }),
            WorkloadSpec::Permutation { size, seed } => Box::new(Permutation { size, seed }),
            WorkloadSpec::BinarySearch {
                size,
                searches,
                seed,
            } => Box::new(BinarySearch {
                size,
                searches,
                seed,
            }),
            WorkloadSpec::HeapPop { size, pops, seed } => Box::new(HeapPop { size, pops, seed }),
            WorkloadSpec::LeakyBinarySearch {
                size,
                searches,
                seed,
            } => Box::new(LeakyBinarySearch {
                inner: BinarySearch {
                    size,
                    searches,
                    seed,
                },
            }),
            WorkloadSpec::SpectreGadget {
                size,
                attacks,
                seed,
            } => Box::new(SpectreGadget {
                size,
                attacks,
                seed,
            }),
            WorkloadSpec::Crypto(k) => k.build(),
        }
    }

    /// The same workload with its secret-input seed replaced. The seed
    /// varies only the *secrets* (keys, values, graph weights) — the
    /// public structure (sizes, iteration counts, layouts) is fixed by
    /// the spec — so two reseeded runs are exactly a "pair of secrets"
    /// in the trace-equivalence sense.
    pub fn build_reseeded(&self, seed: u64) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::Dijkstra { vertices, .. } => Box::new(Dijkstra { vertices, seed }),
            WorkloadSpec::Histogram { size, .. } => Box::new(Histogram { size, seed }),
            WorkloadSpec::Permutation { size, .. } => Box::new(Permutation { size, seed }),
            WorkloadSpec::BinarySearch { size, searches, .. } => Box::new(BinarySearch {
                size,
                searches,
                seed,
            }),
            WorkloadSpec::HeapPop { size, pops, .. } => Box::new(HeapPop { size, pops, seed }),
            WorkloadSpec::LeakyBinarySearch { size, searches, .. } => Box::new(LeakyBinarySearch {
                inner: BinarySearch {
                    size,
                    searches,
                    seed,
                },
            }),
            WorkloadSpec::SpectreGadget { size, attacks, .. } => Box::new(SpectreGadget {
                size,
                attacks,
                seed,
            }),
            WorkloadSpec::Crypto(k) => k.build_seeded(seed),
        }
    }

    /// The workload's display name (`hist_2k`, `AES`, ...).
    pub fn name(&self) -> String {
        self.build().name()
    }

    fn digest_into(&self, d: &mut Digest) {
        match *self {
            WorkloadSpec::Dijkstra { vertices, seed } => {
                d.field_str("workload", "dijkstra");
                d.field_u64("vertices", vertices as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::Histogram { size, seed } => {
                d.field_str("workload", "histogram");
                d.field_u64("size", size as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::Permutation { size, seed } => {
                d.field_str("workload", "permutation");
                d.field_u64("size", size as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::BinarySearch {
                size,
                searches,
                seed,
            } => {
                d.field_str("workload", "binary-search");
                d.field_u64("size", size as u64);
                d.field_u64("searches", searches as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::HeapPop { size, pops, seed } => {
                d.field_str("workload", "heappop");
                d.field_u64("size", size as u64);
                d.field_u64("pops", pops as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::LeakyBinarySearch {
                size,
                searches,
                seed,
            } => {
                d.field_str("workload", "leaky-bin");
                d.field_u64("size", size as u64);
                d.field_u64("searches", searches as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::SpectreGadget {
                size,
                attacks,
                seed,
            } => {
                d.field_str("workload", "spectre");
                d.field_u64("size", size as u64);
                d.field_u64("attacks", attacks as u64);
                d.field_u64("seed", seed);
            }
            WorkloadSpec::Crypto(k) => {
                d.field_str("workload", "crypto");
                d.field_str("kernel", k.tag());
            }
        }
    }
}

/// Which protection strategy a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySpec {
    /// Direct (leaky) accesses.
    Insecure,
    /// Scalar software constant-time linearization.
    Ct,
    /// AVX2-profiled software constant-time linearization (the paper's CT bar).
    CtAvx2,
    /// BIA-assisted linearization.
    Bia,
    /// BIA-assisted loads with software-linearized stores (the verify
    /// grid's "BIA-load" point).
    BiaLoads,
}

impl StrategySpec {
    /// Parses a CLI strategy name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown strategy.
    pub fn parse(s: &str) -> Result<StrategySpec, String> {
        Ok(match s {
            "insecure" => StrategySpec::Insecure,
            "ct" => StrategySpec::Ct,
            "ct-avx2" => StrategySpec::CtAvx2,
            "bia" => StrategySpec::Bia,
            "bia-loads" => StrategySpec::BiaLoads,
            other => return Err(format!("unknown strategy '{other}'")),
        })
    }

    /// The runnable [`ctbia_workloads::Strategy`] this spec describes.
    pub fn to_strategy(self) -> ctbia_workloads::Strategy {
        match self {
            StrategySpec::Insecure => ctbia_workloads::Strategy::Insecure,
            StrategySpec::Ct => ctbia_workloads::Strategy::software_ct(),
            StrategySpec::CtAvx2 => ctbia_workloads::Strategy::software_ct_avx2(),
            StrategySpec::Bia => ctbia_workloads::Strategy::bia(),
            StrategySpec::BiaLoads => ctbia_workloads::Strategy::bia_loads(),
        }
    }

    /// Whether cells with this strategy need a machine with a BIA.
    pub fn needs_bia(self) -> bool {
        matches!(self, StrategySpec::Bia | StrategySpec::BiaLoads)
    }

    fn tag(self) -> &'static str {
        match self {
            StrategySpec::Insecure => "insecure",
            StrategySpec::Ct => "ct",
            StrategySpec::CtAvx2 => "ct-avx2",
            StrategySpec::Bia => "bia",
            StrategySpec::BiaLoads => "bia-loads",
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategySpec::Insecure => f.write_str("insecure"),
            StrategySpec::Ct => f.write_str("CT"),
            StrategySpec::CtAvx2 => f.write_str("CT(avx2)"),
            StrategySpec::Bia => f.write_str("BIA"),
            StrategySpec::BiaLoads => f.write_str("BIA(loads)"),
        }
    }
}

/// The complete simulated-system configuration of a cell: hierarchy, BIA,
/// cost model, and machine parameters. Every field participates in the cell
/// digest — change any of them and the cell re-simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Cache hierarchy (Table 1 by default).
    pub hierarchy: HierarchyConfig,
    /// BIA geometry, used when the strategy needs one.
    pub bia: BiaConfig,
    /// Cycle-accounting model.
    pub cost: CostModel,
    /// Simulated RAM capacity in bytes.
    pub ram_bytes: u64,
    /// Whether stores silently drop dirtiness-neutral writes.
    pub silent_stores: bool,
    /// Bounded-speculation window in wrong-path accesses (0 = off).
    pub spec_window: u32,
    /// Branch-predictor seed; only meaningful when `spec_window > 0`.
    pub spec_seed: u64,
}

impl SimConfig {
    /// The CLI configuration: Table 1 hierarchy and BIA, the conservative
    /// in-order cost model (matching `ctbia run` since the seed).
    pub fn cli_default() -> Self {
        let m = MachineConfig::insecure();
        SimConfig {
            hierarchy: m.hierarchy,
            bia: BiaConfig::paper_table1(),
            cost: m.cost,
            ram_bytes: m.ram_bytes,
            silent_stores: m.silent_stores,
            spec_window: m.spec_window,
            spec_seed: m.spec_seed,
        }
    }

    /// The figure-harness configuration: as [`SimConfig::cli_default`] but
    /// with the `o3_approx` cost model the evaluation figures use.
    pub fn eval() -> Self {
        SimConfig {
            cost: CostModel::o3_approx(),
            ..SimConfig::cli_default()
        }
    }

    fn digest_cache(d: &mut Digest, prefix: &str, c: &ctbia_sim::config::CacheConfig) {
        d.field_str(prefix, &c.name);
        d.field_u64("size_bytes", c.size_bytes);
        d.field_u64("associativity", c.associativity as u64);
        d.field_u64("hit_latency", c.hit_latency);
        d.field_str("replacement", c.replacement.tag());
    }

    fn digest_into(&self, d: &mut Digest) {
        for (prefix, c) in [
            ("l1i", &self.hierarchy.l1i),
            ("l1d", &self.hierarchy.l1d),
            ("l2", &self.hierarchy.l2),
            ("llc", &self.hierarchy.llc),
        ] {
            Self::digest_cache(d, prefix, c);
        }
        d.field_u64("dram.latency", self.hierarchy.dram.latency);
        d.field_bool("dram.row_buffer", self.hierarchy.dram.row_buffer);
        d.field_u64("dram.row_hit_latency", self.hierarchy.dram.row_hit_latency);
        d.field_u64("dram.row_bytes", self.hierarchy.dram.row_bytes);
        d.field_u64("dram.banks", self.hierarchy.dram.banks as u64);
        d.field_bool("prefetcher", self.hierarchy.l1d_next_line_prefetcher);
        d.field_u64("llc_slices", self.hierarchy.llc_slices as u64);
        d.field_u64("llc_ls_hash_bit", self.hierarchy.llc_ls_hash_bit as u64);
        d.field_str("inclusion", self.hierarchy.inclusion.tag());
        d.field_u64("bia.entries", self.bia.entries as u64);
        d.field_u64("bia.associativity", self.bia.associativity as u64);
        d.field_u64("bia.latency", self.bia.latency);
        d.field_str("bia.replacement", self.bia.replacement.tag());
        d.field_u64("bia.granularity_log2", self.bia.granularity_log2 as u64);
        d.field_u64("cost.cycles_per_inst", self.cost.cycles_per_inst);
        d.field_u64("cost.l1_hit_overlap", self.cost.l1_hit_overlap);
        d.field_bool("cost.ds_hit", self.cost.ds_hit_cycles.is_some());
        d.field_u64("cost.ds_hit_cycles", self.cost.ds_hit_cycles.unwrap_or(0));
        d.field_u64("cost.ct_overlap", self.cost.ct_overlap);
        d.field_u64("ram_bytes", self.ram_bytes);
        d.field_bool("silent_stores", self.silent_stores);
        d.field_u64("spec_window", u64::from(self.spec_window));
        d.field_u64("spec_seed", self.spec_seed);
    }
}

/// One independent experiment cell: everything needed to simulate it, and
/// nothing that depends on the rest of the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// What to run.
    pub workload: WorkloadSpec,
    /// How secret-dependent accesses are performed.
    pub strategy: StrategySpec,
    /// Where the BIA sits. Ignored (and excluded from the digest) when the
    /// strategy does not need a BIA, so an insecure Histogram cell is the
    /// same cell no matter which placement a sweep paired it with.
    pub placement: BiaPlacement,
    /// The simulated system.
    pub config: SimConfig,
}

impl CellSpec {
    /// A cell with the CLI default configuration.
    pub fn new(workload: WorkloadSpec, strategy: StrategySpec, placement: BiaPlacement) -> Self {
        CellSpec {
            workload,
            strategy,
            placement,
            config: SimConfig::cli_default(),
        }
    }

    /// Same cell under the figure-harness (`o3_approx`) configuration.
    #[must_use]
    pub fn with_eval_config(mut self) -> Self {
        self.config = SimConfig::eval();
        self
    }

    /// Human-readable cell label: workload plus strategy (and placement for
    /// BIA cells), e.g. `hist_2k/BIA@L1d`.
    pub fn label(&self) -> String {
        if self.strategy.needs_bia() {
            format!(
                "{}/{}@{}",
                self.workload.name(),
                self.strategy,
                self.placement
            )
        } else {
            format!("{}/{}", self.workload.name(), self.strategy)
        }
    }

    /// The machine configuration this cell simulates on.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::insecure();
        cfg.hierarchy = self.config.hierarchy.clone();
        cfg.cost = self.config.cost;
        cfg.ram_bytes = self.config.ram_bytes;
        cfg.silent_stores = self.config.silent_stores;
        cfg.spec_window = self.config.spec_window;
        cfg.spec_seed = self.config.spec_seed;
        if self.strategy.needs_bia() {
            cfg.bia = Some((self.placement, self.config.bia));
        }
        cfg
    }

    /// The cell's content digest — the cache key.
    ///
    /// It ends with two constant fields, `audit false` and `faults "-"`.
    /// Cells once carried a shadow-audit switch and a fault schedule, and
    /// the key of every cell without them hashed exactly these two
    /// fields. Writing them as constants keeps every existing key valid:
    /// `results/cache/` entries, `results/verdicts/` file names and the
    /// serve daemon's memo keys (pinned by `tests/digest_properties.rs`).
    pub fn digest(&self) -> u128 {
        let mut d = Digest::new();
        self.workload.digest_into(&mut d);
        d.field_str("strategy", self.strategy.tag());
        let placement = if self.strategy.needs_bia() {
            self.placement.tag()
        } else {
            "-"
        };
        d.field_str("placement", placement);
        self.config.digest_into(&mut d);
        d.field_bool("audit", false);
        d.field_str("faults", "-");
        d.finish()
    }

    /// The digest as 32 hex digits — the cache file name.
    pub fn digest_hex(&self) -> String {
        format!("{:032x}", self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cell() -> CellSpec {
        CellSpec::new(
            WorkloadSpec::named("hist", 500).unwrap(),
            StrategySpec::Bia,
            BiaPlacement::L1d,
        )
    }

    #[test]
    fn named_matches_cli_constructors() {
        assert_eq!(WorkloadSpec::named("hist", 500).unwrap().name(), "hist_500");
        // The CLI caps dijkstra at 256 vertices; the spec must agree.
        match WorkloadSpec::named("dijkstra", 9999).unwrap() {
            WorkloadSpec::Dijkstra { vertices, .. } => assert_eq!(vertices, 256),
            other => panic!("wrong spec {other:?}"),
        }
        assert!(WorkloadSpec::named("nope", 1).is_err());
    }

    #[test]
    fn digest_is_stable_and_distinguishes_cells() {
        let a = base_cell();
        assert_eq!(a.digest(), base_cell().digest());
        let mut b = base_cell();
        b.placement = BiaPlacement::L2;
        assert_ne!(a.digest(), b.digest());
        let mut c = base_cell();
        c.workload = WorkloadSpec::named("hist", 501).unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn placement_is_normalized_away_for_non_bia_cells() {
        let mut a = base_cell();
        a.strategy = StrategySpec::Insecure;
        let mut b = a.clone();
        b.placement = BiaPlacement::Llc;
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn labels_read_like_the_cli() {
        assert_eq!(base_cell().label(), "hist_500/BIA@L1d");
        let mut c = base_cell();
        c.strategy = StrategySpec::CtAvx2;
        assert_eq!(c.label(), "hist_500/CT(avx2)");
    }

    #[test]
    fn bia_loads_strategy_parses_and_needs_a_bia() {
        assert_eq!(
            StrategySpec::parse("bia-loads").unwrap(),
            StrategySpec::BiaLoads
        );
        assert!(StrategySpec::BiaLoads.needs_bia());
        assert_eq!(StrategySpec::BiaLoads.to_string(), "BIA(loads)");
        let mut c = base_cell();
        c.strategy = StrategySpec::BiaLoads;
        assert_eq!(c.label(), "hist_500/BIA(loads)@L1d");
        assert_ne!(c.digest(), base_cell().digest());
    }

    #[test]
    fn leaky_workload_is_a_distinct_spec() {
        let w = WorkloadSpec::named("leaky-bin", 500).unwrap();
        assert_eq!(w.name(), "leaky-bin_500");
        let b = WorkloadSpec::named("bin", 500).unwrap();
        let mut d1 = Digest::new();
        w.digest_into(&mut d1);
        let mut d2 = Digest::new();
        b.digest_into(&mut d2);
        assert_ne!(d1.finish(), d2.finish());
    }

    #[test]
    fn spec_window_reaches_the_digest_and_the_machine() {
        let a = base_cell();
        let mut b = base_cell();
        b.config.spec_window = 32;
        assert_ne!(a.digest(), b.digest());
        assert_eq!(b.machine_config().spec_window, 32);
        let mut c = base_cell();
        c.config.spec_window = 32;
        c.config.spec_seed ^= 1;
        assert_ne!(b.digest(), c.digest());
    }

    #[test]
    fn spectre_workload_is_a_distinct_reseedable_spec() {
        let w = WorkloadSpec::named("spectre", 256).unwrap();
        assert_eq!(w.name(), "spectre_256");
        assert_eq!(w.build_reseeded(7).name(), w.build().name());
        match WorkloadSpec::named("spec", 256).unwrap() {
            WorkloadSpec::SpectreGadget { attacks, .. } => assert_eq!(attacks, 8),
            other => panic!("wrong spec {other:?}"),
        }
    }

    #[test]
    fn reseeding_changes_only_the_seed() {
        let w = WorkloadSpec::named("bin", 300).unwrap();
        // Same structure, same name; different secrets.
        assert_eq!(w.build_reseeded(7).name(), w.build().name());
        let c = WorkloadSpec::Crypto(CryptoKernel::Aes);
        assert_eq!(c.build_reseeded(7).name(), c.build().name());
    }
}
