//! Configuration types for the cache hierarchy.
//!
//! The defaults reproduce Table 1 of the paper:
//!
//! | Component | Parameter |
//! |---|---|
//! | CPU | `DerivO3CPU` (here: the cycle-cost model of `ctbia-machine`) |
//! | L1d cache | 64 KB, 2 cycles latency |
//! | L2 cache | 1 MB, 15 cycles latency |
//! | Last-level cache | 16 MB, 41 cycles latency |
//! | BIA | in L1d/L2 cache, 1 KB, 1 cycle latency |
//!
//! The paper does not state associativities or the DRAM latency; we use
//! gem5-typical values (8-way L1d/L2, 16-way LLC, 200-cycle DRAM) and expose
//! every parameter so experiments can sweep them.

use crate::addr::LINE_BYTES;
use crate::replacement::ReplacementKind;
use std::fmt;

/// Multi-level inclusion policy for the data path.
///
/// The paper's threat model explicitly does not constrain inclusivity
/// ("caches can be inclusive, non-inclusive, or exclusive — and inclusivity
/// does not influence the effectiveness of our work", §2.4); all three are
/// implemented so that claim can be checked experimentally. The instruction
/// path is always modeled mostly-inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InclusionPolicy {
    /// Fill every probed level on a miss; no back-invalidation (the common
    /// "non-inclusive non-exclusive" arrangement). The default.
    #[default]
    MostlyInclusive,
    /// As above, plus back-invalidation: evicting a line from L2/LLC also
    /// removes it from the levels above (a dirty upper copy is flushed to
    /// DRAM — a modeling simplification).
    Inclusive,
    /// A line lives in at most one data level: lower-level hits migrate the
    /// line up and invalidate the lower copy; clean victims spill one level
    /// down (victim-cache style).
    Exclusive,
}

impl InclusionPolicy {
    /// The policy's name, as displayed and as hashed into cell digests.
    pub fn tag(self) -> &'static str {
        match self {
            InclusionPolicy::MostlyInclusive => "mostly-inclusive",
            InclusionPolicy::Inclusive => "inclusive",
            InclusionPolicy::Exclusive => "exclusive",
        }
    }
}

impl fmt::Display for InclusionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Errors produced when validating a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The cache size is not an exact multiple of `associativity * 64`.
    UnevenSets {
        /// Human-readable cache name.
        name: String,
        /// Configured capacity in bytes.
        size_bytes: u64,
        /// Configured associativity.
        associativity: u32,
    },
    /// A size, associativity, or set count that must be a power of two
    /// is not.
    NotPowerOfTwo {
        /// Human-readable cache name.
        name: String,
        /// The offending quantity ("sets", "associativity", ...).
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A parameter that must be non-zero is zero.
    Zero {
        /// Human-readable cache name.
        name: String,
        /// The offending quantity.
        what: &'static str,
    },
    /// The associativity exceeds 64 ways. The packed set layout keeps one
    /// 64-bit valid word and one 64-bit dirty word per set (bit *w* = way
    /// *w*), so a set cannot have more ways than an occupancy word has
    /// bits.
    TooManyWays {
        /// Human-readable cache name.
        name: String,
        /// The configured associativity.
        associativity: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnevenSets { name, size_bytes, associativity } => write!(
                f,
                "cache {name}: size {size_bytes} B is not a multiple of assoc {associativity} x {LINE_BYTES} B lines"
            ),
            ConfigError::NotPowerOfTwo { name, what, value } => {
                write!(f, "cache {name}: {what} {value} is not a power of two")
            }
            ConfigError::Zero { name, what } => {
                write!(f, "cache {name}: {what} must be non-zero")
            }
            ConfigError::TooManyWays {
                name,
                associativity,
            } => write!(
                f,
                "cache {name}: associativity {associativity} exceeds the 64 ways a packed \
                 occupancy word can track"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Configuration of a single cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in statistics and error messages.
    pub name: String,
    /// Total capacity in bytes. Must be a power-of-two multiple of
    /// `associativity * 64`.
    pub size_bytes: u64,
    /// Number of ways per set.
    pub associativity: u32,
    /// Access (hit) latency in cycles.
    pub hit_latency: u64,
    /// Replacement policy.
    pub replacement: ReplacementKind,
}

impl CacheConfig {
    /// Creates a cache configuration with LRU replacement.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_sim::config::CacheConfig;
    ///
    /// let l1 = CacheConfig::new("L1d", 64 * 1024, 8, 2);
    /// assert_eq!(l1.num_sets(), 128);
    /// ```
    pub fn new(
        name: impl Into<String>,
        size_bytes: u64,
        associativity: u32,
        hit_latency: u64,
    ) -> Self {
        CacheConfig {
            name: name.into(),
            size_bytes,
            associativity,
            hit_latency,
            replacement: ReplacementKind::Lru,
        }
    }

    /// Sets the replacement policy, consuming and returning the config for
    /// builder-style chaining.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementKind) -> Self {
        self.replacement = replacement;
        self
    }

    /// Number of sets implied by the size and associativity.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * LINE_BYTES)
    }

    /// Number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the capacity does not evenly divide into
    /// power-of-two sets, or any parameter is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.size_bytes == 0 {
            return Err(ConfigError::Zero {
                name: self.name.clone(),
                what: "size_bytes",
            });
        }
        if self.associativity == 0 {
            return Err(ConfigError::Zero {
                name: self.name.clone(),
                what: "associativity",
            });
        }
        if self.associativity > 64 {
            return Err(ConfigError::TooManyWays {
                name: self.name.clone(),
                associativity: self.associativity,
            });
        }
        let way_bytes = self.associativity as u64 * LINE_BYTES;
        if self.size_bytes % way_bytes != 0 {
            return Err(ConfigError::UnevenSets {
                name: self.name.clone(),
                size_bytes: self.size_bytes,
                associativity: self.associativity,
            });
        }
        let sets = self.size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                name: self.name.clone(),
                what: "set count",
                value: sets,
            });
        }
        Ok(())
    }
}

/// Configuration of the DRAM model.
///
/// The model charges [`DramConfig::latency`] per access; when
/// [`DramConfig::row_buffer`] is enabled, consecutive accesses to the same
/// DRAM row pay the cheaper [`DramConfig::row_hit_latency`] instead. The
/// paper's granularity discussion (§6.5) notes that with a closed-row policy
/// the memory controller leaks at no finer than page granularity; the default
/// here is a closed-row (no row buffer) fixed-latency model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of a row-miss (or every access when `row_buffer` is off).
    pub latency: u64,
    /// Whether to model an open row buffer per bank.
    pub row_buffer: bool,
    /// Latency of a row-buffer hit (only meaningful with `row_buffer`).
    pub row_hit_latency: u64,
    /// Row size in bytes (only meaningful with `row_buffer`).
    pub row_bytes: u64,
    /// Number of banks (only meaningful with `row_buffer`).
    pub banks: u32,
}

impl DramConfig {
    /// A fixed-latency, closed-row DRAM.
    pub fn closed_row(latency: u64) -> Self {
        DramConfig {
            latency,
            row_buffer: false,
            row_hit_latency: latency,
            row_bytes: 8192,
            banks: 16,
        }
    }

    /// An open-row DRAM with a row-buffer hit/miss latency split.
    pub fn open_row(row_hit_latency: u64, row_miss_latency: u64) -> Self {
        DramConfig {
            latency: row_miss_latency,
            row_buffer: true,
            row_hit_latency,
            row_bytes: 8192,
            banks: 16,
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::closed_row(200)
    }
}

/// Configuration of the full hierarchy: L1i, L1d, unified L2, unified LLC,
/// and DRAM, plus an optional next-line prefetcher at L1d.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Unified last-level cache.
    pub llc: CacheConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Enable a next-line prefetcher that fills `line + 1` into L1d on an
    /// L1d demand miss. Off by default (matches the paper's configuration;
    /// used by the Figure 6(d) scenario tests).
    pub l1d_next_line_prefetcher: bool,
    /// Number of LLC slices (1 = monolithic). Modern LLCs are sliced and
    /// distributed; traffic between cores and slices leaks which slice is
    /// addressed (paper §6.4). Must be a power of two.
    pub llc_slices: u32,
    /// Index of the least-significant physical-address bit used by the
    /// slice hash function — the paper's `LS_Hash`. Skylake-X-like
    /// machines have `LS_Hash >= 12`; Xeon-E5-like machines hash from
    /// bit 6. Only meaningful when `llc_slices > 1`; must be >= 6.
    pub llc_ls_hash_bit: u32,
    /// Multi-level inclusion policy of the data path.
    pub inclusion: InclusionPolicy,
}

impl HierarchyConfig {
    /// The paper's Table 1 configuration: 64 KB L1d (2 cycles), 1 MB L2
    /// (15 cycles), 16 MB LLC (41 cycles); 32 KB L1i; 200-cycle DRAM.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_sim::config::HierarchyConfig;
    ///
    /// let cfg = HierarchyConfig::paper_table1();
    /// assert_eq!(cfg.l1d.size_bytes, 64 * 1024);
    /// assert_eq!(cfg.l2.hit_latency, 15);
    /// assert_eq!(cfg.llc.size_bytes, 16 * 1024 * 1024);
    /// cfg.validate().unwrap();
    /// ```
    pub fn paper_table1() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new("L1i", 32 * 1024, 8, 2),
            l1d: CacheConfig::new("L1d", 64 * 1024, 8, 2),
            l2: CacheConfig::new("L2", 1024 * 1024, 8, 15),
            llc: CacheConfig::new("LLC", 16 * 1024 * 1024, 16, 41),
            dram: DramConfig::default(),
            l1d_next_line_prefetcher: false,
            llc_slices: 1,
            llc_ls_hash_bit: 12,
            inclusion: InclusionPolicy::MostlyInclusive,
        }
    }

    /// A deliberately tiny hierarchy for fast unit tests: 1 KB L1 caches,
    /// 8 KB L2, 64 KB LLC.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::new("L1i", 1024, 2, 2),
            l1d: CacheConfig::new("L1d", 1024, 2, 2),
            l2: CacheConfig::new("L2", 8 * 1024, 4, 15),
            llc: CacheConfig::new("LLC", 64 * 1024, 8, 41),
            dram: DramConfig::default(),
            l1d_next_line_prefetcher: false,
            llc_slices: 1,
            llc_ls_hash_bit: 12,
            inclusion: InclusionPolicy::MostlyInclusive,
        }
    }

    /// A Table 1 hierarchy with a sliced LLC: `slices` slices hashed from
    /// physical-address bit `ls_hash_bit` upward (paper §6.4).
    pub fn sliced_llc(slices: u32, ls_hash_bit: u32) -> Self {
        HierarchyConfig {
            llc_slices: slices,
            llc_ls_hash_bit: ls_hash_bit,
            ..Self::paper_table1()
        }
    }

    /// Validates every level.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any level.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1i.validate()?;
        self.l1d.validate()?;
        self.l2.validate()?;
        self.llc.validate()?;
        if self.llc_slices == 0 || !self.llc_slices.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                name: "LLC".into(),
                what: "slice count",
                value: self.llc_slices as u64,
            });
        }
        if self.llc_slices > 1 && self.llc_ls_hash_bit < 6 {
            return Err(ConfigError::Zero {
                name: "LLC".into(),
                what: "ls_hash_bit (must be >= 6)",
            });
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper_table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_validates() {
        HierarchyConfig::paper_table1().validate().unwrap();
        HierarchyConfig::tiny().validate().unwrap();
        HierarchyConfig::default().validate().unwrap();
    }

    #[test]
    fn table1_set_counts() {
        let cfg = HierarchyConfig::paper_table1();
        assert_eq!(cfg.l1d.num_sets(), 128);
        // The paper's Figure 10 reports "2048 cache sets in our experiment
        // setting" — that is the 1 MB, 8-way L2.
        assert_eq!(cfg.l2.num_sets(), 2048);
        assert_eq!(cfg.llc.num_sets(), 16384);
        assert_eq!(cfg.l1d.num_lines(), 1024);
    }

    #[test]
    fn uneven_size_rejected() {
        let bad = CacheConfig::new("X", 1000, 4, 1);
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::UnevenSets { .. })
        ));
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        // 3 * 4 * 64 = 768 bytes -> 3 sets.
        let bad = CacheConfig::new("X", 768, 4, 1);
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, ConfigError::NotPowerOfTwo { value: 3, .. }));
        assert!(err.to_string().contains("not a power of two"));
    }

    #[test]
    fn zero_rejected() {
        assert!(CacheConfig::new("X", 0, 4, 1).validate().is_err());
        assert!(CacheConfig::new("X", 1024, 0, 1).validate().is_err());
    }

    #[test]
    fn over_64_ways_rejected() {
        let bad = CacheConfig::new("X", 128 * 64 * 2, 128, 1);
        let err = bad.validate().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::TooManyWays {
                associativity: 128,
                ..
            }
        ));
        assert!(err.to_string().contains("64"), "{err}");
        // The boundary itself is fine.
        CacheConfig::new("X", 64 * 64, 64, 1).validate().unwrap();
    }

    #[test]
    fn error_display_is_informative() {
        let err = CacheConfig::new("L1d", 1000, 4, 1).validate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("L1d"), "message should name the cache: {msg}");
        assert!(
            msg.contains("1000"),
            "message should include the size: {msg}"
        );
    }

    #[test]
    fn sliced_llc_config() {
        let cfg = HierarchyConfig::sliced_llc(8, 12);
        cfg.validate().unwrap();
        assert_eq!(cfg.llc_slices, 8);
        assert!(
            HierarchyConfig::sliced_llc(3, 12).validate().is_err(),
            "non power of two"
        );
        assert!(
            HierarchyConfig::sliced_llc(4, 5).validate().is_err(),
            "hash below line bits"
        );
        assert!(
            HierarchyConfig::sliced_llc(4, 6).validate().is_ok(),
            "Xeon-E5-like"
        );
    }

    #[test]
    fn dram_constructors() {
        let closed = DramConfig::closed_row(100);
        assert!(!closed.row_buffer);
        assert_eq!(closed.latency, 100);
        let open = DramConfig::open_row(50, 150);
        assert!(open.row_buffer);
        assert_eq!(open.row_hit_latency, 50);
        assert_eq!(open.latency, 150);
    }

    #[test]
    fn builder_replacement() {
        use crate::replacement::ReplacementKind;
        let c = CacheConfig::new("L1d", 1024, 2, 2).with_replacement(ReplacementKind::Fifo);
        assert_eq!(c.replacement, ReplacementKind::Fifo);
    }
}
