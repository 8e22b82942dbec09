//! The simulated machine: hierarchy + BIA + RAM + cost model, implementing
//! [`CtMemory`].
//!
//! The machine is the `ctbia` equivalent of the paper's modified gem5
//! system (§7.1): it executes memory operations against the cache
//! hierarchy, hands the BIA every monitored-level event as it happens, and
//! accounts instructions and cycles per the
//! [`crate::cost::CostModel`].

use crate::cost::CostModel;
use crate::counters::{Counters, RobustnessStats, SpecStats, TaintStats};
use crate::memory::{OutOfSimRam, SimRam};
use ctbia_core::bia::{Bia, BiaConfig, BiaConfigError, BiaView};
use ctbia_core::ctmem::{CtLoad, CtMemory, CtStore, LinearizeInfo, Width};
use ctbia_core::predicate::{ct_eq, select};
use ctbia_core::taint::{LeakViolation, TaintLabel};
use ctbia_sim::addr::{LineAddr, PhysAddr};
use ctbia_sim::cache::{AccessKind, Slot};
use ctbia_sim::config::{CacheConfig, ConfigError, HierarchyConfig};
use ctbia_sim::hierarchy::{
    AccessFlags, AccessResult, Hierarchy, Level, MonitorLevel, NullMonitor,
};
use ctbia_sim::HierarchyStats;
use ctbia_trace::{EventKind, LinearizeStats, MemOp, Phase, PhaseCycles, TraceRecord, TraceSink};
use std::collections::HashMap;
use std::fmt;

/// Where the BIA is attached. The paper evaluates L1d and L2 residency
/// (§4.2) and analyzes LLC residency (§6.4), which is feasible only when
/// the BIA granularity does not cross the LLC slice-hash boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BiaPlacement {
    /// BIA beside the L1 data cache.
    L1d,
    /// BIA beside the unified L2; every CT and dataflow-set access bypasses
    /// L1 for security (§4.2).
    L2,
    /// BIA beside the LLC; every CT and dataflow-set access bypasses both
    /// L1 and L2 (§6.4). The BIA granularity `M` must satisfy
    /// `M <= LS_Hash` so that each management group lives entirely in one
    /// slice and the interconnect traffic cannot resolve within a group.
    Llc,
}

impl BiaPlacement {
    /// Parses a placement's lower-case name (`l1d`, `l2` or `llc`), the
    /// spelling the CLI and the serve protocol share.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown placement.
    pub fn parse(s: &str) -> Result<BiaPlacement, String> {
        Ok(match s {
            "l1d" => BiaPlacement::L1d,
            "l2" => BiaPlacement::L2,
            "llc" => BiaPlacement::Llc,
            other => return Err(format!("unknown placement '{other}' (l1d, l2 or llc)")),
        })
    }

    /// The lower-case name [`BiaPlacement::parse`] accepts; cell digests
    /// hash it too.
    pub fn tag(self) -> &'static str {
        match self {
            BiaPlacement::L1d => "l1d",
            BiaPlacement::L2 => "l2",
            BiaPlacement::Llc => "llc",
        }
    }

    fn monitor(self) -> MonitorLevel {
        match self {
            BiaPlacement::L1d => MonitorLevel::L1d,
            BiaPlacement::L2 => MonitorLevel::L2,
            BiaPlacement::Llc => MonitorLevel::Llc,
        }
    }
}

impl fmt::Display for BiaPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiaPlacement::L1d => f.write_str("L1d"),
            BiaPlacement::L2 => f.write_str("L2"),
            BiaPlacement::Llc => f.write_str("LLC"),
        }
    }
}

/// Errors from building or using a [`Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// Invalid hierarchy configuration.
    Config(ConfigError),
    /// Invalid BIA configuration.
    Bia(BiaConfigError),
    /// The BIA placement is infeasible for this hierarchy (§6.4 LLC
    /// constraints).
    Placement(String),
    /// Simulated RAM exhausted.
    Ram(OutOfSimRam),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(e) => write!(f, "hierarchy configuration: {e}"),
            MachineError::Bia(e) => write!(f, "BIA configuration: {e}"),
            MachineError::Placement(e) => write!(f, "BIA placement: {e}"),
            MachineError::Ram(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ConfigError> for MachineError {
    fn from(e: ConfigError) -> Self {
        MachineError::Config(e)
    }
}

impl From<BiaConfigError> for MachineError {
    fn from(e: BiaConfigError) -> Self {
        MachineError::Bia(e)
    }
}

impl From<OutOfSimRam> for MachineError {
    fn from(e: OutOfSimRam) -> Self {
        MachineError::Ram(e)
    }
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cache hierarchy (defaults to the paper's Table 1).
    pub hierarchy: HierarchyConfig,
    /// Optional BIA and its placement.
    pub bia: Option<(BiaPlacement, BiaConfig)>,
    /// Cycle accounting.
    pub cost: CostModel,
    /// Simulated RAM size in bytes.
    pub ram_bytes: u64,
    /// Model *silent stores*: a store whose value equals the memory's
    /// current content does not set the dirty bit. The paper flags silent
    /// stores as the main undocumented-hardware threat to constant-time
    /// programming and defers them to future work (§2.4); enabling this
    /// switch lets the test suite demonstrate the leak they cause (see
    /// `tests/silent_stores.rs`). Off by default.
    pub silent_stores: bool,
    /// Bounded-speculation window: the maximum number of wrong-path
    /// demand accesses executed after a branch misprediction before the
    /// squash. 0 (the default) disables speculation entirely — the
    /// predictor never runs and the machine is byte-identical to the
    /// pre-speculation model.
    pub spec_window: u32,
    /// Seed for the deterministic branch predictor's initial per-site
    /// counters. Only meaningful when `spec_window > 0`.
    pub spec_seed: u64,
}

/// Default predictor seed: arbitrary but fixed, so every sweep cell with
/// the same window agrees on the misprediction schedule.
pub const DEFAULT_SPEC_SEED: u64 = 0x5bec_0000_c0de_0001;

impl MachineConfig {
    /// The insecure baseline machine: Table 1 hierarchy, no BIA.
    pub fn insecure() -> Self {
        MachineConfig {
            hierarchy: HierarchyConfig::paper_table1(),
            bia: None,
            cost: CostModel::default(),
            ram_bytes: 64 << 20,
            silent_stores: false,
            spec_window: 0,
            spec_seed: DEFAULT_SPEC_SEED,
        }
    }

    /// Table 1 machine with a Table 1 BIA at `placement`.
    pub fn with_bia(placement: BiaPlacement) -> Self {
        MachineConfig {
            bia: Some((placement, BiaConfig::paper_table1())),
            ..Self::insecure()
        }
    }

    /// The cache level whose residency the configured BIA monitors — the
    /// geometry a cache-state analysis of this machine must mirror. With
    /// no BIA the demand path's first observable level (L1d) is returned.
    pub fn monitored_cache(&self) -> &CacheConfig {
        match self.bia.as_ref().map(|(p, _)| *p) {
            None | Some(BiaPlacement::L1d) => &self.hierarchy.l1d,
            Some(BiaPlacement::L2) => &self.hierarchy.l2,
            Some(BiaPlacement::Llc) => &self.hierarchy.llc,
        }
    }

    /// The configured BIA's management granularity (`M`, as `log2` bytes),
    /// or the default page granularity (12) without a BIA — the grouping a
    /// static model of the CT-op sweeps must reproduce.
    pub fn bia_granularity_log2(&self) -> u32 {
        self.bia
            .as_ref()
            .map(|(_, c)| c.granularity_log2)
            .unwrap_or(12)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::insecure()
    }
}

/// A deterministic co-runner sharing the cache with the simulated program
/// — the paper's §5.1 general case of "other processes us[ing] the same
/// cache at the same time". Every `period` demand accesses of the program,
/// the co-runner performs its next action (round-robin over `actions`).
///
/// Co-runner activity perturbs cache and BIA state but is not charged to
/// the program's cycle/instruction counters and does not appear in its
/// demand trace (it is another process). Determinism is preserved: the
/// same program run sees the same interference.
#[derive(Debug, Clone)]
pub struct Interference {
    /// Program demand accesses between co-runner actions.
    pub period: u64,
    /// The co-runner's actions, applied round-robin.
    pub actions: Vec<CoRunnerOp>,
}

/// One co-runner action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoRunnerOp {
    /// Evict the line containing the address from every level (an attacker
    /// doing Prime+Probe maintenance, or a `clflush`).
    Flush(PhysAddr),
    /// Demand-read the address (another process touching its working set;
    /// fills caches and may evict program lines).
    Touch(PhysAddr),
    /// Prefetch-like clean fill of the line (Figure 6(d)'s scenario).
    Prefetch(PhysAddr),
}

/// One attacker-visible demand access, at cache-line granularity (the
/// threat model's observation granularity, §2.4).
///
/// `CTLoad`/`CTStore` lookups are *not* demand accesses: they change no
/// cache state and are invisible to an access-driven attacker (§5.3). The
/// conditional write of a `CTStore` changes only the *data* of an
/// already-dirty line ("they do not change anything except data"), so it
/// is likewise invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What kind of operation.
    pub op: MemOp,
    /// The touched line.
    pub line: LineAddr,
}

/// SplitMix64 finalizer: seeds the per-site branch predictor counters
/// deterministically from `spec_seed ^ site`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Whether an access routed by `flags` hit the nearest level it may use.
fn nearest_hit(flags: AccessFlags, hit_level: Level) -> bool {
    if flags.dram_direct {
        false
    } else if flags.bypass_l2 {
        hit_level == Level::Llc
    } else if flags.bypass_l1 {
        hit_level == Level::L2
    } else {
        hit_level == Level::L1d
    }
}

/// One CT-operation response as seen by the linearized program: the
/// existence bitmap of a `CTLoad` or the dirtiness bitmap of a
/// `CTStore`. Part of the
/// [`ObsTrace`] because the *program's* subsequent demand accesses are
/// a deterministic function of these bitmaps — if they were
/// secret-dependent, the leak would surface downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtResponse {
    /// `true` for a `CTStore` (dirtiness), `false` for a `CTLoad`
    /// (existence).
    pub store: bool,
    /// The bitmap returned to the program.
    pub bitmap: u64,
}

/// The observation trace the trace-equivalence oracle compares: every
/// attacker-visible demand access at cache-line granularity, every
/// CT-op bitmap response, and (under a sliced LLC-resident BIA) the
/// slice sequence of CT-op probes. Two runs of a constant-time program
/// on different secrets must produce **equal** observation traces
/// (DESIGN.md §10; the paper's Fig. 10 property, generalized).
///
/// It is a projection of the machine's one event stream, the stream a
/// [`TraceSink`] receives: each `Access`, `SpecAccess` and `CtOp` event
/// adds its attacker-visible part here, and nothing else does.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsTrace {
    /// Demand accesses, in program order, at line granularity.
    pub demand: Vec<TraceEvent>,
    /// CT-op responses, in program order.
    pub ct: Vec<CtResponse>,
    /// CT-op probe slices (LLC-resident BIA on a sliced LLC only).
    pub slices: Vec<u32>,
    /// Wrong-path demand accesses, at line granularity, in issue order.
    /// An access-driven attacker cannot tell a transient fill from an
    /// architectural one — the cache state change is identical — so
    /// these are first-class observations. Empty when `spec_window = 0`.
    pub spec: Vec<TraceEvent>,
}

impl ObsTrace {
    /// An order-sensitive FNV-1a digest of the whole trace.
    pub fn digest(&self) -> u64 {
        use std::iter::once;
        fn events(es: &[TraceEvent]) -> impl Iterator<Item = u64> + '_ {
            let words = es.iter().flat_map(|e| [e.op.index() as u64, e.line.raw()]);
            once(es.len() as u64).chain(words)
        }
        let ct = self.ct.iter().flat_map(|r| [r.store as u64, r.bitmap]);
        let slices = self.slices.iter().map(|&s| s as u64);
        // Mixed only when present so speculation-free digests are stable
        // across the channel's introduction.
        let spec = (!self.spec.is_empty()).then(|| events(&self.spec));
        events(&self.demand)
            .chain(once(self.ct.len() as u64).chain(ct))
            .chain(once(self.slices.len() as u64).chain(slices))
            .chain(spec.into_iter().flatten())
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// Describes the first point where `self` and `other` differ, or
    /// `None` when the traces are equal. Used for diagnostics when the
    /// oracle finds a divergence.
    pub fn first_divergence(&self, other: &ObsTrace) -> Option<String> {
        fn first<T: PartialEq>(
            (index, length): (&str, &str),
            a: &[T],
            b: &[T],
            show: impl Fn(&T) -> String,
        ) -> Option<String> {
            match a.iter().zip(b).position(|(x, y)| x != y) {
                Some(i) => Some(format!("{index}[{i}]: {} vs {}", show(&a[i]), show(&b[i]))),
                None => {
                    (a.len() != b.len()).then(|| format!("{length} {} vs {}", a.len(), b.len()))
                }
            }
        }
        let access = |e: &TraceEvent| format!("{:?}@{:#x}", e.op, e.line.raw());
        let response = |r: &CtResponse| {
            let kind = if r.store { "dirt" } else { "exist" };
            format!("{kind}:{:#x}", r.bitmap)
        };
        let (demand, ct) = (("demand", "demand length"), ("ct", "ct length"));
        let slice = ("slice", "slice length");
        let spec = ("wrong-path fill spec", "wrong-path fill count");
        first(demand, &self.demand, &other.demand, access)
            .or_else(|| first(ct, &self.ct, &other.ct, response))
            .or_else(|| first(slice, &self.slices, &other.slices, |s| s.to_string()))
            .or_else(|| first(spec, &self.spec, &other.spec, access))
    }
}

/// One event of the machine's observation stream, as its emission site
/// knows it: everything but the hierarchy-statistics delta, which only a
/// sink needs (see [`Machine::emit`]).
#[derive(Debug, Clone, Copy)]
enum Event<'a> {
    /// A demand access; `spec` marks a wrong-path one.
    Access {
        spec: bool,
        op: MemOp,
        line: LineAddr,
        result: AccessResult,
        cycles: u64,
    },
    /// An inline L1d hit of a batched sweep: a `DsLoad` or `DsStore`
    /// `Access` with the L1d hit's constants ([`Machine::l1d_hit_kind`]).
    L1dHit {
        op: MemOp,
        line: LineAddr,
    },
    /// A sweep-memo replay: every line hit the L1d, a `DsLoad` (and, for a
    /// `store` sweep, a `DsStore`) each, with `extra_insts` after each line.
    Replay {
        lines: &'a [LineAddr],
        store: bool,
        extra_insts: u64,
    },
    /// A `CTLoad` (`store: false`) or `CTStore` and its bitmap response.
    Ct {
        store: bool,
        line: LineAddr,
        bitmap: u64,
        cycles: u64,
    },
    Linearize(LinearizeInfo),
    Squash {
        site: u64,
        accesses: u64,
    },
}

/// The operations a software-CT sweep makes on each line, in order.
fn swept_ops(store: bool) -> &'static [MemOp] {
    if store {
        &[MemOp::DsLoad, MemOp::DsStore]
    } else {
        &[MemOp::DsLoad]
    }
}

/// The charges a batched sweep has not yet put on the clock: its inline
/// or replayed L1d hits (one instruction and one flat DS-hit service
/// each) and the lines whose `extra_insts` are due.
#[derive(Debug, Clone, Copy)]
struct Due {
    hits: u64,
    lines: u64,
    extra_insts: u64,
}

/// Shadow-taint state: a byte-granularity map holding only the bytes
/// currently labelled secret, plus the violations reported so far.
/// Boxed behind an `Option` so the disabled case costs one `None`
/// check.
#[derive(Debug, Default)]
struct TaintState {
    shadow: HashMap<u64, TaintLabel>,
    violations: Vec<LeakViolation>,
    reported: u64,
}

/// Dataflow sets the sweep memo remembers at once.
const SWEEP_MEMO_ENTRIES: usize = 8;

/// A software-CT sweep in which every line hit the L1d: the lines, their
/// slots, and the L1d residency epoch at which the slots were taken.
#[derive(Debug)]
struct ResidentSweep {
    epoch: u64,
    lines: Vec<LineAddr>,
    slots: Vec<Slot>,
}

/// Fully resident sweeps, for replay by a later sweep of the same lines
/// at the same epoch (see [`Machine::sweep_lines`]).
#[derive(Debug, Default)]
struct SweepMemo {
    entries: Vec<ResidentSweep>,
    /// The entry the next record overwrites once `entries` is full.
    next: usize,
    /// Slot buffer of the sweep in progress, kept for its allocation.
    scratch: Vec<Slot>,
}

impl SweepMemo {
    /// The slots of `lines` if they were all resident at `epoch`. The
    /// lines are matched by content, never by address of the slice.
    fn find(&self, epoch: u64, lines: &[LineAddr]) -> Option<&[Slot]> {
        self.entries
            .iter()
            .find(|e| e.epoch == epoch && e.lines == lines)
            .map(|e| e.slots.as_slice())
    }

    /// Remembers `slots`, one per line of `lines`, taken at `epoch`.
    fn record(&mut self, epoch: u64, lines: &[LineAddr], slots: Vec<Slot>) {
        if self.entries.len() < SWEEP_MEMO_ENTRIES {
            self.entries.push(ResidentSweep {
                epoch,
                lines: lines.to_vec(),
                slots,
            });
            return;
        }
        let e = &mut self.entries[self.next];
        self.next = (self.next + 1) % SWEEP_MEMO_ENTRIES;
        e.epoch = epoch;
        e.lines.clear();
        e.lines.extend_from_slice(lines);
        self.scratch = std::mem::replace(&mut e.slots, slots);
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.next = 0;
    }
}

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    hier: Hierarchy,
    bia: Option<Bia>,
    placement: Option<BiaPlacement>,
    ram: SimRam,
    cost: CostModel,
    cycles: u64,
    insts: u64,
    ct_loads: u64,
    ct_stores: u64,
    phases: PhaseCycles,
    linearize: LinearizeStats,
    /// Structured trace sink. Every event reaches it through
    /// [`Machine::emit`], which builds the event's sink form and takes its
    /// stats snapshot only while a sink is attached: a machine without one
    /// formats nothing and allocates nothing for tracing.
    sink: Option<Box<dyn TraceSink>>,
    /// The observation trace being recorded, the projection of the same
    /// events (see [`ObsTrace`]).
    obs: Option<ObsTrace>,
    /// The L1d-hit fast paths may run: the machine has no BIA (so no
    /// monitored level) and [`Machine::disable_fast_paths`] was not called.
    fast_paths: bool,
    taint: Option<Box<TaintState>>,
    silent_stores: bool,
    interference: Option<Interference>,
    interference_clock: u64,
    interference_next: usize,
    /// Bounded-speculation window (0 = speculation off; see
    /// [`MachineConfig::spec_window`]).
    spec_window: u32,
    spec_seed: u64,
    /// Per-site 2-bit saturating predictor counters, deterministically
    /// initialized from `spec_seed ^ site`. Empty when speculation is off.
    spec_predictor: HashMap<u64, u8>,
    /// True while the machine is executing a wrong-path window: demand
    /// accesses warm the hierarchy and charge the speculative phase but
    /// touch no architectural state.
    spec_active: bool,
    /// Wrong-path accesses issued in the current window.
    spec_used: u32,
    spec: SpecStats,
    sweep_memo: SweepMemo,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError`] for invalid hierarchy or BIA configurations.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_machine::machine::{BiaPlacement, Machine, MachineConfig};
    /// use ctbia_core::ctmem::CtMemoryExt;
    ///
    /// let mut m = Machine::new(MachineConfig::with_bia(BiaPlacement::L1d))?;
    /// let a = m.alloc(4096, 64)?;
    /// m.store_u32(a, 7);
    /// assert_eq!(m.load_u32(a), 7);
    /// assert!(m.counters().cycles > 0);
    /// # Ok::<(), ctbia_machine::machine::MachineError>(())
    /// ```
    pub fn new(config: MachineConfig) -> Result<Self, MachineError> {
        let mut hier = Hierarchy::new(config.hierarchy)?;
        let (bia, placement) =
            match config.bia {
                Some((placement, bia_cfg)) => {
                    if placement == BiaPlacement::Llc && hier.llc_slices() > 1 {
                        // §6.4 feasibility: every 2^M group must map to one
                        // slice, i.e. M <= LS_Hash; LS_Hash = 6 leaves no
                        // usable granularity.
                        let ls_hash = hier.llc_ls_hash_bit();
                        if ls_hash <= 6 {
                            return Err(MachineError::Placement(format!(
                            "LLC-resident BIA is infeasible when LS_Hash = {ls_hash} (consecutive \
                             lines are spread across slices, paper §6.4)"
                        )));
                        }
                        if bia_cfg.granularity_log2 > ls_hash {
                            return Err(MachineError::Placement(format!(
                            "LLC-resident BIA granularity M={} exceeds LS_Hash={} — a management \
                             group would span slices and the interconnect would leak (paper §6.4); \
                             use BiaConfig::with_granularity({})",
                            bia_cfg.granularity_log2, ls_hash, ls_hash.min(12)
                        )));
                        }
                    }
                    hier.set_monitor(Some(placement.monitor()));
                    (Some(Bia::new(bia_cfg)?), Some(placement))
                }
                None => (None, None),
            };
        Ok(Machine {
            hier,
            bia,
            placement,
            ram: SimRam::new(config.ram_bytes),
            cost: config.cost,
            cycles: 0,
            insts: 0,
            ct_loads: 0,
            ct_stores: 0,
            phases: PhaseCycles::default(),
            linearize: LinearizeStats::default(),
            sink: None,
            obs: None,
            fast_paths: placement.is_none(),
            taint: None,
            silent_stores: config.silent_stores,
            interference: None,
            interference_clock: 0,
            interference_next: 0,
            spec_window: config.spec_window,
            spec_seed: config.spec_seed,
            spec_predictor: HashMap::new(),
            spec_active: false,
            spec_used: 0,
            spec: SpecStats::default(),
            sweep_memo: SweepMemo::default(),
        })
    }

    /// The insecure-baseline machine (no BIA).
    ///
    /// # Panics
    ///
    /// Never panics — the default configuration is valid by construction.
    pub fn insecure() -> Self {
        Self::new(MachineConfig::insecure()).expect("default configuration is valid")
    }

    /// A Table 1 machine with a BIA at `placement`.
    pub fn with_bia(placement: BiaPlacement) -> Self {
        Self::new(MachineConfig::with_bia(placement)).expect("default configuration is valid")
    }

    /// Restores the machine to the state `Machine::new` would produce for
    /// the same configuration, while keeping the large allocations (cache
    /// arrays, BIA table, RAM backing) warm. Harnesses that simulate many
    /// short workloads reuse one machine per configuration instead of
    /// paying construction and teardown per cell.
    ///
    /// Everything attachable after construction — trace sinks,
    /// observation recording, taint, interference, the reference mode of
    /// [`Machine::disable_fast_paths`] — is dropped, exactly as a fresh
    /// machine would lack them.
    pub fn reset(&mut self) {
        self.hier.reset();
        if let Some(bia) = &mut self.bia {
            bia.reset();
        }
        self.ram.reset();
        self.cycles = 0;
        self.insts = 0;
        self.ct_loads = 0;
        self.ct_stores = 0;
        self.phases = PhaseCycles::default();
        self.linearize = LinearizeStats::default();
        self.sink = None;
        self.obs = None;
        self.fast_paths = self.bia.is_none();
        self.taint = None;
        self.interference = None;
        self.interference_clock = 0;
        self.interference_next = 0;
        // `spec_window`/`spec_seed` are configuration and survive the
        // reset; the predictor state and window bookkeeping do not.
        self.spec_predictor.clear();
        self.spec_active = false;
        self.spec_used = 0;
        self.spec = SpecStats::default();
        self.sweep_memo.clear();
    }

    /// The configured BIA placement, if any.
    pub fn bia_placement(&self) -> Option<BiaPlacement> {
        self.placement
    }

    /// The BIA, if configured.
    pub fn bia(&self) -> Option<&Bia> {
        self.bia.as_ref()
    }

    /// The cache hierarchy, read-only: every mutation goes through a
    /// machine operation, which hands the BIA each monitored-level event.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Allocates `size` bytes aligned to `align`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ram`] when simulated RAM is exhausted.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<PhysAddr, MachineError> {
        Ok(self.ram.alloc(size, align)?)
    }

    /// Allocates a line-aligned array of `n` 32-bit elements.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ram`] when simulated RAM is exhausted.
    pub fn alloc_u32_array(&mut self, n: u64) -> Result<PhysAddr, MachineError> {
        self.alloc(n * 4, 64)
    }

    /// Allocates a line-aligned array of `n` 64-bit elements.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Ram`] when simulated RAM is exhausted.
    pub fn alloc_u64_array(&mut self, n: u64) -> Result<PhysAddr, MachineError> {
        self.alloc(n * 8, 64)
    }

    /// Debug write, bypassing caches and cost model (test/benchmark setup —
    /// "the input was in memory before the program started").
    pub fn poke(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.ram.write(addr, width.bytes(), value);
    }

    /// Debug read, bypassing caches and cost model.
    pub fn peek(&self, addr: PhysAddr, width: Width) -> u64 {
        self.ram.read(addr, width.bytes())
    }

    /// Debug write of a `u32`.
    pub fn poke_u32(&mut self, addr: PhysAddr, v: u32) {
        self.poke(addr, Width::U32, v as u64);
    }

    /// Debug read of a `u32`.
    pub fn peek_u32(&self, addr: PhysAddr) -> u32 {
        self.peek(addr, Width::U32) as u32
    }

    /// Debug write of a `u64`.
    pub fn poke_u64(&mut self, addr: PhysAddr, v: u64) {
        self.poke(addr, Width::U64, v);
    }

    /// Debug read of a `u64`.
    pub fn peek_u64(&self, addr: PhysAddr) -> u64 {
        self.peek(addr, Width::U64)
    }

    /// Attaches a structured trace sink. From now on every demand access,
    /// CT micro-operation, linearization pass, wrong-path access and
    /// squash is delivered to the sink as a cycle-stamped
    /// [`TraceRecord`]. Sinks see the deterministic cycle clock only —
    /// never wall-clock — so traces are byte-reproducible.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches and returns the structured trace sink, if any. Use
    /// [`TraceSink::into_any`] to recover the concrete sink type.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// The one emission site of every event, stamped with the current
    /// cycle count (a replay's hits with the cycles the per-line loop
    /// reaches). While observation is on, the event's attacker-visible
    /// part goes into the [`ObsTrace`]; while a sink is attached, the event
    /// goes to the sink with its statistics delta since `before`
    /// ([`Machine::snapshot`]; `None` for an event that moved no statistic
    /// or whose delta is a constant). Without either it does nothing, and
    /// observation alone takes no stats snapshot and makes no dynamic call.
    #[inline(always)]
    fn emit(&mut self, ev: Event<'_>, before: Option<&HierarchyStats>) {
        if let Some(obs) = &mut self.obs {
            match ev {
                Event::Access { spec, op, line, .. } => {
                    let seen = if spec { &mut obs.spec } else { &mut obs.demand };
                    seen.push(TraceEvent { op, line });
                }
                Event::L1dHit { op, line } => obs.demand.push(TraceEvent { op, line }),
                Event::Replay { lines, store, .. } => {
                    let ops = swept_ops(store);
                    let events = lines
                        .iter()
                        .flat_map(|&line| ops.iter().map(move |&op| TraceEvent { op, line }));
                    obs.demand.extend(events);
                }
                Event::Ct {
                    store,
                    line,
                    bitmap,
                    ..
                } => {
                    obs.ct.push(CtResponse { store, bitmap });
                    // With a sliced LLC a CT operation travels over the
                    // interconnect to the slice holding its line, which a
                    // ring/mesh attacker observes at slice granularity
                    // (§6.4).
                    if self.placement == Some(BiaPlacement::Llc) {
                        obs.slices.push(self.hier.llc_slice_of(line));
                    }
                }
                Event::Linearize(_) | Event::Squash { .. } => {}
            }
        }
        if self.sink.is_some() {
            let delta = before.map_or_else(HierarchyStats::default, |b| self.hier.stats() - *b);
            self.record(ev, delta);
        }
    }

    /// Hands `ev` and its `delta` to the sink, out of the untraced path.
    #[cold]
    #[inline(never)]
    fn record(&mut self, ev: Event<'_>, delta: HierarchyStats) {
        let Some(mut sink) = self.sink.take() else {
            return;
        };
        let kind = match ev {
            Event::Access {
                spec: false,
                op,
                line,
                result,
                cycles,
            } => EventKind::Access {
                op,
                line: line.raw(),
                hit_level: result.hit_level,
                latency: result.latency,
                cycles,
                delta,
            },
            Event::Access {
                spec: true,
                op,
                line,
                result,
                cycles,
            } => EventKind::SpecAccess {
                op,
                line: line.raw(),
                hit_level: result.hit_level,
                latency: result.latency,
                cycles,
                delta,
            },
            Event::L1dHit { op, line } => self.l1d_hit_kind(op, line),
            // Each hit is stamped as the per-line loop stamps it: after its
            // own charges and those of every access before it.
            Event::Replay {
                lines,
                store,
                extra_insts,
            } => {
                let hit = self.cost.cycles_per_inst + self.ds_hit_sweep_cycles();
                let mut cycle = self.cycles;
                for &line in lines {
                    for &op in swept_ops(store) {
                        cycle += hit;
                        let kind = self.l1d_hit_kind(op, line);
                        sink.record(&TraceRecord { cycle, kind });
                    }
                    cycle += extra_insts * self.cost.cycles_per_inst;
                }
                self.sink = Some(sink);
                return;
            }
            Event::Ct {
                store,
                line,
                bitmap,
                cycles,
            } => EventKind::CtOp {
                store,
                line: line.raw(),
                bitmap,
                cycles,
                delta,
            },
            Event::Linearize(info) => EventKind::LinearizePass {
                store: info.store,
                software: info.software,
                group: info.group,
                ds_lines: info.ds_lines,
                skipped: info.skipped,
                fetched: info.fetched,
            },
            Event::Squash { site, accesses } => EventKind::Squash { site, accesses },
        };
        let cycle = self.cycles;
        sink.record(&TraceRecord { cycle, kind });
        self.sink = Some(sink);
    }

    /// The sink's form of a batched sweep's L1d hit. Its level, latency,
    /// cycles and statistics delta (one `l1d.reads` or `l1d.writes`, one
    /// `l1d.hits`) are the L1d hit's constants.
    fn l1d_hit_kind(&self, op: MemOp, line: LineAddr) -> EventKind {
        let mut delta = HierarchyStats::default();
        match op {
            MemOp::DsStore => delta.l1d.writes = 1,
            _ => delta.l1d.reads = 1,
        }
        delta.l1d.hits = 1;
        EventKind::Access {
            op,
            line: line.raw(),
            hit_level: Level::L1d,
            latency: self.hier.cache(Level::L1d).hit_latency(),
            cycles: self.ds_hit_sweep_cycles(),
            delta,
        }
    }

    /// The hierarchy statistics before an event, for [`Machine::emit`]:
    /// taken only while a sink is attached.
    #[inline]
    fn snapshot(&self) -> Option<HierarchyStats> {
        self.sink.as_ref().map(|_| self.hier.stats())
    }

    /// Starts recording the observation trace; [`Machine::take_trace`]
    /// returns its demand accesses.
    pub fn enable_trace(&mut self) {
        self.enable_observation();
    }

    /// Stops recording and returns the demand accesses of the observation
    /// trace (empty if recording was off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.take_observation().demand
    }

    /// Starts recording the full [`ObsTrace`] the trace-equivalence
    /// oracle compares.
    pub fn enable_observation(&mut self) {
        self.enable_observation_into(ObsTrace::default());
    }

    /// [`Machine::enable_observation`], recording into `buf`'s vectors:
    /// they are cleared first, so their capacity is reused and nothing of
    /// their old contents survives. A caller that observes many runs in
    /// turn hands back the trace it no longer needs.
    pub fn enable_observation_into(&mut self, mut buf: ObsTrace) {
        buf.demand.clear();
        buf.ct.clear();
        buf.slices.clear();
        buf.spec.clear();
        self.obs = Some(buf);
    }

    /// Stops observation recording and returns the trace (empty if
    /// recording was off).
    pub fn take_observation(&mut self) -> ObsTrace {
        self.obs.take().unwrap_or_default()
    }

    /// Turns every fast path off: the batched dataflow-set sweep, its
    /// sweep-memo replay and the demand L1d-hit shortcut. The machine then
    /// runs the plain per-access reference path, which differential tests
    /// compare the fast paths against. Nothing configures it;
    /// [`Machine::reset`] turns it off again.
    pub fn disable_fast_paths(&mut self) {
        self.fast_paths = false;
    }

    /// Turns on the shadow taint layer. Until this is called every
    /// taint hook is a no-op and the hot path pays only a `None` check.
    pub fn enable_taint(&mut self) {
        if self.taint.is_none() {
            self.taint = Some(Box::default());
        }
    }

    /// The leak violations reported so far (empty when taint is off).
    pub fn taint_violations(&self) -> &[LeakViolation] {
        self.taint.as_ref().map_or(&[], |t| &t.violations)
    }

    /// Drains and returns the recorded leak violations.
    pub fn take_taint_violations(&mut self) -> Vec<LeakViolation> {
        self.taint
            .as_mut()
            .map_or_else(Vec::new, |t| std::mem::take(&mut t.violations))
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> Counters {
        Counters {
            cycles: self.cycles,
            insts: self.insts,
            ct_loads: self.ct_loads,
            ct_stores: self.ct_stores,
            phases: self.phases,
            linearize: self.linearize,
            hier: self.hier.stats(),
            bia: self.bia.as_ref().map(|b| *b.stats()).unwrap_or_default(),
            robust: RobustnessStats::default(),
            taint: self
                .taint
                .as_ref()
                .map_or_else(TaintStats::default, |t| TaintStats {
                    marked_bytes: t.shadow.len() as u64,
                    leak_violations: t.reported,
                }),
            spec: self.spec,
        }
    }

    /// The configured bounded-speculation window (0 = speculation off).
    pub fn spec_window(&self) -> u32 {
        self.spec_window
    }

    /// Simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Runs `f` and returns its result together with the counter delta of
    /// the region.
    pub fn measure<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, Counters) {
        let before = self.counters();
        let r = f(self);
        (r, self.counters() - before)
    }

    /// The first half of [`CtMemory::spec_branch`]: predicts the branch
    /// at `site` whose architectural outcome is `taken` and, on a
    /// misprediction, opens a wrong-path window and returns `true`. The
    /// caller then runs the wrong path against this machine and closes
    /// the window with [`Machine::spec_exit`]. Always `false` without
    /// speculation (`spec_window = 0`).
    pub fn spec_enter(&mut self, site: u64, taken: bool) -> bool {
        if self.spec_window == 0 {
            return false;
        }
        self.spec.branches += 1;
        // Per-site 2-bit saturating counter, deterministically seeded so
        // the same (spec_seed, site) pair always mispredicts at the same
        // points of the branch history — goldens and the oracle depend on
        // reproducibility, not on modeling any particular frontend.
        let seed = self.spec_seed;
        let ctr = self
            .spec_predictor
            .entry(site)
            .or_insert_with(|| (splitmix64(seed ^ site) & 3) as u8);
        let predict_taken = *ctr >= 2;
        if taken {
            if *ctr < 3 {
                *ctr += 1;
            }
        } else if *ctr > 0 {
            *ctr -= 1;
        }
        if predict_taken == taken {
            return false;
        }
        self.spec.mispredicts += 1;
        debug_assert!(
            !self.spec_active,
            "nested speculation windows are not modeled"
        );
        self.spec_active = true;
        self.spec_used = 0;
        true
    }

    /// Squashes the wrong-path window [`Machine::spec_enter`] opened at
    /// `site`.
    pub fn spec_exit(&mut self, site: u64) {
        debug_assert!(self.spec_active, "no wrong-path window is open");
        self.spec_active = false;
        let accesses = u64::from(self.spec_used);
        self.spec.squashes += 1;
        self.emit(Event::Squash { site, accesses }, None);
        self.spec_used = 0;
    }

    /// Evicts `addr`'s line from every cache level (a `clflush`); the BIA
    /// sees the monitored level's eviction like any other event. Used by
    /// tests and the attacker model.
    pub fn flush_line(&mut self, addr: PhysAddr) {
        self.invalidate_line(addr.line());
    }

    /// A demand load that also returns its latency in cycles — the
    /// simulated analogue of timing an access with `rdtsc`, used by the
    /// Prime+Probe attacker.
    pub fn timed_load(&mut self, addr: PhysAddr, width: Width) -> (u64, u64) {
        let before = self.cycles;
        let v = self.demand(addr, width, AccessFlags::read(), MemOp::Load, None);
        (v, self.cycles - before)
    }

    /// Installs (or clears, with `None`) a deterministic co-runner. See
    /// [`Interference`].
    pub fn set_interference(&mut self, interference: Option<Interference>) {
        self.interference = interference;
        self.interference_clock = 0;
        self.interference_next = 0;
    }

    /// Runs the co-runner's next action when its period has elapsed.
    fn tick_interference(&mut self) {
        let Some(intf) = &self.interference else {
            return;
        };
        if intf.actions.is_empty() || intf.period == 0 {
            return;
        }
        self.interference_clock += 1;
        if self.interference_clock % intf.period != 0 {
            return;
        }
        let op = intf.actions[self.interference_next % intf.actions.len()];
        self.interference_next += 1;
        match op {
            CoRunnerOp::Flush(addr) => self.invalidate_line(addr.line()),
            CoRunnerOp::Touch(addr) => {
                self.hier_access(addr.line(), AccessFlags::read());
            }
            CoRunnerOp::Prefetch(addr) => {
                if !self.hier.cache(Level::L1d).is_resident(addr.line()) {
                    // A clean fill, as a prefetcher would perform.
                    self.hier_access(addr.line(), AccessFlags::read());
                }
            }
        }
    }

    /// A hierarchy access with the BIA, if any, as the monitor. No BIA
    /// means no monitored level, so no events at all.
    #[inline]
    fn hier_access(&mut self, line: LineAddr, flags: AccessFlags) -> AccessResult {
        match &mut self.bia {
            Some(bia) => self.hier.access_with(line, flags, bia),
            None => self.hier.access_with(line, flags, &mut NullMonitor),
        }
    }

    /// Removes `line` from every level with the BIA, if any, as the monitor.
    fn invalidate_line(&mut self, line: LineAddr) {
        match &mut self.bia {
            Some(bia) => self.hier.invalidate_everywhere_with(line, bia),
            None => self.hier.invalidate_everywhere_with(line, &mut NullMonitor),
        }
    }

    /// Advances the cycle clock, attributing every cycle to `phase`. All
    /// cycle mutation goes through here, which is what makes the
    /// phase-sum == cycle-count invariant structural rather than audited.
    #[inline]
    fn charge(&mut self, phase: Phase, n: u64) {
        self.cycles += n;
        self.phases.add(phase, n);
    }

    #[inline]
    fn charge_inst(&mut self, n: u64) {
        // Wrong-path instructions never retire: they contribute nothing
        // to the architectural instruction count or the compute phase.
        if self.spec_active {
            return;
        }
        self.insts += n;
        self.charge(Phase::Compute, n * self.cost.cycles_per_inst);
    }

    /// A demand access issued inside a wrong-path speculation window.
    ///
    /// Microarchitectural effects are real — the access walks the
    /// monitored hierarchy, fills lines, updates replacement state and
    /// the BIA, and its cache-service time is charged to
    /// [`Phase::Speculative`] — but every architectural effect is
    /// suppressed: no instruction retires, RAM writes are buffered and
    /// discarded at squash (store-buffer semantics, modeled by demoting
    /// the access to a read), and nothing lands in the attacker-visible
    /// demand trace. This is exactly the Spectre v1 leakage surface: the
    /// squash undoes the registers, not the cache.
    fn spec_demand(
        &mut self,
        addr: PhysAddr,
        width: Width,
        flags: AccessFlags,
        op: MemOp,
        store: Option<u64>,
    ) -> u64 {
        debug_assert!(
            addr.is_aligned(width.bytes()),
            "misaligned access at {addr}"
        );
        if self.spec_used >= self.spec_window {
            // The window is exhausted: the frontend has stalled, so the
            // access never issues. Loads still forward a value so the
            // wrong-path closure can keep computing dependent addresses.
            return match store {
                Some(_) => 0,
                None => self.ram.read(addr, width.bytes()),
            };
        }
        self.spec_used += 1;
        self.spec.wrong_path_accesses += 1;
        // Store-buffer semantics: a transient store allocates and warms
        // its line like a read but never reaches RAM or dirties the line
        // (the squash drains the store buffer before writeback).
        let mut flags = flags;
        flags.kind = AccessKind::Read;
        let before = self.snapshot();
        let result = self.hier_access(addr.line(), flags);
        let nearest = nearest_hit(flags, result.hit_level);
        if !nearest {
            self.spec.wrong_path_fills += 1;
        }
        let ds_stream = op.is_ds();
        let mem_cycles = self.cost.memory_cycles(result.latency, nearest, ds_stream);
        // The whole charge (DRAM stall included) lands on the speculative
        // phase: transient time is transient time.
        self.charge(Phase::Speculative, mem_cycles);
        let ev = Event::Access {
            spec: true,
            op,
            line: addr.line(),
            result,
            cycles: mem_cycles,
        };
        self.emit(ev, before.as_ref());
        match store {
            Some(_) => 0,
            None => self.ram.read(addr, width.bytes()),
        }
    }

    fn demand(
        &mut self,
        addr: PhysAddr,
        width: Width,
        flags: AccessFlags,
        op: MemOp,
        store: Option<u64>,
    ) -> u64 {
        if self.spec_active {
            return self.spec_demand(addr, width, flags, op, store);
        }
        self.tick_interference();
        let ds_stream = op.is_ds();
        // Silent-store squashing: a store of the value already in memory
        // behaves like a read (no dirty-bit update) when enabled.
        let mut flags = flags;
        if self.silent_stores && flags.kind == ctbia_sim::cache::AccessKind::Write {
            if let Some(v) = store {
                if self.ram.read(addr, width.bytes()) == v & width.mask() {
                    flags.kind = ctbia_sim::cache::AccessKind::Read;
                }
            }
        }
        debug_assert!(
            addr.is_aligned(width.bytes()),
            "misaligned access at {addr}"
        );
        self.charge_inst(1);
        let before = self.snapshot();
        // Machines without a BIA take an L1d-hit fast path: the hit performs
        // the cache's exact demand bookkeeping and nothing else in the walk —
        // deeper probes, fills, prefetch, events — can run, so the full
        // `access_with` is only needed when the hit-only attempt misses.
        let plain = !flags.dram_direct && !flags.bypass_l1 && !flags.bypass_l2;
        let result = if plain
            && self.fast_paths
            && self
                .hier
                .l1d_access_if_hit(addr.line(), flags.kind, flags.update_replacement)
                .is_some()
        {
            AccessResult {
                latency: self.hier.cache(Level::L1d).hit_latency(),
                hit_level: Level::L1d,
                dram_latency: 0,
            }
        } else {
            self.hier_access(addr.line(), flags)
        };
        let nearest = nearest_hit(flags, result.hit_level);
        let mem_cycles = self.cost.memory_cycles(result.latency, nearest, ds_stream);
        // Split the charge into the DRAM-stall portion and the
        // cache-service remainder, which belongs to the linearization
        // sweep for dataflow-set traffic and to plain demand otherwise.
        // Cache hits have no stall portion; skip the zero-cycle charge.
        let dram_part = mem_cycles.min(result.dram_latency);
        if dram_part > 0 {
            self.charge(Phase::DramStall, dram_part);
        }
        let service_phase = if ds_stream {
            Phase::LinearizeSweep
        } else {
            Phase::DemandAccess
        };
        self.charge(service_phase, mem_cycles - dram_part);
        let ev = Event::Access {
            spec: false,
            op,
            line: addr.line(),
            result,
            cycles: mem_cycles,
        };
        self.emit(ev, before.as_ref());
        match store {
            Some(v) => {
                self.ram.write(addr, width.bytes(), v);
                0
            }
            None => self.ram.read(addr, width.bytes()),
        }
    }

    fn ds_flags(&self, kind: ctbia_sim::cache::AccessKind) -> AccessFlags {
        let mut flags = AccessFlags {
            kind,
            update_replacement: false,
            bypass_l1: false,
            bypass_l2: false,
            dram_direct: false,
        };
        match self.placement {
            Some(BiaPlacement::L2) => flags.bypass_l1 = true,
            Some(BiaPlacement::Llc) => {
                flags.bypass_l1 = true;
                flags.bypass_l2 = true;
            }
            _ => {}
        }
        flags
    }

    /// The BIA's view of `addr`'s page for a CT micro-op.
    fn bia_view(&mut self, addr: PhysAddr) -> BiaView {
        let bia = self
            .bia
            .as_mut()
            .expect("BIA present when placement is set");
        bia.access_for(addr)
    }

    /// Charges a `CTLoad` (`store: false`) or `CTStore` on `line` whose
    /// cache probe took `probe_latency` (it overlaps the BIA lookup), and
    /// emits it with its `bitmap` response.
    #[inline(always)]
    fn ct_op(
        &mut self,
        store: bool,
        line: LineAddr,
        bitmap: u64,
        probe_latency: u64,
        before: Option<HierarchyStats>,
    ) {
        let bia_latency = self.bia.as_ref().map_or(0, Bia::latency);
        let cycles = self.cost.ct_cycles(probe_latency, bia_latency);
        self.charge(Phase::BiaMaintenance, cycles);
        let ev = Event::Ct {
            store,
            line,
            bitmap,
            cycles,
        };
        self.emit(ev, before.as_ref());
    }

    /// Whether a software DS sweep may take the batched fast path
    /// ([`Machine::sweep_lines`]): no co-runner, no BIA (so no monitored
    /// level and no placement routing), no speculation window, no
    /// silent-store squashing and no [`Machine::disable_fast_paths`]. Then
    /// every per-line charge is a plain sum and an L1d hit has no effect
    /// beyond the cache's own bookkeeping, so the batched sweep and its
    /// memo replay are state-for-state the loop. Observation and a sink
    /// do not refuse the batch: it emits each of its hits itself.
    #[inline]
    fn sweep_fast_path(&self) -> bool {
        !self.spec_active && self.fast_paths && self.interference.is_none() && !self.silent_stores
    }

    /// The flat cycle charge of one L1d-hit DS access (the sweep's
    /// steady-state cost): what [`Machine::demand`] computes for a
    /// nearest-level hit on the dataflow stream.
    #[inline]
    fn ds_hit_sweep_cycles(&self) -> u64 {
        self.cost
            .memory_cycles(self.hier.cache(Level::L1d).hit_latency(), true, true)
    }

    /// Puts `due` on the clock and clears it.
    fn settle(&mut self, due: &mut Due) {
        let insts = due.hits + due.lines * due.extra_insts;
        self.insts += insts;
        self.charge(Phase::Compute, insts * self.cost.cycles_per_inst);
        self.charge(Phase::LinearizeSweep, due.hits * self.ds_hit_sweep_cycles());
        due.hits = 0;
        due.lines = 0;
    }

    /// Counts an inline L1d hit of a batched sweep in `due`, and emits it
    /// when the sweep is `observed`. For a sink it settles `due` first, so
    /// the event carries the cycle stamp the per-line loop gives it; the
    /// observation trace has no stamps.
    #[inline(always)]
    fn batched_hit(&mut self, due: &mut Due, observed: bool, op: MemOp, line: LineAddr) {
        due.hits += 1;
        if observed {
            if self.sink.is_some() {
                self.settle(due);
            }
            self.emit(Event::L1dHit { op, line }, None);
        }
    }

    /// The cache side of a batched software-CT sweep (only under
    /// [`Machine::sweep_fast_path`]): one replacement-neutral load per
    /// line, plus one store per line when `store` is set, with their
    /// events in loop order. RAM is the caller's: an inline hit reads and
    /// writes none, and a miss falls back to the self-charging
    /// `ds_load`/`ds_store`, which rewrites the word it read.
    ///
    /// An inline L1d hit performs the cache's exact demand-hit bookkeeping;
    /// its charges — one instruction plus the flat DS-hit service — are
    /// pure sums, held as [`Due`] and put on the clock at the end (under a
    /// sink also before each miss and each hit, for the events' stamps).
    /// A sweep in which every access hit is remembered in the sweep memo
    /// with its slots. A later sweep of equal lines at an unchanged L1d
    /// epoch replays those slots instead of searching the tags: no line
    /// has been filled or invalidated since, so each one still sits in its
    /// slot, and every access hits again with the same bookkeeping.
    fn sweep_lines(
        &mut self,
        lines: &[LineAddr],
        offset: u64,
        width: Width,
        store: bool,
        extra_insts: u64,
    ) {
        let per_line = 1 + store as u64;
        let traced = self.sink.is_some();
        let observed = traced || self.obs.is_some();
        let mut due = Due {
            hits: 0,
            lines: 0,
            extra_insts,
        };
        let epoch = self.hier.l1d_epoch();
        if let Some(slots) = self.sweep_memo.find(epoch, lines) {
            self.hier.l1d_replay_hits(slots, AccessKind::Read);
            if store {
                self.hier.l1d_replay_hits(slots, AccessKind::Write);
            }
            let ev = Event::Replay {
                lines,
                store,
                extra_insts,
            };
            self.emit(ev, None);
            due.hits = per_line * lines.len() as u64;
            due.lines = lines.len() as u64;
        } else {
            let mut slots = std::mem::take(&mut self.sweep_memo.scratch);
            slots.clear();
            let mut missed = false;
            for &line in lines {
                let addr = line.with_offset(offset);
                match self.hier.l1d_access_if_hit(line, AccessKind::Read, false) {
                    Some(slot) => {
                        slots.push(slot);
                        self.batched_hit(&mut due, observed, MemOp::DsLoad, line);
                    }
                    None => {
                        missed = true;
                        if traced {
                            self.settle(&mut due);
                        }
                        self.ds_load(addr, width);
                    }
                }
                if store {
                    if self
                        .hier
                        .l1d_access_if_hit(line, AccessKind::Write, false)
                        .is_some()
                    {
                        self.batched_hit(&mut due, observed, MemOp::DsStore, line);
                    } else {
                        missed = true;
                        if traced {
                            self.settle(&mut due);
                        }
                        let old = self.ram.read(addr, width.bytes());
                        self.ds_store(addr, width, old);
                    }
                }
                due.lines += 1;
            }
            if !missed {
                debug_assert_eq!(epoch, self.hier.l1d_epoch(), "an all-hit sweep filled");
                self.sweep_memo.record(epoch, lines, slots);
            } else {
                self.sweep_memo.scratch = slots;
            }
        }
        self.settle(&mut due);
    }
}

impl CtMemory for Machine {
    fn load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.demand(addr, width, AccessFlags::read(), MemOp::Load, None)
    }

    fn store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.demand(addr, width, AccessFlags::write(), MemOp::Store, Some(value));
    }

    fn ds_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        let flags = self.ds_flags(ctbia_sim::cache::AccessKind::Read);
        self.demand(addr, width, flags, MemOp::DsLoad, None)
    }

    fn ds_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        let flags = self.ds_flags(ctbia_sim::cache::AccessKind::Write);
        self.demand(addr, width, flags, MemOp::DsStore, Some(value));
    }

    fn ds_sweep_load(
        &mut self,
        lines: &[LineAddr],
        offset: u64,
        width: Width,
        target: PhysAddr,
        extra_insts: u64,
    ) -> u64 {
        if !self.sweep_fast_path() {
            let mut ret = 0u64;
            for &line in lines {
                let addr = line.with_offset(offset);
                let v = self.ds_load(addr, width);
                ret = select(ct_eq(addr.raw(), target.raw()), v, ret);
                self.exec(extra_insts);
            }
            return ret;
        }
        self.sweep_lines(lines, offset, width, false, extra_insts);
        // A load sweep writes no RAM, so the selected word is the target's.
        if lines.iter().any(|&line| line.with_offset(offset) == target) {
            self.ram.read(target, width.bytes())
        } else {
            0
        }
    }

    fn ds_sweep_store(
        &mut self,
        lines: &[LineAddr],
        offset: u64,
        width: Width,
        target: PhysAddr,
        value: u64,
        extra_insts: u64,
    ) {
        if !self.sweep_fast_path() {
            for &line in lines {
                let addr = line.with_offset(offset);
                let old = self.ds_load(addr, width);
                let new = select(ct_eq(addr.raw(), target.raw()), value & width.mask(), old);
                self.ds_store(addr, width, new);
                self.exec(extra_insts);
            }
            return;
        }
        self.sweep_lines(lines, offset, width, true, extra_insts);
        // The branchless merge rewrites every other word unchanged.
        if lines.iter().any(|&line| line.with_offset(offset) == target) {
            self.ram.write(target, width.bytes(), value & width.mask());
        }
    }

    fn dram_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.demand(
            addr,
            width,
            AccessFlags::read().dram_direct(),
            MemOp::DramLoad,
            None,
        )
    }

    fn dram_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.demand(
            addr,
            width,
            AccessFlags::write().dram_direct(),
            MemOp::DramStore,
            Some(value),
        );
    }

    fn spec_branch(
        &mut self,
        site: u64,
        taken: bool,
        wrong_path: &mut dyn FnMut(&mut dyn CtMemory),
    ) {
        if self.spec_enter(site, taken) {
            wrong_path(self);
            self.spec_exit(site);
        }
    }

    fn ct_load(&mut self, addr: PhysAddr) -> CtLoad {
        debug_assert!(
            !self.spec_active,
            "CT micro-ops are not issued speculatively"
        );
        let placement = self
            .placement
            .expect("CTLoad requires a machine with a BIA");
        self.ct_loads += 1;
        self.charge_inst(1);
        let aligned = addr.align_down_u64();
        let before = self.snapshot();
        let (probe, probe_latency) = self.hier.ct_probe(aligned.line(), placement.monitor());
        let view = self.bia_view(addr);
        self.ct_op(false, aligned.line(), view.existence, probe_latency, before);
        let data = if probe.resident {
            self.ram.read(aligned, 8)
        } else {
            0
        };
        CtLoad {
            data,
            existence: view.existence,
        }
    }

    fn ct_store(&mut self, addr: PhysAddr, data: u64) -> CtStore {
        debug_assert!(
            !self.spec_active,
            "CT micro-ops are not issued speculatively"
        );
        let placement = self
            .placement
            .expect("CTStore requires a machine with a BIA");
        self.ct_stores += 1;
        self.charge_inst(1);
        let aligned = addr.align_down_u64();
        let before = self.snapshot();
        let view = self.bia_view(addr);
        // The conditional write emits no cache event: it changes only the
        // data of a line that is already dirty.
        let (wrote, probe_latency) = self
            .hier
            .ct_write_if_dirty(aligned.line(), placement.monitor());
        self.ct_op(true, aligned.line(), view.dirtiness, probe_latency, before);
        if wrote {
            self.ram.write(aligned, 8, data);
        }
        CtStore {
            dirtiness: view.dirtiness,
        }
    }

    fn exec(&mut self, insts: u64) {
        self.charge_inst(insts);
    }

    fn note_linearize_pass(&mut self, info: LinearizeInfo) {
        self.linearize.passes += 1;
        self.linearize.lines_skipped += u64::from(info.skipped);
        self.linearize.lines_fetched += u64::from(info.fetched);
        self.emit(Event::Linearize(info), None);
    }

    fn bia_granularity_log2(&self) -> u32 {
        self.bia
            .as_ref()
            .map(|b| b.granularity_log2())
            .unwrap_or(12)
    }

    fn taint_enabled(&self) -> bool {
        self.taint.is_some()
    }

    fn taint_of(&self, addr: PhysAddr, width: Width) -> TaintLabel {
        let Some(t) = &self.taint else {
            return TaintLabel::PUBLIC;
        };
        let mut label = TaintLabel::PUBLIC;
        for i in 0..width.bytes() {
            if let Some(l) = t.shadow.get(&(addr.raw() + i)) {
                label = label.join(*l);
            }
        }
        label
    }

    fn set_taint(&mut self, addr: PhysAddr, width: Width, label: TaintLabel) {
        let Some(t) = &mut self.taint else { return };
        for i in 0..width.bytes() {
            if label.is_secret() {
                t.shadow.insert(addr.raw() + i, label);
            } else {
                t.shadow.remove(&(addr.raw() + i));
            }
        }
    }

    fn report_leak(&mut self, violation: LeakViolation) {
        let Some(t) = &mut self.taint else { return };
        t.reported += 1;
        // Keep at most the first 64 structured reports; the count keeps
        // climbing so a pathological workload can't balloon memory.
        if t.violations.len() < 64 {
            t.violations.push(violation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_core::ctmem::CtMemoryExt;
    use ctbia_core::ds::DataflowSet;
    use ctbia_core::linearize::{ct_load_bia, ct_store_bia, BiaOptions};
    use ctbia_core::Width;

    #[test]
    fn load_store_round_trip_and_cost() {
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        let c0 = m.counters();
        m.store_u64(a, 0xdead_beef_cafe_f00d);
        let v = m.load_u64(a);
        assert_eq!(v, 0xdead_beef_cafe_f00d);
        let d = m.counters() - c0;
        assert_eq!(d.insts, 2);
        // Store: cold miss through DRAM (2+15+41+200) + 1 issue cycle;
        // load: L1 hit (2) + 1 issue cycle.
        assert_eq!(d.cycles, 1 + 258 + 1 + 2);
        assert_eq!(d.l1d_refs(), 2);
        assert_eq!(d.dram_accesses(), 1);
    }

    #[test]
    fn poke_peek_do_not_touch_caches_or_cost() {
        let mut m = Machine::insecure();
        let a = m.alloc(8, 8).unwrap();
        m.poke_u64(a, 42);
        assert_eq!(m.peek_u64(a), 42);
        assert_eq!(m.counters().cycles, 0);
        assert_eq!(m.counters().l1d_refs(), 0);
    }

    #[test]
    fn ct_load_semantics_at_l1d() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(64, 64).unwrap();
        m.poke_u64(a, 777);
        // Miss: fake data, nothing installed.
        let r = m.ct_load(a);
        assert_eq!(r.data, 0);
        assert!(!m.hierarchy().cache(Level::L1d).is_resident(a.line()));
        // Bring the line in; existence was recorded by the event stream.
        m.load_u64(a);
        let r = m.ct_load(a);
        assert_eq!(r.data, 777);
        assert_eq!(
            r.existence & 1 << a.line().index_in_page(),
            1 << a.line().index_in_page()
        );
    }

    #[test]
    fn ct_store_writes_only_dirty_lines() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(64, 64).unwrap();
        m.load_u64(a); // resident, clean
        let r = m.ct_store(a, 1);
        assert_eq!(m.peek_u64(a), 0, "clean line must not be written");
        assert_eq!(r.dirtiness, 0);
        m.store_u64(a, 5); // dirty now
        let r = m.ct_store(a, 9);
        assert_eq!(m.peek_u64(a), 9);
        assert_ne!(r.dirtiness & 1 << a.line().index_in_page(), 0);
    }

    #[test]
    fn l2_placement_bypasses_l1_for_ds_traffic() {
        let mut m = Machine::with_bia(BiaPlacement::L2);
        let a = m.alloc(64, 64).unwrap();
        m.ds_load(a, Width::U64);
        assert!(!m.hierarchy().cache(Level::L1d).is_resident(a.line()));
        assert!(m.hierarchy().cache(Level::L2).is_resident(a.line()));
        // Regular loads still use L1.
        let b = m.alloc(64, 64).unwrap();
        m.load_u64(b);
        assert!(m.hierarchy().cache(Level::L1d).is_resident(b.line()));
    }

    #[test]
    fn fig6_scenarios_eviction_and_prefetch_safety() {
        // Figure 6(c): line dirty at CTLoad time, evicted before CTStore —
        // the store must not corrupt memory.
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(64, 64).unwrap();
        m.store_u64(a, 10); // dirty
        let got = m.ct_load(a);
        assert_eq!(got.data, 10);
        m.flush_line(a); // "attacker" evicts; write-back keeps RAM = 10
        let _ = m.ct_store(a, 0xbad);
        assert_eq!(m.peek_u64(a), 10, "CTStore after eviction must do nothing");

        // Figure 6(d): CTLoad missed (fake data), the line is then brought
        // in CLEAN (as a prefetch would); CTStore must still refuse.
        let b = m.alloc(64, 64).unwrap();
        m.poke_u64(b, 20);
        let got = m.ct_load(b);
        assert_eq!(got.data, 0, "fake data on miss");
        m.load_u64(b); // clean fill, like a prefetcher
        let _ = m.ct_store(b, 0xbad);
        assert_eq!(m.peek_u64(b), 20, "clean line must not accept fake data");
    }

    #[test]
    fn bia_subset_invariant_under_machine_traffic() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let base = m.alloc(4096 * 4, 4096).unwrap();
        // Mixed traffic over 4 pages.
        for i in 0..256u64 {
            let a = base.offset((i * 97) % (4096 * 4 / 8) * 8);
            if i % 3 == 0 {
                m.store_u64(a, i);
            } else {
                m.load_u64(a);
            }
            if i % 7 == 0 {
                let _ = m.ct_load(a);
            }
            if i % 11 == 0 {
                m.flush_line(a);
            }
        }
        let bia = m.bia().unwrap();
        for page in bia.tracked_pages() {
            let view = bia.peek(page).unwrap();
            let (exist, dirty) = m.hierarchy().cache(Level::L1d).page_truth(page);
            assert_eq!(
                view.existence & !exist,
                0,
                "BIA existence must be a subset of truth"
            );
            assert_eq!(
                view.dirtiness & !dirty,
                0,
                "BIA dirtiness must be a subset of truth"
            );
        }
    }

    #[test]
    fn algorithms_run_end_to_end_on_machine() {
        for placement in [BiaPlacement::L1d, BiaPlacement::L2] {
            let mut m = Machine::with_bia(placement);
            let base = m.alloc_u32_array(2000).unwrap();
            for i in 0..2000u64 {
                m.poke_u32(base.offset(i * 4), i as u32);
            }
            let ds = DataflowSet::contiguous(base, 2000 * 4);
            for secret in [0u64, 999, 1999] {
                let v = ct_load_bia(
                    &mut m,
                    &ds,
                    base.offset(secret * 4),
                    Width::U32,
                    BiaOptions::default(),
                );
                assert_eq!(v, secret, "placement {placement}");
            }
            ct_store_bia(
                &mut m,
                &ds,
                base.offset(700 * 4),
                Width::U32,
                123456,
                BiaOptions::default(),
            );
            assert_eq!(m.peek_u32(base.offset(700 * 4)), 123456);
            assert_eq!(m.peek_u32(base.offset(701 * 4)), 701);
        }
    }

    #[test]
    fn reset_machine_is_indistinguishable_from_fresh() {
        use ctbia_core::linearize::{ct_load_sw, ct_store_sw, SwProfile};

        // A mixed workload whose every observable — loaded values, final
        // memory, counters, observation trace — is returned for comparison.
        // It runs BIA sweeps on a BIA machine and software sweeps
        // otherwise, and wrong-path windows where speculation is on.
        fn drive(m: &mut Machine) -> (crate::counters::Counters, Vec<u32>, ObsTrace) {
            let base = m.alloc_u32_array(2000).unwrap();
            for i in 0..2000u64 {
                m.poke_u32(base.offset(i * 4), i as u32);
            }
            let mut out = Vec::new();
            let ds = DataflowSet::contiguous(base, 2000 * 4);
            for secret in [3u64, 700, 1999, 41] {
                let target = base.offset(secret * 4);
                out.push(if m.bia().is_some() {
                    ct_load_bia(m, &ds, target, Width::U32, BiaOptions::default()) as u32
                } else {
                    ct_load_sw(m, &ds, target, Width::U32, SwProfile::scalar()) as u32
                });
            }
            let target = base.offset(700 * 4);
            if m.bia().is_some() {
                ct_store_bia(m, &ds, target, Width::U32, 424242, BiaOptions::default());
            } else {
                ct_store_sw(m, &ds, target, Width::U32, 424242, SwProfile::scalar());
            }
            for i in 0..256u64 {
                let a = base.offset((i * 97 % 2000) * 4);
                if i % 3 == 0 {
                    m.store_u32(a, i as u32);
                } else {
                    out.push(m.load_u32(a));
                }
                if i % 11 == 0 {
                    m.flush_line(a);
                }
                let wrong = base.offset((i * 31 % 2000) * 4);
                m.spec_branch(i % 5, i % 3 == 0, &mut |w: &mut dyn CtMemory| {
                    let _ = w.load(wrong, Width::U32);
                });
            }
            out.push(m.peek_u32(base.offset(700 * 4)));
            (m.counters(), out, m.take_observation())
        }

        let speculating = MachineConfig {
            spec_window: 32,
            ..MachineConfig::insecure()
        };
        for config in [
            MachineConfig::insecure(),
            MachineConfig::with_bia(BiaPlacement::L1d),
            MachineConfig::with_bia(BiaPlacement::L2),
            MachineConfig::with_bia(BiaPlacement::Llc),
            speculating,
        ] {
            let llc = matches!(config.bia, Some((BiaPlacement::Llc, _)));
            let spec = config.spec_window > 0;
            let mut fresh = Machine::new(config.clone()).unwrap();
            fresh.enable_observation();
            let want = drive(&mut fresh);
            let obs = &want.2;
            assert!(!obs.demand.is_empty());
            assert_eq!(obs.ct.is_empty(), fresh.bia().is_none());
            assert_eq!(obs.slices.is_empty(), !llc, "probe slices under LLC only");
            assert_eq!(
                obs.spec.is_empty(),
                !spec,
                "wrong-path fills iff speculating"
            );

            // Dirty a second machine with unrelated traffic and observers,
            // then reset; the same drive must be byte-identical, whether it
            // records into fresh buffers or into the stale trace's.
            let mut reused = Machine::new(config).unwrap();
            let junk = reused.alloc(8192, 64).unwrap();
            reused.enable_observation();
            for i in 0..512u64 {
                let a = junk.offset(i * 13 % 2048 * 4);
                if i % 2 == 0 {
                    reused.store_u32(a, !i as u32);
                } else {
                    let _ = reused.load_u32(a);
                }
                reused.spec_branch(i % 7, i % 2 == 0, &mut |w: &mut dyn CtMemory| {
                    let _ = w.load(a, Width::U32);
                });
            }
            if reused.bia().is_some() {
                let _ = reused.ct_load(junk);
            }
            let mut stale = reused.take_observation();
            let junk_event = TraceEvent {
                op: MemOp::Store,
                line: junk.line(),
            };
            stale.demand.push(junk_event);
            stale.ct.push(CtResponse {
                store: true,
                bitmap: !0,
            });
            stale.slices.push(7);
            stale.spec.push(junk_event);
            reused.reset();
            reused.enable_observation_into(stale);
            assert_eq!(drive(&mut reused), want);
            reused.reset();
            reused.enable_observation();
            assert_eq!(drive(&mut reused), want);
        }
    }

    #[test]
    fn trace_records_demand_lines_only() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(64, 64).unwrap();
        m.enable_trace();
        m.load_u64(a);
        let _ = m.ct_load(a); // must not appear
        m.ds_store(a, Width::U64, 3);
        let trace = m.take_trace();
        assert_eq!(
            trace,
            vec![
                TraceEvent {
                    op: MemOp::Load,
                    line: a.line()
                },
                TraceEvent {
                    op: MemOp::DsStore,
                    line: a.line()
                },
            ]
        );
        assert!(m.take_trace().is_empty(), "trace disabled after take");
    }

    #[test]
    fn measure_returns_region_delta() {
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        m.load_u64(a);
        let (_, d) = m.measure(|m| {
            m.load_u64(a);
            m.load_u64(a);
        });
        assert_eq!(d.insts, 2);
        assert_eq!(d.l1d_refs(), 2);
        assert_eq!(d.cycles, 2 * 3); // two L1 hits + issue
    }

    #[test]
    #[should_panic(expected = "requires a machine with a BIA")]
    fn ct_load_without_bia_panics() {
        let mut m = Machine::insecure();
        let _ = m.ct_load(PhysAddr::new(0x1_0000));
    }

    #[test]
    fn observation_records_demand_and_ct_responses() {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let a = m.alloc(128, 64).unwrap();
        m.enable_observation();
        m.store_u64(a, 7);
        let r = m.ct_load(a);
        let s = m.ct_store(a, 9);
        let obs = m.take_observation();
        assert_eq!(obs.demand.len(), 1);
        assert_eq!(obs.demand[0].op, MemOp::Store);
        assert_eq!(
            obs.ct,
            vec![
                CtResponse {
                    store: false,
                    bitmap: r.existence
                },
                CtResponse {
                    store: true,
                    bitmap: s.dirtiness
                },
            ]
        );
        assert!(obs.slices.is_empty(), "no sliced LLC in this config");
        assert_ne!(obs, ObsTrace::default());
        // A second identical machine produces an equal trace and digest.
        let mut m2 = Machine::with_bia(BiaPlacement::L1d);
        let a2 = m2.alloc(128, 64).unwrap();
        m2.enable_observation();
        m2.store_u64(a2, 7);
        let _ = m2.ct_load(a2);
        let _ = m2.ct_store(a2, 9);
        let obs2 = m2.take_observation();
        assert_eq!(obs, obs2);
        assert_eq!(obs.digest(), obs2.digest());
        assert_eq!(obs.first_divergence(&obs2), None);
    }

    #[test]
    fn observation_divergence_is_described() {
        let mut m = Machine::insecure();
        let a = m.alloc(256, 64).unwrap();
        m.enable_observation();
        m.load_u64(a);
        let one = m.take_observation();
        m.enable_observation();
        m.load_u64(a.offset(64));
        let other = m.take_observation();
        let d = one.first_divergence(&other).unwrap();
        assert!(d.contains("demand[0]"), "{d}");
        assert_ne!(one.digest(), other.digest());
    }

    #[test]
    fn taint_shadow_tracks_bytes_and_violations() {
        use ctbia_core::taint::{LeakKind, LeakViolation, Taint};
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        // Disabled: hooks are no-ops and counters stay zero.
        m.set_taint(a, Width::U64, TaintLabel::SECRET);
        assert!(!m.taint_enabled());
        assert_eq!(m.taint_of(a, Width::U64), TaintLabel::PUBLIC);
        assert!(m.counters().taint.is_zero());
        // Enabled: byte-granularity labels, join over the window.
        m.enable_taint();
        m.set_taint(a, Width::U32, TaintLabel::SECRET);
        assert_eq!(m.taint_of(a, Width::U8), TaintLabel::SECRET);
        assert_eq!(m.taint_of(a.offset(4), Width::U32), TaintLabel::PUBLIC);
        assert_eq!(m.taint_of(a, Width::U64), TaintLabel::SECRET);
        assert_eq!(m.counters().taint.marked_bytes, 4);
        m.set_taint(a, Width::U32, TaintLabel::PUBLIC);
        assert_eq!(m.taint_of(a, Width::U64), TaintLabel::PUBLIC);
        assert_eq!(m.counters().taint.marked_bytes, 0);
        // Violations are counted and retained.
        m.report_leak(LeakViolation {
            kind: LeakKind::Branch,
            context: "test".into(),
            addr: None,
            provenance: Taint::secret("k").chain(),
        });
        assert_eq!(m.counters().taint.leak_violations, 1);
        assert_eq!(m.taint_violations().len(), 1);
        assert_eq!(m.take_taint_violations().len(), 1);
        assert!(m.taint_violations().is_empty());
    }

    #[test]
    fn timed_load_reports_latency_difference() {
        let mut m = Machine::insecure();
        let a = m.alloc(64, 64).unwrap();
        let (_, cold) = m.timed_load(a, Width::U64);
        let (_, warm) = m.timed_load(a, Width::U64);
        assert!(cold > warm, "cold {cold} must exceed warm {warm}");
        assert_eq!(warm, 3);
    }

    #[test]
    fn errors_display() {
        let err = MachineError::Bia(BiaConfigError::ZeroGeometry);
        assert!(err.to_string().contains("BIA"));
        let err = MachineError::Placement("M too coarse".into());
        assert!(err.to_string().contains("placement"));
        let mut m = Machine::new(MachineConfig {
            ram_bytes: 1 << 17,
            ..MachineConfig::insecure()
        })
        .unwrap();
        let err = m.alloc(1 << 20, 64).unwrap_err();
        assert!(matches!(err, MachineError::Ram(_)));
    }
}
