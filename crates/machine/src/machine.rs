//! The simulated machine: hierarchy + BIA + RAM + cost model, implementing
//! [`CtMemory`].
//!
//! The machine is the `ctbia` equivalent of the paper's modified gem5
//! system (§7.1): it executes memory operations against the cache
//! hierarchy, keeps the BIA synchronized with the monitored level's event
//! stream, and accounts instructions and cycles per the
//! [`crate::cost::CostModel`].

use crate::audit::ShadowAuditor;
use crate::cost::CostModel;
use crate::counters::{Counters, RobustnessStats, SpecStats, TaintStats};
use crate::memory::{OutOfSimRam, SimRam};
use ctbia_core::bia::{Bia, BiaConfig, BiaConfigError};
use ctbia_core::ctmem::{CtLoad, CtMemory, CtStore, LinearizeInfo, Width};
use ctbia_core::predicate::{ct_eq, select};
use ctbia_core::taint::{LeakViolation, TaintLabel};
use ctbia_sim::addr::{LineAddr, PhysAddr};
use ctbia_sim::config::{CacheConfig, ConfigError, HierarchyConfig};
use ctbia_sim::fault::{FaultConfig, FaultInjector, StructuralFault};
use ctbia_sim::hierarchy::{
    AccessFlags, AccessResult, CacheEvent, Hierarchy, Level, MonitorLevel, NullMonitor,
};
use ctbia_trace::{EventKind, LinearizeStats, MemOp, Phase, PhaseCycles, TraceRecord, TraceSink};
use std::collections::{BTreeSet, HashMap};
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
    /// The operation requires a BIA but the machine has none.
    NoBia,
    /// Simulated RAM exhausted.
    Ram(OutOfSimRam),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(e) => write!(f, "hierarchy configuration: {e}"),
            MachineError::Bia(e) => write!(f, "BIA configuration: {e}"),
            MachineError::Placement(e) => write!(f, "BIA placement: {e}"),
            MachineError::NoBia => f.write_str("operation requires a machine with a BIA"),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What kind of operation.
    pub op: TraceOp,
    /// The touched line.
    pub line: LineAddr,
}

/// Demand-operation kinds recorded in the trace.
///
/// `CTLoad`/`CTStore` lookups are *not* traced: they change no cache state
/// and are invisible to an access-driven attacker (§5.3). The conditional
/// write of a `CTStore` changes only the *data* of an already-dirty line
/// ("they do not change anything except data"), so it is likewise
/// invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Regular demand load.
    Load,
    /// Regular demand store.
    Store,
    /// Dataflow-set load.
    DsLoad,
    /// Dataflow-set store.
    DsStore,
    /// Cache-bypassing DRAM load.
    DramLoad,
    /// Cache-bypassing DRAM store.
    DramStore,
}

/// The structured-trace opcode corresponding to a demand-trace opcode.
/// SplitMix64 finalizer: seeds the per-site branch predictor counters
/// deterministically from `spec_seed ^ site`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn memop_of(op: TraceOp) -> MemOp {
    match op {
        TraceOp::Load => MemOp::Load,
        TraceOp::Store => MemOp::Store,
        TraceOp::DsLoad => MemOp::DsLoad,
        TraceOp::DsStore => MemOp::DsStore,
        TraceOp::DramLoad => MemOp::DramLoad,
        TraceOp::DramStore => MemOp::DramStore,
    }
}

impl TraceOp {
    fn code(self) -> u64 {
        match self {
            TraceOp::Load => 0,
            TraceOp::Store => 1,
            TraceOp::DsLoad => 2,
            TraceOp::DsStore => 3,
            TraceOp::DramLoad => 4,
            TraceOp::DramStore => 5,
        }
    }
}

/// One CT-operation response as seen by the linearized program: the
/// existence bitmap of a `CTLoad` or the dirtiness bitmap of a
/// `CTStore`, after any robustness degradation. Part of the
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
    /// Total recorded events.
    pub fn len(&self) -> usize {
        self.demand.len() + self.ct.len() + self.slices.len() + self.spec.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An order-sensitive FNV-1a digest of the whole trace.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.demand.len() as u64);
        for e in &self.demand {
            mix(e.op.code());
            mix(e.line.raw());
        }
        mix(self.ct.len() as u64);
        for r in &self.ct {
            mix(r.store as u64);
            mix(r.bitmap);
        }
        mix(self.slices.len() as u64);
        for s in &self.slices {
            mix(*s as u64);
        }
        // Mixed only when present so speculation-free digests are stable
        // across the channel's introduction.
        if !self.spec.is_empty() {
            mix(self.spec.len() as u64);
            for e in &self.spec {
                mix(e.op.code());
                mix(e.line.raw());
            }
        }
        h
    }

    /// Describes the first point where `self` and `other` differ, or
    /// `None` when the traces are equal. Used for diagnostics when the
    /// oracle finds a divergence.
    pub fn first_divergence(&self, other: &ObsTrace) -> Option<String> {
        for (i, (a, b)) in self.demand.iter().zip(&other.demand).enumerate() {
            if a != b {
                return Some(format!(
                    "demand[{i}]: {:?}@{:#x} vs {:?}@{:#x}",
                    a.op,
                    a.line.raw(),
                    b.op,
                    b.line.raw()
                ));
            }
        }
        if self.demand.len() != other.demand.len() {
            return Some(format!(
                "demand length {} vs {}",
                self.demand.len(),
                other.demand.len()
            ));
        }
        for (i, (a, b)) in self.ct.iter().zip(&other.ct).enumerate() {
            if a != b {
                return Some(format!(
                    "ct[{i}]: {}:{:#x} vs {}:{:#x}",
                    if a.store { "dirt" } else { "exist" },
                    a.bitmap,
                    if b.store { "dirt" } else { "exist" },
                    b.bitmap
                ));
            }
        }
        if self.ct.len() != other.ct.len() {
            return Some(format!("ct length {} vs {}", self.ct.len(), other.ct.len()));
        }
        for (i, (a, b)) in self.slices.iter().zip(&other.slices).enumerate() {
            if a != b {
                return Some(format!("slice[{i}]: {a} vs {b}"));
            }
        }
        if self.slices.len() != other.slices.len() {
            return Some(format!(
                "slice length {} vs {}",
                self.slices.len(),
                other.slices.len()
            ));
        }
        for (i, (a, b)) in self.spec.iter().zip(&other.spec).enumerate() {
            if a != b {
                return Some(format!(
                    "wrong-path fill spec[{i}]: {:?}@{:#x} vs {:?}@{:#x}",
                    a.op,
                    a.line.raw(),
                    b.op,
                    b.line.raw()
                ));
            }
        }
        if self.spec.len() != other.spec.len() {
            return Some(format!(
                "wrong-path fill count {} vs {}",
                self.spec.len(),
                other.spec.len()
            ));
        }
        None
    }
}

/// Shadow-taint state: a byte-granularity map holding only the bytes
/// currently labelled secret, plus the violations reported so far.
/// Boxed behind an `Option` so the disabled case costs one `None`
/// check, exactly like the audit layer.
#[derive(Debug, Default)]
struct TaintState {
    shadow: HashMap<u64, TaintLabel>,
    violations: Vec<LeakViolation>,
    reported: u64,
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
    /// Structured trace sink. Every emission site is gated on
    /// `self.sink.is_some()`, so a machine without a sink takes no stats
    /// snapshots, formats nothing, and allocates nothing for tracing.
    sink: Option<Box<dyn TraceSink>>,
    trace: Option<Vec<TraceEvent>>,
    probe_slices: Option<Vec<u32>>,
    ct_obs: Option<Vec<CtResponse>>,
    taint: Option<Box<TaintState>>,
    silent_stores: bool,
    interference: Option<Interference>,
    interference_clock: u64,
    interference_next: usize,
    auditor: Option<ShadowAuditor>,
    injector: Option<FaultInjector>,
    degraded: BTreeSet<u64>,
    robust: RobustnessStats,
    /// Spare event buffer, swapped with the hierarchy's on every drain so
    /// the steady-state event path performs no allocation.
    event_buf: Vec<CacheEvent>,
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
    /// Wrong-path access channel of the observation trace (recorded only
    /// under [`Machine::enable_observation`]).
    spec_trace: Option<Vec<TraceEvent>>,
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
            trace: None,
            probe_slices: None,
            ct_obs: None,
            taint: None,
            silent_stores: config.silent_stores,
            interference: None,
            interference_clock: 0,
            interference_next: 0,
            auditor: None,
            injector: None,
            degraded: BTreeSet::new(),
            robust: RobustnessStats::default(),
            event_buf: Vec::new(),
            spec_window: config.spec_window,
            spec_seed: config.spec_seed,
            spec_predictor: HashMap::new(),
            spec_active: false,
            spec_used: 0,
            spec: SpecStats::default(),
            spec_trace: None,
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
    /// Everything attachable after construction — trace sinks, taint,
    /// interference, auditor, fault injector — is dropped, exactly as a
    /// fresh machine would lack them.
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
        self.trace = None;
        self.probe_slices = None;
        self.ct_obs = None;
        self.taint = None;
        self.interference = None;
        self.interference_clock = 0;
        self.interference_next = 0;
        self.auditor = None;
        self.injector = None;
        self.degraded.clear();
        self.robust = RobustnessStats::default();
        self.event_buf.clear();
        // `spec_window`/`spec_seed` are configuration and survive the
        // reset; the predictor state and window bookkeeping do not.
        self.spec_predictor.clear();
        self.spec_active = false;
        self.spec_used = 0;
        self.spec = SpecStats::default();
        self.spec_trace = None;
    }

    /// The configured BIA placement, if any.
    pub fn bia_placement(&self) -> Option<BiaPlacement> {
        self.placement
    }

    /// The BIA, if configured.
    pub fn bia(&self) -> Option<&Bia> {
        self.bia.as_ref()
    }

    /// The cache hierarchy (immutable; mutate only through machine
    /// operations so the BIA stays synchronized).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Enables the shadow auditor: a fault-free shadow BIA plus ground
    /// truth, cross-checked against the real BIA after every drained event
    /// batch. Call before issuing traffic — the shadow assumes it observes
    /// the event stream from the beginning. Zero-cost when never enabled.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoBia`] when the machine has no BIA.
    pub fn enable_audit(&mut self) -> Result<(), MachineError> {
        let bia = self.bia.as_ref().ok_or(MachineError::NoBia)?;
        self.auditor = Some(ShadowAuditor::new(*bia.config())?);
        Ok(())
    }

    /// Installs (or clears, with `None`) a deterministic fault injector
    /// acting on the BIA's event stream and structure. Faults only have an
    /// effect on machines with a BIA.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::NoBia`] when the machine has no BIA.
    pub fn set_fault_injector(&mut self, cfg: Option<FaultConfig>) -> Result<(), MachineError> {
        if self.bia.is_none() {
            return Err(MachineError::NoBia);
        }
        self.injector = cfg.map(FaultInjector::new);
        Ok(())
    }

    /// The shadow auditor, if enabled.
    pub fn auditor(&self) -> Option<&ShadowAuditor> {
        self.auditor.as_ref()
    }

    /// The fault injector, if installed.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Management groups currently degraded to full dataflow
    /// linearization, in ascending order.
    pub fn degraded_groups(&self) -> Vec<u64> {
        self.degraded.iter().copied().collect()
    }

    /// Whether any robustness machinery (audit or fault injection) is on.
    /// When false, CT operations take the exact pre-robustness path.
    fn robustness_active(&self) -> bool {
        self.auditor.is_some() || self.injector.is_some()
    }

    /// Downgrades `group` to full linearization: zeroes its bitmaps in the
    /// real BIA (and the shadow, to keep lockstep) and serves zeroed views
    /// for its CT operations until a clean audit batch re-promotes it.
    fn degrade_group(&mut self, group: u64) {
        if self.degraded.insert(group) {
            self.robust.downgrades += 1;
            self.emit(EventKind::Degrade { group });
        }
        if let Some(bia) = &mut self.bia {
            bia.reset_group(group);
        }
        if let Some(aud) = &mut self.auditor {
            aud.reset_group(group);
        }
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

    /// Debug write of an `i32` bit pattern.
    pub fn poke_i32(&mut self, addr: PhysAddr, v: i32) {
        self.poke(addr, Width::U32, v as u32 as u64);
    }

    /// Debug read of an `i32` bit pattern.
    pub fn peek_i32(&self, addr: PhysAddr) -> i32 {
        self.peek(addr, Width::U32) as u32 as i32
    }

    /// Attaches a structured trace sink. From now on every demand access,
    /// CT micro-operation, linearization pass, robustness transition, and
    /// fault batch is delivered to the sink as a cycle-stamped
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

    /// The per-phase cycle attribution so far. Always sums exactly to
    /// [`Machine::cycles`], sink or no sink.
    pub fn phase_cycles(&self) -> PhaseCycles {
        self.phases
    }

    /// Emits `kind` to the sink, stamped with the current cycle count.
    #[inline]
    fn emit(&mut self, kind: EventKind) {
        if let Some(sink) = &mut self.sink {
            sink.record(&TraceRecord {
                cycle: self.cycles,
                kind,
            });
        }
    }

    /// Starts recording the attacker-granularity demand trace. Under an
    /// LLC-resident BIA this also records the slice sequence of CT-op
    /// probes — with a sliced LLC, a CT operation travels over the
    /// interconnect to the slice holding its line, which a ring/mesh
    /// attacker can observe at slice granularity (§6.4).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
        if self.placement == Some(BiaPlacement::Llc) {
            self.probe_slices = Some(Vec::new());
        }
    }

    /// Stops recording and returns the trace (empty if tracing was off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take().unwrap_or_default()
    }

    /// The slice sequence of CT-op probes recorded since `enable_trace`
    /// (LLC-resident BIA only; empty otherwise).
    pub fn take_probe_slices(&mut self) -> Vec<u32> {
        self.probe_slices.take().unwrap_or_default()
    }

    /// Starts recording the full [`ObsTrace`] the trace-equivalence
    /// oracle compares: the demand trace (see [`Machine::enable_trace`])
    /// plus every CT-op bitmap response.
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
        self.trace = Some(buf.demand);
        self.probe_slices = (self.placement == Some(BiaPlacement::Llc)).then_some(buf.slices);
        self.ct_obs = Some(buf.ct);
        self.spec_trace = Some(buf.spec);
    }

    /// Stops observation recording and returns the trace (empty for any
    /// channel that was not being recorded).
    pub fn take_observation(&mut self) -> ObsTrace {
        ObsTrace {
            demand: self.take_trace(),
            ct: self.ct_obs.take().unwrap_or_default(),
            slices: self.take_probe_slices(),
            spec: self.spec_trace.take().unwrap_or_default(),
        }
    }

    /// Turns on the shadow taint layer. Until this is called every
    /// taint hook is a no-op and the hot path pays only a `None` check,
    /// mirroring the audit layer's opt-in contract.
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
            robust: {
                let mut r = self.robust;
                r.faults_injected = self
                    .injector
                    .as_ref()
                    .map_or(0, FaultInjector::faults_injected);
                r
            },
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

    /// Evicts `addr`'s line from every cache level (a `clflush`), keeping
    /// the BIA synchronized. Used by tests and the attacker model.
    pub fn flush_line(&mut self, addr: PhysAddr) {
        self.hier.invalidate_everywhere(addr.line());
        self.sync_bia();
    }

    /// A demand load that also returns its latency in cycles — the
    /// simulated analogue of timing an access with `rdtsc`, used by the
    /// Prime+Probe attacker.
    pub fn timed_load(&mut self, addr: PhysAddr, width: Width) -> (u64, u64) {
        let before = self.cycles;
        let v = self.demand(addr, width, AccessFlags::read(), TraceOp::Load, None);
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
            CoRunnerOp::Flush(addr) => {
                self.hier.invalidate_everywhere(addr.line());
            }
            CoRunnerOp::Touch(addr) => {
                self.hier.access(addr.line(), AccessFlags::read());
            }
            CoRunnerOp::Prefetch(addr) => {
                if !self.hier.cache(Level::L1d).is_resident(addr.line()) {
                    // A clean fill, as a prefetcher would perform.
                    self.hier.access(addr.line(), AccessFlags::read());
                }
            }
        }
        self.sync_bia();
    }

    fn sync_bia(&mut self) {
        if self.auditor.is_none() && self.injector.is_none() {
            // Fast path, byte-identical to the audit-off machine. The drain
            // swaps the hierarchy's event buffer with the machine's spare,
            // so steady-state simulation allocates nothing on this path.
            if self.hier.has_events() {
                self.hier.drain_events_into(&mut self.event_buf);
                if let Some(bia) = &mut self.bia {
                    bia.apply_events(self.event_buf.iter().copied());
                }
            }
            return;
        }
        let delayed_pending = self
            .injector
            .as_ref()
            .is_some_and(|i| i.pending_delayed() > 0);
        if !self.hier.has_events() && !delayed_pending {
            return;
        }
        let faults_before = self
            .injector
            .as_ref()
            .map_or(0, FaultInjector::faults_injected);
        self.hier.drain_events_into(&mut self.event_buf);
        // The auditor sees the stream as emitted; the real BIA sees it
        // after the injector had its way.
        if let Some(aud) = &mut self.auditor {
            aud.observe_batch(&self.event_buf);
        }
        if self.bia.is_none() {
            return;
        }
        let mut structural = Vec::new();
        if let Some(inj) = &mut self.injector {
            inj.perturb(&mut self.event_buf);
            structural = inj.structural_faults();
        }
        if let Some(bia) = &mut self.bia {
            bia.apply_events(self.event_buf.iter().copied());
        }
        for fault in structural {
            match fault {
                StructuralFault::Flip {
                    rank,
                    dirtiness,
                    bit,
                } => {
                    if let Some(bia) = &mut self.bia {
                        bia.flip_bit(rank as usize, dirtiness, bit);
                    }
                }
                StructuralFault::Storm => {
                    if let Some(bia) = &mut self.bia {
                        bia.invalidate_all();
                    }
                }
                StructuralFault::Interfere { pick } => self.interfere_fault(pick),
            }
        }
        if self.sink.is_some() {
            let injected = self
                .injector
                .as_ref()
                .map_or(0, FaultInjector::faults_injected)
                - faults_before;
            if injected > 0 {
                self.emit(EventKind::Faults { injected });
            }
        }
        self.audit_batch();
    }

    /// Mid-linearization co-runner interference: evict one line of a
    /// tracked group from every level. Unlike the other faults this is
    /// genuine cache activity, so the resulting events reach the real BIA
    /// *and* the auditor pristine — it perturbs state without desync.
    fn interfere_fault(&mut self, pick: u64) {
        let Some(bia) = &self.bia else { return };
        let groups = bia.tracked_groups();
        if groups.is_empty() {
            return;
        }
        let g = groups[((pick as u128 * groups.len() as u128) >> 64) as usize];
        let line = LineAddr::new(g << (bia.granularity_log2() - 6));
        self.hier.invalidate_everywhere(line);
        // Reuses the spare buffer: the batch that triggered this structural
        // fault has already been applied by the time we get here.
        self.hier.drain_events_into(&mut self.event_buf);
        if let Some(aud) = &mut self.auditor {
            aud.observe_batch(&self.event_buf);
        }
        if let Some(bia) = &mut self.bia {
            bia.apply_events(self.event_buf.iter().copied());
        }
    }

    /// Cross-checks the real BIA against the shadow after a drained batch
    /// and runs the degradation state machine: violations downgrade their
    /// groups and resynchronize the real table from the shadow; a clean
    /// batch re-promotes previously degraded groups.
    fn audit_batch(&mut self) {
        let (Some(aud), Some(bia)) = (&mut self.auditor, &mut self.bia) else {
            return;
        };
        let fresh = aud.check(bia);
        self.robust.audit_batches += 1;
        if fresh.is_empty() {
            if !self.degraded.is_empty() {
                // The table survived a full batch fault-free after the
                // resync: trust it again.
                self.robust.resyncs += 1;
                let groups = self.degraded.len() as u64;
                self.degraded.clear();
                if let Some(sink) = &mut self.sink {
                    sink.record(&TraceRecord {
                        cycle: self.cycles,
                        kind: EventKind::Repromote { groups },
                    });
                }
            }
            return;
        }
        self.robust.audit_violations += fresh.len() as u64;
        if let Some(sink) = &mut self.sink {
            sink.record(&TraceRecord {
                cycle: self.cycles,
                kind: EventKind::Resync {
                    violations: fresh.len() as u64,
                },
            });
        }
        bia.copy_state_from(aud.shadow());
        for group in fresh.iter().map(|v| v.group) {
            if self.degraded.insert(group) {
                self.robust.downgrades += 1;
                if let Some(sink) = &mut self.sink {
                    sink.record(&TraceRecord {
                        cycle: self.cycles,
                        kind: EventKind::Degrade { group },
                    });
                }
            }
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
        op: TraceOp,
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
        flags.kind = ctbia_sim::cache::AccessKind::Read;
        let snap = if self.sink.is_some() {
            Some(self.hier.stats())
        } else {
            None
        };
        let inline = self.auditor.is_none() && self.injector.is_none();
        let result = match (&mut self.bia, inline) {
            (Some(bia), true) => self.hier.access_with(addr.line(), flags, bia),
            (None, _) if self.hier.monitor().is_none() => {
                self.hier.access_with(addr.line(), flags, &mut NullMonitor)
            }
            _ => self.hier.access(addr.line(), flags),
        };
        let nearest = if flags.dram_direct {
            false
        } else if flags.bypass_l2 {
            result.hit_level == Level::Llc
        } else if flags.bypass_l1 {
            result.hit_level == Level::L2
        } else {
            result.hit_level == Level::L1d
        };
        if !nearest {
            self.spec.wrong_path_fills += 1;
        }
        let ds_stream = matches!(op, TraceOp::DsLoad | TraceOp::DsStore);
        let mem_cycles = self.cost.memory_cycles(result.latency, nearest, ds_stream);
        // The whole charge (DRAM stall included) lands on the speculative
        // phase: transient time is transient time.
        self.charge(Phase::Speculative, mem_cycles);
        if let Some(snap) = snap {
            let delta = self.hier.stats() - snap;
            self.emit(EventKind::SpecAccess {
                op: memop_of(op),
                line: addr.line().raw(),
                hit_level: result.hit_level,
                latency: result.latency,
                cycles: mem_cycles,
                delta,
            });
        }
        if !inline {
            self.sync_bia();
        }
        if let Some(t) = &mut self.spec_trace {
            t.push(TraceEvent {
                op,
                line: addr.line(),
            });
        }
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
        op: TraceOp,
        store: Option<u64>,
    ) -> u64 {
        if self.spec_active {
            return self.spec_demand(addr, width, flags, op, store);
        }
        self.tick_interference();
        let ds_stream = matches!(op, TraceOp::DsLoad | TraceOp::DsStore);
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
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent {
                op,
                line: addr.line(),
            });
        }
        let snap = if self.sink.is_some() {
            Some(self.hier.stats())
        } else {
            None
        };
        // Steady state (no auditor, no injector): the BIA is the monitor
        // and consumes events at the emit site — no buffer, no drain. The
        // robustness paths need the buffered stream (the auditor must see
        // it pristine, the injector must perturb it), so they keep the
        // buffered access + `sync_bia` round-trip.
        let inline = self.auditor.is_none() && self.injector.is_none();
        // Unmonitored machines take an L1d-hit fast path: the hit performs
        // the cache's exact demand bookkeeping and nothing else in the walk
        // — deeper probes, fills, prefetch, events — can run, so the full
        // `access_with` is only needed when the hit-only attempt misses.
        let plain = !flags.dram_direct && !flags.bypass_l1 && !flags.bypass_l2;
        let unmonitored = self.bia.is_none() && self.hier.monitor().is_none();
        let result = if plain
            && unmonitored
            && inline
            && self
                .hier
                .l1d_access_if_hit(addr.line(), flags.kind, flags.update_replacement)
        {
            AccessResult {
                latency: self.hier.cache(Level::L1d).hit_latency(),
                hit_level: Level::L1d,
                dram_latency: 0,
            }
        } else {
            match (&mut self.bia, inline) {
                (Some(bia), true) => self.hier.access_with(addr.line(), flags, bia),
                // No monitored level means no events can be emitted at all,
                // so the buffered form would only shuffle an empty vector
                // around.
                (None, _) if self.hier.monitor().is_none() => {
                    self.hier.access_with(addr.line(), flags, &mut NullMonitor)
                }
                _ => self.hier.access(addr.line(), flags),
            }
        };
        let nearest = if flags.dram_direct {
            false
        } else if flags.bypass_l2 {
            result.hit_level == Level::Llc
        } else if flags.bypass_l1 {
            result.hit_level == Level::L2
        } else {
            result.hit_level == Level::L1d
        };
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
        if let Some(snap) = snap {
            let delta = self.hier.stats() - snap;
            self.emit(EventKind::Access {
                op: memop_of(op),
                line: addr.line().raw(),
                hit_level: result.hit_level,
                latency: result.latency,
                cycles: mem_cycles,
                delta,
            });
        }
        if !inline {
            self.sync_bia();
        }
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

    /// Whether a software DS sweep may take the batched fast path: nothing
    /// may observe the per-access interleaving of charges and cache state
    /// (no sink, co-runner, auditor or injector), the hierarchy must be
    /// unmonitored with no BIA or placement routing, and silent-store
    /// squashing must be off. Under these conditions every per-line charge
    /// is a plain accumulation and an L1d hit has no side effects beyond
    /// the cache's own bookkeeping, so the batched sweep is state-for-state
    /// identical to the loop. Demand-trace recording does not refuse the
    /// batch: the line-granular trace needs only the `(op, line)` events in
    /// order, and the batched loop pushes one for each inline hit.
    #[inline]
    fn sweep_fast_path(&self) -> bool {
        !self.spec_active
            && self.sink.is_none()
            && self.interference.is_none()
            && self.auditor.is_none()
            && self.injector.is_none()
            && self.bia.is_none()
            && self.hier.monitor().is_none()
            && self.placement.is_none()
            && !self.silent_stores
    }

    /// The flat cycle charge of one L1d-hit DS access (the sweep's
    /// steady-state cost): what [`Machine::demand`] computes for a
    /// nearest-level hit on the dataflow stream.
    #[inline]
    fn ds_hit_sweep_cycles(&self) -> u64 {
        self.cost
            .memory_cycles(self.hier.cache(Level::L1d).hit_latency(), true, true)
    }
}

impl CtMemory for Machine {
    fn load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.demand(addr, width, AccessFlags::read(), TraceOp::Load, None)
    }

    fn store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.demand(
            addr,
            width,
            AccessFlags::write(),
            TraceOp::Store,
            Some(value),
        );
    }

    fn ds_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        let flags = self.ds_flags(ctbia_sim::cache::AccessKind::Read);
        self.demand(addr, width, flags, TraceOp::DsLoad, None)
    }

    fn ds_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        let flags = self.ds_flags(ctbia_sim::cache::AccessKind::Write);
        self.demand(addr, width, flags, TraceOp::DsStore, Some(value));
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
        // Batched sweep: an L1d hit is handled inline (the cache performs
        // its exact demand-hit bookkeeping, RAM supplies the data) and its
        // charges — one instruction plus the flat DS-hit service — are
        // accumulated and applied once at the end. Misses fall back to the
        // full `ds_load`, which charges and records itself. With nothing
        // observing the interleaving (see `sweep_fast_path`), the
        // accumulated totals are identical to the per-line loop's, and an
        // inline hit records its trace event in loop order.
        let flat = self.ds_hit_sweep_cycles();
        let mut ret = 0u64;
        let mut hits = 0u64;
        for &line in lines {
            let addr = line.with_offset(offset);
            let v = if self
                .hier
                .l1d_access_if_hit(line, ctbia_sim::cache::AccessKind::Read, false)
            {
                hits += 1;
                if let Some(t) = &mut self.trace {
                    t.push(TraceEvent {
                        op: TraceOp::DsLoad,
                        line,
                    });
                }
                self.ram.read(addr, width.bytes())
            } else {
                self.ds_load(addr, width)
            };
            ret = select(ct_eq(addr.raw(), target.raw()), v, ret);
        }
        let insts = hits + lines.len() as u64 * extra_insts;
        self.insts += insts;
        let compute = insts * self.cost.cycles_per_inst;
        let sweep = hits * flat;
        self.cycles += compute + sweep;
        self.phases.add(Phase::Compute, compute);
        self.phases.add(Phase::LinearizeSweep, sweep);
        ret
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
        // Read-modify-write sweep, batched the same way as the load sweep:
        // each line's load and store hit the L1d inline, misses fall back
        // to the charging `ds_load`/`ds_store`.
        let flat = self.ds_hit_sweep_cycles();
        let mut hits = 0u64;
        for &line in lines {
            let addr = line.with_offset(offset);
            let old =
                if self
                    .hier
                    .l1d_access_if_hit(line, ctbia_sim::cache::AccessKind::Read, false)
                {
                    hits += 1;
                    if let Some(t) = &mut self.trace {
                        t.push(TraceEvent {
                            op: TraceOp::DsLoad,
                            line,
                        });
                    }
                    self.ram.read(addr, width.bytes())
                } else {
                    self.ds_load(addr, width)
                };
            let new = select(ct_eq(addr.raw(), target.raw()), value & width.mask(), old);
            if self
                .hier
                .l1d_access_if_hit(line, ctbia_sim::cache::AccessKind::Write, false)
            {
                hits += 1;
                if let Some(t) = &mut self.trace {
                    t.push(TraceEvent {
                        op: TraceOp::DsStore,
                        line,
                    });
                }
                self.ram.write(addr, width.bytes(), new);
            } else {
                self.ds_store(addr, width, new);
            }
        }
        let insts = hits + lines.len() as u64 * extra_insts;
        self.insts += insts;
        let compute = insts * self.cost.cycles_per_inst;
        let sweep = hits * flat;
        self.cycles += compute + sweep;
        self.phases.add(Phase::Compute, compute);
        self.phases.add(Phase::LinearizeSweep, sweep);
    }

    fn dram_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.demand(
            addr,
            width,
            AccessFlags::read().dram_direct(),
            TraceOp::DramLoad,
            None,
        )
    }

    fn dram_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.demand(
            addr,
            width,
            AccessFlags::write().dram_direct(),
            TraceOp::DramStore,
            Some(value),
        );
    }

    fn spec_branch(
        &mut self,
        site: u64,
        taken: bool,
        wrong_path: &mut dyn FnMut(&mut dyn CtMemory),
    ) {
        if self.spec_window == 0 {
            return;
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
            return;
        }
        self.spec.mispredicts += 1;
        debug_assert!(
            !self.spec_active,
            "nested speculation windows are not modeled"
        );
        self.spec_active = true;
        self.spec_used = 0;
        wrong_path(self);
        self.spec_active = false;
        let accesses = u64::from(self.spec_used);
        self.spec.squashes += 1;
        self.emit(EventKind::Squash { site, accesses });
        self.spec_used = 0;
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
        if let Some(slices) = &mut self.probe_slices {
            slices.push(self.hier.llc_slice_of(aligned.line()));
        }
        let snap = if self.sink.is_some() {
            Some(self.hier.stats())
        } else {
            None
        };
        let (probe, probe_latency) = self.hier.ct_probe(aligned.line(), placement.monitor());
        if let Some(aud) = &mut self.auditor {
            aud.mirror_access(addr);
        }
        let (mut view, bia_latency, group, bit) = {
            let bia = self
                .bia
                .as_mut()
                .expect("BIA present when placement is set");
            let view = bia.access_for(addr);
            let (group, bit) = bia.locate(aligned.line());
            (view, bia.latency(), group, bit)
        };
        let mut degraded_view = false;
        if self.robustness_active() {
            if self.degraded.contains(&group) {
                // Degraded group: a zero view makes Algorithm 2 fetch the
                // whole dataflow set — full linearization.
                self.robust.degraded_ct_ops += 1;
                degraded_view = true;
                view = ctbia_core::bia::BiaView {
                    existence: 0,
                    dirtiness: 0,
                };
            } else if view.existence & (1 << bit) != 0 && !probe.resident {
                // The BIA claims the target line resident but the probe
                // disagrees — a desync the subset invariant forbids.
                self.robust.inline_desyncs += 1;
                self.degrade_group(group);
                degraded_view = true;
                view = ctbia_core::bia::BiaView {
                    existence: 0,
                    dirtiness: 0,
                };
            }
        }
        let ct_cycles = self.cost.ct_cycles(probe_latency, bia_latency);
        let ct_phase = if degraded_view {
            Phase::Degraded
        } else {
            Phase::BiaMaintenance
        };
        self.charge(ct_phase, ct_cycles);
        if let Some(snap) = snap {
            let delta = self.hier.stats() - snap;
            self.emit(EventKind::CtOp {
                store: false,
                line: aligned.line().raw(),
                bitmap: view.existence,
                cycles: ct_cycles,
                degraded: degraded_view,
                delta,
            });
        }
        let data = if probe.resident {
            self.ram.read(aligned, 8)
        } else {
            0
        };
        if let Some(obs) = &mut self.ct_obs {
            obs.push(CtResponse {
                store: false,
                bitmap: view.existence,
            });
        }
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
        if let Some(slices) = &mut self.probe_slices {
            slices.push(self.hier.llc_slice_of(aligned.line()));
        }
        if let Some(aud) = &mut self.auditor {
            aud.mirror_access(addr);
        }
        let snap = if self.sink.is_some() {
            Some(self.hier.stats())
        } else {
            None
        };
        let (mut view, bia_latency, group, bit) = {
            let bia = self
                .bia
                .as_mut()
                .expect("BIA present when placement is set");
            let view = bia.access_for(addr);
            let (group, bit) = bia.locate(aligned.line());
            (view, bia.latency(), group, bit)
        };
        let (wrote, probe_latency) = self
            .hier
            .ct_write_if_dirty(aligned.line(), placement.monitor());
        let mut degraded_view = false;
        if self.robustness_active() {
            if self.degraded.contains(&group) {
                self.robust.degraded_ct_ops += 1;
                degraded_view = true;
                view = ctbia_core::bia::BiaView {
                    existence: 0,
                    dirtiness: 0,
                };
            } else if view.dirtiness & (1 << bit) != 0 && !wrote {
                // Stale dirtiness on the target would make Algorithm 3
                // skip the read-modify-write while the CTStore also
                // refused to write: a lost store. A zero view forces the
                // RMW path.
                self.robust.inline_desyncs += 1;
                self.degrade_group(group);
                degraded_view = true;
                view = ctbia_core::bia::BiaView {
                    existence: 0,
                    dirtiness: 0,
                };
            }
        }
        let ct_cycles = self.cost.ct_cycles(probe_latency, bia_latency);
        let ct_phase = if degraded_view {
            Phase::Degraded
        } else {
            Phase::BiaMaintenance
        };
        self.charge(ct_phase, ct_cycles);
        if let Some(snap) = snap {
            let delta = self.hier.stats() - snap;
            self.emit(EventKind::CtOp {
                store: true,
                line: aligned.line().raw(),
                bitmap: view.dirtiness,
                cycles: ct_cycles,
                degraded: degraded_view,
                delta,
            });
        }
        self.sync_bia();
        if wrote {
            self.ram.write(aligned, 8, data);
        }
        if let Some(obs) = &mut self.ct_obs {
            obs.push(CtResponse {
                store: true,
                bitmap: view.dirtiness,
            });
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
        self.emit(EventKind::LinearizePass {
            store: info.store,
            software: info.software,
            group: info.group,
            ds_lines: info.ds_lines,
            skipped: info.skipped,
            fetched: info.fetched,
        });
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
                op: TraceOp::Store,
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
                    op: TraceOp::Load,
                    line: a.line()
                },
                TraceEvent {
                    op: TraceOp::DsStore,
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
        assert_eq!(obs.demand[0].op, TraceOp::Store);
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
        assert!(!obs.is_empty());
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
        assert!(MachineError::NoBia.to_string().contains("BIA"));
        let mut m = Machine::new(MachineConfig {
            ram_bytes: 1 << 17,
            ..MachineConfig::insecure()
        })
        .unwrap();
        let err = m.alloc(1 << 20, 64).unwrap_err();
        assert!(matches!(err, MachineError::Ram(_)));
    }
}
