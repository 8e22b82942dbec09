//! A minimal reference machine used by this crate's unit tests.
//!
//! `TestMachine` implements [`CtMemory`] over a *real* `ctbia-sim`
//! hierarchy and a *real* [`Bia`], with a sparse byte store for data, but a
//! deliberately naive cost model (1 instruction per operation plus the
//! `exec` charges). It exists so the algorithm tests validate semantics
//! independently of `ctbia-machine`'s full cost model. It also records the
//! attacker-granularity demand trace (operation kind + cache line) used by
//! the secret-independence tests; `CTLoad`/`CTStore` probes are excluded
//! because they change no architecturally visible state (§5.3).

use crate::bia::{Bia, BiaConfig};
use crate::ctmem::{CtLoad, CtMemory, CtStore, Width};
use ctbia_sim::addr::PhysAddr;
use ctbia_sim::cache::AccessKind;
use ctbia_sim::config::HierarchyConfig;
use ctbia_sim::hierarchy::{AccessFlags, Hierarchy, MonitorLevel};
use std::collections::HashMap;

/// One attacker-visible demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Regular load / store.
    Load,
    /// Regular store.
    Store,
    /// Dataflow-set load / store.
    DsLoad,
    /// Dataflow-set store.
    DsStore,
    /// Cache-bypassing DRAM load.
    DramLoad,
    /// Cache-bypassing DRAM store.
    DramStore,
}

/// The reference machine.
#[derive(Debug)]
pub struct TestMachine {
    mem: HashMap<u64, u8>,
    hier: Hierarchy,
    bia: Bia,
    /// Instructions executed (memory ops + `exec` charges).
    pub insts: u64,
    /// Fetchset loads issued via `ds_load`.
    pub ds_loads: u64,
    /// Fetchset stores issued via `ds_store`.
    pub ds_stores: u64,
    /// Bypass loads issued via `dram_load`.
    pub dram_loads: u64,
    /// Bypass stores issued via `dram_store`.
    pub dram_stores: u64,
    /// Attacker-granularity demand trace: (op, line number).
    pub trace: Vec<(TraceOp, u64)>,
}

impl TestMachine {
    /// A machine with a mid-size hierarchy (32 KiB L1d — big enough that
    /// the test DSes stay resident once fetched) and the Table 1 BIA at
    /// L1d.
    pub fn new() -> Self {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l1d = ctbia_sim::config::CacheConfig::new("L1d", 32 * 1024, 8, 2);
        cfg.l2 = ctbia_sim::config::CacheConfig::new("L2", 256 * 1024, 8, 15);
        let mut hier = Hierarchy::new(cfg).unwrap();
        hier.set_monitor(Some(MonitorLevel::L1d));
        TestMachine {
            mem: HashMap::new(),
            hier,
            bia: Bia::new(BiaConfig::paper_table1()).expect("Table 1 BIA config is valid"),
            insts: 0,
            ds_loads: 0,
            ds_stores: 0,
            dram_loads: 0,
            dram_stores: 0,
            trace: Vec::new(),
        }
    }

    fn read_raw(&self, addr: PhysAddr, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            v |= (*self.mem.get(&(addr.raw() + i)).unwrap_or(&0) as u64) << (8 * i);
        }
        v
    }

    fn write_raw(&mut self, addr: PhysAddr, width: Width, value: u64) {
        for i in 0..width.bytes() {
            self.mem.insert(addr.raw() + i, (value >> (8 * i)) as u8);
        }
    }

    /// Debug write, bypassing caches and cost model (test setup).
    pub fn poke_u32(&mut self, addr: PhysAddr, v: u32) {
        self.write_raw(addr, Width::U32, v as u64);
    }

    /// Debug write of a u64.
    pub fn poke_u64(&mut self, addr: PhysAddr, v: u64) {
        self.write_raw(addr, Width::U64, v);
    }

    /// Debug read, bypassing caches and cost model.
    pub fn peek_u32(&self, addr: PhysAddr) -> u32 {
        self.read_raw(addr, Width::U32) as u32
    }

    /// Asserts that every existence/dirtiness bit the BIA has set is also
    /// true in the monitored cache (the §5.2 subset invariant).
    pub fn assert_bia_subset_of_cache(&self) {
        use ctbia_sim::hierarchy::Level;
        for page in self.bia.tracked_pages() {
            let view = self.bia.peek(page).expect("tracked page has an entry");
            let (exist, dirty) = self.hier.cache(Level::L1d).page_truth(page);
            assert_eq!(
                view.existence & !exist,
                0,
                "stale existence bits for {page}"
            );
            assert_eq!(
                view.dirtiness & !dirty,
                0,
                "stale dirtiness bits for {page}"
            );
        }
    }

    fn demand(
        &mut self,
        addr: PhysAddr,
        width: Width,
        flags: AccessFlags,
        op: TraceOp,
        value: Option<u64>,
    ) -> u64 {
        self.insts += 1;
        self.trace.push((op, addr.line().raw()));
        self.hier.access_with(addr.line(), flags, &mut self.bia);
        match value {
            Some(v) => {
                self.write_raw(addr, width, v);
                0
            }
            None => self.read_raw(addr, width),
        }
    }
}

impl Default for TestMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl CtMemory for TestMachine {
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
        self.ds_loads += 1;
        self.demand(
            addr,
            width,
            AccessFlags::read().replacement_neutral(),
            TraceOp::DsLoad,
            None,
        )
    }

    fn ds_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.ds_stores += 1;
        self.demand(
            addr,
            width,
            AccessFlags::write().replacement_neutral(),
            TraceOp::DsStore,
            Some(value),
        );
    }

    fn dram_load(&mut self, addr: PhysAddr, width: Width) -> u64 {
        self.dram_loads += 1;
        self.demand(
            addr,
            width,
            AccessFlags::read().dram_direct(),
            TraceOp::DramLoad,
            None,
        )
    }

    fn dram_store(&mut self, addr: PhysAddr, width: Width, value: u64) {
        self.dram_stores += 1;
        self.demand(
            addr,
            width,
            AccessFlags::write().dram_direct(),
            TraceOp::DramStore,
            Some(value),
        );
    }

    fn ct_load(&mut self, addr: PhysAddr) -> CtLoad {
        self.insts += 1;
        let aligned = addr.align_down_u64();
        let (probe, _lat) = self.hier.ct_probe(aligned.line(), MonitorLevel::L1d);
        let data = if probe.resident {
            self.read_raw(aligned, Width::U64)
        } else {
            0
        };
        let view = self.bia.access(addr.page());
        CtLoad {
            data,
            existence: view.existence,
        }
    }

    fn ct_store(&mut self, addr: PhysAddr, data: u64) -> CtStore {
        self.insts += 1;
        let aligned = addr.align_down_u64();
        let view = self.bia.access(addr.page());
        // `ct_write_if_dirty` is architecturally invisible and emits no
        // monitored events, so there is nothing to sync here.
        let (wrote, _lat) = self
            .hier
            .ct_write_if_dirty(aligned.line(), MonitorLevel::L1d);
        if wrote {
            self.write_raw(aligned, Width::U64, data);
        }
        CtStore {
            dirtiness: view.dirtiness,
        }
    }

    fn exec(&mut self, insts: u64) {
        self.insts += insts;
    }
}

// Silence the unused-field lint for AccessKind import used indirectly.
#[allow(unused)]
fn _assert_kinds(_k: AccessKind) {}
