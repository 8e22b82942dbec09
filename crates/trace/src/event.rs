//! Typed, cycle-stamped trace events and their deterministic JSONL form.
//!
//! Every event is stamped with the machine's deterministic cycle clock —
//! never wall-clock — so the serialized form is byte-reproducible: the
//! same cell spec produces the same bytes on any machine, serial or
//! parallel. Statistics deltas serialize only their non-zero fields, in a
//! fixed canonical order, to keep golden fixtures compact and diffs
//! readable.

use ctbia_sim::{HierarchyStats, Level};

/// The kind of demand memory operation an [`EventKind::Access`] records.
///
/// This is the machine's one demand opcode set (its `TraceEvent::op` and
/// the `ObsTrace` digest codes, `MemOp::ALL` order): ordinary
/// loads/stores, dataflow-set streaming accesses, and DRAM-direct
/// accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOp {
    /// Ordinary demand load.
    Load,
    /// Ordinary demand store.
    Store,
    /// Dataflow-set streaming load (linearization sweep).
    DsLoad,
    /// Dataflow-set streaming store (linearization sweep).
    DsStore,
    /// DRAM-direct load (bypasses every cache level).
    DramLoad,
    /// DRAM-direct store (bypasses every cache level).
    DramStore,
}

impl MemOp {
    /// All operations, in canonical order (also the histogram index order).
    pub const ALL: [MemOp; 6] = [
        MemOp::Load,
        MemOp::Store,
        MemOp::DsLoad,
        MemOp::DsStore,
        MemOp::DramLoad,
        MemOp::DramStore,
    ];

    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            MemOp::Load => "load",
            MemOp::Store => "store",
            MemOp::DsLoad => "ds_load",
            MemOp::DsStore => "ds_store",
            MemOp::DramLoad => "dram_load",
            MemOp::DramStore => "dram_store",
        }
    }

    /// Dense index into per-op count arrays; inverse of [`MemOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            MemOp::Load => 0,
            MemOp::Store => 1,
            MemOp::DsLoad => 2,
            MemOp::DsStore => 3,
            MemOp::DramLoad => 4,
            MemOp::DramStore => 5,
        }
    }

    /// True for the streaming (dataflow-set) opcodes.
    pub fn is_ds(self) -> bool {
        matches!(self, MemOp::DsLoad | MemOp::DsStore)
    }
}

/// What happened. Each variant is one auditable simulator occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One demand access through the hierarchy.
    Access {
        /// Which demand opcode.
        op: MemOp,
        /// Line address (line-granular, i.e. byte address >> 6).
        line: u64,
        /// Nearest level that had the line (DRAM on a full miss).
        hit_level: Level,
        /// Raw hierarchy latency of the access.
        latency: u64,
        /// Cycles actually charged by the cost model for this access
        /// (memory portion only; the instruction charge is separate).
        cycles: u64,
        /// Exact hierarchy-statistics delta caused by this access.
        delta: HierarchyStats,
    },
    /// One `CTLoad` or `CTStore` micro-operation.
    CtOp {
        /// True for `CTStore`, false for `CTLoad`.
        store: bool,
        /// Line address probed.
        line: u64,
        /// The bitmap response: existence for loads, dirtiness for stores.
        bitmap: u64,
        /// Cycles charged by the cost model for this micro-op.
        cycles: u64,
        /// Exact hierarchy-statistics delta (the probe).
        delta: HierarchyStats,
    },
    /// One linearization pass over a dataflow group (Algorithms 2 & 3).
    LinearizePass {
        /// True for the store algorithm, false for the load algorithm.
        store: bool,
        /// True for the software fallback (`FullLinearize`), which skips
        /// nothing; false for the BIA skip-aware path.
        software: bool,
        /// Dataflow group index (0 for the software fallback).
        group: u64,
        /// Lines in the group's dataflow set.
        ds_lines: u32,
        /// Lines the bitmap allowed the pass to skip.
        skipped: u32,
        /// Lines the pass streamed in.
        fetched: u32,
    },
    /// One wrong-path demand access issued inside a speculation window.
    /// Architecturally squashed, but its hierarchy effects (fills, LRU
    /// updates, BIA monitoring) persist — the transient leak channel.
    SpecAccess {
        /// Which demand opcode the wrong path issued.
        op: MemOp,
        /// Line address touched.
        line: u64,
        /// Nearest level that had the line (DRAM on a full miss).
        hit_level: Level,
        /// Raw hierarchy latency of the access.
        latency: u64,
        /// Cycles charged to [`Phase::Speculative`](crate::Phase).
        cycles: u64,
        /// Exact hierarchy-statistics delta caused by this access.
        delta: HierarchyStats,
    },
    /// A mispredicted branch's wrong-path window was squashed: registers
    /// and memory roll back, cache state stays.
    Squash {
        /// The branch site identifier that mispredicted.
        site: u64,
        /// Wrong-path demand accesses executed before the squash.
        accesses: u64,
    },
}

/// One trace event, stamped with the deterministic cycle clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Machine cycle count after the event's charges were applied.
    pub cycle: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl TraceRecord {
    /// Append the canonical single-line JSON form (no trailing newline).
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        let c = self.cycle;
        match &self.kind {
            EventKind::Access {
                op,
                line,
                hit_level,
                latency,
                cycles,
                delta,
            } => {
                write!(
                    out,
                    "{{\"c\":{c},\"k\":\"access\",\"op\":\"{}\",\"line\":{line},\
                     \"hit\":\"{}\",\"lat\":{latency},\"cyc\":{cycles}",
                    op.tag(),
                    level_tag(*hit_level),
                )
                .unwrap();
                write_delta(out, delta);
                out.push('}');
            }
            EventKind::CtOp {
                store,
                line,
                bitmap,
                cycles,
                delta,
            } => {
                // `degraded` is always false (the machine has no degraded
                // mode); it stays in the line so recorded traces keep
                // their bytes until the next trace-format change.
                write!(
                    out,
                    "{{\"c\":{c},\"k\":\"ct\",\"store\":{store},\"line\":{line},\
                     \"bitmap\":{bitmap},\"cyc\":{cycles},\"degraded\":false",
                )
                .unwrap();
                write_delta(out, delta);
                out.push('}');
            }
            EventKind::LinearizePass {
                store,
                software,
                group,
                ds_lines,
                skipped,
                fetched,
            } => {
                write!(
                    out,
                    "{{\"c\":{c},\"k\":\"linearize\",\"store\":{store},\
                     \"software\":{software},\"group\":{group},\"ds\":{ds_lines},\
                     \"skipped\":{skipped},\"fetched\":{fetched}}}",
                )
                .unwrap();
            }
            EventKind::SpecAccess {
                op,
                line,
                hit_level,
                latency,
                cycles,
                delta,
            } => {
                write!(
                    out,
                    "{{\"c\":{c},\"k\":\"spec_access\",\"op\":\"{}\",\"line\":{line},\
                     \"hit\":\"{}\",\"lat\":{latency},\"cyc\":{cycles}",
                    op.tag(),
                    level_tag(*hit_level),
                )
                .unwrap();
                write_delta(out, delta);
                out.push('}');
            }
            EventKind::Squash { site, accesses } => {
                write!(
                    out,
                    "{{\"c\":{c},\"k\":\"squash\",\"site\":{site},\"accesses\":{accesses}}}"
                )
                .unwrap();
            }
        }
    }

    /// The canonical single-line JSON form, as an owned string.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s
    }
}

/// Stable lowercase tag for a hierarchy level.
pub fn level_tag(level: Level) -> &'static str {
    match level {
        Level::L1d => "l1d",
        Level::L2 => "l2",
        Level::Llc => "llc",
        Level::Dram => "dram",
    }
}

/// Visit every scalar field of a [`HierarchyStats`] in canonical order,
/// as `("dotted.key", value)` pairs. This is the single source of truth
/// for the delta serialization and the metrics aggregation.
pub fn for_each_stat_field(stats: &HierarchyStats, mut f: impl FnMut(&'static str, u64)) {
    macro_rules! cache {
        ($name:literal, $c:expr) => {
            f(concat!($name, ".reads"), $c.reads);
            f(concat!($name, ".writes"), $c.writes);
            f(concat!($name, ".hits"), $c.hits);
            f(concat!($name, ".misses"), $c.misses);
            f(concat!($name, ".fills"), $c.fills);
            f(concat!($name, ".evictions"), $c.evictions);
            f(concat!($name, ".writebacks"), $c.writebacks);
            f(concat!($name, ".invalidations"), $c.invalidations);
            f(concat!($name, ".probes"), $c.probes);
        };
    }
    cache!("l1i", stats.l1i);
    cache!("l1d", stats.l1d);
    cache!("l2", stats.l2);
    cache!("llc", stats.llc);
    f("dram.reads", stats.dram.reads);
    f("dram.writes", stats.dram.writes);
    f("dram.row_hits", stats.dram.row_hits);
    f("dram.row_misses", stats.dram.row_misses);
    f("prefetch_fills", stats.prefetch_fills);
}

/// Fieldwise `acc += delta` over every scalar in a [`HierarchyStats`].
pub fn add_assign_stats(acc: &mut HierarchyStats, delta: &HierarchyStats) {
    macro_rules! cache {
        ($field:ident) => {
            acc.$field.reads += delta.$field.reads;
            acc.$field.writes += delta.$field.writes;
            acc.$field.hits += delta.$field.hits;
            acc.$field.misses += delta.$field.misses;
            acc.$field.fills += delta.$field.fills;
            acc.$field.evictions += delta.$field.evictions;
            acc.$field.writebacks += delta.$field.writebacks;
            acc.$field.invalidations += delta.$field.invalidations;
            acc.$field.probes += delta.$field.probes;
        };
    }
    cache!(l1i);
    cache!(l1d);
    cache!(l2);
    cache!(llc);
    acc.dram.reads += delta.dram.reads;
    acc.dram.writes += delta.dram.writes;
    acc.dram.row_hits += delta.dram.row_hits;
    acc.dram.row_misses += delta.dram.row_misses;
    acc.prefetch_fills += delta.prefetch_fills;
}

/// Append `,"d":{...}` containing only the non-zero delta fields; appends
/// nothing when the delta is all-zero.
fn write_delta(out: &mut String, delta: &HierarchyStats) {
    use std::fmt::Write;
    let mut any = false;
    for_each_stat_field(delta, |key, value| {
        if value == 0 {
            return;
        }
        if !any {
            out.push_str(",\"d\":{");
            any = true;
        } else {
            out.push(',');
        }
        write!(out, "\"{key}\":{value}").unwrap();
    });
    if any {
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_delta() -> HierarchyStats {
        let mut d = HierarchyStats::default();
        d.l1d.reads = 1;
        d.l1d.misses = 1;
        d.l1d.fills = 1;
        d.dram.reads = 1;
        d.dram.row_misses = 1;
        d
    }

    #[test]
    fn access_serializes_non_zero_delta_fields_only() {
        let rec = TraceRecord {
            cycle: 42,
            kind: EventKind::Access {
                op: MemOp::Load,
                line: 7,
                hit_level: Level::Dram,
                latency: 258,
                cycles: 258,
                delta: sample_delta(),
            },
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"c\":42,\"k\":\"access\",\"op\":\"load\",\"line\":7,\
             \"hit\":\"dram\",\"lat\":258,\"cyc\":258,\
             \"d\":{\"l1d.reads\":1,\"l1d.misses\":1,\"l1d.fills\":1,\
             \"dram.reads\":1,\"dram.row_misses\":1}}"
        );
    }

    #[test]
    fn zero_delta_omits_d_object() {
        let rec = TraceRecord {
            cycle: 1,
            kind: EventKind::CtOp {
                store: true,
                line: 9,
                bitmap: 0xff,
                cycles: 3,
                delta: HierarchyStats::default(),
            },
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"c\":1,\"k\":\"ct\",\"store\":true,\"line\":9,\
             \"bitmap\":255,\"cyc\":3,\"degraded\":false}"
        );
    }

    #[test]
    fn control_events_serialize() {
        let cases = [
            (
                EventKind::LinearizePass {
                    store: false,
                    software: true,
                    group: 0,
                    ds_lines: 4,
                    skipped: 0,
                    fetched: 4,
                },
                "{\"c\":5,\"k\":\"linearize\",\"store\":false,\"software\":true,\
                 \"group\":0,\"ds\":4,\"skipped\":0,\"fetched\":4}",
            ),
            (
                EventKind::Squash {
                    site: 9,
                    accesses: 4,
                },
                "{\"c\":5,\"k\":\"squash\",\"site\":9,\"accesses\":4}",
            ),
        ];
        for (kind, expect) in cases {
            assert_eq!(TraceRecord { cycle: 5, kind }.to_jsonl(), expect);
        }
    }

    #[test]
    fn add_assign_matches_field_enumeration() {
        let d = sample_delta();
        let mut acc = sample_delta();
        add_assign_stats(&mut acc, &d);
        let mut doubled = Vec::new();
        for_each_stat_field(&acc, |k, v| doubled.push((k, v)));
        let mut single = Vec::new();
        for_each_stat_field(&d, |k, v| single.push((k, v)));
        for ((k2, v2), (k1, v1)) in doubled.iter().zip(&single) {
            assert_eq!(k2, k1);
            assert_eq!(*v2, v1 * 2);
        }
        // 4 caches x 9 fields + 4 DRAM fields + prefetch_fills.
        assert_eq!(single.len(), 4 * 9 + 4 + 1);
    }

    #[test]
    fn spec_access_serializes_like_access_with_its_own_tag() {
        let rec = TraceRecord {
            cycle: 42,
            kind: EventKind::SpecAccess {
                op: MemOp::Load,
                line: 7,
                hit_level: Level::Dram,
                latency: 258,
                cycles: 258,
                delta: sample_delta(),
            },
        };
        assert_eq!(
            rec.to_jsonl(),
            "{\"c\":42,\"k\":\"spec_access\",\"op\":\"load\",\"line\":7,\
             \"hit\":\"dram\",\"lat\":258,\"cyc\":258,\
             \"d\":{\"l1d.reads\":1,\"l1d.misses\":1,\"l1d.fills\":1,\
             \"dram.reads\":1,\"dram.row_misses\":1}}"
        );
    }

    #[test]
    fn memop_index_is_inverse_of_all() {
        for (i, op) in MemOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
        assert!(MemOp::DsLoad.is_ds());
        assert!(!MemOp::DramStore.is_ds());
    }
}
