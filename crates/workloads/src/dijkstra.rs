//! Dijkstra — Figure 7a / Figure 8 workload.
//!
//! O(V²) single-source shortest paths over a complete weighted graph whose
//! adjacency matrix is secret. Per Table 2, the leak is the access to the
//! not-yet-selected vertex `u` with minimum distance: once `u` is chosen,
//! the relaxation loop reads `adj[u][j]` for every `j` — a secret row
//! index. For a fixed public `j`, the possible addresses of `adj[u][j]`
//! form the matrix *column* `j` (stride `V * 4` bytes), so the union over
//! the loop covers the whole matrix: DS size `O(V²)`, as the paper states.
//!
//! The min-scan itself reads `dist[]`/`selected[]` sequentially — public
//! addresses — and keeps the running minimum in registers, so only the
//! `selected[u]` marking and the `adj[u][j]` reads need linearization.

use crate::run::{digest_u64, measure, Run, Workload};
use crate::strategy::Strategy;
use ctbia_core::ctmem::Width;
use ctbia_core::ds::DataflowSet;
use ctbia_core::sink::{elem_addr, TaintSink, Value};
use ctbia_core::taint::Tv;
use ctbia_machine::{Counters, Machine};

/// Weights are kept small so sums never approach the INF sentinel.
const MAX_WEIGHT: u32 = 100;
/// "Unreached" sentinel.
const INF: u32 = u32::MAX / 4;
/// Per-scan-step bookkeeping instructions (two compares, two selects, loop).
const SCAN_INSTS: u64 = 6;
/// Per-relaxation bookkeeping instructions (add, min-select, loop).
const RELAX_INSTS: u64 = 6;

/// The Dijkstra workload on `vertices` vertices (the paper sweeps
/// 32–128).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dijkstra {
    /// Vertex count.
    pub vertices: usize,
    /// Input generation seed.
    pub seed: u64,
}

impl Dijkstra {
    /// A complete graph of `vertices` vertices with the default seed.
    pub fn new(vertices: usize) -> Self {
        Dijkstra {
            vertices,
            seed: 0xd1d,
        }
    }

    /// The secret adjacency matrix, row-major.
    pub fn adjacency(&self) -> Vec<u32> {
        let mut rng = crate::run::InputRng::new(self.seed);
        let n = self.vertices;
        let mut adj = vec![0u32; n * n];
        for i in 0..n {
            for j in 0..n {
                adj[i * n + j] = if i == j {
                    0
                } else {
                    1 + rng.below(MAX_WEIGHT as u64) as u32
                };
            }
        }
        adj
    }

    /// The kernel, written once for every surface. The adjacency matrix
    /// is secret; distances become secret on the first relaxation and
    /// `selected[]` through the secret-indexed marking store. Both are
    /// then only read at public (sequential-scan) addresses, while
    /// `adj[u][j]` and `selected[u]` go through the strategy. Returns the
    /// distances from vertex 0.
    fn body<V: Value, S: TaintSink<V> + ?Sized>(&self, s: &mut S) -> Vec<V> {
        let n = self.vertices as u64;
        let adj = s.alloc(n * n * 4);
        let dist = s.alloc(n * 4);
        let selected = s.alloc(n * 4);
        for (i, &w) in self.adjacency().iter().enumerate() {
            s.poke(
                adj.offset(i as u64 * 4),
                Width::U32,
                &V::public(u64::from(w)),
            );
        }
        // DS of adj[u][j] for public j, secret u: column j of the matrix.
        let col_ds: Vec<DataflowSet> = (0..n)
            .map(|j| DataflowSet::strided(adj.offset(j * 4), n, n * 4, 4))
            .collect();
        let ds_selected = DataflowSet::contiguous(selected, n * 4);
        let inf = V::public(u64::from(INF));

        s.mark_secret(adj, n * n * 4);
        // Public initialization.
        for i in 0..s.trip_count(&V::public(n), "init loop") {
            let d0 = if i == 0 { V::public(0) } else { inf.clone() };
            s.store(
                &elem_addr(dist, &V::public(i), 4),
                Width::U32,
                &d0,
                "dist init",
            );
            s.store(
                &elem_addr(selected, &V::public(i), 4),
                Width::U32,
                &V::public(0),
                "selected init",
            );
            s.exec(2);
        }
        for _ in 0..s.trip_count(&V::public(n), "vertex loop") {
            // Branchless arg-min over unselected vertices.
            let mut best = V::public(u64::from(INF) + 1);
            let mut u = V::public(0);
            for i in 0..s.trip_count(&V::public(n), "arg-min scan") {
                let d = s.load(&elem_addr(dist, &V::public(i), 4), Width::U32, "dist[i]");
                let sel = s.load(
                    &elem_addr(selected, &V::public(i), 4),
                    Width::U32,
                    "selected[i]",
                );
                s.exec(SCAN_INSTS);
                let better = sel.ct_eq(&V::public(0)).and(&d.ct_lt(&best));
                best = V::select(&better, &d, &best);
                u = V::select(&better, &V::public(i), &u);
            }
            // Mark u selected: secret-indexed store, DS = selected[].
            s.ds_store(
                &ds_selected,
                &elem_addr(selected, &u, 4),
                Width::U32,
                &V::public(1),
                "selected[u] = 1",
            );
            // Relax every edge out of u: adj[u][j] is a secret-row load.
            for j in 0..s.trip_count(&V::public(n), "relax loop") {
                let addr = elem_addr(adj, &u.mul(&V::public(n)).add(&V::public(j)), 4);
                let w = s.ds_load(&col_ds[j as usize], &addr, Width::U32, "adj[u][j]");
                s.exec(RELAX_INSTS);
                let nd = best.add(&w).ct_min(&inf);
                let dj = s.load(&elem_addr(dist, &V::public(j), 4), Width::U32, "dist[j]");
                let better = nd.ct_lt(&dj);
                s.store(
                    &elem_addr(dist, &V::public(j), 4),
                    Width::U32,
                    &V::select(&better, &nd, &dj),
                    "dist[j] relax",
                );
            }
        }
        (0..n)
            .map(|i| s.peek(dist.offset(i * 4), Width::U32))
            .collect()
    }

    /// Runs the kernel; returns the distance vector from vertex 0 and the
    /// measured counters.
    ///
    /// # Panics
    ///
    /// Panics if the machine lacks RAM or (for [`Strategy::Bia`]) a BIA.
    pub fn run_full(&self, m: &mut Machine, strategy: Strategy) -> (Vec<u32>, Counters) {
        let (dist, counters) = measure(m, strategy, |s| self.body(s));
        (dist.into_iter().map(|d| d as u32).collect(), counters)
    }
}

/// Plain-Rust reference (standard O(V²) Dijkstra from vertex 0).
pub fn reference(adj: &[u32], n: usize) -> Vec<u32> {
    let mut dist = vec![INF; n];
    let mut selected = vec![false; n];
    dist[0] = 0;
    for _ in 0..n {
        let mut best = INF as u64 + 1;
        let mut u = 0;
        for (i, (&d, &s)) in dist.iter().zip(&selected).enumerate() {
            if !s && (d as u64) < best {
                best = d as u64;
                u = i;
            }
        }
        selected[u] = true;
        for j in 0..n {
            let nd = (best + adj[u * n + j] as u64).min(INF as u64) as u32;
            if nd < dist[j] {
                dist[j] = nd;
            }
        }
    }
    dist
}

impl Workload for Dijkstra {
    fn name(&self) -> String {
        format!("dij_{}", self.vertices)
    }

    fn run(&self, m: &mut Machine, strategy: Strategy) -> Run {
        let (dist, counters) = self.run_full(m, strategy);
        Run {
            digest: digest_u64(dist.into_iter().map(u64::from)),
            counters,
        }
    }

    fn run_tainted(&self, s: &mut dyn TaintSink<Tv>) -> Vec<Tv> {
        self.body(s)
    }

    fn reference(&self) -> Vec<u64> {
        reference(&self.adjacency(), self.vertices)
            .into_iter()
            .map(u64::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctbia_machine::BiaPlacement;

    #[test]
    fn matches_reference_under_all_strategies() {
        let wl = Dijkstra {
            vertices: 24,
            seed: 4,
        };
        let expect = reference(&wl.adjacency(), 24);
        for strategy in [Strategy::Insecure, Strategy::software_ct(), Strategy::bia()] {
            let mut m = if strategy.needs_bia() {
                Machine::with_bia(BiaPlacement::L1d)
            } else {
                Machine::insecure()
            };
            let (dist, _) = wl.run_full(&mut m, strategy);
            assert_eq!(dist, expect, "{strategy}");
        }
    }

    #[test]
    fn l2_bia_matches_reference() {
        let wl = Dijkstra {
            vertices: 16,
            seed: 2,
        };
        let mut m = Machine::with_bia(BiaPlacement::L2);
        let (dist, _) = wl.run_full(&mut m, Strategy::bia());
        assert_eq!(dist, reference(&wl.adjacency(), 16));
    }

    #[test]
    fn reference_sanity_on_a_tiny_graph() {
        // 3 vertices: 0-1 cost 5, 0-2 cost 9, 1-2 cost 2.
        #[rustfmt::skip]
        let adj = vec![
            0, 5, 9,
            5, 0, 2,
            9, 2, 0,
        ];
        assert_eq!(reference(&adj, 3), vec![0, 5, 7]);
    }

    #[test]
    fn bia_beats_ct() {
        let wl = Dijkstra::new(24);
        let mut mc = Machine::insecure();
        let ct = wl.run(&mut mc, Strategy::software_ct());
        let mut mb = Machine::with_bia(BiaPlacement::L1d);
        let bia = wl.run(&mut mb, Strategy::bia());
        assert_eq!(ct.digest, bia.digest);
        assert!(
            bia.counters.cycles < ct.counters.cycles,
            "BIA should beat CT"
        );
    }

    #[test]
    fn name_matches_paper() {
        assert_eq!(Dijkstra::new(128).name(), "dij_128");
    }
}
