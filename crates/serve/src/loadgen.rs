//! The seeded request schedule that perfbench's `serve` workload replays.
//!
//! [`Schedule::generate`] is a *pure function* of its arguments: it deals
//! every request — connection, tenant, zipfian-drawn cell — up front,
//! with a xorshift64 generator and a zipf(1.0) popularity curve over the
//! cell pool. The same seed always produces the identical schedule,
//! fingerprinted by [`Schedule::digest`] (FNV-1a) so a run can record
//! which traffic it replayed.

/// Deterministic xorshift64 — the only randomness in the generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform in [0, 1) with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One dealt request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Which connection sends it (0-based).
    pub conn: usize,
    /// Which tenant the connection belongs to (0-based; always 0 when
    /// the schedule is dealt for one tenant).
    pub tenant: usize,
    /// Which cell of the pool it asks for.
    pub cell: usize,
}

/// A fully dealt request schedule — a pure function of its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed that generated it.
    pub seed: u64,
    /// Concurrent connections replaying it.
    pub connections: usize,
    /// Distinct cells in the pool.
    pub distinct_cells: usize,
    /// Every request, in global deal order; each connection replays its
    /// own subsequence in order.
    pub requests: Vec<ScheduledRequest>,
}

impl Schedule {
    /// Deals `requests` requests across `connections` connections and
    /// `tenants` tenants (connection *c* belongs to tenant `c % tenants`),
    /// drawing cells zipf(1.0)-distributed over a `distinct_cells` pool.
    /// Pure: the same arguments always produce the identical schedule.
    pub fn generate(
        seed: u64,
        connections: usize,
        requests: usize,
        distinct_cells: usize,
        tenants: usize,
    ) -> Schedule {
        let connections = connections.max(1);
        let distinct_cells = distinct_cells.max(1);
        let tenants = tenants.max(1);
        // Zipf(1.0) CDF over the pool: weight of cell i is 1/(i+1).
        let weights: Vec<f64> = (0..distinct_cells)
            .map(|i| 1.0 / (i as f64 + 1.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(distinct_cells);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut rng = Rng::new(seed);
        let dealt = (0..requests)
            .map(|i| {
                let conn = i % connections;
                let u = rng.unit();
                let cell = cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(distinct_cells - 1);
                ScheduledRequest {
                    conn,
                    tenant: conn % tenants,
                    cell,
                }
            })
            .collect();
        Schedule {
            seed,
            connections,
            distinct_cells,
            requests: dealt,
        }
    }

    /// FNV-1a fingerprint of the full deal, as 16 hex digits. Two runs
    /// with the same seed must record the same digest — the acceptance
    /// check that a rerun replayed the identical request schedule.
    pub fn digest(&self) -> String {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        mix(self.seed);
        mix(self.connections as u64);
        mix(self.distinct_cells as u64);
        for r in &self.requests {
            mix(r.conn as u64);
            mix(r.tenant as u64);
            mix(r.cell as u64);
        }
        format!("{h:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_pure_functions_of_the_seed() {
        let a = Schedule::generate(7, 8, 100, 6, 3);
        let b = Schedule::generate(7, 8, 100, 6, 3);
        assert_eq!(a, b, "same seed, same deal");
        assert_eq!(a.digest(), b.digest());
        for r in &a.requests {
            assert_eq!(
                r.tenant,
                r.conn % 3,
                "connection c belongs to tenant c % tenants"
            );
            assert!(r.cell < 6, "cell {} outside the pool", r.cell);
            assert!(r.conn < 8, "connection {} out of range", r.conn);
        }
        let c = Schedule::generate(8, 8, 100, 6, 3);
        assert_ne!(a.digest(), c.digest(), "different seed, different deal");
    }

    #[test]
    fn zipf_deal_is_skewed_and_covers_connections() {
        let s = Schedule::generate(42, 10, 1_000, 8, 1);
        let mut per_cell = vec![0usize; 8];
        let mut per_conn = vec![0usize; 10];
        for r in &s.requests {
            per_cell[r.cell] += 1;
            per_conn[r.conn] += 1;
        }
        assert!(
            per_cell[0] > per_cell[7] * 2,
            "zipf head beats tail: {per_cell:?}"
        );
        assert!(
            per_conn.iter().all(|&n| n == 100),
            "even deal: {per_conn:?}"
        );
    }
}
