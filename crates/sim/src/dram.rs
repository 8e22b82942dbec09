//! A simple DRAM latency model.
//!
//! The default is a closed-row, fixed-latency model — consistent with the
//! paper's §6.5 observation that a closed-row policy makes the memory
//! controller leak at no finer than page granularity. An open-row variant
//! with per-bank row buffers is available for ablation experiments.

use crate::addr::LineAddr;
use crate::config::DramConfig;
use crate::stats::DramStats;

/// The DRAM backing store model (latency and statistics only; data lives in
/// the machine's simulated RAM).
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    stats: DramStats,
    open_rows: Vec<Option<u64>>,
}

impl Dram {
    /// Creates a DRAM model from its configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctbia_sim::addr::LineAddr;
    /// use ctbia_sim::config::DramConfig;
    /// use ctbia_sim::dram::Dram;
    ///
    /// let mut dram = Dram::new(DramConfig::closed_row(200));
    /// assert_eq!(dram.read(LineAddr::new(0)), 200);
    /// assert_eq!(dram.stats().reads, 1);
    /// ```
    pub fn new(cfg: DramConfig) -> Self {
        let banks = cfg.banks.max(1) as usize;
        Dram {
            open_rows: vec![None; banks],
            cfg,
            stats: DramStats::default(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_and_row(&self, line: LineAddr) -> (usize, u64) {
        let byte = line.base().raw();
        let row = byte / self.cfg.row_bytes;
        let bank = (row % self.cfg.banks.max(1) as u64) as usize;
        (bank, row)
    }

    fn access(&mut self, line: LineAddr) -> u64 {
        if !self.cfg.row_buffer {
            self.stats.row_misses += 1;
            return self.cfg.latency;
        }
        let (bank, row) = self.bank_and_row(line);
        if self.open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            self.open_rows[bank] = Some(row);
            self.stats.row_misses += 1;
            self.cfg.latency
        }
    }

    /// Reads a line; returns the latency in cycles.
    pub fn read(&mut self, line: LineAddr) -> u64 {
        self.stats.reads += 1;
        self.access(line)
    }

    /// Writes a line (a write-back or a cache-bypassing store); returns the
    /// latency in cycles.
    pub fn write(&mut self, line: LineAddr) -> u64 {
        self.stats.writes += 1;
        self.access(line)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Restores the exactly-as-built state: all banks closed, stats zeroed.
    pub fn reset(&mut self) {
        self.open_rows.fill(None);
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_row_fixed_latency() {
        let mut d = Dram::new(DramConfig::closed_row(123));
        assert_eq!(d.read(LineAddr::new(0)), 123);
        assert_eq!(d.read(LineAddr::new(1)), 123);
        assert_eq!(d.write(LineAddr::new(0)), 123);
        assert_eq!(d.stats().accesses(), 3);
        assert_eq!(d.stats().row_hits, 0);
    }

    #[test]
    fn open_row_hits_same_row() {
        let mut d = Dram::new(DramConfig::open_row(40, 160));
        // Lines 0 and 1 share the default 8 KiB row.
        assert_eq!(d.read(LineAddr::new(0)), 160);
        assert_eq!(d.read(LineAddr::new(1)), 40);
        // A line in a different row of the same bank reopens.
        let far = LineAddr::new((8192 / 64) * 16); // same bank, next row round
        assert_eq!(d.read(far), 160);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 2);
    }
}
