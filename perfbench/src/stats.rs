//! Order statistics over benchmark samples.
//!
//! Timings are reported as a median plus the highest percentile that has
//! at least [`MIN_BEYOND`] samples beyond it, always with the sample count
//! behind the number. A percentile with too few samples beyond it is
//! refused (`None`) rather than read off the tail of a short run.

/// Fewest samples that must lie strictly beyond a percentile's rank
/// before the percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample set, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile `pct` (1..=100) of `samples`, which need not
/// be sorted. Returns `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank (so p50 needs 20 samples and p99 needs 1000).
pub fn percentile(samples: &[f64], pct: u32) -> Option<Pct> {
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median, over consecutive whole rounds of `per_round` samples, of
/// each round's mean; `samples` counts the rounds. A round holds every
/// cell once (for `serve`, a run of requests), so its mean weighs the
/// cells the same way in every round, whereas a plain median over cells
/// with distinct latencies lands on either side of a gap between them from
/// run to run. A trailing partial round is left out; `None` without a
/// whole round.
pub fn median_round_mean(samples: &[f64], per_round: usize) -> Option<Pct> {
    let means: Vec<f64> = samples
        .chunks_exact(per_round.max(1))
        .map(|r| r.iter().sum::<f64>() / r.len() as f64)
        .collect();
    (!means.is_empty()).then(|| Pct {
        value: median(&means),
        samples: means.len(),
    })
}

/// The plain median of a small set of repeated measurements (set-ups,
/// per-pass rates): the middle value, or the mean of the two middle
/// values for an even count. Unlike [`percentile`] it never refuses,
/// because it summarises whole repetitions rather than a latency tail.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no measurements");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so percentile() has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_reports_value_and_sample_count() {
        let p50 = percentile(&ramp(20), 50).unwrap();
        assert_eq!(
            p50,
            Pct {
                value: 10.0,
                samples: 20
            }
        );
        let p99 = percentile(&ramp(1000), 99).unwrap();
        assert_eq!(
            p99,
            Pct {
                value: 990.0,
                samples: 1000
            }
        );
    }

    #[test]
    fn refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        // p50 of 19 samples is rank 10, leaving only 9 beyond it.
        assert_eq!(percentile(&ramp(19), 50), None);
        assert!(percentile(&ramp(20), 50).is_some());
        // p99 of 999 samples is rank 990, leaving 9 beyond it.
        assert_eq!(percentile(&ramp(999), 99), None);
        assert!(percentile(&ramp(1000), 99).is_some());
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn round_means_weigh_every_cell_alike() {
        // Two cells, 1 and 3 µs: the per-cell median sits on one of them,
        // every round's mean on 2; the partial last round is left out.
        let hits = [1.0, 3.0, 1.0, 3.0, 1.5, 3.5, 9.0];
        assert_eq!(
            median_round_mean(&hits, 2),
            Some(Pct {
                value: 2.0,
                samples: 3
            })
        );
        assert_eq!(median_round_mean(&hits[..1], 2), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
