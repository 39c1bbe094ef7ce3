//! Exact latency percentiles over virtual-clock samples.
//!
//! The streaming layer (`wmcs-wireless::stream`) stamps every event with
//! a **virtual clock** — one tick per submission attempt, never
//! `Instant`/`SystemTime` — and reports per-class queueing delays in a
//! [`StreamLatencies`](wmcs_wireless::stream::StreamLatencies).
//! [`LatencySummary::of`] turns one class's samples into **exact**
//! p50/p99/p999 figures with deterministic integer quantile math (sort +
//! nearest-rank, no interpolation, no floats), so the percentile cells
//! emitted into the sweep JSON by experiment T14 can never drift across
//! machines or thread counts.
//!
//! Nearest-rank definition: the `p = num/den` percentile of `n` sorted
//! samples is the sample at 1-based rank `⌈n·num/den⌉` (clamped to at
//! least 1) — the smallest value with at least a `p` fraction of the
//! samples at or below it. For `n = 1` every percentile is the sample;
//! duplicates need no special casing (the rank formula is order-only).

/// Exact nearest-rank percentiles of one sample class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// 50th percentile (nearest-rank), 0 when empty.
    pub p50: u64,
    /// 99th percentile (nearest-rank), 0 when empty.
    pub p99: u64,
    /// 99.9th percentile (nearest-rank), 0 when empty.
    pub p999: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
}

impl LatencySummary {
    /// The exact percentiles of `samples`, in any order (a sorted copy
    /// is summarised).
    pub fn of(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Self {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 1, 2),
            p99: nearest_rank(&sorted, 99, 100),
            p999: nearest_rank(&sorted, 999, 1000),
            max: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// The exact `num/den` percentile of `sorted` (ascending) by the
/// nearest-rank rule; 0 on an empty slice.
fn nearest_rank(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // 1-based rank ⌈n·num/den⌉, clamped into [1, n]. The products stay
    // far below u64 range for any realistic sample count.
    let n = sorted.len();
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmcs_wireless::stream::StreamLatencies;

    #[test]
    fn percentiles_match_hand_computed_fixtures() {
        // 1..=100: rank(p50) = 50 → 50; rank(p99) = 99 → 99;
        // rank(p999) = ⌈100·999/1000⌉ = 100 → 100.
        let hundred: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::of(&hundred);
        assert_eq!((s.n, s.p50, s.p99, s.p999, s.max), (100, 50, 99, 100, 100));

        // Ten samples, unsorted on input: sorted = [1,2,3,4,5,6,7,9,12,40].
        // rank(p50) = 5 → 5; rank(p99) = ⌈9.9⌉ = 10 → 40; p999 → 40.
        let s = LatencySummary::of(&[12, 3, 1, 40, 5, 7, 2, 9, 4, 6]);
        assert_eq!((s.p50, s.p99, s.p999, s.max), (5, 40, 40, 40));

        // 1000 samples 0..1000: rank(p999) = 999 → sorted[998] = 998.
        let thousand: Vec<u64> = (0..1000).collect();
        let s = LatencySummary::of(&thousand);
        assert_eq!((s.p50, s.p99, s.p999, s.max), (499, 989, 998, 999));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::of(&[7]);
        assert_eq!((s.n, s.p50, s.p99, s.p999, s.max), (1, 7, 7, 7, 7));
    }

    #[test]
    fn duplicate_samples_need_no_special_case() {
        let s = LatencySummary::of(&[4, 4, 4, 4, 4, 4]);
        assert_eq!((s.p50, s.p99, s.p999, s.max), (4, 4, 4, 4));
        // Half zeros, half nines: p50 lands on the last zero (rank 3 of
        // [0,0,0,9,9,9]), the tail percentiles on the nines.
        let s = LatencySummary::of(&[9, 0, 9, 0, 9, 0]);
        assert_eq!((s.p50, s.p99, s.p999), (0, 9, 9));
    }

    #[test]
    fn empty_classes_summarize_to_zero() {
        let lat = StreamLatencies::default();
        for samples in [&lat.join, &lat.leave, &lat.rebid, &lat.reprice] {
            let s = LatencySummary::of(samples);
            assert_eq!((s.n, s.p50, s.p99, s.p999, s.max), (0, 0, 0, 0, 0));
        }
    }
}
