//! Order statistics for the benchmark's reports.
//!
//! A timing is reported as its median plus the highest percentile the
//! sample supports: the highest of [`LADDER`] with at least
//! [`MIN_BEYOND`] samples strictly above it in rank.

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in percent) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples ranked above the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&q| supports(n, q))
}

/// Median of a sample (upper median for even counts, as nearest rank).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Median, or 0 for an empty sample.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Share of a run's windows the rates and step times are taken over.
pub const QUIET_SHARE: f64 = 1.0 / 3.0;
/// Windows with fewer step samples than this are not ranked.
pub const MIN_WINDOW_STEPS: usize = 5;

/// Indices of the quietest [`QUIET_SHARE`] of windows (at least one),
/// ranked by how disturbed the host was around each (`keys`, lower is
/// quieter, `None` for windows too sparse to rank; see
/// [`crate::host::HostLoad::key`]).
///
/// Other tenants of a shared host slow every thread of a run for seconds
/// at a time. The key measures only the host, with a fixed workload of the
/// benchmark's own and the hypervisor's steal count, so a change to the
/// program cannot pick which windows are kept, and a regression that hits
/// some windows more than others shows in the kept ones as often as
/// elsewhere.
pub fn quiet_windows(keys: &[Option<f64>]) -> Vec<usize> {
    let mut ranked: Vec<(f64, usize)> = keys
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|m| (m, i)))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let keep = ((ranked.len() as f64 * QUIET_SHARE).ceil() as usize).max(1);
    let mut idx: Vec<usize> = ranked.into_iter().take(keep).map(|(_, i)| i).collect();
    idx.sort_unstable();
    idx
}

/// A summarized timing population.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest supported tail percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values` (empty input gives `n = 0` and zeros).
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                tail: None,
            };
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = highest_supported(v.len()).map(|q| (q, percentile_sorted(&v, q)));
        Summary {
            n: v.len(),
            p50: percentile_sorted(&v, 50.0),
            tail,
        }
    }

    /// The value at a fixed percentile `q`, or `None` when the sample is
    /// too small to support it.
    pub fn fixed(values: &[f64], q: f64) -> Option<f64> {
        if !supports(values.len(), q) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(percentile_sorted(&v, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(39), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn quiet_windows_keep_the_quietest_third() {
        let m = [
            Some(5.0),
            Some(1.0),
            None,
            Some(3.0),
            Some(2.0),
            Some(9.0),
            Some(4.0),
        ];
        // Six ranked windows: a third keeps two, the keys 1.0 and 2.0.
        assert_eq!(quiet_windows(&m), vec![1, 4]);
        assert_eq!(quiet_windows(&[Some(7.0)]), vec![0]);
        assert!(quiet_windows(&[None, None]).is_empty());
        // Ties break by position, so the choice is deterministic.
        assert_eq!(quiet_windows(&[Some(1.0), Some(1.0), Some(1.0)]), vec![0]);
    }

    #[test]
    fn summary_reports_count_median_and_supported_tail() {
        let v: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail, Some((99.0, 989.0)));
        assert_eq!(Summary::fixed(&v, 99.9), None);
        assert_eq!(Summary::fixed(&v, 95.0), Some(949.0));
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.tail), (0, None));
    }
}
