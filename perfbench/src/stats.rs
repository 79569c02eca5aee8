//! The benchmark's arithmetic: nearest-rank percentiles, the
//! "≥10 samples beyond" rule for tail percentiles, and operation
//! accounting for `error_ratio`.

/// Samples a tail percentile must leave beyond itself to be reported:
/// with fewer, the "percentile" is just one of the last few samples.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`: the smallest
/// sample with at least `p`% of the samples at or below it. `None` for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply before dividing: `p * n` is exact for whole percentiles,
    // where `p / 100` (e.g. 0.99) is not and can push the ceiling up.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Percentile `p` of `values`, but only when at least [`TAIL_SAMPLES`]
/// samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(values.len(), p) < TAIL_SAMPLES {
        return None;
    }
    percentile(values, p)
}

/// The nearest-rank median; `0.0` for no samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// The mean over `groups` of each group's median. A run's jobs cycle over
/// a few worlds whose costs differ; a pooled median would just pick the
/// middle world, while this averages the worlds and keeps the median's
/// robustness within each. `0.0` for no groups.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    if medians.is_empty() {
        return 0.0;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// Operations attempted and failed in one run. Every operation the
/// workload meant to issue is attempted — one that was never sent
/// (its connection died first) counts as attempted *and* failed, so
/// failures can only raise `error_ratio`, never shrink its denominator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations the workload issued or meant to issue.
    pub attempted: usize,
    /// Operations that errored, returned a wrong output, or were never
    /// sent.
    pub failed: usize,
}

impl Tally {
    /// One operation whose output was checked: `ok` is whether it
    /// succeeded and matched its reference.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `n` operations that were scheduled but never sent.
    pub fn unsent(&mut self, n: usize) {
        self.attempted += n;
        self.failed += n;
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; `0.0` when nothing was attempted.
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample_never_an_interpolation() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), Some(15.0));
        assert_eq!(percentile(&v, 30.0), Some(20.0));
        assert_eq!(percentile(&v, 40.0), Some(20.0));
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [40.0, 15.0, 50.0, 35.0, 20.0];
        assert_eq!(percentile(&v, 50.0), Some(35.0));
        assert_eq!(median(&v), 35.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of n samples sits at rank ceil(0.99 n): 1000 samples leave
        // exactly 10 beyond it, 999 leave 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(0, 50.0), 0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 99.0), None);
        assert_eq!(tail_percentile(&thousand[..199], 95.0), None);
        assert_eq!(tail_percentile(&thousand[..200], 95.0), Some(190.0));
    }

    #[test]
    fn mean_of_medians_averages_each_groups_median() {
        // A pooled median of these eight samples is 2.0 (the middle
        // group's); the groups' medians 1, 2 and 6 average to 3.
        let groups = vec![
            vec![1.0, 1.0, 9.0],
            vec![2.0, 2.0],
            vec![6.0, 5.0, 7.0],
            vec![],
        ];
        assert_eq!(mean_of_medians(&groups), 3.0);
        assert_eq!(mean_of_medians(&[]), 0.0);
    }

    #[test]
    fn error_ratio_keeps_unsent_and_failed_operations_in_the_denominator() {
        // Two connections with three operations each: each answers its
        // first operation and then dies, leaving two unsent apiece.
        let mut tally = Tally::default();
        for _ in 0..2 {
            let mut conn = Tally::default();
            conn.record(true);
            conn.unsent(2);
            tally.absorb(conn);
        }
        assert_eq!(tally.attempted, 6);
        assert_eq!(tally.failed, 4);
        assert!((tally.error_ratio() - 4.0 / 6.0).abs() < 1e-12);

        // A mismatched output is a failure too.
        let mut checked = Tally::default();
        checked.record(true);
        checked.record(false);
        assert_eq!(checked.error_ratio(), 0.5);
        assert_eq!(Tally::default().error_ratio(), 0.0);
    }
}
