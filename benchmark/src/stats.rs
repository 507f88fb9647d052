//! The statistics the benchmark reports and the rule `compare` applies:
//! medians and quartiles per metric, the highest percentile that has at
//! least ten samples beyond it, and the nine-in-ten win rule over paired
//! runs.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, hit ratios).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    #[must_use]
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether moving from `from` to `to` is an improvement.
    #[must_use]
    pub fn improves(self, from: f64, to: f64) -> bool {
        match self {
            Better::Lower => to < from,
            Better::Higher => to > from,
        }
    }

    /// How much worse `to` is than `from`, as a share of `from`
    /// (negative when it is better).
    #[must_use]
    pub fn worsening(self, from: f64, to: f64) -> f64 {
        match self {
            Better::Lower => (to - from) / from,
            Better::Higher => (from - to) / from,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median, averaging the middle pair for an even count (Python's
/// `statistics.median`); NaN for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points of Python's `statistics.quantiles(values,
/// n=4)` (its default exclusive method), so a spread reads the same
/// here as in a Python check. A single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return [s.first().copied().unwrap_or(f64::NAN); 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Exact integer offset, as in the Python source; negative
        // only for two samples, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// The interquartile distance as a share of the median: the run-to-run
/// spread each end-to-end metric must keep within its bound.
#[must_use]
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `p`th percentile by nearest rank: the smallest sample with at
/// least `p` percent of the samples at or below it.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[nearest_rank(s.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product such as 0.999 * 10000, which floating
    // point puts a hair above 9990, from ceiling to the next rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The percentiles a timing may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median does not.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= 10)
}

/// The pairs `(parent[i], change[i])` the change wins, and how many
/// pairs there are. Ties count for neither side.
#[must_use]
pub fn wins(parent: &[f64], change: &[f64], better: Better) -> (usize, usize) {
    let pairs = parent.len().min(change.len());
    let won = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.improves(**p, **c))
        .count();
    (won, pairs)
}

/// A gain: the change wins at least nine tenths of all pairs and the
/// medians differ, in its favour, by more than the parent's own
/// interquartile distance.
#[must_use]
pub fn is_gain(parent: &[f64], change: &[f64], better: Better) -> bool {
    let (won, pairs) = wins(parent, change, better);
    let [q1, _, q3] = quartiles(parent);
    let (mp, mc) = (median(parent), median(change));
    pairs > 0 && 10 * won >= 9 * pairs && better.improves(mp, mc) && (mc - mp).abs() > q3 - q1
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the win rule.
    Gain,
    /// Within the bound, and the spread is small enough to say so.
    Unchanged,
    /// Within the bound, but the runs spread wider than the bound.
    Unresolved,
    /// The median worsened by more than the bound.
    Regression,
}

impl Verdict {
    /// The word `compare` prints.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// Judges `change` against `parent` for a metric whose median may
/// worsen by at most `bound`, a share of the parent's median.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if better.worsening(median(parent), median(change)) > bound {
        return Verdict::Regression;
    }
    if is_gain(parent, change, better) {
        return Verdict::Gain;
    }
    let every_run_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better.improves(p, c)));
    if (spread(parent) > bound || spread(change) > bound) && !every_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((spread(&one_to(10)) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_is_the_highest_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        // On 1..=1000 the p99 sample leaves exactly ten above it.
        let v = one_to(1000);
        let p99 = percentile(&v, 99.0);
        assert_eq!(p99, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02];
        // Nine of ten pairs faster, by far more than the parent's IQR.
        let mut change: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        change[3] = 11.0;
        assert_eq!(wins(&parent, &change, Better::Lower), (9, 10));
        assert!(is_gain(&parent, &change, Better::Lower));
        assert_eq!(verdict(&parent, &change, Better::Lower, 0.1), Verdict::Gain);
        // Eight of ten is not enough.
        change[4] = 11.0;
        assert!(!is_gain(&parent, &change, Better::Lower));
        // Ties count for neither side.
        assert_eq!(wins(&parent, &parent, Better::Lower), (0, 10));
        // Ten wins by less than the parent's own spread is no gain.
        let nudged: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert_eq!(wins(&parent, &nudged, Better::Lower), (10, 10));
        assert!(!is_gain(&parent, &nudged, Better::Lower));
        // For a higher-is-better metric the direction flips.
        let faster: Vec<f64> = parent.iter().map(|p| p + 1.0).collect();
        assert!(is_gain(&parent, &faster, Better::Higher));
        assert!(!is_gain(&parent, &faster, Better::Lower));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [10.0, 10.2, 9.8, 10.1, 9.9];
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.25),
            Verdict::Unchanged
        );
        let noisy = [5.0, 10.0, 15.0, 10.0, 10.0];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &parent, Better::Lower, 0.1),
            Verdict::Unchanged
        );
    }
}
