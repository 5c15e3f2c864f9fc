//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a timing is reported at, lowest first.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples strictly beyond it, or `None` below twenty samples. A tail
/// percentile with fewer samples beyond it is one or two outliers.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| {
        // rank of the percentile among n sorted samples (1-based)
        let rank = (p * n as f64 / 100.0).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// One-line summary: median, the tail percentile when one exists, and
/// the sample count.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let n = xs.len();
    match tail_percentile(n) {
        Some(p) => format!(
            "median {:.3} {unit}, p{p} {:.3} {unit}, n={n}",
            median(xs),
            quantile(xs, p / 100.0)
        ),
        None => format!(
            "median {:.3} {unit}, n={n} (no percentile has 10 samples beyond it)",
            median(xs)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // the defining property, over a range of counts
        for n in 0..3000usize {
            if let Some(p) = tail_percentile(n) {
                let rank = (p * n as f64 / 100.0).ceil() as usize;
                assert!(n - rank >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
    }
}
