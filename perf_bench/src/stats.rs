//! Order statistics for timing samples: median, quartiles and p90, never
//! mean or min.

/// Summary of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// The highest percentile reported. With ≥ 60 samples it has ≥ 6
    /// beyond it; a p99 would have none, so none is printed.
    pub p90: f64,
}

/// Linear-interpolated quantile of an ascending slice (the "inclusive"
/// method: `q = 0` is the minimum, `q = 1` the maximum).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarise `samples`; `None` when there are none or one is not finite.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: quantile_sorted(&s, 0.5),
        q3: quantile_sorted(&s, 0.75),
        p90: quantile_sorted(&s, 0.9),
    })
}

/// Median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_and_p90_of_a_ramp() {
        // 0..=100: every quantile is its own percentage.
        let ramp: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let s = summarize(&ramp).unwrap();
        assert_eq!(s.n, 101);
        assert_eq!((s.q1, s.median, s.q3, s.p90), (25.0, 50.0, 75.0, 90.0));
    }

    #[test]
    fn interpolates_between_neighbours() {
        let s = summarize(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(s.q1, 17.5);
        assert_eq!(s.q3, 32.5);
        assert!((s.p90 - 37.0).abs() < 1e-12);
    }

    #[test]
    fn an_outlier_moves_neither_median_nor_quartiles() {
        let mut v: Vec<f64> = (1..=61).map(f64::from).collect();
        let calm = summarize(&v).unwrap();
        v[60] = 1e9;
        let spiked = summarize(&v).unwrap();
        assert_eq!(calm.median, spiked.median);
        assert_eq!(calm.q1, spiked.q1);
        assert_eq!(calm.q3, spiked.q3);
    }

    #[test]
    fn non_finite_samples_are_refused() {
        assert!(summarize(&[1.0, f64::NAN]).is_none());
        assert!(summarize(&[1.0, f64::INFINITY]).is_none());
    }
}
