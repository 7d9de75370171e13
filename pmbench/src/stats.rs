//! Order statistics, computed the way Python's `statistics` module does,
//! so numbers printed here match an independent check in Python.

/// Sorts a copy of `values` (NaN-free input assumed).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `statistics.median`: the middle value, or the mean of the middle two.
///
/// # Panics
///
/// On an empty sample — callers always measure at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `statistics.quantiles(values, n=n)[i - 1]` with the default
/// `exclusive` method: the `i`-th of the `n - 1` cut points.
///
/// # Panics
///
/// On an empty sample or `i` outside `1..n`.
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((1..n).contains(&i), "cut point {i} outside 1..{n}");
    let v = sorted(values);
    if v.len() == 1 {
        return v[0];
    }
    let m = v.len() + 1;
    let j = (i * m / n).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// Distance between the first and third quartiles as a share of the
/// median — the run-to-run spread the bounds are checked against.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (quantile(values, 3, 4) - quantile(values, 1, 4)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 1, 4) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 2, 4) - 5.5).abs() < 1e-12);
        assert!((quantile(&v, 3, 4) - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past a small sample's ends.
        assert_eq!(quantile(&[1.0, 2.0], 1, 4), 0.75);
        assert_eq!(quantile(&[1.0, 2.0], 3, 4), 2.25);
        // statistics.quantiles([1, 2, 3], n=10)[8] == 3.6
        assert!((quantile(&[1.0, 2.0, 3.0], 9, 10) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
