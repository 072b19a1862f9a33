//! Order statistics shared by the run summary and the steadiness report.

/// The `p`-quantile of `values` by the "exclusive" rule that Python's
/// `statistics.quantiles` uses by default: position `p·(n+1)` in the
/// sorted sample, interpolated linearly, with the index clamped to the
/// sample (so it extrapolates from the two end points past them).
/// `None` for an empty sample; a single value is its own quantile.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some(v[0]),
        _ => {
            let h = p * (n as f64 + 1.0);
            // 1-based lower index, clamped to 1 ..= n-1 as Python does.
            let j = (h.floor() as usize).clamp(1, n - 1);
            let frac = h - j as f64;
            Some(v[j - 1] + frac * (v[j] - v[j - 1]))
        }
    }
}

/// The median (the 0.5 quantile, which needs no interpolation rule).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Interquartile distance as a share of the median — the spread the
/// steadiness gate compares against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q1 = quantile(values, 0.25)?;
    let q3 = quantile(values, 0.75)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quantile(&v, 0.25).unwrap(), 2.75));
        assert!(close(quantile(&v, 0.5).unwrap(), 5.5));
        assert!(close(quantile(&v, 0.75).unwrap(), 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let v = [3.0, 1.0, 2.0];
        assert!(close(quantile(&v, 0.25).unwrap(), 1.0));
        assert!(close(quantile(&v, 0.75).unwrap(), 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]:
        // past the sample the rule extrapolates.
        let v = [5.0, 1.0];
        assert!(close(quantile(&v, 0.25).unwrap(), 0.0));
        assert!(close(quantile(&v, 0.75).unwrap(), 6.0));
    }

    #[test]
    fn p90_of_a_hundred_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&v, 0.9).unwrap();
        assert!(close(p90, 90.9));
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.9), Some(4.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert!(close(spread(&[10.0, 10.0, 10.0, 10.0]).unwrap(), 0.0));
    }
}
