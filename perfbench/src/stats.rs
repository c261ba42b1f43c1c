//! Robust summaries: linear-interpolated percentiles, slice medians and
//! the quartile spread used as the per-run noise diagnostic.

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between closest ranks. `None` when `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Interquartile range over the median: the spread of one run's
/// slices. `None` when empty or when the median is zero.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    if mid == 0.0 {
        return None;
    }
    Some((percentile(values, 0.75)? - percentile(values, 0.25)?) / mid)
}

/// The median of each complete run of `window` consecutive values; a
/// trailing partial window is dropped.
pub fn window_medians(values: &[f64], window: usize) -> Vec<f64> {
    values.chunks_exact(window).filter_map(median).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn median_of_odd_count_is_the_middle_value() {
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }

    #[test]
    fn quartile_spread_is_relative_iqr() {
        // Quartiles of 1..=5 are 2 and 4, median 3.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((quartile_spread(&v).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(quartile_spread(&[]), None);
    }

    #[test]
    fn window_medians_cover_complete_windows_only() {
        let v = [3.0, 1.0, 2.0, 10.0, 30.0, 20.0, 99.0];
        assert_eq!(window_medians(&v, 3), vec![2.0, 20.0]);
        assert!(window_medians(&v, 8).is_empty());
    }
}
