//! Order statistics over samples.

/// Quantile `q` in `[0, 1]` by linear interpolation between closest
/// ranks. Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of the last decile divided by the median of the first, in
/// run order: 1.0 means per-request cost does not grow with history.
pub fn flatness(in_run_order: &[f64]) -> f64 {
    let decile = (in_run_order.len() / 10).max(1);
    let first = median(&in_run_order[..decile.min(in_run_order.len())]);
    let last = median(&in_run_order[in_run_order.len().saturating_sub(decile)..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
    }

    #[test]
    fn flatness_compares_last_decile_to_first() {
        let flat = vec![2.0; 100];
        assert_eq!(flatness(&flat), 1.0);
        let growing: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(flatness(&growing) > 10.0);
    }
}
