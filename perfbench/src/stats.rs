//! Order statistics over run samples.

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` in (0, 1]: the `ceil(p·n)`-th smallest
/// sample, so p90 of 100 samples leaves ten above it; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    let k = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[k - 1]
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }
}
