//! Order statistics over repeated measurements.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert!(median(&[]).is_nan());
    }
}
