//! Quantiles with all their digits.

use planet_sim::metrics::Histogram;

/// Linearly interpolated quantile of `values` (sorted in place).
pub fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    values[lo] as f64 * (1.0 - frac) + values[hi] as f64 * frac
}

/// Quantile of a [`Histogram`], interpolated inside the bucket that holds
/// it so the result is not stuck on a bucket boundary.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let Some(lo) = h.quantile(q) else {
        return 0.0;
    };
    let sub = Histogram::SUB_BUCKETS as u64;
    let width = if lo < 2 * sub {
        1
    } else {
        1u64 << (63 - lo.leading_zeros() - sub.trailing_zeros())
    };
    let below = if lo == 0 { 0.0 } else { h.cdf_at(lo - 1) };
    let upto = h.cdf_at(lo);
    let frac = if upto > below {
        ((q - below) / (upto - below)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let max = h.max().unwrap_or(lo) as f64;
    (lo as f64 + frac * width as f64).min(max)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantiles() {
        let mut v = vec![4, 1, 3, 2];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        let mut h = Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h, 0.5);
        assert!((p50 - 1500.0).abs() < 40.0, "p50 {p50}");
    }
}
