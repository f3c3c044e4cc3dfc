//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice: a metric with no sample is a benchmark bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// [`median`], or NaN (printed as `null`) when every operation failed
/// and there is no sample.
pub fn median_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        median(xs)
    }
}

/// The nearest-rank `q`-quantile of `xs` (0 < q < 1), reported only when
/// at least ten samples lie beyond it — with fewer, the "tail" would be
/// a handful of outliers, not a percentile.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Largest sample.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: the benchmark's only source of pseudo-randomness, so a
/// seed names the same inputs on every host.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90, with 91..=100 — ten samples — beyond it.
        assert_eq!(tail(&hundred, 0.9), Some(90.0));
        // One sample fewer leaves only nine beyond the 90th percentile.
        assert_eq!(tail(&hundred[..99], 0.9), None);
        assert_eq!(tail(&hundred[..20], 0.5), Some(10.0));
        assert_eq!(tail(&hundred[..19], 0.5), None);
        assert_eq!(tail(&[], 0.9), None);
    }

    #[test]
    fn splitmix_is_a_pure_function_of_its_state() {
        let (mut a, mut b) = (7u64, 7u64);
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut 8u64));
    }
}
