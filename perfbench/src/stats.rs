//! Order statistics and ratios used by the benchmark's reports.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it (`p` in `0..=100`; `p = 0`
/// gives the minimum). `None` for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let s = sorted(values);
    if s.is_empty() {
        return None;
    }
    let rank = (u64::from(p.min(100)) * s.len() as u64).div_ceil(100) as usize;
    Some(s[rank.max(1) - 1])
}

/// The highest integer percentile whose nearest-rank value still has at
/// least `beyond` samples above its rank, or `None` when the sample count
/// is too small for any percentile above the minimum to qualify.
///
/// With `n` samples, percentile `p` sits at rank `ceil(p·n/100)`, leaving
/// `n − rank` samples beyond it; the rule asks for `n − rank ≥ beyond`.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n <= beyond {
        return None;
    }
    (1..=100u32)
        .rev()
        .find(|&p| n - (u64::from(p) * n as u64).div_ceil(100) as usize >= beyond)
}

/// `failed ÷ base`, with the base stated by the caller. An empty base has
/// nothing to fail, so the fraction is 0.
pub fn fail_frac(failed: usize, base: usize) -> f64 {
    assert!(failed <= base, "{failed} failures out of a base of {base}");
    if base == 0 {
        0.0
    } else {
        failed as f64 / base as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
