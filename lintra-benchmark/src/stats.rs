//! Order statistics used by every report: medians, quartiles, the tail
//! percentile rule, and the geometric mean.

/// Sorted copy of `xs` (total order, so NaN cannot scramble the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even lengths); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the acceptance check.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median (0 when the median is
/// 0 or there are too few values to tell).
pub fn relative_spread(xs: &[f64]) -> f64 {
    match (quartiles(xs), median(xs)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Nearest rank (1-based) of the percentile `per_mille`/10 among `n`
/// samples; integer arithmetic, so p99 of 1000 samples is exactly rank
/// 990.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `xs`, given in tenths of a percent
/// (`990` is p99).
pub fn percentile(xs: &[f64], per_mille: usize) -> Option<f64> {
    let v = sorted(xs);
    (!v.is_empty()).then(|| v[rank(per_mille, v.len()) - 1])
}

/// The percentiles a tail is reported at, highest first, in tenths of a
/// percent.
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that still has at least ten samples beyond its
/// nearest rank, as `(percentile, value)`. `None` when even p75 has
/// fewer than ten beyond (fewer than 40 samples) — such a sample has no
/// resolvable tail.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.into_iter().find_map(|per_mille| {
        let r = rank(per_mille, n);
        (n >= r + 10).then(|| (per_mille as f64 / 10.0, v[r - 1]))
    })
}

/// Geometric mean of positive values; `None` when empty or when any
/// value is not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[7.0; 10]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail(&sample(1000)), Some((99.0, 990.0)));
        // 999 leave only 9 beyond p99, so the tail drops to p95.
        assert_eq!(tail(&sample(999)).map(|t| t.0), Some(95.0));
        // 400 samples: p95 has 20 beyond, p99 only 4.
        assert_eq!(tail(&sample(400)), Some((95.0, 380.0)));
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&sample(10_000)).map(|t| t.0), Some(99.9));
        // 39 samples leave 9 beyond p75: no resolvable tail.
        assert_eq!(tail(&sample(39)), None);
        assert_eq!(tail(&sample(40)), Some((75.0, 30.0)));
    }

    #[test]
    fn geomean_of_powers_and_invalid_inputs() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }
}
