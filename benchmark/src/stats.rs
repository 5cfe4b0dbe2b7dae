//! Order statistics used for every reported number.

/// Exact nearest-rank percentile of an ascending slice (0 when empty):
/// the smallest sample with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so a spread printed here equals the one the driver
/// computes. With fewer than two values all three are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile distance as a share of the median (0 for a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_sorted_reference() {
        let sorted: Vec<u64> = (1..=200).map(|i| i * 10).collect();
        // Reference: count samples <= candidate directly.
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let got = nearest_rank(&sorted, q);
            let need = (q * sorted.len() as f64).ceil() as usize;
            let at_or_below = sorted.iter().filter(|&&s| s <= got).count();
            assert!(at_or_below >= need, "q={q}");
            let prev_at_or_below = sorted.iter().filter(|&&s| s < got).count();
            assert!(
                prev_at_or_below < need,
                "q={q} is not the smallest such sample"
            );
        }
        assert_eq!(nearest_rank(&sorted, 0.99), 1980);
        assert_eq!(nearest_rank(&sorted, 0.5), 1000);
        assert_eq!(nearest_rank(&[], 0.99), 0);
        assert_eq!(nearest_rank(&[7], 0.0), 7);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 1, 4, 7, 3], n=4) == [2.0, 4.0, 8.5]
        assert_eq!(quartiles(&[10.0, 1.0, 4.0, 7.0, 3.0]), (2.0, 4.0, 8.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
