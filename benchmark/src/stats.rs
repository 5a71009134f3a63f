//! Estimators. Interference on a shared host only ever adds time, so the
//! reported value of a timing is its **best** round; the across-round
//! median and p90 ride along as information and are never gated.

/// Linear-interpolation quantile of an ascending slice, `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Which end of a sample is its best.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Best / median / p90-toward-worse of one metric's per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub best: f64,
    pub median: f64,
    /// The value nine rounds in ten are at least as good as.
    pub p90: f64,
    pub samples: usize,
}

pub fn summarize(values: &[f64], better: Better) -> Summary {
    let s = sorted(values);
    let (best, p90) = match better {
        Better::Lower => (s[0], quantile(&s, 0.9)),
        Better::Higher => (s[s.len() - 1], quantile(&s, 0.1)),
    };
    Summary {
        best,
        median: quantile(&s, 0.5),
        p90,
        samples: s.len(),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the acceptance rule is stated in
/// those terms, so `noise` computes the same numbers. Needs ≥ 2 values.
pub fn py_quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = py_quartiles(values);
    (q3 - q1) / q2
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_round_follows_the_direction() {
        let times = [5.0, 3.0, 9.0, 4.0, 3.5, 20.0, 3.2, 3.1, 3.3, 3.4];
        let t = summarize(&times, Better::Lower);
        assert_eq!(t.best, 3.0);
        assert_eq!(t.samples, 10);
        assert!(t.p90 > t.median && t.median > t.best);
        let rates = [100.0, 90.0, 80.0, 99.0, 20.0];
        let r = summarize(&rates, Better::Higher);
        assert_eq!(r.best, 100.0);
        assert_eq!(r.median, 90.0);
        assert!(r.p90 < r.median);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(py_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(py_quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }
}
