//! Order statistics over latency samples.

/// Linear-interpolated quantile of `sorted` at `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `v` in place and returns its median (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// The tail statistic: the latency at a percentile, with the sample
/// counts that say how many jobs lie beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The percentile.
    pub percentile: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Samples in total.
    pub samples: usize,
    /// Samples beyond the percentile.
    pub beyond: usize,
}

/// [`Tail`] of `samples` (any order) at a percentile in tenths of a
/// percent (an integer, so that "samples beyond" has no rounding
/// error). A workload fixes its percentile, so that a run that
/// completes a few jobs more or fewer does not switch to another one.
pub fn tail(samples: &[f64], permille: usize) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Tail {
        percentile: permille as f64 / 10.0,
        value: quantile(&sorted, permille as f64 / 1000.0),
        samples: n,
        beyond: n * (1000 - permille) / 1000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_counts_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v, 900);
        assert_eq!(t.percentile, 90.0);
        assert!((t.value - 89.1).abs() < 1e-9);
        assert_eq!(t.beyond, 10);
        assert_eq!(tail(&v[..30], 750).beyond, 7);
    }
}
