//! Order statistics for repeat measurements.
//!
//! Every timing the benchmark reports is a median over rounds with the
//! interquartile range beside it (noise rule 6), and `compare` judges
//! two sets of runs by the same quartiles. The quartile method is the
//! one Python's `statistics.quantiles(values, n=4)` uses (exclusive),
//! so a spread computed here equals the one a reader recomputes from
//! the result files.

use std::fmt;

/// An order statistic was asked of an empty sample.
#[derive(Debug, PartialEq, Eq)]
pub struct EmptySample;

impl fmt::Display for EmptySample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("order statistic of an empty sample")
    }
}

fn sorted(values: &[f64]) -> Result<Vec<f64>, EmptySample> {
    if values.is_empty() {
        return Err(EmptySample);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Result<f64, EmptySample> {
    let v = sorted(values)?;
    let mid = v.len() / 2;
    Ok(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank percentile, `p` in `(0, 100]`: the smallest value with
/// at least `p` percent of the sample at or below it. Used for latency
/// percentiles, where the answer should be a latency that occurred.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, EmptySample> {
    let v = sorted(values)?;
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Ok(v[rank.clamp(1, v.len()) - 1])
}

/// Nearest-rank percentile of integer nanosecond samples, sorting in
/// place (the per-round latency vectors are large; no copy).
pub fn percentile_ns(samples: &mut [u64], p: f64) -> Result<u64, EmptySample> {
    if samples.is_empty() {
        return Err(EmptySample);
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Ok(samples[rank.clamp(1, samples.len()) - 1])
}

/// First and third quartile, exclusive method: position `q·(n+1)` in
/// the sorted sample, interpolated between the neighbouring values. A
/// single value is both of its own quartiles.
pub fn quartiles(values: &[f64]) -> Result<(f64, f64), EmptySample> {
    let v = sorted(values)?;
    let n = v.len();
    if n == 1 {
        return Ok((v[0], v[0]));
    }
    let at = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Ok((at(0.25), at(0.75)))
}

/// Interquartile range as a share of the median — the `spread` printed
/// beside every timing. Zero when the median is zero.
pub fn spread(values: &[f64]) -> Result<f64, EmptySample> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    Ok(if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_an_error_not_a_panic() {
        assert_eq!(median(&[]), Err(EmptySample));
        assert_eq!(percentile(&[], 99.0), Err(EmptySample));
        assert_eq!(percentile_ns(&mut [], 50.0), Err(EmptySample));
        assert_eq!(quartiles(&[]), Err(EmptySample));
        assert_eq!(spread(&[]), Err(EmptySample));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[7.0]), Ok(7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 99.0), Ok(99.0));
        assert_eq!(percentile(&v, 100.0), Ok(100.0));
        assert_eq!(percentile(&[5.0, 1.0], 1.0), Ok(1.0));
        let mut ns = [30u64, 10, 20, 40];
        assert_eq!(percentile_ns(&mut ns, 50.0), Ok(20));
        assert_eq!(percentile_ns(&mut ns, 99.0), Ok(40));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Ok((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Ok((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with two
        // values the method extrapolates, and so does this one.
        assert_eq!(quartiles(&[1.0, 2.0]), Ok((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Ok((4.0, 4.0)));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Ok(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), Ok(0.0));
    }
}
