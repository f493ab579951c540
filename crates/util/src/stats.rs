//! Summary statistics with the paper's sampling protocol.
//!
//! Every timing figure in the paper reports five metrics over repeated
//! discovery runs: **mean, standard deviation, maximum, minimum and
//! error** (standard error of the mean), computed after *"the discovery
//! process was carried out 120 times and the first 100 results were
//! selected after removing outliers"* (§9). [`Summary`] computes the five
//! metrics and [`trim_outliers`] + [`paper_protocol`] reproduce the
//! selection step.

use std::fmt;

/// Five-number summary matching the metric tables of Figures 3–7 and 12–14.
///
/// ```
/// use nb_util::stats::{paper_protocol, Summary};
///
/// let runs: Vec<f64> = (0..120).map(|i| 450.0 + (i % 7) as f64).collect();
/// let kept = paper_protocol(&runs, 100); // 3σ trim, first 100 kept
/// let s = Summary::of(&kept).unwrap();
/// assert_eq!(s.n, 100);
/// assert!(s.min >= 450.0 && s.max <= 457.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples summarised.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std_dev: f64,
    /// Largest sample.
    pub max: f64,
    /// Smallest sample.
    pub min: f64,
    /// Standard error of the mean (`std_dev / sqrt(n)`).
    pub error: f64,
}

impl Summary {
    /// Summarises `samples`. Returns `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std_dev = var.sqrt();
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        for &x in samples {
            if x > max {
                max = x;
            }
            if x < min {
                min = x;
            }
        }
        Some(Summary {
            n,
            mean,
            std_dev,
            max,
            min,
            error: std_dev / (n as f64).sqrt(),
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.3} sd={:.3} max={:.3} min={:.3} err={:.3} (n={})",
            self.mean, self.std_dev, self.max, self.min, self.error, self.n
        )
    }
}

/// Removes outliers further than `k_sigma` sample standard deviations from
/// the mean, preserving the original order of the survivors.
///
/// With fewer than 3 samples, or zero variance, the input is returned
/// unchanged (there is no meaningful notion of an outlier).
pub fn trim_outliers(samples: &[f64], k_sigma: f64) -> Vec<f64> {
    inliers(samples, k_sigma).map(|i| samples[i]).collect()
}

/// The indices [`trim_outliers`] keeps, in order: the one trim rule.
fn inliers(samples: &[f64], k_sigma: f64) -> impl Iterator<Item = usize> + '_ {
    let (mean, sd) = Summary::of(samples).map_or((0.0, 0.0), |s| (s.mean, s.std_dev));
    let keep_all = samples.len() < 3 || sd == 0.0;
    let keep = move |x: f64| keep_all || (x - mean).abs() <= k_sigma * sd;
    samples.iter().enumerate().filter(move |&(_, &x)| keep(x)).map(|(i, _)| i)
}

/// The paper's sampling protocol: run the experiment `samples.len()`
/// times (the paper used 120), remove outliers (we use 3σ), then keep the
/// first `keep` survivors (the paper kept 100).
///
/// If fewer than `keep` samples survive, all survivors are returned.
pub fn paper_protocol(samples: &[f64], keep: usize) -> Vec<f64> {
    paper_protocol_indices(samples, keep).into_iter().map(|i| samples[i]).collect()
}

/// The indices of the samples [`paper_protocol`] keeps, in order, for a
/// caller that summarises something other than the samples themselves.
pub fn paper_protocol_indices(samples: &[f64], keep: usize) -> Vec<usize> {
    inliers(samples, 3.0).take(keep).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // sample variance = 32/7
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.min, 2.0);
        assert!((s.error - s.std_dev / 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_of_single_sample_has_zero_spread() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.error, 0.0);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.min, 3.5);
    }

    #[test]
    fn trim_removes_far_outlier() {
        let mut xs: Vec<f64> = (0..100).map(|i| 100.0 + (i % 5) as f64).collect();
        xs.push(100_000.0);
        let trimmed = trim_outliers(&xs, 3.0);
        assert_eq!(trimmed.len(), 100);
        assert!(trimmed.iter().all(|&x| x < 1000.0));
    }

    #[test]
    fn trim_keeps_everything_when_tight() {
        let xs = [5.0, 5.1, 4.9, 5.0];
        assert_eq!(trim_outliers(&xs, 3.0), xs.to_vec());
    }

    #[test]
    fn trim_handles_zero_variance() {
        let xs = [7.0; 10];
        assert_eq!(trim_outliers(&xs, 3.0).len(), 10);
    }

    #[test]
    fn paper_protocol_keeps_first_k_in_order() {
        let xs: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let kept = paper_protocol(&xs, 100);
        assert_eq!(kept.len(), 100);
        assert_eq!(kept[0], 0.0);
        assert_eq!(kept[99], 99.0);
    }

    #[test]
    fn paper_protocol_with_too_few_survivors() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(paper_protocol(&xs, 100).len(), 3);
    }
}
