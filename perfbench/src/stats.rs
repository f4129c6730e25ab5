//! Order statistics over repetitions, and the verdict rule `compare` uses.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, latencies).
    Lower,
    /// Larger values are better (rates, speedups).
    Higher,
}

impl Better {
    /// The name used in `BENCHMARK.json` and the results file.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// Python's. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp lifted `j`: the quartile extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Outcome of comparing one metric on one workload across two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is better by more than the bound.
    Improved,
    /// The candidate's median is worse by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// The repetitions spread wider than the bound, and not every
    /// candidate repetition beats every base repetition.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for printing.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share by which `cand` is worse than `base` (negative when better).
pub fn worse_by(base: f64, cand: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => cand - base,
        Better::Higher => base - cand,
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// Verdict for a host-clock metric: repetitions of the base and of the
/// candidate, the direction, and the bound as a share of the base median.
///
/// # Panics
///
/// Panics if either side has no repetitions.
pub fn verdict(base: &[f64], cand: &[f64], better: Better, bound: f64) -> Verdict {
    let all_better = match better {
        Better::Lower => max(cand) < min(base),
        Better::Higher => min(cand) > max(base),
    };
    if spread(base).max(spread(cand)) > bound && !all_better {
        return Verdict::Unresolved;
    }
    let w = worse_by(median(base), median(cand), better);
    if w > bound {
        Verdict::Worse
    } else if -w > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Verdict for a deterministic (simulated-clock) metric: any difference
/// at all is a change in the model's output.
pub fn exact_verdict(base: f64, cand: f64, better: Better) -> Verdict {
    let w = worse_by(base, cand, better);
    if w > 0.0 {
        Verdict::Worse
    } else if w < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(min(&[3.0, -1.0, 2.0]), -1.0);
        assert_eq!(max(&[3.0, -1.0, 2.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((spread(&[5.0, 3.0, 1.0, 4.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tight_reps_give_clear_verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.82];
        let same = [1.01, 1.00, 0.99, 1.02, 1.00];
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &same, Better::Lower, 0.10),
            Verdict::Unchanged
        );
        // The same numbers read as rates flip direction.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_rep_wins() {
        let noisy_base = [1.0, 1.4, 0.8, 1.2, 0.7];
        let overlapping = [1.1, 1.5, 0.9, 1.3, 0.75];
        assert_eq!(
            verdict(&noisy_base, &overlapping, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every candidate rep beats every base rep: the spread no longer
        // hides the change.
        let dominating = [0.30, 0.35, 0.40, 0.32, 0.38];
        assert_eq!(
            verdict(&noisy_base, &dominating, Better::Lower, 0.10),
            Verdict::Improved
        );
        // A dominating but tiny change reads as unchanged, not unresolved.
        let base = [1.0, 1.3, 1.0, 1.3, 1.0];
        let barely = [0.95, 0.96, 0.97, 0.95, 0.96];
        assert_eq!(
            verdict(&base, &barely, Better::Lower, 0.30),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_metrics_flag_any_change() {
        assert_eq!(
            exact_verdict(255.0, 255.0, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(exact_verdict(255.0, 511.0, Better::Lower), Verdict::Worse);
        assert_eq!(exact_verdict(1.12, 1.13, Better::Higher), Verdict::Improved);
        assert_eq!(exact_verdict(0.0, 0.0, Better::Lower), Verdict::Unchanged);
        assert_eq!(exact_verdict(0.0, 0.1, Better::Lower), Verdict::Worse);
    }
}
