//! `compare base.json cand.json`: one verdict per (metric, workload).
//!
//! Only seeds present in both files are compared, each on its own: the
//! work a workload does varies a little with the seed, so repetitions of
//! different seeds are never pooled. Host-clock repetitions of one seed
//! (over every set with that seed) are judged against the metric's bound,
//! and the per-seed verdicts combine: worse if any seed is worse, else
//! unresolved if any is, else improved only if every seed improved.
//! Deterministic metrics are compared exactly, and any difference on any
//! seed is flagged as a change in the model's output.

use std::fmt::Write as _;

use crate::catalog::{Bound, END_TO_END};
use crate::report::{load_results, LoadedSet};
use crate::stats::{exact_verdict, median, verdict, Verdict};
use crate::workload::Workload;

fn pooled(sets: &[LoadedSet], seed: Option<u64>, workload: &str, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter(|s| seed.is_none_or(|seed| s.seed == seed))
        .filter_map(|s| s.workloads.get(workload)?.get(metric))
        .flatten()
        .copied()
        .collect()
}

/// Combines per-seed verdicts of a host-clock metric.
fn combine(per_seed: &[Verdict]) -> Verdict {
    if per_seed.contains(&Verdict::Worse) {
        Verdict::Worse
    } else if per_seed.contains(&Verdict::Unresolved) {
        Verdict::Unresolved
    } else if per_seed.iter().all(|v| *v == Verdict::Improved) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two results files; returns the report and whether it passes
/// (no worse verdict and no failed run on either side).
pub fn compare(base_text: &str, cand_text: &str) -> Result<(String, bool), String> {
    let base = load_results(base_text).map_err(|e| format!("base: {e}"))?;
    let cand = load_results(cand_text).map_err(|e| format!("candidate: {e}"))?;
    let mut seeds: Vec<u64> = base
        .iter()
        .map(|s| s.seed)
        .filter(|seed| cand.iter().any(|c| c.seed == *seed))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    if seeds.is_empty() {
        return Err("the two files share no seed".into());
    }
    let common = |sets: &[LoadedSet]| -> Vec<LoadedSet> {
        sets.iter()
            .filter(|s| seeds.contains(&s.seed))
            .cloned()
            .collect()
    };
    let (base, cand) = (common(&base), common(&cand));

    let mut out = format!(
        "comparing seeds {seeds:?}\n{:<12} {:<22} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "base", "candidate", "change"
    );
    let mut ok = true;
    for w in Workload::ALL.map(Workload::name) {
        for m in END_TO_END.iter().filter(|m| m.name != "failed_runs") {
            let per_seed: Vec<Verdict> = seeds
                .iter()
                .filter_map(|&seed| {
                    let b = pooled(&base, Some(seed), w, m.name);
                    let c = pooled(&cand, Some(seed), w, m.name);
                    (!b.is_empty() && !c.is_empty()).then(|| match m.bound.share_of(median(&b)) {
                        Some(bound) => verdict(&b, &c, m.better, bound),
                        None => exact_verdict(median(&b), median(&c), m.better),
                    })
                })
                .collect();
            if per_seed.is_empty() {
                continue;
            }
            let (v, flag) = if m.bound == Bound::Exact {
                match per_seed.iter().find(|v| **v != Verdict::Unchanged) {
                    Some(&changed) => (changed, "  (model output changed)"),
                    None => (Verdict::Unchanged, ""),
                }
            } else {
                (combine(&per_seed), "")
            };
            let (b, c) = (
                pooled(&base, None, w, m.name),
                pooled(&cand, None, w, m.name),
            );
            ok &= v != Verdict::Worse;
            let (mb, mc) = (median(&b), median(&c));
            let _ = writeln!(
                out,
                "{w:<12} {:<22} {mb:>14.6} {mc:>14.6} {:>+8.2}%  {}{flag}",
                m.name,
                100.0 * (mc - mb) / mb.abs(),
                v.name(),
            );
        }
        let failed =
            |sets: &[LoadedSet]| -> u64 { sets.iter().filter_map(|s| s.failed_runs.get(w)).sum() };
        let (fb, fc) = (failed(&base), failed(&cand));
        if fb > 0 || fc > 0 {
            ok = false;
            let _ = writeln!(
                out,
                "{w:<12} {:<22} {fb:>14} {fc:>14} {:>9}  failed runs",
                "failed_runs", ""
            );
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-set results file for serve-open with the given wall times
    /// and mean read latency.
    fn results(seed: u64, walls: &[f64], read_mean: f64, failed: u32) -> String {
        let walls: Vec<String> = walls.iter().map(f64::to_string).collect();
        format!(
            "{{\"sets\":[{{\"seed\":{seed},\"workloads\":{{\"serve-open\":{{\"failed_runs\":{failed},\
             \"metrics\":{{\"wall_s\":{{\"values\":[{}]}},\
             \"sim_read_mean_cy\":{{\"values\":[{read_mean},{read_mean}]}}}}}}}}}}]}}",
            walls.join(",")
        )
    }

    #[test]
    fn verdicts_per_metric_and_exit_status() {
        let base = results(7, &[1.00, 1.01, 0.99, 1.00, 1.02], 74.8, 0);
        let same = results(7, &[1.01, 1.00, 0.99, 1.02, 1.00], 74.8, 0);
        let (text, ok) = compare(&base, &same).unwrap();
        assert!(ok, "{text}");
        assert!(
            text.contains("wall_s") && text.contains("unchanged"),
            "{text}"
        );

        let slower = results(7, &[1.30, 1.31, 1.29, 1.30, 1.32], 74.8, 0);
        let (text, ok) = compare(&base, &slower).unwrap();
        assert!(!ok && text.contains("worse"), "{text}");

        let remodelled = results(7, &[1.00, 1.01, 0.99, 1.00, 1.02], 70.0, 0);
        let (text, ok) = compare(&base, &remodelled).unwrap();
        assert!(ok, "a lower read latency is an improvement: {text}");
        assert!(text.contains("model output changed"), "{text}");

        let failing = results(7, &[1.00, 1.01, 0.99, 1.00, 1.02], 74.8, 1);
        let (text, ok) = compare(&base, &failing).unwrap();
        assert!(!ok && text.contains("failed runs"), "{text}");

        assert!(compare(&base, &results(11, &[1.0], 74.8, 0)).is_err());
    }

    #[test]
    fn setup_time_has_a_five_millisecond_floor() {
        let results = |setup: f64| {
            format!(
                "{{\"sets\":[{{\"seed\":7,\"workloads\":{{\"serve-open\":{{\"failed_runs\":0,\
                 \"metrics\":{{\"setup_s\":{{\"values\":[{setup},{setup}]}}}}}}}}}}]}}"
            )
        };
        // Doubling a 20 µs set-up stays inside the 5 ms floor…
        let (text, ok) = compare(&results(20e-6), &results(40e-6)).unwrap();
        assert!(ok && text.contains("unchanged"), "{text}");
        // …while 30 ms on top of 40 ms is past both it and the 25% share.
        let (text, ok) = compare(&results(0.040), &results(0.070)).unwrap();
        assert!(!ok && text.contains("worse"), "{text}");
    }

    #[test]
    fn per_seed_verdicts_combine_worst_first() {
        use Verdict::*;
        assert_eq!(combine(&[Unchanged, Worse, Improved]), Worse);
        assert_eq!(combine(&[Unchanged, Unresolved]), Unresolved);
        assert_eq!(combine(&[Improved, Improved]), Improved);
        assert_eq!(combine(&[Improved, Unchanged]), Unchanged);
    }
}
