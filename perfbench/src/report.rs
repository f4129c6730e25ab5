//! Aggregating repetitions into per-workload results, printing them, and
//! the results file `all` writes and `compare` reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use fgnvm_obs::json::{number, quote};
use fgnvm_sim::profile::json;

use crate::catalog::{Bound, EndToEnd, END_TO_END, PER_LAYER};
use crate::rep::Rep;
use crate::stats::{max, median, min, Better};
use crate::workload::Workload;

/// The paper's geometric-mean FgNVM 8×2 speedup (Fig. 4).
const PAPER_SPEEDUP: f64 = 1.57;

/// All repetitions of one workload in one set.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Untraced repetitions (end-to-end metrics).
    pub untraced: Vec<Rep>,
    /// Traced repetitions (per-layer metrics).
    pub traced: Vec<Rep>,
}

impl WorkloadResult {
    /// Wraps finished repetitions and runs the set-level gate: every
    /// deterministic metric must read the same in every untraced
    /// repetition; a repetition that disagrees with the first fails.
    pub fn new(workload: Workload, mut untraced: Vec<Rep>, traced: Vec<Rep>) -> WorkloadResult {
        let exact: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.bound == Bound::Exact && m.applies(workload))
            .map(|m| m.name)
            .collect();
        let first = untraced.iter().find(|r| r.error.is_none()).cloned();
        if let Some(first) = first {
            for rep in untraced.iter_mut().filter(|r| r.error.is_none()) {
                let differing: Vec<&str> = exact
                    .iter()
                    .copied()
                    .filter(|name| rep.metrics.get(*name) != first.metrics.get(*name))
                    .collect();
                rep.gate(
                    "sim-identical-across-reps",
                    differing.is_empty(),
                    format!("differs from the first repetition in {differing:?}"),
                );
            }
        }
        WorkloadResult {
            workload,
            untraced,
            traced,
        }
    }

    /// Repetitions run, traced or not.
    pub fn runs(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Repetitions that errored or failed a gate.
    pub fn failed_runs(&self) -> usize {
        self.untraced
            .iter()
            .chain(&self.traced)
            .filter(|r| r.failed())
            .count()
    }

    /// Values of `name` over the passing repetitions of one pass.
    pub fn values(&self, name: &str, traced: bool) -> Vec<f64> {
        let reps = if traced { &self.traced } else { &self.untraced };
        reps.iter()
            .filter(|r| !r.failed())
            .filter_map(|r| r.metrics.get(name).copied())
            .collect()
    }

    /// Every failing gate and error, one line each.
    pub fn failures(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (pass, reps) in [("untraced", &self.untraced), ("traced", &self.traced)] {
            for (i, rep) in reps.iter().enumerate() {
                if let Some(e) = &rep.error {
                    lines.push(format!("{pass} rep {}: error: {e}", i + 1));
                }
                for g in rep.gates.iter().filter(|g| !g.ok) {
                    lines.push(format!(
                        "{pass} rep {}: {} FAILED: {}",
                        i + 1,
                        g.name,
                        g.detail
                    ));
                }
            }
        }
        lines
    }

    /// Names of the gates that ran, in first-seen order.
    fn gate_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for g in self
            .untraced
            .iter()
            .chain(&self.traced)
            .flat_map(|r| &r.gates)
        {
            if !names.contains(&g.name.as_str()) {
                names.push(&g.name);
            }
        }
        names
    }

    /// One end-to-end metric as a table row: name, median, unit, clock,
    /// then [min, max] and n.
    fn e2e_line(&self, m: &EndToEnd) -> String {
        if m.name == "failed_runs" {
            return format!(
                "{:<24} {:>14} {:<10} {:<4} {}/{} runs",
                m.name,
                number(self.failed_runs() as f64 / self.runs() as f64),
                m.unit,
                "-",
                self.failed_runs(),
                self.runs()
            );
        }
        let v = self.values(m.name, false);
        if v.is_empty() {
            return format!("{:<24} {:>14} {:<10}", m.name, "n/a", m.unit);
        }
        let note = match m.name {
            "sim_ipc_gmean_speedup" => format!("  paper: {PAPER_SPEEDUP}x"),
            "sim_read_p99_cy" => format!(
                "  log2-bucket bound over {} reads",
                self.values("sim_reads", false)
                    .first()
                    .copied()
                    .unwrap_or(0.0)
            ),
            _ => String::new(),
        };
        format!(
            "{:<24} {:>14} {:<10} {:<4} [{}, {}] n={}{note}",
            m.name,
            fmt(median(&v)),
            m.unit,
            m.clock.name(),
            fmt(min(&v)),
            fmt(max(&v)),
            v.len(),
        )
    }

    /// Human-readable block: every metric with its unit and clock.
    pub fn render(&self) -> String {
        let w = self.workload;
        let mut s = format!("{}\n", w.name());
        let e2e = END_TO_END.iter().filter(|m| m.applies(w));
        if !self.untraced.is_empty() {
            let _ = writeln!(
                s,
                "  end to end (untraced, median [min, max] over n passing reps)"
            );
            for m in e2e {
                let _ = writeln!(s, "    {}", self.e2e_line(m));
            }
        }
        if !self.traced.is_empty() {
            let _ = writeln!(s, "  per layer (traced, host clock unless a count)");
            for m in PER_LAYER {
                let v = self.values(m.name, true);
                let shown = if v.is_empty() {
                    "n/a".to_string()
                } else {
                    fmt(median(&v))
                };
                let _ = writeln!(
                    s,
                    "    {:<24} {:>14} {:<10} n={}",
                    m.name,
                    shown,
                    m.unit,
                    v.len()
                );
            }
        }
        let _ = writeln!(s, "  gates: {}", self.gate_names().join(", "));
        for line in self.failures() {
            let _ = writeln!(s, "    {line}");
        }
        s
    }

    /// JSON object for the results file.
    fn to_json(&self) -> String {
        let summarize = |names: Vec<(&str, &str, &str, Better)>, traced: bool| {
            let fields: Vec<String> = names
                .into_iter()
                .filter_map(|(name, unit, clock, better)| {
                    let v = self.values(name, traced);
                    (!v.is_empty()).then(|| {
                        let values: Vec<String> = v.iter().map(|x| number(*x)).collect();
                        format!(
                            "{}:{{\"unit\":{},\"clock\":{},\"better\":{},\"median\":{},\"min\":{},\"max\":{},\"n\":{},\"values\":[{}]}}",
                            quote(name),
                            quote(unit),
                            quote(clock),
                            quote(better.name()),
                            number(median(&v)),
                            number(min(&v)),
                            number(max(&v)),
                            v.len(),
                            values.join(",")
                        )
                    })
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let w = self.workload;
        let mut e2e: Vec<(&str, &str, &str, Better)> = END_TO_END
            .iter()
            .filter(|m| m.applies(w) && m.name != "failed_runs")
            .map(|m| (m.name, m.unit, m.clock.name(), m.better))
            .collect();
        if w != Workload::Fig4Grid {
            e2e.push(("sim_reads", "count", "sim", Better::Higher));
        }
        let layers = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, "host", m.better))
            .collect();
        let failures: Vec<String> = self.failures().iter().map(|f| quote(f)).collect();
        format!(
            "{{\"runs\":{},\"failed_runs\":{},\"metrics\":{},\"per_layer\":{},\"gates\":[{}],\"failures\":[{}]}}",
            self.runs(),
            self.failed_runs(),
            summarize(e2e, false),
            summarize(layers, true),
            self.gate_names().iter().map(|g| quote(g)).collect::<Vec<_>>().join(","),
            failures.join(",")
        )
    }
}

/// Number formatting for tables: enough digits to see a change.
fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

/// One complete pass over every workload with one seed.
#[derive(Debug, Clone)]
pub struct Set {
    /// Workload seed.
    pub seed: u64,
    /// Results in workload order.
    pub results: Vec<WorkloadResult>,
}

/// The machine the sets ran on.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"loadavg\":{}}}",
        quote(&model),
        quote(load.trim())
    )
}

/// The results file: provenance, host, and every set.
pub fn results_json(sets: &[Set], size: &str) -> String {
    let sets: Vec<String> = sets
        .iter()
        .map(|set| {
            let workloads: Vec<String> = set
                .results
                .iter()
                .map(|r| format!("{}:{}", quote(r.workload.name()), r.to_json()))
                .collect();
            format!(
                "{{\"seed\":{},\"workloads\":{{{}}}}}",
                set.seed,
                workloads.join(",")
            )
        })
        .collect();
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"schema\":1,\"git_sha\":{},\"created_unix\":{unix},\"size\":{},\"host\":{},\"sets\":[{}]}}\n",
        quote(&fgnvm_sim::profile::git_sha()),
        quote(size),
        host_json(),
        sets.join(",")
    )
}

/// A set read back from a results file.
#[derive(Debug, Clone)]
pub struct LoadedSet {
    /// Workload seed.
    pub seed: u64,
    /// Workload name → end-to-end metric name → repetition values.
    pub workloads: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// Workload name → failed repetitions.
    pub failed_runs: BTreeMap<String, u64>,
}

/// Reads the sets of a results file.
pub fn load_results(text: &str) -> Result<Vec<LoadedSet>, String> {
    let doc = json::parse(text)?;
    let sets = match doc.as_object().and_then(|o| o.get("sets")) {
        Some(json::Value::Array(sets)) => sets,
        _ => return Err("results file has no `sets` array".into()),
    };
    let mut out = Vec::new();
    for set in sets {
        let set = set.as_object().ok_or("a set is not an object")?;
        let seed = set
            .get("seed")
            .and_then(json::Value::as_f64)
            .ok_or("a set has no seed")? as u64;
        let mut workloads = BTreeMap::new();
        let mut failed_runs = BTreeMap::new();
        let ws = set
            .get("workloads")
            .and_then(json::Value::as_object)
            .ok_or("a set has no workloads")?;
        for (name, w) in ws {
            let w = w.as_object().ok_or("a workload is not an object")?;
            let failed = w
                .get("failed_runs")
                .and_then(json::Value::as_f64)
                .unwrap_or(0.0);
            failed_runs.insert(name.clone(), failed as u64);
            let mut metrics = BTreeMap::new();
            if let Some(ms) = w.get("metrics").and_then(json::Value::as_object) {
                for (metric, m) in ms {
                    if let Some(json::Value::Array(values)) =
                        m.as_object().and_then(|m| m.get("values"))
                    {
                        let v = values.iter().filter_map(json::Value::as_f64).collect();
                        metrics.insert(metric.clone(), v);
                    }
                }
            }
            workloads.insert(name.clone(), metrics);
        }
        out.push(LoadedSet {
            seed,
            workloads,
            failed_runs,
        });
    }
    Ok(out)
}
