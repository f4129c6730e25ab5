//! Every metric the benchmark reports: name, unit, clock, direction and
//! bound. `BENCHMARK.json` lists the end-to-end metrics that have a
//! `driver_bound` and every per-layer metric; a unit test holds the two in
//! step.

use crate::stats::Better;
use crate::workload::Workload;

/// Whose time a metric counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time: what the simulator costs to run. Noisy.
    Host,
    /// Simulated time or other model output: deterministic per seed.
    Sim,
}

impl Clock {
    /// Name for printing.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// How much a metric may worsen before `compare` calls it worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Rel(f64),
    /// A share of the base median or an amount in the metric's unit,
    /// whichever is larger.
    RelOrAbs(f64, f64),
    /// Deterministic: any change is a change in the model's output.
    Exact,
}

impl Bound {
    /// The bound as a share of the base median `base`; `None` for an
    /// exact metric.
    pub fn share_of(self, base: f64) -> Option<f64> {
        match self {
            Bound::Rel(share) => Some(share),
            Bound::RelOrAbs(share, amount) => Some(share.max(amount / base.abs())),
            Bound::Exact => None,
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Host or simulated clock.
    pub clock: Clock,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound for `compare`.
    pub bound: Bound,
    /// Workloads it applies to; empty means all.
    pub only: &'static [Workload],
}

impl EndToEnd {
    /// Whether the metric is reported on `w`.
    pub fn applies(&self, w: Workload) -> bool {
        self.only.is_empty() || self.only.contains(&w)
    }

    /// Its bound in `BENCHMARK.json`, for metrics with a relative bound
    /// that apply to every workload. Tools that read it compare runs over
    /// different seeds, so deterministic metrics, which vary by seed, are
    /// left out.
    pub fn driver_bound(&self) -> Option<f64> {
        match self.bound {
            Bound::Rel(b) | Bound::RelOrAbs(b, _) if self.only.is_empty() => Some(b),
            Bound::Rel(_) | Bound::RelOrAbs(..) | Bound::Exact => None,
        }
    }
}

use Workload::{Fig4Grid, ServeCkpt, ServeOpen, TenantsQos};

const SERVE: &[Workload] = &[ServeOpen, ServeCkpt, TenantsQos];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: Bound,
    only: &'static [Workload],
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock,
        better,
        bound,
        only,
    }
}

/// The end-to-end metrics, measured with tracing off. `failed_runs` is
/// computed by the parent from the repetitions, not by a repetition.
///
/// Host-clock bounds allow 15%: on a shared 2-vCPU host, sets of the same
/// code drifted by up to 9% between runs minutes apart.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    e2e("wall_s", "s", Clock::Host, Better::Lower, Bound::Rel(0.15), &[]),
    // Set-up takes tens of microseconds on serve workloads: a 5 ms floor
    // keeps `compare` from judging noise, and the share is the widest
    // `BENCHMARK.json` allows (0.25).
    e2e("setup_s", "s", Clock::Host, Better::Lower, Bound::RelOrAbs(0.25, 0.005), &[]),
    e2e("sim_mcycles_per_s", "Mcycles/s", Clock::Host, Better::Higher, Bound::Rel(0.15), &[]),
    e2e("kreq_per_s", "kreq/s", Clock::Host, Better::Higher, Bound::Rel(0.15), &[]),
    e2e("peak_rss_mb", "MB", Clock::Host, Better::Lower, Bound::Rel(0.10), &[]),
    e2e("checkpoint_mb_max", "MB", Clock::Sim, Better::Lower, Bound::Exact, &[ServeCkpt]),
    e2e("sim_cycles", "cycles", Clock::Sim, Better::Lower, Bound::Exact, &[]),
    e2e("sim_ipc_gmean_speedup", "x", Clock::Sim, Better::Higher, Bound::Exact, &[Fig4Grid]),
    e2e("sim_read_mean_cy", "cycles", Clock::Sim, Better::Lower, Bound::Exact, &[]),
    e2e("sim_read_p99_cy", "cycles", Clock::Sim, Better::Lower, Bound::Exact, SERVE),
    e2e("sim_unserved_frac", "ratio", Clock::Sim, Better::Lower, Bound::Exact, SERVE),
    e2e("sim_slo_miss_frac", "ratio", Clock::Sim, Better::Lower, Bound::Exact, &[TenantsQos]),
    e2e("failed_runs", "ratio", Clock::Host, Better::Lower, Bound::Exact, &[]),
];

/// One per-layer metric of the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed by its layer.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, grouped by the crate that does the work. A
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // fgnvm-workloads
    layer("workloads.gen_s", "s", Better::Lower),
    // fgnvm-cpu
    layer("cpu.self_s", "s", Better::Lower),
    layer("cpu.step_calls", "count", Better::Lower),
    layer("cpu.leap_calls", "count", Better::Lower),
    layer("cpu.leap_frac", "ratio", Better::Higher),
    // fgnvm-mem
    layer("mem.tick_s", "s", Better::Lower),
    layer("mem.tick_calls", "count", Better::Lower),
    layer("mem.tick_unobserved_s", "s", Better::Lower),
    layer("mem.cycles_per_call", "cycles/call", Better::Higher),
    layer("mem.calendar_s", "s", Better::Lower),
    layer("mem.calendar_calls", "count", Better::Lower),
    layer("mem.enqueue_s", "s", Better::Lower),
    layer("mem.enqueue_calls", "count", Better::Lower),
    layer("mem.enqueue_refused_frac", "ratio", Better::Lower),
    // fgnvm-obs
    layer("obs.hooks_s", "s", Better::Lower),
    layer("obs.telemetry_s", "s", Better::Lower),
    layer("obs.audit_s", "s", Better::Lower),
    layer("obs.export_s", "s", Better::Lower),
    layer("obs.trace_mb", "MB", Better::Lower),
    // fgnvm-types snapshot
    layer("snapshot.encode_s", "s", Better::Lower),
    layer("snapshot.count", "count", Better::Lower),
    layer("snapshot.mb_max", "MB", Better::Lower),
    layer("snapshot.write_s", "s", Better::Lower),
    layer("snapshot.decode_s", "s", Better::Lower),
    // fgnvm-sim runner
    layer("runner.job_s_sum", "s", Better::Lower),
    layer("runner.efficiency", "ratio", Better::Higher),
    // fgnvm-sim serve driver
    layer("serve.driver_s", "s", Better::Lower),
    layer("serve.backoff_peak", "count", Better::Lower),
    layer("serve.rejected", "count", Better::Lower),
    // fgnvm-check
    layer("check.oracle_s", "s", Better::Lower),
    layer("check.violations", "count", Better::Lower),
    // Reconciliation of the traced pass against itself and the untraced run
    layer("unattributed_frac", "ratio", Better::Lower),
    layer("trace_overhead_frac", "ratio", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_sim::profile::json::{self, Value};

    fn field<'a>(entry: &'a Value, key: &str) -> &'a Value {
        entry
            .as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
    }

    fn entries(doc: &Value, key: &str) -> Vec<Value> {
        match doc.as_object().and_then(|o| o.get(key)) {
            Some(Value::Array(items)) => items.clone(),
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let gated: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.driver_bound().is_some())
            .collect();
        let listed = entries(&doc, "end_to_end");
        assert_eq!(listed.len(), gated.len());
        for (entry, m) in listed.iter().zip(gated) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.name()));
            assert_eq!(field(entry, "bound").as_f64(), m.driver_bound());
        }

        let listed = entries(&doc, "per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, m) in listed.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_str(), Some(m.name));
            assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
            assert_eq!(field(entry, "better").as_str(), Some(m.better.name()));
        }

        let names: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name").to_string())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
