//! The four workloads, their sizes, and one untraced repetition of each.
//!
//! Untraced repetitions call the same library entry points the CLI calls
//! (`fgnvm_sim::run_grid` for `fig4`, `fgnvm_sim::serve` for `serve`), so
//! their host time is what a user of those commands pays. Modelled state
//! starts empty — cold rows, empty queues — exactly as both commands run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fgnvm_cpu::Trace;
use fgnvm_mem::MemorySystem;
use fgnvm_sim::profile::json;
use fgnvm_sim::runner::{run_grid, set_jobs, ExperimentParams, RunOutcome};
use fgnvm_sim::{ServeConfig, ServeReport};
use fgnvm_types::config::SystemConfig;
use fgnvm_workloads::all_profiles;

use crate::rep::Rep;
use crate::serve_mirror::count_arrivals;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 4 grid: 12 traces × 4 designs, closed loop.
    Fig4Grid,
    /// Long-horizon open-loop `serve` with the default observer.
    ServeOpen,
    /// `serve-open` plus periodic checkpoints and the issue audit.
    ServeCkpt,
    /// Three tenants under the QoS scheduler, with admission refusals.
    TenantsQos,
}

impl Workload {
    /// Every workload, in the order sets run them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig4Grid,
        Workload::ServeOpen,
        Workload::ServeCkpt,
        Workload::TenantsQos,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Grid => "fig4-grid",
            Workload::ServeOpen => "serve-open",
            Workload::ServeCkpt => "serve-ckpt",
            Workload::TenantsQos => "tenants-qos",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload runs at `size`.
    pub fn spec(self, size: Size) -> Spec {
        let tiny = size == Size::Tiny;
        let horizon = if tiny { 100_000 } else { 4_000_000 };
        let open = ServeSpec {
            config: REPO_8X2_CFG,
            horizon,
            // A cap above the ~horizon/12 requests the legacy stream's mean
            // gap delivers, so arrivals last until the horizon.
            ops: horizon / 10,
            tenants: "",
            checkpoint_every: 0,
            audit: false,
        };
        match self {
            Workload::Fig4Grid => Spec::Fig4(Fig4Spec {
                ops: if tiny { 800 } else { 60_000 },
                jobs: 2,
            }),
            Workload::ServeOpen => Spec::Serve(open),
            Workload::ServeCkpt => Spec::Serve(ServeSpec {
                checkpoint_every: horizon / 4,
                audit: true,
                ..open
            }),
            // Twice the horizon: the bursty tenant's refusal storms vary
            // with the seed, and a longer run averages more of them.
            Workload::TenantsQos => Spec::Serve(ServeSpec {
                config: BENCH_QOS_CFG,
                horizon: 2 * horizon,
                ops: horizon / 2,
                tenants: TENANTS,
                ..open
            }),
        }
    }
}

/// Problem size: `Full` is the benchmark; `Tiny` is for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A size that runs each workload in well under a second.
    Tiny,
}

impl Size {
    /// Name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The paper's 8×2 design, as the CLI's `serve` examples load it.
const REPO_8X2_CFG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../configs/fgnvm_8x2.cfg");

/// The same design under the least-service `FRFCFS_QOS` scheduler.
const BENCH_QOS_CFG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/fgnvm_8x2_qos.cfg");

/// A latency-sensitive web tenant with a p99 SLO, a read-heavy scan over
/// half the space, and a bursty batch tenant that is 90% writes. Its
/// bursts (one request per 2 cycles for ~250 cycles) overflow the write
/// queue; they are short and frequent (~6,400 per 8M cycles) so the work
/// a run does barely depends on the seed.
const TENANTS: &str = "web:poisson:gap=40:slo=700,\
                       scan:poisson:gap=60:read=90:mix=0-50,\
                       batch:mmpp:calm=200:burst=2:dwell-calm=1000:dwell-burst=250:read=10";

/// What one workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    /// A `run_grid` sweep.
    Fig4(Fig4Spec),
    /// A `serve` session.
    Serve(ServeSpec),
}

/// The Figure 4 grid.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Spec {
    /// Memory operations per generated trace.
    pub ops: usize,
    /// Sweep worker threads.
    pub jobs: usize,
}

/// One `serve` session.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Parameter file, as an absolute path.
    pub config: &'static str,
    /// Simulated-cycle horizon.
    pub horizon: u64,
    /// Requests to generate (arrivals stop once exhausted).
    pub ops: u64,
    /// Tenant spec string; empty for the legacy single stream.
    pub tenants: &'static str,
    /// Cycles between checkpoints (0: none).
    pub checkpoint_every: u64,
    /// Record the scheduler issue audit.
    pub audit: bool,
}

/// Seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// A directory under the benchmark's own build tree, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh, empty directory named after `label` and this process.
    pub fn new(label: &str) -> Result<ScratchDir, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("scratch")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Checkpoint files in the directory, oldest (lowest cycle) first.
    pub fn checkpoints(&self) -> Result<Vec<PathBuf>, String> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.0)
            .map_err(|e| format!("{}: {e}", self.0.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        files.sort();
        Ok(files)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Size of the largest of `files`, in MB (0 when there are none).
pub fn largest_file_mb(files: &[PathBuf]) -> Result<f64, String> {
    let mut largest = 0u64;
    for f in files {
        let len = std::fs::metadata(f)
            .map_err(|e| format!("{}: {e}", f.display()))?
            .len();
        largest = largest.max(len);
    }
    Ok(largest as f64 / 1e6)
}

/// The four Figure 4 designs: baseline, FgNVM 8×2, the size-matched
/// 128-bank design, and 8×2 with 2-wide multi-issue.
pub fn fig4_configs() -> Result<[SystemConfig; 4], String> {
    let err = |e: fgnvm_types::ConfigError| e.to_string();
    Ok([
        SystemConfig::baseline(),
        SystemConfig::fgnvm(8, 2).map_err(err)?,
        SystemConfig::many_banks_matching(8, 2).map_err(err)?,
        SystemConfig::fgnvm_multi_issue(8, 2, 2).map_err(err)?,
    ])
}

/// The twelve `*_like` traces, generated against the baseline address
/// space as `fig4` generates them.
pub fn fig4_traces(spec: &Fig4Spec, seed: u64) -> Vec<Trace> {
    let geometry = SystemConfig::baseline().geometry;
    all_profiles()
        .iter()
        .map(|p| p.generate(geometry, seed, spec.ops))
        .collect()
}

/// An untraced Figure 4 grid, timed.
#[derive(Debug)]
pub struct Fig4Run {
    /// Config build and trace generation.
    pub setup_s: f64,
    /// Set-up plus the grid.
    pub wall_s: f64,
    /// The generated traces.
    pub traces: Vec<Trace>,
    /// `grid[trace][config]`.
    pub grid: Vec<Vec<RunOutcome>>,
}

/// Runs the grid through `run_grid`, as `fig4` does.
pub fn fig4_run(spec: &Fig4Spec, seed: u64) -> Result<Fig4Run, String> {
    let t0 = Instant::now();
    let configs = fig4_configs()?;
    let traces = fig4_traces(spec, seed);
    let setup_s = since(t0);
    set_jobs(spec.jobs);
    let params = ExperimentParams {
        ops: spec.ops,
        seed,
        ..ExperimentParams::full()
    };
    let grid = run_grid(&traces, &configs, &params).map_err(|e| e.to_string())?;
    Ok(Fig4Run {
        setup_s,
        wall_s: since(t0),
        traces,
        grid,
    })
}

fn fig4_rep(spec: &Fig4Spec, seed: u64) -> Result<Rep, String> {
    let run = fig4_run(spec, seed)?;
    let mut rep = Rep::default();
    rep.set("peak_rss_mb", peak_rss_mb());
    let outcomes = || run.grid.iter().flatten();
    let mem_cycles: u64 = outcomes().map(|o| o.core.mem_cycles).sum();
    let requests: usize = run.traces.iter().map(|t| t.len() * run.grid[0].len()).sum();
    let read_means: Vec<f64> = outcomes().map(|o| o.avg_read_latency).collect();
    let speedups: Vec<f64> = run
        .grid
        .iter()
        .map(|row| row[1].core.speedup_over(&row[0].core))
        .collect();
    rep.set("wall_s", run.wall_s);
    rep.set("setup_s", run.setup_s);
    rep.set("sim_mcycles_per_s", mem_cycles as f64 / run.wall_s / 1e6);
    rep.set("kreq_per_s", requests as f64 / run.wall_s / 1e3);
    rep.set("sim_cycles", mem_cycles as f64);
    rep.set(
        "sim_read_mean_cy",
        read_means.iter().sum::<f64>() / read_means.len() as f64,
    );
    rep.set(
        "sim_ipc_gmean_speedup",
        fgnvm_sim::report::geometric_mean(&speedups),
    );
    let short: Vec<String> = run
        .traces
        .iter()
        .zip(&run.grid)
        .flat_map(|(t, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, o)| o.core.instructions != t.instruction_count())
                .map(move |(c, _)| format!("{} on config {c}", t.name()))
        })
        .collect();
    rep.gate(
        "grid-complete",
        short.is_empty(),
        format!("runs that retired fewer instructions than their trace: {short:?}"),
    );
    Ok(rep)
}

/// Which observer sinks a serve-shaped memory system gets.
#[derive(Debug, Clone, Copy)]
pub struct Sinks {
    /// The observer with windowed telemetry and the flight recorder.
    pub observer: bool,
    /// The issue audit (needs the observer).
    pub audit: bool,
}

impl Sinks {
    /// The sinks `fgnvm_sim::serve` enables for `sc`.
    pub fn serve(sc: &ServeConfig) -> Sinks {
        Sinks {
            observer: true,
            audit: sc.audit,
        }
    }
}

/// Parses the workload's parameter file and tenant spec into the pair
/// that fully determines a serve run, with the CLI's defaults elsewhere.
pub fn serve_config(
    spec: &ServeSpec,
    seed: u64,
    checkpoint_dir: Option<&Path>,
) -> Result<(SystemConfig, ServeConfig), String> {
    let text = std::fs::read_to_string(spec.config).map_err(|e| format!("{}: {e}", spec.config))?;
    let config =
        fgnvm_types::parse_system_config(&text).map_err(|e| format!("{}: {e}", spec.config))?;
    let tenants = if spec.tenants.is_empty() {
        Vec::new()
    } else {
        fgnvm_workloads::parse_tenants(spec.tenants).map_err(|e| e.to_string())?
    };
    let sc = ServeConfig {
        horizon: spec.horizon,
        ops: spec.ops,
        seed,
        checkpoint_every: spec.checkpoint_every,
        checkpoint_dir: checkpoint_dir.map(Path::to_path_buf),
        tenants,
        audit: spec.audit,
        ..ServeConfig::default()
    };
    Ok((config, sc))
}

/// Closed telemetry windows `serve` keeps in memory.
pub const TELEMETRY_RETENTION: usize = 128;
/// Flight-recorder ring capacity of `serve`.
pub const FLIGHT_CAPACITY: usize = 256;
/// Per-channel command-log capacity of `serve`.
pub const COMMAND_LOG: usize = 1 << 16;

/// Builds the memory system the way `fgnvm_sim::serve` does before its
/// first simulated cycle, with the chosen sinks.
pub fn serve_system(
    config: SystemConfig,
    sc: &ServeConfig,
    sinks: Sinks,
) -> Result<MemorySystem, String> {
    let mut mem = MemorySystem::new(config).map_err(|e| e.to_string())?;
    mem.set_fast_forward(true);
    if sinks.observer {
        mem.enable_observer();
    }
    mem.enable_command_log(COMMAND_LOG);
    if sinks.observer && sc.telemetry_window > 0 {
        mem.enable_telemetry(sc.telemetry_window, TELEMETRY_RETENTION, FLIGHT_CAPACITY);
    }
    if sinks.observer && sinks.audit {
        mem.enable_audit();
    }
    Ok(mem)
}

/// `name → value` view of a metrics-registry JSON document.
pub fn registry(metrics_json: &str) -> Result<BTreeMap<String, json::Value>, String> {
    json::parse(metrics_json)?
        .as_object()
        .cloned()
        .ok_or_else(|| "metrics registry is not a JSON object".to_string())
}

/// A numeric entry of a metrics registry.
pub fn metric(m: &BTreeMap<String, json::Value>, name: &str) -> Result<f64, String> {
    m.get(name)
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("metrics registry lacks `{name}`"))
}

/// An untraced serve session, timed.
#[derive(Debug)]
pub struct ServeRun {
    /// `serve`'s own report.
    pub report: ServeReport,
    /// Host time of the config parse and the `serve` call.
    pub wall_s: f64,
    /// Host time before the first cycle: the run's own parse, plus one
    /// build of the memory system with serve's sinks.
    pub setup_s: f64,
    /// The configuration the run used.
    pub config: SystemConfig,
    /// The serve knobs the run used.
    pub sc: ServeConfig,
}

/// Parses the workload and runs `fgnvm_sim::serve`, as `fgnvm-repro serve`
/// does. `serve` builds its memory system inside the call, out of reach of
/// a clock outside it, so the same build is timed once just before the
/// call (while the process is still cold) and left out of `wall_s`.
pub fn serve_run(spec: &ServeSpec, seed: u64, dir: Option<&Path>) -> Result<ServeRun, String> {
    let t0 = Instant::now();
    let (config, sc) = serve_config(spec, seed, dir)?;
    let parse_s = since(t0);
    let tb = Instant::now();
    let mem = serve_system(config, &sc, Sinks::serve(&sc))?;
    let build_s = since(tb);
    drop(mem);
    let tr = Instant::now();
    let report = fgnvm_sim::serve(config, &sc).map_err(|e| e.to_string())?;
    Ok(ServeRun {
        report,
        wall_s: parse_s + since(tr),
        setup_s: parse_s + build_s,
        config,
        sc,
    })
}

fn serve_rep(w: Workload, spec: &ServeSpec, seed: u64) -> Result<Rep, String> {
    let dir = ScratchDir::new(w.name())?;
    let run = serve_run(
        spec,
        seed,
        Some(dir.path()).filter(|_| spec.checkpoint_every > 0),
    )?;
    let mut rep = Rep::default();
    rep.set("peak_rss_mb", peak_rss_mb());
    let report = &run.report;
    let m = registry(&report.metrics_json)?;
    rep.set("wall_s", run.wall_s);
    rep.set("setup_s", run.setup_s);
    rep.set(
        "sim_mcycles_per_s",
        report.final_cycle as f64 / run.wall_s / 1e6,
    );
    rep.set("kreq_per_s", report.completions as f64 / run.wall_s / 1e3);
    rep.set("sim_cycles", report.final_cycle as f64);
    rep.set("sim_read_mean_cy", metric(&m, "mem.avg_read_latency")?);
    rep.set("sim_read_p99_cy", metric(&m, "mem.read_p99")?);
    rep.set("sim_reads", metric(&m, "mem.completed_reads")?);
    let generated = count_arrivals(&run.config, &run.sc);
    rep.set(
        "sim_unserved_frac",
        generated.saturating_sub(report.completions) as f64 / generated.max(1) as f64,
    );

    let enqueued = metric(&m, "mem.enqueued_reads")? + metric(&m, "mem.enqueued_writes")?;
    let completed = metric(&m, "mem.completed_reads")? + metric(&m, "mem.completed_writes")?;
    rep.gate(
        "serve-accounting",
        report.admitted as f64 == enqueued && report.completions as f64 == completed,
        format!(
            "driver admitted {} / completed {}, memory enqueued {enqueued} / completed {completed}",
            report.admitted, report.completions
        ),
    );
    let first_admissions = report.admitted - report.retried;
    rep.gate(
        "arrivals-cover-admissions",
        generated > 0 && first_admissions <= generated,
        format!("{generated} arrivals generated, {first_admissions} first admissions"),
    );
    if !report.tenants.is_empty() {
        let per_tenant: u64 = report.tenants.iter().map(|t| t.completions).sum();
        rep.gate(
            "tenant-conservation",
            per_tenant == report.completions,
            format!(
                "tenant completions sum to {per_tenant}, driver counted {}",
                report.completions
            ),
        );
        let web = &report.tenants[0];
        rep.set(
            "sim_slo_miss_frac",
            web.slo_violations as f64 / web.slo_windows.max(1) as f64,
        );
    }
    if let Some(expected) = spec.horizon.checked_div(spec.checkpoint_every) {
        let files = dir.checkpoints()?;
        rep.set("checkpoint_mb_max", largest_file_mb(&files)?);
        let restored = files
            .last()
            .map(|last| fgnvm_sim::load_checkpoint_file(run.config, last))
            .transpose()
            .map_err(|e| e.to_string())?
            .map(|(_, mem)| mem.now().raw());
        rep.gate(
            "checkpoints-restore",
            files.len() as u64 == expected && restored == Some(expected * spec.checkpoint_every),
            format!(
                "{} checkpoint(s) of {expected} expected; last restores at cycle {restored:?}",
                files.len()
            ),
        );
    }
    Ok(rep)
}

/// One untraced repetition of `w`.
pub fn untraced_rep(w: Workload, size: Size, seed: u64) -> Result<Rep, String> {
    match w.spec(size) {
        Spec::Fig4(spec) => fig4_rep(&spec, seed),
        Spec::Serve(spec) => serve_rep(w, &spec, seed),
    }
}
