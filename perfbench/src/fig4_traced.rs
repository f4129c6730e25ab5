//! Traced Figure 4 grid: the same lattice as `run_grid`, driven through
//! `fgnvm_sim::run_jobs`, with each job's `MemorySystem` behind a wrapper
//! that times every call `Core::run` makes into it.

use std::cell::Cell;
use std::time::Instant;

use fgnvm_cpu::{Core, CoreResult, Trace};
use fgnvm_mem::{MemoryBackend, MemorySystem};
use fgnvm_sim::runner::{effective_jobs, run_jobs, set_jobs, ExperimentParams};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{Completion, Cycle, Op, PhysAddr, RequestId};

use crate::rep::Rep;
use crate::workload::{fig4_configs, fig4_run, fig4_traces, since, Fig4Spec};

/// Host time and calls of one job's memory backend.
#[derive(Debug, Default, Clone, Copy)]
struct BackendTimes {
    tick_s: f64,
    step_calls: u64,
    leap_calls: u64,
    drain_calls: u64,
    tick_cycles: u64,
    calendar_s: f64,
    calendar_calls: u64,
    enqueue_s: f64,
    enqueue_calls: u64,
    enqueue_refused: u64,
}

impl BackendTimes {
    fn backend_s(&self) -> f64 {
        self.tick_s + self.calendar_s + self.enqueue_s
    }

    fn add(&mut self, o: &BackendTimes) {
        self.tick_s += o.tick_s;
        self.step_calls += o.step_calls;
        self.leap_calls += o.leap_calls;
        self.drain_calls += o.drain_calls;
        self.tick_cycles += o.tick_cycles;
        self.calendar_s += o.calendar_s;
        self.calendar_calls += o.calendar_calls;
        self.enqueue_s += o.enqueue_s;
        self.enqueue_calls += o.enqueue_calls;
        self.enqueue_refused += o.enqueue_refused;
    }
}

/// A `MemorySystem` that times each backend call. Every call forwards to
/// the system's own `MemoryBackend` implementation, so the core sees the
/// exact same backend and produces the same result.
struct TimedMem {
    inner: MemorySystem,
    t: BackendTimes,
    // `next_event_at` takes `&self`.
    calendar_s: Cell<f64>,
    calendar_calls: Cell<u64>,
}

impl TimedMem {
    fn enqueued(&mut self, t: Instant, id: Option<RequestId>) -> Option<RequestId> {
        self.t.enqueue_s += since(t);
        self.t.enqueue_calls += 1;
        self.t.enqueue_refused += u64::from(id.is_none());
        id
    }

    fn times(&self) -> BackendTimes {
        BackendTimes {
            calendar_s: self.calendar_s.get(),
            calendar_calls: self.calendar_calls.get(),
            ..self.t
        }
    }
}

impl MemoryBackend for TimedMem {
    fn enqueue(&mut self, op: Op, addr: PhysAddr) -> Option<RequestId> {
        let t = Instant::now();
        let id = MemoryBackend::enqueue(&mut self.inner, op, addr);
        self.enqueued(t, id)
    }

    fn enqueue_prefetch(&mut self, addr: PhysAddr) -> Option<RequestId> {
        let t = Instant::now();
        let id = MemoryBackend::enqueue_prefetch(&mut self.inner, addr);
        self.enqueued(t, id)
    }

    fn tick_into(&mut self, out: &mut Vec<Completion>) {
        let t = Instant::now();
        MemoryBackend::tick_into(&mut self.inner, out);
        self.t.tick_s += since(t);
        self.t.step_calls += 1;
        self.t.tick_cycles += 1;
    }

    fn next_event_at(&self) -> Option<Cycle> {
        let t = Instant::now();
        let ev = MemoryBackend::next_event_at(&self.inner);
        self.calendar_s.set(self.calendar_s.get() + since(t));
        self.calendar_calls.set(self.calendar_calls.get() + 1);
        ev
    }

    fn tick_to(&mut self, target: Cycle, out: &mut Vec<Completion>) {
        let from = self.inner.now();
        let t = Instant::now();
        MemoryBackend::tick_to(&mut self.inner, target, out);
        self.t.tick_s += since(t);
        self.t.leap_calls += 1;
        self.t.tick_cycles += (self.inner.now() - from).raw();
    }

    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let from = self.inner.now();
        let t = Instant::now();
        let out = MemoryBackend::run_until_idle(&mut self.inner, max_cycles);
        self.t.tick_s += since(t);
        self.t.drain_calls += 1;
        self.t.tick_cycles += (self.inner.now() - from).raw();
        out
    }
}

/// One traced job: the core's result, its backend's times, and host time
/// in `Core::run` and in the whole job.
struct Job {
    core: CoreResult,
    t: BackendTimes,
    run_s: f64,
    job_s: f64,
}

fn traced_job(trace: &Trace, config: SystemConfig) -> Result<Job, String> {
    let tj = Instant::now();
    let core = Core::new(ExperimentParams::full().core).map_err(|e| e.to_string())?;
    let mut inner = MemorySystem::new(config).map_err(|e| e.to_string())?;
    inner.set_fast_forward(true);
    let mut mem = TimedMem {
        inner,
        t: BackendTimes::default(),
        calendar_s: Cell::new(0.0),
        calendar_calls: Cell::new(0),
    };
    let tr = Instant::now();
    let result = core.run(trace, &mut mem);
    let run_s = since(tr);
    Ok(Job {
        core: result,
        t: mem.times(),
        run_s,
        job_s: since(tj),
    })
}

/// One traced repetition: an untraced `run_grid` for reference, then the
/// traced lattice, compared result for result.
pub fn fig4_traced_rep(spec: &Fig4Spec, seed: u64) -> Result<Rep, String> {
    let reference = fig4_run(spec, seed)?;
    drop(reference.traces);

    let t0 = Instant::now();
    let configs = fig4_configs()?;
    let tg = Instant::now();
    let traces = fig4_traces(spec, seed);
    let gen_s = since(tg);
    set_jobs(spec.jobs);
    let lattice: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..configs.len()).map(move |c| (t, c)))
        .collect();
    let workers = effective_jobs().min(lattice.len());
    let tgrid = Instant::now();
    let jobs = run_jobs(&lattice, |_, &(t, c)| traced_job(&traces[t], configs[c]));
    let grid_s = since(tgrid);
    let wall_s = since(t0);
    let jobs = jobs.into_iter().collect::<Result<Vec<Job>, String>>()?;

    let mut t = BackendTimes::default();
    let mut cpu_self_s = 0.0;
    let mut run_s = 0.0;
    let mut job_s = 0.0;
    let mut diverged = Vec::new();
    for (job, &(ti, ci)) in jobs.iter().zip(&lattice) {
        t.add(&job.t);
        cpu_self_s += job.run_s - job.t.backend_s();
        run_s += job.run_s;
        job_s += job.job_s;
        if job.core != reference.grid[ti][ci].core {
            diverged.push(format!("{} on config {ci}", traces[ti].name()));
        }
    }
    let tick_calls = t.step_calls + t.leap_calls + t.drain_calls;
    let core_calls = t.step_calls + t.leap_calls;
    // Jobs overlap on `workers` threads, so the traced pass is reconciled
    // in thread time: the serial set-up plus every job's own time.
    let busy_s = (wall_s - grid_s) + job_s;

    let mut rep = Rep::with_layers();
    rep.set("workloads.gen_s", gen_s);
    rep.set("cpu.self_s", cpu_self_s);
    rep.set("cpu.step_calls", t.step_calls as f64);
    rep.set("cpu.leap_calls", t.leap_calls as f64);
    rep.set(
        "cpu.leap_frac",
        t.leap_calls as f64 / core_calls.max(1) as f64,
    );
    rep.set("mem.tick_s", t.tick_s);
    rep.set("mem.tick_calls", tick_calls as f64);
    // No observer runs in this workload: observed and unobserved ticks
    // are the same calls.
    rep.set("mem.tick_unobserved_s", t.tick_s);
    rep.set(
        "mem.cycles_per_call",
        t.tick_cycles as f64 / tick_calls.max(1) as f64,
    );
    rep.set("mem.calendar_s", t.calendar_s);
    rep.set("mem.calendar_calls", t.calendar_calls as f64);
    rep.set("mem.enqueue_s", t.enqueue_s);
    rep.set("mem.enqueue_calls", t.enqueue_calls as f64);
    rep.set(
        "mem.enqueue_refused_frac",
        t.enqueue_refused as f64 / t.enqueue_calls.max(1) as f64,
    );
    rep.set("runner.job_s_sum", job_s);
    rep.set("runner.efficiency", job_s / (workers as f64 * grid_s));
    rep.set("unattributed_frac", (busy_s - gen_s - run_s) / busy_s);
    rep.set("trace_overhead_frac", wall_s / reference.wall_s - 1.0);
    rep.gate(
        "traced-core-equal",
        diverged.is_empty(),
        format!("traced CoreResult differs from run_grid for {diverged:?}"),
    );
    Ok(rep)
}
