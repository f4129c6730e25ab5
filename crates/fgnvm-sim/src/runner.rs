//! Generic machinery for running (workload × memory-configuration) grids.
//!
//! Sweeps fan out through one bounded work-stealing pool ([`run_jobs`]):
//! jobs are dealt round-robin onto per-worker deques and idle workers
//! steal from the back of a victim's deque, so a straggler configuration
//! never leaves the rest of the host idle the way per-wave join barriers
//! did. Worker count is capped by [`effective_jobs`] (`--jobs`), results
//! come back in input order, and a job that itself starts a sweep runs it
//! inline on its worker — nested sweeps cannot multiply the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fgnvm_bank::BankStats;
use fgnvm_cpu::{Core, CoreConfig, CoreResult, Trace};
use fgnvm_mem::{EnergyBreakdown, MemorySystem};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::ConfigError;

/// Shared knobs of every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Memory operations per generated trace.
    pub ops: usize,
    /// Base RNG seed (each workload decorrelates from it).
    pub seed: u64,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Event-driven fast-forwarding in the memory system (on by default;
    /// bit-identical to cycle stepping — turn it off only to produce the
    /// reference side of a differential run).
    pub fast_forward: bool,
}

impl ExperimentParams {
    /// Quick defaults used by tests (small traces).
    pub fn quick() -> Self {
        ExperimentParams {
            ops: 1500,
            seed: 7,
            core: CoreConfig::nehalem_like(),
            fast_forward: true,
        }
    }

    /// Full defaults used by the reproduction binary.
    pub fn full() -> Self {
        ExperimentParams {
            ops: 6000,
            seed: 7,
            core: CoreConfig::nehalem_like(),
            fast_forward: true,
        }
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams::full()
    }
}

/// Everything measured from one (trace, configuration) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// IPC and cycle counts from the core.
    pub core: CoreResult,
    /// Energy per the paper's model.
    pub energy: EnergyBreakdown,
    /// Aggregated bank counters.
    pub banks: BankStats,
    /// Mean read latency in memory cycles.
    pub avg_read_latency: f64,
    /// Approximate median read latency in memory cycles (from the
    /// power-of-two histogram; each percentile is a bucket upper bound).
    pub read_p50: u64,
    /// Approximate 95th-percentile read latency in memory cycles.
    pub read_p95: u64,
    /// Approximate 99th-percentile read latency in memory cycles (from
    /// the power-of-two histogram).
    pub read_p99: u64,
    /// Mean write latency (arrival → device completion) in memory cycles.
    pub avg_write_latency: f64,
    /// Approximate median write latency in memory cycles.
    pub write_p50: u64,
    /// Approximate 95th-percentile write latency in memory cycles.
    pub write_p95: u64,
    /// Approximate 99th-percentile write latency in memory cycles.
    pub write_p99: u64,
    /// Writes coalesced in the write queue (never reached the array).
    pub merged_writes: u64,
    /// Reads served by store-to-load forwarding (never reached the array).
    pub forwarded_reads: u64,
    /// Reads ECC corrected at extra decode latency.
    pub corrected_errors: u64,
    /// Reads ECC could not correct (row retired to a spare).
    pub uncorrectable_errors: u64,
    /// Rows remapped to spares during the run.
    pub remapped_rows: u64,
    /// Writes re-issued after the device exhausted its verify budget.
    pub reissued_writes: u64,
}

/// Runs one trace against one memory configuration.
///
/// # Errors
///
/// Returns [`ConfigError`] if either configuration is invalid.
pub fn run_one(
    trace: &Trace,
    config: &SystemConfig,
    params: &ExperimentParams,
) -> Result<RunOutcome, ConfigError> {
    let core = Core::new(params.core)?;
    let mut memory = MemorySystem::new(*config)?;
    memory.set_fast_forward(params.fast_forward);
    let result = core.run(trace, &mut memory);
    Ok(RunOutcome {
        core: result,
        energy: memory.energy(),
        banks: memory.bank_stats(),
        avg_read_latency: memory.stats().avg_read_latency(),
        read_p50: memory.stats().read_latency_percentile(0.50),
        read_p95: memory.stats().read_latency_percentile(0.95),
        read_p99: memory.stats().read_latency_percentile(0.99),
        avg_write_latency: memory.stats().avg_write_latency(),
        write_p50: memory.stats().write_latency_percentile(0.50),
        write_p95: memory.stats().write_latency_percentile(0.95),
        write_p99: memory.stats().write_latency_percentile(0.99),
        merged_writes: memory.stats().merged_writes,
        forwarded_reads: memory.stats().forwarded_reads,
        corrected_errors: memory.stats().corrected_errors,
        uncorrectable_errors: memory.stats().uncorrectable_errors,
        remapped_rows: memory.stats().remapped_rows,
        reissued_writes: memory.stats().reissued_writes,
    })
}

/// Explicit sweep-parallelism override (`0` is a sentinel meaning "derive
/// from the host", it never means zero workers); set via [`set_jobs`],
/// read via [`effective_jobs`].
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while the current thread is a sweep worker. A job that starts
    /// another sweep (a nested `run_grid` inside a study's job)
    /// runs it inline on its own worker instead of spawning a second pool:
    /// without the guard, N workers each spawning N more would
    /// oversubscribe the host quadratically — and re-reading the global
    /// [`JOBS`] override mid-sweep could race with a concurrent
    /// [`set_jobs`] call.
    static IN_SWEEP: Cell<bool> = const { Cell::new(false) };
}

/// Overrides the number of worker threads sweep runners fan out to
/// (the `--jobs` CLI flag). Pass 0 to return to the default, which is
/// [`std::thread::available_parallelism`]. `0` is a *sentinel*, not a
/// request for zero workers: [`effective_jobs`] always resolves to ≥ 1.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker-thread cap sweeps currently run under: the [`set_jobs`]
/// override when one is set, otherwise the host's available parallelism.
/// Guaranteed ≥ 1 — callers may divide by it.
pub fn effective_jobs() -> usize {
    let explicit = JOBS.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(1)
}

/// Runs `run(index, &items[index])` for every item through a bounded
/// work-stealing pool and returns the results in input order.
///
/// Jobs are dealt round-robin onto one deque per worker; each worker
/// drains its own deque from the front and, when empty, steals from the
/// *back* of the first non-empty victim deque (classic work-stealing:
/// owner and thief touch opposite ends, and stolen work is the coldest).
/// The pool is capped at [`effective_jobs`] workers and never larger than
/// the job count. Called from inside a sweep worker (a nested sweep), it
/// degrades to an inline serial loop on the calling worker.
///
/// `run` must be a pure function of its job for results to be
/// deterministic; the executor guarantees only that result *order* is
/// input order regardless of which worker ran what.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_jobs<T, R, F>(items: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let nested = IN_SWEEP.with(Cell::get);
    let workers = if nested {
        1
    } else {
        effective_jobs().min(items.len())
    };
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let queues = &queues;
                let run = &run;
                scope.spawn(move || {
                    IN_SWEEP.with(|flag| flag.set(true));
                    let mut done = Vec::new();
                    let lock = |w: usize| queues[w].lock().expect("sweep queue poisoned");
                    loop {
                        // Own pop in its own statement: the guard must be
                        // released before locking a victim, or two thieves
                        // each holding their own deque wait on each other.
                        let own = lock(me).pop_front();
                        let claimed = own.or_else(|| {
                            (1..workers).find_map(|d| lock((me + d) % workers).pop_back())
                        });
                        // Queues only drain after the deal, so empty-everywhere
                        // is stable: nothing left to claim means done.
                        let Some(i) = claimed else { break };
                        done.push((i, run(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "job {i} ran twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every dealt job produces exactly one result"))
        .collect()
}

/// Runs the full (trace × configuration) lattice through one
/// work-stealing pool and returns `grid[trace_index][config_index]`.
///
/// The whole lattice shares one job pool: workers finishing one
/// workload's cheap configurations steal the next workload's jobs instead
/// of idling at a per-workload barrier.
/// Per-job determinism is unchanged — every job is a pure
/// (trace, config, params) function, so the grid is bit-identical to
/// nested serial loops.
///
/// # Errors
///
/// Returns the first [`ConfigError`] in row-major (trace-then-config)
/// order.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_grid(
    traces: &[Trace],
    configs: &[SystemConfig],
    params: &ExperimentParams,
) -> Result<Vec<Vec<RunOutcome>>, ConfigError> {
    let lattice: Vec<(usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..configs.len()).map(move |c| (t, c)))
        .collect();
    let mut flat = run_jobs(&lattice, |_, &(t, c)| {
        run_one(&traces[t], &configs[c], params)
    })
    .into_iter();
    let mut grid = Vec::with_capacity(traces.len());
    for _ in traces {
        let mut row = Vec::with_capacity(configs.len());
        for _ in configs {
            row.push(flat.next().expect("lattice covers the full grid")?);
        }
        grid.push(row);
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::geometry::Geometry;
    use fgnvm_workloads::profile;

    /// Serializes the tests that change the process-wide [`JOBS`] cap. The
    /// harness runs tests in parallel, so without it one test's `set_jobs`
    /// could land between another's `set_jobs` and the sweep it sets up.
    static JOBS_CAP: Mutex<()> = Mutex::new(());

    fn hold_jobs_cap() -> std::sync::MutexGuard<'static, ()> {
        JOBS_CAP
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn run_one_produces_consistent_outcome() {
        let trace = profile("sphinx3_like")
            .unwrap()
            .generate(Geometry::default(), 3, 300);
        let outcome = run_one(
            &trace,
            &SystemConfig::baseline(),
            &ExperimentParams::quick(),
        )
        .unwrap();
        assert!(outcome.core.ipc() > 0.0);
        assert!(outcome.energy.total_pj() > 0.0);
        assert!(outcome.banks.reads > 0);
    }

    #[test]
    fn fast_forward_is_bit_identical_at_run_level() {
        // The whole-run differential: every measured quantity — IPC,
        // energy, bank counters, latency statistics — must be unchanged
        // by event-driven fast-forwarding.
        let trace = profile("libquantum_like")
            .unwrap()
            .generate(Geometry::default(), 11, 600);
        let fast = ExperimentParams::quick();
        let stepped = ExperimentParams {
            fast_forward: false,
            ..fast
        };
        for cfg in [SystemConfig::baseline(), SystemConfig::fgnvm(8, 2).unwrap()] {
            let a = run_one(&trace, &cfg, &fast).unwrap();
            let b = run_one(&trace, &cfg, &stepped).unwrap();
            assert_eq!(a, b, "fast-forward diverged from stepping");
        }
    }

    #[test]
    fn jobs_cap_preserves_results_and_order() {
        let _cap = hold_jobs_cap();
        let trace = [profile("milc_like")
            .unwrap()
            .generate(Geometry::default(), 5, 200)];
        let params = ExperimentParams::quick();
        let configs = [
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 2).unwrap(),
            SystemConfig::fgnvm(8, 8).unwrap(),
        ];
        let wide = run_grid(&trace, &configs, &params).unwrap();
        set_jobs(1); // serialize: every wave is one config
        assert_eq!(effective_jobs(), 1);
        let narrow = run_grid(&trace, &configs, &params).unwrap();
        set_jobs(0);
        assert!(effective_jobs() >= 1);
        assert_eq!(wide, narrow, "the jobs cap must not change outcomes");
    }

    #[test]
    fn run_jobs_preserves_order_under_stealing() {
        let _cap = hold_jobs_cap();
        // 40 jobs with wildly uneven durations on 4 workers: the cheap
        // jobs' workers go idle and must steal to finish — results still
        // come back slot-for-slot in input order.
        let items: Vec<u64> = (0..40).collect();
        set_jobs(4);
        let results = run_jobs(&items, |i, &v| {
            if v % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            (i as u64) * 100 + v
        });
        set_jobs(0);
        let expected: Vec<u64> = (0..40).map(|v| v * 101).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn tiny_stealing_pools_never_deadlock() {
        let _cap = hold_jobs_cap();
        // Thousands of pools whose trivial jobs finish at once, so every
        // worker goes stealing at the same moment: a worker that still held
        // its own deque while locking a victim's would wait forever on a
        // thief doing the same. A watchdog turns a hang into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            set_jobs(2);
            for round in 0..3_000u32 {
                let items: Vec<u32> = (0..2 + round % 5).collect();
                let out = run_jobs(&items, |_, &v| v + 1);
                assert_eq!(out, items.iter().map(|v| v + 1).collect::<Vec<_>>());
            }
            set_jobs(0);
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_jobs deadlocked: a stress round never finished");
    }

    #[test]
    fn nested_sweeps_run_inline_without_spawning() {
        let _cap = hold_jobs_cap();
        // A job that itself calls run_jobs must not multiply the pool;
        // the nested sweep runs inline on the worker and still returns
        // correct, ordered results.
        let outer: Vec<u32> = (0..6).collect();
        set_jobs(2);
        let results = run_jobs(&outer, |_, &v| {
            let inner: Vec<u32> = (0..5).map(|k| v * 10 + k).collect();
            let doubled = run_jobs(&inner, |_, &x| x * 2);
            doubled.iter().sum::<u32>()
        });
        set_jobs(0);
        let expected: Vec<u32> = (0..6)
            .map(|v| (0..5).map(|k| (v * 10 + k) * 2).sum())
            .collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn jobs_zero_sentinel_never_means_zero_workers() {
        let _cap = hold_jobs_cap();
        set_jobs(0);
        assert!(effective_jobs() >= 1, "0 is a sentinel, not a cap");
        // An empty job list and a single job both work at any cap.
        let empty: [u8; 0] = [];
        assert!(run_jobs(&empty, |_, &x| x).is_empty());
        assert_eq!(run_jobs(&[9u8], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn run_grid_matches_per_trace_run_configs() {
        let _cap = hold_jobs_cap();
        let params = ExperimentParams::quick();
        let geometry = Geometry::default();
        let traces: Vec<Trace> = ["milc_like", "mcf_like"]
            .iter()
            .map(|n| profile(n).unwrap().generate(geometry, 5, 200))
            .collect();
        let configs = [SystemConfig::baseline(), SystemConfig::fgnvm(8, 2).unwrap()];
        set_jobs(2);
        let grid = run_grid(&traces, &configs, &params).unwrap();
        set_jobs(0);
        assert_eq!(grid.len(), traces.len());
        for (trace, row) in traces.iter().zip(&grid) {
            let reference: Vec<RunOutcome> = configs
                .iter()
                .map(|config| run_one(trace, config, &params).unwrap())
                .collect();
            assert_eq!(row, &reference, "lattice diverged from serial runs");
        }
    }
}
