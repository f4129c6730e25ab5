//! A bench-side mirror of the serve driver's loop, timing each call into
//! a layer from outside the program, and the traced serve repetition
//! built on it.
//!
//! The mirror follows `fgnvm_sim::serve` step for step — the same
//! landings, admission order, backoff and checkpoint boundaries — so its
//! memory system ends in the same state; the traced repetition checks
//! that it does. It leaves out what the workloads never turn on: the
//! `Block` admission policy, a global read SLO, and the JSONL, Prometheus
//! and terminal outputs (their strings are still built where `serve`
//! builds them unconditionally).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fgnvm_check::seed::splitmix64;
use fgnvm_check::Oracle;
use fgnvm_mem::MemorySystem;
use fgnvm_obs::{prom, Registry};
use fgnvm_sim::profile::json;
use fgnvm_sim::{AdmissionPolicy, ServeConfig};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::{Completion, Cycle, Op, PhysAddr, SnapshotWriter};
use fgnvm_workloads::{TenantSpec, TenantStream};

use crate::rep::Rep;
use crate::workload::{
    largest_file_mb, registry, serve_run, since, ScratchDir, ServeSpec, Sinks, Workload,
};

/// Lines in the device and bytes per line.
fn line_space(config: &SystemConfig) -> (u64, u64) {
    let line_bytes = u64::from(config.geometry.line_bytes());
    (
        config.geometry.capacity_bytes() / line_bytes.max(1),
        line_bytes,
    )
}

/// `serve`'s legacy single-stream generator: the op, its address, and the
/// gap to the next arrival, as a pure function of `(seed, index)`.
fn legacy_op(seed: u64, index: u64, lines: u64, line_bytes: u64) -> (Op, PhysAddr, u64) {
    let mut s = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = move || splitmix64(&mut s);
    let op = if next() % 100 < 35 {
        Op::Write
    } else {
        Op::Read
    };
    let line = match next() % 4 {
        0..=2 => next() % 64,
        _ => next() % lines.max(1),
    };
    let gap = next() % 25;
    (op, PhysAddr::new(line * line_bytes), gap)
}

/// One tenant's arrival cursor.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    stream: TenantStream,
    next_at: u64,
}

fn fresh_tenants(sc: &ServeConfig) -> Vec<Tenant> {
    sc.tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut stream = TenantStream::new(sc.seed, i as u16);
            let next_at = stream.next_gap(&spec.arrival, 0).unwrap_or(u64::MAX);
            Tenant { stream, next_at }
        })
        .collect()
}

/// Draws the next arrival due at `now` — earliest first, ties to the lower
/// tenant id, as `serve` admits them: tenant index, op and line.
fn pop_due(
    tenants: &mut [Tenant],
    specs: &[TenantSpec],
    now: u64,
    lines: u64,
) -> Option<(usize, Op, u64)> {
    let ti = tenants
        .iter()
        .enumerate()
        .filter(|(_, t)| t.next_at <= now)
        .min_by_key(|(i, t)| (t.next_at, *i))
        .map(|(i, _)| i)?;
    let t = &mut tenants[ti];
    let arrived_at = t.next_at;
    let (op, line) = t.stream.next_op(&specs[ti], lines);
    t.next_at = match t.stream.next_gap(&specs[ti].arrival, arrived_at) {
        Some(gap) => arrived_at.saturating_add(gap.max(1)),
        None => u64::MAX,
    };
    Some((ti, op, line))
}

/// Requests `serve` generates by its horizon, from a replay of the arrival
/// process alone (no memory system). Arrivals due exactly at the horizon
/// count: `serve` admits them on its final landing.
pub fn count_arrivals(config: &SystemConfig, sc: &ServeConfig) -> u64 {
    let (lines, line_bytes) = line_space(config);
    let mut n = 0;
    if sc.tenants.is_empty() {
        let mut at = 0u64;
        while n < sc.ops && at <= sc.horizon {
            let (_, _, gap) = legacy_op(sc.seed, n, lines, line_bytes);
            n += 1;
            at = at.saturating_add(gap.max(1));
        }
    } else {
        let mut tenants = fresh_tenants(sc);
        while n < sc.ops {
            let now = tenants.iter().map(|t| t.next_at).min().unwrap_or(u64::MAX);
            if now > sc.horizon || pop_due(&mut tenants, &sc.tenants, now, lines).is_none() {
                break;
            }
            n += 1;
        }
    }
    n
}

/// One refused request waiting out its backoff.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    retry_at: u64,
    op_index: u64,
    attempts: u32,
    op: Op,
    addr: PhysAddr,
    tenant: u16,
}

/// `serve`'s reject-with-backoff policy for a refused request.
fn requeue(entry: Backoff, now: u64, sc: &ServeConfig, rejected: &mut u64) -> Backoff {
    *rejected += 1;
    let delay = sc
        .backoff_base
        .saturating_mul(1u64 << entry.attempts.min(32))
        .min(sc.backoff_max.max(1));
    Backoff {
        retry_at: now + delay.max(1),
        attempts: entry.attempts.saturating_add(1),
        ..entry
    }
}

/// The layer a stretch of mirror time belongs to.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// Arrival generation (`fgnvm-workloads`, legacy generator).
    Gen,
    /// `MemorySystem::tick_to`.
    Tick,
    /// `MemorySystem::next_event_at`.
    Calendar,
    /// `MemorySystem::enqueue_for`.
    Enqueue,
    /// Closing telemetry windows.
    Telemetry,
    /// End-of-run exposition.
    Export,
    /// `MemorySystem::save_snapshot` and a checksummed frame around it.
    Encode,
    /// Checkpoint file write and rename.
    Write,
    /// The driver's landing, backoff and admission blocks, less the
    /// layer calls inside them.
    Driver,
}

/// Host time and counts of one mirror run, per layer.
///
/// Time is booked in timed blocks. [`open`](Self::open) starts a block and
/// books nothing; inside it, each [`charge`](Self::charge) books the time
/// since the previous clock read to a layer, so one read separates two
/// spans. What runs between blocks — completion tallies, health checks,
/// checkpoint and window tests, loop control — is never booked, so the
/// run's unattributed time is what the blocks miss.
#[derive(Debug, Clone, Copy)]
struct Times {
    last: Instant,
    gen_s: f64,
    tick_s: f64,
    tick_calls: u64,
    tick_cycles: u64,
    calendar_s: f64,
    calendar_calls: u64,
    enqueue_s: f64,
    enqueue_calls: u64,
    enqueue_refused: u64,
    telemetry_s: f64,
    export_s: f64,
    encode_s: f64,
    write_s: f64,
    driver_s: f64,
    snapshots: u64,
    backoff_peak: usize,
    rejected: u64,
}

impl Times {
    fn start() -> Times {
        Times {
            last: Instant::now(),
            gen_s: 0.0,
            tick_s: 0.0,
            tick_calls: 0,
            tick_cycles: 0,
            calendar_s: 0.0,
            calendar_calls: 0,
            enqueue_s: 0.0,
            enqueue_calls: 0,
            enqueue_refused: 0,
            telemetry_s: 0.0,
            export_s: 0.0,
            encode_s: 0.0,
            write_s: 0.0,
            driver_s: 0.0,
            snapshots: 0,
            backoff_peak: 0,
            rejected: 0,
        }
    }

    /// Starts a timed block: the time since the previous clock read stays
    /// unattributed.
    fn open(&mut self) {
        self.last = Instant::now();
    }

    /// Books the host time since the previous clock read to `layer`.
    fn charge(&mut self, layer: Layer) {
        let now = Instant::now();
        let dt = (now - self.last).as_secs_f64();
        self.last = now;
        *match layer {
            Layer::Gen => &mut self.gen_s,
            Layer::Tick => &mut self.tick_s,
            Layer::Calendar => &mut self.calendar_s,
            Layer::Enqueue => &mut self.enqueue_s,
            Layer::Telemetry => &mut self.telemetry_s,
            Layer::Export => &mut self.export_s,
            Layer::Encode => &mut self.encode_s,
            Layer::Write => &mut self.write_s,
            Layer::Driver => &mut self.driver_s,
        } += dt;
    }

    /// Every layer's time.
    fn attributed(&self) -> f64 {
        self.gen_s
            + self.tick_s
            + self.calendar_s
            + self.enqueue_s
            + self.telemetry_s
            + self.export_s
            + self.encode_s
            + self.write_s
            + self.driver_s
    }

    /// Time in the memory system's hook-carrying entry points.
    fn hooked(&self) -> f64 {
        self.tick_s + self.enqueue_s
    }

    fn enqueue(&mut self, mem: &mut MemorySystem, op: Op, addr: PhysAddr, tenant: u16) -> bool {
        self.charge(Layer::Driver);
        let accepted = mem.enqueue_for(op, addr, tenant).is_some();
        self.charge(Layer::Enqueue);
        self.enqueue_calls += 1;
        self.enqueue_refused += u64::from(!accepted);
        accepted
    }
}

/// What a mirror run leaves behind.
#[derive(Debug)]
struct Mirror {
    t: Times,
    wall_s: f64,
    mem: MemorySystem,
    metrics_json: String,
    last_snapshot: Option<Vec<u8>>,
    generated: u64,
}

/// Closes every telemetry window ending at or before `now`, building each
/// window record and burning per-tenant SLOs as `serve` does.
fn close_windows(
    mem: &mut MemorySystem,
    sc: &ServeConfig,
    seen: &mut u64,
    slo: &mut [(u64, u64)],
    now: u64,
) {
    mem.sample_telemetry_gauges();
    let Some(ts) = mem.observer_mut().and_then(|o| o.timeseries_mut()) else {
        return;
    };
    ts.roll_to(now);
    let win = ts.window_cycles();
    let Some(ts) = mem.observer().and_then(|o| o.timeseries()) else {
        return;
    };
    let first_unseen = *seen;
    for w in ts.windows().filter(|w| w.index >= first_unseen) {
        black_box(w.to_json(win, (w.index + 1) * win, false));
        *seen = w.index + 1;
        for (i, (spec, burn)) in sc.tenants.iter().zip(slo.iter_mut()).enumerate() {
            if spec.slo_read_p99 == 0 {
                continue;
            }
            burn.0 += 1;
            if w.tenants
                .get(i)
                .is_some_and(|s| s.read_latency.percentile(0.99) > spec.slo_read_p99)
            {
                burn.1 += 1;
            }
        }
    }
}

/// Runs the mirror under `sinks`, writing checkpoints into `dir` if given.
/// Checkpoint and telemetry-window landings happen whatever the sinks, so
/// variants differ from `serve` only in the hooks they carry.
fn mirror(
    config: SystemConfig,
    sc: &ServeConfig,
    sinks: Sinks,
    dir: Option<&Path>,
) -> Result<Mirror, String> {
    if sc.policy != AdmissionPolicy::Reject {
        return Err("the serve mirror covers the reject admission policy only".into());
    }
    let t_wall = Instant::now();
    let mut mem = crate::workload::serve_system(config, sc, sinks)?;
    // Set-up before the first cycle is left unattributed.
    let mut t = Times::start();
    let mut tenants = fresh_tenants(sc);
    t.charge(Layer::Gen);
    let (lines, line_bytes) = line_space(&config);
    let tenant_mode = !sc.tenants.is_empty();
    let win = sc.telemetry_window;
    let telemetry = mem.observer().and_then(|o| o.timeseries()).is_some();
    let mut next_op = 0u64;
    let mut next_arrival_at = 0u64;
    let mut backoff: Vec<Backoff> = Vec::new();
    let mut last_progress = 0u64;
    let mut completions = 0u64;
    let mut tenant_completions = vec![0u64; sc.tenants.len()];
    let mut windows_seen = 0u64;
    let mut slo = vec![(0u64, 0u64); sc.tenants.len()];
    let mut last_snapshot = None;
    let mut out: Vec<Completion> = Vec::new();
    loop {
        // Landing: the next cycle anything interesting happens.
        t.open();
        let now = mem.now().raw();
        if now >= sc.horizon {
            break;
        }
        let next_arrival = if tenant_mode {
            tenants.iter().map(|t| t.next_at).min().unwrap_or(u64::MAX)
        } else {
            next_arrival_at
        };
        let arrivals_left = next_op < sc.ops && next_arrival < u64::MAX;
        let work_pending = !mem.is_idle() || !backoff.is_empty();
        if !arrivals_left && !work_pending {
            break;
        }
        let mut target = sc.horizon;
        if arrivals_left {
            target = target.min(next_arrival);
        }
        if let Some(retry) = backoff.iter().map(|b| b.retry_at).min() {
            target = target.min(retry);
        }
        if let Some(intervals) = now.checked_div(sc.checkpoint_every) {
            target = target.min((intervals + 1) * sc.checkpoint_every);
        }
        if sc.watchdog_cycles > 0 && work_pending {
            target = target.min(last_progress.saturating_add(sc.watchdog_cycles));
        }
        if let Some(windows) = now.checked_div(win) {
            target = target.min((windows + 1).saturating_mul(win));
        }
        if !mem.is_idle() {
            t.charge(Layer::Driver);
            let ev = mem.next_event_at();
            t.charge(Layer::Calendar);
            t.calendar_calls += 1;
            if let Some(ev) = ev {
                target = target.min(ev.raw().max(now + 1));
            }
        }

        out.clear();
        t.charge(Layer::Driver);
        if target > now {
            mem.tick_to(Cycle::new(target), &mut out);
            t.charge(Layer::Tick);
            t.tick_calls += 1;
            t.tick_cycles += target - now;
            completions += out.len() as u64;
            if tenant_mode {
                for c in &out {
                    if let Some(n) = tenant_completions.get_mut(usize::from(c.tenant)) {
                        *n += 1;
                    }
                }
            }
            if let Some(last) = out.iter().map(|c| c.finished.raw()).max() {
                last_progress = last_progress.max(last);
            }
        }
        let now = mem.now().raw();

        // Health checks: watchdog and the wear-out ladder.
        let work_pending = !mem.is_idle() || !backoff.is_empty();
        if sc.watchdog_cycles > 0
            && work_pending
            && now.saturating_sub(last_progress) >= sc.watchdog_cycles
        {
            return Err(format!(
                "watchdog: no progress for {} cycles at cycle {now}",
                sc.watchdog_cycles
            ));
        }
        mem.check_capacity().map_err(|e| e.to_string())?;

        if telemetry && now > 0 && now.is_multiple_of(win) {
            t.open();
            close_windows(&mut mem, sc, &mut windows_seen, &mut slo, now);
            t.charge(Layer::Telemetry);
        }

        // Re-admit due backoff entries, oldest op first.
        t.open();
        backoff.sort_unstable_by_key(|b| (b.retry_at, b.op_index));
        let mut still_waiting = Vec::new();
        for entry in std::mem::take(&mut backoff) {
            if entry.retry_at > now {
                still_waiting.push(entry);
            } else if t.enqueue(&mut mem, entry.op, entry.addr, entry.tenant) {
                last_progress = last_progress.max(now);
            } else {
                still_waiting.push(requeue(entry, now, sc, &mut t.rejected));
            }
        }
        backoff = still_waiting;

        // Admit new arrivals that are due.
        while next_op < sc.ops {
            t.charge(Layer::Driver);
            let due = if tenant_mode {
                pop_due(&mut tenants, &sc.tenants, now, lines)
                    .map(|(ti, op, line)| (ti as u16, op, PhysAddr::new(line * line_bytes)))
            } else if next_arrival_at <= now {
                let (op, addr, gap) = legacy_op(sc.seed, next_op, lines, line_bytes);
                next_arrival_at = next_arrival_at.saturating_add(gap.max(1));
                Some((0, op, addr))
            } else {
                None
            };
            t.charge(Layer::Gen);
            let Some((tenant, op, addr)) = due else {
                break;
            };
            let op_index = next_op;
            next_op += 1;
            if t.enqueue(&mut mem, op, addr, tenant) {
                last_progress = last_progress.max(now);
            } else {
                let entry = Backoff {
                    retry_at: now,
                    op_index,
                    attempts: 0,
                    op,
                    addr,
                    tenant,
                };
                backoff.push(requeue(entry, now, sc, &mut t.rejected));
            }
        }
        t.charge(Layer::Driver);
        t.backoff_peak = t.backoff_peak.max(backoff.len());

        // Periodic checkpoint at absolute multiples of the interval.
        if sc.checkpoint_every > 0 && now > 0 && now.is_multiple_of(sc.checkpoint_every) {
            if let Some(dir) = dir {
                t.open();
                let blob = mem.save_snapshot();
                // `serve` frames the snapshot in a checksummed checkpoint
                // behind a few hundred bytes of driver state, which the
                // mirror leaves out.
                let mut frame = SnapshotWriter::new();
                frame.bytes(&blob);
                let framed = frame.finish();
                t.charge(Layer::Encode);
                let name = format!("ckpt-{now:012}.ckpt");
                let tmp = dir.join(format!("{name}.tmp"));
                std::fs::write(&tmp, &framed)
                    .and_then(|()| std::fs::rename(&tmp, dir.join(&name)))
                    .map_err(|e| format!("{}: {e}", dir.display()))?;
                t.charge(Layer::Write);
                t.snapshots += 1;
                last_snapshot = Some(blob);
            }
        }
    }
    // Every exit leaves the loop from the landing block.
    t.charge(Layer::Driver);

    if telemetry {
        // End-of-run flush and the final partial window.
        let now = mem.now().raw();
        close_windows(&mut mem, sc, &mut windows_seen, &mut slo, now);
        if let Some(ts) = mem.observer().and_then(|o| o.timeseries()) {
            let cur = ts.current();
            if now > cur.index * win {
                let mut partial = cur.clone();
                partial.read_queue = mem.read_queue_len() as u64;
                partial.write_queue = mem.write_queue_len() as u64;
                partial.draining = mem.draining_channels() as u64;
                black_box(partial.to_json(win, now, true));
            }
        }
        t.charge(Layer::Telemetry);
    }

    // Exposition: the flight post-mortem strings `serve` builds at every
    // run end, the metrics registry, and its JSON and Prometheus forms.
    if let Some(flight) = mem.observer().and_then(|o| o.flight()) {
        black_box(flight.to_json());
        black_box(fgnvm_sim::viz::render_flight(flight));
    }
    let mut reg = Registry::new();
    mem.export_metrics(&mut reg);
    if let Some(obs) = mem.observer() {
        obs.export_metrics(&mut reg);
    }
    reg.set_counter("serve.completions", completions);
    reg.set_counter("serve.rejected", t.rejected);
    reg.set_counter("serve.windows_emitted", windows_seen);
    for (i, (done, burn)) in tenant_completions.iter().zip(&slo).enumerate() {
        reg.set_counter(&format!("serve.tenant.{i}.completions"), *done);
        reg.set_counter(&format!("serve.tenant.{i}.slo_windows"), burn.0);
        reg.set_counter(&format!("serve.tenant.{i}.slo_violations"), burn.1);
    }
    let metrics_json = reg.to_json();
    black_box(prom::render(&reg));
    t.charge(Layer::Export);

    Ok(Mirror {
        t,
        wall_s: since(t_wall),
        mem,
        metrics_json,
        last_snapshot,
        generated: next_op,
    })
}

/// The `mem.*` entries of a metrics-registry JSON document.
fn mem_entries(metrics_json: &str) -> Result<BTreeMap<String, json::Value>, String> {
    let mut entries = registry(metrics_json)?;
    entries.retain(|k, _| k.starts_with("mem."));
    Ok(entries)
}

/// One traced serve repetition: `fgnvm_sim::serve` for reference, the
/// mirror with serve's sinks, the mirror with the observer off, and — when
/// the workload audits — the mirror without the audit. Checks that only
/// need the observed mirror run first, so its memory system is gone
/// before the next one is built.
pub fn serve_traced_rep(w: Workload, spec: &ServeSpec, seed: u64) -> Result<Rep, String> {
    let ckpt = spec.checkpoint_every > 0;
    let ref_dir = ScratchDir::new(&format!("{}-ref", w.name()))?;
    let reference = serve_run(spec, seed, Some(ref_dir.path()).filter(|_| ckpt))?;
    let (config, sc) = (reference.config, &reference.sc);
    let mirror_dir = ScratchDir::new(&format!("{}-mirror", w.name()))?;
    let Mirror {
        t: o,
        wall_s,
        mem,
        metrics_json,
        last_snapshot,
        generated,
    } = mirror(
        config,
        sc,
        Sinks::serve(sc),
        Some(mirror_dir.path()).filter(|_| ckpt),
    )?;
    drop(mirror_dir);

    let mut rep = Rep::with_layers();
    rep.set("workloads.gen_s", o.gen_s);
    rep.set("mem.tick_s", o.tick_s);
    rep.set("mem.tick_calls", o.tick_calls as f64);
    rep.set(
        "mem.cycles_per_call",
        o.tick_cycles as f64 / o.tick_calls.max(1) as f64,
    );
    rep.set("mem.calendar_s", o.calendar_s);
    rep.set("mem.calendar_calls", o.calendar_calls as f64);
    rep.set("mem.enqueue_s", o.enqueue_s);
    rep.set("mem.enqueue_calls", o.enqueue_calls as f64);
    rep.set(
        "mem.enqueue_refused_frac",
        o.enqueue_refused as f64 / o.enqueue_calls.max(1) as f64,
    );
    rep.set("obs.telemetry_s", o.telemetry_s);
    rep.set("obs.export_s", o.export_s);
    rep.set("snapshot.encode_s", o.encode_s);
    rep.set("snapshot.count", o.snapshots as f64);
    rep.set("snapshot.write_s", o.write_s);
    rep.set("serve.driver_s", o.driver_s);
    rep.set("serve.backoff_peak", o.backoff_peak as f64);
    rep.set("serve.rejected", o.rejected as f64);
    rep.set("unattributed_frac", (wall_s - o.attributed()) / wall_s);
    rep.set("trace_overhead_frac", wall_s / reference.wall_s - 1.0);

    let theirs = mem_entries(&reference.report.metrics_json)?;
    let ours = mem_entries(&metrics_json)?;
    let differing: Vec<&String> = theirs
        .keys()
        .chain(ours.keys())
        .filter(|k| theirs.get(*k) != ours.get(*k))
        .collect();
    rep.gate(
        "mirror-mem-equal",
        !theirs.is_empty() && differing.is_empty(),
        format!(
            "{} mem.* counters from serve, {} from the mirror; differing: {differing:?}",
            theirs.len(),
            ours.len()
        ),
    );
    let replayed = count_arrivals(&config, sc);
    rep.gate(
        "arrival-replay-equal",
        replayed == generated,
        format!("arrival replay counts {replayed}, the mirror generated {generated}"),
    );

    let to = Instant::now();
    let oracle = Oracle::new(&config).map_err(|e| e.to_string())?;
    let violations: usize = (0..config.geometry.channels())
        .map(|ch| {
            let r = oracle.audit(mem.command_log(ch));
            r.violations.len() + r.protocol.violations.len()
        })
        .sum();
    rep.set("check.oracle_s", since(to));
    rep.set("check.violations", violations as f64);
    rep.gate(
        "oracle-clean",
        violations == 0,
        format!("{violations} oracle/protocol violation(s) in the final command log"),
    );
    let trace_bytes = mem.observer().map_or(0, |obs| obs.trace_json().len());
    rep.set("obs.trace_mb", trace_bytes as f64 / 1e6);
    drop(mem);

    if ckpt {
        let files = ref_dir.checkpoints()?;
        rep.set("snapshot.mb_max", largest_file_mb(&files)?);
        let last = files.last().ok_or("serve wrote no checkpoint")?;
        let td = Instant::now();
        let (_, restored) =
            fgnvm_sim::load_checkpoint_file(config, last).map_err(|e| e.to_string())?;
        rep.set("snapshot.decode_s", since(td));
        let same = last_snapshot.as_deref() == Some(restored.save_snapshot().as_slice());
        rep.gate(
            "mirror-snapshot-equal",
            same,
            format!(
                "mirror's last save_snapshot() vs the system restored from {}",
                last.display()
            ),
        );
    }
    drop(last_snapshot);

    let bare = mirror(
        config,
        sc,
        Sinks {
            observer: false,
            audit: false,
        },
        None,
    )?
    .t;
    rep.set("mem.tick_unobserved_s", bare.tick_s);
    rep.set("obs.hooks_s", o.hooked() - bare.hooked());
    if sc.audit {
        let unaudited = mirror(
            config,
            sc,
            Sinks {
                observer: true,
                audit: false,
            },
            None,
        )?
        .t;
        rep.set("obs.audit_s", o.hooked() - unaudited.hooked());
    }
    Ok(rep)
}
