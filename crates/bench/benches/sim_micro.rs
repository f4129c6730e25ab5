//! Microbenchmarks of the simulator's hot paths: address decode, bank
//! planning, controller ticks, and trace generation. These guard the
//! simulator's own performance (a slow simulator caps experiment sizes).
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench sim_micro
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fgnvm_mem::MemorySystem;
use fgnvm_types::address::{AddressMapper, MappingScheme};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::PhysAddr;
use fgnvm_workloads::profile;

/// Drains a write-heavy burst (the workload where event-driven
/// fast-forwarding pays most: long programming windows with nothing
/// issuable) and returns the simulated cycle count.
fn write_drain(fast_forward: bool) -> u64 {
    write_drain_with(fast_forward, false, false)
}

/// [`write_drain`] with the observability layer (and optionally the
/// windowed telemetry engine at the serve default of 10k-cycle windows)
/// enabled, so the benchmark can quantify both overheads and prove the
/// default (observer off) path is untouched.
fn write_drain_with(fast_forward: bool, observed: bool, telemetry: bool) -> u64 {
    let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
    mem.set_fast_forward(fast_forward);
    if observed {
        mem.enable_observer();
    }
    if telemetry {
        mem.enable_telemetry(10_000, 128, 256);
    }
    let mut id = 0u64;
    for _wave in 0..12 {
        for _ in 0..32 {
            // Distinct lines of a few rows in one bank: writes serialize on
            // the long program pulse, so each drain is mostly dead cycles.
            let addr = PhysAddr::new(((id % 8) << 13) | (((id / 8) % 16) << 6));
            id += 1;
            while mem.enqueue(Op::Write, addr).is_none() {
                mem.tick();
            }
        }
        mem.run_until_idle(10_000_000);
    }
    mem.now().raw()
}

/// Measures simulated cycles per wall-clock second for one mode
/// (best of `reps` to shed scheduler noise).
fn cycles_per_sec(fast_forward: bool, reps: u32) -> (u64, f64) {
    let mut best = 0.0f64;
    let mut cycles = 0;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        cycles = black_box(write_drain(fast_forward));
        let rate = cycles as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    (cycles, best)
}

/// Seconds for `drains` back-to-back observed write drains, with or
/// without the telemetry engine.
fn observed_secs(telemetry: bool, drains: u32) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..drains {
        black_box(write_drain_with(true, true, telemetry));
    }
    start.elapsed().as_secs_f64()
}

/// Telemetry's share of the observed run's wall time, and the observed
/// and telemetry rates in simulated cycles per second. A single drain
/// takes well under a millisecond, where scheduler noise swamps a few
/// percent, so each sample repeats the drain for at least 10 ms; the
/// two modes alternate in 21 pairs (each pair in the other order from
/// the last), and the median pair's fraction is reported.
fn telemetry_overhead(cycles: u64) -> (f64, f64, f64) {
    const PAIRS: usize = 21;
    // Doubling until the faster mode takes 10 ms also warms both up.
    let mut drains = 1;
    while observed_secs(false, drains) < 0.010 {
        drains *= 2;
    }
    let mut observed = Vec::with_capacity(PAIRS);
    let mut telemetry = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        if pair % 2 == 0 {
            observed.push(observed_secs(false, drains));
            telemetry.push(observed_secs(true, drains));
        } else {
            telemetry.push(observed_secs(true, drains));
            observed.push(observed_secs(false, drains));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let fractions = observed.iter().zip(&telemetry).map(|(o, t)| 1.0 - o / t);
    let rate = |secs: f64| (cycles * u64::from(drains)) as f64 / secs;
    (
        median(fractions.collect()),
        rate(median(observed)),
        rate(median(telemetry)),
    )
}

/// One sweep-executor job: several fast-forwarded drains, large enough
/// (a few ms) that worker spawn/steal overhead is measurement noise.
/// Returns simulated cycles.
fn sweep_job() -> u64 {
    (0..8).map(|_| write_drain(true)).sum()
}

/// Aggregate simulated cycles per second of a 16-job sweep through the
/// work-stealing executor at the given `--jobs` cap.
fn sweep_rate(jobs_cap: usize) -> f64 {
    fgnvm_sim::runner::set_jobs(jobs_cap);
    let items = [(); 16];
    let start = std::time::Instant::now();
    let total: u64 = fgnvm_sim::run_jobs(&items, |_, ()| sweep_job())
        .into_iter()
        .sum();
    let rate = total as f64 / start.elapsed().as_secs_f64();
    fgnvm_sim::runner::set_jobs(0);
    rate
}

/// Measures the stepped-vs-fast-forward throughput ratio plus the sweep
/// executor's core scaling, and records both in `BENCH_sim.json` at the
/// workspace root. The stepped and fast-forwarded runs must simulate the
/// *same* number of cycles (they are bit-identical by construction), and
/// the skip machinery has to buy at least the 5x the design is sized for.
fn emit_bench_sim_json() {
    // More reps on the fast side: each rep is ~100 µs, so the best-of is
    // far noisier than the multi-ms stepped reps without them.
    let (stepped_cycles, stepped_rate) = cycles_per_sec(false, 3);
    let (ff_cycles, ff_rate) = cycles_per_sec(true, 9);
    assert_eq!(
        stepped_cycles, ff_cycles,
        "fast-forward diverged from stepping on the benchmark workload"
    );
    // The observability layer must be strictly passive: with the observer
    // (and the telemetry engine) enabled the run simulates the exact same
    // number of cycles.
    let observed_cycles = write_drain_with(true, true, false);
    assert_eq!(
        stepped_cycles, observed_cycles,
        "enabling the observer perturbed the benchmark workload"
    );
    let telemetry_cycles = write_drain_with(true, true, true);
    assert_eq!(
        stepped_cycles, telemetry_cycles,
        "enabling telemetry perturbed the benchmark workload"
    );
    let speedup = ff_rate / stepped_rate;
    // Telemetry overhead on top of the observer. A median can land
    // slightly negative, which means "unmeasurably small", not that
    // telemetry sped the simulator up: the headline clamps at zero and
    // the raw value is recorded alongside it so the CI guard can
    // distinguish noise-floor readings from real regressions.
    let (telemetry_overhead_raw, observed_rate, telemetry_rate) =
        telemetry_overhead(telemetry_cycles);
    let telemetry_overhead = telemetry_overhead_raw.max(0.0);
    // Sweep-executor core scaling: the same 16-job sweep at one worker,
    // two workers, and the host's full parallelism. Efficiency is the
    // per-worker fraction of linear scaling retained at full width.
    let workers_max = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let sweep_rate_1 = sweep_rate(1);
    let sweep_rate_2 = sweep_rate(2);
    let sweep_rate_max = sweep_rate(workers_max);
    // A single-worker host cannot measure multi-core scaling: every rate
    // above is the same serial executor, and an "efficiency" derived from
    // them is noise dressed up as signal. Record null so downstream
    // consumers (the CI provenance guard) know the field was unmeasurable
    // rather than silently archiving a fiction.
    let scaling_efficiency = if workers_max > 1 {
        format!(
            "{:.2}",
            sweep_rate_max / (sweep_rate_1 * workers_max as f64)
        )
    } else {
        "null".to_string()
    };
    // Provenance block shared with the run ledger (see fgnvm_sim::profile):
    // schema version, wall timestamp, commit hash, and configuration hash,
    // so archived BENCH_sim.json artifacts are attributable to a build.
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let git_sha = fgnvm_sim::profile::git_sha();
    let config_hash = fgnvm_sim::profile::fnv1a_hex(
        format!("{:?}", SystemConfig::fgnvm(8, 2).unwrap()).as_bytes(),
    );
    let json = format!(
        "{{\n  \"schema_version\": {},\n  \
         \"timestamp\": {timestamp},\n  \
         \"git_sha\": \"{git_sha}\",\n  \
         \"config_hash\": \"{config_hash}\",\n  \
         \"benchmark\": \"sim_micro.write_drain\",\n  \
         \"workload\": \"write-heavy burst, fgnvm 8x2, 12 waves x 32 writes\",\n  \
         \"simulated_cycles\": {stepped_cycles},\n  \
         \"stepped_cycles_per_sec\": {stepped_rate:.0},\n  \
         \"fast_forward_cycles_per_sec\": {ff_rate:.0},\n  \
         \"speedup\": {speedup:.1},\n  \
         \"observed_cycles_per_sec\": {observed_rate:.0},\n  \
         \"telemetry_cycles_per_sec\": {telemetry_rate:.0},\n  \
         \"telemetry_overhead_frac\": {telemetry_overhead:.3},\n  \
         \"telemetry_overhead_frac_raw\": {telemetry_overhead_raw:.3},\n  \
         \"sweep_jobs1_cycles_per_sec\": {sweep_rate_1:.0},\n  \
         \"sweep_jobs2_cycles_per_sec\": {sweep_rate_2:.0},\n  \
         \"sweep_jobs_max_cycles_per_sec\": {sweep_rate_max:.0},\n  \
         \"host_parallelism\": {workers_max},\n  \
         \"sweep_workers_max\": {workers_max},\n  \
         \"sweep_scaling_efficiency\": {scaling_efficiency}\n}}\n",
        fgnvm_sim::SCHEMA_VERSION
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sim.json");
    println!("BENCH_sim.json: {json}");
    assert!(
        speedup >= 5.0,
        "fast-forward speedup {speedup:.1}x fell below the 5x floor"
    );
    // Loose backstop: the telemetry engine folds into existing hooks, so
    // anything well beyond its measured share is a hot-path regression.
    // (Measured at 4–9%, median 6.5%, over 16 records on a shared 2-vCPU
    // host.)
    assert!(
        telemetry_overhead <= 0.10,
        "telemetry overhead {telemetry_overhead:.3} of wall rate exceeds the 10% backstop"
    );
}

fn bench(c: &mut Criterion) {
    emit_bench_sim_json();
    let geom = Geometry::default();
    let mapper = AddressMapper::new(geom, MappingScheme::default());

    let mut group = c.benchmark_group("sim_micro");
    group.throughput(Throughput::Elements(1));
    group.bench_function("address_decode", |b| {
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(mapper.decode(PhysAddr::new(a & 0xFFF_FFC0)))
        })
    });

    group.throughput(Throughput::Elements(1000));
    group.bench_function("memory_tick_1k_idle", |b| {
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
        let mut out = Vec::new();
        b.iter(|| {
            for _ in 0..1000 {
                mem.tick_into(&mut out);
            }
            black_box(out.len())
        })
    });

    group.throughput(Throughput::Elements(500));
    group.bench_function("memory_500_random_reads", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
            for i in 0..500u64 {
                while mem
                    .enqueue(Op::Read, PhysAddr::new((i * 0x9E37_79B9) & 0xFFF_FFC0))
                    .is_none()
                {
                    mem.tick();
                }
            }
            black_box(mem.run_until_idle(10_000_000).len())
        })
    });

    group.throughput(Throughput::Elements(400));
    group.bench_function("write_drain_stepped", |b| b.iter(|| write_drain(false)));
    group.bench_function("write_drain_fast_forward", |b| b.iter(|| write_drain(true)));
    group.bench_function("write_drain_observed", |b| {
        b.iter(|| write_drain_with(true, true, false))
    });
    group.bench_function("write_drain_telemetry", |b| {
        b.iter(|| write_drain_with(true, true, true))
    });

    group.throughput(Throughput::Elements(1000));
    group.bench_function("trace_generation_1k", |b| {
        let p = profile("milc_like").unwrap();
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            black_box(p.generate(geom, seed, 1000).len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
