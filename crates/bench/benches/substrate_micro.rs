//! Microbenchmarks of the substrate extensions: DRAM bank, Start-Gap wear
//! leveling, write pausing, and the prefetching core.
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench substrate_micro
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fgnvm_cpu::{Core, CoreConfig, RobCore};
use fgnvm_mem::{MemorySystem, StartGap};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::PhysAddr;
use fgnvm_workloads::profile;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_micro");

    group.throughput(Throughput::Elements(500));
    group.bench_function("dram_500_random_reads", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::dram()).unwrap();
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

    group.throughput(Throughput::Elements(1000));
    group.bench_function("start_gap_map_1k", |b| {
        let sg = StartGap::new(32_767, 100).unwrap();
        b.iter(|| {
            let mut acc = 0u64;
            for row in 0..1000u32 {
                acc += u64::from(sg.map(black_box(row)));
            }
            black_box(acc)
        })
    });

    group.throughput(Throughput::Elements(200));
    group.bench_function("leveled_200_writes", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
            mem.enable_wear_tracking();
            mem.enable_start_gap(16).unwrap();
            for i in 0..200u64 {
                while mem.enqueue(Op::Write, PhysAddr::new(i * 8192)).is_none() {
                    mem.tick();
                }
            }
            mem.run_until_idle(10_000_000);
            black_box(mem.wear().unwrap().total_writes())
        })
    });

    group.throughput(Throughput::Elements(200));
    group.bench_function("pausing_mixed_200", |b| {
        b.iter(|| {
            let mut mem =
                MemorySystem::new(SystemConfig::fgnvm_with_pausing(8, 8).unwrap()).unwrap();
            for i in 0..200u64 {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                while mem
                    .enqueue(op, PhysAddr::new((i * 0x9E37_79B9) & 0xFFF_FFC0))
                    .is_none()
                {
                    mem.tick();
                }
            }
            black_box(mem.run_until_idle(10_000_000).len())
        })
    });

    group.sample_size(20);
    group.bench_function("prefetching_core_run", |b| {
        let trace = profile("libquantum_like")
            .unwrap()
            .generate(Geometry::default(), 7, 800);
        let core = Core::new(CoreConfig::nehalem_like()).unwrap();
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
            black_box(core.run(&trace, &mut mem))
        })
    });

    // The windowed model vs the structural ROB model: simulation-speed cost
    // of structural fidelity.
    group.bench_function("windowed_core_800ops", |b| {
        let trace = profile("milc_like")
            .unwrap()
            .generate(Geometry::default(), 7, 800);
        let core = Core::new(CoreConfig::no_prefetch()).unwrap();
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
            black_box(core.run(&trace, &mut mem))
        })
    });
    group.bench_function("rob_core_800ops", |b| {
        let trace = profile("milc_like")
            .unwrap()
            .generate(Geometry::default(), 7, 800);
        let core = RobCore::new(CoreConfig::no_prefetch()).unwrap();
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
            black_box(core.run(&trace, &mut mem))
        })
    });
    group.bench_function("multicore_4x400ops", |b| {
        let traces: Vec<_> = ["mcf_like", "lbm_like", "milc_like", "omnetpp_like"]
            .iter()
            .map(|n| profile(n).unwrap().generate(Geometry::default(), 7, 400))
            .collect();
        let core = Core::new(CoreConfig::no_prefetch()).unwrap();
        b.iter(|| {
            let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
            black_box(core.run_shared(&traces, &mut mem).throughput())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
