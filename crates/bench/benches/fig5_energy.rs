//! Regenerates **Figure 5** (energy relative to the baseline for 8×2, 8×8,
//! 8×32, and the Perfect bound) and benchmarks the energy-accounting path.
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench fig5_energy
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fgnvm_bench::regenerate;
use fgnvm_mem::{EnergyModel, MemorySystem};
use fgnvm_sim::runner::ExperimentParams;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::request::Op;
use fgnvm_types::time::CycleCount;
use fgnvm_types::PhysAddr;

fn bench(c: &mut Criterion) {
    // Regenerate the figure once with moderate trace lengths.
    let params = ExperimentParams {
        ops: 2500,
        ..ExperimentParams::full()
    };
    println!("{}", regenerate("fig5", &params).render());

    // Benchmark energy accounting on a live memory system.
    let mut group = c.benchmark_group("fig5_kernel");
    for cds in [2u32, 8, 32] {
        let config = SystemConfig::fgnvm(8, cds).unwrap();
        group.bench_with_input(BenchmarkId::new("sim_1k_reads", cds), &config, |b, cfg| {
            b.iter(|| {
                let mut mem = MemorySystem::new(*cfg).expect("config valid");
                for i in 0..1000u64 {
                    while mem.enqueue(Op::Read, PhysAddr::new(i * 131_072)).is_none() {
                        mem.tick();
                    }
                }
                mem.run_until_idle(10_000_000);
                black_box(mem.energy())
            })
        });
    }
    let model = EnergyModel::new(&SystemConfig::baseline());
    let stats = fgnvm_bank::BankStats {
        sensed_bits: 1 << 30,
        written_bits: 1 << 24,
        ..fgnvm_bank::BankStats::new()
    };
    group.bench_function("breakdown", |b| {
        b.iter(|| black_box(model.breakdown(black_box(&stats), CycleCount::new(1_000_000))))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
