//! Regenerates **Figure 4** (relative IPC of FgNVM, 128 banks, and
//! Multi-Issue over the baseline) and benchmarks one workload × design
//! simulation, the kernel behind every bar of the figure.
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench fig4_speedup
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fgnvm_bench::regenerate;
use fgnvm_sim::runner::{run_one, ExperimentParams};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::profile;

fn bench(c: &mut Criterion) {
    // Regenerate the figure once with moderate trace lengths.
    let params = ExperimentParams {
        ops: 2500,
        ..ExperimentParams::full()
    };
    println!("{}", regenerate("fig4", &params).render());

    // Benchmark the per-bar kernel.
    let bench_params = ExperimentParams {
        ops: 800,
        ..ExperimentParams::quick()
    };
    let trace = profile("milc_like")
        .unwrap()
        .generate(Geometry::default(), 7, 800);
    let mut group = c.benchmark_group("fig4_kernel");
    group.sample_size(20);
    for (name, config) in [
        ("baseline", SystemConfig::baseline()),
        ("fgnvm_8x2", SystemConfig::fgnvm(8, 2).unwrap()),
        (
            "many_banks",
            SystemConfig::many_banks_matching(8, 2).unwrap(),
        ),
        (
            "multi_issue",
            SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap(),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("run", name), &config, |b, cfg| {
            b.iter(|| black_box(run_one(&trace, cfg, &bench_params).expect("run succeeds")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
