//! Regenerates **Table 1** (area overheads) and benchmarks the analytical
//! area model across subdivisions.
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench table1_area
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fgnvm_bench::regenerate;
use fgnvm_model::area::AreaModel;
use fgnvm_sim::runner::ExperimentParams;

fn bench(c: &mut Criterion) {
    // Print the regenerated artifact once.
    println!(
        "{}",
        regenerate("table1", &ExperimentParams::quick()).render()
    );

    let model = AreaModel::paper_calibrated();
    let mut group = c.benchmark_group("table1_area");
    for (sags, cds) in [(8u32, 8u32), (32, 32)] {
        group.bench_with_input(
            BenchmarkId::new("report", format!("{sags}x{cds}")),
            &(sags, cds),
            |b, &(s, cd)| b.iter(|| black_box(model.report(black_box(s), black_box(cd)))),
        );
    }
    group.bench_function("full_table1", |b| b.iter(|| black_box(model.table1())));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
