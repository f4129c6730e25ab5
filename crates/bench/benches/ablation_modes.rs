//! Regenerates the **access-mode ablation** (the design-choice study of
//! DESIGN.md E6: each of Partial-Activation, Multi-Activation, and
//! Backgrounded Writes enabled alone) and benchmarks the mode-gating
//! bank-model kernels.
//!
//! ```text
//! cargo bench -p fgnvm-bench --bench ablation_modes
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fgnvm_bank::{Access, Bank, FgnvmBank, Modes};
use fgnvm_bench::regenerate;
use fgnvm_sim::runner::ExperimentParams;
use fgnvm_types::address::TileCoord;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::time::Cycle;
use fgnvm_types::TimingConfig;

fn bench(c: &mut Criterion) {
    // Regenerate the ablation table once.
    let params = ExperimentParams {
        ops: 2000,
        ..ExperimentParams::full()
    };
    println!("{}", regenerate("ablation", &params).render());
    // And the subdivision sweep, which shares this bench target.
    println!("{}", regenerate("sweep", &params).render());

    // Benchmark the plan/commit kernel under each mode set.
    let geom = Geometry::builder().sags(8).cds(8).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut group = c.benchmark_group("bank_kernel");
    for (name, modes) in [("all_modes", Modes::all()), ("no_modes", Modes::none())] {
        group.bench_with_input(BenchmarkId::new("plan_commit_1k", name), &modes, |b, &m| {
            b.iter(|| {
                let mut bank = FgnvmBank::new(&geom, timing, m, true).unwrap();
                let mut now = Cycle::ZERO;
                for i in 0..1000u32 {
                    let row = (i * 37) % geom.rows_per_bank();
                    let line = i % geom.lines_per_row();
                    let (cd_first, cd_count) = geom.cds_of_line(line);
                    let access = Access {
                        op: if i % 4 == 0 { Op::Write } else { Op::Read },
                        row,
                        line,
                        coord: TileCoord {
                            sag: geom.sag_of_row(row),
                            cd_first,
                            cd_count,
                        },
                    };
                    loop {
                        match bank.plan(&access, now) {
                            Ok(plan) => {
                                bank.commit(&access, &plan, now, plan.earliest_data);
                                break;
                            }
                            Err(blocked) => now = blocked.retry_at,
                        }
                    }
                }
                black_box(bank.stats().reads)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
