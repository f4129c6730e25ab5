//! Extension studies beyond the paper's evaluation section, declared for
//! the [study engine](crate::study).
//!
//! * `dims` — the paper's core architectural argument made quantitative:
//!   at an equal number of accessible units, is two-dimensional
//!   subdivision (S×C) better than the one-dimensional subdivision of DRAM
//!   SALP (S×1) or a pure column split (1×C)?
//! * `sched` — how much of FgNVM's benefit the controller policy unlocks
//!   (FCFS vs FRFCFS vs the TLP-augmented FRFCFS).
//! * `maps` — sensitivity of the results to the physical address mapping
//!   (row-friendly, bank-interleaved, row-thrashing).
//! * `tech` — the motivating NVM-vs-DRAM contrast: how close the FgNVM
//!   designs come to DDR3-like DRAM performance despite PCM's much slower
//!   cells, thanks to tile-level parallelism and the absence of refresh
//!   and destructive reads.
//! * `pause` — write pausing (the paper's reference \[12\]) on top of
//!   FgNVM: how much read latency interrupting in-flight writes recovers
//!   on write-heavy traffic.
//! * `scaling` — channel scaling: does tile-level parallelism still pay
//!   once the system has more channels, or do channels subsume it?
//! * `mlc` — SLC vs MLC PCM: slower multi-level cells make writes (and
//!   reads) costlier, so tile-level parallelism should matter *more*.
//! * `mix` — consolidation pressure: interleaved 4-workload mixes drive
//!   far more memory-level parallelism than any single program, which is
//!   where bank subdivision earns its keep.
//! * `coloring` — OS page placement: identity vs scattered vs SAG-aware
//!   striped placement, quantifying how much of FgNVM's benefit software
//!   can grant or destroy.
//! * `timeline` — a power/bandwidth time series of one workload on the
//!   baseline vs FgNVM, from the memory system's epoch sampler.
//! * `writes` — the Backgrounded-Writes headroom curve: FgNVM's speedup as
//!   a function of workload write intensity.
//! * `depth` — controller queue-depth sensitivity (how much of the benefit
//!   needs a deep transaction queue).
//! * `detail` — the full metric set per workload on the 8×8 FgNVM.
//! * `tail` — how far Backgrounded Writes push the read-latency tail in on
//!   write-heavy traffic: a baseline bank holds every read for the full
//!   tWP of any in-flight write, so the slow tail, not the median, carries
//!   the damage.
//! * `wear` — Start-Gap's endurance gain versus its gap-copy traffic cost
//!   on zipf-skewed write traffic.
//! * `policy` — open vs closed page on DRAM, a real per-workload tuning
//!   decision there; on the paper's PCM substrate the knob does not exist
//!   (tRP = tRAS = 0, non-destructive reads), which is the contrast.
//! * `mlp` — FgNVM's speedup as a function of how much memory-level
//!   parallelism the core can expose: tile-level parallelism is worthless
//!   unless enough misses are in flight to land on distinct (SAG, CD)
//!   pairs, so the study sweeps the ROB and MSHR file.
//! * `cores` — true multi-core runs (private windows, shared memory):
//!   weighted speedup and fairness per design.
//! * `hybrid` — DRAM-buffered PCM (the paper's reference \[8\]): how FgNVM
//!   compares against, and composes with, a DRAM buffer.
//! * `reliability` — device fault injection: each level couples a
//!   read-side raw bit-error rate (paid as ECC decode latency, escalating
//!   to row remap) with a write-side verify-failure probability (paid as
//!   extra tWP pulses, escalating to controller re-issue). The clean level
//!   anchors the slowdown at exactly 1.0. With `--horizon`, the wear-out
//!   escalation ladder (remap → retire → read-only → capacity-exhausted)
//!   over increasing run lengths instead.

use fgnvm_cpu::{Core, CoreConfig, Trace};
use fgnvm_mem::MemorySystem;
use fgnvm_types::address::MappingScheme;
use fgnvm_types::config::{BankModel, ReliabilityConfig, SchedulerKind, SystemConfig};
use fgnvm_types::error::SimError;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_workloads::{PagePolicy, PatternBuilder, Profile};

use crate::experiment::{trace_geometry, traces};
use crate::report::{fmt_ratio, fmt_speedup, geometric_mean, mean};
use crate::runner::{run_grid, ExperimentParams};
use crate::study::{
    cycles, energy, fixed3, int, ipc, percent, read_latency, speedup, Cell, Column, Grid, Reduce,
    StudyOutcome,
};

const STUDY_PROFILES: [&str; 4] = ["mcf_like", "lbm_like", "milc_like", "omnetpp_like"];

/// A column of count `metric` summed over workloads.
fn total(header: &'static str, metric: fn(&Cell<'_>) -> f64) -> Column {
    Column::new(header, metric, Reduce::Sum, int)
}

/// The 1D-vs-2D study: every shape with 16 units per bank.
///
/// This is the quantitative version of the paper's §2–§3 argument: DRAM
/// constraints stop at one-dimensional subdivision (SALP, S×1), while NVM's
/// non-destructive reads and current-mode sensing enable the second
/// dimension. S×1 gets multi-activation but no partial-activation energy
/// (every activation still senses full rows); 1×C gets partial activation
/// but only one open row; S×C gets both.
pub(crate) fn dimensions(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let shapes = [(16u32, 1u32), (1, 16), (4, 4), (8, 2), (2, 8)];
    let mut designs = vec![SystemConfig::baseline()];
    for (sags, cds) in shapes {
        designs.push(SystemConfig::fgnvm(sags, cds)?);
    }
    let mut grid = Grid::new(
        "1D vs 2D subdivision at equal unit count (16 units/bank)",
        &["design", "kind"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("rel. energy", energy, Reduce::Mean, fmt_ratio),
        ],
        traces(&STUDY_PROFILES, params),
        designs,
    );
    for (d, (sags, cds)) in shapes.into_iter().enumerate() {
        let kind = match (sags, cds) {
            (_, 1) => "1D rows (SALP-like)",
            (1, _) => "1D columns",
            _ => "2D (FgNVM)",
        };
        grid.row(vec![format!("{sags}x{cds}"), kind.into()], d + 1, 0);
    }
    Ok(grid.run(params)?)
}

/// Builds a phase-structured trace with write bursts: sustained reads
/// punctuated by batches of writebacks, the pattern that engages the
/// write-drain machinery (steady mixes drain opportunistically and never
/// hit the watermark).
fn bursty_trace(geometry: Geometry, seed: u64, ops: usize) -> Trace {
    let builder = PatternBuilder::new(geometry, seed);
    let lines = geometry.lines_per_row();
    let rows = geometry.rows_per_bank();
    let banks = geometry.banks_per_rank();
    let mut records = Vec::with_capacity(ops);
    let mut i = 0u32;
    while records.len() < ops {
        // Read phase: 120 scattered reads, then a burst of 60 back-to-back
        // writebacks (fills the write queue past the drain watermark).
        for (op, count, gap) in [(Op::Read, 120, 20), (Op::Write, 60, 0)] {
            for _ in 0..count {
                let row = (i.wrapping_mul(2654435761)) % rows;
                records.push(builder.record(op, i % banks, row, i % lines, gap, false));
                i += 1;
            }
        }
    }
    records.truncate(ops);
    Trace::new("write_burst", records)
}

/// `names`' traces plus the bursty-write trace.
fn with_bursts(names: &[&str], params: &ExperimentParams) -> Vec<Trace> {
    let mut all = traces(names, params);
    all.push(bursty_trace(trace_geometry(), params.seed, params.ops));
    all
}

/// The scheduler study: FCFS vs FRFCFS vs TLP-augmented FRFCFS on the same
/// FgNVM hardware (how much of the benefit is scheduling). Besides the
/// standard profiles, a bursty-write trace is included because the TLP
/// augmentation (reads continue during drains) only engages when write
/// bursts trip the drain watermark.
pub(crate) fn schedulers(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let kinds = [
        SchedulerKind::Fcfs,
        SchedulerKind::Frfcfs,
        SchedulerKind::FrfcfsTlp,
    ];
    let mut designs = Vec::new();
    for scheduler in kinds {
        designs.push(SystemConfig {
            scheduler,
            ..SystemConfig::fgnvm(8, 8)?
        });
    }
    let mut grid = Grid::new(
        "Scheduler study on 8x8 FgNVM",
        &["scheduler"],
        vec![
            Column::new("speedup vs FCFS", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("avg read latency", read_latency, Reduce::Mean, cycles),
        ],
        with_bursts(&STUDY_PROFILES, params),
        designs,
    );
    for (k, kind) in kinds.into_iter().enumerate() {
        grid.row(vec![format!("{kind:?}")], k, 0);
    }
    Ok(grid.run(params)?)
}

/// The mapping sensitivity study: both baseline and FgNVM are rebuilt
/// under each scheme, so the speedup isolates the architecture from the
/// layout.
pub(crate) fn mappings(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let schemes = [
        MappingScheme::RowRankBankLineChannel,
        MappingScheme::RowLineRankBankChannel,
        MappingScheme::LineRowRankBankChannel,
        MappingScheme::SagInterleaved,
    ];
    let traces = traces(&STUDY_PROFILES, params);
    let core = Core::new(params.core)?;
    let mut out = StudyOutcome::new(
        "Address-mapping sensitivity (8x8 FgNVM vs baseline)",
        &["mapping"],
        &[("FgNVM speedup", fmt_speedup), ("row hit rate", percent)],
    );
    for scheme in schemes {
        let mut speedups = Vec::new();
        let mut hits = Vec::new();
        for trace in &traces {
            let mut base = MemorySystem::with_mapping(SystemConfig::baseline(), scheme)?;
            let mut fg = MemorySystem::with_mapping(SystemConfig::fgnvm(8, 8)?, scheme)?;
            let base_result = core.run(trace, &mut base);
            let fg_result = core.run(trace, &mut fg);
            speedups.push(fg_result.speedup_over(&base_result));
            hits.push(fg.bank_stats().row_hit_rate());
        }
        out.push(
            vec![format!("{scheme:?}")],
            vec![geometric_mean(&speedups), mean(&hits)],
        );
    }
    Ok(out)
}

/// Adds one row per labelled design, all normalized to design 0.
fn design_rows(grid: &mut Grid, labels: &[&str]) {
    for (d, label) in labels.iter().enumerate() {
        grid.row(vec![label.to_string()], d, 0);
    }
}

/// The NVM-vs-DRAM contrast (performance only — the energy constants of
/// the two technologies are not comparable in this model).
pub(crate) fn technology(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut grid = Grid::new(
        "Technology contrast: PCM baseline vs FgNVM vs DDR3-like DRAM",
        &["design"],
        vec![
            Column::new(
                "speedup vs PCM baseline",
                speedup,
                Reduce::Gmean,
                fmt_speedup,
            ),
            Column::new("avg read latency", read_latency, Reduce::Mean, cycles),
        ],
        traces(&STUDY_PROFILES, params),
        vec![
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 8)?,
            SystemConfig::fgnvm_multi_issue(8, 8, 2)?,
            SystemConfig::dram(),
        ],
    );
    design_rows(
        &mut grid,
        &[
            "PCM baseline",
            "FgNVM 8x8",
            "FgNVM 8x8 + Multi-Issue",
            "DDR3-like DRAM",
        ],
    );
    Ok(grid.run(params)?)
}

/// The write-pausing study on write-heavy workloads.
pub(crate) fn pausing(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut grid = Grid::new(
        "Write pausing on 8x8 FgNVM (write-heavy workloads)",
        &["design"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("avg read latency", read_latency, Reduce::Mean, cycles),
            total("writes paused", |c| c.run.banks.write_pauses as f64),
        ],
        with_bursts(&["lbm_like", "leslie3d_like"], params),
        vec![
            SystemConfig::fgnvm(8, 8)?,
            SystemConfig::fgnvm_with_pausing(8, 8)?,
        ],
    );
    design_rows(&mut grid, &["FgNVM 8x8", "FgNVM 8x8 + pausing"]);
    Ok(grid.run(params)?)
}

/// The channel-scaling study: baseline and 8×8 FgNVM at 1 and 2 channels,
/// all over the same physical address stream, against the 1-channel
/// baseline.
pub(crate) fn scaling(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut designs = Vec::new();
    let mut labels = Vec::new();
    for channels in [1u32, 2] {
        let geometry = |sags, cds| {
            Geometry::builder()
                .channels(channels)
                .sags(sags)
                .cds(cds)
                .build()
        };
        designs.push(SystemConfig {
            geometry: geometry(1, 1)?,
            ..SystemConfig::baseline()
        });
        designs.push(SystemConfig {
            geometry: geometry(8, 8)?,
            ..SystemConfig::fgnvm(8, 8)?
        });
        labels.push([channels.to_string(), "baseline".into()]);
        labels.push([channels.to_string(), "FgNVM 8x8".into()]);
    }
    let mut grid = Grid::new(
        "Channel scaling (speedups vs 1-channel baseline)",
        &["channels", "design"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new(
                "~p95 latency",
                |c| c.run.read_p95 as f64,
                Reduce::Mean,
                cycles,
            ),
        ],
        traces(&STUDY_PROFILES, params),
        designs,
    );
    for (d, label) in labels.into_iter().enumerate() {
        grid.row(label.to_vec(), d, 0);
    }
    Ok(grid.run(params)?)
}

/// The SLC-vs-MLC study: speedups over the SLC baseline, and FgNVM's gain
/// over the same-cell baseline.
pub(crate) fn cells(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut grid = Grid::new(
        "SLC vs MLC PCM (speedups vs SLC baseline)",
        &["cells", "design"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup).vs(0),
            Column::new(
                "FgNVM gain over same-cell baseline",
                speedup,
                Reduce::Gmean,
                fmt_speedup,
            ),
        ],
        traces(&STUDY_PROFILES, params),
        vec![
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 8)?,
            SystemConfig::baseline().with_mlc_cells(),
            SystemConfig::fgnvm(8, 8)?.with_mlc_cells(),
        ],
    );
    for (d, (cell, design)) in [
        ("SLC", "baseline"),
        ("SLC", "FgNVM 8x8"),
        ("MLC", "baseline"),
        ("MLC", "FgNVM 8x8"),
    ]
    .into_iter()
    .enumerate()
    {
        grid.row(vec![cell.into(), design.into()], d, d / 2 * 2);
    }
    Ok(grid.run(params)?)
}

/// The multiprogrammed study: the geometric mean of four single workloads
/// vs their 4-way round-robin interleave (one consolidated channel serving
/// four cores' miss streams).
pub(crate) fn multiprogrammed(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut all = traces(&STUDY_PROFILES, params);
    let singles = 0..all.len();
    all.push(fgnvm_workloads::mix::interleave("mix4", &all));
    let mixed = singles.end..all.len();
    let mut grid = Grid::new(
        "Multiprogrammed pressure (speedup vs same-traffic baseline)",
        &["traffic", "design"],
        vec![Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup)],
        all,
        vec![
            SystemConfig::baseline(),
            SystemConfig::fgnvm(8, 2)?,
            SystemConfig::fgnvm(8, 8)?,
        ],
    );
    for (traffic, workloads) in [("single program", singles), ("4-way mix", mixed)] {
        for (d, design) in ["baseline", "FgNVM 8x2", "FgNVM 8x8"]
            .into_iter()
            .enumerate()
        {
            grid.row_over(vec![traffic.into(), design.into()], d, 0, workloads.clone());
        }
    }
    Ok(grid.run(params)?)
}

/// The page-coloring study: FgNVM 8×8 over the baseline under the same
/// page placement, per placement policy.
pub(crate) fn coloring(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let policies = [
        ("identity (worst case)", PagePolicy::Identity),
        ("scattered (buddy allocator)", PagePolicy::Scattered),
        (
            "SAG-striped (geometry-aware)",
            PagePolicy::SagStriped { sags: 8 },
        ),
    ];
    let profiles: Vec<Profile> = STUDY_PROFILES
        .iter()
        .map(|n| fgnvm_workloads::profile(n).expect("known profile"))
        .collect();
    let traces = policies
        .iter()
        .flat_map(|&(_, policy)| {
            profiles.iter().map(move |p| {
                p.generate_with_policy(trace_geometry(), policy, params.seed, params.ops)
            })
        })
        .collect();
    let mut grid = Grid::new(
        "OS page placement vs tile-level parallelism (FgNVM 8x8)",
        &["placement"],
        vec![Column::new(
            "FgNVM speedup over same-placement baseline",
            speedup,
            Reduce::Gmean,
            fmt_speedup,
        )],
        traces,
        vec![SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?],
    );
    let n = profiles.len();
    for (i, (label, _)) in policies.into_iter().enumerate() {
        grid.row_over(vec![label.into()], 1, 0, i * n..(i + 1) * n);
    }
    Ok(grid.run(params)?)
}

/// The timeline study: milc-like on baseline vs 8×8 FgNVM with the epoch
/// sampler on; array power = d(sense+write energy)/dt (background is flat
/// and omitted).
pub(crate) fn timeline(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    use fgnvm_mem::Sample;
    const EPOCH: u64 = 4096; // 10.24 µs at 400 MHz
    let trace = &traces(&["milc_like"], params)[0];
    let core = Core::new(params.core)?;
    let energy = SystemConfig::baseline().energy;
    // Convert consecutive samples into per-epoch rates. The sampler's
    // first record lands at the end of the first epoch; the origin
    // (cycle 0, every cumulative counter zero) is implicit, so prepend it
    // to anchor the first window.
    let rates = |samples: &[Sample]| -> Vec<(u64, u64, f64)> {
        let origin = Sample {
            at: fgnvm_types::time::Cycle::ZERO,
            completed_reads: 0,
            sensed_bits: 0,
            written_bits: 0,
            read_queue: 0,
            write_queue: 0,
        };
        let mut series = Vec::with_capacity(samples.len() + 1);
        series.push(origin);
        series.extend_from_slice(samples);
        series
            .windows(2)
            .map(|w| {
                let cycles = (w[1].at - w[0].at).raw() as f64;
                let pj = (w[1].sensed_bits - w[0].sensed_bits) as f64 * energy.read_pj_per_bit
                    + (w[1].written_bits - w[0].written_bits) as f64 * energy.write_pj_per_bit;
                // pJ per 2.5 ns cycle → watts: 1e-12 J / 2.5e-9 s = 4e-4 W,
                // i.e. 0.4 mW per pJ/cycle.
                let mw = pj / cycles * 0.4;
                (
                    w[0].at.raw(),
                    w[1].completed_reads - w[0].completed_reads,
                    mw,
                )
            })
            .collect()
    };
    let mut runs = Vec::new();
    for config in [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?] {
        let mut memory = MemorySystem::new(config)?;
        memory.enable_sampling(EPOCH);
        core.run(trace, &mut memory);
        runs.push(rates(memory.samples()));
    }
    let one_decimal: fn(f64) -> String = |v| format!("{v:.1}");
    let mut out = StudyOutcome::new(
        format!("Array power/bandwidth timeline ({EPOCH}-cycle epochs, milc_like)"),
        &["cycle"],
        &[
            ("base reads", int),
            ("base mW", one_decimal),
            ("fgnvm reads", int),
            ("fgnvm mW", one_decimal),
        ],
    );
    for (b, f) in runs[0].iter().zip(&runs[1]) {
        out.push(
            vec![b.0.to_string()],
            vec![b.1 as f64, b.2, f.1 as f64, f.2],
        );
    }
    Ok(out)
}

/// The write-intensity sweep: a fixed strided profile whose write fraction
/// varies from 0 % to 60 %.
pub(crate) fn write_sweep(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let percents = [0u32, 10, 20, 30, 45, 60];
    let traces = percents
        .iter()
        .map(|&pct| {
            Profile {
                name: "write_sweep",
                mpki: 30.0,
                write_fraction: f64::from(pct) / 100.0,
                row_locality: 0.3,
                streams: 8,
                dependent_fraction: 0.0,
                footprint_rows: 16384,
            }
            .generate(trace_geometry(), params.seed, params.ops)
        })
        .collect();
    let no_bg = SystemConfig {
        bank_model: BankModel::Fgnvm {
            partial_activation: true,
            multi_activation: true,
            background_writes: false,
        },
        ..SystemConfig::fgnvm(8, 8)?
    };
    let mut grid = Grid::new(
        "Backgrounded-Writes headroom vs write intensity (8x8 FgNVM)",
        &["write %"],
        vec![
            Column::new("bg writes ON", speedup, Reduce::Gmean, fmt_speedup).of(1),
            Column::new("bg writes OFF", speedup, Reduce::Gmean, fmt_speedup).of(2),
        ],
        traces,
        vec![SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?, no_bg],
    );
    for (w, pct) in percents.into_iter().enumerate() {
        grid.row_over(vec![format!("{pct}%")], 0, 0, w..w + 1);
    }
    Ok(grid.run(params)?)
}

/// The queue-depth sweep: 8×8 FgNVM over the same-depth baseline.
pub(crate) fn depth_sweep(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let depths = [8usize, 16, 32, 64];
    let mut designs = Vec::new();
    for queue_entries in depths {
        designs.push(SystemConfig {
            queue_entries,
            ..SystemConfig::baseline()
        });
        designs.push(SystemConfig {
            queue_entries,
            ..SystemConfig::fgnvm(8, 8)?
        });
    }
    let mut grid = Grid::new(
        "Transaction-queue depth sensitivity (8x8 FgNVM vs baseline)",
        &["queue entries"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("fgnvm read latency", read_latency, Reduce::Mean, cycles),
        ],
        traces(&STUDY_PROFILES, params),
        designs,
    );
    for (i, depth) in depths.into_iter().enumerate() {
        grid.row(vec![depth.to_string()], 2 * i + 1, 2 * i);
    }
    Ok(grid.run(params)?)
}

/// Every standard workload on the 8×8 FgNVM with the full metric set.
pub(crate) fn detail(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    use crate::simulation::{Simulation, SimulationError};
    let bare_percent: fn(f64) -> String = |v| format!("{:.0}", v * 100.0);
    let mut out = StudyOutcome::new(
        "Per-workload detail on FgNVM 8x8",
        &["workload"],
        &[
            ("ipc", fixed3),
            ("stall%", bare_percent),
            ("read lat", int),
            ("p95", int),
            ("hits%", bare_percent),
            ("energy uJ", |v| format!("{v:.1}")),
            ("rdr-under-wr", int),
        ],
    );
    for p in fgnvm_workloads::all_profiles() {
        let r = Simulation::builder()
            .workload(p.name)
            .ops(params.ops)
            .seed(params.seed)
            .core(params.core)
            .fgnvm(8, 8)
            .run()
            .map_err(|e| match e {
                SimulationError::Config(c) => c,
                other => unreachable!("named profiles always resolve: {other}"),
            })?;
        out.push(
            vec![p.name.to_string()],
            vec![
                r.ipc,
                r.stall_fraction,
                r.avg_read_latency,
                r.p95_read_latency as f64,
                r.row_hit_rate,
                r.energy_uj,
                r.reads_under_write as f64,
            ],
        );
    }
    Ok(out)
}

/// The tail-latency study: write-heavy workloads on the baseline, two
/// FgNVM shapes, and FgNVM with write pausing. The notes hold each
/// design's read-latency histogram summed over workloads.
pub(crate) fn tail_latency(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let designs = [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
        (
            "FgNVM 8x8 + pausing",
            SystemConfig::fgnvm_with_pausing(8, 8)?,
        ),
    ];
    let traces = with_bursts(&["lbm_like", "leslie3d_like", "gemsfdtd_like"], params);
    let core = Core::new(params.core)?;
    let mut out = StudyOutcome::new(
        "Read-latency distribution under write-heavy traffic (memory cycles)",
        &["design"],
        &[("mean", int), ("~p50", int), ("~p95", int), ("~p99", int)],
    );
    for (design, config) in designs {
        let mut columns = [(); 4].map(|()| Vec::new());
        let mut hist = [0u64; 20];
        for trace in &traces {
            let mut memory = MemorySystem::new(config)?;
            core.run(trace, &mut memory);
            let stats = memory.stats();
            columns[0].push(stats.avg_read_latency());
            for (column, p) in columns[1..].iter_mut().zip([0.50, 0.95, 0.99]) {
                column.push(stats.read_latency_percentile(p) as f64);
            }
            for (total, bucket) in hist.iter_mut().zip(stats.read_latency_hist) {
                *total += bucket;
            }
        }
        out.push(
            vec![design.into()],
            columns.iter().map(|c| mean(c)).collect(),
        );
        out.notes += &format!(
            "\n{design}:\n{}",
            crate::viz::render_latency_histogram(&hist, 48)
        );
    }
    Ok(out)
}

/// The wear-leveling study: a zipf-skewed write-heavy stream (a few hot
/// rows absorb most writes — the pattern that kills unleveled PCM) through
/// FgNVM 8x8 with no leveling and with Start-Gap at two rotation
/// intervals.
pub(crate) fn wear(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    // A small bank (64 rows) so the gap completes several sweeps within
    // the run.
    let config = SystemConfig {
        geometry: Geometry::builder()
            .rows_per_bank(64)
            .sags(8)
            .cds(8)
            .build()?,
        ..SystemConfig::fgnvm(8, 8)?
    };
    let rows = config.geometry.rows_per_bank();
    let lines = config.geometry.lines_per_row();
    let builder = PatternBuilder::new(config.geometry, params.seed);
    // SplitMix64 keeps the study self-seeded and deterministic.
    let mut state = params.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let records: Vec<_> = (0..params.ops)
        .map(|_| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            // Inverse CDF of P(rank) proportional to rank^-0.8.
            let row = (f64::from(rows) * u.powf(1.0 / 0.2)) as u32 % rows;
            let line = next() as u32 % lines;
            builder.record(Op::Write, 0, row, line, 6, false)
        })
        .collect();
    let trace = Trace::new("zipf_writes", records);
    let core = Core::new(params.core)?;
    let mut out = StudyOutcome::new(
        "Start-Gap wear leveling on zipf-skewed writes (FgNVM 8x8)",
        &["policy"],
        &[
            // IPC relative to no leveling: the cost of gap traffic.
            ("relative IPC", |v| format!("{v:.3}x")),
            // Hottest-row writes over mean touched-row writes.
            ("wear imbalance", |v| format!("{v:.1}x")),
            ("rotations", int),
            // Endurance-limited lifetime at a fixed write rate, relative
            // to no leveling.
            ("lifetime gain", fmt_speedup),
        ],
    );
    let mut reference: Option<(f64, f64)> = None; // (ipc, lifetime proxy)
    for (policy, interval) in [
        ("none", None),
        ("start-gap /64", Some(64)),
        ("start-gap /8", Some(8)),
    ] {
        let mut memory = MemorySystem::new(config)?;
        memory.enable_wear_tracking();
        if let Some(interval) = interval {
            memory.enable_start_gap(interval)?;
        }
        let result = core.run(&trace, &mut memory);
        let tracker = memory.wear().expect("tracking enabled");
        // Lifetime proxy: useful writes until the hottest row hits the
        // endurance limit, i.e. total stream over the max-row share.
        let lifetime = tracker.total_writes() as f64 / f64::from(tracker.max_row_writes().max(1));
        let (ref_ipc, ref_lifetime) = *reference.get_or_insert((result.ipc(), lifetime));
        out.push(
            vec![policy.into()],
            vec![
                result.ipc() / ref_ipc,
                tracker.imbalance(),
                memory.start_gap_rotations().unwrap_or(0) as f64,
                lifetime / ref_lifetime,
            ],
        );
    }
    Ok(out)
}

/// The page-policy study: streaming, mixed, and scattered workloads on
/// open- vs closed-page DRAM, one row per workload.
pub(crate) fn page_policy(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    use fgnvm_types::config::RowPolicy;
    let open = SystemConfig::dram();
    let closed = SystemConfig {
        row_policy: RowPolicy::Closed,
        ..open
    };
    let traces = [
        "libquantum_like",
        "leslie3d_like",
        "omnetpp_like",
        "mcf_like",
    ]
    .iter()
    .map(|n| {
        fgnvm_workloads::profile(n)
            .expect("known profile")
            .generate(open.geometry, params.seed, params.ops)
    })
    .collect();
    let mut grid = Grid::new(
        "DRAM page policy: open vs closed (auto-precharge)",
        &["workload"],
        vec![
            Column::new("open IPC", ipc, Reduce::Mean, fixed3).of(0),
            Column::new("closed IPC", ipc, Reduce::Mean, fixed3).of(1),
            Column::new("closed/open", speedup, Reduce::Gmean, fmt_speedup).of(1),
            Column::new(
                "open hit rate",
                |c| c.run.banks.row_hit_rate(),
                Reduce::Mean,
                percent,
            )
            .of(0),
        ],
        traces,
        vec![open, closed],
    );
    grid.per_workload(None);
    Ok(grid.run(params)?)
}

/// The MLP-sensitivity study: baseline and FgNVM 8x8 IPC per core window,
/// from an in-order-ish window to far beyond Nehalem. The prefetcher stays
/// off so the window alone controls MLP.
pub(crate) fn mlp(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let designs = [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8)?];
    let traces = traces(&["milc_like", "lbm_like", "omnetpp_like"], params);
    let mut out = StudyOutcome::new(
        "FgNVM 8x8 speedup vs core MLP window (gmean over workloads)",
        &["ROB", "MSHRs"],
        &[
            ("baseline IPC", fixed3),
            ("FgNVM IPC", fixed3),
            ("speedup", fmt_speedup),
        ],
    );
    for (rob, mshrs) in [(16u32, 2u32), (64, 8), (256, 32), (1024, 128)] {
        let window = ExperimentParams {
            core: CoreConfig {
                rob_entries: rob,
                mshrs,
                prefetch_degree: 0,
                ..CoreConfig::nehalem_like()
            },
            ..*params
        };
        let grid = run_grid(&traces, &designs, &window)?;
        let gmean_ipc = |d: usize| {
            geometric_mean(
                &grid
                    .iter()
                    .map(|runs| runs[d].core.ipc())
                    .collect::<Vec<_>>(),
            )
        };
        let (base, fg) = (gmean_ipc(0), gmean_ipc(1));
        out.push(
            vec![rob.to_string(), mshrs.to_string()],
            vec![base, fg, fg / base],
        );
    }
    Ok(out)
}

/// Four distinct workloads on four cores sharing one memory, per design:
/// throughput, weighted speedup and fairness.
pub(crate) fn cores(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    use fgnvm_cpu::{fairness, weighted_speedup};
    const CORES: usize = STUDY_PROFILES.len();
    let traces = traces(&STUDY_PROFILES, params);
    let core = Core::new(params.core)?;
    let mut out = StudyOutcome::new(
        format!("{CORES}-core consolidation (private windows, shared memory)"),
        &["design"],
        &[
            ("throughput (ΣIPC)", fixed3),
            // Against solo runs on the same design; the maximum is CORES.
            ("weighted speedup", |v| format!("{v:.2} / {CORES}")),
            // min/max slowdown, 1 = perfectly fair.
            ("fairness", |v| format!("{v:.2}")),
        ],
    );
    for (design, config) in [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?),
    ] {
        let solo = traces
            .iter()
            .map(|t| Ok(core.run(t, &mut MemorySystem::new(config)?)))
            .collect::<Result<Vec<_>, SimError>>()?;
        let shared = core.run_shared(&traces, &mut MemorySystem::new(config)?);
        out.push(
            vec![design.into()],
            vec![
                shared.throughput(),
                weighted_speedup(&shared.per_core, &solo),
                fairness(&shared.per_core, &solo),
            ],
        );
    }
    Ok(out)
}

/// The DRAM-buffer study: bare PCM (baseline and FgNVM 8×8) against the
/// same arrays behind a 4 MiB DRAM buffer.
pub(crate) fn hybrid(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    use fgnvm_mem::HybridMemory;
    const BUFFER: u64 = 4 * 1024 * 1024;
    let traces = traces(&STUDY_PROFILES, params);
    let core = Core::new(params.core)?;
    let designs = [
        ("PCM baseline", SystemConfig::baseline(), false),
        ("FgNVM 8x8", SystemConfig::fgnvm(8, 8)?, false),
        ("DRAM buffer + PCM baseline", SystemConfig::baseline(), true),
        ("DRAM buffer + FgNVM 8x8", SystemConfig::fgnvm(8, 8)?, true),
    ];
    let mut out = StudyOutcome::new(
        format!(
            "DRAM-buffered PCM (ref [8], {} MiB buffer) vs FgNVM",
            BUFFER / (1024 * 1024)
        ),
        &["design"],
        &[
            ("speedup", fmt_speedup),
            ("PCM writes / kilo-instr", |v| format!("{v:.2}")),
        ],
    );
    // Per-trace IPC on the bare PCM baseline (the first design).
    let mut reference = Vec::new();
    for (design, config, buffered) in designs {
        let (mut speedups, mut pcm_writes, mut instructions) = (Vec::new(), 0, 0);
        for (t, trace) in traces.iter().enumerate() {
            let (result, writes) = if buffered {
                let mut memory = HybridMemory::new(MemorySystem::new(config)?, BUFFER, 16)?;
                (
                    core.run(trace, &mut memory),
                    memory.pcm().bank_stats().writes,
                )
            } else {
                let mut memory = MemorySystem::new(config)?;
                (core.run(trace, &mut memory), memory.bank_stats().writes)
            };
            if reference.len() == t {
                reference.push(result.ipc());
            }
            speedups.push(result.ipc() / reference[t]);
            pcm_writes += writes;
            instructions += result.instructions;
        }
        out.push(
            vec![design.into()],
            vec![
                geometric_mean(&speedups),
                pcm_writes as f64 * 1000.0 / instructions.max(1) as f64,
            ],
        );
    }
    Ok(out)
}

/// The reliability study: the baseline and FgNVM 8x2 swept over coupled
/// (RBER, write-verify-failure) fault levels with a fixed ECC and retry
/// budget, each level normalized to the design's clean level.
pub(crate) fn reliability(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    // Severity sweep: each level raises both the read-side error rate and
    // the write-side verify pressure. 3e-3 over a 512-bit line exceeds a
    // 2-bit ECC often enough to exercise the remap path.
    let levels: [(f64, f64); 4] = [(0.0, 0.0), (1e-4, 0.10), (1e-3, 0.25), (3e-3, 0.50)];
    let mut designs = Vec::new();
    let mut rows = Vec::new();
    for (design, base) in [
        ("baseline", SystemConfig::baseline()),
        ("FgNVM 8x2", SystemConfig::fgnvm(8, 2)?),
    ] {
        let clean = designs.len();
        for (rber, write_fail_prob) in levels {
            rows.push((
                vec![
                    design.to_string(),
                    format!("{rber:.0e}"),
                    format!("{write_fail_prob:.2}"),
                ],
                designs.len(),
                clean,
            ));
            designs.push(base.with_reliability(ReliabilityConfig {
                enabled: true,
                fault_seed: params.seed,
                rber,
                write_fail_prob,
                max_write_retries: 4,
                ecc_correctable_bits: 2,
                ecc_decode_penalty_cycles: 10,
                wear_stuck_threshold: 0,
                ..ReliabilityConfig::default()
            }));
        }
    }
    let mut grid = Grid::new(
        "Fault injection: RBER + write-verify pressure vs performance",
        &["design", "RBER", "wfail"],
        vec![
            Column::new("IPC", ipc, Reduce::Gmean, fixed3),
            // Fault-free IPC over this level's IPC.
            Column::new(
                "slowdown",
                |c| c.reference.core.ipc() / c.run.core.ipc(),
                Reduce::Gmean,
                |v| format!("{v:.3}x"),
            ),
            Column::new("~p99", |c| c.run.read_p99 as f64, Reduce::Max, int),
            total("retries", |c| c.run.banks.write_retries as f64),
            total("vfail", |c| c.run.banks.verify_failures as f64),
            total("corrected", |c| c.run.corrected_errors as f64),
            total("uncorr", |c| c.run.uncorrectable_errors as f64),
            total("remap", |c| c.run.remapped_rows as f64),
            total("reissue", |c| c.run.reissued_writes as f64),
        ],
        traces(&["milc_like", "lbm_like"], params),
        designs,
    );
    for (labels, design, clean) in rows {
        grid.row(labels, design, clean);
    }
    Ok(grid.run(params)?)
}

/// Stages of the wear-out escalation ladder, in order; the horizon sweep
/// reports the index of the stage each run ended in.
const LADDER: [&str; 5] = [
    "healthy",
    "remapping",
    "retiring rows",
    "read-only banks",
    "EXHAUSTED",
];

/// Sweeps the serve driver over increasing horizons on a harshly faulty
/// FgNVM 8x2 device (tiny spare pool, read-only and capacity thresholds
/// armed), so each row is a later point in the device's lifetime. Runs
/// that bottom out the ladder are reported as `EXHAUSTED` rows built from
/// the structured [`SimError::CapacityExhausted`] error rather than
/// failing the sweep.
pub(crate) fn reliability_horizon(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let config = SystemConfig::fgnvm(8, 2)?.with_reliability(ReliabilityConfig {
        enabled: true,
        fault_seed: params.seed,
        rber: 2e-4,
        write_fail_prob: 0.25,
        max_write_retries: 2,
        ecc_correctable_bits: 1,
        ecc_decode_penalty_cycles: 8,
        spare_rows_per_bank: 3,
        read_only_row_threshold: 8,
        capacity_exhausted_banks: 14,
        ..ReliabilityConfig::default()
    });
    config.validate()?;
    let mut out = StudyOutcome::new(
        "Wear-out escalation over device lifetime (FgNVM 8x2, harsh faults)",
        &["horizon"],
        &[
            ("admitted", int),
            ("completed", int),
            ("remapped", int),
            ("retired", int),
            ("ro banks", int),
            ("w-rejects", int),
            ("state", |v| LADDER[v as usize].to_string()),
        ],
    );
    let mut exhausted = None;
    for horizon in [20_000u64, 60_000, 140_000, 300_000, 600_000] {
        // Every horizon past the first exhausted one exhausts too; record
        // them without re-running the (deterministic) prefix.
        let values = if let Some(values) = &exhausted {
            Vec::clone(values)
        } else {
            let sc = crate::serve::ServeConfig {
                horizon,
                // Arrival pressure scales with the horizon so later points
                // really are "more lifetime", not the same run cut short.
                ops: horizon / 40,
                seed: params.seed,
                watchdog_cycles: 10_000_000,
                ..crate::serve::ServeConfig::default()
            };
            match crate::serve::serve(config, &sc) {
                Ok(r) => {
                    let stage = [r.remapped_rows, r.retired_rows, r.read_only_banks]
                        .iter()
                        .rposition(|&n| n > 0)
                        .map_or(0, |i| i + 1);
                    [
                        r.admitted,
                        r.completions,
                        r.remapped_rows,
                        r.retired_rows,
                        r.read_only_banks,
                        r.read_only_write_rejections,
                        stage as u64,
                    ]
                    .map(|n| n as f64)
                    .to_vec()
                }
                Err(SimError::CapacityExhausted {
                    read_only_banks,
                    retired_rows,
                    ..
                }) => exhausted
                    .insert(vec![
                        0.0,
                        0.0,
                        0.0,
                        retired_rows as f64,
                        f64::from(read_only_banks),
                        0.0,
                        4.0,
                    ])
                    .clone(),
                Err(e) => return Err(e),
            }
        };
        out.push(vec![horizon.to_string()], values);
    }
    Ok(out)
}

/// Quick-tier parameters with `ops` memory operations per trace.
#[cfg(test)]
fn quick(ops: usize) -> ExperimentParams {
    ExperimentParams {
        ops,
        ..ExperimentParams::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        quick(500)
    }

    #[test]
    fn dimensions_2d_beats_both_1d_shapes_on_energy_and_speed() {
        let result = dimensions(&tiny()).unwrap();
        let cell = |shape, column| result.get(&[shape], column).unwrap();
        // SALP-like rows-only: parallelism but full-row sensing energy.
        let (salp, two_d) = (cell("16x1", "rel. energy"), cell("4x4", "rel. energy"));
        assert!(salp > two_d, "salp {salp} vs 2d {two_d}");
        // Columns-only: energy saving but a single open row limits speed.
        let (cols, two_d) = (cell("1x16", "speedup"), cell("4x4", "speedup"));
        assert!(cols < two_d, "cols {cols} vs 2d {two_d}");
        // 2D is competitive with SALP on performance.
        assert!(two_d >= cell("16x1", "speedup") * 0.9);
    }

    #[test]
    fn schedulers_ordering() {
        let result = schedulers(&tiny()).unwrap();
        let by = |k: SchedulerKind| result.get(&[&format!("{k:?}")], "speedup vs FCFS").unwrap();
        assert!((by(SchedulerKind::Fcfs) - 1.0).abs() < 1e-9);
        assert!(by(SchedulerKind::Frfcfs) >= 1.0);
        assert!(by(SchedulerKind::FrfcfsTlp) >= by(SchedulerKind::Frfcfs) * 0.98);
    }

    #[test]
    fn mappings_all_schemes_run_and_speedup_positive() {
        let result = mappings(&tiny()).unwrap();
        let speedups = result.select(&[], "FgNVM speedup");
        assert_eq!(speedups.len(), 4);
        for s in speedups {
            assert!(s > 0.8, "speedup {s}");
        }
    }
}

#[cfg(test)]
mod technology_tests {
    use super::*;

    #[test]
    fn dram_beats_pcm_but_fgnvm_closes_the_gap() {
        let params = quick(600);
        let result = technology(&params).unwrap();
        let speedup = |design| result.get(&[design], "speedup vs PCM baseline").unwrap();
        let pcm = speedup("PCM baseline");
        let fgnvm = speedup("FgNVM 8x8");
        let dram = speedup("DDR3-like DRAM");
        assert!((pcm - 1.0).abs() < 1e-9);
        assert!(dram > 1.0, "dram {dram} should beat the PCM baseline");
        assert!(fgnvm > 1.0, "fgnvm {fgnvm} should beat the PCM baseline");
        // FgNVM recovers a meaningful share of the PCM-to-DRAM gap.
        let recovered = (fgnvm - 1.0) / (dram - 1.0);
        assert!(
            recovered > 0.15,
            "fgnvm recovered only {recovered:.2} of the gap"
        );
    }
}

#[cfg(test)]
mod pausing_tests {
    use super::*;

    #[test]
    fn pausing_reduces_read_latency_on_write_heavy_traffic() {
        let params = quick(800);
        let result = pausing(&params).unwrap();
        let plain = |column| result.get(&["FgNVM 8x8"], column).unwrap();
        let paused = |column| result.get(&["FgNVM 8x8 + pausing"], column).unwrap();
        assert!(paused("writes paused") > 0.0, "no writes were paused");
        assert!(
            paused("avg read latency") <= plain("avg read latency") * 1.02,
            "pausing should not hurt read latency: {} vs {}",
            paused("avg read latency"),
            plain("avg read latency")
        );
        assert!(
            paused("speedup") >= 0.97,
            "pausing regressed ipc: {}",
            paused("speedup")
        );
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;

    #[test]
    fn channels_and_tlp_compose() {
        let params = quick(600);
        let result = scaling(&params).unwrap();
        let speedup = |channels, design| result.get(&[channels, design], "speedup").unwrap();
        let base1 = speedup("1", "baseline");
        let fg1 = speedup("1", "FgNVM 8x8");
        let base2 = speedup("2", "baseline");
        let fg2 = speedup("2", "FgNVM 8x8");
        assert!((base1 - 1.0).abs() < 1e-9);
        // More channels help the baseline; FgNVM still adds on top.
        assert!(base2 > base1 * 0.99, "2ch baseline {base2}");
        assert!(fg1 > base1, "fgnvm should beat baseline at 1ch");
        assert!(
            fg2 > base2 * 0.99,
            "fgnvm should not hurt at 2ch: {fg2} vs {base2}"
        );
    }
}

#[cfg(test)]
mod cells_tests {
    use super::*;

    #[test]
    fn fgnvm_helps_mlc_at_least_as_much_as_slc() {
        let params = quick(600);
        let result = cells(&params).unwrap();
        let gain = |cell| {
            result
                .get(&[cell, "FgNVM 8x8"], "FgNVM gain over same-cell baseline")
                .unwrap()
        };
        let slc_gain = gain("SLC");
        let mlc_gain = gain("MLC");
        assert!(slc_gain > 1.0, "slc gain {slc_gain}");
        assert!(
            mlc_gain >= slc_gain * 0.95,
            "tlp should matter at least as much on slow cells: mlc {mlc_gain} vs slc {slc_gain}"
        );
    }
}

#[cfg(test)]
mod multiprogrammed_tests {
    use super::*;

    #[test]
    fn consolidation_amplifies_tlp() {
        let params = quick(700);
        let result = multiprogrammed(&params).unwrap();
        let speedup = |traffic| result.get(&[traffic, "FgNVM 8x8"], "speedup").unwrap();
        let single = speedup("single program");
        let mixed = speedup("4-way mix");
        assert!(single > 1.0);
        assert!(
            mixed >= single * 0.95,
            "mix {mixed} should benefit at least as much as singles {single}"
        );
    }
}

#[cfg(test)]
mod coloring_tests {
    use super::*;

    #[test]
    fn placement_grants_or_destroys_tlp() {
        let params = quick(700);
        let result = coloring(&params).unwrap();
        let speedup = |policy| {
            result
                .get(&[policy], "FgNVM speedup over same-placement baseline")
                .unwrap()
        };
        let identity = speedup("identity (worst case)");
        let scattered = speedup("scattered (buddy allocator)");
        let striped = speedup("SAG-striped (geometry-aware)");
        // Identity placement confines footprints to few SAGs and should
        // yield the least benefit; geometry-aware striping at least matches
        // random scattering.
        assert!(
            identity <= scattered * 1.02,
            "identity {identity} vs scattered {scattered}"
        );
        assert!(
            striped >= scattered * 0.95,
            "striped {striped} vs scattered {scattered}"
        );
    }
}

#[cfg(test)]
mod timeline_tests {
    use super::*;

    #[test]
    fn timeline_produces_epochs_with_lower_fgnvm_power() {
        let params = quick(2000);
        let result = timeline(&params).unwrap();
        let base = result.select(&[], "base mW");
        assert!(base.len() >= 2, "expected several epochs");
        let base_total: f64 = base.iter().sum();
        let fg_total: f64 = result.select(&[], "fgnvm mW").iter().sum();
        assert!(
            fg_total < base_total,
            "fgnvm array power {fg_total} should undercut baseline {base_total}"
        );
    }
}

#[cfg(test)]
mod sweep_extension_tests {
    use super::*;

    #[test]
    fn write_sweep_bg_advantage_grows_with_writes() {
        let params = quick(800);
        let result = write_sweep(&params).unwrap();
        let on = result.select(&[], "bg writes ON");
        let off = result.select(&[], "bg writes OFF");
        // With no writes the two variants are identical.
        assert!((on[0] - off[0]).abs() < 0.05);
        // At high write intensity, backgrounded writes clearly win.
        let (last_on, last_off) = (on[on.len() - 1], off[off.len() - 1]);
        assert!(
            last_on > last_off * 1.1,
            "bg {last_on} vs no-bg {last_off} at 60% writes"
        );
    }

    #[test]
    fn depth_sweep_runs_and_stays_positive() {
        let params = quick(600);
        let result = depth_sweep(&params).unwrap();
        let speedups = result.select(&[], "speedup");
        assert_eq!(speedups.len(), 4);
        for s in speedups {
            assert!(s > 0.9, "speedup {s}");
        }
    }
}

#[cfg(test)]
mod detail_tests {
    use super::*;

    #[test]
    fn detail_covers_all_workloads() {
        let params = quick(300);
        let result = detail(&params).unwrap();
        let ipcs = result.select(&[], "ipc");
        assert_eq!(ipcs.len(), 12);
        assert!(ipcs.iter().all(|&ipc| ipc > 0.0));
        assert_eq!(result.table.rows.len(), 12);
    }
}

#[cfg(test)]
mod cores_tests {
    use super::*;

    #[test]
    fn consolidated_fgnvm_beats_consolidated_baseline() {
        let params = quick(500);
        let result = cores(&params).unwrap();
        let cell = |design, column| result.get(&[design], column).unwrap();
        assert!(cell("FgNVM 8x8", "throughput (ΣIPC)") > cell("baseline", "throughput (ΣIPC)"));
        assert!(
            cell("FgNVM 8x8", "weighted speedup") >= cell("baseline", "weighted speedup") * 0.98
        );
        for fairness in result.select(&[], "fairness") {
            assert!((0.0..=1.0 + 1e-9).contains(&fairness), "{fairness}");
        }
        for weighted in result.select(&[], "weighted speedup") {
            assert!(weighted <= 4.0 + 1e-9);
        }
    }
}

#[cfg(test)]
mod hybrid_tests {
    use super::*;

    #[test]
    fn buffer_and_subdivision_both_help_and_compose() {
        let params = quick(600);
        let result = hybrid(&params).unwrap();
        let cell = |design, column| result.get(&[design], column).unwrap();
        let fg = cell("FgNVM 8x8", "speedup");
        let buf = cell("DRAM buffer + PCM baseline", "speedup");
        let both = cell("DRAM buffer + FgNVM 8x8", "speedup");
        assert!(fg > 1.0);
        assert!(buf > 1.0);
        assert!(both >= fg.min(buf));
        // The buffer filters writes away from the PCM array.
        let writes = "PCM writes / kilo-instr";
        assert!(cell("DRAM buffer + PCM baseline", writes) < cell("PCM baseline", writes));
    }
}

#[cfg(test)]
mod tail_tests {
    use super::*;

    #[test]
    fn backgrounded_writes_shrink_the_read_tail() {
        let params = quick(900);
        let result = tail_latency(&params).unwrap();
        let cell = |design, column| result.get(&[design], column).unwrap();
        // The headline mechanism: reads no longer wait out tWP, so the
        // tail contracts by more than the median does.
        let (fg_p99, base_p99) = (cell("FgNVM 8x8", "~p99"), cell("baseline", "~p99"));
        assert!(
            fg_p99 < base_p99,
            "FgNVM p99 {fg_p99} should beat baseline p99 {base_p99}"
        );
        assert!(cell("FgNVM 8x8", "mean") < cell("baseline", "mean"));
        // Distributions are ordered within themselves.
        let (p50, p95, p99) = (
            result.select(&[], "~p50"),
            result.select(&[], "~p95"),
            result.select(&[], "~p99"),
        );
        for i in 0..p50.len() {
            assert!(p50[i] <= p95[i] && p95[i] <= p99[i], "row {i}");
        }
    }
}

#[cfg(test)]
mod wear_tests {
    use super::*;

    #[test]
    fn start_gap_trades_little_ipc_for_lifetime() {
        let params = quick(4000);
        let result = wear(&params).unwrap();
        let cell = |policy, column| result.get(&[policy], column).unwrap();
        assert_eq!(cell("none", "rotations"), 0.0);
        assert!(cell("start-gap /8", "rotations") > 0.0, "gap never rotated");
        // Leveling spreads the hot rows: imbalance and lifetime improve.
        let (fast, none) = (
            cell("start-gap /8", "wear imbalance"),
            cell("none", "wear imbalance"),
        );
        assert!(
            fast < none,
            "leveling did not reduce imbalance: {fast} vs {none}"
        );
        let gain = cell("start-gap /8", "lifetime gain");
        assert!(gain > 1.0, "no lifetime gain: {gain}");
        // Gap-copy traffic (an extra read+write every 8 writes, on the
        // hammered bank itself) costs bounded IPC.
        let ipc = cell("start-gap /8", "relative IPC");
        assert!(ipc > 0.70, "gap traffic too costly: {ipc}");
        // More frequent rotation levels at least as well, and costs more.
        assert!(fast <= cell("start-gap /64", "wear imbalance") * 1.10);
        assert!(cell("start-gap /8", "rotations") > cell("start-gap /64", "rotations"));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn page_policy_tracks_row_locality() {
        let params = quick(1500);
        let result = page_policy(&params).unwrap();
        let cell = |workload, column| result.get(&[workload], column).unwrap();
        // Streaming traffic rides row hits: open page must win clearly.
        let streaming = cell("libquantum_like", "closed/open");
        assert!(
            streaming < 0.98,
            "open page should win on streaming: {streaming}"
        );
        assert!(cell("libquantum_like", "open hit rate") > 0.5);
        // Scattered pointer chasing has few hits to forfeit; closed page
        // must be at worst a wash (and usually ahead).
        let scattered = cell("mcf_like", "closed/open");
        assert!(
            scattered > 0.97,
            "closed page should not lose on scattered traffic: {scattered}"
        );
        assert!(cell("mcf_like", "open hit rate") < cell("libquantum_like", "open hit rate"));
    }

    #[test]
    fn closed_page_rejected_outside_dram() {
        use fgnvm_types::config::RowPolicy;
        let mut config = SystemConfig::fgnvm(8, 8).unwrap();
        config.row_policy = RowPolicy::Closed;
        assert!(
            config.validate().is_err(),
            "closed page is a DRAM-only knob"
        );
    }
}

#[cfg(test)]
mod mlp_tests {
    use super::*;

    #[test]
    fn fgnvm_speedup_grows_with_the_mlp_window() {
        let params = quick(1200);
        let result = mlp(&params).unwrap();
        let first_last = |column| {
            let values = result.select(&[], column);
            (values[0], values[values.len() - 1])
        };
        let (narrow, wide) = first_last("speedup");
        // A near-in-order core cannot exploit tile parallelism; a huge
        // window can. The speedup must track the window.
        assert!(
            wide > narrow,
            "speedup did not grow with MLP: narrow {narrow:.3} wide {wide:.3}"
        );
        // Absolute IPC grows with the window on both designs.
        let (narrow_base, wide_base) = first_last("baseline IPC");
        let (narrow_fg, wide_fg) = first_last("FgNVM IPC");
        assert!(wide_base > narrow_base);
        assert!(wide_fg > narrow_fg);
        // With essentially no outstanding misses the two designs are close
        // to indistinguishable.
        assert!(narrow < wide * 1.0 + 0.5);
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::*;

    #[test]
    fn slowdown_is_monotone_in_fault_severity() {
        let params = quick(900);
        let result = reliability(&params).unwrap();
        assert_eq!(result.table.rows.len(), 8);
        for design in ["baseline", "FgNVM 8x2"] {
            let column = |name| result.select(&[design], name);
            let slowdown = column("slowdown");
            let retries = column("retries");
            let corrected = column("corrected");
            assert_eq!(slowdown.len(), 4);
            // The clean point anchors at exactly 1.0 by construction, and
            // the fault layer at zero rates must not have cost anything
            // measurable either.
            assert!((slowdown[0] - 1.0).abs() < 1e-12);
            assert_eq!(retries[0], 0.0);
            assert_eq!(corrected[0] + column("uncorr")[0], 0.0);
            // Severity must cost monotonically more.
            for pair in slowdown.windows(2) {
                assert!(
                    pair[1] >= pair[0],
                    "{design}: slowdown regressed between levels: {:?} -> {:?}",
                    pair[0],
                    pair[1]
                );
            }
            // The harshest level visibly hurts and exercises every path.
            assert!(slowdown[3] > 1.01, "{design}: {}", slowdown[3]);
            assert!(retries[3] > 0.0);
            assert!(corrected[3] > 0.0);
        }
    }
}

#[cfg(test)]
mod reliability_horizon_tests {
    use super::*;

    #[test]
    fn degradation_is_monotone_over_lifetime() {
        let params = ExperimentParams::quick();
        let result = reliability_horizon(&params).unwrap();
        let column = |name| result.select(&[], name);
        let (remapped, retired, read_only) =
            (column("remapped"), column("retired"), column("ro banks"));
        let exhausted = column("state")
            .iter()
            .map(|&s| LADDER[s as usize] == "EXHAUSTED")
            .collect::<Vec<_>>();
        assert_eq!(remapped.len(), 5);
        // Damage counters never heal as the horizon grows.
        for i in 1..5 {
            assert!(remapped[i] >= remapped[i - 1] || exhausted[i]);
            assert!(retired[i] >= retired[i - 1]);
            assert!(read_only[i] >= read_only[i - 1]);
        }
        // The harsh fault config must visibly walk the ladder by the end.
        assert!(
            remapped[4] > 0.0 || retired[4] > 0.0 || exhausted[4],
            "no degradation observed: {:?}",
            result.table.to_csv()
        );
    }
}
