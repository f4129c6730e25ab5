//! The paper's studies, declared for the [study engine](crate::study).
//!
//! | Command | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — area overheads |
//! | `table2` | Table 2 — memory system setup |
//! | `fig4` ([`fig4`]) | Figure 4 — relative IPC (FgNVM, 128 banks, Multi-Issue) |
//! | `fig5` ([`fig5`]) | Figure 5 — relative energy (8×2, 8×8, 8×32, Perfect) |
//! | `ablation` | per-access-mode contribution study (§4 design choices) |
//! | `sweep` | SAG×CD sensitivity sweep |
//! | `summary` | §6 headline numbers vs the paper's claims |

use fgnvm_cpu::Trace;
use fgnvm_model::area::AreaModel;
use fgnvm_model::energy::{perfect_energy_pj, AccessCounts};
use fgnvm_types::config::{BankModel, SystemConfig};
use fgnvm_types::error::{ConfigError, SimError};
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::{all_profiles, Profile};

use crate::report::{fmt_ratio, fmt_speedup};
use crate::runner::ExperimentParams;
use crate::study::{energy, speedup, Cell, Column, Grid, Reduce, StudyOutcome};

/// The geometry traces are generated against (the baseline address space;
/// all compared configurations cover the same capacity).
pub(crate) fn trace_geometry() -> Geometry {
    SystemConfig::baseline().geometry
}

/// Generates the named profiles' traces on the baseline address space.
pub(crate) fn traces(names: &[&str], params: &ExperimentParams) -> Vec<Trace> {
    names
        .iter()
        .map(|n| {
            fgnvm_workloads::profile(n)
                .expect("known profile")
                .generate(trace_geometry(), params.seed, params.ops)
        })
        .collect()
}

fn generate(profiles: &[Profile], params: &ExperimentParams) -> Vec<Trace> {
    profiles
        .iter()
        .map(|p| p.generate(trace_geometry(), params.seed, params.ops))
        .collect()
}

/// Figure 4 (relative IPC over the baseline PCM design) on `profiles`:
/// one row per workload plus a `gmean` row.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails to build.
pub fn fig4(profiles: &[Profile], params: &ExperimentParams) -> Result<StudyOutcome, ConfigError> {
    let designs = vec![
        SystemConfig::baseline(),
        SystemConfig::fgnvm(8, 2)?,
        SystemConfig::many_banks_matching(8, 2)?,
        SystemConfig::fgnvm_multi_issue(8, 2, 2)?,
    ];
    let column =
        |header, design| Column::new(header, speedup, Reduce::Gmean, fmt_speedup).of(design);
    let mut grid = Grid::new(
        "Figure 4: IPC relative to baseline (8x2 FgNVM)",
        &["workload"],
        vec![
            column("FgNVM", 1),
            column("128 banks", 2),
            column("FgNVM+Multi-Issue", 3),
        ],
        generate(profiles, params),
        designs,
    );
    grid.per_workload(Some("gmean"));
    grid.run(params)
}

/// "Perfect": exactly one cache line sensed per miss of the design, no
/// background power, relative to the reference's total energy.
fn perfect_energy(c: &Cell<'_>) -> f64 {
    let counts = AccessCounts {
        reads: c.run.banks.reads,
        read_hits: c.run.banks.row_hits,
        writes: c.run.banks.writes,
    };
    perfect_energy_pj(&counts, &c.config.geometry, &c.config.energy) / c.reference.energy.total_pj()
}

/// Figure 5 (energy normalized to the baseline NVM prototype) on
/// `profiles`: one row per workload plus a `mean` row.
///
/// # Errors
///
/// Returns [`ConfigError`] if a configuration fails to build.
pub fn fig5(profiles: &[Profile], params: &ExperimentParams) -> Result<StudyOutcome, ConfigError> {
    let designs = vec![
        SystemConfig::baseline(),
        SystemConfig::fgnvm(8, 2)?,
        SystemConfig::fgnvm(8, 8)?,
        SystemConfig::fgnvm(8, 32)?,
    ];
    let column =
        |header, metric, design| Column::new(header, metric, Reduce::Mean, fmt_ratio).of(design);
    let mut grid = Grid::new(
        "Figure 5: energy relative to baseline",
        &["workload"],
        vec![
            column("8x2", energy, 1),
            column("8x8", energy, 2),
            column("8x32", energy, 3),
            column("8x32 Perfect", perfect_energy, 3),
        ],
        generate(profiles, params),
        designs,
    );
    grid.per_workload(Some("mean"));
    grid.run(params)
}

/// Table 1 (area overheads).
pub(crate) fn table1() -> StudyOutcome {
    let model = AreaModel::paper_calibrated();
    let (avg, max) = model.table1();
    let mut t = StudyOutcome::new(
        "Table 1: area overheads (avg = 8x8 FgNVM, max = 32x32 FgNVM)",
        &["component", "avg overhead", "max overhead"],
        &[],
    );
    let rows = [
        ["Row Decoder".into(), "N/A".into(), "N/A".into()],
        [
            "Row Latches".into(),
            format!("{:.0} um^2", avg.row_latches_um2),
            format!("{:.0} um^2", max.row_latches_um2),
        ],
        [
            "CSL Latches".into(),
            format!("{:.1} um^2", avg.csl_latches_um2),
            format!("{:.0} um^2", max.csl_latches_um2),
        ],
        [
            "LY-SEL Lines".into(),
            "0 um^2 (routed over tiles)".into(),
            format!("{:.2} mm^2", max.yselect_lines_um2 / 1e6),
        ],
        [
            "Total".into(),
            format!("{:.0} um^2 ({:.3}%)", avg.total_um2(), avg.percent_of_chip),
            format!(
                "{:.2} mm^2 ({:.2}%)",
                max.total_um2() / 1e6,
                max.percent_of_chip
            ),
        ],
    ];
    for row in rows {
        t.push(row.to_vec(), vec![]);
    }
    t
}

/// Table 2 (memory system setup) from the live configuration.
pub(crate) fn table2() -> StudyOutcome {
    let cfg = SystemConfig::fgnvm(4, 4).expect("paper config is valid");
    let g = cfg.geometry;
    let t2 = cfg.timing;
    let mut t = StudyOutcome::new("Table 2: memory system setup", &["parameter", "value"], &[]);
    let rows: Vec<(&str, String)> = vec![
        (
            "row buffer",
            format!(
                "{} B per device ({} B rank-visible)",
                g.row_bytes() / 2,
                g.row_bytes()
            ),
        ),
        ("scheduler", "FRFCFS (+TLP-augmented)".into()),
        (
            "write drivers / write queue",
            format!("{}", cfg.write_queue_entries),
        ),
        ("queue entries", format!("{}", cfg.queue_entries)),
        ("column divisions", format!("{}", g.cds())),
        ("subarray groups", format!("{}", g.sags())),
        ("tRCD", format!("{} ns", t2.t_rcd_ns)),
        ("tCAS", format!("{} ns", t2.t_cas_ns)),
        ("tRAS", format!("{} ns", t2.t_ras_ns)),
        ("tRP", format!("{} ns", t2.t_rp_ns)),
        ("tCCD", format!("{} cycles", t2.t_ccd_cycles)),
        ("tBURST", format!("{} cycles", t2.t_burst_cycles)),
        ("tCWD", format!("{} ns", t2.t_cwd_ns)),
        ("tWP", format!("{} ns", t2.t_wp_ns)),
        ("tWR", format!("{} ns", t2.t_wr_ns)),
    ];
    for (k, v) in rows {
        t.push(vec![k.into(), v], vec![]);
    }
    t
}

/// Mode combinations exercised by the ablation.
fn ablation_models() -> [(&'static str, BankModel); 5] {
    let modes = |partial_activation, multi_activation, background_writes| BankModel::Fgnvm {
        partial_activation,
        multi_activation,
        background_writes,
    };
    [
        ("none", modes(false, false, false)),
        ("partial-only", modes(true, false, false)),
        ("multi-only", modes(false, true, false)),
        ("bg-writes-only", modes(false, true, true)),
        ("all", BankModel::fgnvm()),
    ]
}

/// Ablation of the three access modes on an 8×8 FgNVM, on a
/// conflict-heavy and a write-heavy workload.
pub(crate) fn ablation(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let mut designs = vec![SystemConfig::baseline()];
    for (_, model) in ablation_models() {
        designs.push(SystemConfig {
            bank_model: model,
            ..SystemConfig::fgnvm(8, 8)?
        });
    }
    let traces = traces(&["mcf_like", "lbm_like", "milc_like"], params);
    let names: Vec<String> = traces.iter().map(|t| t.name().to_string()).collect();
    let mut grid = Grid::new(
        "Ablation: access-mode contributions (8x8 FgNVM)",
        &["workload", "modes"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("rel. energy", energy, Reduce::Mean, fmt_ratio),
        ],
        traces,
        designs,
    );
    for (w, name) in names.into_iter().enumerate() {
        for (m, (label, _)) in ablation_models().into_iter().enumerate() {
            grid.row_over(vec![name.clone(), label.into()], m + 1, 0, w..w + 1);
        }
    }
    Ok(grid.run(params)?)
}

/// Area overhead (% of chip) of the design's subdivision.
fn area_percent(c: &Cell<'_>) -> f64 {
    let g = c.config.geometry;
    AreaModel::paper_calibrated()
        .report(g.sags(), g.cds())
        .percent_of_chip
}

/// The SAG×CD subdivision sweep on three representative workloads.
pub(crate) fn sweep(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let shapes = [(2u32, 2u32), (4, 4), (8, 2), (8, 8), (16, 16), (32, 32)];
    let mut designs = vec![SystemConfig::baseline()];
    for (sags, cds) in shapes {
        designs.push(SystemConfig::fgnvm(sags, cds)?);
    }
    let mut grid = Grid::new(
        "Sensitivity: SAG x CD sweep (gmean over workloads)",
        &["design"],
        vec![
            Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup),
            Column::new("rel. energy", energy, Reduce::Mean, fmt_ratio),
            Column::new("area %", area_percent, Reduce::Max, |v| format!("{v:.3}")),
        ],
        traces(&["mcf_like", "libquantum_like", "omnetpp_like"], params),
        designs,
    );
    for (d, (sags, cds)) in shapes.into_iter().enumerate() {
        grid.row(vec![format!("{sags}x{cds}")], d + 1, 0);
    }
    Ok(grid.run(params)?)
}

/// The headline comparison against the paper's §6 claims (runs Figures 4
/// and 5).
pub(crate) fn summary(params: &ExperimentParams) -> Result<StudyOutcome, SimError> {
    let profiles = all_profiles();
    let f4 = fig4(&profiles, params)?;
    let f5 = fig5(&profiles, params)?;
    let measured = |study: &StudyOutcome, row, column| {
        study
            .get(&[row], column)
            .expect("figure has its reduction row")
    };
    let mut t = StudyOutcome::new(
        "Headline results vs paper (§6)",
        &["metric", "paper", "measured"],
        &[],
    );
    let rows = [
        (
            "avg FgNVM speedup",
            "1.57x",
            fmt_speedup(measured(&f4, "gmean", "FgNVM")),
        ),
        (
            "8x2 rel. energy",
            "0.63",
            fmt_ratio(measured(&f5, "mean", "8x2")),
        ),
        (
            "8x8 rel. energy",
            "0.35",
            fmt_ratio(measured(&f5, "mean", "8x8")),
        ),
        (
            "8x32 rel. energy",
            "0.27",
            fmt_ratio(measured(&f5, "mean", "8x32")),
        ),
    ];
    for (metric, paper, value) in rows {
        t.push(vec![metric.into(), paper.into(), value], vec![]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            ops: 400,
            ..ExperimentParams::quick()
        }
    }

    #[test]
    fn table1_has_all_components() {
        let t = table1();
        let s = t.table.render();
        for needle in [
            "Row Decoder",
            "Row Latches",
            "CSL Latches",
            "LY-SEL Lines",
            "Total",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table2_lists_paper_timings() {
        let s = table2().table.render();
        for needle in ["tRCD", "25 ns", "tWP", "150 ns", "FRFCFS"] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig4_speedups_exceed_one_for_conflict_heavy() {
        let profiles = [fgnvm_workloads::profile("mcf_like").unwrap()];
        let result = fig4(&profiles, &tiny_params()).unwrap();
        let row = |column| result.get(&["mcf_like"], column).unwrap();
        let fgnvm = row("FgNVM");
        assert!(fgnvm >= 0.95, "fgnvm regressed: {fgnvm}");
        assert!(
            row("128 banks") >= fgnvm * 0.9,
            "many banks should be competitive"
        );
    }

    #[test]
    fn fig5_orderings_hold() {
        let profiles = [fgnvm_workloads::profile("milc_like").unwrap()];
        let result = fig5(&profiles, &tiny_params()).unwrap();
        let row = |column| result.get(&["milc_like"], column).unwrap();
        let (e8x2, e8x8, e8x32) = (row("8x2"), row("8x8"), row("8x32"));
        assert!(e8x2 < 1.0, "8x2 should save energy: {e8x2}");
        assert!(e8x8 < e8x2, "more CDs must save more");
        assert!(e8x32 <= e8x8 * 1.05);
        assert!(row("8x32 Perfect") <= e8x32 * 1.05);
    }

    #[test]
    fn ablation_all_beats_none() {
        let result = ablation(&tiny_params()).unwrap();
        let cell = |workload, modes, column| result.get(&[workload, modes], column).unwrap();
        for workload in ["mcf_like", "lbm_like"] {
            let none = cell(workload, "none", "speedup");
            let all = cell(workload, "all", "speedup");
            // Pointer-chasing workloads cannot exploit parallelism (their
            // loads serialize on dependences), so allow a small underfetch
            // cost; everything else must improve.
            assert!(
                all >= none * 0.95,
                "{workload}: all {all} much worse than none {none}"
            );
            // Partial activation always cuts energy.
            assert!(
                cell(workload, "all", "rel. energy") <= cell(workload, "none", "rel. energy"),
                "{workload}: energy regressed"
            );
        }
        // The write-heavy workload must benefit from backgrounded writes.
        let lbm_none = cell("lbm_like", "none", "speedup");
        let lbm_all = cell("lbm_like", "all", "speedup");
        assert!(
            lbm_all > lbm_none,
            "write hiding should speed up lbm_like: {lbm_all} vs {lbm_none}"
        );
    }
}
