//! One study engine: every table `fgnvm-repro` prints is a registered
//! [`Study`], and most are a declared `Grid`.
//!
//! The paper's evaluation has one shape — run each design on each
//! workload, normalize to a reference design on the same workload, reduce
//! over workloads — and so do most extension studies. A `Grid` states
//! that shape as data: workloads, designs, labelled rows (each naming its
//! design and the reference it is normalized to), and columns (a header,
//! a metric read from the run pair, a reduction — geometric or arithmetic
//! mean, sum, or maximum — and a format). One runner
//! sends every workload × design pair through [`run_grid`], and one
//! renderer returns the [`Table`] together with the raw `f64` cells,
//! which tests and `fgnvm-repro regress` look up by row label and column
//! header ([`StudyOutcome::get`]).
//!
//! Studies whose runs are not [`run_one`](crate::runner::run_one) over a
//! [`SystemConfig`] (the static tables, the epoch sampler, multi-core and
//! hybrid memories, wear tracking, address mappings, per-row core
//! windows, the `Simulation` builder, the serve driver) keep a small run
//! function that fills the same [`StudyOutcome`].
//!
//! [`STUDIES`] is the registry: the CLI's study commands, `all`, the
//! usage text and the golden snapshots all read it.

use std::ops::Range;

use fgnvm_cpu::Trace;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::{ConfigError, SimError};
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::all_profiles;

use crate::report::{fmt_speedup, geometric_mean, mean, Table};
use crate::runner::{run_grid, ExperimentParams, RunOutcome};
use crate::{experiment, extensions};

/// How a column folds its per-workload values into one cell. A row over
/// a single workload reports that workload's value unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reduce {
    /// Geometric mean (speedups, ratios).
    Gmean,
    /// Arithmetic mean (energies, latencies).
    Mean,
    /// Total (event counts).
    Sum,
    /// Worst case (tail latencies).
    Max,
}

impl Reduce {
    fn apply(self, values: &[f64]) -> f64 {
        if let [only] = values {
            return *only;
        }
        match self {
            Reduce::Gmean => geometric_mean(values),
            Reduce::Mean => mean(values),
            Reduce::Sum => values.iter().sum(),
            Reduce::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Renders one cell value.
pub(crate) type Fmt = fn(f64) -> String;

/// One run of a grid column's design, with the run it is normalized to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell<'a> {
    /// The run the cell reports.
    pub run: &'a RunOutcome,
    /// The same workload on the row's (or column's) reference design.
    pub reference: &'a RunOutcome,
    /// The design `run` ran on.
    pub config: &'a SystemConfig,
}

/// Reads one number from a run pair.
pub(crate) type Metric = fn(&Cell<'_>) -> f64;

/// IPC over the reference design's IPC.
pub(crate) fn speedup(c: &Cell<'_>) -> f64 {
    c.run.core.speedup_over(&c.reference.core)
}

/// Total energy over the reference design's.
pub(crate) fn energy(c: &Cell<'_>) -> f64 {
    c.run.energy.relative_to(&c.reference.energy)
}

/// Mean read latency in memory cycles.
pub(crate) fn read_latency(c: &Cell<'_>) -> f64 {
    c.run.avg_read_latency
}

/// Absolute IPC.
pub(crate) fn ipc(c: &Cell<'_>) -> f64 {
    c.run.core.ipc()
}

/// `{:.0} cy`
pub(crate) fn cycles(v: f64) -> String {
    format!("{v:.0} cy")
}

/// `{:.0}`
pub(crate) fn int(v: f64) -> String {
    format!("{v:.0}")
}

/// `{:.3}`
pub(crate) fn fixed3(v: f64) -> String {
    format!("{v:.3}")
}

/// A fraction as `{:.0}%`.
pub(crate) fn percent(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// One column of a [`Grid`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Column {
    header: &'static str,
    metric: Metric,
    reduce: Reduce,
    fmt: Fmt,
    design: Option<usize>,
    reference: Option<usize>,
}

impl Column {
    /// A column reading `metric` on each row's design against the row's
    /// reference.
    pub(crate) fn new(header: &'static str, metric: Metric, reduce: Reduce, fmt: Fmt) -> Self {
        Column {
            header,
            metric,
            reduce,
            fmt,
            design: None,
            reference: None,
        }
    }

    /// Reads `design` instead of the row's design (tables with one row
    /// per workload and one column per design).
    pub(crate) fn of(self, design: usize) -> Self {
        Column {
            design: Some(design),
            ..self
        }
    }

    /// Normalizes to `reference` instead of the row's reference.
    pub(crate) fn vs(self, reference: usize) -> Self {
        Column {
            reference: Some(reference),
            ..self
        }
    }
}

#[derive(Debug, Clone)]
struct Row {
    labels: Vec<String>,
    workloads: Range<usize>,
    design: usize,
    reference: usize,
}

/// A declared workload × design study: see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    title: String,
    labels: &'static [&'static str],
    columns: Vec<Column>,
    traces: Vec<Trace>,
    designs: Vec<SystemConfig>,
    rows: Vec<Row>,
}

impl Grid {
    /// A grid with no rows yet: `labels` head the label columns that
    /// precede `columns`.
    pub(crate) fn new(
        title: impl Into<String>,
        labels: &'static [&'static str],
        columns: Vec<Column>,
        traces: Vec<Trace>,
        designs: Vec<SystemConfig>,
    ) -> Self {
        Grid {
            title: title.into(),
            labels,
            columns,
            traces,
            designs,
            rows: Vec::new(),
        }
    }

    /// Adds a row reducing `design` against `reference` over every
    /// workload.
    pub(crate) fn row(&mut self, labels: Vec<String>, design: usize, reference: usize) {
        let all = 0..self.traces.len();
        self.row_over(labels, design, reference, all);
    }

    /// Adds a row reducing over the `workloads` slice of the traces only.
    pub(crate) fn row_over(
        &mut self,
        labels: Vec<String>,
        design: usize,
        reference: usize,
        workloads: Range<usize>,
    ) {
        self.rows.push(Row {
            labels,
            workloads,
            design,
            reference,
        });
    }

    /// Adds one row per workload, labelled by trace name, each normalized
    /// to design 0, then a `footer` row reducing over all of them.
    pub(crate) fn per_workload(&mut self, footer: Option<&str>) {
        for w in 0..self.traces.len() {
            let name = self.traces[w].name().to_string();
            self.row_over(vec![name], 0, 0, w..w + 1);
        }
        if let Some(footer) = footer {
            self.row(vec![footer.to_string()], 0, 0);
        }
    }

    /// Runs every workload × design pair through one [`run_grid`] pool
    /// and renders the rows.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] a design fails to build with.
    pub(crate) fn run(&self, params: &ExperimentParams) -> Result<StudyOutcome, ConfigError> {
        let grid = run_grid(&self.traces, &self.designs, params)?;
        let headers: Vec<(&'static str, Fmt)> =
            self.columns.iter().map(|c| (c.header, c.fmt)).collect();
        let mut out = StudyOutcome::new(self.title.clone(), self.labels, &headers);
        for row in &self.rows {
            let values = self
                .columns
                .iter()
                .map(|col| {
                    let design = col.design.unwrap_or(row.design);
                    let reference = col.reference.unwrap_or(row.reference);
                    let per_workload: Vec<f64> = grid[row.workloads.clone()]
                        .iter()
                        .map(|runs| {
                            (col.metric)(&Cell {
                                run: &runs[design],
                                reference: &runs[reference],
                                config: &self.designs[design],
                            })
                        })
                        .collect();
                    col.reduce.apply(&per_workload)
                })
                .collect();
            out.push(row.labels.clone(), values);
        }
        Ok(out)
    }
}

/// What a study produced: the rendered table plus the raw value of every
/// non-label cell.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// The rendered table (label columns first, then value columns).
    pub table: Table,
    /// Text printed after the table in the plain-text format only.
    pub notes: String,
    columns: Vec<(&'static str, Fmt)>,
    rows: Vec<(Vec<String>, Vec<f64>)>,
}

impl StudyOutcome {
    /// An empty outcome: `labels` head the label columns, `columns` the
    /// value columns with their formats.
    pub(crate) fn new(
        title: impl Into<String>,
        labels: &[&str],
        columns: &[(&'static str, Fmt)],
    ) -> Self {
        let headers: Vec<&str> = labels
            .iter()
            .copied()
            .chain(columns.iter().map(|(h, _)| *h))
            .collect();
        StudyOutcome {
            table: Table::new(title, &headers),
            notes: String::new(),
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Appends a row: its label cells, then one value per value column.
    pub(crate) fn push(&mut self, labels: Vec<String>, values: Vec<f64>) {
        let cells = labels
            .iter()
            .cloned()
            .chain(
                self.columns
                    .iter()
                    .zip(&values)
                    .map(|((_, fmt), &v)| fmt(v)),
            )
            .collect();
        self.table.push_row(cells);
        self.rows.push((labels, values));
    }

    /// The `column` values of every row whose labels start with `row`, in
    /// row order (`&[]` selects every row).
    ///
    /// # Panics
    ///
    /// Panics if the study has no value column headed `column`.
    pub fn select(&self, row: &[&str], column: &str) -> Vec<f64> {
        let index = self
            .columns
            .iter()
            .position(|(h, _)| *h == column)
            .unwrap_or_else(|| panic!("{:?} has no column {column:?}", self.table.title()));
        self.rows
            .iter()
            .filter(|(labels, _)| {
                row.len() <= labels.len() && labels.iter().zip(row).all(|(l, r)| l == r)
            })
            .map(|(_, values)| values[index])
            .collect()
    }

    /// The `column` value of the first row whose labels start with `row`.
    ///
    /// # Panics
    ///
    /// Panics if the study has no value column headed `column`.
    pub fn get(&self, row: &[&str], column: &str) -> Option<f64> {
        self.select(row, column).first().copied()
    }
}

/// Runs one study at the given parameters.
pub type Run = fn(&ExperimentParams) -> Result<StudyOutcome, SimError>;

/// One registered study command.
#[derive(Debug, Clone, Copy)]
pub struct Study {
    /// The `fgnvm-repro` command.
    pub command: &'static str,
    /// One-line description for the usage text.
    pub about: &'static str,
    /// The study.
    pub run: Run,
    /// The variant `--horizon N` selects instead, if the study has one.
    pub horizon: Option<Run>,
}

const fn study(command: &'static str, about: &'static str, run: Run) -> Study {
    Study {
        command,
        about,
        run,
        horizon: None,
    }
}

/// Every study, in the order `fgnvm-repro all` prints them.
pub static STUDIES: [Study; 27] = [
    study("table1", "area overheads (Table 1)", |_| {
        Ok(experiment::table1())
    }),
    study("table2", "memory system setup (Table 2)", |_| {
        Ok(experiment::table2())
    }),
    study(
        "fig4",
        "relative IPC: FgNVM / 128 banks / Multi-Issue (Figure 4)",
        |p| Ok(experiment::fig4(&all_profiles(), p)?),
    ),
    study(
        "fig5",
        "relative energy: 8x2 / 8x8 / 8x32 / Perfect (Figure 5)",
        |p| Ok(experiment::fig5(&all_profiles(), p)?),
    ),
    study(
        "ablation",
        "per-access-mode contribution study",
        experiment::ablation,
    ),
    study("sweep", "SAG x CD sensitivity sweep", experiment::sweep),
    study(
        "summary",
        "headline numbers vs the paper's §6 claims",
        experiment::summary,
    ),
    study(
        "dims",
        "1D (SALP-like) vs 2D subdivision at equal unit count",
        extensions::dimensions,
    ),
    study(
        "sched",
        "scheduler study (FCFS / FRFCFS / TLP-augmented)",
        extensions::schedulers,
    ),
    study("maps", "address-mapping sensitivity", extensions::mappings),
    study(
        "tech",
        "PCM baseline vs FgNVM vs DDR3-like DRAM",
        extensions::technology,
    ),
    study(
        "pause",
        "write-pausing study on write-heavy workloads",
        extensions::pausing,
    ),
    study("scaling", "channel-scaling study", extensions::scaling),
    study("mlc", "SLC vs MLC PCM cell study", extensions::cells),
    study(
        "mix",
        "multiprogrammed consolidation pressure",
        extensions::multiprogrammed,
    ),
    study(
        "coloring",
        "OS page-placement (identity / scattered / SAG-striped)",
        extensions::coloring,
    ),
    study(
        "timeline",
        "per-epoch power/bandwidth time series",
        extensions::timeline,
    ),
    study(
        "writes",
        "Backgrounded-Writes headroom vs write intensity",
        extensions::write_sweep,
    ),
    study(
        "depth",
        "transaction-queue depth sensitivity",
        extensions::depth_sweep,
    ),
    study(
        "detail",
        "per-workload metric detail on the 8x8 FgNVM",
        extensions::detail,
    ),
    study(
        "tail",
        "read-latency distribution (p50/p95/p99) under write-heavy traffic",
        extensions::tail_latency,
    ),
    study(
        "wear",
        "Start-Gap wear leveling: lifetime gain vs gap-traffic cost",
        extensions::wear,
    ),
    study(
        "policy",
        "DRAM open- vs closed-page (a knob PCM's substrate dissolves)",
        extensions::page_policy,
    ),
    study(
        "mlp",
        "FgNVM speedup vs core ROB/MSHR window (the MLP dependence)",
        extensions::mlp,
    ),
    study(
        "cores",
        "4-core consolidation: throughput / weighted speedup / fairness",
        extensions::cores,
    ),
    study(
        "hybrid",
        "DRAM-buffered PCM (ref [8]) vs and with FgNVM",
        extensions::hybrid,
    ),
    Study {
        horizon: Some(extensions::reliability_horizon),
        ..study(
            "reliability",
            "fault injection: RBER x write-verify sweep through ECC/retry/remap \
             (--horizon N: wear-out escalation over device lifetime)",
            extensions::reliability,
        )
    },
];

/// The registered study named `command`.
pub fn find(command: &str) -> Option<&'static Study> {
    STUDIES.iter().find(|s| s.command == command)
}

/// Runs every standard workload on each named configuration and reports
/// the geometric-mean speedup of each over the first (`fgnvm-repro
/// compare a.cfg b.cfg ...`).
///
/// # Errors
///
/// Returns the first [`ConfigError`] a configuration fails to build with.
pub fn compare(
    configs: &[(String, SystemConfig)],
    params: &ExperimentParams,
) -> Result<StudyOutcome, ConfigError> {
    let traces = all_profiles()
        .iter()
        .map(|p| p.generate(Geometry::default(), params.seed, params.ops))
        .collect();
    let mut grid = Grid::new(
        "Parameter-file comparison (gmean speedup vs the first file)",
        &["file"],
        vec![Column::new("speedup", speedup, Reduce::Gmean, fmt_speedup)],
        traces,
        configs.iter().map(|(_, c)| *c).collect(),
    );
    for (i, (name, _)) in configs.iter().enumerate() {
        grid.row(vec![name.clone()], i, 0);
    }
    grid.run(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_workload_rows_report_the_value_unchanged() {
        // exp(ln x) can move the last bit; a one-workload row must not.
        let x = 1.234_567_890_123_456_7;
        for reduce in [Reduce::Gmean, Reduce::Mean, Reduce::Sum, Reduce::Max] {
            assert_eq!(reduce.apply(&[x]).to_bits(), x.to_bits());
        }
        assert_eq!(Reduce::Sum.apply(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(Reduce::Max.apply(&[1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn lookups_match_label_prefixes() {
        let mut out = StudyOutcome::new("demo", &["a", "b"], &[("v", int)]);
        out.push(vec!["x".into(), "1".into()], vec![10.0]);
        out.push(vec!["x".into(), "2".into()], vec![20.0]);
        out.push(vec!["y".into(), "1".into()], vec![30.0]);
        assert_eq!(out.select(&["x"], "v"), vec![10.0, 20.0]);
        assert_eq!(out.get(&["x", "2"], "v"), Some(20.0));
        assert_eq!(out.get(&["z"], "v"), None);
        assert_eq!(out.get(&["x", "1", "extra"], "v"), None);
        assert_eq!(out.select(&[], "v").len(), 3);
        assert_eq!(out.table.to_csv(), "a,b,v\nx,1,10\nx,2,20\ny,1,30\n");
    }

    #[test]
    fn registry_commands_are_unique() {
        for (i, s) in STUDIES.iter().enumerate() {
            assert!(
                STUDIES[..i].iter().all(|t| t.command != s.command),
                "{} registered twice",
                s.command
            );
            assert!(std::ptr::eq(find(s.command).unwrap(), s));
        }
        assert!(find("bogus").is_none());
    }
}
