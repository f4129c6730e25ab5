//! Benchmark-only crate: see the `benches/` directory. Each bench target
//! regenerates one table or figure of the paper and then measures the
//! simulator kernels behind it with Criterion.

use fgnvm_sim::runner::ExperimentParams;
use fgnvm_sim::Table;

/// Runs the registered study `command` and returns its table.
///
/// # Panics
///
/// Panics if no study is registered under `command` or the study fails.
pub fn regenerate(command: &str, params: &ExperimentParams) -> Table {
    let study = fgnvm_sim::study::find(command).expect("registered study");
    (study.run)(params)
        .unwrap_or_else(|e| panic!("{command}: {e}"))
        .table
}
