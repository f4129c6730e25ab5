//! Experiment harness reproducing the FgNVM paper's tables and figures.
//!
//! Every study — the paper's tables and figures ([`experiment`]) and the
//! extension studies — is one entry of the [`study::STUDIES`] registry. A
//! study regenerates its table using the full simulation stack: synthetic
//! SPEC-like traces ([`fgnvm_workloads`]) replayed by a windowed core
//! ([`fgnvm_cpu`]) against the cycle-level memory simulator
//! ([`fgnvm_mem`]) with baseline or FgNVM banks ([`fgnvm_bank`]).
//!
//! The `fgnvm-repro` binary runs any registered study by its command:
//!
//! ```text
//! cargo run -p fgnvm-sim --bin fgnvm-repro -- fig4 --ops 6000
//! ```
//!
//! # Example
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fgnvm_sim::runner::ExperimentParams;
//! use fgnvm_sim::study;
//!
//! let fig4 = study::find("fig4").expect("registered study");
//! let outcome = (fig4.run)(&ExperimentParams::quick())?;
//! println!("{}", outcome.table.render());
//! println!("gmean FgNVM speedup: {:?}", outcome.get(&["gmean"], "FgNVM"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod experiment;
mod extensions;
pub mod golden;
pub mod observe;
pub mod profile;
pub mod report;
pub mod runner;
pub mod serve;
pub mod simulation;
pub mod study;
pub mod viz;

pub use audit::{audit, AuditOutcome};
pub use observe::{observe, ObserveOutcome};
pub use profile::{
    compare_ledgers, parse_ledger, profile, CompareOutcome, MetricDelta, ProfileOutcome, RunRecord,
    SCHEMA_VERSION,
};
pub use report::Table;
pub use runner::{run_grid, run_jobs, run_one, ExperimentParams, RunOutcome};
pub use serve::{
    fairness, load_checkpoint, load_checkpoint_file, resume, save_checkpoint, serve,
    AdmissionPolicy, FairnessReport, FairnessRow, ServeConfig, ServeReport, ServeState,
    TenantReport,
};
pub use simulation::{Simulation, SimulationError, SimulationReport};
pub use study::{Study, StudyOutcome, STUDIES};
