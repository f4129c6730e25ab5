//! Golden-snapshot harness for the study tables.
//!
//! Every study table — the paper's Tables 1–2 and Figures 4–5 and every
//! extension study — is pinned byte-for-byte in CSV form under
//! `tests/goldens/`. The studies are deterministic (fixed seeds, fixed
//! parameters), so any diff is a behavior change: either a bug, or an
//! intentional model change that must be *blessed* explicitly:
//!
//! ```text
//! FGNVM_BLESS=1 cargo test -p fgnvm-sim --test golden_snapshots
//! git diff tests/goldens/        # review what changed, then commit
//! ```
//!
//! The snapshot parameters are deliberately small (quick-tier trace
//! length) so the golden tier stays fast enough for every CI run.

use std::path::PathBuf;

use crate::runner::ExperimentParams;
use crate::study::{self, STUDIES};

/// Snapshot names, in registry order: every study command, plus
/// `<command>-horizon` for a study's `--horizon` variant. Each maps to
/// `tests/goldens/<name>.csv`.
pub fn snapshots() -> Vec<String> {
    STUDIES
        .iter()
        .flat_map(|s| {
            let horizon = s.horizon.map(|_| format!("{}-horizon", s.command));
            std::iter::once(s.command.to_string()).chain(horizon)
        })
        .collect()
}

/// The directory holding the checked-in goldens.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens"))
}

/// The fixed parameters every snapshot is produced with. Changing these
/// invalidates the goldens, so they are part of the pinned contract.
pub fn golden_params() -> ExperimentParams {
    ExperimentParams {
        ops: 800,
        ..ExperimentParams::quick()
    }
}

/// Produces the current CSV for snapshot `name`.
///
/// # Errors
///
/// Returns a description for unknown names or failing experiments.
pub fn snapshot(name: &str) -> Result<String, String> {
    let unknown = || format!("unknown snapshot {name:?}");
    let run = match name.strip_suffix("-horizon") {
        Some(command) => study::find(command).and_then(|s| s.horizon),
        None => study::find(name).map(|s| s.run),
    }
    .ok_or_else(unknown)?;
    let outcome = run(&golden_params()).map_err(|e| e.to_string())?;
    Ok(outcome.table.to_csv())
}

/// Compares `actual` against the checked-in golden for `name`; with
/// `FGNVM_BLESS=1` in the environment, rewrites the golden instead.
///
/// # Errors
///
/// Returns a description of the mismatch (with the first differing line)
/// or of the I/O failure.
pub fn verify(name: &str, actual: &str) -> Result<(), String> {
    let path = golden_dir().join(format!("{name}.csv"));
    if std::env::var("FGNVM_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir())
            .map_err(|e| format!("creating {}: {e}", golden_dir().display()))?;
        std::fs::write(&path, actual).map_err(|e| format!("blessing {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e}\n(no golden checked in? bless with FGNVM_BLESS=1)",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    let diff_line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map(|i| i + 1)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
    let show = |text: &str| {
        text.lines()
            .nth(diff_line - 1)
            .unwrap_or("<missing>")
            .to_string()
    };
    Err(format!(
        "golden mismatch for {name} at line {diff_line}:\n  golden: {}\n  actual: {}\n\
         If the change is intentional, re-bless: FGNVM_BLESS=1 cargo test -p fgnvm-sim \
         --test golden_snapshots && git diff tests/goldens/",
        show(&expected),
        show(actual)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_deterministic() {
        // The pinned-contract precondition: producing a snapshot twice
        // yields identical bytes.
        let a = snapshot("table1").unwrap();
        let b = snapshot("table1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_snapshot_is_rejected() {
        assert!(snapshot("fig9").is_err());
        assert!(snapshot("fig4-horizon").is_err());
    }
}
