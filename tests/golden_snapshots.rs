//! Golden-snapshot tier: the paper artifacts, pinned byte-for-byte.
//!
//! Every snapshot in [`fgnvm_sim::golden::snapshots`] is regenerated with
//! the fixed golden parameters and compared against `tests/goldens/`. A
//! mismatch is a behavior change; intentional ones are blessed with
//! `FGNVM_BLESS=1 cargo test -p fgnvm-sim --test golden_snapshots` and
//! reviewed via `git diff tests/goldens/`. See TESTING.md.

use fgnvm_sim::golden::{snapshot, snapshots, verify};

#[test]
fn paper_artifacts_match_their_goldens() {
    let mut failures = Vec::new();
    for name in snapshots() {
        let name = name.as_str();
        let actual = snapshot(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            actual.lines().count() > 1,
            "{name}: snapshot degenerated to {} line(s)",
            actual.lines().count()
        );
        if let Err(e) = verify(name, &actual) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The goldens directory must not accumulate orphans: every checked-in
/// file corresponds to a registered snapshot.
#[test]
fn no_orphaned_golden_files() {
    let dir = fgnvm_sim::golden::golden_dir();
    let names = snapshots();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        // Directory absent only before the very first bless.
        Err(_) => return,
    };
    for entry in entries {
        let name = entry.expect("readable entry").file_name();
        let name = name.to_string_lossy();
        let stem = name.strip_suffix(".csv");
        assert!(
            stem.is_some_and(|s| names.iter().any(|n| n == s)),
            "{} is not a registered snapshot; remove it or register its study",
            dir.join(name.as_ref()).display()
        );
    }
}
