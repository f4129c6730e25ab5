//! Integration tests asserting the *shapes* of the paper's evaluation:
//! who wins, in what order, and roughly by how much. These are the
//! acceptance criteria of the reproduction (see DESIGN.md §5).

use fgnvm_model::area::AreaModel;
use fgnvm_sim::experiment::{fig4, fig5};
use fgnvm_sim::runner::ExperimentParams;
use fgnvm_workloads::{all_profiles, profile, Profile};

fn params() -> ExperimentParams {
    ExperimentParams {
        ops: 1200,
        ..ExperimentParams::quick()
    }
}

fn shape_profiles() -> Vec<Profile> {
    // A fast, representative subset: pointer-chasing, streaming/write-heavy,
    // and strided.
    ["mcf_like", "lbm_like", "milc_like", "bwaves_like"]
        .iter()
        .map(|n| profile(n).expect("known profile"))
        .collect()
}

#[test]
fn figure4_shape() {
    let result = fig4(&shape_profiles(), &params()).unwrap();
    let gmean = |column| result.get(&["gmean"], column).unwrap();
    let (fgnvm, many, multi) = (
        gmean("FgNVM"),
        gmean("128 banks"),
        gmean("FgNVM+Multi-Issue"),
    );
    // Everything beats (or ties) the baseline on average.
    assert!(fgnvm > 1.0, "fgnvm gmean {fgnvm}");
    assert!(many > 1.0, "many banks gmean {many}");
    assert!(multi > 1.0, "multi-issue gmean {multi}");
    // Paper ordering: 128 banks ≥ FgNVM (column conflicts + underfetch),
    // and Multi-Issue improves on plain FgNVM.
    assert!(many >= fgnvm, "128 banks {many} should beat fgnvm {fgnvm}");
    assert!(
        multi >= fgnvm,
        "multi-issue {multi} should beat fgnvm {fgnvm}"
    );
    // Memory-intensive streaming workloads benefit more than pointer
    // chasers (visible in the paper's per-benchmark bars).
    let by_name = |n| result.get(&[n], "FgNVM").unwrap();
    assert!(by_name("lbm_like") >= by_name("mcf_like") * 0.95);
}

#[test]
fn figure5_shape() {
    let result = fig5(&shape_profiles(), &params()).unwrap();
    let mean = |column| result.get(&["mean"], column).unwrap();
    let (e2, e8, e32, perfect) = (mean("8x2"), mean("8x8"), mean("8x32"), mean("8x32 Perfect"));
    // Strict ordering: more column divisions, less energy; Perfect is the
    // floor; everything saves vs baseline.
    assert!(e2 < 1.0, "8x2 mean {e2}");
    assert!(e8 < e2, "8x8 {e8} vs 8x2 {e2}");
    assert!(e32 <= e8, "8x32 {e32} vs 8x8 {e8}");
    assert!(perfect <= e32 + 1e-9, "perfect {perfect} vs 8x32 {e32}");
    // Paper magnitudes: ~37 %, ~65 %, ~73 % savings. Allow generous bands
    // since the workloads are synthetic.
    assert!((0.45..0.80).contains(&e2), "8x2 mean {e2} out of band");
    assert!((0.20..0.55).contains(&e8), "8x8 mean {e8} out of band");
    assert!((0.15..0.50).contains(&e32), "8x32 mean {e32} out of band");
    // 8x32 comes close to Perfect (paper: "able to come close to ideal").
    assert!(
        e32 / perfect < 1.25,
        "8x32 {e32} far from perfect {perfect}"
    );
}

#[test]
fn table1_shape() {
    let (avg, max) = AreaModel::paper_calibrated().table1();
    assert!(avg.percent_of_chip < 0.1, "avg {}%", avg.percent_of_chip);
    assert!(
        (0.25..0.45).contains(&max.percent_of_chip),
        "max {}% out of the paper's 0.36% band",
        max.percent_of_chip
    );
    assert!(avg.total_um2() < max.total_um2());
}

#[test]
fn all_twelve_workloads_meet_the_mpki_cut() {
    // The paper's selection criterion: ≥ 10 misses per kilo-instruction.
    for p in all_profiles() {
        let trace = p.generate(fgnvm_types::Geometry::default(), 3, 2000);
        assert!(trace.mpki() >= 8.5, "{} mpki {}", p.name, trace.mpki());
    }
}
