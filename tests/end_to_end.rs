//! End-to-end integration tests: full stack (workload generator → core →
//! controller → banks → energy) across every crate boundary.

use fgnvm_cpu::{Core, CoreConfig};
use fgnvm_mem::MemorySystem;
use fgnvm_sim::runner::{run_one, ExperimentParams};
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::geometry::Geometry;
use fgnvm_workloads::{all_profiles, profile};

fn tiny() -> ExperimentParams {
    ExperimentParams {
        ops: 600,
        ..ExperimentParams::quick()
    }
}

#[test]
fn every_workload_runs_on_every_preset() {
    let params = tiny();
    let presets = [
        SystemConfig::baseline(),
        SystemConfig::fgnvm(4, 4).unwrap(),
        SystemConfig::fgnvm(8, 2).unwrap(),
        SystemConfig::fgnvm(8, 32).unwrap(),
        SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap(),
        SystemConfig::many_banks_matching(8, 2).unwrap(),
    ];
    for p in all_profiles() {
        let trace = p.generate(Geometry::default(), 1, 200);
        for config in &presets {
            let outcome = run_one(&trace, config, &params)
                .unwrap_or_else(|e| panic!("{} failed on {config:?}: {e}", p.name));
            assert!(outcome.core.ipc() > 0.0, "{}: zero ipc", p.name);
            assert!(outcome.energy.total_pj() > 0.0, "{}: zero energy", p.name);
        }
    }
}

#[test]
fn request_accounting_balances_across_the_stack() {
    let trace = profile("milc_like")
        .unwrap()
        .generate(Geometry::default(), 2, 800);
    let core = Core::new(CoreConfig::no_prefetch()).unwrap();
    let mut memory = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
    core.run(&trace, &mut memory);
    let stats = memory.stats();
    let banks = memory.bank_stats();
    // Every enqueued read either went to the array or was forwarded.
    assert_eq!(
        stats.enqueued_reads,
        banks.reads + stats.forwarded_reads,
        "reads lost between controller and banks"
    );
    // Every enqueued write was driven or merged.
    assert_eq!(
        stats.enqueued_writes,
        banks.writes + stats.merged_writes,
        "writes lost between controller and banks"
    );
    // Nothing is left in flight.
    assert!(memory.is_idle());
}

#[test]
fn deterministic_end_to_end() {
    let params = tiny();
    let trace = profile("omnetpp_like")
        .unwrap()
        .generate(Geometry::default(), 9, 500);
    let a = run_one(&trace, &SystemConfig::fgnvm(8, 8).unwrap(), &params).unwrap();
    let b = run_one(&trace, &SystemConfig::fgnvm(8, 8).unwrap(), &params).unwrap();
    assert_eq!(a.core, b.core);
    assert_eq!(a.banks, b.banks);
    assert_eq!(a.energy, b.energy);
}

#[test]
fn scheduler_kinds_all_complete() {
    let trace = profile("soplex_like")
        .unwrap()
        .generate(Geometry::default(), 4, 500);
    let params = tiny();
    for scheduler in [
        SchedulerKind::Fcfs,
        SchedulerKind::Frfcfs,
        SchedulerKind::FrfcfsTlp,
    ] {
        let mut cfg = SystemConfig::fgnvm(4, 4).unwrap();
        cfg.scheduler = scheduler;
        let outcome = run_one(&trace, &cfg, &params).unwrap();
        assert!(outcome.core.ipc() > 0.0, "{scheduler:?} stalled");
    }
}

#[test]
fn frfcfs_beats_fcfs_on_mixed_traffic() {
    let trace = profile("milc_like")
        .unwrap()
        .generate(Geometry::default(), 4, 1200);
    let params = tiny();
    let mut fcfs_cfg = SystemConfig::fgnvm(4, 4).unwrap();
    fcfs_cfg.scheduler = SchedulerKind::Fcfs;
    let mut frfcfs_cfg = SystemConfig::fgnvm(4, 4).unwrap();
    frfcfs_cfg.scheduler = SchedulerKind::Frfcfs;
    let fcfs = run_one(&trace, &fcfs_cfg, &params).unwrap();
    let frfcfs = run_one(&trace, &frfcfs_cfg, &params).unwrap();
    assert!(
        frfcfs.core.ipc() >= fcfs.core.ipc(),
        "frfcfs {} should be at least fcfs {}",
        frfcfs.core.ipc(),
        fcfs.core.ipc()
    );
}

#[test]
fn degenerate_geometries_work() {
    // 1×1 FgNVM behaves like a single-unit bank; tiny rows; two channels.
    let trace = profile("astar_like")
        .unwrap()
        .generate(Geometry::default(), 6, 300);
    let params = tiny();
    let one = SystemConfig::fgnvm(1, 1).unwrap();
    let outcome = run_one(&trace, &one, &params).unwrap();
    assert!(outcome.core.ipc() > 0.0);
}

#[test]
fn shipped_config_files_parse_and_run() {
    let configs_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs");
    let trace = profile("sphinx3_like")
        .unwrap()
        .generate(Geometry::default(), 5, 200);
    let mut seen = 0;
    for entry in std::fs::read_dir(&configs_dir).expect("configs directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("cfg") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let config = fgnvm_types::parse_system_config(&text)
            .unwrap_or_else(|e| panic!("{} failed to parse: {e}", path.display()));
        let outcome = run_one(&trace, &config, &tiny())
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", path.display()));
        assert!(
            outcome.core.ipc() > 0.0,
            "{} produced zero ipc",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 4, "expected the shipped config files, found {seen}");
}

#[test]
fn core_stall_accounting_is_bounded() {
    let trace = profile("mcf_like")
        .unwrap()
        .generate(Geometry::default(), 2, 600);
    let outcome = run_one(&trace, &SystemConfig::fgnvm(8, 8).unwrap(), &tiny()).unwrap();
    let f = outcome.core.stall_fraction();
    assert!((0.0..=1.0).contains(&f));
    // mcf-like is heavily memory bound: the core should stall a lot.
    assert!(f > 0.3, "stall fraction {f} suspiciously low for mcf_like");
}

#[test]
fn every_extension_study_renders_a_table() {
    let params = ExperimentParams {
        ops: 400,
        ..ExperimentParams::quick()
    };
    for study in &fgnvm_sim::STUDIES {
        let table = (study.run)(&params)
            .unwrap_or_else(|e| panic!("{}: {e}", study.command))
            .table;
        assert!(!table.rows.is_empty(), "{} is empty", table.title);
        // Every output format renders without panicking.
        let _ = table.render();
        let _ = table.to_csv();
        let _ = table.to_markdown();
        let _ = table.to_json();
    }
}

#[test]
fn empty_trace_is_a_noop_everywhere() {
    let trace = fgnvm_cpu::Trace::new("empty", vec![]);
    let params = tiny();
    for config in [SystemConfig::baseline(), SystemConfig::fgnvm(8, 8).unwrap()] {
        let outcome = run_one(&trace, &config, &params).unwrap();
        assert_eq!(outcome.core.instructions, 0);
        assert_eq!(outcome.banks.reads, 0);
    }
}
