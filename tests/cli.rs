//! The command lines of `fgnvm-repro` and `fgnvm-trace`, driven as a user
//! drives them: every test spawns a built binary from the workspace root
//! and checks its exit status, its output and the files it writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const REPRO: &str = env!("CARGO_BIN_EXE_fgnvm-repro");
const TRACE: &str = env!("CARGO_BIN_EXE_fgnvm-trace");

/// Runs `bin` with `args` from the workspace root, so `configs/*.cfg`
/// resolve as they do in the README.
fn run<S: AsRef<std::ffi::OsStr>>(bin: &str, args: &[S]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the binary starts")
}

/// An empty directory of this test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("cli")
        .join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_succeeds(out: &Output) {
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status.code(),
        stderr(out)
    );
}

/// Asserts exit status 1 with `message` on stderr.
fn assert_fails(out: &Output, message: &str) {
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected failure with {message:?}\nstdout: {}\nstderr: {}",
        stdout(out),
        stderr(out)
    );
    assert!(
        stderr(out).contains(message),
        "stderr lacks {message:?}:\n{}",
        stderr(out)
    );
}

#[test]
fn no_command_prints_a_usage_naming_every_study() {
    let out = run::<&str>(REPRO, &[]);
    assert_eq!(out.status.code(), Some(1));
    let usage = stderr(&out);
    for study in &fgnvm_sim::STUDIES {
        assert!(
            usage.contains(study.command),
            "usage lacks {}",
            study.command
        );
    }
}

#[test]
fn argument_errors_keep_their_messages() {
    for (args, message) in [
        (&["fig4", "--bogus"][..], "unknown flag: --bogus"),
        (&["fig4", "--ops"], "--ops needs a value"),
        (&["fig4", "--ops", "x"], "bad --ops value: x"),
        (&["profile", "--seeds", "0"], "--seeds must be at least 1"),
        (
            &["serve", "--policy", "nope"],
            "bad --policy value: nope (want reject|block)",
        ),
        (
            &["fairness"],
            "fairness needs --tenants with at least two tenants",
        ),
        (&["nosuch"], "unknown command: nosuch"),
    ] {
        assert_fails(&run(REPRO, args), message);
    }
    let typo = fgnvm_workloads::parse_tenants("bad")
        .expect_err("`bad` is no tenant spec")
        .to_string();
    assert_fails(&run(REPRO, &["serve", "--tenants", "bad"]), &typo);
}

#[test]
fn table1_csv_is_its_golden() {
    let out = run(REPRO, &["table1", "--csv"]);
    assert_succeeds(&out);
    let golden = std::fs::read_to_string(fgnvm_sim::golden::golden_dir().join("table1.csv"))
        .expect("table1 golden");
    assert_eq!(stdout(&out), golden);
}

#[test]
fn serve_admits_the_ops_it_is_given() {
    let out = run(REPRO, &["serve", "--horizon", "100000", "--ops", "1500"]);
    assert_succeeds(&out);
    assert!(
        stdout(&out).starts_with("serve: 1500 admitted, 1500 completed"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn trace_generate_info_replay_dump_round_trip() {
    let dir = scratch("trace_round_trip");
    let trace = dir.join("t.trace");
    let params = dir.join("fgnvm_8x8.cfg");
    let trace_arg = trace.to_str().expect("utf-8 path");

    let out = run(TRACE, &["generate", "lbm_like", "300", trace_arg]);
    assert_succeeds(&out);
    assert!(
        stdout(&out).starts_with("wrote 300 ops"),
        "{}",
        stdout(&out)
    );

    let out = run(TRACE, &["info", trace_arg]);
    assert_succeeds(&out);
    assert!(
        stdout(&out).contains("memory ops:    300"),
        "{}",
        stdout(&out)
    );

    let out = run(TRACE, &["replay", trace_arg, "--check"]);
    assert_succeeds(&out);
    assert!(
        stdout(&out).contains("protocol ch0:") && stdout(&out).contains(" 0 violation(s)"),
        "{}",
        stdout(&out)
    );

    let out = run(TRACE, &["dump", "fgnvm:8x8"]);
    assert_succeeds(&out);
    std::fs::write(&params, &out.stdout).expect("write the dumped parameters");

    // The dumped file replays exactly the design it was dumped from.
    let by_name = run(TRACE, &["replay", trace_arg, "--design", "fgnvm:8x8"]);
    let by_file = run(
        TRACE,
        &[
            "replay",
            trace_arg,
            "--params",
            params.to_str().expect("utf-8 path"),
        ],
    );
    assert_succeeds(&by_name);
    assert_succeeds(&by_file);
    let body = |out: &Output| stdout(out).lines().skip(1).collect::<Vec<_>>().join("\n");
    assert!(
        stdout(&by_file).starts_with(&format!("design:        params:{}", params.display())),
        "{}",
        stdout(&by_file)
    );
    assert_eq!(body(&by_name), body(&by_file));
}

#[test]
fn serve_admits_the_ops_given_at_the_study_default() {
    // 6000 is the studies' default --ops; given, it still counts.
    for args in [
        &["serve", "--horizon", "400000", "--ops", "6000"][..],
        &["serve", "--ops", "6000"],
    ] {
        let out = run(REPRO, args);
        assert_succeeds(&out);
        assert!(
            stdout(&out).starts_with("serve: 6000 admitted, 6000 completed"),
            "{args:?}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn fairness_refuses_serve_outputs_before_running() {
    let dir = scratch("fairness_refuses_serve_outputs");
    let (checkpoints, telemetry) = (dir.join("ckpts"), dir.join("windows.jsonl"));
    let out = run(
        REPRO,
        &[
            "fairness".as_ref(),
            "--tenants".as_ref(),
            "a:poisson:gap=60,b:poisson:gap=80".as_ref(),
            "--horizon".as_ref(),
            "20000".as_ref(),
            "--checkpoint-dir".as_ref(),
            checkpoints.as_os_str(),
            "--telemetry-out".as_ref(),
            telemetry.as_os_str(),
        ],
    );
    assert_fails(&out, "fairness does not take --checkpoint-dir");
    assert!(stderr(&out).contains("usage: fgnvm-repro fairness [cfg] [--ops N]"));
    assert!(!checkpoints.exists() && !telemetry.exists());
}

#[test]
fn table1_refuses_horizon() {
    assert_fails(
        &run(REPRO, &["table1", "--horizon", "5"]),
        "table1 does not take --horizon",
    );
}

#[test]
fn static_tables_refuse_the_flags_of_a_simulated_study() {
    // table1 and table2 run no traces: no length, no seed, no sweep.
    for study in ["table1", "table2"] {
        for (flag, value) in [("--ops", "600"), ("--seed", "3"), ("--jobs", "2")] {
            let out = run(REPRO, &[study, flag, value]);
            assert_fails(&out, &format!("{study} does not take {flag}"));
            assert!(stderr(&out).contains(&format!(
                "usage: fgnvm-repro {study} [--csv] [--md] [--json] [--out DIR]\n"
            )));
        }
    }
}

#[test]
fn studies_without_a_sweep_refuse_jobs() {
    // Their runs never reach the sweep runner, so a worker count would
    // change nothing.
    for study in ["tail", "hybrid"] {
        let out = run(REPRO, &[study, "--jobs", "2"]);
        assert_fails(&out, &format!("{study} does not take --jobs"));
        assert!(stderr(&out).contains(&format!(
            "usage: fgnvm-repro {study} [--ops N] [--seed S] [--csv] [--md] [--json] [--out DIR]\n"
        )));
    }
}

#[test]
fn regress_refuses_seed() {
    // regress always runs its recorded seed, 7.
    assert_fails(
        &run(REPRO, &["regress", "--seed", "3"]),
        "regress does not take --seed",
    );
}

#[test]
fn metrics_out_refuses_several_configs_before_running() {
    let dir = scratch("metrics_out_refuses_several_configs");
    let (doc, ledger) = (dir.join("metrics.json"), dir.join("runs.jsonl"));
    let out = run(
        REPRO,
        &[
            "audit".as_ref(),
            "configs/fgnvm_8x2.cfg".as_ref(),
            "configs/baseline_pcm.cfg".as_ref(),
            "--ops".as_ref(),
            "300".as_ref(),
            "--metrics-out".as_ref(),
            doc.as_os_str(),
        ],
    );
    assert_fails(&out, "--metrics-out holds one config's document");
    assert!(!doc.exists());
    // With no config, profile runs every preset.
    let out = run(
        REPRO,
        &[
            "profile".as_ref(),
            "--ops".as_ref(),
            "300".as_ref(),
            "--seeds".as_ref(),
            "1".as_ref(),
            "--ledger".as_ref(),
            ledger.as_os_str(),
            "--metrics-out".as_ref(),
            doc.as_os_str(),
        ],
    );
    assert_fails(&out, "--metrics-out holds one config's document");
    assert!(!doc.exists() && !ledger.exists());
    // One config still writes its document.
    let out = run(
        REPRO,
        &[
            "audit".as_ref(),
            "configs/baseline_pcm.cfg".as_ref(),
            "--ops".as_ref(),
            "300".as_ref(),
            "--metrics-out".as_ref(),
            doc.as_os_str(),
        ],
    );
    assert_succeeds(&out);
    let json = std::fs::read_to_string(&doc).expect("the audit document");
    assert!(json.contains("\"config\":\"baseline_pcm\""), "{json}");
}

#[test]
fn trace_refuses_flags_it_does_not_read() {
    let dir = scratch("trace_refuses_flags");
    let trace = dir.join("t.trace");
    let (trace_arg, out_arg) = (
        trace.to_str().expect("utf-8 path"),
        dir.join("seeded.trace"),
    );
    assert_succeeds(&run(TRACE, &["generate", "lbm_like", "200", trace_arg]));
    for (args, message) in [
        (
            &["replay", trace_arg, "--desing", "fgnvm:8x8"][..],
            "unknown flag: --desing",
        ),
        (
            &["replay", trace_arg, "--viz-tiles", "x"],
            "bad --viz-tiles value: x",
        ),
        (
            &[
                "replay",
                trace_arg,
                "--params",
                "configs/fgnvm_8x2.cfg",
                "--design",
                "dram",
            ],
            "replay takes --design or --params, not both",
        ),
        (
            &[
                "generate",
                "lbm_like",
                "100",
                out_arg.to_str().expect("utf-8 path"),
                "--sed",
                "5",
            ],
            "unknown flag: --sed",
        ),
    ] {
        assert_fails(&run(TRACE, args), message);
    }
    assert!(!out_arg.exists());
}
