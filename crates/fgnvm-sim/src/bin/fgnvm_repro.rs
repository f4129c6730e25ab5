//! Command-line entry point regenerating the paper's tables and figures.
//!
//! `fgnvm-repro <command> [arguments] [flags]` runs one registered study
//! (`fgnvm_sim::study::STUDIES`: table1, fig4, ...), every study (`all`),
//! or one of the commands that observe, audit, profile, compare, check,
//! fuzz or serve the simulator. `fgnvm_sim::cli::REPRO` declares each
//! command's flags; running `fgnvm-repro` with no command prints them, and
//! a command refuses any flag it does not read.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fgnvm_sim::cli::{Parsed, REPRO};
use fgnvm_sim::runner::ExperimentParams;
use fgnvm_sim::study::{self, STUDIES};
use fgnvm_sim::{AdmissionPolicy, ServeConfig, Table};
use fgnvm_types::SystemConfig;

#[derive(Debug, Clone, Copy)]
enum Format {
    Text,
    Csv,
    Markdown,
    Json,
}

fn format(cli: &Parsed) -> Format {
    if cli.has("--csv") {
        Format::Csv
    } else if cli.has("--md") {
        Format::Markdown
    } else if cli.has("--json") {
        Format::Json
    } else {
        Format::Text
    }
}

/// Prints `table` in the chosen format and, with `--out DIR`, also writes
/// it as CSV into DIR.
fn emit(cli: &Parsed, table: &Table) {
    match format(cli) {
        Format::Csv => print!("{}", table.to_csv()),
        Format::Markdown => println!("{}", table.to_markdown()),
        Format::Json => println!("{}", table.to_json()),
        Format::Text => println!("{}", table.render()),
    }
    if let Some(dir) = cli.path("--out") {
        let _ = std::fs::create_dir_all(&dir);
        // Derive a file stem from the table title.
        let stem: String = table
            .title
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .take(4)
            .collect::<Vec<_>>()
            .join("_");
        if let Err(e) = std::fs::write(dir.join(format!("{stem}.csv")), table.to_csv()) {
            eprintln!("warning: could not write artifact: {e}");
        }
    }
}

/// Writes `contents` to the file `flag` names, if it was given, and
/// returns that path.
fn write_out(cli: &Parsed, flag: &str, contents: &str) -> Result<Option<PathBuf>, String> {
    let Some(path) = cli.path(flag) else {
        return Ok(None);
    };
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Some(path))
}

/// The study parameters: `--ops` and `--seed` over the full-size defaults.
fn params(cli: &Parsed) -> ExperimentParams {
    let full = ExperimentParams::full();
    ExperimentParams {
        ops: cli.number("--ops").unwrap_or(full.ops),
        seed: cli.number("--seed").unwrap_or(full.seed),
        ..full
    }
}

fn run(cli: &Parsed) -> Result<(), String> {
    if let Some(jobs) = cli.number("--jobs") {
        fgnvm_sim::runner::set_jobs(jobs);
    }
    let p = &params(cli);
    let text = matches!(format(cli), Format::Text);
    let fail = |e: fgnvm_types::ConfigError| e.to_string();
    if let Some(study) = study::find(cli.command) {
        let run = match study.horizon {
            Some(horizon) if cli.number::<u64>("--horizon").is_some_and(|h| h > 0) => horizon,
            _ => study.run,
        };
        let outcome = run(p).map_err(|e| e.to_string())?;
        emit(cli, &outcome.table);
        if text {
            print!("{}", outcome.notes);
        }
        return Ok(());
    }
    match cli.command {
        "serve" => serve_command(cli)?,
        "fairness" => fairness_command(cli)?,
        "observe" => {
            let out = fgnvm_sim::observe(&first_config(cli)?, p).map_err(fail)?;
            emit(cli, &out.summary);
            emit(cli, &out.heatmap_table);
            if text {
                print!("{}", out.heatmap_ascii);
                print!("{}", out.decomposition_ascii);
                print!("{}", out.timeseries_ascii);
                print!("{}", out.audit_ascii);
            }
            if let Some(path) = write_out(cli, "--trace-out", &out.trace_json)? {
                println!(
                    "trace written to {} (load it at ui.perfetto.dev)",
                    path.display()
                );
            }
            if let Some(path) = write_out(cli, "--metrics-out", &out.metrics_json)? {
                println!("metrics written to {}", path.display());
            }
            if let Some(dir) = cli.path("--out") {
                let _ = std::fs::create_dir_all(&dir);
                if let Err(e) = std::fs::write(dir.join("heatmap.csv"), &out.heatmap_csv) {
                    eprintln!("warning: could not write artifact: {e}");
                }
            }
        }
        "audit" => audit_command(cli, p)?,
        "profile" => profile_command(cli, p)?,
        "compare" if !cli.args.is_empty() && cli.args.iter().all(|a| a.ends_with(".jsonl")) => {
            compare_ledgers_command(cli)?
        }
        "compare" => {
            let configs = load_configs(cli, || {
                Err(
                    "compare needs parameter files (a.cfg b.cfg ...) or two run ledgers \
                     (base.jsonl cand.jsonl)"
                        .into(),
                )
            })?;
            emit(cli, &study::compare(&configs, p).map_err(fail)?.table)
        }
        "check" => emit(cli, &oracle_check(cli, p)?),
        "fuzz" => fuzz_command(cli, p)?,
        "regress" => regress()?,
        "all" => {
            for study in &STUDIES {
                emit(cli, &(study.run)(p).map_err(|e| e.to_string())?.table);
            }
        }
        other => unreachable!("{other} is not a declared command"),
    }
    Ok(())
}

/// Loads and parses one `.cfg` parameter file, reporting problems through
/// the SimError taxonomy.
fn load_config(path: &str) -> Result<SystemConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        fgnvm_types::SimError::Io {
            path: path.to_string(),
            message: e.to_string(),
        }
        .to_string()
    })?;
    fgnvm_types::parse_system_config(&text)
        .map_err(|e| format!("{path}: {}", fgnvm_types::SimError::from(e)))
}

/// The FgNVM 8x2 preset, the design a command runs when given no `.cfg`.
fn fgnvm_8x2() -> Result<SystemConfig, String> {
    SystemConfig::fgnvm(8, 2).map_err(|e| e.to_string())
}

/// The first parameter file given, or the FgNVM 8x2 preset.
fn first_config(cli: &Parsed) -> Result<SystemConfig, String> {
    cli.args
        .first()
        .map_or_else(fgnvm_8x2, |path| load_config(path))
}

type Configs = Vec<(String, SystemConfig)>;

/// Every parameter file given, each named by its path, or `defaults()`
/// when none is. `--metrics-out` holds one configuration's document, so
/// it is refused when more than one would run.
fn load_configs(
    cli: &Parsed,
    defaults: fn() -> Result<Configs, String>,
) -> Result<Configs, String> {
    let configs = if cli.args.is_empty() {
        defaults()?
    } else {
        cli.args
            .iter()
            .map(|path| Ok((path.clone(), load_config(path)?)))
            .collect::<Result<_, String>>()?
    };
    if configs.len() > 1 && cli.has("--metrics-out") {
        return Err(format!(
            "--metrics-out holds one config's document, but {} configs would run",
            configs.len()
        ));
    }
    Ok(configs)
}

/// The built-in preset configurations the `profile` and `check` commands
/// fall back to when no parameter files are given.
fn preset_configs() -> Result<Configs, String> {
    let fail = |e: fgnvm_types::ConfigError| e.to_string();
    Ok(vec![
        ("baseline".into(), SystemConfig::baseline()),
        ("fgnvm-8x2".into(), fgnvm_8x2()?),
        (
            "multi-issue-8x4".into(),
            SystemConfig::fgnvm_multi_issue(8, 4, 2).map_err(fail)?,
        ),
        (
            "pausing-8x8".into(),
            SystemConfig::fgnvm_with_pausing(8, 8).map_err(fail)?,
        ),
        ("dram".into(), SystemConfig::dram()),
    ])
}

/// The `audit` command: an issue-audited run per configuration. Prints the
/// realized issue rate, the measured opportunity ceiling, and the Amdahl
/// bound side by side plus the decision-stream ASCII digest; any audit
/// conservation failure makes the command exit non-zero.
fn audit_command(cli: &Parsed, p: &ExperimentParams) -> Result<(), String> {
    let configs = load_configs(cli, || Ok(vec![("fgnvm-8x2".into(), fgnvm_8x2()?)]))?;
    let mut violations = 0usize;
    for (path, config) in &configs {
        let name = config_stem(path);
        let out = fgnvm_sim::audit(config, &name, p).map_err(|e| e.to_string())?;
        match format(cli) {
            Format::Json => println!("{}", out.audit_json),
            format => {
                emit(cli, &out.summary);
                if matches!(format, Format::Text) {
                    print!("{}", out.audit_ascii);
                }
            }
        }
        write_out(cli, "--metrics-out", &out.audit_json)?;
        for failure in &out.invariant_failures {
            eprintln!("{name}: {failure}");
            violations += 1;
        }
    }
    if violations > 0 {
        return Err(format!(
            "issue audit found {violations} conservation failure(s)"
        ));
    }
    Ok(())
}

/// The `profile` command: stall attribution, critical-path ranking, and
/// what-if bounds per configuration, plus one ledger line per seed.
fn profile_command(cli: &Parsed, p: &ExperimentParams) -> Result<(), String> {
    use std::io::Write as _;
    let configs = load_configs(cli, preset_configs)?;
    let seeds: Vec<u64> = (0..cli.number("--seeds").unwrap_or(3u64))
        .map(|i| p.seed + i)
        .collect();
    let ledger_path = cli
        .path("--ledger")
        .unwrap_or_else(|| PathBuf::from("target/runs.jsonl"));
    if let Some(dir) = ledger_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    let mut ledger = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger_path)
        .map_err(|e| format!("opening {}: {e}", ledger_path.display()))?;
    let mut lines = 0usize;
    for (path, config) in &configs {
        let out =
            fgnvm_sim::profile(config, &config_stem(path), p, &seeds).map_err(|e| e.to_string())?;
        emit(cli, &out.summary);
        emit(cli, &out.attribution_table);
        emit(cli, &out.whatif_table);
        if matches!(format(cli), Format::Text) {
            print!("{}", out.decomposition_ascii);
        }
        write_out(cli, "--metrics-out", &out.attribution_json)?;
        for record in &out.records {
            writeln!(ledger, "{}", record.to_json_line())
                .map_err(|e| format!("appending to {}: {e}", ledger_path.display()))?;
            lines += 1;
        }
    }
    println!(
        "{lines} run record(s) appended to {} (schema v{})",
        ledger_path.display(),
        fgnvm_sim::SCHEMA_VERSION
    );
    Ok(())
}

/// `compare` on two `.jsonl` ledgers: the noise-aware cross-run regression
/// gate. Exits non-zero when the candidate regresses any gated metric.
fn compare_ledgers_command(cli: &Parsed) -> Result<(), String> {
    let [base_path, cand_path] = cli.args.as_slice() else {
        return Err("ledger compare needs exactly two files: compare base.jsonl cand.jsonl".into());
    };
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    let outcome = fgnvm_sim::compare_ledgers(&read(base_path)?, &read(cand_path)?);
    match format(cli) {
        Format::Json => println!("{}", outcome.to_json()),
        _ => print!("{}", outcome.to_markdown()),
    }
    if let Some(path) = write_out(cli, "--report", &outcome.to_markdown())? {
        println!("report written to {}", path.display());
    }
    if outcome.regressions() > 0 {
        return Err(format!(
            "{} metric(s) regressed beyond the noise threshold",
            outcome.regressions()
        ));
    }
    println!("no regressions beyond noise thresholds");
    Ok(())
}

/// `path/to/fgnvm-8x8.cfg` → `fgnvm-8x8`, for ledger group keys.
fn config_stem(path: &str) -> String {
    Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Self-check: re-derives the headline results and asserts they sit inside
/// the bands recorded in EXPERIMENTS.md. Exits non-zero on drift, making
/// this a one-command regression gate for the repository.
fn regress() -> Result<(), String> {
    use fgnvm_model::area::AreaModel;
    let fixed = ExperimentParams {
        ops: 3000,
        seed: 7,
        ..ExperimentParams::full()
    };
    let mut failures = Vec::new();
    let mut check = |name: &str, value: f64, lo: f64, hi: f64| {
        let ok = (lo..=hi).contains(&value);
        println!(
            "{} {name}: {value:.3} (band {lo:.3}..{hi:.3})",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            failures.push(name.to_string());
        }
    };
    let run = |command: &str| {
        let study = study::find(command).expect("regress reads registered studies");
        (study.run)(&fixed).map_err(|e| e.to_string())
    };
    let (fig4, fig5) = (run("fig4")?, run("fig5")?);
    let value = |study: &study::StudyOutcome, row: &str, column: &str| {
        study
            .get(&[row], column)
            .unwrap_or_else(|| panic!("no {row:?} row in {:?}", study.table.title))
    };
    check(
        "fig4 fgnvm gmean",
        value(&fig4, "gmean", "FgNVM"),
        1.05,
        1.30,
    );
    check("fig5 8x2 mean", value(&fig5, "mean", "8x2"), 0.54, 0.67);
    check("fig5 8x8 mean", value(&fig5, "mean", "8x8"), 0.29, 0.40);
    check("fig5 8x32 mean", value(&fig5, "mean", "8x32"), 0.25, 0.36);
    let (avg, max) = AreaModel::paper_calibrated().table1();
    check("table1 avg um2", avg.total_um2(), 2930.0, 2990.0);
    check("table1 max %", max.percent_of_chip, 0.33, 0.42);
    let tail = run("tail")?;
    let p99 = |design| value(&tail, design, "~p99");
    check(
        "tail p99 contraction",
        p99("baseline") / p99("FgNVM 8x8"),
        1.3,
        6.0,
    );
    let wear = run("wear")?;
    let leveled = |column| value(&wear, "start-gap /8", column);
    check("wear lifetime gain", leveled("lifetime gain"), 2.0, 30.0);
    check("wear relative ipc", leveled("relative IPC"), 0.85, 1.5);
    let speedups = run("mlp")?.select(&[], "speedup");
    let (narrow, wide) = (speedups[0], speedups[speedups.len() - 1]);
    check("mlp speedup growth", wide / narrow, 1.10, 2.5);
    if failures.is_empty() {
        println!("regression check passed");
        Ok(())
    } else {
        Err(format!("regression check failed: {}", failures.join(", ")))
    }
}

/// Audits real runs of each configuration through the conformance oracle
/// (`fgnvm-check`): the whole command stream is replayed against the
/// analytically derived legality envelope, the protocol checker runs over
/// the same log, and the whole-run conservation invariants are checked.
/// Any violation makes the command fail, so CI can gate on it.
fn oracle_check(cli: &Parsed, p: &ExperimentParams) -> Result<Table, String> {
    let configs = load_configs(cli, preset_configs)?;
    let mut table = Table::new(
        "Conformance audit (oracle + protocol checker + invariants)",
        &[
            "config",
            "commands",
            "max tile conc",
            "violations",
            "status",
        ],
    );
    let mut total = 0usize;
    for (name, config) in &configs {
        let outcome = fgnvm_check::run_and_audit(config, p.ops, p.seed)
            .map_err(|e| format!("{name}: {e}"))?;
        let violations = outcome.violation_count();
        total += violations;
        let max_conc = outcome
            .reports
            .iter()
            .map(|r| r.max_tile_concurrency)
            .max()
            .unwrap_or(0);
        table.push_row(vec![
            name.clone(),
            outcome.commands.to_string(),
            max_conc.to_string(),
            violations.to_string(),
            if violations == 0 {
                "clean".into()
            } else {
                "VIOLATED".into()
            },
        ]);
        if violations > 0 {
            for report in &outcome.reports {
                for v in &report.violations {
                    eprintln!("{name}: {v}");
                }
            }
            for failure in &outcome.invariants.failures {
                eprintln!("{name}: {failure}");
            }
        }
    }
    if total > 0 {
        // Print what we have before failing so the table is not lost.
        println!("{}", table.render());
        return Err(format!("conformance audit found {total} violation(s)"));
    }
    Ok(table)
}

/// Runs the command-sequence fuzzer, or replays a `.case` file if one is
/// given. On failure the shrunk counterexample is written next to the
/// artifacts (`--out DIR`, default `target/fuzz-cases/`) for replay.
fn fuzz_command(cli: &Parsed, p: &ExperimentParams) -> Result<(), String> {
    if let Some(path) = cli.args.first() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let case = fgnvm_check::parse_case(&text).map_err(|e| format!("{path}: {e}"))?;
        return match fgnvm_check::execute_case(&case) {
            Ok(report) => {
                println!(
                    "{path}: clean ({} requests, {} commands, max tile concurrency {})",
                    report.accepted, report.commands, report.max_tile_concurrency
                );
                Ok(())
            }
            Err(message) => Err(format!("{path}: case fails: {message}")),
        };
    }
    // `--tenants` (any valid spec) switches the fuzzer into multi-tenant
    // generation; the fuzzer draws its own tenant palettes, and every
    // tenant case also runs the kill/resume differential.
    let opts = fgnvm_check::FuzzOptions {
        cases: cli.number("--cases").unwrap_or(500),
        seed: p.seed,
        kill_resume: cli.has("--kill-resume") || cli.has("--tenants"),
        tenants: cli.has("--tenants"),
        ..fgnvm_check::FuzzOptions::default()
    };
    let outcome = fgnvm_check::fuzz(&opts);
    match outcome.failure {
        None => {
            println!(
                "fuzz: {} cases clean (seed {}, up to {} ops each{})",
                outcome.cases_run,
                opts.seed,
                opts.max_ops,
                if opts.kill_resume {
                    ", kill/resume differential on"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Some(failure) => {
            let dir = cli
                .path("--out")
                .unwrap_or_else(|| PathBuf::from("target/fuzz-cases"));
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("creating {}: {e}", dir.display()))?;
            let file = dir.join(format!("fail-{}.case", failure.index));
            std::fs::write(&file, failure.case_file())
                .map_err(|e| format!("writing {}: {e}", file.display()))?;
            Err(format!(
                "fuzz: case {} of {} failed (seed {}): {}\nshrunk reproducer written to {} \
                 (replay with `fgnvm-repro fuzz {}`)",
                failure.index,
                outcome.cases_run,
                opts.seed,
                failure.message,
                file.display(),
                file.display()
            ))
        }
    }
}

/// The `serve` and `fairness` run: each flag given over
/// [`ServeConfig::default`]. A command that does not take a flag never
/// has it given.
fn serve_config(cli: &Parsed) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    let horizon = cli.number("--horizon").filter(|&h| h > 0);
    Ok(ServeConfig {
        horizon: horizon.unwrap_or(d.horizon),
        // Arrival pressure tracks the horizon (~1 op / 40 cycles) unless
        // --ops is given.
        ops: cli
            .number("--ops")
            .or(horizon.map(|h| h / 40))
            .unwrap_or(d.ops),
        seed: cli.number("--seed").unwrap_or(d.seed),
        checkpoint_every: cli
            .number("--checkpoint-every")
            .unwrap_or(d.checkpoint_every),
        checkpoint_dir: cli.path("--checkpoint-dir"),
        policy: cli
            .value("--policy")
            .and_then(AdmissionPolicy::from_name)
            .unwrap_or(d.policy),
        watchdog_cycles: cli.number("--watchdog").unwrap_or(d.watchdog_cycles),
        telemetry_window: cli
            .number("--telemetry-every")
            .unwrap_or(d.telemetry_window),
        telemetry_out: cli.path("--telemetry-out"),
        prom_out: cli.path("--prom-out"),
        live: cli.has("--live"),
        progress: cli.has("--progress"),
        slo_read_p99: cli.number("--slo-read-p99").unwrap_or(d.slo_read_p99),
        dump_flight: cli.path("--dump-flight"),
        audit: cli.has("--audit"),
        tenants: match cli.value("--tenants") {
            Some(spec) => fgnvm_workloads::parse_tenants(spec).map_err(|e| e.to_string())?,
            None => d.tenants,
        },
        ..d
    })
}

/// The `serve` command: a crash-safe long-horizon run with periodic
/// checkpoints. `--resume FILE` continues a killed run from a checkpoint
/// and lands bit-identically on the uninterrupted run's final state.
fn serve_command(cli: &Parsed) -> Result<(), String> {
    let config = first_config(cli)?;
    let sc = serve_config(cli)?;
    let report = match cli.path("--resume") {
        Some(ckpt) => fgnvm_sim::resume(config, &ckpt, &sc).map_err(|e| e.to_string())?,
        None => fgnvm_sim::serve(config, &sc).map_err(|e| e.to_string())?,
    };
    println!(
        "serve: {} admitted, {} completed, {} rejected ({} retried, {} blocked cycles) \
         by cycle {}; {} checkpoint(s); wear: {} remapped, {} retired, {} read-only bank(s), \
         {} write(s) refused",
        report.admitted,
        report.completions,
        report.rejected,
        report.retried,
        report.blocked_cycles,
        report.final_cycle,
        report.checkpoints_written,
        report.remapped_rows,
        report.retired_rows,
        report.read_only_banks,
        report.read_only_write_rejections,
    );
    if report.windows_emitted > 0 {
        println!(
            "telemetry: {} window(s) emitted{}",
            report.windows_emitted,
            sc.telemetry_out
                .as_ref()
                .map(|p| format!(" to {}", p.display()))
                .unwrap_or_default(),
        );
    }
    if sc.slo_read_p99 > 0 {
        println!(
            "slo: read p99 <= {} cy violated in {} of {} window(s)",
            sc.slo_read_p99, report.slo_violations, report.slo_windows,
        );
    }
    for t in &report.tenants {
        println!(
            "tenant {}: {} admitted, {} completed, {} rejected ({} retried); \
             read p50/p95/p99 = {}/{}/{} cy{}",
            t.name,
            t.admitted,
            t.completions,
            t.rejected,
            t.retried,
            t.read_p50,
            t.read_p95,
            t.read_p99,
            if t.slo_read_p99 > 0 {
                format!(
                    "; slo read p99 <= {} cy violated in {} of {} window(s)",
                    t.slo_read_p99, t.slo_violations, t.slo_windows,
                )
            } else {
                String::new()
            },
        );
    }
    if let Some(path) = write_out(cli, "--metrics-out", &report.metrics_json)? {
        println!("metrics written to {}", path.display());
    }
    Ok(())
}

fn fairness_command(cli: &Parsed) -> Result<(), String> {
    let config = first_config(cli)?;
    if !cli.has("--tenants") {
        return Err("fairness needs --tenants with at least two tenants".into());
    }
    let sc = serve_config(cli)?;
    let report = fgnvm_sim::fairness(config, &sc).map_err(|e| e.to_string())?;
    println!("fairness: isolated vs shared read p99 per tenant (cycles)");
    println!("tenant       isolated    frfcfs       qos");
    for row in &report.tenants {
        println!(
            "{:<12} {:>8} {:>9} {:>9}",
            row.name, row.isolated_p99, row.shared_frfcfs_p99, row.shared_qos_p99,
        );
    }
    println!(
        "p99 gap (max-min across tenants): frfcfs = {} cy, qos = {} cy",
        report.frfcfs_p99_gap, report.qos_p99_gap,
    );
    Ok(())
}

fn main() -> ExitCode {
    let cli = match REPRO.parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
