//! Benchmark of the FgNVM simulator: four workloads, end-to-end metrics
//! from untraced runs, and per-layer metrics from a separate traced pass
//! that times calls into each layer from outside the program.
//!
//! ```text
//! # One workload, repeated for SECONDS; the last line is a JSON result
//! # with the end-to-end (--trace 0) or per-layer (--trace 1) medians.
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open --seed 7 --seconds 20 --trace 0
//!
//! # Every workload: 5 interleaved repetitions per seed, then a traced
//! # pass; prints every metric and writes a results file.
//! cargo run --release --manifest-path perfbench/Cargo.toml -- all --seed 7
//!
//! # One verdict per (metric, workload) between two results files.
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     compare base.json cand.json
//! ```

mod catalog;
mod compare;
mod fig4_traced;
mod rep;
mod report;
mod serve_mirror;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fgnvm_obs::json::{number, quote};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::rep::Rep;
use crate::report::{results_json, Set, WorkloadResult};
use crate::workload::{Size, Spec, Workload};

const USAGE: &str = "usage:
  fgnvm-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
  fgnvm-perfbench all [--seed N]... [--size full|tiny] [--out FILE]
  fgnvm-perfbench compare BASE.json CANDIDATE.json
workloads: fig4-grid, serve-open, serve-ckpt, tenants-qos";

/// Parsed command line.
#[derive(Debug)]
struct Opts {
    workload: Option<Workload>,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    trace: bool,
    size: Size,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seeds: Vec::new(),
        seconds: None,
        trace: false,
        size: Size::Full,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => o.seeds.push(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                let v = value()?;
                o.size = Size::from_name(v).ok_or(format!("unknown size `{v}`"))?;
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(m @ ("all" | "compare" | "rep")) => (m, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = parse(rest).and_then(|o| match mode {
        "all" => all(&o),
        "compare" => compare(&o),
        "rep" => Ok(child(&o)),
        _ => run(&o),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn required<T: Copy>(v: Option<T>, flag: &str) -> Result<T, String> {
    v.ok_or(format!("{flag} is required"))
}

/// Child process: one repetition, printed as one JSON line.
fn child(o: &Opts) -> ExitCode {
    let rep = (|| {
        let w = required(o.workload, "--workload")?;
        let seed = required(o.seeds.first().copied(), "--seed")?;
        match (w.spec(o.size), o.trace) {
            (Spec::Fig4(spec), true) => fig4_traced::fig4_traced_rep(&spec, seed),
            (Spec::Serve(spec), true) => serve_mirror::serve_traced_rep(w, &spec, seed),
            (_, false) => workload::untraced_rep(w, o.size, seed),
        }
    })()
    .unwrap_or_else(Rep::errored);
    println!("{}", rep.to_json());
    if rep.error.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One workload for `--seconds`: repetitions until the next one would
/// overrun, at least three untraced or one traced; the last line printed
/// is the JSON result with the medians.
fn run(o: &Opts) -> Result<ExitCode, String> {
    let w = required(o.workload, "--workload")?;
    let seed = required(o.seeds.first().copied(), "--seed")?;
    let seconds = required(o.seconds, "--seconds")?;
    let min_reps = if o.trace { 1 } else { 3 };
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let rep = rep::spawn(w, o.size, seed, o.trace);
        let errored = rep.error.is_some();
        reps.push(rep);
        let elapsed = start.elapsed().as_secs_f64();
        let projected = elapsed * (reps.len() + 1) as f64 / reps.len() as f64;
        if errored || (reps.len() >= min_reps && projected > seconds) {
            break;
        }
    }
    let result = if o.trace {
        WorkloadResult::new(w, Vec::new(), reps)
    } else {
        WorkloadResult::new(w, reps, Vec::new())
    };
    print!("{}", result.render());
    let names: Vec<(&str, &str)> = if o.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.driver_bound().is_some())
            .map(|m| (m.name, m.unit))
            .collect()
    };
    let metrics: Vec<String> = names
        .into_iter()
        .filter_map(|(name, unit)| {
            let v = result.values(name, o.trace);
            (!v.is_empty()).then(|| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(name),
                    number(stats::median(&v)),
                    quote(unit)
                )
            })
        })
        .collect();
    let (attempted, failed) = (result.runs(), result.failed_runs());
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    Ok(if failed == attempted {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Untraced repetitions of each workload in one set of `all`.
const REPS: usize = 5;

/// Every workload, one set per `--seed`: interleaved untraced repetitions
/// (W1, W2, W3, W4, W1, …, so a burst of host noise lands on every
/// workload), then one traced repetition of each.
fn all(o: &Opts) -> Result<ExitCode, String> {
    let seeds = if o.seeds.is_empty() {
        vec![7]
    } else {
        o.seeds.clone()
    };
    let out = o.out.clone().unwrap_or_else(|| {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/results/latest.json"))
    });
    let mut sets = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        println!(
            "== set {} of {}: seed {seed}, {} interleaved reps per workload, then a traced pass ==",
            i + 1,
            seeds.len(),
            REPS
        );
        let mut untraced: Vec<Vec<Rep>> = vec![Vec::new(); Workload::ALL.len()];
        for r in 0..REPS {
            for (reps, w) in untraced.iter_mut().zip(Workload::ALL) {
                eprintln!("set {} rep {}/{REPS} {}", i + 1, r + 1, w.name());
                reps.push(rep::spawn(w, o.size, seed, false));
            }
        }
        let results: Vec<WorkloadResult> = untraced
            .into_iter()
            .zip(Workload::ALL)
            .map(|(reps, w)| {
                eprintln!("set {} traced {}", i + 1, w.name());
                let traced = rep::spawn(w, o.size, seed, true);
                WorkloadResult::new(w, reps, vec![traced])
            })
            .collect();
        for r in &results {
            print!("{}", r.render());
        }
        sets.push(Set { seed, results });
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, results_json(&sets, o.size.name()))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    let failed: usize = sets
        .iter()
        .flat_map(|s| &s.results)
        .map(WorkloadResult::failed_runs)
        .sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(o: &Opts) -> Result<ExitCode, String> {
    let [base, cand] = o.positional.as_slice() else {
        return Err("compare takes two results files".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (text, ok) = compare::compare(&read(base)?, &read(cand)?)?;
    print!("{text}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
