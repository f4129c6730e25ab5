//! Smoke test: every workload at a tiny size, untraced and traced, through
//! the same command line the benchmark is driven by. Each run must pass
//! every correctness gate and report every metric `BENCHMARK.json` lists,
//! under its name and with its unit, both in the printed table and in the
//! final JSON line.

use std::process::Command;

use fgnvm_sim::profile::json::{self, Value};

fn object(v: &Value) -> &std::collections::BTreeMap<String, Value> {
    v.as_object().expect("a JSON object")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match object(v).get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("`{key}` is not an array"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    object(v)
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string"))
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_gates() {
    let spec = json::parse(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root"),
    )
    .expect("BENCHMARK.json parses");
    for workload in array(&spec, "workloads") {
        let name = text(workload, "name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_fgnvm-perfbench"))
                .args(["--workload", name, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--size", "tiny"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name} trace {trace}:\n{stdout}");
            let result = json::parse(stdout.lines().last().expect("a result line"))
                .expect("the last line is JSON");
            assert_eq!(
                object(&result).get("correct"),
                Some(&Value::Bool(true)),
                "{name} trace {trace} failed a gate:\n{stdout}"
            );
            assert_eq!(object(&result)["failed"].as_f64(), Some(0.0));
            assert!(object(&result)["attempted"].as_f64() >= Some(1.0));
            let metrics = object(&object(&result)["metrics"]);
            let expected = array(&spec, list);
            assert_eq!(metrics.len(), expected.len(), "{name} trace {trace}");
            for m in expected {
                let (metric, unit) = (text(m, "name"), text(m, "unit"));
                let got = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} trace {trace}: no `{metric}`"));
                assert_eq!(text(got, "unit"), unit, "{name}: unit of {metric}");
                assert!(
                    got.as_object()
                        .and_then(|o| o.get("value")?.as_f64())
                        .is_some(),
                    "{name}: {metric} has no numeric value"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.contains(&format!(" {metric} ")) && l.contains(unit)),
                    "{name} trace {trace}: {metric} not printed with its unit"
                );
            }
        }
    }
}
