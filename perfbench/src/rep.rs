//! One repetition's result, and running each repetition in a child process.
//!
//! Every repetition runs in a fresh process of this binary, so its peak
//! resident set covers that run alone and nothing stays warm between
//! repetitions — a CLI user pays the same cold start. The child prints
//! one JSON line; the parent reads it back.

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fgnvm_obs::json::{number, quote};
use fgnvm_sim::profile::json;

use crate::catalog::PER_LAYER;
use crate::workload::{Size, Workload};

/// A correctness check on a repetition's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Short name of the check.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Metrics and gates of one repetition, or why it could not run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks, in the order they ran.
    pub gates: Vec<Gate>,
    /// Set when the repetition errored instead of finishing.
    pub error: Option<String>,
}

impl Rep {
    /// A repetition that could not run.
    pub fn errored(message: String) -> Rep {
        Rep {
            error: Some(message),
            ..Rep::default()
        }
    }

    /// A traced repetition with every per-layer metric present and zero,
    /// so a layer the workload never calls still reports.
    pub fn with_layers() -> Rep {
        let mut rep = Rep::default();
        for m in PER_LAYER {
            rep.set(m.name, 0.0);
        }
        rep
    }

    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a correctness check.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// True when the repetition errored or failed any check.
    pub fn failed(&self) -> bool {
        self.error.is_some() || self.gates.iter().any(|g| !g.ok)
    }

    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    quote(&g.name),
                    g.ok,
                    quote(&g.detail)
                )
            })
            .collect();
        format!(
            "{{\"metrics\":{{{}}},\"gates\":[{}],\"error\":{}}}",
            metrics.join(","),
            gates.join(","),
            self.error.as_deref().map_or("null".to_string(), quote)
        )
    }

    /// Parses [`to_json`](Self::to_json) output.
    pub fn from_json(text: &str) -> Result<Rep, String> {
        let doc = json::parse(text)?;
        let obj = doc
            .as_object()
            .ok_or("repetition result is not an object")?;
        let mut rep = Rep::default();
        if let Some(m) = obj.get("metrics").and_then(json::Value::as_object) {
            for (k, v) in m {
                // Non-finite values were written as null: keep them as NaN
                // so a broken metric shows rather than vanishes.
                rep.set(k, v.as_f64().unwrap_or(f64::NAN));
            }
        }
        if let Some(json::Value::Array(gates)) = obj.get("gates") {
            for g in gates {
                let g = g.as_object().ok_or("gate is not an object")?;
                let text = |k: &str| g.get(k).and_then(json::Value::as_str).unwrap_or("");
                rep.gate(
                    text("name"),
                    g.get("ok") == Some(&json::Value::Bool(true)),
                    text("detail").to_string(),
                );
            }
        }
        rep.error = obj
            .get("error")
            .and_then(json::Value::as_str)
            .map(str::to_string);
        Ok(rep)
    }
}

/// Longest a repetition may run before it is killed and counted as
/// failed: about ten times the slowest traced repetition, so only a hung
/// child reaches it.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

/// Runs one repetition of `w` in a child process and waits for it.
pub fn spawn(w: Workload, size: Size, seed: u64, traced: bool) -> Rep {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return Rep::errored(format!("cannot locate the benchmark binary: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["rep", "--workload", w.name(), "--size", size.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    // `serve` stamps telemetry with a commit hash found by walking up
    // from the working directory; pinning it keeps a repetition from
    // reading outside its checkout.
    if std::env::var_os("GIT_SHA").is_none() {
        cmd.env("GIT_SHA", "perfbench");
    }
    let mut child = match cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return Rep::errored(format!("cannot start a repetition: {e}")),
    };
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if start.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("repetition killed after {REP_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for a repetition: {e}"));
            }
        }
    };
    // The pipe closes when the child exits, so the reader finishes.
    let stdout = reader.join().unwrap_or_default();
    let status = match status {
        Ok(status) => status,
        Err(e) => return Rep::errored(e),
    };
    match stdout.lines().last().map(Rep::from_json) {
        Some(Ok(mut rep)) => {
            if !status.success() && rep.error.is_none() {
                rep.error = Some(format!("repetition exited with {status}"));
            }
            rep
        }
        _ => Rep::errored(format!(
            "repetition exited with {status} and printed no result"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let mut rep = Rep::default();
        rep.set("wall_s", 1.234_567_890_123);
        rep.set("sim_cycles", 4e6);
        rep.gate("a", true, "fine".into());
        rep.gate("b", false, "quote \" and\nnewline".into());
        assert_eq!(Rep::from_json(&rep.to_json()).unwrap(), rep);
        assert!(rep.failed());
        let err = Rep::errored("boom".into());
        assert_eq!(Rep::from_json(&err.to_json()).unwrap(), err);
    }
}
