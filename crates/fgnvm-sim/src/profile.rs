//! The `profile` / `compare` commands and the cross-run regression ledger.
//!
//! `profile` runs the standard observe mix on one configuration over
//! several seeds with the bottleneck-attribution profiler enabled, prints
//! the stall decomposition, the critical-path ranking, and the analytical
//! what-if bounds, and appends one schema-versioned [`RunRecord`] per seed
//! to a `runs.jsonl` ledger (config hash, git sha, seed, metrics,
//! attribution shares).
//!
//! `compare` reads two ledgers (a committed baseline and a fresh
//! candidate), groups records by configuration and workload, and reports
//! per-metric deltas with noise-aware thresholds: a metric regresses only
//! when the candidate's mean is worse than the baseline's by more than
//! `max(relative-threshold × baseline, 2σ across seeds)`. Deterministic
//! simulator metrics use a tight threshold; the wall-clock simulation rate
//! uses a loose one so machine noise cannot fail CI. The exit status gates
//! the perf-regression CI job.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use fgnvm_cpu::{Core, Trace};
use fgnvm_mem::MemorySystem;
use fgnvm_obs::json::{number, quote};
use fgnvm_obs::{what_if, what_if_json, StallCause};
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::ConfigError;

use crate::report::Table;
use crate::runner::ExperimentParams;
use crate::viz;

/// Version of the ledger record layout. Bump on any breaking change to
/// [`RunRecord`]'s JSON shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Workload label recorded in every ledger line produced by [`profile`].
pub const PROFILE_WORKLOAD: &str = "observe-mix";

/// FNV-1a 64-bit over `bytes`, rendered as 16 hex digits. Used for the
/// configuration provenance hash (same binary + same config → same hash).
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Best-effort commit hash for provenance: `GIT_SHA` env var, else the
/// repository's `.git/HEAD` chain, else `"unknown"`. Never fails.
pub fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GIT_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve_head(&git).unwrap_or_else(|| "unknown".to_string());
        }
        if !dir.pop() {
            return "unknown".to_string();
        }
    }
}

fn resolve_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
            return Some(sha.trim().to_string());
        }
        // Packed refs: `<sha> <ref>` lines.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some((sha, name)) = line.split_once(' ') {
                if name.trim() == reference {
                    return Some(sha.to_string());
                }
            }
        }
        None
    } else {
        Some(head.to_string())
    }
}

/// One ledger line: a run's provenance, headline metrics, and attribution
/// shares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Ledger layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Unix seconds the record was written.
    pub timestamp: u64,
    /// Commit hash (or `"unknown"`).
    pub git_sha: String,
    /// FNV-1a hash of the full configuration.
    pub config_hash: String,
    /// Configuration name (file stem or preset).
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Memory operations simulated.
    pub ops: usize,
    /// Name → value, insertion-ordered by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Serializes the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), number(*v)))
            .collect();
        format!(
            "{{\"schema_version\":{},\"timestamp\":{},\"git_sha\":{},\"config_hash\":{},\
             \"config\":{},\"workload\":{},\"seed\":{},\"ops\":{},\"metrics\":{{{}}}}}",
            self.schema_version,
            self.timestamp,
            quote(&self.git_sha),
            quote(&self.config_hash),
            quote(&self.config),
            quote(&self.workload),
            self.seed,
            self.ops,
            metrics.join(",")
        )
    }

    /// Parses one ledger line. Unknown fields are ignored so newer ledgers
    /// degrade gracefully; a missing `schema_version` is an error.
    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let value = json::parse(line)?;
        let obj = value.as_object().ok_or("ledger line is not an object")?;
        let num = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let text = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let mut metrics = BTreeMap::new();
        if let Some(json::Value::Object(m)) = obj.get("metrics") {
            for (k, v) in m {
                if let Some(v) = v.as_f64() {
                    metrics.insert(k.clone(), v);
                }
            }
        }
        Ok(RunRecord {
            schema_version: num("schema_version")? as u32,
            timestamp: num("timestamp")? as u64,
            git_sha: text("git_sha")?,
            config_hash: text("config_hash")?,
            config: text("config")?,
            workload: text("workload")?,
            seed: num("seed")? as u64,
            ops: num("ops")? as usize,
            metrics,
        })
    }
}

/// Minimal JSON reader for the ledger's own output format. The emitters in
/// this workspace hand-roll JSON (no serde_json); this is the matching
/// hand-rolled parser — full JSON value grammar, no extensions.
pub mod json {
    use std::collections::BTreeMap;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (held as `f64`).
        Number(f64),
        /// A string.
        String(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, keys sorted.
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// The value as an object map, if it is one.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }

        /// The value as a number, if it is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string slice, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::String(s) => Some(s),
                _ => None,
            }
        }
    }

    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at offset {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(format!("bad literal at offset {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::String(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(_) => self.number(),
                None => Err("unexpected end of input".to_string()),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                map.insert(key, self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or("unterminated escape")?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            other => {
                                return Err(format!("bad escape `\\{}`", other as char));
                            }
                        }
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (the input is a &str,
                        // so boundaries are valid).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                        let c = s.chars().next().ok_or("unterminated string")?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
            s.parse::<f64>()
                .map(Value::Number)
                .map_err(|_| format!("bad number `{s}` at offset {start}"))
        }
    }
}

/// Everything the `profile` command produced for one configuration.
#[derive(Debug)]
pub struct ProfileOutcome {
    /// Per-seed headline metrics plus mean ± stddev rows.
    pub summary: Table,
    /// Per-bucket attribution: cycles and shares per operation class.
    pub attribution_table: Table,
    /// What-if bounds: per scenario, the Amdahl speedup ceiling.
    pub whatif_table: Table,
    /// ASCII stacked latency-decomposition bars.
    pub decomposition_ascii: String,
    /// The attribution document plus what-if bounds as one JSON object.
    pub attribution_json: String,
    /// One ledger line per seed, ready to append to `runs.jsonl`.
    pub records: Vec<RunRecord>,
}

/// Profiles `config` over `seeds` repetitions of the observe mix.
///
/// # Errors
///
/// Returns [`ConfigError`] if the memory or core configuration is invalid.
pub fn profile(
    config: &SystemConfig,
    name: &str,
    params: &ExperimentParams,
    seeds: &[u64],
) -> Result<ProfileOutcome, ConfigError> {
    config.validate()?;
    let config_hash = fnv1a_hex(format!("{config:?}").as_bytes());
    let sha = git_sha();
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut records = Vec::new();
    let mut summary = Table::new(
        format!("Profile: {name} ({} seed(s))", seeds.len()),
        &[
            "seed",
            "ipc",
            "read lat (cy)",
            "write lat (cy)",
            "mem cycles",
            "sim Mcy/s",
        ],
    );
    let mut last_obs = None;
    let mut last_mem_cycles = 0u64;
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 5];
    for &seed in seeds {
        let core = Core::new(params.core)?;
        let mut memory = MemorySystem::new(*config)?;
        memory.set_fast_forward(params.fast_forward);
        memory.enable_observer();
        memory.enable_audit();
        let mut recs = Vec::new();
        for profile in ["milc_like", "lbm_like"] {
            let trace = fgnvm_workloads::profile(profile)
                .expect("known profile")
                .generate(config.geometry, seed, params.ops / 2);
            recs.extend_from_slice(trace.records());
        }
        let trace = Trace::new(PROFILE_WORKLOAD, recs);
        let wall = Instant::now();
        let result = core.run(&trace, &mut memory);
        let elapsed = wall.elapsed().as_secs_f64().max(1e-9);
        let rate = result.mem_cycles as f64 / elapsed;
        let (read_lat, write_lat, read_p95) = {
            let stats = memory.stats();
            (
                stats.avg_read_latency(),
                stats.avg_write_latency(),
                stats.read_latency_percentile(0.95) as f64,
            )
        };
        let obs = memory.take_observer().expect("observer enabled above");

        let mut metrics = BTreeMap::new();
        metrics.insert("ipc".to_string(), result.ipc());
        metrics.insert("avg_read_latency".to_string(), read_lat);
        metrics.insert("avg_write_latency".to_string(), write_lat);
        metrics.insert("read_p95".to_string(), read_p95);
        metrics.insert("mem_cycles".to_string(), result.mem_cycles as f64);
        metrics.insert("sim_cycles_per_sec".to_string(), rate);
        if let Some(audit) = obs.audit() {
            metrics.insert("audit_issues".to_string(), audit.issues as f64);
            metrics.insert(
                "audit_opportunity_ceiling".to_string(),
                audit.opportunity_ceiling(),
            );
        }
        for (class, totals) in [
            ("read", &obs.attribution.reads),
            ("write", &obs.attribution.writes),
        ] {
            let shares = totals.shares();
            for cause in StallCause::ALL {
                metrics.insert(
                    format!("attr_{class}_{}", cause.label()),
                    shares[cause as usize],
                );
            }
        }
        summary.push_row(vec![
            seed.to_string(),
            format!("{:.3}", result.ipc()),
            format!("{:.1}", read_lat),
            format!("{:.1}", write_lat),
            result.mem_cycles.to_string(),
            format!("{:.2}", rate / 1e6),
        ]);
        for (col, v) in columns.iter_mut().zip([
            result.ipc(),
            read_lat,
            write_lat,
            result.mem_cycles as f64,
            rate / 1e6,
        ]) {
            col.push(v);
        }
        records.push(RunRecord {
            schema_version: SCHEMA_VERSION,
            timestamp,
            git_sha: sha.clone(),
            config_hash: config_hash.clone(),
            config: name.to_string(),
            workload: PROFILE_WORKLOAD.to_string(),
            seed,
            ops: params.ops,
            metrics,
        });
        last_obs = Some(obs);
        last_mem_cycles = result.mem_cycles;
    }
    let (means, stds): (Vec<f64>, Vec<f64>) = columns.iter().map(|c| mean_std(c)).unzip();
    summary.push_row(vec![
        "mean±σ".to_string(),
        format!("{:.3}±{:.3}", means[0], stds[0]),
        format!("{:.1}±{:.1}", means[1], stds[1]),
        format!("{:.1}±{:.1}", means[2], stds[2]),
        format!("{:.0}±{:.0}", means[3], stds[3]),
        format!("{:.2}±{:.2}", means[4], stds[4]),
    ]);

    let obs = last_obs.expect("at least one seed");
    let attr = &obs.attribution;
    let mut attribution_table = Table::new(
        format!(
            "Stall attribution: {name} (seed {})",
            seeds.last().expect("seeds")
        ),
        &[
            "bucket",
            "read cy",
            "read %",
            "write cy",
            "write %",
            "dominant (r/w)",
        ],
    );
    let (rs, ws) = (attr.reads.shares(), attr.writes.shares());
    for cause in StallCause::ALL {
        let i = cause as usize;
        attribution_table.push_row(vec![
            cause.label().to_string(),
            attr.reads.cycles[i].to_string(),
            format!("{:.1}%", rs[i] * 100.0),
            attr.writes.cycles[i].to_string(),
            format!("{:.1}%", ws[i] * 100.0),
            format!("{}/{}", attr.reads.dominant[i], attr.writes.dominant[i]),
        ]);
    }
    let bounds = what_if(attr);
    let mut whatif_table = Table::new(
        "What-if bounds (Amdahl ceilings from the attribution)",
        &["scenario", "read ≤", "write ≤", "overall ≤", "hypothesis"],
    );
    for b in &bounds {
        whatif_table.push_row(vec![
            b.scenario.name.to_string(),
            format!("{:.3}x", b.read_speedup),
            format!("{:.3}x", b.write_speedup),
            format!("{:.3}x", b.overall_speedup),
            b.scenario.description.to_string(),
        ]);
    }
    // The issue audit's measured opportunity ceiling rides beside the
    // analytical Amdahl rows: same table, so realized rate, measured
    // headroom, and the hypothetical bounds read side by side.
    if let Some(audit) = obs.audit() {
        whatif_table.push_row(vec![
            "measured-opportunity".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{:.3}x", audit.opportunity_ceiling()),
            format!(
                "audited legal co-issues left behind (realized {:.4} issues/cy \
                 over {} decisions)",
                audit.realized_issue_rate(last_mem_cycles),
                audit.issues
            ),
        ]);
    }
    let audit_json = obs
        .audit()
        .map(fgnvm_obs::AuditLog::to_json)
        .unwrap_or_else(|| "null".to_string());
    let attribution_json = format!(
        "{{\"attribution\":{},\"what_if\":{},\"audit\":{}}}",
        attr.to_json(),
        what_if_json(&bounds),
        audit_json
    );
    Ok(ProfileOutcome {
        summary,
        attribution_table,
        whatif_table,
        decomposition_ascii: viz::render_latency_decomposition(attr, 48),
        attribution_json,
        records,
    })
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Direction and noise threshold for one gated metric.
#[derive(Debug, Clone, Copy)]
struct Gate {
    metric: &'static str,
    /// True when larger values are better (ipc, rate).
    higher_is_better: bool,
    /// Relative noise threshold on the baseline mean.
    rel_threshold: f64,
}

/// The metrics `compare` gates on. The wall-clock rate gets a loose
/// threshold (machine noise); everything else is deterministic given the
/// binary and seed, so the tight threshold only absorbs float formatting.
const GATES: [Gate; 5] = [
    Gate {
        metric: "avg_read_latency",
        higher_is_better: false,
        rel_threshold: 0.02,
    },
    Gate {
        metric: "avg_write_latency",
        higher_is_better: false,
        rel_threshold: 0.02,
    },
    Gate {
        metric: "mem_cycles",
        higher_is_better: false,
        rel_threshold: 0.02,
    },
    Gate {
        metric: "ipc",
        higher_is_better: true,
        rel_threshold: 0.02,
    },
    Gate {
        metric: "sim_cycles_per_sec",
        higher_is_better: true,
        rel_threshold: 0.40,
    },
];

/// One metric's baseline-vs-candidate verdict.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// `config/workload` group key.
    pub group: String,
    /// Metric name.
    pub metric: String,
    /// Baseline mean across seeds.
    pub baseline: f64,
    /// Candidate mean across seeds.
    pub candidate: f64,
    /// Allowed noise band around the baseline mean.
    pub threshold: f64,
    /// True when the candidate is worse beyond the noise band.
    pub regressed: bool,
}

/// The full `compare` verdict.
#[derive(Debug)]
pub struct CompareOutcome {
    /// Every gated metric in every group present in both ledgers.
    pub deltas: Vec<MetricDelta>,
    /// Groups present in only one ledger (reported, not gated).
    pub unmatched: Vec<String>,
    /// Ledger lines that failed to parse.
    pub skipped_lines: usize,
}

impl CompareOutcome {
    /// Count of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regressed).count()
    }

    /// Renders the verdict as a Markdown report.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Perf comparison\n");
        let _ = writeln!(
            out,
            "{} metric(s) compared, {} regression(s), {} unmatched group(s), {} skipped line(s)\n",
            self.deltas.len(),
            self.regressions(),
            self.unmatched.len(),
            self.skipped_lines
        );
        let _ = writeln!(
            out,
            "| group | metric | baseline | candidate | delta | threshold | verdict |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} | {:+.4} | ±{:.4} | {} |",
                d.group,
                d.metric,
                d.baseline,
                d.candidate,
                d.candidate - d.baseline,
                d.threshold,
                if d.regressed { "**REGRESSED**" } else { "ok" }
            );
        }
        for g in &self.unmatched {
            let _ = writeln!(out, "\n- unmatched group: `{g}`");
        }
        out
    }

    /// Renders the verdict as a JSON document.
    pub fn to_json(&self) -> String {
        let deltas: Vec<String> = self
            .deltas
            .iter()
            .map(|d| {
                format!(
                    "{{\"group\":{},\"metric\":{},\"baseline\":{},\"candidate\":{},\
                     \"threshold\":{},\"regressed\":{}}}",
                    quote(&d.group),
                    quote(&d.metric),
                    number(d.baseline),
                    number(d.candidate),
                    number(d.threshold),
                    d.regressed
                )
            })
            .collect();
        let unmatched: Vec<String> = self.unmatched.iter().map(|g| quote(g)).collect();
        format!(
            "{{\"regressions\":{},\"skipped_lines\":{},\"deltas\":[{}],\"unmatched\":[{}]}}",
            self.regressions(),
            self.skipped_lines,
            deltas.join(","),
            unmatched.join(",")
        )
    }
}

/// Parses a ledger file's lines into records, counting unparsable lines.
pub fn parse_ledger(text: &str) -> (Vec<RunRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match RunRecord::parse(line) {
            Ok(r) if r.schema_version <= SCHEMA_VERSION => records.push(r),
            Ok(_) | Err(_) => skipped += 1,
        }
    }
    (records, skipped)
}

fn group_means(records: &[RunRecord]) -> BTreeMap<String, BTreeMap<String, (f64, f64)>> {
    let mut grouped: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for r in records {
        let key = format!("{}/{}", r.config, r.workload);
        let metrics = grouped.entry(key).or_default();
        for (name, value) in &r.metrics {
            metrics.entry(name.clone()).or_default().push(*value);
        }
    }
    grouped
        .into_iter()
        .map(|(k, metrics)| {
            (
                k,
                metrics
                    .into_iter()
                    .map(|(m, vs)| (m, mean_std(&vs)))
                    .collect(),
            )
        })
        .collect()
}

/// Compares a candidate ledger against a baseline ledger with noise-aware
/// thresholds. Regression: the candidate mean is worse than the baseline
/// mean by more than `max(rel_threshold × |baseline|, 2σ)` where σ pools
/// the two ledgers' per-seed standard deviations.
pub fn compare_ledgers(baseline: &str, candidate: &str) -> CompareOutcome {
    let (base_records, base_skipped) = parse_ledger(baseline);
    let (cand_records, cand_skipped) = parse_ledger(candidate);
    let base = group_means(&base_records);
    let cand = group_means(&cand_records);
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    for (group, base_metrics) in &base {
        let Some(cand_metrics) = cand.get(group) else {
            unmatched.push(group.clone());
            continue;
        };
        for gate in GATES {
            let (Some((bm, bs)), Some((cm, cs))) =
                (base_metrics.get(gate.metric), cand_metrics.get(gate.metric))
            else {
                continue;
            };
            let noise = 2.0 * (bs * bs + cs * cs).sqrt();
            let threshold = (gate.rel_threshold * bm.abs()).max(noise);
            let worse_by = if gate.higher_is_better {
                bm - cm
            } else {
                cm - bm
            };
            deltas.push(MetricDelta {
                group: group.clone(),
                metric: gate.metric.to_string(),
                baseline: *bm,
                candidate: *cm,
                threshold,
                regressed: worse_by > threshold,
            });
        }
    }
    for group in cand.keys() {
        if !base.contains_key(group) {
            unmatched.push(group.clone());
        }
    }
    CompareOutcome {
        deltas,
        unmatched,
        skipped_lines: base_skipped + cand_skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(config: &str, seed: u64, read_lat: f64, rate: f64) -> RunRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("ipc".to_string(), 1.25);
        metrics.insert("avg_read_latency".to_string(), read_lat);
        metrics.insert("avg_write_latency".to_string(), 900.0);
        metrics.insert("mem_cycles".to_string(), 100_000.0);
        metrics.insert("sim_cycles_per_sec".to_string(), rate);
        RunRecord {
            schema_version: SCHEMA_VERSION,
            timestamp: 1_700_000_000,
            git_sha: "deadbeef".to_string(),
            config_hash: "0123456789abcdef".to_string(),
            config: config.to_string(),
            workload: PROFILE_WORKLOAD.to_string(),
            seed,
            ops: 6000,
            metrics,
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record("fgnvm-8x2", 7, 123.5, 2.5e6);
        let parsed = RunRecord::parse(&r.to_json_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn identical_ledgers_report_zero_regressions() {
        let ledger: String = (0..3)
            .map(|s| record("fgnvm-8x2", s, 120.0 + s as f64, 2.0e6))
            .map(|r| r.to_json_line() + "\n")
            .collect();
        let out = compare_ledgers(&ledger, &ledger);
        assert_eq!(out.regressions(), 0);
        assert_eq!(out.skipped_lines, 0);
        assert!(!out.deltas.is_empty());
        assert!(out.to_markdown().contains("| ok |"));
        assert!(out.to_json().contains("\"regressions\":0"));
    }

    #[test]
    fn latency_regression_beyond_noise_is_flagged() {
        let base: String = (0..3)
            .map(|s| record("fgnvm-8x2", s, 120.0, 2.0e6).to_json_line() + "\n")
            .collect();
        let worse: String = (0..3)
            .map(|s| record("fgnvm-8x2", s, 150.0, 2.0e6).to_json_line() + "\n")
            .collect();
        let out = compare_ledgers(&base, &worse);
        assert!(out
            .deltas
            .iter()
            .any(|d| d.metric == "avg_read_latency" && d.regressed));
        // The reverse direction (improvement) is never a regression.
        let improved = compare_ledgers(&worse, &base);
        assert_eq!(
            improved
                .deltas
                .iter()
                .filter(|d| d.metric == "avg_read_latency" && d.regressed)
                .count(),
            0
        );
    }

    #[test]
    fn wall_clock_rate_uses_the_loose_threshold() {
        let base: String = (0..2)
            .map(|s| record("fgnvm-8x2", s, 120.0, 2.0e6).to_json_line() + "\n")
            .collect();
        // 25% slower: inside the 40% machine-noise band.
        let jittery: String = (0..2)
            .map(|s| record("fgnvm-8x2", s, 120.0, 1.5e6).to_json_line() + "\n")
            .collect();
        let out = compare_ledgers(&base, &jittery);
        assert_eq!(out.regressions(), 0);
        // 60% slower: a real regression.
        let slow: String = (0..2)
            .map(|s| record("fgnvm-8x2", s, 120.0, 0.8e6).to_json_line() + "\n")
            .collect();
        let out = compare_ledgers(&base, &slow);
        assert!(out
            .deltas
            .iter()
            .any(|d| d.metric == "sim_cycles_per_sec" && d.regressed));
    }

    #[test]
    fn unmatched_groups_and_bad_lines_are_surfaced() {
        let base = record("fgnvm-8x2", 0, 120.0, 2.0e6).to_json_line();
        let cand = record("fgnvm-8x8", 0, 100.0, 2.0e6).to_json_line() + "\nnot json\n";
        let out = compare_ledgers(&base, &cand);
        assert_eq!(out.deltas.len(), 0);
        assert_eq!(out.unmatched.len(), 2);
        assert_eq!(out.skipped_lines, 1);
    }

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = json::parse(r#"{"a":[1,2.5,-3e2],"b":"x\"\n","c":true,"d":null}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj.get("a"),
            Some(&json::Value::Array(vec![
                json::Value::Number(1.0),
                json::Value::Number(2.5),
                json::Value::Number(-300.0)
            ]))
        );
        assert_eq!(obj.get("b").unwrap().as_str(), Some("x\"\n"));
        assert!(json::parse("{\"a\":1}trailing").is_err());
    }

    #[test]
    fn profile_attributes_every_cycle_on_a_preset() {
        let params = ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        };
        let out = profile(
            &SystemConfig::fgnvm(8, 2).unwrap(),
            "fgnvm-8x2",
            &params,
            &[7, 8],
        )
        .unwrap();
        assert_eq!(out.records.len(), 2);
        for r in &out.records {
            assert_eq!(r.schema_version, SCHEMA_VERSION);
            assert_eq!(r.config_hash.len(), 16);
            assert!(r.metrics.contains_key("attr_read_service"));
            // Round-trip through the ledger format.
            assert_eq!(&RunRecord::parse(&r.to_json_line()).unwrap(), r);
        }
        assert!(out
            .attribution_json
            .starts_with("{\"attribution\":{\"requests\":"));
        assert!(out.attribution_json.contains("\"audit\":{\"sags\":"));
        assert!(out.decomposition_ascii.contains("stall attribution"));
        // Six Amdahl scenarios plus the measured-opportunity row.
        assert_eq!(out.whatif_table.row_count(), 7);
        assert!(out.whatif_table.render().contains("measured-opportunity"));
        for r in &out.records {
            assert!(r.metrics.contains_key("audit_opportunity_ceiling"));
        }
        // Same binary, same seeds: a self-compare of the emitted ledger
        // reports zero regressions (the acceptance criterion).
        let ledger: String = out
            .records
            .iter()
            .map(|r| r.to_json_line() + "\n")
            .collect();
        let cmp = compare_ledgers(&ledger, &ledger);
        assert_eq!(cmp.regressions(), 0);
    }
}
