//! The `audit` command: one issue-audited run of the simulator.
//!
//! Runs the observe mix with the scheduler decision audit enabled and
//! reports the three issue-parallelism numbers side by side:
//!
//! - the **realized** issue rate (audited issue decisions per memory
//!   cycle),
//! - the **measured opportunity ceiling** — how much faster issue could
//!   have gone had every legal rook-compatible (SAG, CD) co-issue the
//!   audit observed actually been taken, and
//! - the **analytical Amdahl ceiling** from the stall-attribution what-if
//!   estimator (the `enable-multi-issue` scenario).
//!
//! The gap between the measured and analytical ceilings is the point: the
//! Amdahl bound assumes a relief fraction, the measured ceiling counts
//! concrete commands the scheduler verifiably left behind. The audit
//! conservation invariant (`fgnvm-check`) gates the command's exit status,
//! so a decision stream that fails to fold back onto the command counters
//! fails the run.

use fgnvm_cpu::Core;
use fgnvm_mem::MemorySystem;
use fgnvm_obs::json::{number, quote};
use fgnvm_obs::what_if;
use fgnvm_types::config::SystemConfig;
use fgnvm_types::error::ConfigError;

use crate::observe::observe_mix;
use crate::report::Table;
use crate::runner::ExperimentParams;
use crate::viz;

/// Telemetry window for audited runs (cycles); small enough that short
/// profiles close several windows, exercising the per-window opportunity
/// fold the conservation invariant checks.
const AUDIT_WINDOW_CYCLES: u64 = 2_000;

/// Everything one issue-audited run produced.
#[derive(Debug)]
pub struct AuditOutcome {
    /// Realized rate, measured ceiling, and Amdahl ceiling side by side,
    /// plus the decision-stream headline counters.
    pub summary: Table,
    /// ASCII digest: issuable-parallelism histogram, per-gate block
    /// attribution, and the missed co-issue (SAG x CD) grid.
    pub audit_ascii: String,
    /// One JSON document: config name, the full audit aggregate, the
    /// derived rates/ceilings, and the invariant verdict.
    pub audit_json: String,
    /// Audit-conservation failures (empty when the run is clean).
    pub invariant_failures: Vec<String>,
    /// Issue decisions audited.
    pub issues: u64,
}

/// Runs the observe mix on `config` with the issue audit enabled and
/// packages the decision-stream digest, the three ceilings, and the
/// conservation verdict.
///
/// # Errors
///
/// Returns [`ConfigError`] if the memory or core configuration is invalid.
pub fn audit(
    config: &SystemConfig,
    name: &str,
    params: &ExperimentParams,
) -> Result<AuditOutcome, ConfigError> {
    config.validate()?;
    let core = Core::new(params.core)?;
    let mut memory = MemorySystem::new(*config)?;
    memory.set_fast_forward(params.fast_forward);
    memory.enable_telemetry(AUDIT_WINDOW_CYCLES, 64, 128);
    memory.enable_audit();
    let trace = observe_mix(config, params.seed, params.ops);
    let result = core.run(&trace, &mut memory);
    let final_cycle = memory.now().raw();
    let mut obs = memory.take_observer().expect("audit enables the observer");
    if let Some(ts) = obs.timeseries_mut() {
        ts.roll_to(final_cycle);
    }

    let report = fgnvm_check::check_audit_conservation(&obs, &memory.bank_stats());
    let audit = obs.audit().expect("audit enabled above");
    let realized = audit.realized_issue_rate(result.mem_cycles);
    let measured = audit.opportunity_ceiling();
    let bounds = what_if(&obs.attribution);
    let amdahl = bounds
        .iter()
        .find(|b| b.scenario.name == "enable-multi-issue")
        .map(|b| b.overall_speedup)
        .unwrap_or(1.0);

    let mut summary = Table::new(
        format!("Issue audit: {name}"),
        &["metric", "value", "provenance"],
    );
    let mut row = |metric: &str, value: String, provenance: &str| {
        summary.push_row(vec![metric.to_string(), value, provenance.to_string()])
    };
    row(
        "realized issue rate",
        format!("{realized:.4} issues/cy"),
        "measured: audited issue decisions / memory cycles",
    );
    row(
        "measured opportunity ceiling",
        format!("{measured:.3}x"),
        "measured: legal rook-compatible co-issues the scheduler left behind",
    );
    row(
        "amdahl ceiling (enable-multi-issue)",
        format!("{amdahl:.3}x"),
        "analytical: stall-attribution what-if bound",
    );
    row(
        "decisions audited",
        audit.issues.to_string(),
        "one record per issued command",
    );
    row(
        "solo decisions",
        audit.solo_decisions.to_string(),
        "decisions with an otherwise-empty queue",
    );
    row(
        "no-co-issue decisions",
        audit.parallelism_hist[0].to_string(),
        "decisions with no legal co-issue available (parallelism bin +0)",
    );
    row(
        "candidates considered",
        audit.considered_total.to_string(),
        "queue entries weighed across all decisions",
    );
    row(
        "conservation invariant",
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("VIOLATED ({} failure(s))", report.failures.len())
        },
        "fgnvm-check audit-conservation",
    );

    let failures: Vec<String> = report
        .failures
        .iter()
        .map(|f| quote(&f.to_string()))
        .collect();
    let audit_json = format!(
        "{{\"config\":{},\"realized_issue_rate\":{},\"measured_opportunity_ceiling\":{},\
         \"amdahl_multi_issue\":{},\"invariant_clean\":{},\"failures\":[{}],\"audit\":{}}}",
        quote(name),
        number(realized),
        number(measured),
        number(amdahl),
        report.is_clean(),
        failures.join(","),
        audit.to_json(),
    );

    Ok(AuditOutcome {
        summary,
        audit_ascii: format!(
            "{}{}{}",
            viz::render_opportunity_histogram(audit, 48),
            viz::render_block_attribution(audit, 48),
            viz::render_missed_pairs(audit),
        ),
        audit_json,
        invariant_failures: report.failures.iter().map(ToString::to_string).collect(),
        issues: audit.issues,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentParams {
        ExperimentParams {
            ops: 600,
            ..ExperimentParams::quick()
        }
    }

    #[test]
    fn audit_reports_the_three_ceilings_side_by_side() {
        let out = audit(&SystemConfig::fgnvm(8, 2).unwrap(), "fgnvm-8x2", &quick()).unwrap();
        assert!(out.issues > 0);
        assert!(
            out.invariant_failures.is_empty(),
            "{:?}",
            out.invariant_failures
        );
        let rendered = out.summary.render();
        assert!(rendered.contains("realized issue rate"));
        assert!(rendered.contains("measured opportunity ceiling"));
        assert!(rendered.contains("amdahl ceiling (enable-multi-issue)"));
        assert!(rendered.contains("clean"));
        assert!(out.audit_ascii.contains("issuable parallelism ("));
        assert!(out.audit_ascii.contains("block attribution ("));
        assert!(out.audit_ascii.contains("missed co-issue pairs"));
        assert!(out.audit_json.starts_with("{\"config\":\"fgnvm-8x2\""));
        assert!(out.audit_json.contains("\"invariant_clean\":true"));
        assert!(out.audit_json.contains("\"audit\":{\"sags\":8,\"cds\":2"));
    }

    #[test]
    fn solo_and_no_co_issue_rows_are_distinct() {
        // The default `fgnvm-repro audit` run.
        let params = ExperimentParams::full();
        let out = audit(&SystemConfig::fgnvm(8, 2).unwrap(), "fgnvm-8x2", &params).unwrap();
        let rendered = out.summary.render();
        let value = |metric: &str| -> u64 {
            let line = rendered
                .lines()
                .find(|l| l.trim_start().starts_with(metric))
                .unwrap_or_else(|| panic!("no `{metric}` row in\n{rendered}"));
            line.trim_start()[metric.len()..]
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("`{metric}` row has no count: {line}"))
        };
        // 58 decisions had nothing else queued, while 2,065 had company
        // but none of it could legally co-issue.
        assert_eq!(value("solo decisions"), 58);
        assert_eq!(value("no-co-issue decisions"), 2_065);
        assert!(rendered.contains("decisions with an otherwise-empty queue"));
        assert!(rendered.contains("(parallelism bin +0)"));
    }

    #[test]
    fn audit_runs_on_the_baseline_too() {
        // One (SAG, CD) tile per bank: within-bank co-issue is impossible,
        // but ready commands on *other* banks still register as headroom,
        // so the ceiling is >= 1.0 and the invariant must still hold.
        let out = audit(&SystemConfig::baseline(), "baseline", &quick()).unwrap();
        assert!(out.issues > 0);
        assert!(
            out.invariant_failures.is_empty(),
            "{:?}",
            out.invariant_failures
        );
        assert!(out.audit_json.contains("\"measured_opportunity_ceiling\":"));
        let missed_grid = out
            .audit_ascii
            .lines()
            .filter(|l| l.starts_with("SAG"))
            .count();
        assert_eq!(missed_grid, 1, "baseline collapses to a 1x1 missed grid");
    }
}
