//! ASCII visualization of bank activity from the controller's command log.
//!
//! Renders one lane per bank over time; each column is a time bucket and
//! each cell shows the dominant command kind issued there:
//!
//! ```text
//! bank 0 |A.r..W~~~~..A.r|
//! bank 1 |..A.rr....A....|
//!         A=activate  u=underfetch  r=row hit  W=write  ~=write programming
//! ```
//!
//! Useful for eyeballing tile-level parallelism (overlapping lanes) and
//! backgrounded writes (reads issued inside another bank's `~` span).

use fgnvm_bank::PlanKind;
use fgnvm_mem::CommandRecord;
use fgnvm_types::request::Op;

/// Renders `records` as per-bank activity lanes.
///
/// `banks` lanes are drawn; `width` characters of timeline are emitted,
/// covering the span from the first to the last record. Writes additionally
/// paint `~` for their programming window (approximated as tWP = 60 cycles
/// after the data burst).
pub fn render_lanes(records: &[CommandRecord], banks: usize, width: usize) -> String {
    let mut out = String::new();
    if records.is_empty() || banks == 0 || width == 0 {
        out.push_str("(no commands logged)\n");
        return out;
    }
    let start = records.first().expect("non-empty").at.raw();
    let end = records
        .iter()
        .map(|r| r.data_start.raw() + 64)
        .max()
        .unwrap_or(start + 1);
    let span = (end - start).max(1);
    let bucket = |cycle: u64| -> usize {
        (((cycle.saturating_sub(start)) as u128 * width as u128 / span as u128) as usize)
            .min(width - 1)
    };
    let mut lanes = vec![vec![b'.'; width]; banks];
    for r in records {
        if r.bank_index >= banks {
            continue;
        }
        let lane = &mut lanes[r.bank_index];
        let b = bucket(r.at.raw());
        let symbol = match (r.op, r.kind) {
            (Op::Write, _) => b'W',
            (_, PlanKind::RowHit) => b'r',
            (_, PlanKind::Underfetch) => b'u',
            (_, PlanKind::Activate) => b'A',
            (_, PlanKind::Write) => b'W',
        };
        // Commands overwrite programming shading; later commands win ties.
        lane[b] = symbol;
        if r.op.is_write() {
            // Shade the programming window (tWP ≈ 60 cycles past the burst).
            let from = bucket(r.data_start.raw());
            let to = bucket(r.data_start.raw() + 64);
            for cell in lane.iter_mut().take(to + 1).skip(from) {
                if *cell == b'.' {
                    *cell = b'~';
                }
            }
        }
    }
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("bank {i} |"));
        out.push_str(std::str::from_utf8(lane).expect("ascii lane"));
        out.push_str("|\n");
    }
    out.push_str("        A=activate  u=underfetch  r=row hit  W=write  ~=write programming\n");
    out
}

/// Renders the (SAG × CD) tile grid of ONE bank over time — the paper's
/// Figure 3 in motion. One lane per SAG; within a lane, a command's symbol
/// is placed at its time bucket, so Multi-Activation shows as symbols in
/// different lanes at the same column and Backgrounded Writes as reads
/// issued inside another lane's `~` programming span.
pub fn render_tile_grid(records: &[CommandRecord], bank: usize, sags: u32, width: usize) -> String {
    let mut out = String::new();
    let records: Vec<&CommandRecord> = records.iter().filter(|r| r.bank_index == bank).collect();
    if records.is_empty() || sags == 0 || width == 0 {
        out.push_str("(no commands logged for this bank)\n");
        return out;
    }
    let start = records.first().expect("non-empty").at.raw();
    let end = records
        .iter()
        .map(|r| r.data_start.raw() + 64)
        .max()
        .unwrap_or(start + 1);
    let span = (end - start).max(1);
    let bucket = |cycle: u64| -> usize {
        (((cycle.saturating_sub(start)) as u128 * width as u128 / span as u128) as usize)
            .min(width - 1)
    };
    let mut lanes = vec![vec![b'.'; width]; sags as usize];
    for r in &records {
        if r.coord.sag >= sags {
            continue;
        }
        let lane = &mut lanes[r.coord.sag as usize];
        let symbol = match (r.op, r.kind) {
            (Op::Write, _) => b'W',
            (_, PlanKind::RowHit) => b'r',
            (_, PlanKind::Underfetch) => b'u',
            (_, PlanKind::Activate) => b'A',
            (_, PlanKind::Write) => b'W',
        };
        lane[bucket(r.at.raw())] = symbol;
        if r.op.is_write() {
            let from = bucket(r.data_start.raw());
            let to = bucket(r.data_start.raw() + 64);
            for cell in lane.iter_mut().take(to + 1).skip(from) {
                if *cell == b'.' {
                    *cell = b'~';
                }
            }
        }
    }
    out.push_str(&format!("bank {bank}, one lane per subarray group:\n"));
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("SAG {i:>2} |"));
        out.push_str(std::str::from_utf8(lane).expect("ascii lane"));
        out.push_str("|\n");
    }
    out.push_str("        A=activate  u=underfetch  r=row hit  W=write  ~=write programming\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::request::RequestId;
    use fgnvm_types::time::Cycle;

    fn record(at: u64, bank: usize, op: Op, kind: PlanKind) -> CommandRecord {
        CommandRecord {
            at: Cycle::new(at),
            id: RequestId::new(at),
            op,
            kind,
            bank_index: bank,
            row: 0,
            coord: TileCoord {
                sag: 0,
                cd_first: 0,
                cd_count: 1,
            },
            data_start: Cycle::new(at + 48),
            retries: 0,
        }
    }

    #[test]
    fn empty_log_renders_placeholder() {
        let s = render_lanes(&[], 4, 40);
        assert!(s.contains("no commands"));
    }

    #[test]
    fn lanes_show_command_kinds() {
        let records = vec![
            record(0, 0, Op::Read, PlanKind::Activate),
            record(100, 0, Op::Read, PlanKind::RowHit),
            record(50, 1, Op::Write, PlanKind::Write),
        ];
        let s = render_lanes(&records, 2, 60);
        let lines: Vec<&str> = s.lines().collect();
        assert!(
            lines[0].starts_with("bank 0 |") && lines[0].contains('A') && lines[0].contains('r')
        );
        assert!(lines[1].contains('W') && lines[1].contains('~'));
        assert!(s.contains("A=activate"));
    }

    #[test]
    fn tile_grid_separates_sags() {
        let mut a = record(0, 0, Op::Read, PlanKind::Activate);
        a.coord = TileCoord {
            sag: 0,
            cd_first: 0,
            cd_count: 1,
        };
        let mut b = record(4, 0, Op::Read, PlanKind::Activate);
        b.coord = TileCoord {
            sag: 3,
            cd_first: 1,
            cd_count: 1,
        };
        let s = render_tile_grid(&[a, b], 0, 4, 40);
        // Compare lane *bodies* (the labels themselves contain 'A').
        let body = |line: &str| line.split('|').nth(1).unwrap_or("").to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("SAG  0") && body(lines[1]).contains('A'));
        assert!(lines[4].starts_with("SAG  3") && body(lines[4]).contains('A'));
        assert!(!body(lines[2]).contains('A') && !body(lines[3]).contains('A'));
    }

    #[test]
    fn tile_grid_filters_by_bank() {
        let r = record(0, 5, Op::Read, PlanKind::Activate);
        let s = render_tile_grid(&[r], 0, 4, 20);
        assert!(s.contains("no commands"));
    }

    #[test]
    fn out_of_range_banks_are_skipped() {
        let records = vec![record(0, 9, Op::Read, PlanKind::Activate)];
        let s = render_lanes(&records, 2, 20);
        assert!(!s.contains('A') || s.lines().take(2).all(|l| !l.contains('A')));
    }
}

/// Renders a power-of-two read-latency histogram as ASCII bars, one line
/// per occupied bucket, scaled to `width` characters at the mode.
///
/// ```
/// let mut hist = [0u64; 20];
/// hist[6] = 80;  // latencies 32..63
/// hist[7] = 20;  // latencies 64..127
/// let out = fgnvm_sim::viz::render_latency_histogram(&hist, 40);
/// assert!(out.contains("32..63"));
/// assert!(out.contains("80.0%"));
/// ```
pub fn render_latency_histogram(hist: &[u64], width: usize) -> String {
    use std::fmt::Write as _;
    let total: u64 = hist.iter().sum();
    let mut out = String::new();
    if total == 0 {
        out.push_str("  (no reads completed)\n");
        return out;
    }
    let peak = *hist.iter().max().expect("histogram is non-empty");
    let first = hist.iter().position(|&c| c > 0).expect("total > 0");
    let last = hist.iter().rposition(|&c| c > 0).expect("total > 0");
    for (bucket, &count) in hist.iter().enumerate().take(last + 1).skip(first) {
        // Bucket i holds latencies in [2^(i-1), 2^i) (bucket 0: just 0).
        let (lo, hi) = fgnvm_types::hist::bucket_bounds(bucket);
        let range = if bucket == 0 {
            "0".to_string()
        } else {
            format!("{lo}..{hi}")
        };
        let bar = (count as usize * width).div_ceil(peak as usize).min(width);
        let pct = count as f64 * 100.0 / total as f64;
        let _ = writeln!(
            out,
            "  {range:>12} cy |{:<width$}| {pct:>5.1}%",
            "#".repeat(if count > 0 { bar.max(1) } else { 0 }),
        );
    }
    out
}

/// Renders a [`fgnvm_obs::TileHeatmap`] as an ASCII S×C grid of conflict
/// counts — the paper's rook-placement model made visible: a hot cell's
/// row (SAG) and column (CD) are the resources other accesses serialized
/// behind.
///
/// Each cell shows its conflict count scaled to a 0–9 digit (`.` for zero);
/// the margins carry per-SAG and per-CD conflict totals.
pub fn render_heatmap(heatmap: &fgnvm_obs::TileHeatmap) -> String {
    use std::fmt::Write as _;
    let (sags, cds) = heatmap.dims();
    let peak = heatmap
        .cells()
        .iter()
        .map(|c| c.conflicts)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tile conflicts (SAG x CD), peak {peak} conflicts/cell:"
    );
    out.push_str("        ");
    for cd in 0..cds {
        let _ = write!(out, "{cd:>2}");
    }
    out.push('\n');
    let mut cd_totals = vec![0u64; cds as usize];
    for sag in 0..sags {
        let mut sag_total = 0u64;
        let _ = write!(out, "SAG {sag:>2} |");
        for cd in 0..cds {
            let c = heatmap.cell(sag, cd).conflicts;
            sag_total += c;
            cd_totals[cd as usize] += c;
            if c == 0 {
                out.push_str(" .");
            } else {
                let digit = (c * 9).div_ceil(peak.max(1)).min(9);
                let _ = write!(out, " {digit}");
            }
        }
        let _ = writeln!(out, " | {sag_total}");
    }
    out.push_str("CD totals:");
    for &total in &cd_totals {
        let _ = write!(out, " {total}");
    }
    out.push('\n');
    out
}

/// One-character glyph per stall bucket, used by the stacked bars.
fn bucket_glyph(cause: fgnvm_obs::StallCause) -> char {
    use fgnvm_obs::StallCause as S;
    match cause {
        S::QueueWait => 'q',
        S::SagConflict => 'S',
        S::CdConflict => 'C',
        S::GlobalIo => 'G',
        S::TfawWindow => 'F',
        S::WriteBlock => 'W',
        S::VerifyRetry => 'V',
        S::UnderfetchResense => 'U',
        S::CtrlOverhead => 'o',
        S::Service => '#',
    }
}

/// Renders the stall attribution as one stacked ASCII bar per operation
/// class: each bucket's share of the mean end-to-end latency, plus a
/// legend with exact cycle counts. The buckets partition the latency, so
/// the bar always fills exactly `width` characters.
pub fn render_latency_decomposition(attr: &fgnvm_obs::Attribution, width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "stall attribution (per-bottleneck share of mean latency):"
    );
    for (class, totals) in [("read", &attr.reads), ("write", &attr.writes)] {
        if totals.count == 0 {
            let _ = writeln!(out, "  {class:>5} (none completed)");
            continue;
        }
        let mut bar = String::with_capacity(width);
        let mut covered = 0u64;
        let mut filled = 0usize;
        for cause in fgnvm_obs::StallCause::ALL {
            covered += totals.cycles[cause as usize];
            // Cumulative rounding keeps the bar exactly `width` wide and
            // every non-empty bucket's error below one cell.
            let upto = ((covered as u128 * width as u128) / totals.total.max(1) as u128) as usize;
            for _ in filled..upto {
                bar.push(bucket_glyph(cause));
            }
            filled = upto.max(filled);
        }
        let mean = totals.total as f64 / totals.count as f64;
        let _ = writeln!(out, "  {class:>5} |{bar:<width$}| mean {mean:.1} cy");
    }
    let grand: u64 = fgnvm_obs::StallCause::ALL
        .iter()
        .map(|c| attr.reads.cycles[*c as usize] + attr.writes.cycles[*c as usize])
        .sum();
    for cause in fgnvm_obs::StallCause::ALL {
        let cycles = attr.reads.cycles[cause as usize] + attr.writes.cycles[cause as usize];
        let pct = if grand > 0 {
            cycles as f64 * 100.0 / grand as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "    {} {:<18} {:>12} cy {pct:>5.1}%",
            bucket_glyph(cause),
            cause.label(),
            cycles
        );
    }
    out
}

#[cfg(test)]
mod decomposition_tests {
    use super::*;
    use fgnvm_obs::{Attribution, AttributionParams, CommandIssue};

    #[test]
    fn bar_is_exactly_width_and_legend_is_exhaustive() {
        let mut attr = Attribution::new(AttributionParams::bare(4, 4));
        attr.on_enqueued(1, true, 0, 0);
        attr.on_command(&CommandIssue {
            channel: 0,
            bank: 0,
            id: 1,
            is_read: true,
            kind: "activate",
            arrival: 0,
            at: 10,
            earliest_data: 40,
            data_start: 44,
            data_end: 52,
            completion: 60,
            row: 0,
            sag: 0,
            cd: 0,
            cd_count: 1,
            retries: 0,
        });
        attr.on_completed(1, 52);
        let out = render_latency_decomposition(&attr, 40);
        let bar_line = out.lines().find(|l| l.contains("read |")).unwrap();
        let bar = bar_line.split('|').nth(1).unwrap();
        assert_eq!(bar.len(), 40);
        for cause in fgnvm_obs::StallCause::ALL {
            assert!(out.contains(cause.label()), "{} missing", cause.label());
        }
        assert!(out.contains("write (none completed)"));
    }
}

#[cfg(test)]
mod heatmap_tests {
    use super::*;

    #[test]
    fn heatmap_grid_shape_and_scaling() {
        let mut obs = fgnvm_obs::Observer::new(4, 2);
        for (arrival, at) in [(0, 0), (10, 100), (20, 200)] {
            obs.on_command(&fgnvm_obs::CommandIssue {
                channel: 0,
                bank: 0,
                id: 0,
                is_read: true,
                kind: "activate",
                arrival,
                at,
                earliest_data: at,
                data_start: at,
                data_end: at + 100,
                completion: at + 100,
                row: 0,
                sag: 1,
                cd: 0,
                cd_count: 1,
                retries: 0,
            });
        }
        let s = render_heatmap(&obs.heatmap);
        let lines: Vec<&str> = s.lines().collect();
        // Title + CD header + 4 SAG rows + CD totals.
        assert_eq!(lines.len(), 7);
        assert!(lines[3].starts_with("SAG  1"));
        // Two conflicts at (1, 0) is the peak → digit 9.
        assert!(lines[3].contains('9'), "{s}");
        // Conflict-free cells render as dots.
        assert!(lines[2].contains('.'));
    }

    #[test]
    fn empty_heatmap_renders_dots() {
        let h = fgnvm_obs::TileHeatmap::new(2, 2);
        let s = render_heatmap(&h);
        assert!(s.contains("peak 0"));
        assert!(s.contains(" . ."));
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn bars_scale_to_the_mode() {
        let mut hist = [0u64; 20];
        hist[5] = 100; // 16..31
        hist[8] = 25; // 128..255
        let out = render_latency_histogram(&hist, 40);
        let lines: Vec<&str> = out.lines().collect();
        // Empty buckets between occupied ones are still printed (so gaps
        // are visible); leading/trailing empties are trimmed.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("16..31") && lines[0].contains("####"));
        assert!(lines[3].contains("128..255"));
        let mode_len = lines[0].matches('#').count();
        let tail_len = lines[3].matches('#').count();
        assert_eq!(mode_len, 40);
        assert_eq!(tail_len, 10);
    }

    #[test]
    fn empty_histogram_says_so() {
        let out = render_latency_histogram(&[0; 20], 40);
        assert!(out.contains("no reads"));
    }

    #[test]
    fn percentages_sum_to_about_100() {
        let mut hist = [0u64; 20];
        hist[3] = 1;
        hist[4] = 1;
        hist[5] = 2;
        let out = render_latency_histogram(&hist, 10);
        let sum: f64 = out
            .lines()
            .filter_map(|l| l.rsplit_once('|'))
            .filter_map(|(_, pct)| pct.trim().trim_end_matches('%').parse::<f64>().ok())
            .sum();
        assert!((sum - 100.0).abs() < 0.5, "{out}");
    }
}

/// Renders an [`fgnvm_obs::AuditLog`]'s per-decision issuable-parallelism
/// histogram as ASCII bars: bin `+k` counts the decisions at which `k`
/// additional legal rook-compatible commands could have been co-issued
/// (the last bin absorbs everything at or above it). Bars scale to the
/// mode; trailing empty bins are trimmed.
pub fn render_opportunity_histogram(audit: &fgnvm_obs::AuditLog, width: usize) -> String {
    use fgnvm_obs::audit::HIST_BINS;
    use std::fmt::Write as _;
    let mut out = String::new();
    let total: u64 = audit.parallelism_hist.iter().sum();
    let _ = writeln!(
        out,
        "issuable parallelism ({total} decisions, measured ceiling {:.2}x):",
        audit.opportunity_ceiling()
    );
    if total == 0 {
        out.push_str("  (no decisions audited)\n");
        return out;
    }
    let peak = *audit
        .parallelism_hist
        .iter()
        .max()
        .expect("histogram is non-empty");
    let last = audit
        .parallelism_hist
        .iter()
        .rposition(|&c| c > 0)
        .expect("total > 0");
    for (bin, &count) in audit.parallelism_hist.iter().enumerate().take(last + 1) {
        let label = if bin == HIST_BINS - 1 {
            format!(">={bin}")
        } else {
            format!("+{bin}")
        };
        let bar = (count as usize * width).div_ceil(peak as usize).min(width);
        let pct = count as f64 * 100.0 / total as f64;
        let _ = writeln!(
            out,
            "  {label:>4} |{:<width$}| {pct:>5.1}%",
            "#".repeat(if count > 0 { bar.max(1) } else { 0 }),
        );
    }
    out
}

/// Renders an [`fgnvm_obs::AuditLog`]'s per-gate block attribution as
/// ASCII bars: how many rejected issue candidates each bank gate
/// accounts for, over every audited decision. All gates are listed (zero
/// rows included) so runs are comparable line by line.
pub fn render_block_attribution(audit: &fgnvm_obs::AuditLog, width: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let total: u64 = audit.blocked.iter().sum();
    let _ = writeln!(
        out,
        "block attribution ({total} rejected candidates over {} decisions):",
        audit.issues
    );
    if total == 0 {
        out.push_str("  (nothing was blocked)\n");
        return out;
    }
    let peak = *audit.blocked.iter().max().expect("GATES > 0");
    for gate in fgnvm_obs::BlockGate::ALL {
        let count = audit.blocked[gate as usize];
        let bar = (count as usize * width).div_ceil(peak as usize).min(width);
        let pct = count as f64 * 100.0 / total as f64;
        let _ = writeln!(
            out,
            "  {:<12} |{:<width$}| {count:>10} {pct:>5.1}%",
            gate.label(),
            "#".repeat(if count > 0 { bar.max(1) } else { 0 }),
        );
    }
    out
}

/// Renders an [`fgnvm_obs::AuditLog`]'s missed-pair grid in the same
/// digit-scaled S×C style as [`render_heatmap`]: each cell counts how
/// often a legal co-issuable command targeting that (SAG, CD) tile was
/// left on the table, with per-SAG and per-CD margins.
pub fn render_missed_pairs(audit: &fgnvm_obs::AuditLog) -> String {
    use std::fmt::Write as _;
    let (sags, cds) = audit.dims();
    let peak = audit.missed_cells().iter().copied().max().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "missed co-issue pairs (SAG x CD), peak {peak} missed/cell:"
    );
    out.push_str("        ");
    for cd in 0..cds {
        let _ = write!(out, "{cd:>2}");
    }
    out.push('\n');
    let mut cd_totals = vec![0u64; cds as usize];
    for sag in 0..sags {
        let mut sag_total = 0u64;
        let _ = write!(out, "SAG {sag:>2} |");
        for cd in 0..cds {
            let c = audit.missed_cell(sag, cd);
            sag_total += c;
            cd_totals[cd as usize] += c;
            if c == 0 {
                out.push_str(" .");
            } else {
                let digit = (c * 9).div_ceil(peak.max(1)).min(9);
                let _ = write!(out, " {digit}");
            }
        }
        let _ = writeln!(out, " | {sag_total}");
    }
    out.push_str("CD totals:");
    for &total in &cd_totals {
        let _ = write!(out, " {total}");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod audit_viz_tests {
    use super::*;
    use fgnvm_obs::{AuditLog, IssueAudit};

    fn rec<'a>(co: u32, blocked: [u32; 5], missed: &'a [(u32, u32)]) -> IssueAudit<'a> {
        IssueAudit {
            channel: 0,
            bank: 0,
            at: 10,
            is_read: true,
            draining: false,
            sag: 0,
            cd: 0,
            considered: 1 + co + blocked.iter().sum::<u32>(),
            blocked,
            ready_peers: co,
            co_issuable: co,
            missed,
        }
    }

    #[test]
    fn opportunity_histogram_is_byte_exact() {
        let mut log = AuditLog::new(2, 2);
        log.record(&rec(0, [0; 5], &[]));
        log.record(&rec(0, [0; 5], &[]));
        log.record(&rec(1, [0; 5], &[(0, 1)]));
        log.record(&rec(2, [0; 5], &[(0, 1), (1, 0)]));
        let out = render_opportunity_histogram(&log, 10);
        let expected = "issuable parallelism (4 decisions, measured ceiling 1.75x):\n\
                        \x20   +0 |##########|  50.0%\n\
                        \x20   +1 |#####     |  25.0%\n\
                        \x20   +2 |#####     |  25.0%\n";
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_opportunity_histogram_says_so() {
        let log = AuditLog::new(2, 2);
        let out = render_opportunity_histogram(&log, 10);
        assert!(out.contains("(no decisions audited)"), "{out}");
        assert!(out.contains("ceiling 1.00x"), "{out}");
    }

    #[test]
    fn block_attribution_is_byte_exact() {
        let mut log = AuditLog::new(2, 2);
        log.record(&rec(0, [3, 1, 0, 0, 0], &[]));
        let out = render_block_attribution(&log, 12);
        let expected = "block attribution (4 rejected candidates over 1 decisions):\n\
                        \x20 bank-busy    |############|          3  75.0%\n\
                        \x20 sag-busy     |####        |          1  25.0%\n\
                        \x20 cd-busy      |            |          0   0.0%\n\
                        \x20 column-path  |            |          0   0.0%\n\
                        \x20 row-locked   |            |          0   0.0%\n";
        assert_eq!(out, expected);
    }

    #[test]
    fn nothing_blocked_says_so() {
        let log = AuditLog::new(2, 2);
        assert!(render_block_attribution(&log, 12).contains("(nothing was blocked)"));
    }

    #[test]
    fn missed_pairs_grid_is_byte_exact() {
        let mut log = AuditLog::new(2, 2);
        log.record(&rec(2, [0; 5], &[(0, 1), (0, 1)]));
        log.record(&rec(1, [0; 5], &[(1, 0)]));
        let out = render_missed_pairs(&log);
        let expected = "missed co-issue pairs (SAG x CD), peak 2 missed/cell:\n\
                        \x20        0 1\n\
                        SAG  0 | . 9 | 2\n\
                        SAG  1 | 5 . | 1\n\
                        CD totals: 1 2\n";
        assert_eq!(out, expected);
    }
}

/// Renders `values` as a one-line unicode sparkline (8 levels, scaled to
/// the maximum). Empty input renders as an empty string.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let peak = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|v| {
            if peak <= 0.0 || *v <= 0.0 {
                LEVELS[0]
            } else {
                let idx = ((v / peak) * 7.0).round() as usize;
                LEVELS[idx.min(7)]
            }
        })
        .collect()
}

/// Renders a [`fgnvm_obs::TimeSeries`] as a compact ASCII dashboard: one
/// sparkline per signal over the retained windows, with peaks annotated.
pub fn render_timeseries(ts: &fgnvm_obs::TimeSeries) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let windows: Vec<&fgnvm_obs::WindowAgg> = ts.windows().collect();
    let _ = writeln!(
        out,
        "continuous telemetry ({} cy windows, {} closed, {} retained):",
        ts.window_cycles(),
        ts.closed_total(),
        windows.len()
    );
    if windows.is_empty() {
        out.push_str("  (no closed windows yet)\n");
        return out;
    }
    let signals: [(&str, &str, Vec<f64>); 5] = [
        (
            "arrivals",
            "req/win",
            windows
                .iter()
                .map(|w| (w.arrivals_read + w.arrivals_write) as f64)
                .collect(),
        ),
        (
            "read p99",
            "cy",
            windows
                .iter()
                .map(|w| w.read_latency.percentile(0.99) as f64)
                .collect(),
        ),
        (
            "write p99",
            "cy",
            windows
                .iter()
                .map(|w| w.write_latency.percentile(0.99) as f64)
                .collect(),
        ),
        (
            "issues",
            "cmd/win",
            windows.iter().map(|w| w.issues as f64).collect(),
        ),
        (
            "queue",
            "req",
            windows
                .iter()
                .map(|w| (w.read_queue + w.write_queue) as f64)
                .collect(),
        ),
    ];
    for (name, unit, values) in &signals {
        let peak = values.iter().cloned().fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "  {name:>9} |{}| peak {peak:.0} {unit}",
            sparkline(values)
        );
    }
    // Dominant stall bucket over the retained span, as a quick diagnosis.
    let mut stall = [0u64; 10];
    for w in &windows {
        for (acc, c) in stall.iter_mut().zip(w.stall.iter()) {
            *acc += c;
        }
    }
    let total: u64 = stall.iter().sum();
    if total > 0 {
        let mut ranked: Vec<(fgnvm_obs::StallCause, u64)> = fgnvm_obs::StallCause::ALL
            .iter()
            .map(|c| (*c, stall[*c as usize]))
            .collect();
        ranked.sort_by_key(|(c, cycles)| (std::cmp::Reverse(*cycles), *c as usize));
        out.push_str("  stall mix:");
        for (cause, cycles) in ranked.iter().take(3).filter(|(_, cy)| *cy > 0) {
            let _ = write!(
                out,
                " {} {:.0}%",
                cause.label(),
                *cycles as f64 * 100.0 / total as f64
            );
        }
        out.push('\n');
    }
    out
}

/// Renders a [`fgnvm_obs::FlightRecorder`] as a readable post-mortem
/// timeline, oldest event first.
pub fn render_flight(flight: &fgnvm_obs::FlightRecorder) -> String {
    use fgnvm_obs::FlightEvent;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: last {} of {} events (capacity {}):",
        flight.len(),
        flight.total(),
        flight.capacity()
    );
    if flight.is_empty() {
        out.push_str("  (no events recorded)\n");
        return out;
    }
    for event in flight.events() {
        let _ = match *event {
            FlightEvent::Issue {
                at,
                id,
                channel,
                bank,
                kind,
                is_read,
                sag,
                cd,
                retries,
            } => writeln!(
                out,
                "  {at:>12} issue  id {id:<6} ch{channel} bank{bank} {} {} sag{sag} cd{cd}{}",
                fgnvm_obs::flight::KIND_LABELS[usize::from(kind).min(4)],
                if is_read { "read" } else { "write" },
                if retries > 0 {
                    format!(" retries {retries}")
                } else {
                    String::new()
                }
            ),
            FlightEvent::Block {
                at,
                id,
                cause,
                cycles,
            } => writeln!(
                out,
                "  {at:>12} block  id {id:<6} {} for {cycles} cy",
                cause.label()
            ),
            FlightEvent::Retry { at, channel, bank } => writeln!(
                out,
                "  {at:>12} retry  ch{channel} bank{bank} write re-issued"
            ),
            FlightEvent::Fault {
                at,
                kind,
                channel,
                bank,
            } => writeln!(
                out,
                "  {at:>12} fault  ch{channel} bank{bank} {}",
                kind.label()
            ),
        };
    }
    out
}

#[cfg(test)]
mod telemetry_viz_tests {
    use super::*;
    use fgnvm_obs::{FlightEvent, FlightRecorder, StallCause, TimeSeries};

    #[test]
    fn sparkline_scales_to_the_peak() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '\u{2581}');
        assert_eq!(chars[3], '\u{2588}');
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn timeseries_dashboard_lists_every_signal() {
        let mut ts = TimeSeries::new(100, 8);
        let mut stall = [0u64; 10];
        stall[StallCause::WriteBlock as usize] = 40;
        ts.record_arrival(true, 0, 10);
        ts.record_completion(true, 0, 44, &stall, 50);
        ts.record_issue(12);
        ts.roll_to(300);
        let out = render_timeseries(&ts);
        for signal in ["arrivals", "read p99", "write p99", "issues", "queue"] {
            assert!(out.contains(signal), "{signal} missing:\n{out}");
        }
        assert!(out.contains("stall mix: write-block 100%"), "{out}");
    }

    #[test]
    fn empty_timeseries_says_so() {
        let ts = TimeSeries::new(100, 8);
        assert!(render_timeseries(&ts).contains("no closed windows"));
    }

    #[test]
    fn flight_timeline_covers_every_event_type() {
        let mut f = FlightRecorder::new(8);
        f.push(FlightEvent::Issue {
            at: 10,
            id: 1,
            channel: 0,
            bank: 2,
            kind: 1,
            is_read: true,
            sag: 3,
            cd: 0,
            retries: 2,
        });
        f.push(FlightEvent::Block {
            at: 14,
            id: 2,
            cause: StallCause::SagConflict,
            cycles: 9,
        });
        f.push(FlightEvent::Retry {
            at: 20,
            channel: 1,
            bank: 0,
        });
        f.push(FlightEvent::Fault {
            at: 30,
            kind: fgnvm_obs::InstantKind::Watchdog,
            channel: 0,
            bank: 0,
        });
        let out = render_flight(&f);
        assert!(out.contains("issue  id 1"), "{out}");
        assert!(out.contains("activate read sag3 cd0 retries 2"), "{out}");
        assert!(out.contains("sag-conflict for 9 cy"), "{out}");
        assert!(out.contains("write re-issued"), "{out}");
        assert!(out.contains("watchdog"), "{out}");
        assert!(render_flight(&FlightRecorder::new(4)).contains("no events"));
    }
}
