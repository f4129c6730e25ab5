//! Scheduler decision-audit layer: per-issue decision records and the
//! measured parallelism-opportunity ceiling.
//!
//! Every time the controller commits a command it can (when auditing is
//! enabled) probe the *rest* of its request queues against the live bank
//! state and report the full decision context as one [`IssueAudit`]
//! record: how many candidates were on the table, which gate blocked each
//! rejected one, how many were ready, and — the headline number — how
//! many additional *legal rook-compatible* commands could have been
//! co-issued alongside the chosen one that same cycle. The paper's 2D
//! bank-subdivision claim is exactly that this number is large under
//! FRFCFS; the [`AuditLog`] aggregates it into a per-decision issuable
//! -parallelism histogram, per-gate block-attribution counters, a missed
//! -pair SAG×CD heatmap overlay, and a measured opportunity ceiling that
//! sits beside the Amdahl-style [`what_if`](crate::what_if) bounds.
//!
//! Determinism contract: records are keyed to actual command issues.
//! Issues happen at identical cycles with identical queue and bank state
//! under cycle stepping and event-driven fast-forward (the elision path
//! skips only provably-dead cycles), so the audit stream is bit-identical
//! across stepping modes by construction — and trivially, the measured
//! opportunity is zero whenever the queues hold nothing but the chosen
//! command.

use crate::json;

/// Number of distinct blocking gates ([`BlockGate::ALL`]).
pub const GATES: usize = 5;

/// Histogram bins for per-decision co-issuable counts; the last bin
/// absorbs everything ≥ `HIST_BINS - 1`.
pub const HIST_BINS: usize = 9;

/// The gate that blocked a rejected issue candidate. Mirrors the bank
/// model's `BlockReason` without depending on it: the controller maps
/// each rejection into this taxonomy at probe time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockGate {
    /// The whole bank (or a conflicting tile span) is busy.
    BankBusy,
    /// The target subarray group is occupied.
    SagBusy,
    /// A needed column division is occupied.
    CdBusy,
    /// The shared column path is serialized (Multi-Issue width exhausted).
    ColumnPath,
    /// The target row is write-locked.
    RowLocked,
}

impl BlockGate {
    /// Every gate, in counter-index order.
    pub const ALL: [BlockGate; GATES] = [
        BlockGate::BankBusy,
        BlockGate::SagBusy,
        BlockGate::CdBusy,
        BlockGate::ColumnPath,
        BlockGate::RowLocked,
    ];

    /// Stable display label (JSON keys, ASCII rows, trace instants).
    pub fn label(self) -> &'static str {
        match self {
            BlockGate::BankBusy => "bank-busy",
            BlockGate::SagBusy => "sag-busy",
            BlockGate::CdBusy => "cd-busy",
            BlockGate::ColumnPath => "column-path",
            BlockGate::RowLocked => "row-locked",
        }
    }
}

/// One scheduler decision: the command that issued, the candidate field
/// it was chosen from, and the co-issue opportunity left behind.
#[derive(Debug, Clone, Copy)]
pub struct IssueAudit<'a> {
    /// Channel the decision was made on.
    pub channel: u32,
    /// Bank the chosen command targets.
    pub bank: u32,
    /// Cycle the command issued.
    pub at: u64,
    /// True when the chosen command is a read.
    pub is_read: bool,
    /// True when the channel was in write-drain mode (the "why" of a
    /// write pick under FRFCFS-with-drain).
    pub draining: bool,
    /// Chosen command's subarray group.
    pub sag: u32,
    /// Chosen command's first column division.
    pub cd: u32,
    /// Queue entries considered at decision time, across both queues,
    /// including the chosen one.
    pub considered: u32,
    /// Rejected candidates per blocking gate, indexed by [`BlockGate`].
    pub blocked: [u32; GATES],
    /// Non-chosen candidates whose bank plan was clear this cycle.
    pub ready_peers: u32,
    /// Ready peers that are also rook-compatible with the chosen command
    /// (and each other): the measured co-issue opportunity this cycle.
    pub co_issuable: u32,
    /// `(sag, cd)` of each counted co-issuable peer — the missed pairs
    /// the SAG×CD overlay accumulates. Length equals `co_issuable`.
    pub missed: &'a [(u32, u32)],
}

/// Aggregated audit state: everything the surfacing layers (viz, JSON,
/// Prometheus, `what_if` side-by-side) read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditLog {
    sags: u32,
    cds: u32,
    /// Decision records folded (== commands issued while auditing).
    pub issues: u64,
    /// Issued reads.
    pub issues_read: u64,
    /// Issued writes.
    pub issues_write: u64,
    /// Sum of `considered` over all records.
    pub considered_total: u64,
    /// Sum of `ready_peers` over all records.
    pub ready_total: u64,
    /// Sum of `co_issuable` over all records: the total measured co-issue
    /// opportunity FRFCFS left on the table.
    pub opportunity_total: u64,
    /// Rejected candidates per gate, summed over all records.
    pub blocked: [u64; GATES],
    /// Per-decision issuable-parallelism histogram: bin `k` counts
    /// decisions with `min(co_issuable, HIST_BINS-1) == k`.
    pub parallelism_hist: [u64; HIST_BINS],
    /// Decisions made with an otherwise-empty queue (`considered == 1`).
    pub solo_decisions: u64,
    /// Conservation violations: records claiming co-issue opportunity
    /// with no other candidate on the table. Must stay zero.
    pub empty_queue_opportunity: u64,
    /// SAG×CD grid (row-major, `sags × cds`) of missed co-issue pairs.
    missed: Vec<u64>,
}

impl AuditLog {
    /// An empty log for banks subdivided into `sags` × `cds` tiles.
    pub fn new(sags: u32, cds: u32) -> Self {
        let sags = sags.max(1);
        let cds = cds.max(1);
        AuditLog {
            sags,
            cds,
            issues: 0,
            issues_read: 0,
            issues_write: 0,
            considered_total: 0,
            ready_total: 0,
            opportunity_total: 0,
            blocked: [0; GATES],
            parallelism_hist: [0; HIST_BINS],
            solo_decisions: 0,
            empty_queue_opportunity: 0,
            missed: vec![0; sags as usize * cds as usize],
        }
    }

    /// The `(sags, cds)` grid dimensions.
    pub fn dims(&self) -> (u32, u32) {
        (self.sags, self.cds)
    }

    /// Missed-pair count for one tile.
    pub fn missed_cell(&self, sag: u32, cd: u32) -> u64 {
        self.missed[(sag % self.sags) as usize * self.cds as usize + (cd % self.cds) as usize]
    }

    /// The full missed-pair grid, row-major by SAG.
    pub fn missed_cells(&self) -> &[u64] {
        &self.missed
    }

    /// Folds one decision record.
    pub fn record(&mut self, rec: &IssueAudit<'_>) {
        self.issues += 1;
        if rec.is_read {
            self.issues_read += 1;
        } else {
            self.issues_write += 1;
        }
        self.considered_total += u64::from(rec.considered);
        self.ready_total += u64::from(rec.ready_peers);
        self.opportunity_total += u64::from(rec.co_issuable);
        for (acc, b) in self.blocked.iter_mut().zip(rec.blocked.iter()) {
            *acc += u64::from(*b);
        }
        let bin = (rec.co_issuable as usize).min(HIST_BINS - 1);
        self.parallelism_hist[bin] += 1;
        if rec.considered <= 1 {
            self.solo_decisions += 1;
            if rec.co_issuable > 0 {
                self.empty_queue_opportunity += 1;
            }
        }
        for (sag, cd) in rec.missed {
            let idx = (sag % self.sags) as usize * self.cds as usize + (cd % self.cds) as usize;
            self.missed[idx] += 1;
        }
    }

    /// The gate with the most rejected candidates in one record, if any
    /// candidate was rejected at all (trace instants name it).
    pub fn dominant_gate(rec: &IssueAudit<'_>) -> Option<BlockGate> {
        let (idx, max) = rec
            .blocked
            .iter()
            .enumerate()
            .max_by_key(|(i, c)| (**c, GATES - i))?;
        if *max == 0 {
            None
        } else {
            Some(BlockGate::ALL[idx])
        }
    }

    /// Measured opportunity ceiling on issue throughput: how many times
    /// more commands could have issued had every measured co-issue slot
    /// been taken. 1.0 when nothing issued (or nothing was missed).
    pub fn opportunity_ceiling(&self) -> f64 {
        if self.issues == 0 {
            1.0
        } else {
            (self.issues + self.opportunity_total) as f64 / self.issues as f64
        }
    }

    /// Realized issue rate in commands per cycle over `cycles` (0 → 0.0).
    pub fn realized_issue_rate(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.issues as f64 / cycles as f64
        }
    }

    /// Serializes the full aggregate as one JSON object.
    pub fn to_json(&self) -> String {
        let blocked: Vec<String> = BlockGate::ALL
            .iter()
            .map(|g| format!("{}:{}", json::quote(g.label()), self.blocked[*g as usize]))
            .collect();
        let hist: Vec<String> = self.parallelism_hist.iter().map(u64::to_string).collect();
        let missed: Vec<String> = (0..self.sags)
            .map(|s| {
                let row: Vec<String> = (0..self.cds)
                    .map(|c| self.missed_cell(s, c).to_string())
                    .collect();
                format!("[{}]", row.join(","))
            })
            .collect();
        format!(
            "{{\"sags\":{},\"cds\":{},\"issues\":{},\"issues_read\":{},\
             \"issues_write\":{},\"considered\":{},\"ready\":{},\
             \"opportunity\":{},\"opportunity_ceiling\":{},\
             \"solo_decisions\":{},\"blocked\":{{{}}},\
             \"parallelism_hist\":[{}],\"missed\":[{}]}}",
            self.sags,
            self.cds,
            self.issues,
            self.issues_read,
            self.issues_write,
            self.considered_total,
            self.ready_total,
            self.opportunity_total,
            json::number(self.opportunity_ceiling()),
            self.solo_decisions,
            blocked.join(","),
            hist.join(","),
            missed.join(",")
        )
    }

    /// Serialize the full log (grid dimensions included, so a restore can
    /// check them) into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("audit");
        w.u32(self.sags);
        w.u32(self.cds);
        w.u64(self.issues);
        w.u64(self.issues_read);
        w.u64(self.issues_write);
        w.u64(self.considered_total);
        w.u64(self.ready_total);
        w.u64(self.opportunity_total);
        for c in &self.blocked {
            w.u64(*c);
        }
        for c in &self.parallelism_hist {
            w.u64(*c);
        }
        w.u64(self.solo_decisions);
        w.u64(self.empty_queue_opportunity);
        for c in &self.missed {
            w.u64(*c);
        }
    }

    /// Restore a log written by [`AuditLog::save_state`] into this one,
    /// replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream, or when the checkpoint's grid
    /// dimensions disagree with this log's.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("audit")?;
        let dims = (r.u32()?, r.u32()?);
        if dims != self.dims() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint audit grid is {}x{}, observer grid is {}x{}",
                dims.0, dims.1, self.sags, self.cds
            )));
        }
        self.issues = r.u64()?;
        self.issues_read = r.u64()?;
        self.issues_write = r.u64()?;
        self.considered_total = r.u64()?;
        self.ready_total = r.u64()?;
        self.opportunity_total = r.u64()?;
        for c in &mut self.blocked {
            *c = r.u64()?;
        }
        for c in &mut self.parallelism_hist {
            *c = r.u64()?;
        }
        self.solo_decisions = r.u64()?;
        self.empty_queue_opportunity = r.u64()?;
        for c in &mut self.missed {
            *c = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec<'a>(co: u32, considered: u32, missed: &'a [(u32, u32)]) -> IssueAudit<'a> {
        IssueAudit {
            channel: 0,
            bank: 0,
            at: 100,
            is_read: true,
            draining: false,
            sag: 0,
            cd: 0,
            considered,
            blocked: [1, 0, 2, 0, 0],
            ready_peers: co,
            co_issuable: co,
            missed,
        }
    }

    #[test]
    fn records_fold_into_every_aggregate() {
        let mut log = AuditLog::new(4, 2);
        log.record(&rec(2, 6, &[(1, 0), (2, 1)]));
        log.record(&rec(0, 4, &[]));
        assert_eq!(log.issues, 2);
        assert_eq!(log.issues_read, 2);
        assert_eq!(log.opportunity_total, 2);
        assert_eq!(log.considered_total, 10);
        assert_eq!(log.blocked, [2, 0, 4, 0, 0]);
        assert_eq!(log.parallelism_hist[2], 1);
        assert_eq!(log.parallelism_hist[0], 1);
        assert_eq!(log.missed_cell(1, 0), 1);
        assert_eq!(log.missed_cell(2, 1), 1);
        assert_eq!(log.missed_cells().iter().sum::<u64>(), 2);
        assert!((log.opportunity_ceiling() - 2.0).abs() < 1e-12);
        assert!((log.realized_issue_rate(200) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn solo_decision_with_opportunity_is_a_violation() {
        let mut log = AuditLog::new(2, 2);
        log.record(&rec(0, 1, &[]));
        assert_eq!(log.solo_decisions, 1);
        assert_eq!(log.empty_queue_opportunity, 0);
        log.record(&rec(1, 1, &[(0, 0)]));
        assert_eq!(log.empty_queue_opportunity, 1);
    }

    #[test]
    fn histogram_clamps_to_the_last_bin() {
        let mut log = AuditLog::new(2, 2);
        let missed: Vec<(u32, u32)> = (0..20).map(|i| (i % 2, i % 2)).collect();
        log.record(&rec(20, 30, &missed));
        assert_eq!(log.parallelism_hist[HIST_BINS - 1], 1);
        assert_eq!(log.opportunity_total, 20);
    }

    #[test]
    fn dominant_gate_prefers_the_biggest_count() {
        let mut r = rec(0, 4, &[]);
        assert_eq!(AuditLog::dominant_gate(&r), Some(BlockGate::CdBusy));
        r.blocked = [0; GATES];
        assert_eq!(AuditLog::dominant_gate(&r), None);
        r.blocked = [3, 3, 0, 0, 0];
        assert_eq!(AuditLog::dominant_gate(&r), Some(BlockGate::BankBusy));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut log = AuditLog::new(8, 2);
        log.record(&rec(3, 9, &[(1, 0), (3, 1), (5, 0)]));
        log.record(&rec(0, 2, &[]));
        let mut w = fgnvm_types::SnapshotWriter::new();
        log.save_state(&mut w);
        let bytes = w.finish();
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        let mut restored = AuditLog::new(8, 2);
        restored.load_state(&mut r).expect("decodes");
        assert_eq!(restored, log);
        // A log over another grid refuses the section before sizing it.
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        assert!(matches!(
            AuditLog::new(4, 2).load_state(&mut r),
            Err(fgnvm_types::SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut log = AuditLog::new(2, 2);
        log.record(&rec(1, 3, &[(1, 1)]));
        let doc = log.to_json();
        assert!(doc.starts_with("{\"sags\":2,\"cds\":2,\"issues\":1,"));
        assert!(doc.contains("\"blocked\":{\"bank-busy\":1,"));
        assert!(doc.contains("\"parallelism_hist\":[0,1,0,0,0,0,0,0,0]"));
        assert!(doc.contains("\"missed\":[[0,0],[0,1]]"));
        assert!(doc.contains("\"opportunity_ceiling\":2"));
    }
}
