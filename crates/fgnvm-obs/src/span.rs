//! Per-request lifecycle spans and latency-breakdown decomposition.
//!
//! Every request is tracked from arrival to completion and its total
//! latency is split into five exact, additive components:
//!
//! | component | interval | meaning |
//! |---|---|---|
//! | `queue` | arrival → first issue | waiting in the read/write queue |
//! | `retry` | first issue → last issue | re-issues (verify-budget exhaustion) |
//! | `bank`  | last issue → data start | array access (activate/sense/write) |
//! | `bus`   | data start → data end | data burst on the channel |
//! | `tail`  | data end → completion | post-burst work (ECC decode, verify lock) |
//!
//! `queue + retry + bank + bus + tail == total` for every request. Requests
//! that never reach the array (store-to-load forwarded reads, coalesced
//! writes) complete with their whole — usually zero — latency in `queue`.
//!
//! The per-request marks ride the [`Attribution`](crate::Attribution)
//! tracker's open record, which already sees every lifecycle hook; this
//! module only folds finished lifecycles.

use crate::hist::Log2Hist;

/// Per-component latency histograms for one operation class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Arrival → first command issue.
    pub queue: Log2Hist,
    /// First issue → last issue (zero unless the write was re-issued).
    pub retry: Log2Hist,
    /// Last issue → first data beat.
    pub bank: Log2Hist,
    /// Data burst occupancy.
    pub bus: Log2Hist,
    /// Last data beat → completion (ECC decode, write-verify lock).
    pub tail: Log2Hist,
    /// Whole-lifetime latency.
    pub total: Log2Hist,
}

impl LatencyBreakdown {
    /// Serializes all six histograms as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"queue\":{},\"retry\":{},\"bank\":{},\"bus\":{},\"tail\":{},\"total\":{}}}",
            self.queue.to_json(),
            self.retry.to_json(),
            self.bank.to_json(),
            self.bus.to_json(),
            self.tail.to_json(),
            self.total.to_json()
        )
    }
}

/// One request's command-issue marks. The attribution tracker keeps them
/// in its open record, so a request costs one map entry, not one per sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IssueMarks {
    /// Cycle of the first command issue.
    pub(crate) first: u64,
    /// Cycle of the latest command issue.
    pub(crate) last: u64,
    /// First burst cycle of the latest issue.
    pub(crate) data_start: u64,
    /// One past the last burst cycle of the latest issue.
    pub(crate) data_end: u64,
}

/// Read/write [`LatencyBreakdown`]s over completed requests. Holds no
/// per-request state: the attribution tracker passes each request's issue
/// marks in.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Breakdown over completed reads.
    pub reads: LatencyBreakdown,
    /// Breakdown over completed writes.
    pub writes: LatencyBreakdown,
    /// Spans closed so far.
    pub completed: u64,
    /// Completed requests that never issued a command (forwarded reads,
    /// coalesced writes).
    pub never_issued: u64,
    /// Command issues beyond the first for some request (write re-issues).
    pub reissues: u64,
}

impl Spans {
    /// Notes a command issued at `at`, bursting over
    /// `data_start..data_end`, in a request's `marks`; `first` says whether
    /// it is the request's first issue.
    pub(crate) fn on_issue(
        &mut self,
        marks: &mut IssueMarks,
        first: bool,
        at: u64,
        data_start: u64,
        data_end: u64,
    ) {
        if first {
            marks.first = at;
        } else {
            self.reissues += 1;
        }
        marks.last = at;
        marks.data_start = data_start;
        marks.data_end = data_end;
    }

    /// Decomposes and records a request that arrived at `arrival` and
    /// completed at `now`; `marks` is `None` when it never issued.
    pub(crate) fn record(
        &mut self,
        is_read: bool,
        arrival: u64,
        marks: Option<&IssueMarks>,
        now: u64,
    ) {
        self.completed += 1;
        let total = now.saturating_sub(arrival);
        let breakdown = if is_read {
            &mut self.reads
        } else {
            &mut self.writes
        };
        match marks {
            None => {
                // Never reached the array: the whole lifetime is queueing.
                self.never_issued += 1;
                breakdown.queue.record(total);
                breakdown.retry.record(0);
                breakdown.bank.record(0);
                breakdown.bus.record(0);
                breakdown.tail.record(0);
            }
            Some(m) => {
                breakdown.queue.record(m.first.saturating_sub(arrival));
                breakdown.retry.record(m.last.saturating_sub(m.first));
                breakdown.bank.record(m.data_start.saturating_sub(m.last));
                breakdown
                    .bus
                    .record(m.data_end.saturating_sub(m.data_start));
                breakdown.tail.record(now.saturating_sub(m.data_end));
            }
        }
        breakdown.total.record(total);
    }

    /// Serialize the counters and both breakdowns into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("spans");
        w.u64(self.completed);
        w.u64(self.never_issued);
        w.u64(self.reissues);
        for breakdown in [&self.reads, &self.writes] {
            breakdown.queue.save_state(w);
            breakdown.retry.save_state(w);
            breakdown.bank.save_state(w);
            breakdown.bus.save_state(w);
            breakdown.tail.save_state(w);
            breakdown.total.save_state(w);
        }
    }

    /// Restore state written by [`Spans::save_state`] into this value,
    /// replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("spans")?;
        self.completed = r.u64()?;
        self.never_issued = r.u64()?;
        self.reissues = r.u64()?;
        for breakdown in [&mut self.reads, &mut self.writes] {
            breakdown.queue = Log2Hist::load_state(r)?;
            breakdown.retry = Log2Hist::load_state(r)?;
            breakdown.bank = Log2Hist::load_state(r)?;
            breakdown.bus = Log2Hist::load_state(r)?;
            breakdown.tail = Log2Hist::load_state(r)?;
            breakdown.total = Log2Hist::load_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays one request's issues through `on_issue` and records it.
    fn span(t: &mut Spans, is_read: bool, arrival: u64, issues: &[(u64, u64, u64)], now: u64) {
        let mut marks = IssueMarks::default();
        for (i, &(at, start, end)) in issues.iter().enumerate() {
            t.on_issue(&mut marks, i == 0, at, start, end);
        }
        t.record(
            is_read,
            arrival,
            (!issues.is_empty()).then_some(&marks),
            now,
        );
    }

    #[test]
    fn components_sum_to_total() {
        let mut t = Spans::default();
        span(&mut t, true, 100, &[(130, 160, 168)], 172);
        let r = &t.reads;
        assert_eq!(r.queue.sum(), 30);
        assert_eq!(r.retry.sum(), 0);
        assert_eq!(r.bank.sum(), 30);
        assert_eq!(r.bus.sum(), 8);
        assert_eq!(r.tail.sum(), 4);
        assert_eq!(r.total.sum(), 72);
        assert_eq!(
            r.queue.sum() + r.retry.sum() + r.bank.sum() + r.bus.sum() + r.tail.sum(),
            r.total.sum()
        );
    }

    #[test]
    fn reissue_lands_in_retry() {
        let mut t = Spans::default();
        // Re-issued after a verify failure.
        span(&mut t, false, 0, &[(10, 15, 20), (50, 55, 60)], 80);
        assert_eq!(t.reissues, 1);
        let w = &t.writes;
        assert_eq!(w.queue.sum(), 10);
        assert_eq!(w.retry.sum(), 40);
        assert_eq!(w.bank.sum(), 5);
        assert_eq!(w.bus.sum(), 5);
        assert_eq!(w.tail.sum(), 20);
        assert_eq!(w.total.sum(), 80);
    }

    #[test]
    fn forwarded_request_is_pure_queueing() {
        let mut t = Spans::default();
        span(&mut t, true, 42, &[], 42); // store-to-load forwarded, same cycle
        assert_eq!(t.never_issued, 1);
        assert_eq!(t.reads.queue.count(), 1);
        assert_eq!(t.reads.queue.sum(), 0);
        assert_eq!(t.reads.total.counts()[0], 1); // exercises bucket 0
    }

    #[test]
    fn unknown_completion_is_ignored() {
        // Spans fold from the attribution tracker's open records, so hooks
        // for an id that never arrived record nothing.
        let mut a = crate::Attribution::new(crate::AttributionParams::bare(1, 1));
        a.on_completed(99, 10);
        a.on_command(&crate::CommandIssue {
            channel: 0,
            bank: 0,
            id: 99,
            is_read: true,
            kind: "activate",
            arrival: 0,
            at: 5,
            earliest_data: 6,
            data_start: 6,
            data_end: 7,
            completion: 7,
            row: 0,
            sag: 0,
            cd: 0,
            cd_count: 1,
            retries: 0,
        });
        assert_eq!((a.spans.completed, a.spans.reissues), (0, 0));
        assert_eq!(a.open_count(), 0);
    }
}
