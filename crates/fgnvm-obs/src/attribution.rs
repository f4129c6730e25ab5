//! Bottleneck attribution: an exact stall-cycle decomposition per request.
//!
//! Every cycle of every completed request's lifetime is classified into
//! exactly one bucket of an exhaustive stall taxonomy ([`StallCause`]):
//!
//! | bucket | meaning |
//! |---|---|
//! | `queue-wait` | queued but no modeled resource blocked it (scheduler order, issue-width, drain policy) |
//! | `sag-conflict` | an earlier access held the target subarray group (per-SAG single open row / rook rule) |
//! | `cd-conflict` | an earlier access held an overlapping column division's sense path |
//! | `global-io` | the shared global I/O bus (or rank turnaround) delayed the data burst |
//! | `tfaw-window` | a DRAM rank's four-activation window gated the issue |
//! | `write-block` | a write's programming occupancy blocked the access |
//! | `verify-retry` | write verify-retry extension: on-die `k·tWP` retries plus controller re-issues |
//! | `underfetch-resense` | the extra `tRCD` sensing a column slice the open row never fetched |
//! | `ctrl-overhead` | controller-side work: ECC decode tail, forwarding/merge handling |
//! | `service` | intrinsic device service: sense, burst, programming |
//!
//! The decomposition is a *partition* of `[arrival, completion)` — buckets
//! sum **exactly** to the end-to-end latency, by construction, for every
//! request. The tracker checks it as each record folds, keeping tallies of
//! offenders rather than records, and `fgnvm-check` fails a run on any
//! offense and cross-checks the totals against the controller's latency
//! counters. The same open record carries the issue marks the
//! five-component [`Spans`] breakdown is folded from, so a request costs
//! one map entry.
//!
//! Attribution is computed purely from the lifecycle hooks
//! (`on_enqueued` / `on_command` / `on_completed`), which fire identically
//! under cycle stepping and event-driven fast-forward — so attribution
//! output is bit-identical across stepping modes, like every other
//! observer artifact. Pre-issue waits are classified by replaying the
//! per-bank command history analytically (resource windows plus a
//! reconstructed tFAW schedule), never by probing per-cycle state.

use fgnvm_types::IntMap;

use crate::json::number;
use crate::span::{IssueMarks, Spans};
use crate::{CommandIssue, InstantKind};

/// Number of taxonomy buckets.
pub const BUCKETS: usize = 10;

/// The exhaustive stall taxonomy. Every attributed cycle lands in exactly
/// one of these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Queued with no modeled resource blocking (scheduler order,
    /// commands-per-cycle limit, drain policy).
    QueueWait = 0,
    /// Target subarray group held by an earlier access (per-SAG single
    /// open row; the rook-placement rule's row axis).
    SagConflict = 1,
    /// Overlapping column division's sense/IO path held by an earlier
    /// access (the rook-placement rule's column axis).
    CdConflict = 2,
    /// Shared global I/O serialization: bus busy or rank-to-rank
    /// turnaround pushed the data burst later than the bank allowed.
    GlobalIo = 3,
    /// DRAM four-activation window (tFAW) gated the issue.
    TfawWindow = 4,
    /// A write's programming occupancy blocked the access.
    WriteBlock = 5,
    /// Write verify-retry extension: on-die retries (`k·tWP`) plus
    /// controller-level re-issues after verify-budget exhaustion.
    VerifyRetry = 6,
    /// Extra `tRCD` re-sensing a column slice the open row never fetched
    /// (the paper's underfetch case).
    UnderfetchResense = 7,
    /// Controller-side overhead: ECC decode tail, forward/merge handling.
    CtrlOverhead = 8,
    /// Intrinsic device service: sensing, data burst, cell programming.
    Service = 9,
}

impl StallCause {
    /// Every bucket, in canonical (JSON/report) order.
    pub const ALL: [StallCause; BUCKETS] = [
        StallCause::QueueWait,
        StallCause::SagConflict,
        StallCause::CdConflict,
        StallCause::GlobalIo,
        StallCause::TfawWindow,
        StallCause::WriteBlock,
        StallCause::VerifyRetry,
        StallCause::UnderfetchResense,
        StallCause::CtrlOverhead,
        StallCause::Service,
    ];

    /// Stable display label, used in JSON documents and report tables.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::QueueWait => "queue-wait",
            StallCause::SagConflict => "sag-conflict",
            StallCause::CdConflict => "cd-conflict",
            StallCause::GlobalIo => "global-io",
            StallCause::TfawWindow => "tfaw-window",
            StallCause::WriteBlock => "write-block",
            StallCause::VerifyRetry => "verify-retry",
            StallCause::UnderfetchResense => "underfetch-resense",
            StallCause::CtrlOverhead => "ctrl-overhead",
            StallCause::Service => "service",
        }
    }
}

/// Maps a discrete instant to the bucket its latency cost lands in.
///
/// The match is exhaustive on purpose (no `_` arm): adding an
/// [`InstantKind`] without deciding its attribution is a compile error.
pub fn classify_instant(kind: InstantKind) -> StallCause {
    match kind {
        InstantKind::EccCorrected => StallCause::CtrlOverhead,
        InstantKind::EccUncorrectable => StallCause::CtrlOverhead,
        InstantKind::WriteReissue => StallCause::VerifyRetry,
        InstantKind::Remap => StallCause::CtrlOverhead,
        InstantKind::Watchdog => StallCause::QueueWait,
        // Wear-out escalation events are controller bookkeeping: retiring a
        // row, flipping a bank read-only, and declaring capacity exhaustion
        // all happen on the controller side of the command path.
        InstantKind::RowRetired => StallCause::CtrlOverhead,
        InstantKind::BankReadOnly => StallCause::CtrlOverhead,
        InstantKind::CapacityExhausted => StallCause::CtrlOverhead,
    }
}

/// Maps a command plan-kind label to the bucket its *intrinsic* pre-burst
/// time (issue → earliest data) lands in. Returns `None` for labels the
/// taxonomy does not know — the observer counts those as unclassified and
/// the `fgnvm-check` invariant fails the run, so a new command kind cannot
/// ship silently unattributed.
pub fn classify_command(label: &str) -> Option<StallCause> {
    match label {
        "row-hit" => Some(StallCause::Service),
        "activate" => Some(StallCause::Service),
        "underfetch" => Some(StallCause::UnderfetchResense),
        "write" => Some(StallCause::Service),
        _ => None,
    }
}

/// Static model facts the classifier needs, derived from the system
/// configuration when the observer is attached to a memory system.
#[derive(Debug, Clone, Copy)]
pub struct AttributionParams {
    /// Subarray groups per bank.
    pub sags: u32,
    /// Column divisions per bank.
    pub cds: u32,
    /// The bank serializes all accesses (baseline/DRAM, or Multi-Activation
    /// disabled): any in-flight access conflicts regardless of tile.
    pub serialized: bool,
    /// Sensing always fetches the whole row (Partial-Activation disabled):
    /// a read's sense spans every column division.
    pub full_row_sense: bool,
    /// A programming write occupies the whole bank (Backgrounded Writes
    /// disabled).
    pub write_blocks_bank: bool,
    /// Activate-to-data delay, used to carve the underfetch re-sense cost.
    pub t_rcd: u64,
    /// Per-attempt write programming time, used to size verify-retry
    /// extensions.
    pub t_wp: u64,
    /// Rolling four-activation window (DRAM only).
    pub t_faw: Option<u64>,
    /// Banks per rank, for mapping bank index → rank.
    pub banks_per_rank: u32,
}

impl AttributionParams {
    /// Conservative defaults for observers built without a configuration:
    /// tile-level conflicts only, no tFAW, no timing carve-outs.
    pub fn bare(sags: u32, cds: u32) -> Self {
        AttributionParams {
            sags,
            cds,
            serialized: false,
            full_row_sense: false,
            write_blocks_bank: false,
            t_rcd: 0,
            t_wp: 0,
            t_faw: None,
            banks_per_rank: 1,
        }
    }
}

/// One completed request's attributed lifetime.
#[derive(Debug, Clone, Copy)]
pub struct RequestAttribution {
    /// Request id.
    pub id: u64,
    /// True for reads.
    pub is_read: bool,
    /// Tenant the request belonged to (0 for untagged traffic).
    pub tenant: u16,
    /// Arrival cycle.
    pub arrival: u64,
    /// Completion cycle.
    pub completion: u64,
    /// Cycles attributed per bucket, indexed by [`StallCause`] as usize.
    pub cycles: [u64; BUCKETS],
}

impl RequestAttribution {
    /// Sum of all attributed cycles. The conservation invariant demands
    /// this equals `completion - arrival` exactly.
    pub fn attributed(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Aggregated attribution for one operation class (reads or writes).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassTotals {
    /// Completed requests folded in.
    pub count: u64,
    /// Total end-to-end cycles across those requests.
    pub total: u64,
    /// Cycles per bucket, summed over requests.
    pub cycles: [u64; BUCKETS],
    /// Requests whose largest bucket was this one (the per-request
    /// critical path).
    pub dominant: [u64; BUCKETS],
}

impl ClassTotals {
    fn fold(&mut self, r: &RequestAttribution) {
        self.count += 1;
        self.total += r.completion.saturating_sub(r.arrival);
        let mut best = 0usize;
        for (i, c) in r.cycles.iter().enumerate() {
            self.cycles[i] += c;
            if *c > r.cycles[best] {
                best = i;
            }
        }
        self.dominant[best] += 1;
    }

    /// Share of total cycles per bucket (zeros when nothing completed).
    pub fn shares(&self) -> [f64; BUCKETS] {
        let mut out = [0.0; BUCKETS];
        if self.total > 0 {
            for (o, c) in out.iter_mut().zip(self.cycles.iter()) {
                *o = *c as f64 / self.total as f64;
            }
        }
        out
    }

    fn to_json(self) -> String {
        let buckets: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("\"{}\":{}", b.label(), self.cycles[*b as usize]))
            .collect();
        let dominant: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("\"{}\":{}", b.label(), self.dominant[*b as usize]))
            .collect();
        format!(
            "{{\"count\":{},\"total\":{},\"buckets\":{{{}}},\"dominant\":{{{}}}}}",
            self.count,
            self.total,
            buckets.join(","),
            dominant.join(",")
        )
    }
}

/// A past command's resource-occupancy window on one bank.
#[derive(Debug, Clone, Copy)]
struct Window {
    at: u64,
    end: u64,
    is_write: bool,
    sag: u32,
    cd_first: u32,
    cd_count: u32,
}

/// One bank's command history: the occupancy windows a future wait can
/// still overlap, an upper bound on their lengths, and the heatmap's
/// per-SAG and per-CD busy-until maxima, which `prune` never drops.
#[derive(Debug)]
struct BankHistory {
    windows: Vec<Window>,
    /// At least `end − at` of every window in `windows`: raised by each
    /// [`record`](BankHistory::record), never lowered by `prune`, and
    /// rebuilt from the windows on restore (it is not serialized).
    max_len: u64,
    sag_busy_until: Vec<u64>,
    cd_busy_until: Vec<u64>,
}

impl BankHistory {
    fn new(p: &AttributionParams) -> Self {
        BankHistory {
            windows: Vec::new(),
            max_len: 0,
            sag_busy_until: vec![0; p.sags.max(1) as usize],
            cd_busy_until: vec![0; p.cds.max(1) as usize],
        }
    }

    /// Appends a window, which must not have issued before the last one.
    fn record(&mut self, w: Window) {
        self.max_len = self.max_len.max(w.end.saturating_sub(w.at));
        self.windows.push(w);
    }

    /// The windows a wait starting at `w0` can overlap, and maybe a few
    /// more: every window issued at or before `w0 − max_len` ended by
    /// `w0`, and the list is in issue order, so binary search cuts them.
    fn reaching(&self, w0: u64) -> &[Window] {
        let first = self
            .windows
            .partition_point(|w| w.at.saturating_add(self.max_len) <= w0);
        &self.windows[first..]
    }

    /// Holds `cmd`'s SAG and first CD (clamped into the grid) until its
    /// data burst ends, for a read, or until it completes, for a write.
    /// Returns the cycle either was held until before `cmd`.
    fn hold(&mut self, cmd: &CommandIssue<'_>) -> u64 {
        let until = if cmd.is_read {
            cmd.data_end
        } else {
            cmd.completion
        };
        let sag_last = self.sag_busy_until.len() - 1;
        let cd_last = self.cd_busy_until.len() - 1;
        let sag = &mut self.sag_busy_until[(cmd.sag as usize).min(sag_last)];
        let cd = &mut self.cd_busy_until[(cmd.cd as usize).min(cd_last)];
        let busy = (*sag).max(*cd);
        *sag = (*sag).max(until);
        *cd = (*cd).max(until);
        busy
    }
}

#[derive(Debug, Clone, Copy)]
struct OpenReq {
    arrival: u64,
    is_read: bool,
    tenant: u16,
    /// Start of the not-yet-attributed suffix of the lifetime.
    mark: u64,
    cycles: [u64; BUCKETS],
    issues: u32,
    last_retries: u32,
    /// Issue marks for the five-component span breakdown.
    marks: IssueMarks,
}

/// The attribution tracker: hooks in, exact per-request decompositions out.
#[derive(Debug, Default)]
pub struct Attribution {
    params: AttributionParams,
    // The maps hash through `IntHasher`: ids and (channel, bank or rank)
    // pairs come from the memory system, and `save_state` sorts the keys,
    // so no output depends on the iteration order.
    open: IntMap<u64, OpenReq>,
    /// Per-(channel, bank) command history; its windows are pruned as
    /// requests retire.
    banks: IntMap<(u32, u32), BankHistory>,
    /// Per-(channel, rank) activation start cycles (tFAW reconstruction),
    /// in issue order.
    acts: IntMap<(u32, u32), Vec<u64>>,
    /// Aggregate over completed reads.
    pub reads: ClassTotals,
    /// Aggregate over completed writes.
    pub writes: ClassTotals,
    /// Completed requests whose buckets did not sum to their lifetime.
    pub leaks: u64,
    /// Completed reads carrying verify-retry cycles (only writes retry).
    pub illegal_reads: u64,
    /// The first record counted in `leaks` or `illegal_reads`.
    pub first_offense: Option<RequestAttribution>,
    /// Five-component span breakdowns, folded from the same open records.
    pub spans: Spans,
    /// Commands whose plan-kind label the taxonomy did not recognize.
    /// Non-zero fails the `fgnvm-check` attribution invariant.
    pub unclassified: u64,
    /// Transient: the pre-issue wait decomposition of the command most
    /// recently passed to [`Attribution::on_command`], reduced to its
    /// dominant bucket (ties break to the lowest bucket index) and total
    /// length. Consumed by the flight recorder within the same hook;
    /// never serialized — no checkpoint can land inside one hook.
    last_wait: Option<(StallCause, u64)>,
}

impl Default for AttributionParams {
    fn default() -> Self {
        AttributionParams::bare(1, 1)
    }
}

impl Attribution {
    /// A tracker using the given model facts.
    pub fn new(params: AttributionParams) -> Self {
        Attribution {
            params,
            ..Attribution::default()
        }
    }

    /// The model facts this tracker classifies against.
    pub fn params(&self) -> &AttributionParams {
        &self.params
    }

    /// Hook: a request entered the system.
    pub fn on_enqueued(&mut self, id: u64, is_read: bool, tenant: u16, now: u64) {
        self.open.insert(
            id,
            OpenReq {
                arrival: now,
                is_read,
                tenant,
                mark: now,
                cycles: [0; BUCKETS],
                issues: 0,
                last_retries: 0,
                marks: IssueMarks::default(),
            },
        );
    }

    /// Hook: a command issued. Attributes the wait since the last mark and
    /// the command's own pre-burst and burst segments, then advances the
    /// mark to the burst end (the completion hook attributes the tail).
    /// Returns the cycle the command's SAG or first CD was held until
    /// before it issued: the heatmap's conflict rule reads it.
    pub fn on_command(&mut self, cmd: &CommandIssue<'_>) -> u64 {
        self.last_wait = None;
        let rank = cmd
            .bank
            .checked_div(self.params.banks_per_rank)
            .unwrap_or(0);
        // Classify before recording: a command never blocks itself.
        let intrinsic = match classify_command(cmd.kind) {
            Some(bucket) => bucket,
            None => {
                self.unclassified += 1;
                StallCause::Service
            }
        };
        let activation = cmd.kind == "activate" || cmd.kind == "underfetch";
        let bank = self
            .banks
            .entry((cmd.channel, cmd.bank))
            .or_insert_with(|| BankHistory::new(&self.params));
        debug_assert!(
            bank.windows.last().is_none_or(|w| w.at <= cmd.at),
            "per-bank command windows must stay in issue order"
        );
        if let Some(r) = self.open.get_mut(&cmd.id) {
            let w0 = r.mark;
            let at = cmd.at.max(w0);
            let before = r.cycles;
            if r.issues == 0 {
                let acts = match self.params.t_faw {
                    Some(_) if activation => self.acts.get(&(cmd.channel, rank)),
                    _ => None,
                };
                classify_wait(
                    &self.params,
                    bank.reaching(w0),
                    acts.map_or(&[], Vec::as_slice),
                    cmd,
                    (w0, at),
                    &mut r.cycles,
                );
            } else {
                // Re-issue after verify-budget exhaustion: the whole bounce
                // (residual programming + requeue wait) is retry extension.
                r.cycles[StallCause::VerifyRetry as usize] += at - w0;
            }
            if at > w0 {
                let mut best = 0usize;
                for i in 1..BUCKETS {
                    if r.cycles[i] - before[i] > r.cycles[best] - before[best] {
                        best = i;
                    }
                }
                self.last_wait = Some((StallCause::ALL[best], at - w0));
            }
            // Monotone boundary chain at ≤ e ≤ data_start ≤ data_end keeps
            // the decomposition an exact partition even on odd inputs.
            let data_start = cmd.data_start.max(at);
            let data_end = cmd.data_end.max(data_start);
            let e = cmd.earliest_data.clamp(at, data_start);
            let pre = e - at;
            if intrinsic == StallCause::UnderfetchResense {
                // The underfetch's extra sense is tRCD; anything beyond that
                // (CAS etc.) is ordinary service.
                let carve = pre.min(self.params.t_rcd);
                r.cycles[StallCause::UnderfetchResense as usize] += carve;
                r.cycles[StallCause::Service as usize] += pre - carve;
            } else {
                r.cycles[intrinsic as usize] += pre;
            }
            r.cycles[StallCause::GlobalIo as usize] += data_start - e;
            r.cycles[StallCause::Service as usize] += data_end - data_start;
            r.mark = data_end;
            // The span breakdown keeps the raw, unclamped marks.
            self.spans.on_issue(
                &mut r.marks,
                r.issues == 0,
                cmd.at,
                cmd.data_start,
                cmd.data_end,
            );
            r.issues += 1;
            r.last_retries = cmd.retries;
        }
        // Record this command's occupancy window for later waiters.
        bank.record(Window {
            at: cmd.at,
            end: cmd.completion.max(cmd.data_end),
            is_write: !cmd.is_read,
            sag: cmd.sag,
            cd_first: cmd.cd,
            cd_count: cmd.cd_count.max(1),
        });
        let busy = bank.hold(cmd);
        if self.params.t_faw.is_some() && activation {
            let list = self.acts.entry((cmd.channel, rank)).or_default();
            debug_assert!(
                list.last().is_none_or(|&a| a <= cmd.at),
                "per-rank activations must stay in issue order"
            );
            list.push(cmd.at);
        }
        self.prune(cmd.at);
        busy
    }

    /// Hook: request `id` completed at `now`. Attributes the tail, tallies
    /// the finished record if it is an offense, folds it into the
    /// aggregates and returns it (`None` for an id never enqueued).
    pub fn on_completed(&mut self, id: u64, now: u64) -> Option<RequestAttribution> {
        let mut r = self.open.remove(&id)?;
        let tail = now.saturating_sub(r.mark);
        if r.issues == 0 {
            // Satisfied without touching the array (store-to-load forward,
            // write coalescing): pure controller handling.
            r.cycles[StallCause::CtrlOverhead as usize] += tail;
        } else if r.is_read {
            // Post-burst read tail is ECC decode / delivery.
            r.cycles[StallCause::CtrlOverhead as usize] += tail;
        } else {
            // Post-burst write tail is programming; on-die verify retries
            // each re-pay tWP on top of the base attempt.
            let retry = tail.min(u64::from(r.last_retries) * self.params.t_wp);
            r.cycles[StallCause::VerifyRetry as usize] += retry;
            r.cycles[StallCause::Service as usize] += tail - retry;
        }
        let record = RequestAttribution {
            id,
            is_read: r.is_read,
            tenant: r.tenant,
            arrival: r.arrival,
            completion: now.max(r.arrival),
            cycles: r.cycles,
        };
        self.spans.record(
            r.is_read,
            r.arrival,
            (r.issues > 0).then_some(&r.marks),
            now,
        );
        let leak = record.attributed() != record.completion - record.arrival;
        let illegal = r.is_read && record.cycles[StallCause::VerifyRetry as usize] != 0;
        self.leaks += u64::from(leak);
        self.illegal_reads += u64::from(illegal);
        self.first_offense = self.first_offense.or((leak || illegal).then_some(record));
        if r.is_read {
            self.reads.fold(&record);
        } else {
            self.writes.fold(&record);
        }
        if self.open.is_empty() {
            self.prune(now);
        }
        Some(record)
    }

    /// Requests currently in flight.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// The span document: span counters, the requests still in flight, and
    /// both latency breakdowns.
    pub fn spans_json(&self) -> String {
        let s = &self.spans;
        format!(
            "{{\"completed\":{},\"never_issued\":{},\"reissues\":{},\"open\":{},\"read\":{},\"write\":{}}}",
            s.completed,
            s.never_issued,
            s.reissues,
            self.open.len(),
            s.reads.to_json(),
            s.writes.to_json()
        )
    }

    /// Takes the most recent command's dominant pre-issue wait, if the
    /// command waited at all. Valid only within the same `on_command`
    /// dispatch (the next command overwrites it).
    pub fn take_last_wait(&mut self) -> Option<(StallCause, u64)> {
        self.last_wait.take()
    }

    /// Serialize the full tracker state — open requests, each bank's
    /// command windows and tile clocks, activation history, aggregates,
    /// and the offense tallies — into a checkpoint. `params` are *not*
    /// written: they are static model facts rebuilt from the
    /// configuration at restore time.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("attr");
        let mut ids: Vec<u64> = self.open.keys().copied().collect();
        ids.sort_unstable();
        w.usize(ids.len());
        for id in ids {
            let r = &self.open[&id];
            w.u64(id);
            w.u64(r.arrival);
            w.bool(r.is_read);
            w.u32(u32::from(r.tenant));
            w.u64(r.mark);
            for c in &r.cycles {
                w.u64(*c);
            }
            w.u32(r.issues);
            w.u32(r.last_retries);
            w.u64(r.marks.first);
            w.u64(r.marks.last);
            w.u64(r.marks.data_start);
            w.u64(r.marks.data_end);
        }
        let mut keys: Vec<(u32, u32)> = self.banks.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for key in keys {
            let bank = &self.banks[&key];
            w.u32(key.0);
            w.u32(key.1);
            w.usize(bank.windows.len());
            for win in &bank.windows {
                w.u64(win.at);
                w.u64(win.end);
                w.bool(win.is_write);
                w.u32(win.sag);
                w.u32(win.cd_first);
                w.u32(win.cd_count);
            }
            for clocks in [&bank.sag_busy_until, &bank.cd_busy_until] {
                w.usize(clocks.len());
                for v in clocks {
                    w.u64(*v);
                }
            }
        }
        let mut keys: Vec<(u32, u32)> = self.acts.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for key in keys {
            let list = &self.acts[&key];
            w.u32(key.0);
            w.u32(key.1);
            w.usize(list.len());
            for at in list {
                w.u64(*at);
            }
        }
        for totals in [&self.reads, &self.writes] {
            w.u64(totals.count);
            w.u64(totals.total);
            for c in &totals.cycles {
                w.u64(*c);
            }
            for d in &totals.dominant {
                w.u64(*d);
            }
        }
        w.u64(self.leaks);
        w.u64(self.illegal_reads);
        w.bool(self.first_offense.is_some());
        if let Some(rec) = &self.first_offense {
            w.u64(rec.id);
            w.bool(rec.is_read);
            w.u32(u32::from(rec.tenant));
            w.u64(rec.arrival);
            w.u64(rec.completion);
            for c in &rec.cycles {
                w.u64(*c);
            }
        }
        w.u64(self.unclassified);
        self.spans.save_state(w);
    }

    /// Restore a tracker written by [`Attribution::save_state`] into this
    /// one, replacing all mutable state but keeping the current `params`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream, a bank whose tile clocks do not
    /// match this tracker's SAG × CD grid, or a command or activation
    /// history out of issue order.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("attr")?;
        let n = r.count()?;
        self.open = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let id = r.u64()?;
            let arrival = r.u64()?;
            let is_read = r.bool()?;
            let tenant = r.u32()? as u16;
            let mark = r.u64()?;
            let mut cycles = [0u64; BUCKETS];
            for c in &mut cycles {
                *c = r.u64()?;
            }
            let issues = r.u32()?;
            let last_retries = r.u32()?;
            let marks = IssueMarks {
                first: r.u64()?,
                last: r.u64()?,
                data_start: r.u64()?,
                data_end: r.u64()?,
            };
            self.open.insert(
                id,
                OpenReq {
                    arrival,
                    is_read,
                    tenant,
                    mark,
                    cycles,
                    issues,
                    last_retries,
                    marks,
                },
            );
        }
        let n = r.count()?;
        self.banks = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let mut bank = BankHistory::new(&self.params);
            let len = r.count()?;
            bank.windows = Vec::with_capacity(len);
            for _ in 0..len {
                bank.record(Window {
                    at: r.u64()?,
                    end: r.u64()?,
                    is_write: r.bool()?,
                    sag: r.u32()?,
                    cd_first: r.u32()?,
                    cd_count: r.u32()?,
                });
            }
            if !bank.windows.is_sorted_by_key(|w| w.at) {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "bank {key:?} has command windows out of issue order"
                )));
            }
            for (axis, clocks) in [
                ("SAG", &mut bank.sag_busy_until),
                ("CD", &mut bank.cd_busy_until),
            ] {
                let len = r.count()?;
                if len != clocks.len() {
                    return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                        "bank {key:?} has {len} {axis} clocks, the grid has {}",
                        clocks.len()
                    )));
                }
                for v in clocks.iter_mut() {
                    *v = r.u64()?;
                }
            }
            self.banks.insert(key, bank);
        }
        let n = r.count()?;
        self.acts = IntMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            let len = r.count()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(r.u64()?);
            }
            if !list.is_sorted() {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "rank {key:?} has activations out of issue order"
                )));
            }
            self.acts.insert(key, list);
        }
        for totals in [&mut self.reads, &mut self.writes] {
            totals.count = r.u64()?;
            totals.total = r.u64()?;
            for c in &mut totals.cycles {
                *c = r.u64()?;
            }
            for d in &mut totals.dominant {
                *d = r.u64()?;
            }
        }
        self.leaks = r.u64()?;
        self.illegal_reads = r.u64()?;
        self.first_offense = None;
        if r.bool()? {
            let id = r.u64()?;
            let is_read = r.bool()?;
            let tenant = r.u32()? as u16;
            let arrival = r.u64()?;
            let completion = r.u64()?;
            let mut cycles = [0u64; BUCKETS];
            for c in &mut cycles {
                *c = r.u64()?;
            }
            self.first_offense = Some(RequestAttribution {
                id,
                is_read,
                tenant,
                arrival,
                completion,
                cycles,
            });
        }
        self.unclassified = r.u64()?;
        self.spans.load_state(r)?;
        Ok(())
    }

    /// Drops history that can no longer affect any in-flight request: a
    /// window whose occupancy ended before every open request's mark (or
    /// before `now`, when nothing is open) can never cover a future wait.
    /// Amortized: runs once some per-bank list outgrows a fixed bound, or
    /// whenever nothing is open (so a drained checkpoint carries none).
    fn prune(&mut self, now: u64) {
        const KEEP: usize = 96;
        let over = self.open.is_empty()
            || self.banks.values().any(|b| b.windows.len() > KEEP)
            || self.acts.values().any(|v| v.len() > KEEP);
        if !over {
            return;
        }
        let horizon = self
            .open
            .values()
            .map(|r| r.mark)
            .min()
            .unwrap_or(now)
            .min(now);
        let faw = self.params.t_faw.unwrap_or(0);
        for bank in self.banks.values_mut() {
            bank.windows.retain(|w| w.end > horizon);
        }
        for list in self.acts.values_mut() {
            // An activation still matters while its tFAW window can gate a
            // future issue, and the sliding 4-tuples need their neighbors.
            let cut = list.len().saturating_sub(
                list.iter()
                    .rev()
                    .take_while(|a| **a + faw > horizon)
                    .count()
                    + 3,
            );
            list.drain(..cut);
        }
    }

    /// The attribution document: counts, per-class bucket totals, dominant
    /// (critical-path) tallies, and the unclassified counter.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"unclassified\":{},\"open\":{},\"read\":{},\"write\":{}}}",
            self.reads.count + self.writes.count,
            self.unclassified,
            self.open.len(),
            self.reads.to_json(),
            self.writes.to_json()
        )
    }
}

fn cd_overlap(full_row: bool, a: (u32, u32), b: (u32, u32)) -> bool {
    full_row || (a.0 < b.0 + b.1 && b.0 < a.0 + a.1)
}

/// Blocking classes of the wait classifier, lowest priority first: a cycle
/// covered by several blockers goes to the highest live class, and a cycle
/// no blocker covers is queueing.
const CLASSES: [StallCause; 4] = [
    StallCause::TfawWindow,
    StallCause::CdConflict,
    StallCause::SagConflict,
    StallCause::WriteBlock,
];

/// The class (index into [`CLASSES`]) a past command's window imposes on
/// `cmd`, or `None` when it holds nothing `cmd` needs.
fn window_class(p: &AttributionParams, w: &Window, cmd: &CommandIssue<'_>) -> Option<usize> {
    let sag_hit = p.serialized || w.sag == cmd.sag;
    let cd_hit = cd_overlap(
        p.full_row_sense,
        (w.cd_first, w.cd_count),
        (cmd.cd, cmd.cd_count.max(1)),
    );
    if w.is_write && (sag_hit || cd_hit || p.write_blocks_bank) {
        Some(3)
    } else if sag_hit {
        Some(2)
    } else if cd_hit {
        Some(1)
    } else {
        None
    }
}

/// The union of spans added in start order: the cycles it covered before
/// its open run, and that run.
#[derive(Debug, Clone, Copy)]
struct Union {
    covered: u64,
    start: u64,
    end: u64,
}

impl Union {
    /// Adds `[s, e)`, which must not start before any span added earlier.
    fn add(&mut self, s: u64, e: u64) {
        if s > self.end {
            self.covered += self.end - self.start;
            (self.start, self.end) = (s, e);
        } else {
            self.end = self.end.max(e);
        }
    }

    fn len(&self) -> u64 {
        self.covered + (self.end - self.start)
    }
}

/// Partitions the pre-issue wait `[w0, w1)` among blocking causes, adding
/// the cycles to `cycles`.
///
/// Every blocker — a past command's occupancy window on the bank, or a
/// tFAW gate (with four activations inside a rolling window, a fifth must
/// wait until the oldest ages out) — maps to one class of [`CLASSES`]
/// (write-block > SAG > CD > tFAW), and each cycle of the wait goes to the
/// highest class covering it. One pass over the blockers, clamped to the
/// wait, keeps per class `k` the union of the blockers of class `k` or
/// higher: class `k` gets `union(≥k) − union(≥k+1)` cycles and queueing
/// the rest. Windows arrive in issue (so start) order, and the tFAW gates,
/// also start-ordered, are merged into the lowest class as they go.
/// `windows` must be in issue order; the ones issued at or after `w1` are
/// cut off by binary search, and the ones that ended by `w0` are skipped
/// before they are classified.
fn classify_wait(
    p: &AttributionParams,
    windows: &[Window],
    acts: &[u64],
    cmd: &CommandIssue<'_>,
    (w0, w1): (u64, u64),
    cycles: &mut [u64; BUCKETS],
) {
    if w1 <= w0 {
        return;
    }
    let empty = Union {
        covered: 0,
        start: w0,
        end: w0,
    };
    let mut unions = [empty; CLASSES.len()];
    let mut add = |start: u64, end: u64, class: usize| {
        let (s, e) = (start.max(w0), end.min(w1));
        if s < e {
            for u in &mut unions[..=class] {
                u.add(s, e);
            }
        }
    };
    let mut gates = p
        .t_faw
        .into_iter()
        .flat_map(|t_faw| acts.windows(4).map(move |quad| (quad[3], quad[0] + t_faw)))
        .peekable();
    let issued = windows.partition_point(|w| w.at < w1);
    for w in windows[..issued].iter().filter(|w| w.end > w0) {
        if let Some(class) = window_class(p, w, cmd) {
            while let Some((s, e)) = gates.next_if(|g| g.0 <= w.at) {
                add(s, e, 0);
            }
            add(w.at, w.end, class);
        }
    }
    for (s, e) in gates {
        add(s, e, 0);
    }
    let mut above = 0;
    for (k, u) in unions.iter().enumerate().rev() {
        cycles[CLASSES[k] as usize] += u.len() - above;
        above = u.len();
    }
    cycles[StallCause::QueueWait as usize] += (w1 - w0) - above;
}

/// The segment-scan classifier [`classify_wait`] replaced: cut the wait at
/// every blocker edge, then rescan every blocker per segment. Kept as the
/// reference the union pass is property-tested against.
#[cfg(test)]
fn classify_wait_reference(
    p: &AttributionParams,
    windows: &[Window],
    acts: &[u64],
    cmd: &CommandIssue<'_>,
    (w0, w1): (u64, u64),
    cycles: &mut [u64; BUCKETS],
) {
    if w1 <= w0 {
        return;
    }
    let target_cd = (cmd.cd, cmd.cd_count.max(1));
    let mut faw_gates: Vec<(u64, u64)> = Vec::new();
    if let Some(t_faw) = p.t_faw {
        for quad in acts.windows(4) {
            let open = quad[0] + t_faw;
            if open > quad[3] {
                faw_gates.push((quad[3], open));
            }
        }
    }
    let mut cuts: Vec<u64> = vec![w0, w1];
    for w in windows {
        for b in [w.at, w.end] {
            if b > w0 && b < w1 {
                cuts.push(b);
            }
        }
    }
    for (s, e) in &faw_gates {
        for b in [*s, *e] {
            if b > w0 && b < w1 {
                cuts.push(b);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    for seg in cuts.windows(2) {
        let (s, e) = (seg[0], seg[1]);
        let mut cause = StallCause::QueueWait;
        if faw_gates.iter().any(|(gs, ge)| *gs < e && s < *ge) {
            cause = StallCause::TfawWindow;
        }
        for w in windows {
            if w.at >= e || w.end <= s {
                continue;
            }
            let tile_hit = p.serialized
                || w.sag == cmd.sag
                || cd_overlap(p.full_row_sense, (w.cd_first, w.cd_count), target_cd);
            if w.is_write && (tile_hit || p.write_blocks_bank) {
                cause = StallCause::WriteBlock;
                break;
            }
            if p.serialized || w.sag == cmd.sag {
                cause = StallCause::SagConflict;
            } else if cd_overlap(p.full_row_sense, (w.cd_first, w.cd_count), target_cd)
                && cause != StallCause::SagConflict
            {
                cause = StallCause::CdConflict;
            }
        }
        cycles[cause as usize] += e - s;
    }
}

/// One what-if scenario: which buckets a structural change relieves, and
/// by how much.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Stable scenario name.
    pub name: &'static str,
    /// What the hypothetical change is.
    pub description: &'static str,
    /// `(bucket, relieved fraction in per-mille)` pairs.
    pub relief: &'static [(StallCause, u32)],
}

/// The named scenarios the estimator evaluates, mirroring the paper's
/// mode-comparison reasoning.
pub const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "enable-multi-issue",
        description: "widen the global I/O path (Multi-Issue): no bus serialization",
        relief: &[(StallCause::GlobalIo, 1000)],
    },
    Scenario {
        name: "double-cds",
        description:
            "double the column divisions: halve CD sense conflicts and underfetch re-senses",
        relief: &[
            (StallCause::CdConflict, 500),
            (StallCause::UnderfetchResense, 500),
        ],
    },
    Scenario {
        name: "double-sags",
        description: "double the subarray groups: halve SAG row conflicts",
        relief: &[(StallCause::SagConflict, 500)],
    },
    Scenario {
        name: "zero-write-blocking",
        description: "perfect backgrounded writes: no write-occupancy blocking",
        relief: &[(StallCause::WriteBlock, 1000)],
    },
    Scenario {
        name: "perfect-verify",
        description: "writes verify on the first attempt: no retry extension",
        relief: &[(StallCause::VerifyRetry, 1000)],
    },
    Scenario {
        name: "infinite-issue",
        description: "no scheduler/queue/tFAW limits: issue the moment resources free",
        relief: &[
            (StallCause::QueueWait, 1000),
            (StallCause::TfawWindow, 1000),
        ],
    },
];

/// One scenario's estimated effect, per operation class and overall.
#[derive(Debug, Clone, Copy)]
pub struct WhatIfBound {
    /// The scenario evaluated.
    pub scenario: Scenario,
    /// Cycles the scenario would remove from completed reads.
    pub relieved_read: u64,
    /// Cycles the scenario would remove from completed writes.
    pub relieved_write: u64,
    /// Amdahl-style upper bound on mean read-latency speedup.
    pub read_speedup: f64,
    /// Amdahl-style upper bound on mean write-latency speedup.
    pub write_speedup: f64,
    /// Bound over all attributed cycles.
    pub overall_speedup: f64,
}

fn relieved(totals: &ClassTotals, scenario: &Scenario) -> u64 {
    scenario
        .relief
        .iter()
        .map(|(b, per_mille)| totals.cycles[*b as usize] * u64::from(*per_mille) / 1000)
        .sum()
}

fn bound(total: u64, removed: u64) -> f64 {
    if total == 0 {
        1.0
    } else {
        total as f64 / (total - removed.min(total.saturating_sub(1))) as f64
    }
}

/// Evaluates every named scenario against the attributed totals. The
/// returned speedups are *upper bounds* in the Amdahl sense: relieving a
/// bottleneck cannot shrink latency by more than the cycles attributed to
/// it (second-order effects only uncover other bottlenecks).
pub fn what_if(attr: &Attribution) -> Vec<WhatIfBound> {
    SCENARIOS
        .iter()
        .map(|s| {
            let rr = relieved(&attr.reads, s);
            let rw = relieved(&attr.writes, s);
            WhatIfBound {
                scenario: *s,
                relieved_read: rr,
                relieved_write: rw,
                read_speedup: bound(attr.reads.total, rr),
                write_speedup: bound(attr.writes.total, rw),
                overall_speedup: bound(attr.reads.total + attr.writes.total, rr + rw),
            }
        })
        .collect()
}

/// Serializes the what-if bounds as a JSON array (canonical scenario order).
pub fn what_if_json(bounds: &[WhatIfBound]) -> String {
    let items: Vec<String> = bounds
        .iter()
        .map(|b| {
            format!(
                "{{\"name\":\"{}\",\"relieved_read\":{},\"relieved_write\":{},\
                 \"read_speedup\":{},\"write_speedup\":{},\"overall_speedup\":{}}}",
                b.scenario.name,
                b.relieved_read,
                b.relieved_write,
                number(b.read_speedup),
                number(b.write_speedup),
                number(b.overall_speedup)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(id: u64, at: u64) -> CommandIssue<'static> {
        CommandIssue {
            channel: 0,
            bank: 0,
            id,
            is_read: true,
            kind: "activate",
            arrival: 0,
            at,
            earliest_data: at + 30,
            data_start: at + 30,
            data_end: at + 38,
            completion: at + 50,
            row: 1,
            sag: 0,
            cd: 0,
            cd_count: 1,
            retries: 0,
        }
    }

    #[test]
    fn uncontended_read_is_service_plus_queue() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 100);
        a.on_command(&cmd(1, 110));
        let r = a.on_completed(1, 148).expect("open request");
        assert_eq!(r.attributed(), 48);
        assert_eq!(r.cycles[StallCause::QueueWait as usize], 10);
        assert_eq!(r.cycles[StallCause::Service as usize], 38);
    }

    #[test]
    fn sag_conflict_wait_is_attributed() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0)); // occupies sag 0 over [0, 50)
        a.on_enqueued(2, true, 0, 10);
        a.on_command(&cmd(2, 60)); // same sag, waited 10..60
        a.on_completed(1, 38);
        let r2 = a.on_completed(2, 98).expect("open request");
        assert_eq!(r2.attributed(), 88);
        // Blocked by command 1's window [0,50): 40 cycles of SAG conflict,
        // then 10 cycles of plain queueing until issue at 60.
        assert_eq!(r2.cycles[StallCause::SagConflict as usize], 40);
        assert_eq!(r2.cycles[StallCause::QueueWait as usize], 10);
    }

    #[test]
    fn write_block_outranks_tile_conflicts() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, false, 0, 0);
        let mut w = cmd(1, 0);
        w.is_read = false;
        w.kind = "write";
        w.completion = 200;
        a.on_command(&w);
        a.on_enqueued(2, true, 0, 0);
        a.on_command(&cmd(2, 200));
        let r2 = a.on_completed(2, 238).expect("open request");
        assert_eq!(r2.cycles[StallCause::WriteBlock as usize], 200);
        assert_eq!(r2.attributed(), 238);
    }

    #[test]
    fn global_io_is_the_bus_push() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(3, true, 0, 0);
        let mut c = cmd(3, 0);
        c.data_start = c.earliest_data + 6; // bus pushed the burst 6 late
        c.data_end = c.data_start + 8;
        a.on_command(&c);
        let r = a.on_completed(3, c.data_end).expect("open request");
        assert_eq!(r.cycles[StallCause::GlobalIo as usize], 6);
        assert_eq!(r.attributed(), c.data_end);
    }

    #[test]
    fn underfetch_carves_trcd() {
        let mut p = AttributionParams::bare(4, 4);
        p.t_rcd = 22;
        let mut a = Attribution::new(p);
        a.on_enqueued(4, true, 0, 0);
        let mut c = cmd(4, 0);
        c.kind = "underfetch";
        a.on_command(&c);
        let r = a.on_completed(4, c.data_end).expect("open request");
        assert_eq!(r.cycles[StallCause::UnderfetchResense as usize], 22);
        // 30 pre-burst − 22 carved + 8 burst.
        assert_eq!(r.cycles[StallCause::Service as usize], 16);
    }

    #[test]
    fn verify_retries_extend_the_write_tail() {
        let mut p = AttributionParams::bare(4, 4);
        p.t_wp = 40;
        let mut a = Attribution::new(p);
        a.on_enqueued(5, false, 0, 0);
        let mut c = cmd(5, 0);
        c.is_read = false;
        c.kind = "write";
        c.retries = 2;
        c.completion = c.data_end + 120; // (1+2)·tWP
        a.on_command(&c);
        let r = a.on_completed(5, c.completion).expect("open request");
        assert_eq!(r.cycles[StallCause::VerifyRetry as usize], 80);
        assert_eq!(r.attributed(), c.completion);
    }

    #[test]
    fn offenses_are_tallied_as_records_fold() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        assert!(a.on_completed(9, 10).is_none(), "unknown id");
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0));
        // A read that re-issues books the bounce as verify-retry cycles.
        a.on_command(&cmd(1, 50));
        a.on_completed(1, 88);
        // Completing before its burst ended leaves the record
        // over-attributed: a leak.
        a.on_enqueued(2, true, 0, 100);
        a.on_command(&cmd(2, 100));
        a.on_completed(2, 120);
        a.on_enqueued(3, true, 0, 200);
        a.on_command(&cmd(3, 200));
        a.on_completed(3, 238);
        assert_eq!((a.leaks, a.illegal_reads), (1, 1));
        let first = a.first_offense.expect("an offense was counted");
        assert_eq!(first.id, 1);
        assert!(a.to_json().starts_with("{\"requests\":3,"));

        let mut w = fgnvm_types::SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.finish();
        let mut restored = Attribution::new(AttributionParams::bare(4, 4));
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        restored.load_state(&mut r).expect("decodes");
        assert_eq!((restored.leaks, restored.illegal_reads), (1, 1));
        assert_eq!(restored.first_offense.map(|r| r.id), Some(1));
        assert_eq!(restored.to_json(), a.to_json());
    }

    #[test]
    fn tile_clocks_off_the_grid_are_refused() {
        let mut a = Attribution::new(AttributionParams::bare(2, 2));
        a.on_command(&cmd(1, 0));
        let mut w = fgnvm_types::SnapshotWriter::new();
        a.save_state(&mut w);
        let bytes = w.finish();
        for (sags, cds) in [(4, 2), (2, 4)] {
            let mut restored = Attribution::new(AttributionParams::bare(sags, cds));
            let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
            assert!(
                matches!(
                    restored.load_state(&mut r),
                    Err(fgnvm_types::SnapshotError::Corrupt(_))
                ),
                "{sags}x{cds}"
            );
        }
        let mut same = Attribution::new(AttributionParams::bare(2, 2));
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        same.load_state(&mut r).expect("the grid it was saved from");
    }

    /// The classifier's cut and union pass need issue-ordered histories,
    /// so a checkpoint holding one out of order is refused.
    #[test]
    fn histories_out_of_issue_order_are_refused() {
        let mut p = AttributionParams::bare(2, 2);
        p.t_faw = Some(20);
        let disorders: [fn(&mut Attribution); 2] = [
            |a| a.banks.values_mut().for_each(|b| b.windows.reverse()),
            |a| a.acts.values_mut().for_each(|list| list.reverse()),
        ];
        for disorder in disorders {
            let mut a = Attribution::new(p);
            a.on_command(&cmd(1, 0));
            a.on_command(&cmd(2, 10));
            disorder(&mut a);
            let mut w = fgnvm_types::SnapshotWriter::new();
            a.save_state(&mut w);
            let bytes = w.finish();
            let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
            assert!(matches!(
                Attribution::new(p).load_state(&mut r),
                Err(fgnvm_types::SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn last_wait_reports_the_dominant_block() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0)); // issued instantly — no wait
        assert_eq!(a.take_last_wait(), None);
        a.on_enqueued(2, true, 0, 10);
        a.on_command(&cmd(2, 60)); // 40 SAG-conflict + 10 queue cycles
        assert_eq!(a.take_last_wait(), Some((StallCause::SagConflict, 50)));
        assert_eq!(a.take_last_wait(), None); // consumed
    }

    #[test]
    fn spans_fold_from_the_attribution_record() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(7, false, 0, 0);
        let mut w = cmd(7, 10);
        w.is_read = false;
        w.kind = "write";
        w.data_start = 15;
        w.data_end = 20;
        a.on_command(&w);
        w.at = 50; // re-issued after a verify failure
        w.data_start = 55;
        w.data_end = 60;
        a.on_command(&w);
        assert_eq!(a.spans.reissues, 1);
        a.on_completed(7, 80);
        let s = &a.spans.writes;
        assert_eq!(
            [
                s.queue.sum(),
                s.retry.sum(),
                s.bank.sum(),
                s.bus.sum(),
                s.tail.sum()
            ],
            [10, 40, 5, 5, 20]
        );
        assert_eq!(s.total.sum(), a.writes.total);
        assert_eq!((a.spans.completed, a.open_count()), (1, 0));
    }

    /// A random blocker set for one wait: issue-ordered windows on the
    /// bank, a rank's activation history, the waiting command, and the
    /// structural flags.
    type WaitCase = (
        Vec<(u64, u64, bool, u32, u32, u32)>,
        Vec<u64>,
        (u32, u32, u32),
        (bool, bool, bool),
        (u64, u64),
        u64,
    );

    fn wait_case() -> impl Strategy<Value = WaitCase> {
        (
            prop::collection::vec(
                (0u64..12, 0u64..50, any::<bool>(), 0u32..3, 0u32..3, 1u32..3),
                0..14,
            ),
            prop::collection::vec(0u64..12, 0..9),
            (0u32..3, 0u32..3, 1u32..3),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            (0u64..120, 0u64..120),
            0u64..40,
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The union pass gives exactly the segment scan's per-bucket
        /// cycles, over the whole list and over the suffix the caller
        /// passes after the `max_len` cut.
        #[test]
        fn sweep_matches_the_segment_scan(case in wait_case()) {
            let (raw, gaps, (sag, cd, cd_count), (serialized, full_row, wbb), (a, b), t_faw) = case;
            let mut p = AttributionParams::bare(4, 4);
            p.serialized = serialized;
            p.full_row_sense = full_row;
            p.write_blocks_bank = wbb;
            p.t_faw = (t_faw > 0).then_some(t_faw);
            // Issue-ordered windows: `at` is a running sum of gaps.
            let mut at = 0;
            let mut bank = BankHistory::new(&p);
            for &(gap, len, is_write, sag, cd_first, cd_count) in &raw {
                at += gap;
                bank.record(Window { at, end: at + len, is_write, sag, cd_first, cd_count });
            }
            let windows = &bank.windows;
            let mut t = 0;
            let acts: Vec<u64> = gaps.iter().map(|g| { t += g; t }).collect();
            let mut c = cmd(1, 0);
            c.sag = sag;
            c.cd = cd;
            c.cd_count = cd_count;
            let span = (a.min(b), a.max(b));
            let mut want = [0; BUCKETS];
            classify_wait_reference(&p, windows, &acts, &c, span, &mut want);
            let mut got = [0; BUCKETS];
            classify_wait(&p, windows, &acts, &c, span, &mut got);
            prop_assert_eq!(got, want);
            prop_assert_eq!(got.iter().sum::<u64>(), span.1 - span.0);
            let mut cut = [0; BUCKETS];
            classify_wait(&p, bank.reaching(span.0), &acts, &c, span, &mut cut);
            prop_assert_eq!(cut, want);
        }

        /// A tracker restored mid-stream attributes every later command as
        /// the one it was saved from, although it rebuilds each bank's
        /// `max_len` from the windows left rather than loading it.
        #[test]
        fn restored_tracker_attributes_like_the_saved_one(
            reqs in prop::collection::vec(
                (0u64..20, 0u64..60, 0u32..2, any::<bool>(), 0u32..3, 0u32..3, 1u64..90),
                1..40,
            ),
            flags in (any::<bool>(), any::<bool>(), 0u64..40),
            split in 0usize..120,
        ) {
            let (serialized, wbb, t_faw) = flags;
            let mut p = AttributionParams::bare(4, 4);
            p.serialized = serialized;
            p.write_blocks_bank = wbb;
            p.t_faw = (t_faw > 0).then_some(t_faw);
            let hooks = hook_stream(&reqs);
            let mut saved = Attribution::new(p);
            let k = split % (hooks.len() + 1);
            for hook in &hooks[..k] {
                apply(&mut saved, hook);
            }
            let mut w = fgnvm_types::SnapshotWriter::new();
            saved.save_state(&mut w);
            let bytes = w.finish();
            let mut restored = Attribution::new(p);
            let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
            restored.load_state(&mut r).expect("decodes");
            for hook in &hooks[k..] {
                prop_assert_eq!(apply(&mut restored, hook), apply(&mut saved, hook));
            }
            prop_assert_eq!(restored.to_json(), saved.to_json());
            prop_assert_eq!(restored.spans_json(), saved.spans_json());
        }
    }

    /// One lifecycle hook of a replayed stream: `Enqueued(id, is_read,
    /// at)`, a command, or `Completed(id, at)`.
    #[derive(Debug, Clone, Copy)]
    enum Hook {
        Enqueued(u64, bool, u64),
        Command(CommandIssue<'static>),
        Completed(u64, u64),
    }

    /// The hooks of requests `(gap, wait, bank, is_read, sag, cd, len)`,
    /// in time order: each arrives `gap` after the last, issues `wait`
    /// later (never before an earlier request's issue) and holds its bank
    /// for `len` cycles.
    fn hook_stream(reqs: &[(u64, u64, u32, bool, u32, u32, u64)]) -> Vec<Hook> {
        let (mut arrival, mut issue) = (0, 0);
        let mut timed = Vec::new();
        for (id, &(gap, wait, bank, is_read, sag, cd, len)) in (0u64..).zip(reqs) {
            arrival += gap;
            issue = (arrival + wait).max(issue);
            let mut c = cmd(id, issue);
            (c.bank, c.is_read, c.sag, c.cd) = (bank, is_read, sag, cd);
            c.kind = if is_read { "activate" } else { "write" };
            c.arrival = arrival;
            c.earliest_data = issue + len / 3;
            c.data_start = c.earliest_data;
            c.data_end = issue + 2 * len / 3;
            c.completion = issue + len;
            // Ties: completions retire, then requests arrive, then issue.
            timed.push((arrival, 1, Hook::Enqueued(id, is_read, arrival)));
            timed.push((issue, 2, Hook::Command(c)));
            timed.push((c.completion, 0, Hook::Completed(id, c.completion)));
        }
        timed.sort_by_key(|&(at, order, _)| (at, order));
        timed.into_iter().map(|(_, _, hook)| hook).collect()
    }

    /// What a hook's answer holds: a command's busy clock and dominant
    /// wait, or a completed record's buckets.
    type Answer = (
        Option<u64>,
        Option<(StallCause, u64)>,
        Option<[u64; BUCKETS]>,
    );

    /// Feeds `hook` to `a` and returns everything the tracker answered.
    fn apply(a: &mut Attribution, hook: &Hook) -> Answer {
        match *hook {
            Hook::Enqueued(id, is_read, at) => {
                a.on_enqueued(id, is_read, 0, at);
                (None, None, None)
            }
            Hook::Command(c) => (Some(a.on_command(&c)), a.take_last_wait(), None),
            Hook::Completed(id, at) => (None, None, a.on_completed(id, at).map(|r| r.cycles)),
        }
    }

    #[test]
    fn every_command_label_classifies() {
        for label in ["row-hit", "activate", "underfetch", "write"] {
            assert!(classify_command(label).is_some(), "{label} unclassified");
        }
        assert!(classify_command("refresh-all").is_none());
    }

    #[test]
    fn what_if_bounds_are_amdahl() {
        let mut a = Attribution::new(AttributionParams::bare(4, 4));
        a.on_enqueued(1, true, 0, 0);
        a.on_command(&cmd(1, 0));
        a.on_completed(1, 38);
        let bounds = what_if(&a);
        assert_eq!(bounds.len(), SCENARIOS.len());
        for b in &bounds {
            assert!(b.overall_speedup >= 1.0);
        }
        let json = what_if_json(&bounds);
        assert!(json.starts_with("[{\"name\":\"enable-multi-issue\""));
    }
}
