//! The per-channel memory controller.
//!
//! Owns the channel's banks, the read (transaction) queue, the write queue,
//! the shared data bus, and a [`Scheduler`]. Each controller cycle it
//! issues up to `commands_per_cycle` commands (one for the standard design,
//! more for the paper's Multi-Issue variant) chosen by the scheduler, and
//! retires completions whose data bursts have finished.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fgnvm_bank::{
    AccessPlan, Bank, BankStats, BaselineBank, BlockReason, DramBank, FaultModel, FgnvmBank, Modes,
    OccupancySnapshot, PlanKind, RefreshCycles,
};
use fgnvm_obs::audit::GATES;
use fgnvm_obs::{BlockGate, CommandIssue, InstantKind, IssueAudit, Observer};
use fgnvm_types::config::{BankModel, ReliabilityConfig, SystemConfig};
use fgnvm_types::error::ConfigError;
use fgnvm_types::request::{Completion, Op};
use fgnvm_types::time::{Cycle, CycleCount};
use fgnvm_types::TimingCycles;

use crate::bus::DataBus;
use crate::cmdlog::{CommandLog, CommandRecord};
use crate::queues::{DrainPolicy, Pending, RequestQueue};
use crate::scheduler::{make_scheduler, Scheduler};
use crate::stats::SystemStats;

/// Outcome of presenting a request to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Queued; a completion will be reported later.
    Accepted,
    /// Read served from the write queue (forwarding) or write merged into an
    /// existing entry; completes on the next cycle.
    Satisfied,
    /// The target queue is full; retry later.
    Full,
}

/// A scheduled future completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: Cycle,
    id_raw: u64,
    is_read: bool,
    arrival: Cycle,
    tenant: u16,
}

/// Rank-to-rank data-bus turnaround (tRTRS): bursts from different ranks
/// need a bubble between them for bus ownership to switch.
const T_RTRS: CycleCount = CycleCount::new(2);

/// One slot of the channel's next-event calendar: the memoized result of
/// [`Controller::next_event_at`].
///
/// The memo is sound *and exact* because every quantity the linear scan
/// consults is a state-derived instant: the event heap's head, the drain
/// flag (whose per-tick update is a fixpoint under constant occupancy — see
/// [`DrainPolicy::update`]), bank readiness hints, and blocked-plan retry
/// instants, none of which depend on the query time except through
/// comparisons against it. So a value computed at `t0` stays exactly what a
/// fresh scan would return for any query instant in `(t0, value)`, as long
/// as no state mutation (enqueue, event retirement, command issue, or
/// checkpoint restore) happened in between — and every mutation path clears
/// the memo.
#[derive(Debug, Clone, Copy)]
enum NextAt {
    /// The channel was idle; it stays idle until an enqueue (which clears
    /// the memo).
    Idle,
    /// The earliest instant a tick could change state.
    At(Cycle),
}

/// Per-rank tFAW tracking: at most four activations may start within any
/// rolling `t_faw` window (a DRAM charge-pump power limit — a rank-level
/// constraint, so it lives in the controller, not the bank). NVM designs
/// have no such limit and carry no tracker.
#[derive(Debug)]
struct FawState {
    t_faw: CycleCount,
    /// Start cycles of each rank's last four activations.
    windows: Vec<[Option<Cycle>; 4]>,
}

impl FawState {
    fn new(t_faw: CycleCount, ranks: usize) -> Self {
        FawState {
            t_faw,
            windows: vec![[None; 4]; ranks],
        }
    }

    /// Earliest instant a fifth activation may start on `rank`.
    fn ready(&self, rank: usize) -> Cycle {
        let window = &self.windows[rank];
        if window.iter().any(Option::is_none) {
            return Cycle::ZERO;
        }
        let oldest = window
            .iter()
            .flatten()
            .copied()
            .fold(Cycle::MAX, Cycle::min);
        oldest + self.t_faw
    }

    /// Records an activation at `now`, evicting the oldest entry.
    fn record(&mut self, rank: usize, now: Cycle) {
        let window = &mut self.windows[rank];
        // Fill empty slots before evicting: an empty slot and an entry at
        // cycle 0 would otherwise tie at the minimum and leave the window
        // forever half-filled (so tFAW would never engage).
        let slot = window.iter().position(Option::is_none).unwrap_or_else(|| {
            window
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.expect("no empty slots remain"))
                .map(|(i, _)| i)
                .expect("window is non-empty")
        });
        window[slot] = Some(now);
    }
}

/// One channel's controller.
#[derive(Debug)]
pub struct Controller {
    /// This controller's channel index (observer track id).
    channel: u32,
    banks: Vec<Box<dyn Bank>>,
    banks_per_rank: u32,
    reads: RequestQueue,
    writes: RequestQueue,
    scheduler: Box<dyn Scheduler>,
    bus: DataBus,
    /// Rank of the most recent burst and when it ends, for tRTRS.
    last_burst: Option<(u32, Cycle)>,
    drain: DrainPolicy,
    draining: bool,
    commands_per_cycle: u32,
    events: BinaryHeap<Reverse<Event>>,
    log: CommandLog,
    /// Rank-level tFAW tracker; `Some` only for DRAM designs.
    faw: Option<FawState>,
    /// Controller-side ECC parameters; `Some` when the reliability layer is
    /// enabled.
    ecc: Option<EccParams>,
    /// Rows whose reads came back uncorrectable, awaiting remap by the
    /// memory system: `(bank_index, row)`.
    bad_rows: Vec<(usize, u32)>,
    /// Resolved timing, kept only so the chaos path can fabricate plans.
    timing: TimingCycles,
    /// Test-only fault injection: when set, force-issue a queue head with a
    /// fabricated plan whenever the scheduler finds nothing legal to issue.
    chaos: bool,
    /// This channel's calendar slot: the memoized [`next_event_at`]
    /// result, cleared by every state mutation (see `NextAt`).
    ///
    /// [`next_event_at`]: Controller::next_event_at
    next_cache: Cell<Option<NextAt>>,
    /// Memoized issue bound: when `Some(b)`, no command can legally issue
    /// strictly before cycle `b`. Unlike [`next_cache`] this survives
    /// completion retirements — retiring an event touches neither queues
    /// nor banks, so issue legality is unchanged — and is cleared only by
    /// enqueues, issues, chaos toggling, and checkpoint restores. A tick
    /// at `now < b` can therefore skip the scheduler's pick scan outright:
    /// every pick implementation is a pure function of (queue, bank, now)
    /// state that mutates its streak bookkeeping only when it returns a
    /// pick, so eliding a provably empty pick is bit-identical.
    ///
    /// [`next_cache`]: field@Controller::next_cache
    issue_bound: Cell<Option<Cycle>>,
    /// True while the owning system drives this channel event-to-event
    /// (fast-forward). Ticks are then sparse, so [`issue_one`] affords an
    /// O(banks) gate pre-check before each pick; in cycle-stepped mode the
    /// same check would run every cycle and is left out so the stepped
    /// path stays the plain reference implementation. The flag selects
    /// between two bit-identical strategies — never between behaviours.
    ///
    /// [`issue_one`]: Controller::issue_one
    event_driven: bool,
    /// Read-queue entries per bank index. Queue entries cluster on few
    /// banks, and a bank's readiness hint gates every entry on it alike —
    /// so the calendar scan walks these counts (one hint per *occupied
    /// bank*) instead of the queue (one hint per *entry*).
    queued_reads_per_bank: Vec<u32>,
    /// Write-queue entries per bank index; same role as
    /// [`queued_reads_per_bank`](field@Controller::queued_reads_per_bank).
    queued_writes_per_bank: Vec<u32>,
}

/// What [`Controller::audit_probe`] measured for one issue decision.
#[derive(Debug)]
struct AuditProbe {
    considered: u32,
    blocked: [u32; GATES],
    ready_peers: u32,
    co_issuable: u32,
    missed: Vec<(u32, u32)>,
}

/// Controller-side ECC behaviour (graceful degradation).
#[derive(Debug, Clone, Copy)]
struct EccParams {
    /// Bit errors per line the code corrects.
    correctable_bits: u32,
    /// Decode latency added to a corrected read.
    decode_penalty: CycleCount,
}

impl Controller {
    /// Builds a controller (banks, queues, bus, scheduler) for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is internally
    /// inconsistent (see [`SystemConfig::validate`]).
    pub fn new(config: &SystemConfig) -> Result<Self, ConfigError> {
        Controller::new_for_channel(config, 0)
    }

    /// Like [`Controller::new`], but decorrelates the fault-model seeds of
    /// this channel's banks from every other channel's.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is internally
    /// inconsistent (see [`SystemConfig::validate`]).
    pub fn new_for_channel(config: &SystemConfig, channel: u32) -> Result<Self, ConfigError> {
        config.validate()?;
        let timing = config.timing.to_cycles()?;
        let bank_count =
            (config.geometry.ranks_per_channel() * config.geometry.banks_per_rank()) as usize;
        let fault_model = |index: usize| -> Option<FaultModel> {
            let r: &ReliabilityConfig = &config.reliability;
            if !r.enabled {
                return None;
            }
            // Golden-ratio hashing decorrelates each (channel, bank) stream
            // from the configured seed.
            let lane = (u64::from(channel) << 32) | index as u64;
            let seed = r.fault_seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Some(FaultModel::new(
                seed,
                r.rber,
                r.write_fail_prob,
                r.max_write_retries,
                r.wear_stuck_threshold,
                u64::from(config.geometry.line_bytes()) * 8,
            ))
        };
        let mut banks: Vec<Box<dyn Bank>> = Vec::with_capacity(bank_count);
        for index in 0..bank_count {
            match config.bank_model {
                BankModel::Baseline => {
                    let mut bank = BaselineBank::new(&config.geometry, timing);
                    if let Some(model) = fault_model(index) {
                        bank = bank.with_faults(model);
                    }
                    banks.push(Box::new(bank));
                }
                BankModel::Dram => {
                    let refresh =
                        RefreshCycles::ddr3_like().staggered(index as u32, bank_count as u32);
                    let bank = DramBank::new(&config.geometry, timing, refresh)
                        .with_policy(config.row_policy);
                    banks.push(Box::new(bank));
                }
                model @ BankModel::Fgnvm { .. } => {
                    let modes = Modes::try_from(model).expect("fgnvm model carries modes");
                    let shared_column_path = config.commands_per_cycle == 1;
                    let mut bank =
                        FgnvmBank::new(&config.geometry, timing, modes, shared_column_path)?
                            .with_write_pausing(config.write_pausing);
                    if let Some(model) = fault_model(index) {
                        bank = bank.with_faults(model);
                    }
                    banks.push(Box::new(bank));
                }
            }
        }
        Ok(Controller {
            channel,
            banks,
            banks_per_rank: config.geometry.banks_per_rank(),
            reads: RequestQueue::new(config.queue_entries),
            writes: RequestQueue::new(config.write_queue_entries),
            scheduler: make_scheduler(config.scheduler),
            bus: DataBus::new(config.data_bus_width, timing.t_burst),
            last_burst: None,
            drain: DrainPolicy::for_capacity(config.write_queue_entries),
            draining: false,
            commands_per_cycle: config.commands_per_cycle,
            // One completion event per queued request, plus headroom for
            // forwarding/merge acknowledgements that never occupy a queue
            // slot: sized so the steady-state hot path never reallocates.
            events: BinaryHeap::with_capacity(
                config.queue_entries + config.write_queue_entries + 64,
            ),
            log: CommandLog::new(),
            faw: matches!(config.bank_model, BankModel::Dram).then(|| {
                FawState::new(
                    RefreshCycles::ddr3_like().t_faw,
                    config.geometry.ranks_per_channel() as usize,
                )
            }),
            ecc: config.reliability.enabled.then(|| EccParams {
                correctable_bits: config.reliability.ecc_correctable_bits,
                decode_penalty: CycleCount::new(config.reliability.ecc_decode_penalty_cycles),
            }),
            bad_rows: Vec::new(),
            timing,
            chaos: false,
            next_cache: Cell::new(None),
            issue_bound: Cell::new(None),
            event_driven: true,
            queued_reads_per_bank: vec![0; bank_count],
            queued_writes_per_bank: vec![0; bank_count],
        })
    }

    /// Test-only: when `enabled`, the controller deliberately violates the
    /// bank protocol — whenever the scheduler finds nothing legal to issue
    /// it force-issues the head of a non-empty queue with a fabricated plan
    /// (a row hit / bare write at minimum latency), ignoring every resource
    /// gate. Exists solely so the `fgnvm-check` oracle and fuzzer can prove
    /// they catch scheduler bugs. Only meaningful for the NVM bank models.
    #[doc(hidden)]
    pub fn set_chaos(&mut self, enabled: bool) {
        self.chaos = enabled;
        self.next_cache.set(None);
        self.issue_bound.set(None);
    }

    /// Occupancy snapshots for every bank on this channel.
    pub fn occupancy(&self) -> Vec<OccupancySnapshot> {
        self.banks.iter().map(|b| b.occupancy()).collect()
    }

    /// The chaos path's illegal pick: the head of the read queue (else the
    /// write queue) with a fabricated minimum-latency plan. The fabricated
    /// `earliest_data` keeps `commit`'s burst assertion satisfied while the
    /// kind/state mismatch produces a genuinely protocol-violating stream.
    fn chaos_pick(&self, now: Cycle) -> Option<(bool, usize, AccessPlan)> {
        if !self.chaos {
            return None;
        }
        if !self.reads.is_empty() {
            Some((
                false,
                0,
                AccessPlan {
                    kind: PlanKind::RowHit,
                    earliest_data: now + self.timing.t_cas,
                    sense_bits: 0,
                },
            ))
        } else if !self.writes.is_empty() {
            Some((
                true,
                0,
                AccessPlan {
                    kind: PlanKind::Write,
                    earliest_data: now + self.timing.t_cwd,
                    sense_bits: 0,
                },
            ))
        } else {
            None
        }
    }

    /// Presents a request; see [`Enqueue`] for the possible outcomes.
    pub fn enqueue(&mut self, pending: Pending, now: Cycle, stats: &mut SystemStats) -> Enqueue {
        let outcome = self.enqueue_inner(pending, now, stats);
        if outcome != Enqueue::Full {
            // The queue or event heap changed; the calendar slot is stale.
            self.next_cache.set(None);
            self.issue_bound.set(None);
        }
        outcome
    }

    fn enqueue_inner(&mut self, pending: Pending, now: Cycle, stats: &mut SystemStats) -> Enqueue {
        match pending.request.op {
            Op::Read => {
                if self.writes.contains_addr(pending.request.addr) {
                    // Store-to-load forwarding from the write queue.
                    stats.forwarded_reads += 1;
                    stats.enqueued_reads += 1;
                    stats.note_enqueued(pending.request.tenant, true);
                    self.events.push(Reverse(Event {
                        at: now + CycleCount::ONE,
                        id_raw: pending.request.id.raw(),
                        is_read: true,
                        arrival: pending.request.arrival,
                        tenant: pending.request.tenant,
                    }));
                    return Enqueue::Satisfied;
                }
                if !self.reads.push(pending) {
                    stats.rejected += 1;
                    return Enqueue::Full;
                }
                self.queued_reads_per_bank[pending.bank_index] += 1;
                stats.enqueued_reads += 1;
                stats.note_enqueued(pending.request.tenant, true);
                Enqueue::Accepted
            }
            Op::Write => {
                if self.writes.contains_addr(pending.request.addr) {
                    // Coalesce with the queued write to the same line; the
                    // merged request is acknowledged immediately.
                    stats.merged_writes += 1;
                    stats.enqueued_writes += 1;
                    stats.note_enqueued(pending.request.tenant, false);
                    self.events.push(Reverse(Event {
                        at: now + CycleCount::ONE,
                        id_raw: pending.request.id.raw(),
                        is_read: false,
                        arrival: pending.request.arrival,
                        tenant: pending.request.tenant,
                    }));
                    return Enqueue::Satisfied;
                }
                if !self.writes.push(pending) {
                    stats.rejected += 1;
                    return Enqueue::Full;
                }
                self.queued_writes_per_bank[pending.bank_index] += 1;
                stats.enqueued_writes += 1;
                stats.note_enqueued(pending.request.tenant, false);
                Enqueue::Accepted
            }
        }
    }

    /// Advances one controller cycle: retires due completions into `out` and
    /// issues up to `commands_per_cycle` new commands. Returns whether any
    /// command issued (used by fast-forward to detect dead cycles).
    ///
    /// `obs` is the optional observability sink; `None` (the default) makes
    /// every hook site a skipped branch, keeping the hot path unchanged.
    pub fn tick(
        &mut self,
        now: Cycle,
        stats: &mut SystemStats,
        out: &mut Vec<Completion>,
        mut obs: Option<&mut Observer>,
    ) -> bool {
        // Retire completions whose data has arrived.
        let mut mutated = false;
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > now {
                break;
            }
            mutated = true;
            let Reverse(ev) = self.events.pop().expect("peeked event exists");
            if ev.is_read {
                stats.record_read(ev.tenant, ev.at.saturating_since(ev.arrival));
            } else {
                stats.record_write(ev.tenant, ev.at.saturating_since(ev.arrival));
            }
            if let Some(obs) = obs.as_deref_mut() {
                obs.on_completed(ev.id_raw, ev.at.raw());
            }
            out.push(Completion {
                id: fgnvm_types::request::RequestId::new(ev.id_raw),
                op: if ev.is_read { Op::Read } else { Op::Write },
                arrival: ev.arrival,
                finished: ev.at,
                tenant: ev.tenant,
            });
        }

        self.draining = self.drain.update(self.draining, self.writes.len());
        stats.read_queue_depth_sum += self.reads.len() as u64;
        stats.queue_depth_samples += 1;

        let mut issued_any = false;
        for _ in 0..self.commands_per_cycle {
            if !self.issue_one(now, stats, obs.as_deref_mut()) {
                break;
            }
            issued_any = true;
        }
        if mutated || issued_any {
            // Retirements and issues move bank/queue/event state; the
            // calendar slot must be recomputed. (A tick that only
            // re-settles the drain flag keeps the memo: the flag update is
            // a fixpoint under the unchanged queue occupancy, and the scan
            // already evaluated it one step ahead.)
            self.next_cache.set(None);
        }
        issued_any
    }

    /// Tries to issue one command; returns whether anything issued.
    fn issue_one(
        &mut self,
        now: Cycle,
        stats: &mut SystemStats,
        obs: Option<&mut Observer>,
    ) -> bool {
        // Fast path: the calendar proved no command can issue before the
        // memoized bound, and nothing that affects issue legality has
        // changed since — skip the pick scan entirely. (Chaos mode
        // force-issues when the scheduler finds nothing, so it must take
        // the full path.)
        if !self.chaos && self.event_driven {
            if let Some(bound) = self.issue_bound.get() {
                if now < bound {
                    return false;
                }
            }
            // The bound is spent (or was never computed): refresh it from
            // the per-bank occupancy counts before paying for a pick. Every
            // scheduler only ever picks an entry whose bank is ready
            // (`next_ready_hint(now) <= now`) and leaves all state — FRFCFS
            // streak bookkeeping included — untouched when it picks
            // nothing, so "no occupied bank is ready" proves the pick
            // returns `None` without running it.
            let gate = self.earliest_bank_gate(now);
            if gate > now {
                self.issue_bound.set(Some(gate));
                return false;
            }
        }
        // Choose between the read and write queues.
        let write_pick = |me: &Self| {
            me.scheduler
                .pick_write(&me.writes, &me.reads, &me.banks, now)
        };
        let read_pick = |me: &Self| me.scheduler.pick_read(&me.reads, &me.banks, now);

        let picked = if self.draining {
            if let Some((i, p)) = write_pick(self) {
                Some((true, i, p))
            } else if self.scheduler.reads_during_drain() {
                read_pick(self).map(|(i, p)| (false, i, p))
            } else {
                None
            }
        } else if let Some((i, p)) = read_pick(self) {
            Some((false, i, p))
        } else if !self.writes.is_empty() && self.reads.is_empty() {
            // Opportunistic drain while the read queue is idle.
            write_pick(self).map(|(i, p)| (true, i, p))
        } else {
            None
        };
        let Some((from_writes, index, plan)) = picked.or_else(|| self.chaos_pick(now)) else {
            return false;
        };

        // tFAW: a DRAM rank admits at most four activations per rolling
        // window; hold a fifth until the window opens.
        if let Some(faw) = &self.faw {
            if plan.kind.senses() {
                let queue = if from_writes {
                    &self.writes
                } else {
                    &self.reads
                };
                let bank = queue
                    .iter()
                    .nth(index)
                    .expect("picked index exists")
                    .bank_index;
                let rank = bank as u32 / self.banks_per_rank;
                if now < faw.ready(rank as usize) {
                    return false;
                }
            }
        }

        // Issue-audit probe (opt-in): with the chosen command fixed and the
        // queues still untouched, re-plan every *other* queued entry
        // read-only to attribute its gate, and greedily count how many
        // ready peers are rook-compatible — (SAG, CD)-disjoint per bank —
        // with the chosen command and each other. Runs only at issue time,
        // so stepped and fast-forward runs (which issue at identical
        // cycles with identical state) produce bit-identical streams.
        let audit_probe = match &obs {
            Some(o) if o.audit_enabled() => Some(self.audit_probe(from_writes, index, now)),
            _ => None,
        };

        let removed = if from_writes {
            self.writes.remove(index)
        } else {
            self.reads.remove(index)
        };
        let pending = match removed {
            Ok(pending) => pending,
            Err(_) => {
                // Unreachable through the public API: scheduler picks are
                // derived from the very queue they are applied to. Degrade
                // to "nothing issued" in release builds rather than abort
                // a long run on a scheduler bug.
                debug_assert!(false, "scheduler pick named a nonexistent queue entry");
                return false;
            }
        };
        if from_writes {
            self.queued_writes_per_bank[pending.bank_index] -= 1;
        } else {
            self.queued_reads_per_bank[pending.bank_index] -= 1;
        }
        // Rank-to-rank bus turnaround: a burst from a different rank than
        // the previous one cannot start until tRTRS after it ends.
        let rank = pending.bank_index as u32 / self.banks_per_rank;
        let mut earliest = plan.earliest_data;
        if let Some((last_rank, last_end)) = self.last_burst {
            if last_rank != rank {
                earliest = earliest.max(last_end + T_RTRS);
            }
        }
        let data_start = self.bus.reserve(earliest);
        let issued = self.banks[pending.bank_index].commit(&pending.access, &plan, now, data_start);
        if plan.kind.senses() {
            if let Some(faw) = &mut self.faw {
                faw.record(rank as usize, now);
            }
        }
        // Track bus ownership for turnaround accounting (keep the later
        // burst end if an earlier reservation outlives this one).
        self.last_burst = match self.last_burst {
            Some((_, end)) if end > issued.data_end => Some((rank, end.max(issued.data_end))),
            _ => Some((rank, issued.data_end)),
        };
        self.log.push(CommandRecord {
            at: now,
            id: pending.request.id,
            op: pending.request.op,
            kind: issued.kind,
            bank_index: pending.bank_index,
            row: pending.access.row,
            coord: pending.access.coord,
            data_start: issued.data_start,
            retries: issued.faults.retries,
        });
        let mut obs = obs;
        if let Some(obs) = obs.as_deref_mut() {
            obs.on_command(&CommandIssue {
                channel: self.channel,
                bank: pending.bank_index as u32,
                id: pending.request.id.raw(),
                is_read: pending.request.op.is_read(),
                kind: issued.kind.label(),
                arrival: pending.request.arrival.raw(),
                at: now.raw(),
                earliest_data: plan.earliest_data.raw(),
                data_start: issued.data_start.raw(),
                data_end: issued.data_end.raw(),
                completion: issued.completion.raw(),
                row: pending.access.row,
                sag: pending.access.coord.sag,
                cd: pending.access.coord.cd_first,
                cd_count: pending.access.coord.cd_count,
                retries: issued.faults.retries,
            });
            if let Some(probe) = &audit_probe {
                obs.on_audit(&IssueAudit {
                    channel: self.channel,
                    bank: pending.bank_index as u32,
                    at: now.raw(),
                    is_read: pending.request.op.is_read(),
                    draining: self.draining,
                    sag: pending.access.coord.sag,
                    cd: pending.access.coord.cd_first,
                    considered: probe.considered,
                    blocked: probe.blocked,
                    ready_peers: probe.ready_peers,
                    co_issuable: probe.co_issuable,
                    missed: &probe.missed,
                });
            }
        }
        if pending.request.op.is_read() {
            // ECC sits between the bank and the channel: a corrected read
            // pays decode latency; an uncorrectable one pays a deeper
            // (RAID-style rebuild) penalty and marks the row for remap.
            let mut at = issued.data_end;
            if let Some(ecc) = self.ecc {
                let f = issued.faults;
                if f.bit_errors > 0 || f.stuck_fault {
                    if !f.stuck_fault && f.bit_errors <= ecc.correctable_bits {
                        stats.corrected_errors += 1;
                        at += ecc.decode_penalty;
                        if let Some(obs) = obs {
                            obs.on_instant(
                                InstantKind::EccCorrected,
                                self.channel,
                                pending.bank_index as u32,
                                now.raw(),
                            );
                        }
                    } else {
                        stats.uncorrectable_errors += 1;
                        at += CycleCount::new(ecc.decode_penalty.raw() * 4);
                        self.bad_rows.push((pending.bank_index, pending.access.row));
                        if let Some(obs) = obs {
                            obs.on_instant(
                                InstantKind::EccUncorrectable,
                                self.channel,
                                pending.bank_index as u32,
                                now.raw(),
                            );
                        }
                    }
                }
            }
            self.events.push(Reverse(Event {
                at,
                id_raw: pending.request.id.raw(),
                is_read: true,
                arrival: pending.request.arrival,
                tenant: pending.request.tenant,
            }));
        } else if issued.faults.verify_failed {
            // The write exhausted its on-die retry budget without a clean
            // verify: no completion is reported; the request goes back in
            // the write queue for a fresh issue once the (still occupied)
            // tile frees up. An always-failing device therefore livelocks
            // here — exactly what the simulation watchdog exists to catch.
            stats.reissued_writes += 1;
            if let Some(obs) = obs {
                obs.on_instant(
                    InstantKind::WriteReissue,
                    self.channel,
                    pending.bank_index as u32,
                    now.raw(),
                );
            }
            let requeued = self.writes.push(pending);
            debug_assert!(requeued, "slot was freed by the remove above");
            if requeued {
                self.queued_writes_per_bank[pending.bank_index] += 1;
            }
        } else {
            // Writes are posted: report completion when the cells finish
            // programming (useful for drain accounting; the CPU does not
            // block on it).
            self.events.push(Reverse(Event {
                at: issued.completion,
                id_raw: pending.request.id.raw(),
                is_read: false,
                arrival: pending.request.arrival,
                tenant: pending.request.tenant,
            }));
        }
        // The issue moved queue and bank state: the issue bound no longer
        // holds (nor does it for a second pick in the same tick).
        self.issue_bound.set(None);
        true
    }

    /// The audit probe behind [`issue_one`]'s opt-in decision record: with
    /// the chosen entry (position `index` of the `from_writes` queue) still
    /// in place, plans every other queued entry read-only and classifies it
    /// as gated (per [`BlockGate`]) or ready, then greedily builds the
    /// legal co-issue set — a ready peer joins when it is rook-compatible
    /// (distinct SAG *and* disjoint CD span) with the chosen command and
    /// every previously accepted peer on the same bank; peers on distinct
    /// banks are trivially parallel. Queue order (reads first, then
    /// writes) makes the greedy set deterministic.
    ///
    /// [`issue_one`]: Controller::issue_one
    fn audit_probe(&self, from_writes: bool, index: usize, now: Cycle) -> AuditProbe {
        let chosen_queue = if from_writes {
            &self.writes
        } else {
            &self.reads
        };
        let chosen = chosen_queue.iter().nth(index).expect("picked index exists");
        let mut probe = AuditProbe {
            considered: 0,
            blocked: [0; GATES],
            ready_peers: 0,
            co_issuable: 0,
            missed: Vec::new(),
        };
        // The accepted co-issue set, seeded with the chosen command:
        // (bank, sag, cd_first, cd_count) of everything already "issuing".
        let mut accepted: Vec<(usize, u32, u32, u32)> = vec![(
            chosen.bank_index,
            chosen.access.coord.sag,
            chosen.access.coord.cd_first,
            chosen.access.coord.cd_count,
        )];
        for (is_writes, queue) in [(false, &self.reads), (true, &self.writes)] {
            for (pos, p) in queue.iter().enumerate() {
                probe.considered += 1;
                if is_writes == from_writes && pos == index {
                    continue;
                }
                match self.banks[p.bank_index].plan(&p.access, now) {
                    Err(blocked) => {
                        let gate = match blocked.reason {
                            BlockReason::BankBusy => BlockGate::BankBusy,
                            BlockReason::SagBusy => BlockGate::SagBusy,
                            BlockReason::CdBusy => BlockGate::CdBusy,
                            BlockReason::ColumnPath => BlockGate::ColumnPath,
                            BlockReason::RowLocked => BlockGate::RowLocked,
                        };
                        probe.blocked[gate as usize] += 1;
                    }
                    Ok(_) => {
                        probe.ready_peers += 1;
                        let c = &p.access.coord;
                        let compatible = accepted.iter().all(|&(bank, sag, cd, cd_n)| {
                            bank != p.bank_index
                                || (sag != c.sag
                                    && !(c.cd_first < cd + cd_n && cd < c.cd_first + c.cd_count))
                        });
                        if compatible {
                            probe.co_issuable += 1;
                            probe.missed.push((c.sag, c.cd_first));
                            accepted.push((p.bank_index, c.sag, c.cd_first, c.cd_count));
                        }
                    }
                }
            }
        }
        probe
    }

    /// True when no requests are queued and no completions are pending.
    pub fn is_idle(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.events.is_empty()
    }

    /// True while at least one completion event is scheduled. A pending
    /// event is proof the channel is making forward progress (its retirement
    /// is a finite time away), which is what the watchdog distinguishes from
    /// a genuine livelock: a verify-failed write re-enters the queue
    /// *without* scheduling an event.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// The earliest instant at or after `now` at which a tick could change
    /// state: retire a completion or issue a command. `None` when the
    /// channel is idle (no instant ever will).
    ///
    /// This mirrors `tick`'s issue policy exactly — the queues a tick at
    /// that instant would consult, per-entry bank gates via
    /// [`Bank::next_ready_hint`] and, where the hint is inconclusive,
    /// `plan` itself. The result is a *lower bound*: ticking at it may
    /// still issue nothing (e.g. a tFAW-gated pick), in which case the
    /// caller simply single-steps; it never lies *late*, so skipping to it
    /// can never jump over real work.
    ///
    /// The result is memoized in this channel's calendar slot and reused
    /// until it expires or a state mutation clears it; the memo is exact,
    /// not merely sound (see `NextAt`), which the calendar differential
    /// suite verifies against [`next_event_at_linear`].
    ///
    /// [`next_event_at_linear`]: Controller::next_event_at_linear
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if let Some(cached) = self.next_cache.get() {
            match cached {
                // Nothing was queued or in flight, and only an enqueue
                // (which clears the memo) can change that.
                NextAt::Idle => return None,
                // A strictly future instant computed from unchanged state
                // is exactly what a fresh scan would return (see `NextAt`).
                NextAt::At(at) if at > now => return Some(at),
                // The memoized instant has arrived (or passed without a
                // mutation — e.g. a tFAW-gated pick issued nothing): the
                // bound is spent, recompute.
                NextAt::At(_) => {}
            }
        }
        let result = self.next_event_at_scan(now);
        self.next_cache.set(Some(match result {
            None => NextAt::Idle,
            Some(at) => NextAt::At(at),
        }));
        result
    }

    /// The calendar's scan: like [`next_event_at_linear`] but driven by
    /// the per-bank occupancy counts, so a fully gated channel costs one
    /// [`Bank::next_ready_hint`] call per *occupied bank* instead of one
    /// per queued entry. Per-entry `plan` consultation happens only for
    /// banks whose hint says "ready now" — exactly the entries the linear
    /// reference would consult too, so both compute the same minimum.
    ///
    /// [`next_event_at_linear`]: Controller::next_event_at_linear
    fn next_event_at_scan(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        let mut heap_at = Cycle::MAX;
        if let Some(Reverse(ev)) = self.events.peek() {
            if ev.at <= now {
                return Some(now);
            }
            heap_at = ev.at;
        }
        // Gate contributions (bank hints and blocked-plan retries) are
        // tracked apart from the event-heap head: their minimum is also
        // the issue bound published below, which must not be capped by a
        // completion instant — completions do not gate command issue.
        let mut gates = Cycle::MAX;
        let drain_next = self.drain.update(self.draining, self.writes.len());
        let consider_reads = !drain_next || self.scheduler.reads_during_drain();
        let consider_writes = drain_next || self.reads.is_empty();
        let queues = [
            (consider_reads, &self.reads, &self.queued_reads_per_bank),
            (consider_writes, &self.writes, &self.queued_writes_per_bank),
        ];
        for (consider, queue, counts) in queues {
            if !consider {
                continue;
            }
            for (bank_index, count) in counts.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                let bank = &self.banks[bank_index];
                let hint = bank.next_ready_hint(now);
                if hint > now {
                    // The bank cannot accept *any* access before `hint`,
                    // which gates every entry queued on it alike.
                    gates = gates.min(hint);
                    continue;
                }
                // Deduplicate plan calls by equivalence class (see
                // [`Bank::plan_class`]): a queue drains many same-shaped
                // accesses against one bank, so the dozens of entries here
                // usually collapse to a couple of verdicts. Fixed-size
                // stack buffer — classes beyond it just plan directly,
                // keeping the path allocation-free and exact either way.
                let mut classes = [(0u128, Cycle::MAX); 16];
                let mut class_count = 0usize;
                'entries: for pending in queue.iter().filter(|p| p.bank_index == bank_index) {
                    let key = bank.plan_class(&pending.access);
                    for &(k, retry) in &classes[..class_count] {
                        if k == key {
                            gates = gates.min(retry);
                            continue 'entries;
                        }
                    }
                    match bank.plan(&pending.access, now) {
                        Ok(_) => return Some(now),
                        Err(blocked) => {
                            debug_assert!(
                                blocked.retry_at > now,
                                "blocked plan must name a strictly future retry"
                            );
                            gates = gates.min(blocked.retry_at);
                            if class_count < classes.len() {
                                classes[class_count] = (key, blocked.retry_at);
                                class_count += 1;
                            }
                        }
                    }
                }
            }
        }
        // Every queued entry is provably gated until `gates`; retire-only
        // ticks before then can skip the pick scan (see `issue_bound`).
        self.issue_bound.set(Some(gates));
        Some(heap_at.min(gates))
    }

    /// The reference implementation of [`next_event_at`]: a full linear
    /// scan over the event heap and every queued request's bank gates,
    /// with no cross-call memoization. The memoized path must return
    /// exactly this value — the calendar differential suite pins that.
    ///
    /// [`next_event_at`]: Controller::next_event_at
    pub fn next_event_at_linear(&self, now: Cycle) -> Option<Cycle> {
        if self.is_idle() {
            return None;
        }
        let mut earliest = Cycle::MAX;
        if let Some(Reverse(ev)) = self.events.peek() {
            if ev.at <= now {
                return Some(now);
            }
            earliest = ev.at;
        }
        // Which queues would the next tick consider? `draining` is
        // settled from queue occupancy at every tick and across every
        // fast-forward skip (see `settle_drain`), so one update here is
        // exactly the value the next tick will see — any enqueue in
        // between clears the calendar memo and forces a rescan.
        let drain_next = self.drain.update(self.draining, self.writes.len());
        let consider_reads = !drain_next || self.scheduler.reads_during_drain();
        let consider_writes = drain_next || self.reads.is_empty();
        let queues = [
            (consider_reads, &self.reads),
            (consider_writes, &self.writes),
        ];
        for (consider, queue) in queues {
            if !consider {
                continue;
            }
            for pending in queue.iter() {
                let bank = &self.banks[pending.bank_index];
                let hint = bank.next_ready_hint(now);
                if hint > now {
                    // The bank cannot accept *any* access before `hint`.
                    earliest = earliest.min(hint);
                    continue;
                }
                match bank.plan(&pending.access, now) {
                    Ok(_) => return Some(now),
                    Err(blocked) => {
                        debug_assert!(
                            blocked.retry_at > now,
                            "blocked plan must name a strictly future retry"
                        );
                        earliest = earliest.min(blocked.retry_at);
                    }
                }
            }
        }
        Some(earliest)
    }

    /// The earliest instant any occupied bank could accept a command:
    /// `now` as soon as one occupied bank's hint has arrived (a pick must
    /// run), otherwise the minimum hint over every bank with at least one
    /// queued read or write (`Cycle::MAX` when both queues are empty).
    /// Banks occupied by *either* queue are consulted — a superset of
    /// whatever the drain policy would let the pick see, so a closed
    /// result is sound for every scheduler.
    fn earliest_bank_gate(&self, now: Cycle) -> Cycle {
        let mut earliest = Cycle::MAX;
        for counts in [&self.queued_reads_per_bank, &self.queued_writes_per_bank] {
            for (bank_index, count) in counts.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                let hint = self.banks[bank_index].next_ready_hint(now);
                if hint <= now {
                    return now;
                }
                earliest = earliest.min(hint);
            }
        }
        earliest
    }

    /// Switches the issue-gating strategy for event-driven (fast-forward)
    /// versus cycle-stepped operation; see
    /// `Controller::event_driven`. Both settings are
    /// bit-identical — this only moves where the work happens.
    pub fn set_event_driven(&mut self, enabled: bool) {
        self.event_driven = enabled;
        self.issue_bound.set(None);
    }

    /// Accounts the per-tick queue-depth statistics for `skipped` cycles
    /// that fast-forward elided. Queue contents are provably unchanged
    /// across a skip, so the bulk update is bit-identical to having ticked.
    pub fn account_skipped_cycles(&self, skipped: u64, stats: &mut SystemStats) {
        stats.read_queue_depth_sum += self.reads.len() as u64 * skipped;
        stats.queue_depth_samples += skipped;
    }

    /// Applies the drain-hysteresis updates the elided ticks would have
    /// applied. Queue occupancy is frozen across a skip and
    /// [`DrainPolicy::update`] is a fixpoint under constant occupancy, so
    /// one update folds the whole stretch. Fast-forward must call this
    /// when it skips: the flag otherwise stays stale until the next
    /// sparse tick, by which time *enqueues* may have moved the occupancy
    /// — the hysteresis would then read a future queue depth and diverge
    /// from a cycle-stepped run at the watermarks (a stepped run settles
    /// the flag every cycle, including the cycles a skip elides).
    pub fn settle_drain(&mut self) {
        self.draining = self.drain.update(self.draining, self.writes.len());
    }

    /// Occupancy of the read queue.
    pub fn read_queue_len(&self) -> usize {
        self.reads.len()
    }

    /// Occupancy of the write queue.
    pub fn write_queue_len(&self) -> usize {
        self.writes.len()
    }

    /// True while the write-drain state machine is active.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Sums the per-bank counters of this channel.
    pub fn bank_stats(&self) -> BankStats {
        let mut total = BankStats::new();
        for bank in &self.banks {
            total += *bank.stats();
        }
        total
    }

    /// The counters of each bank in this channel, in bank order.
    pub fn bank_stats_per_bank(&self) -> Vec<BankStats> {
        self.banks.iter().map(|b| *b.stats()).collect()
    }

    /// Cycles of data-bus occupancy so far.
    pub fn bus_busy_cycles(&self) -> CycleCount {
        self.bus.busy_cycles()
    }

    /// Enables command logging with the given ring-buffer capacity.
    pub fn enable_command_log(&mut self, capacity: usize) {
        self.log.enable(capacity);
    }

    /// The command log (empty unless enabled).
    pub fn command_log(&self) -> &CommandLog {
        &self.log
    }

    /// Drains the rows flagged uncorrectable since the last call, as
    /// `(bank_index, row)` pairs. The memory system remaps them to spares.
    pub fn take_bad_rows(&mut self) -> Vec<(usize, u32)> {
        std::mem::take(&mut self.bad_rows)
    }

    /// One-line-per-fact dump of queue and bank state, for the watchdog's
    /// diagnostic report. Includes why the head of each queue cannot issue.
    pub fn state_dump(&self, now: Cycle) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  reads={} writes={} events={} draining={}",
            self.reads.len(),
            self.writes.len(),
            self.events.len(),
            self.draining
        );
        for (label, queue) in [("read", &self.reads), ("write", &self.writes)] {
            for pending in queue.iter().take(4) {
                match self.banks[pending.bank_index].plan(&pending.access, now) {
                    Ok(_) => {
                        let _ = writeln!(
                            out,
                            "  {label} {} bank{} row{}: issuable",
                            pending.request.id, pending.bank_index, pending.access.row
                        );
                    }
                    Err(blocked) => {
                        let _ = writeln!(
                            out,
                            "  {label} {} bank{} row{}: {} (retry at {})",
                            pending.request.id,
                            pending.bank_index,
                            pending.access.row,
                            blocked.reason,
                            blocked.retry_at
                        );
                    }
                }
            }
        }
        out
    }

    /// Serialize every piece of mutable controller state (queues, in-flight
    /// completion events, bus occupancy, drain flag, tFAW windows, pending
    /// bad rows, scheduler state, command log, and all bank FSMs).
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("ctrl");
        w.u32(self.channel);
        self.reads.save_state(w);
        self.writes.save_state(w);
        // BinaryHeap iteration order is arbitrary; sort so identical state
        // always produces identical bytes.
        let mut events: Vec<Event> = self.events.iter().map(|e| e.0).collect();
        events.sort_unstable();
        w.usize(events.len());
        for e in events {
            w.u64(e.at.raw());
            w.u64(e.id_raw);
            w.bool(e.is_read);
            w.u64(e.arrival.raw());
            w.u32(u32::from(e.tenant));
        }
        self.bus.save_state(w);
        match self.last_burst {
            None => w.bool(false),
            Some((rank, end)) => {
                w.bool(true);
                w.u32(rank);
                w.u64(end.raw());
            }
        }
        w.bool(self.draining);
        match &self.faw {
            None => w.bool(false),
            Some(faw) => {
                w.bool(true);
                w.usize(faw.windows.len());
                for window in &faw.windows {
                    for slot in window {
                        w.opt_u64(slot.map(Cycle::raw));
                    }
                }
            }
        }
        w.usize(self.bad_rows.len());
        for (bank_index, row) in &self.bad_rows {
            w.usize(*bank_index);
            w.u32(*row);
        }
        self.scheduler.save_state(w);
        self.log.save_state(w);
        w.bool(self.chaos);
        w.usize(self.banks.len());
        for bank in &self.banks {
            bank.save_state(w);
        }
    }

    /// Restore state written by [`Controller::save_state`] into a freshly
    /// built controller of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// stream is truncated, corrupt, or describes a different channel or
    /// bank layout.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("ctrl")?;
        let channel = r.u32()?;
        if channel != self.channel {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint is for channel {channel}, controller is channel {}",
                self.channel
            )));
        }
        self.reads.load_state(r)?;
        self.writes.load_state(r)?;
        let n_events = r.usize()?;
        self.events.clear();
        for _ in 0..n_events {
            let at = Cycle::new(r.u64()?);
            let id_raw = r.u64()?;
            let is_read = r.bool()?;
            let arrival = Cycle::new(r.u64()?);
            let tenant = r.u32()? as u16;
            self.events.push(Reverse(Event {
                at,
                id_raw,
                is_read,
                arrival,
                tenant,
            }));
        }
        self.bus.load_state(r)?;
        self.last_burst = if r.bool()? {
            let rank = r.u32()?;
            let end = Cycle::new(r.u64()?);
            Some((rank, end))
        } else {
            None
        };
        self.draining = r.bool()?;
        let has_faw = r.bool()?;
        if has_faw != self.faw.is_some() {
            return Err(fgnvm_types::SnapshotError::Corrupt(
                "tFAW tracker presence mismatch between checkpoint and config".into(),
            ));
        }
        if let Some(faw) = &mut self.faw {
            let ranks = r.usize()?;
            if ranks != faw.windows.len() {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "checkpoint has {ranks} tFAW ranks, config has {}",
                    faw.windows.len()
                )));
            }
            for window in &mut faw.windows {
                for slot in window.iter_mut() {
                    *slot = r.opt_u64()?.map(Cycle::new);
                }
            }
        }
        let n_bad = r.usize()?;
        self.bad_rows.clear();
        for _ in 0..n_bad {
            let bank_index = r.usize()?;
            let row = r.u32()?;
            self.bad_rows.push((bank_index, row));
        }
        self.scheduler.load_state(r)?;
        self.log = CommandLog::load_state(r)?;
        self.chaos = r.bool()?;
        let n_banks = r.usize()?;
        if n_banks != self.banks.len() {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint has {n_banks} banks, config has {}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.load_state(r)?;
        }
        // Everything the calendar slot was derived from may have changed.
        self.next_cache.set(None);
        self.issue_bound.set(None);
        self.queued_reads_per_bank.fill(0);
        for p in self.reads.iter() {
            let Some(count) = self.queued_reads_per_bank.get_mut(p.bank_index) else {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "queued read names bank {}, channel has {n_banks} banks",
                    p.bank_index
                )));
            };
            *count += 1;
        }
        self.queued_writes_per_bank.fill(0);
        for p in self.writes.iter() {
            let Some(count) = self.queued_writes_per_bank.get_mut(p.bank_index) else {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "queued write names bank {}, channel has {n_banks} banks",
                    p.bank_index
                )));
            };
            *count += 1;
        }
        // Restored queues can legally hold a full complement of requests;
        // keep the event heap's no-reallocation guarantee intact.
        let reserve = self.reads.capacity() + self.writes.capacity() + 64;
        if self.events.capacity() < reserve {
            self.events.reserve(reserve - self.events.len());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_bank::Access;
    use fgnvm_types::address::{DecodedAddr, PhysAddr, TileCoord};
    use fgnvm_types::request::{Request, RequestId};

    fn controller(config: &SystemConfig) -> Controller {
        Controller::new(config).unwrap()
    }

    fn pending(id: u64, op: Op, bank: usize, row: u32, line: u32) -> Pending {
        Pending {
            request: Request::new(
                RequestId::new(id),
                op,
                PhysAddr::new(id * 64 + ((bank as u64) << 10)),
                Cycle::ZERO,
            ),
            decoded: DecodedAddr {
                channel: 0,
                rank: 0,
                bank: bank as u32,
                row,
                line,
            },
            access: Access {
                op,
                row,
                line,
                coord: TileCoord {
                    sag: 0,
                    cd_first: 0,
                    cd_count: 1,
                },
            },
            bank_index: bank,
        }
    }

    #[test]
    fn drain_mode_engages_and_releases_on_watermarks() {
        let config = SystemConfig::baseline();
        let mut c = controller(&config);
        let mut stats = SystemStats::new();
        // Fill the write queue past the high watermark (48 of 64) with
        // unique addresses spread over banks.
        for i in 0..50u64 {
            let p = pending(i, Op::Write, (i % 8) as usize, (i / 8) as u32, 0);
            assert_eq!(c.enqueue(p, Cycle::ZERO, &mut stats), Enqueue::Accepted);
        }
        assert!(!c.is_draining(), "drain engages at the next tick");
        let mut out = Vec::new();
        c.tick(Cycle::ZERO, &mut stats, &mut out, None);
        assert!(c.is_draining());
        // Tick until the queue falls to the low watermark (16).
        let mut now = Cycle::ZERO;
        for _ in 0..20_000 {
            now.advance();
            c.tick(now, &mut stats, &mut out, None);
            if !c.is_draining() {
                break;
            }
        }
        assert!(
            !c.is_draining(),
            "drain should release at the low watermark"
        );
        assert!(c.write_queue_len() <= 16);
    }

    #[test]
    fn tfaw_limits_rank_activation_rate() {
        // Eight cold reads to eight different DRAM banks on one rank: the
        // first four activations may issue back-to-back, but any rolling
        // tFAW window must contain at most four activations.
        let config = SystemConfig::dram();
        let mut c = controller(&config);
        c.log.enable(64);
        let mut stats = SystemStats::new();
        let t_faw = RefreshCycles::ddr3_like().t_faw;
        // Start past every staggered refresh window phase.
        let start = 3_200u64;
        for bank in 0..8usize {
            let p = pending(bank as u64, Op::Read, bank, 5, 0);
            assert_eq!(
                c.enqueue(p, Cycle::new(start), &mut stats),
                Enqueue::Accepted
            );
        }
        let mut out = Vec::new();
        for t in 0..400u64 {
            c.tick(Cycle::new(start + t), &mut stats, &mut out, None);
        }
        let acts: Vec<Cycle> = c
            .log
            .records()
            .filter(|r| r.kind.senses())
            .map(|r| r.at)
            .collect();
        assert_eq!(acts.len(), 8, "all eight activations eventually issue");
        for window in acts.windows(5) {
            assert!(
                window[4] >= window[0] + t_faw,
                "five activations inside one tFAW window: {window:?}"
            );
        }
        // And the gate actually bound: the fifth activation was pushed to
        // at least t_faw after the first.
        assert!(acts[4] >= acts[0] + t_faw);
    }

    #[test]
    fn commands_per_cycle_budget_is_respected() {
        // Multi-issue width 2: two cold reads to different banks issue in
        // one tick; width 1 issues only one.
        for (width, expected_after_one_tick) in [(1u32, 1usize), (2, 2)] {
            let mut config = SystemConfig::fgnvm_multi_issue(8, 2, width.max(1)).unwrap();
            config.commands_per_cycle = width;
            config.data_bus_width = width;
            let mut c = controller(&config);
            let mut stats = SystemStats::new();
            c.enqueue(pending(0, Op::Read, 0, 0, 0), Cycle::ZERO, &mut stats);
            c.enqueue(pending(1, Op::Read, 1, 0, 0), Cycle::ZERO, &mut stats);
            let mut out = Vec::new();
            c.tick(Cycle::ZERO, &mut stats, &mut out, None);
            assert_eq!(
                2 - c.read_queue_len(),
                expected_after_one_tick,
                "width {width}"
            );
        }
    }

    #[test]
    fn completions_deliver_in_time_order() {
        let config = SystemConfig::baseline();
        let mut c = controller(&config);
        let mut stats = SystemStats::new();
        c.enqueue(pending(0, Op::Read, 0, 0, 0), Cycle::ZERO, &mut stats);
        c.enqueue(pending(1, Op::Read, 1, 0, 0), Cycle::ZERO, &mut stats);
        let mut out = Vec::new();
        let mut now = Cycle::ZERO;
        for _ in 0..200 {
            c.tick(now, &mut stats, &mut out, None);
            now.advance();
        }
        assert_eq!(out.len(), 2);
        assert!(out[0].finished <= out[1].finished);
        assert!(c.is_idle());
    }

    #[test]
    fn opportunistic_drain_runs_writes_when_reads_are_idle() {
        let config = SystemConfig::baseline();
        let mut c = controller(&config);
        let mut stats = SystemStats::new();
        // A single write, far below the watermark.
        c.enqueue(pending(0, Op::Write, 0, 0, 0), Cycle::ZERO, &mut stats);
        let mut out = Vec::new();
        let mut now = Cycle::ZERO;
        for _ in 0..200 {
            c.tick(now, &mut stats, &mut out, None);
            now.advance();
        }
        assert!(c.is_idle(), "idle read queue should not strand writes");
        assert_eq!(c.bank_stats().writes, 1);
    }
}
