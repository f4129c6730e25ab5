//! Memory-request scheduling policies.
//!
//! * [`Fcfs`] — strict arrival order: only the oldest request may issue.
//! * [`Frfcfs`] — first-ready FCFS (Rixner et al., the paper's baseline
//!   scheduler): among issuable requests, row-buffer hits go first, then the
//!   oldest issuable request.
//! * [`FrfcfsTlp`] — the paper's "augmented FRFCFS": FRFCFS extended with
//!   tile-level-parallelism awareness. Reads keep issuing while the write
//!   queue drains (exploiting Backgrounded Writes), and drained writes are
//!   chosen to conflict with as few queued reads as possible.

use std::cell::Cell;
use std::fmt;

use fgnvm_bank::{AccessPlan, Bank, PlanKind};
use fgnvm_types::config::SchedulerKind;
use fgnvm_types::time::Cycle;

use crate::queues::{BankEntries, Pending, RequestQueue};

/// A scheduling decision: which queue entry to issue and its plan.
pub type Pick = (usize, AccessPlan);

/// The channel's banks as one queue's pick sees them: the bank models plus,
/// per bank, the queue's issue bound there — no entry of that queue on the
/// bank can issue before it. The controller keeps the bounds (see
/// `Controller`); a pick skips every entry whose bank's bound has not
/// arrived instead of asking the bank, which is exact because `plan` would
/// refuse those entries.
#[derive(Debug, Clone, Copy)]
pub struct BankView<'a> {
    banks: &'a [Box<dyn Bank>],
    entries: &'a [BankEntries],
}

impl<'a> BankView<'a> {
    /// Pairs `banks` with one queue's per-bank `entries`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub(crate) fn new(banks: &'a [Box<dyn Bank>], entries: &'a [BankEntries]) -> Self {
        assert_eq!(banks.len(), entries.len(), "one issue bound per bank");
        BankView { banks, entries }
    }

    /// The bank at `index`.
    pub fn bank(&self, index: usize) -> &dyn Bank {
        self.banks[index].as_ref()
    }

    /// `pending`'s plan at `now`, or `None` when it cannot issue — without
    /// consulting the bank when the bank's issue bound is still ahead.
    pub fn plan(&self, pending: &Pending, now: Cycle) -> Option<AccessPlan> {
        if self.entries[pending.bank_index].bound.get() > now {
            return None;
        }
        self.banks[pending.bank_index]
            .plan(&pending.access, now)
            .ok()
    }
}

/// A request-selection policy over one controller's queues.
pub trait Scheduler: fmt::Debug + Send {
    /// Chooses the next read to issue, if any is issuable at `now`.
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick>;

    /// Chooses the next write to drain, if any is issuable at `now`.
    ///
    /// `reads` is the read queue, made available so TLP-aware policies can
    /// avoid draining writes into (SAG, CD) pairs that pending reads need.
    fn pick_write(
        &self,
        queue: &RequestQueue,
        reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick>;

    /// Whether reads may continue to issue while a write drain is active.
    fn reads_during_drain(&self) -> bool;

    /// Serialize any mutable scheduling state into a checkpoint. Stateless
    /// policies (the default) write nothing.
    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        let _ = w;
    }

    /// Restore state written by [`Scheduler::save_state`]. Stateless
    /// policies (the default) read nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mismatched stream.
    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// Creates the scheduler named by `kind`.
///
/// ```
/// use fgnvm_mem::scheduler::make_scheduler;
/// use fgnvm_types::SchedulerKind;
///
/// let tlp = make_scheduler(SchedulerKind::FrfcfsTlp);
/// assert!(tlp.reads_during_drain()); // the TLP augmentation's signature
/// let plain = make_scheduler(SchedulerKind::Frfcfs);
/// assert!(!plain.reads_during_drain());
/// ```
pub fn make_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fcfs => Box::new(Fcfs),
        SchedulerKind::Frfcfs => Box::new(Frfcfs),
        SchedulerKind::FrfcfsTlp => Box::new(FrfcfsTlp),
        SchedulerKind::FrfcfsCap => Box::new(FrfcfsCap::new(4)),
        SchedulerKind::FrfcfsQos => Box::new(FrfcfsQos::new()),
    }
}

/// Scans the queue in arrival order: returns the first issuable row hit,
/// else the oldest issuable *demand* request, else the oldest issuable
/// prefetch (demand misses outrank speculative traffic).
fn first_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    let mut oldest_demand: Option<Pick> = None;
    let mut oldest_prefetch: Option<Pick> = None;
    for (index, pending) in queue.iter().enumerate() {
        if let Some(plan) = banks.plan(pending, now) {
            if plan.kind == PlanKind::RowHit {
                return Some((index, plan));
            }
            let slot = match pending.request.priority {
                fgnvm_types::Priority::Demand => &mut oldest_demand,
                fgnvm_types::Priority::Prefetch => &mut oldest_prefetch,
            };
            if slot.is_none() {
                *slot = Some((index, plan));
            }
        }
    }
    oldest_demand.or(oldest_prefetch)
}

/// Oldest issuable request, ignoring row-hit preference.
fn oldest_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    queue
        .iter()
        .enumerate()
        .find_map(|(index, pending)| banks.plan(pending, now).map(|plan| (index, plan)))
}

/// The queue head's plan, if it can issue (strict arrival order).
fn head_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    let head = queue.iter().next()?;
    banks.plan(head, now).map(|plan| (0, plan))
}

/// Strict first-come first-serve: only the queue head may issue.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        head_ready(queue, banks, now)
    }

    fn pick_write(
        &self,
        queue: &RequestQueue,
        _reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        head_ready(queue, banks, now)
    }

    fn reads_during_drain(&self) -> bool {
        false
    }
}

/// First-ready FCFS: row hits first, then oldest issuable.
#[derive(Debug, Clone, Copy, Default)]
pub struct Frfcfs;

impl Scheduler for Frfcfs {
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        first_ready(queue, banks, now)
    }

    fn pick_write(
        &self,
        queue: &RequestQueue,
        _reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        first_ready(queue, banks, now)
    }

    fn reads_during_drain(&self) -> bool {
        false
    }
}

/// FRFCFS augmented with tile-level-parallelism awareness (the paper's
/// second scheduler).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrfcfsTlp;

impl Scheduler for FrfcfsTlp {
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        first_ready(queue, banks, now)
    }

    fn pick_write(
        &self,
        queue: &RequestQueue,
        reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        // Two rules keep backgrounded writes cheap:
        // 1. never stack a second in-flight write into a bank (each write
        //    locks a whole column division, so stacking writes can close a
        //    bank to reads entirely);
        // 2. among the remaining issuable writes, prefer one whose SAG/CD
        //    no queued read touches.
        // Fall back to plain FRFCFS order if every choice conflicts.
        let mut fallback: Option<Pick> = None;
        let mut second: Option<Pick> = None;
        for (index, pending) in queue.iter().enumerate() {
            let Some(plan) = banks.plan(pending, now) else {
                continue;
            };
            if fallback.is_none() {
                fallback = Some((index, plan));
            }
            if banks.bank(pending.bank_index).write_in_progress(now) {
                continue;
            }
            let conflicts = reads.iter().any(|r| {
                r.bank_index == pending.bank_index
                    && (r.access.coord.sag == pending.access.coord.sag
                        || r.access.coord.cd_overlaps(&pending.access.coord))
            });
            if !conflicts {
                return Some((index, plan));
            }
            if second.is_none() {
                second = Some((index, plan));
            }
        }
        second.or(fallback)
    }

    fn reads_during_drain(&self) -> bool {
        true
    }
}

/// Issue bounds that gate nothing, so picks plan every entry: the pick
/// tests exercise the policies, not the controller's bounds.
#[cfg(test)]
fn ungated(banks: &[Box<dyn Bank>]) -> Vec<BankEntries> {
    vec![BankEntries::default(); banks.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queues::Pending;
    use fgnvm_bank::{Access, FgnvmBank, Modes};
    use fgnvm_types::address::{DecodedAddr, PhysAddr, TileCoord};
    use fgnvm_types::geometry::Geometry;
    use fgnvm_types::request::{Op, Request, RequestId};
    use fgnvm_types::TimingConfig;

    fn bank_array() -> (Geometry, Vec<Box<dyn Bank>>) {
        let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let bank: Box<dyn Bank> =
            Box::new(FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap());
        (geom, vec![bank])
    }

    fn pending(geom: &Geometry, id: u64, op: Op, row: u32, line: u32) -> Pending {
        let (cd_first, cd_count) = geom.cds_of_line(line);
        Pending {
            request: Request::new(RequestId::new(id), op, PhysAddr::new(id * 64), Cycle::ZERO),
            decoded: DecodedAddr {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                line,
            },
            access: Access {
                op,
                row,
                line,
                coord: TileCoord {
                    sag: geom.sag_of_row(row),
                    cd_first,
                    cd_count,
                },
            },
            bank_index: 0,
        }
    }

    #[test]
    fn frfcfs_prefers_row_hit() {
        let (geom, mut banks) = bank_array();
        // Open row 0 / CD 0 by committing a read.
        let opener = pending(&geom, 0, Op::Read, 0, 0);
        let plan = banks[0].plan(&opener.access, Cycle::ZERO).unwrap();
        let issued = banks[0].commit(&opener.access, &plan, Cycle::ZERO, plan.earliest_data);
        let now = issued.data_end;
        // Queue: old miss (row 9) then a hit (row 0 line 1).
        let mut q = RequestQueue::new(8);
        q.push(pending(&geom, 1, Op::Read, 9, 8));
        q.push(pending(&geom, 2, Op::Read, 0, 1));
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        let (idx, picked) = Frfcfs.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(picked.kind, PlanKind::RowHit);
        // FCFS instead honors arrival order.
        let (idx, _) = Fcfs.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn fcfs_blocks_behind_unissuable_head() {
        let (geom, mut banks) = bank_array();
        // Write occupies SAG 0 for a long time.
        let w = pending(&geom, 0, Op::Write, 0, 0);
        let plan = banks[0].plan(&w.access, Cycle::ZERO).unwrap();
        banks[0].commit(&w.access, &plan, Cycle::ZERO, plan.earliest_data);
        let now = Cycle::new(10);
        let mut q = RequestQueue::new(8);
        q.push(pending(&geom, 1, Op::Read, 1, 4)); // same SAG: blocked
        q.push(pending(&geom, 2, Op::Read, geom.rows_per_sag(), 4)); // free pair
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        assert!(Fcfs.pick_read(&q, view, now).is_none());
        // FRFCFS skips the blocked head.
        let (idx, _) = Frfcfs.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn tlp_write_pick_avoids_read_conflicts() {
        let (geom, banks) = bank_array();
        let now = Cycle::ZERO;
        let mut writes = RequestQueue::new(8);
        writes.push(pending(&geom, 0, Op::Write, 0, 0)); // SAG 0, CD 0
        writes.push(pending(&geom, 1, Op::Write, geom.rows_per_sag() * 2, 8)); // SAG 2, CD 2
        let mut reads = RequestQueue::new(8);
        reads.push(pending(&geom, 2, Op::Read, 1, 12)); // SAG 0 — conflicts with write 0
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        let (idx, _) = FrfcfsTlp.pick_write(&writes, &reads, view, now).unwrap();
        assert_eq!(idx, 1, "TLP drain should pick the conflict-free write");
        // Plain FRFCFS drains in order.
        let (idx, _) = Frfcfs.pick_write(&writes, &reads, view, now).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn drain_read_policy_flags() {
        assert!(!Fcfs.reads_during_drain());
        assert!(!Frfcfs.reads_during_drain());
        assert!(FrfcfsTlp.reads_during_drain());
    }

    #[test]
    fn factory_maps_kinds() {
        for kind in [
            SchedulerKind::Fcfs,
            SchedulerKind::Frfcfs,
            SchedulerKind::FrfcfsTlp,
        ] {
            let s = make_scheduler(kind);
            let _ = s.reads_during_drain();
        }
    }
}

/// FRFCFS with a row-hit streak cap (in the spirit of BLISS / FR-FCFS+Cap):
/// hit-friendly scheduling, but after `cap` consecutive row-hit grants the
/// oldest issuable request is served regardless, bounding starvation of
/// row-miss traffic behind a streaming hit sequence.
#[derive(Debug, Default)]
pub struct FrfcfsCap {
    cap: u32,
    streak: Cell<u32>,
}

impl FrfcfsCap {
    /// Creates the policy with the given consecutive-hit cap.
    pub fn new(cap: u32) -> Self {
        FrfcfsCap {
            cap: cap.max(1),
            streak: Cell::new(0),
        }
    }

    fn capped_pick(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        let pick = if self.streak.get() >= self.cap {
            oldest_ready(queue, banks, now)
        } else {
            first_ready(queue, banks, now)
        };
        if let Some((_, plan)) = &pick {
            if plan.kind == PlanKind::RowHit && self.streak.get() < self.cap {
                self.streak.set(self.streak.get() + 1);
            } else {
                self.streak.set(0);
            }
        }
        pick
    }
}

impl Scheduler for FrfcfsCap {
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        self.capped_pick(queue, banks, now)
    }

    fn pick_write(
        &self,
        queue: &RequestQueue,
        _reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        self.capped_pick(queue, banks, now)
    }

    fn reads_during_drain(&self) -> bool {
        false
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("sched.cap");
        w.u32(self.streak.get());
    }

    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("sched.cap")?;
        self.streak.set(r.u32()?);
        Ok(())
    }
}

/// FRFCFS with tenant fairness: among issuable requests, the tenant with
/// the least service so far goes first (ties break toward the lower
/// tenant id), and *within* the chosen tenant the usual FRFCFS order
/// applies — row hits first, then oldest demand, then oldest prefetch.
/// Both the read pick and the write drain use the same least-service
/// rule, so neither a read storm nor a write burst from one tenant can
/// monopolize the channel.
///
/// Service is counted in granted commands per tenant — interior-mutable
/// like [`FrfcfsCap`]'s streak, and mutated only when a pick is returned,
/// so eliding a provably empty pick stays bit-identical (the controller's
/// calendar relies on that).
#[derive(Debug, Default)]
pub struct FrfcfsQos {
    served: std::cell::RefCell<Vec<u64>>,
}

impl FrfcfsQos {
    /// Creates the policy with zeroed service counters.
    pub fn new() -> Self {
        FrfcfsQos::default()
    }

    fn served(&self, tenant: u16) -> u64 {
        self.served
            .borrow()
            .get(usize::from(tenant))
            .copied()
            .unwrap_or(0)
    }

    fn grant(&self, tenant: u16) {
        let mut served = self.served.borrow_mut();
        let index = usize::from(tenant);
        if served.len() <= index {
            served.resize(index + 1, 0);
        }
        served[index] += 1;
    }

    /// One arrival-order pass: tracks the least-served tenant that has at
    /// least one issuable entry, and within that tenant the best pick by
    /// FRFCFS layering (row hit > oldest demand > oldest prefetch).
    fn qos_pick(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        let mut best_key: Option<(u64, u16)> = None;
        let mut hit: Option<Pick> = None;
        let mut demand: Option<Pick> = None;
        let mut prefetch: Option<Pick> = None;
        for (index, pending) in queue.iter().enumerate() {
            let Some(plan) = banks.plan(pending, now) else {
                continue;
            };
            let tenant = pending.request.tenant;
            let key = (self.served(tenant), tenant);
            match best_key {
                Some(best) if key > best => continue,
                Some(best) if key == best => {}
                _ => {
                    // Strictly better tenant: restart the within-tenant
                    // layering from this entry.
                    best_key = Some(key);
                    hit = None;
                    demand = None;
                    prefetch = None;
                }
            }
            if plan.kind == PlanKind::RowHit {
                if hit.is_none() {
                    hit = Some((index, plan));
                }
            } else {
                let slot = match pending.request.priority {
                    fgnvm_types::Priority::Demand => &mut demand,
                    fgnvm_types::Priority::Prefetch => &mut prefetch,
                };
                if slot.is_none() {
                    *slot = Some((index, plan));
                }
            }
        }
        let pick = hit.or(demand).or(prefetch);
        if pick.is_some() {
            let (_, tenant) = best_key.expect("a pick implies a best tenant");
            self.grant(tenant);
        }
        pick
    }
}

impl Scheduler for FrfcfsQos {
    fn pick_read(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        self.qos_pick(queue, banks, now)
    }

    fn pick_write(
        &self,
        queue: &RequestQueue,
        _reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        self.qos_pick(queue, banks, now)
    }

    fn reads_during_drain(&self) -> bool {
        // Latency-critical reads keep flowing while writes drain, so one
        // tenant's write burst cannot inflate every tenant's read tail.
        true
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("sched.qos");
        let served = self.served.borrow();
        w.usize(served.len());
        for s in served.iter() {
            w.u64(*s);
        }
    }

    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("sched.qos")?;
        let n = r.count()?;
        let mut served = Vec::with_capacity(n);
        for _ in 0..n {
            served.push(r.u64()?);
        }
        *self.served.borrow_mut() = served;
        Ok(())
    }
}

#[cfg(test)]
mod qos_tests {
    use super::*;
    use crate::queues::Pending;
    use fgnvm_bank::{Access, FgnvmBank, Modes};
    use fgnvm_types::address::{DecodedAddr, PhysAddr, TileCoord};
    use fgnvm_types::geometry::Geometry;
    use fgnvm_types::request::{Op, Request, RequestId};
    use fgnvm_types::TimingConfig;

    fn banks() -> (Geometry, Vec<Box<dyn Bank>>) {
        let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let bank: Box<dyn Bank> =
            Box::new(FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap());
        (geom, vec![bank])
    }

    fn read_for(geom: &Geometry, id: u64, tenant: u16, row: u32, line: u32) -> Pending {
        let (cd_first, cd_count) = geom.cds_of_line(line);
        Pending {
            request: Request::new(
                RequestId::new(id),
                Op::Read,
                PhysAddr::new(id * 64),
                Cycle::ZERO,
            )
            .with_tenant(tenant),
            decoded: DecodedAddr {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                line,
            },
            access: Access {
                op: Op::Read,
                row,
                line,
                coord: TileCoord {
                    sag: geom.sag_of_row(row),
                    cd_first,
                    cd_count,
                },
            },
            bank_index: 0,
        }
    }

    #[test]
    fn qos_alternates_between_equally_served_tenants() {
        let (geom, banks) = banks();
        let sched = FrfcfsQos::new();
        let now = Cycle::ZERO;
        // Tenant 0 floods the queue ahead of tenant 1; every entry targets
        // a distinct SAG so all are issuable misses.
        let mut q = RequestQueue::new(8);
        q.push(read_for(&geom, 0, 0, 0, 0));
        q.push(read_for(&geom, 1, 0, geom.rows_per_sag(), 4));
        q.push(read_for(&geom, 2, 1, geom.rows_per_sag() * 2, 8));
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        // Equal service (0 each): the tie breaks to tenant 0's oldest.
        let (idx, _) = sched.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 0);
        q.remove(idx).unwrap();
        // Tenant 0 has now been served once; tenant 1 must go next even
        // though tenant 0's second request is older.
        let (idx, _) = sched.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 1, "least-served tenant outranks arrival order");
        q.remove(idx).unwrap();
        // Back to tenant 0.
        let (idx, _) = sched.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn qos_prefers_row_hits_within_the_chosen_tenant() {
        let (geom, mut banks_v) = banks();
        // Open row 0 by committing a read.
        let opener = read_for(&geom, 9, 0, 0, 0);
        let plan = banks_v[0].plan(&opener.access, Cycle::ZERO).unwrap();
        let issued = banks_v[0].commit(&opener.access, &plan, Cycle::ZERO, plan.earliest_data);
        let now = issued.data_end;
        let sched = FrfcfsQos::new();
        let mut q = RequestQueue::new(8);
        // Same tenant: an older miss and a younger hit — the hit goes
        // first, exactly like plain FRFCFS.
        q.push(read_for(&geom, 0, 3, geom.rows_per_sag(), 4));
        q.push(read_for(&geom, 1, 3, 0, 1));
        let bounds = ungated(&banks_v);
        let view = BankView::new(&banks_v, &bounds);
        let (idx, plan) = sched.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(plan.kind, PlanKind::RowHit);
    }

    #[test]
    fn qos_pick_none_leaves_service_state_untouched() {
        let (geom, banks) = banks();
        let sched = FrfcfsQos::new();
        let q = RequestQueue::new(8);
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        assert!(sched.pick_read(&q, view, Cycle::ZERO).is_none());
        assert!(sched.served.borrow().is_empty());
        let _ = geom;
    }

    #[test]
    fn qos_state_round_trips() {
        let sched = FrfcfsQos::new();
        sched.grant(0);
        sched.grant(2);
        sched.grant(2);
        let mut w = fgnvm_types::SnapshotWriter::new();
        sched.save_state(&mut w);
        let blob = w.finish();
        let mut r = fgnvm_types::SnapshotReader::new(&blob).unwrap();
        let mut restored = FrfcfsQos::new();
        restored.load_state(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(*restored.served.borrow(), vec![1, 0, 2]);
    }

    #[test]
    fn factory_builds_qos() {
        let s = make_scheduler(SchedulerKind::FrfcfsQos);
        assert!(s.reads_during_drain());
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use crate::queues::Pending;
    use fgnvm_bank::{Access, BaselineBank};
    use fgnvm_types::address::{DecodedAddr, PhysAddr, TileCoord};
    use fgnvm_types::geometry::Geometry;
    use fgnvm_types::request::{Op, Request, RequestId};
    use fgnvm_types::TimingConfig;

    fn opened_bank() -> Vec<Box<dyn Bank>> {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = BaselineBank::new(&geom, timing);
        let opener = Access {
            op: Op::Read,
            row: 0,
            line: 0,
            coord: TileCoord {
                sag: 0,
                cd_first: 0,
                cd_count: 1,
            },
        };
        let plan = bank.plan(&opener, Cycle::ZERO).unwrap();
        bank.commit(&opener, &plan, Cycle::ZERO, plan.earliest_data);
        vec![Box::new(bank)]
    }

    fn read(id: u64, row: u32, line: u32) -> Pending {
        Pending {
            request: Request::new(
                RequestId::new(id),
                Op::Read,
                PhysAddr::new(id * 64),
                Cycle::ZERO,
            ),
            decoded: DecodedAddr {
                channel: 0,
                rank: 0,
                bank: 0,
                row,
                line,
            },
            access: Access {
                op: Op::Read,
                row,
                line,
                coord: TileCoord {
                    sag: 0,
                    cd_first: 0,
                    cd_count: 1,
                },
            },
            bank_index: 0,
        }
    }

    #[test]
    fn cap_breaks_hit_streaks() {
        let banks = opened_bank();
        let sched = FrfcfsCap::new(2);
        let now = Cycle::new(1000);
        // Queue: an old row-miss behind a stream of hits to row 0.
        let mut q = RequestQueue::new(8);
        q.push(read(0, 7, 0)); // miss, oldest
        for i in 1..5 {
            q.push(read(i, 0, i as u32)); // hits
        }
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        // First two picks: hits (indices > 0).
        for _ in 0..2 {
            let (idx, plan) = sched.pick_read(&q, view, now).unwrap();
            assert!(idx > 0);
            assert_eq!(plan.kind, PlanKind::RowHit);
        }
        // Third pick: the cap fires and the old miss is served.
        let (idx, plan) = sched.pick_read(&q, view, now).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(plan.kind, PlanKind::Activate);
        // Streak reset: hits may flow again.
        let (idx, _) = sched.pick_read(&q, view, now).unwrap();
        assert!(idx > 0);
    }

    #[test]
    fn factory_builds_cap() {
        let s = make_scheduler(SchedulerKind::FrfcfsCap);
        assert!(!s.reads_during_drain());
    }
}
