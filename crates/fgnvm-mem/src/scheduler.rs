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
//!
//! Every policy is defined over the queue's arrival order, and every pick
//! finds it one bank at a time: it walks the lists of the occupied banks
//! whose issue bound has arrived and keeps, per rule, the candidate with
//! the smallest [`Key`] (the oldest), so it returns exactly the entry a
//! single arrival-order pass would.

use std::cell::Cell;
use std::fmt;

use fgnvm_bank::{AccessPlan, Bank, PlanKind};
use fgnvm_types::config::SchedulerKind;
use fgnvm_types::time::Cycle;

use crate::queues::{Key, Pending, RequestQueue};

/// A scheduling decision: which queue entry to issue and its plan.
pub type Pick = (Key, AccessPlan);

/// The channel's banks as one queue's pick sees them: the bank models plus,
/// per bank, the queue's issue bound there — no entry of that queue on the
/// bank can issue before it. The controller keeps the bounds (see
/// `Controller`); a pick visits only banks whose bound has arrived instead
/// of asking the bank, which is exact because `plan` would refuse every
/// entry on the others.
#[derive(Debug, Clone, Copy)]
pub struct BankView<'a> {
    banks: &'a [Box<dyn Bank>],
    bounds: &'a [Cell<Cycle>],
}

impl<'a> BankView<'a> {
    /// Pairs `banks` with one queue's per-bank issue `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub(crate) fn new(banks: &'a [Box<dyn Bank>], bounds: &'a [Cell<Cycle>]) -> Self {
        assert_eq!(banks.len(), bounds.len(), "one issue bound per bank");
        BankView { banks, bounds }
    }

    /// The bank at `index`.
    pub fn bank(&self, index: usize) -> &dyn Bank {
        self.banks[index].as_ref()
    }

    /// `pending`'s plan at `now`, or `None` when it cannot issue — without
    /// consulting the bank when the bank's issue bound is still ahead.
    pub fn plan(&self, pending: &Pending, now: Cycle) -> Option<AccessPlan> {
        if self.bounds[pending.bank_index].get() > now {
            return None;
        }
        self.banks[pending.bank_index]
            .plan(&pending.access, now)
            .ok()
    }

    /// The banks holding entries of `queue` whose issue bound has arrived
    /// at `now`, in ascending bank order: the only banks a pick visits.
    pub fn arrived<'q>(
        &'q self,
        queue: &'q RequestQueue,
        now: Cycle,
    ) -> impl Iterator<Item = usize> + 'q {
        queue
            .occupied_banks()
            .filter(move |&bank| self.bounds[bank].get() <= now)
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

/// Keeps the older of `held` and `(key, plan)`.
fn keep_oldest(held: &mut Option<Pick>, key: Key, plan: AccessPlan) {
    if held.is_none_or(|(oldest, _)| key < oldest) {
        *held = Some((key, plan));
    }
}

/// True when `held` is older than `key`: an entry younger than a rule's
/// held candidate cannot displace it.
fn older(held: &Option<Pick>, key: Key) -> bool {
    held.is_some_and(|(oldest, _)| oldest < key)
}

/// The first issuable row hit in arrival order, else the oldest issuable
/// *demand* request, else the oldest issuable prefetch (demand misses
/// outrank speculative traffic). Each bank's walk stops at its first hit
/// or at an entry younger than the oldest hit found so far.
fn first_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    let mut hit: Option<Pick> = None;
    let mut demand: Option<Pick> = None;
    let mut prefetch: Option<Pick> = None;
    for bank in banks.arrived(queue, now) {
        for (key, pending) in queue.bank(bank) {
            if older(&hit, key) {
                break;
            }
            let Some(plan) = banks.plan(pending, now) else {
                continue;
            };
            if plan.kind == PlanKind::RowHit {
                hit = Some((key, plan));
                break;
            }
            let held = match pending.request.priority {
                fgnvm_types::Priority::Demand => &mut demand,
                fgnvm_types::Priority::Prefetch => &mut prefetch,
            };
            keep_oldest(held, key, plan);
        }
    }
    hit.or(demand).or(prefetch)
}

/// Oldest issuable request, ignoring row-hit preference: each bank
/// offers its first issuable entry.
fn oldest_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    let mut oldest: Option<Pick> = None;
    for bank in banks.arrived(queue, now) {
        for (key, pending) in queue.bank(bank) {
            if older(&oldest, key) {
                break;
            }
            if let Some(plan) = banks.plan(pending, now) {
                oldest = Some((key, plan));
                break;
            }
        }
    }
    oldest
}

/// The queue head's plan, if it can issue (strict arrival order).
fn head_ready(queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
    let (key, head) = queue.front()?;
    banks.plan(head, now).map(|plan| (key, plan))
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
        // Fall back to plain FRFCFS order if every choice conflicts. Both
        // rules are per bank: a bank with a write in flight offers only
        // its oldest issuable write (the fallback), and a write's
        // conflicts are among the reads queued on its own bank.
        let mut clear: Option<Pick> = None;
        let mut second: Option<Pick> = None;
        let mut fallback: Option<Pick> = None;
        for bank in banks.arrived(queue, now) {
            for (key, pending) in queue.bank(bank) {
                if older(&clear, key) {
                    break;
                }
                let Some(plan) = banks.plan(pending, now) else {
                    continue;
                };
                keep_oldest(&mut fallback, key, plan);
                if banks.bank(bank).write_in_progress(now) {
                    break;
                }
                let conflicts = reads.bank(bank).any(|(_, r)| {
                    r.access.coord.sag == pending.access.coord.sag
                        || r.access.coord.cd_overlaps(&pending.access.coord)
                });
                if !conflicts {
                    clear = Some((key, plan));
                    break;
                }
                keep_oldest(&mut second, key, plan);
            }
        }
        clear.or(second).or(fallback)
    }

    fn reads_during_drain(&self) -> bool {
        true
    }
}

/// Issue bounds that gate nothing, so picks plan every entry: the pick
/// tests exercise the policies, not the controller's bounds.
#[cfg(test)]
fn ungated(banks: &[Box<dyn Bank>]) -> Vec<Cell<Cycle>> {
    vec![Cell::new(Cycle::ZERO); banks.len()]
}

/// `key`'s position in `queue`'s arrival order.
#[cfg(test)]
fn position(queue: &RequestQueue, key: Key) -> usize {
    queue
        .iter()
        .position(|(queued, _)| queued == key)
        .expect("picked entry is queued")
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
        let mut q = RequestQueue::new(8, 1);
        q.push(pending(&geom, 1, Op::Read, 9, 8));
        q.push(pending(&geom, 2, Op::Read, 0, 1));
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        let (key, picked) = Frfcfs.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 1);
        assert_eq!(picked.kind, PlanKind::RowHit);
        // FCFS instead honors arrival order.
        let (key, _) = Fcfs.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
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
        let mut q = RequestQueue::new(8, 1);
        q.push(pending(&geom, 1, Op::Read, 1, 4)); // same SAG: blocked
        q.push(pending(&geom, 2, Op::Read, geom.rows_per_sag(), 4)); // free pair
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        assert!(Fcfs.pick_read(&q, view, now).is_none());
        // FRFCFS skips the blocked head.
        let (key, _) = Frfcfs.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 1);
    }

    #[test]
    fn tlp_write_pick_avoids_read_conflicts() {
        let (geom, banks) = bank_array();
        let now = Cycle::ZERO;
        let mut writes = RequestQueue::new(8, 1);
        writes.push(pending(&geom, 0, Op::Write, 0, 0)); // SAG 0, CD 0
        writes.push(pending(&geom, 1, Op::Write, geom.rows_per_sag() * 2, 8)); // SAG 2, CD 2
        let mut reads = RequestQueue::new(8, 1);
        reads.push(pending(&geom, 2, Op::Read, 1, 12)); // SAG 0 — conflicts with write 0
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        let (key, _) = FrfcfsTlp.pick_write(&writes, &reads, view, now).unwrap();
        let idx = position(&writes, key);
        assert_eq!(idx, 1, "TLP drain should pick the conflict-free write");
        // Plain FRFCFS drains in order.
        let (key, _) = Frfcfs.pick_write(&writes, &reads, view, now).unwrap();
        let idx = position(&writes, key);
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

    /// `tenant`'s place in the pick order given the `served` counters:
    /// fewer grants first, ties to the lower tenant id.
    fn rank(served: &[u64], tenant: u16) -> (u64, u16) {
        let count = served.get(usize::from(tenant)).copied().unwrap_or(0);
        (count, tenant)
    }

    fn grant(&self, tenant: u16) {
        let mut served = self.served.borrow_mut();
        let index = usize::from(tenant);
        if served.len() <= index {
            served.resize(index + 1, 0);
        }
        served[index] += 1;
    }

    /// Tracks the least-served tenant that has at least one issuable
    /// entry, and within that tenant the best pick by FRFCFS layering
    /// (row hit > oldest demand > oldest prefetch). An entry's tenant is
    /// ranked before its bank is asked: an entry of a better-served
    /// tenant than the best found so far, or of that tenant but younger
    /// than its oldest hit, cannot be picked, so it is never planned.
    fn qos_pick(&self, queue: &RequestQueue, banks: BankView<'_>, now: Cycle) -> Option<Pick> {
        let served = self.served.borrow();
        let mut best: Option<(u64, u16)> = None;
        let mut hit: Option<Pick> = None;
        let mut demand: Option<Pick> = None;
        let mut prefetch: Option<Pick> = None;
        for bank in banks.arrived(queue, now) {
            for (key, pending) in queue.bank(bank) {
                let tenant = Self::rank(&served, pending.request.tenant);
                match best {
                    Some(held) if tenant > held => continue,
                    Some(held) if tenant == held && older(&hit, key) => continue,
                    _ => {}
                }
                let Some(plan) = banks.plan(pending, now) else {
                    continue;
                };
                if best != Some(tenant) {
                    // Strictly better tenant: restart the within-tenant
                    // layering from this entry.
                    best = Some(tenant);
                    hit = None;
                    demand = None;
                    prefetch = None;
                }
                let held = if plan.kind == PlanKind::RowHit {
                    &mut hit
                } else {
                    match pending.request.priority {
                        fgnvm_types::Priority::Demand => &mut demand,
                        fgnvm_types::Priority::Prefetch => &mut prefetch,
                    }
                };
                keep_oldest(held, key, plan);
            }
        }
        drop(served);
        let pick = hit.or(demand).or(prefetch);
        if pick.is_some() {
            let (_, tenant) = best.expect("a pick implies a best tenant");
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
        let mut q = RequestQueue::new(8, 1);
        q.push(read_for(&geom, 0, 0, 0, 0));
        q.push(read_for(&geom, 1, 0, geom.rows_per_sag(), 4));
        q.push(read_for(&geom, 2, 1, geom.rows_per_sag() * 2, 8));
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        // Equal service (0 each): the tie breaks to tenant 0's oldest.
        let (key, _) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 0);
        q.remove(key).unwrap();
        // Tenant 0 has now been served once; tenant 1 must go next even
        // though tenant 0's second request is older.
        let (key, _) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 1, "least-served tenant outranks arrival order");
        q.remove(key).unwrap();
        // Back to tenant 0.
        let (key, _) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
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
        let mut q = RequestQueue::new(8, 1);
        // Same tenant: an older miss and a younger hit — the hit goes
        // first, exactly like plain FRFCFS.
        q.push(read_for(&geom, 0, 3, geom.rows_per_sag(), 4));
        q.push(read_for(&geom, 1, 3, 0, 1));
        let bounds = ungated(&banks_v);
        let view = BankView::new(&banks_v, &bounds);
        let (key, plan) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 1);
        assert_eq!(plan.kind, PlanKind::RowHit);
    }

    #[test]
    fn qos_pick_none_leaves_service_state_untouched() {
        let (geom, banks) = banks();
        let sched = FrfcfsQos::new();
        let q = RequestQueue::new(8, 1);
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
        let mut q = RequestQueue::new(8, 1);
        q.push(read(0, 7, 0)); // miss, oldest
        for i in 1..5 {
            q.push(read(i, 0, i as u32)); // hits
        }
        let bounds = ungated(&banks);
        let view = BankView::new(&banks, &bounds);
        // First two picks: hits (indices > 0).
        for _ in 0..2 {
            let (key, plan) = sched.pick_read(&q, view, now).unwrap();
            let idx = position(&q, key);
            assert!(idx > 0);
            assert_eq!(plan.kind, PlanKind::RowHit);
        }
        // Third pick: the cap fires and the old miss is served.
        let (key, plan) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert_eq!(idx, 0);
        assert_eq!(plan.kind, PlanKind::Activate);
        // Streak reset: hits may flow again.
        let (key, _) = sched.pick_read(&q, view, now).unwrap();
        let idx = position(&q, key);
        assert!(idx > 0);
    }

    #[test]
    fn factory_builds_cap() {
        let s = make_scheduler(SchedulerKind::FrfcfsCap);
        assert!(!s.reads_during_drain());
    }
}

/// The picks as one arrival-order pass over the queue, as they were
/// before the queue kept a list per bank: the per-bank picks must return
/// exactly what these return, and leave the same scheduler state.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn first_ready(
        queue: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        let mut oldest_demand: Option<Pick> = None;
        let mut oldest_prefetch: Option<Pick> = None;
        for (key, pending) in queue.iter() {
            if let Some(plan) = banks.plan(pending, now) {
                if plan.kind == PlanKind::RowHit {
                    return Some((key, plan));
                }
                let slot = match pending.request.priority {
                    fgnvm_types::Priority::Demand => &mut oldest_demand,
                    fgnvm_types::Priority::Prefetch => &mut oldest_prefetch,
                };
                if slot.is_none() {
                    *slot = Some((key, plan));
                }
            }
        }
        oldest_demand.or(oldest_prefetch)
    }

    pub(super) fn oldest_ready(
        queue: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        queue
            .iter()
            .find_map(|(key, pending)| banks.plan(pending, now).map(|plan| (key, plan)))
    }

    pub(super) fn head_ready(
        queue: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        let (key, head) = queue.iter().next()?;
        banks.plan(head, now).map(|plan| (key, plan))
    }

    pub(super) fn tlp_pick_write(
        queue: &RequestQueue,
        reads: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        let mut fallback: Option<Pick> = None;
        let mut second: Option<Pick> = None;
        for (key, pending) in queue.iter() {
            let Some(plan) = banks.plan(pending, now) else {
                continue;
            };
            if fallback.is_none() {
                fallback = Some((key, plan));
            }
            if banks.bank(pending.bank_index).write_in_progress(now) {
                continue;
            }
            let conflicts = reads.iter().any(|(_, r)| {
                r.bank_index == pending.bank_index
                    && (r.access.coord.sag == pending.access.coord.sag
                        || r.access.coord.cd_overlaps(&pending.access.coord))
            });
            if !conflicts {
                return Some((key, plan));
            }
            if second.is_none() {
                second = Some((key, plan));
            }
        }
        second.or(fallback)
    }

    pub(super) fn capped_pick(
        sched: &FrfcfsCap,
        queue: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        let pick = if sched.streak.get() >= sched.cap {
            oldest_ready(queue, banks, now)
        } else {
            first_ready(queue, banks, now)
        };
        if let Some((_, plan)) = &pick {
            if plan.kind == PlanKind::RowHit && sched.streak.get() < sched.cap {
                sched.streak.set(sched.streak.get() + 1);
            } else {
                sched.streak.set(0);
            }
        }
        pick
    }

    pub(super) fn qos_pick(
        sched: &FrfcfsQos,
        queue: &RequestQueue,
        banks: BankView<'_>,
        now: Cycle,
    ) -> Option<Pick> {
        let mut best_key: Option<(u64, u16)> = None;
        let mut hit: Option<Pick> = None;
        let mut demand: Option<Pick> = None;
        let mut prefetch: Option<Pick> = None;
        for (key, pending) in queue.iter() {
            let Some(plan) = banks.plan(pending, now) else {
                continue;
            };
            let tenant = pending.request.tenant;
            let rank = FrfcfsQos::rank(&sched.served.borrow(), tenant);
            match best_key {
                Some(best) if rank > best => continue,
                Some(best) if rank == best => {}
                _ => {
                    best_key = Some(rank);
                    hit = None;
                    demand = None;
                    prefetch = None;
                }
            }
            if plan.kind == PlanKind::RowHit {
                if hit.is_none() {
                    hit = Some((key, plan));
                }
            } else {
                let slot = match pending.request.priority {
                    fgnvm_types::Priority::Demand => &mut demand,
                    fgnvm_types::Priority::Prefetch => &mut prefetch,
                };
                if slot.is_none() {
                    *slot = Some((key, plan));
                }
            }
        }
        let pick = hit.or(demand).or(prefetch);
        if pick.is_some() {
            let (_, tenant) = best_key.expect("a pick implies a best tenant");
            sched.grant(tenant);
        }
        pick
    }
}

#[cfg(test)]
mod pick_props {
    use super::*;
    use fgnvm_bank::{Access, BaselineBank, FgnvmBank, Modes};
    use fgnvm_types::address::{DecodedAddr, PhysAddr, TileCoord};
    use fgnvm_types::geometry::Geometry;
    use fgnvm_types::request::{Op, Request, RequestId};
    use fgnvm_types::time::CycleCount;
    use fgnvm_types::TimingConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One channel in a random state: banks after a few random commits,
    /// both queues after random pushes and removals, random issue bounds.
    struct Channel {
        banks: Vec<Box<dyn Bank>>,
        reads: RequestQueue,
        writes: RequestQueue,
        read_bounds: Vec<Cell<Cycle>>,
        write_bounds: Vec<Cell<Cycle>>,
        now: Cycle,
    }

    fn access(rng: &mut StdRng, geom: &Geometry, op: Op) -> Access {
        // Three rows per SAG, so row hits and same-SAG conflicts are common.
        let sag = rng.random_range(0..geom.sags());
        let row = sag * geom.rows_per_sag() + rng.random_range(0..3u32);
        let line = rng.random_range(0..geom.lines_per_row());
        let (cd_first, cd_count) = geom.cds_of_line(line);
        Access {
            op,
            row,
            line,
            coord: TileCoord {
                sag,
                cd_first,
                cd_count,
            },
        }
    }

    fn random_op(rng: &mut StdRng, usual: Op) -> Op {
        match (rng.random_bool(0.15), usual) {
            (false, op) => op,
            (true, Op::Read) => Op::Write,
            (true, Op::Write) => Op::Read,
        }
    }

    /// Pushes, removes and re-pushes removed entries at random, so
    /// arrival positions and sequence numbers diverge.
    fn fill(
        rng: &mut StdRng,
        geom: &Geometry,
        banks: usize,
        usual: Op,
        next_id: &mut u64,
    ) -> RequestQueue {
        let mut queue = RequestQueue::new(rng.random_range(1..48), banks);
        for _ in 0..rng.random_range(0..96) {
            if !queue.is_empty() && rng.random_bool(0.35) {
                let victim = rng.random_range(0..queue.len());
                let key = queue.iter().nth(victim).expect("victim is queued").0;
                let removed = queue.remove(key).expect("key names an entry");
                if rng.random_bool(0.3) {
                    // Like a verify-failed write: back to the tail, younger
                    // than everything queued.
                    queue.push(removed);
                }
                continue;
            }
            let op = random_op(rng, usual);
            let access = access(rng, geom, op);
            let mut request = Request::new(
                RequestId::new(*next_id),
                op,
                PhysAddr::new(*next_id * 64),
                Cycle::ZERO,
            )
            .with_tenant(rng.random_range(0..4));
            if rng.random_bool(0.25) {
                request = request.as_prefetch();
            }
            *next_id += 1;
            queue.push(Pending {
                request,
                decoded: DecodedAddr::default(),
                access,
                bank_index: rng.random_range(0..banks),
            });
        }
        queue
    }

    fn channel(seed: u64) -> Channel {
        let mut rng = StdRng::seed_from_u64(seed);
        // One to sixteen banks; one case in ten reaches the bitset's third
        // word.
        let bank_count: usize = if rng.random_bool(0.1) {
            130
        } else {
            rng.random_range(1..17usize)
        };
        let (sags, cds) = [(4, 4), (8, 2), (2, 8), (1, 1)][rng.random_range(0..4usize)];
        let geom = Geometry::builder().sags(sags).cds(cds).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let baseline = rng.random_bool(0.2);
        let shared_column_path = rng.random_bool(0.5);
        let pausing = rng.random_bool(0.3);
        let mut banks: Vec<Box<dyn Bank>> = (0..bank_count)
            .map(|_| -> Box<dyn Bank> {
                if baseline {
                    Box::new(BaselineBank::new(&geom, timing))
                } else {
                    Box::new(
                        FgnvmBank::new(&geom, timing, Modes::all(), shared_column_path)
                            .unwrap()
                            .with_write_pausing(pausing),
                    )
                }
            })
            .collect();
        let mut now = Cycle::ZERO;
        for _ in 0..rng.random_range(0..3 * bank_count + 4) {
            now += CycleCount::new(rng.random_range(0..40));
            let bank = rng.random_range(0..bank_count);
            let op = random_op(&mut rng, Op::Read);
            let access = access(&mut rng, &geom, op);
            if let Ok(plan) = banks[bank].plan(&access, now) {
                banks[bank].commit(&access, &plan, now, plan.earliest_data);
            }
        }
        now += CycleCount::new(rng.random_range(0..120));
        let mut next_id = 0;
        let reads = fill(&mut rng, &geom, bank_count, Op::Read, &mut next_id);
        let writes = fill(&mut rng, &geom, bank_count, Op::Write, &mut next_id);
        let mut bound = || {
            Cell::new(match rng.random_range(0..4) {
                0 => Cycle::ZERO,
                1 => now,
                _ => now + CycleCount::new(rng.random_range(1..200)),
            })
        };
        let read_bounds = (0..bank_count).map(|_| bound()).collect();
        let write_bounds = (0..bank_count).map(|_| bound()).collect();
        Channel {
            banks,
            reads,
            writes,
            read_bounds,
            write_bounds,
            now,
        }
    }

    /// The picked entry's request id, key and plan, for comparison.
    fn described(queue: &RequestQueue, pick: Option<Pick>) -> Option<(u64, Key, AccessPlan)> {
        pick.map(|(key, plan)| {
            let id = queue
                .get(key)
                .expect("pick names a queued entry")
                .request
                .id;
            (id.raw(), key, plan)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every scheduler's per-bank pick equals its arrival-order
        /// reference — same entry, same plan, same scheduler state after
        /// — for reads and writes, over random banks, queues and bounds.
        #[test]
        fn picks_match_arrival_order_reference(seed in any::<u64>(), cap in 1u32..5, streak in 0u32..6, served in prop::collection::vec(0u64..4, 0..5)) {
            let c = channel(seed);
            let now = c.now;
            let read_view = BankView::new(&c.banks, &c.read_bounds);
            let write_view = BankView::new(&c.banks, &c.write_bounds);
            let reads = |pick| described(&c.reads, pick);
            let writes = |pick| described(&c.writes, pick);

            prop_assert_eq!(reads(Fcfs.pick_read(&c.reads, read_view, now)), reads(reference::head_ready(&c.reads, read_view, now)));
            prop_assert_eq!(writes(Fcfs.pick_write(&c.writes, &c.reads, write_view, now)), writes(reference::head_ready(&c.writes, write_view, now)));
            prop_assert_eq!(reads(Frfcfs.pick_read(&c.reads, read_view, now)), reads(reference::first_ready(&c.reads, read_view, now)));
            prop_assert_eq!(writes(Frfcfs.pick_write(&c.writes, &c.reads, write_view, now)), writes(reference::first_ready(&c.writes, write_view, now)));
            prop_assert_eq!(reads(FrfcfsTlp.pick_read(&c.reads, read_view, now)), reads(reference::first_ready(&c.reads, read_view, now)));
            prop_assert_eq!(writes(FrfcfsTlp.pick_write(&c.writes, &c.reads, write_view, now)), writes(reference::tlp_pick_write(&c.writes, &c.reads, write_view, now)));

            // CAP below and at its cap (the streak may start past it).
            let streak = streak.min(cap);
            for (queue, view) in [(&c.reads, read_view), (&c.writes, write_view)] {
                let sched = FrfcfsCap::new(cap);
                sched.streak.set(streak);
                let expected = FrfcfsCap::new(cap);
                expected.streak.set(streak);
                let picked = sched.pick_write(queue, &c.reads, view, now);
                let wanted = reference::capped_pick(&expected, queue, view, now);
                prop_assert_eq!(described(queue, picked), described(queue, wanted));
                prop_assert_eq!(sched.streak.get(), expected.streak.get());
            }

            // QoS from random service counters.
            for (queue, view) in [(&c.reads, read_view), (&c.writes, write_view)] {
                let sched = FrfcfsQos::new();
                *sched.served.borrow_mut() = served.clone();
                let expected = FrfcfsQos::new();
                *expected.served.borrow_mut() = served.clone();
                let picked = sched.pick_read(queue, view, now);
                let wanted = reference::qos_pick(&expected, queue, view, now);
                prop_assert_eq!(described(queue, picked), described(queue, wanted));
                prop_assert_eq!(&*sched.served.borrow(), &*expected.served.borrow());
            }
        }
    }
}
