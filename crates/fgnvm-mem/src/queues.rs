//! Controller-side request queues.
//!
//! Reads live in a bounded transaction queue; writes are *posted* into a
//! separate write queue ("64 write drivers" in Table 2) and drained in the
//! background by watermark. Reads that hit a queued write are forwarded from
//! the buffer without touching the array.

use std::cell::Cell;
use std::collections::VecDeque;

use fgnvm_bank::Access;
use fgnvm_types::address::{DecodedAddr, PhysAddr};
use fgnvm_types::error::SimError;
use fgnvm_types::request::Request;
use fgnvm_types::time::Cycle;

/// A request waiting at the controller, with its decode cached.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// The original request.
    pub request: Request,
    /// Decoded hierarchy coordinates.
    pub decoded: DecodedAddr,
    /// Bank-level access description (row, line, tile coordinates).
    pub access: Access,
    /// Channel-local bank index (`rank × banks_per_rank + bank`).
    pub bank_index: usize,
}

/// One queue's entries on one bank: how many there are, and an issue bound
/// no entry of them can issue before (the controller keeps it).
#[derive(Debug, Clone, Default)]
pub(crate) struct BankEntries {
    /// Entries of the queue that target the bank.
    pub(crate) queued: u32,
    /// None of them can issue before this instant.
    pub(crate) bound: Cell<Cycle>,
}

/// One queue's [`BankEntries`] for every bank of a channel, plus a bitset
/// of the banks that hold at least one entry: a bank's bit is set when its
/// count goes 0 → 1 and cleared when it goes 1 → 0. Walking the set bits
/// visits only occupied banks, in ascending bank order, for one word read
/// per 64 banks. The bitset is derived from the counts, so checkpoints
/// omit it and a restore rebuilds it with them.
#[derive(Debug, Clone)]
pub(crate) struct QueueBanks {
    entries: Vec<BankEntries>,
    occupied: Vec<u64>,
}

impl QueueBanks {
    /// No entries on any of `banks` banks.
    pub(crate) fn new(banks: usize) -> Self {
        QueueBanks {
            entries: vec![BankEntries::default(); banks],
            occupied: vec![0; banks.div_ceil(64)],
        }
    }

    /// Every bank's entries, by bank index.
    pub(crate) fn entries(&self) -> &[BankEntries] {
        &self.entries
    }

    /// Counts one more entry on `bank`.
    pub(crate) fn add(&mut self, bank: usize) {
        let entries = &mut self.entries[bank];
        entries.queued += 1;
        if entries.queued == 1 {
            self.occupied[bank / 64] |= 1 << (bank % 64);
        }
    }

    /// Counts one entry fewer on `bank`.
    pub(crate) fn remove(&mut self, bank: usize) {
        let entries = &mut self.entries[bank];
        entries.queued -= 1;
        if entries.queued == 0 {
            self.occupied[bank / 64] &= !(1 << (bank % 64));
        }
    }

    /// Empties every bank and resets each bank's bound to `bound(bank)`.
    pub(crate) fn reset(&mut self, bound: impl Fn(usize) -> Cycle) {
        for (bank, entries) in self.entries.iter_mut().enumerate() {
            *entries = BankEntries {
                queued: 0,
                bound: bound(bank).into(),
            };
        }
        self.occupied.fill(0);
    }

    /// The banks holding at least one entry, with their entries, in
    /// ascending bank order.
    pub(crate) fn occupied(&self) -> Occupied<'_> {
        Occupied {
            entries: &self.entries,
            words: &self.occupied,
            word: 0,
            bits: self.occupied.first().copied().unwrap_or(0),
        }
    }
}

impl std::ops::Index<usize> for QueueBanks {
    type Output = BankEntries;

    fn index(&self, bank: usize) -> &BankEntries {
        &self.entries[bank]
    }
}

/// The iterator [`QueueBanks::occupied`] returns.
#[derive(Debug)]
pub(crate) struct Occupied<'a> {
    entries: &'a [BankEntries],
    words: &'a [u64],
    word: usize,
    /// The set bits of `words[word]` not yet visited.
    bits: u64,
}

impl<'a> Iterator for Occupied<'a> {
    type Item = (usize, &'a BankEntries);

    fn next(&mut self) -> Option<Self::Item> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bank = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((bank, &self.entries[bank]))
    }
}

/// One physical slot: a pending request, or the tombstone a mid-queue
/// removal left behind.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pending: Pending,
    dead: bool,
}

/// Bounded FIFO of pending requests preserving arrival order.
///
/// Mid-queue removal is tombstone-based: FCFS/FRFCFS age order must be
/// preserved exactly (a swap-remove would reorder arrivals), so a removed
/// entry is marked dead in place instead of shifting every younger entry
/// forward. Dead slots at the front are popped eagerly, and the backing
/// ring is compacted in place once tombstones reach the queue's capacity,
/// so the storage stays bounded at `2 × capacity` and removal is amortized
/// O(live) slot *scans* with no entry moves in the common case. Iteration,
/// indices, and occupancy are all expressed in live entries only —
/// tombstones are invisible through the public API.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: VecDeque<Slot>,
    /// Live (non-tombstone) entries — the queue's logical occupancy.
    live: usize,
    capacity: usize,
}

impl RequestQueue {
    /// Creates an empty queue holding at most `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        RequestQueue {
            // Twice the logical capacity so tombstones never force a
            // reallocation: compaction runs before the ring can outgrow it
            // (part of the steady-state zero-allocation guarantee).
            entries: VecDeque::with_capacity(capacity * 2),
            live: 0,
            capacity,
        }
    }

    /// Attempts to append a request; returns `false` when full.
    pub fn push(&mut self, pending: Pending) -> bool {
        if self.live >= self.capacity {
            return false;
        }
        if self.entries.len() - self.live >= self.capacity {
            // Tombstones have piled up to the reallocation boundary:
            // compact in place (drops ≥ capacity slots, so this is
            // amortized O(1) per removal and never allocates).
            self.entries.retain(|slot| !slot.dead);
        }
        self.entries.push_back(Slot {
            pending,
            dead: false,
        });
        self.live += 1;
        true
    }

    /// Removes and returns the live entry at `index` (0 = oldest).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QueueIndex`] when `index` is not a live entry
    /// (debug builds additionally assert: every caller derives indices
    /// from this queue, so an out-of-range index is a scheduler bug).
    pub fn remove(&mut self, index: usize) -> Result<Pending, SimError> {
        debug_assert!(
            index < self.live,
            "queue index {index} out of range ({} live entries)",
            self.live
        );
        let mut seen = 0usize;
        for slot in self.entries.iter_mut() {
            if slot.dead {
                continue;
            }
            if seen == index {
                slot.dead = true;
                self.live -= 1;
                let pending = slot.pending;
                // Keep the front live so age-0 lookups stay O(1).
                while self.entries.front().is_some_and(|s| s.dead) {
                    self.entries.pop_front();
                }
                return Ok(pending);
            }
            seen += 1;
        }
        Err(SimError::QueueIndex {
            index,
            len: self.live,
        })
    }

    /// Entries in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Pending> {
        self.entries
            .iter()
            .filter(|slot| !slot.dead)
            .map(|slot| &slot.pending)
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True when no more requests fit.
    pub fn is_full(&self) -> bool {
        self.live >= self.capacity
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if any queued entry targets `addr` (line-aligned match).
    pub fn contains_addr(&self, addr: PhysAddr) -> bool {
        self.iter().any(|p| p.request.addr == addr)
    }

    /// Index of the first entry targeting `addr`, if any.
    pub fn position_addr(&self, addr: PhysAddr) -> Option<usize> {
        self.iter().position(|p| p.request.addr == addr)
    }

    /// Serialize the queued entries (capacity is structural and rebuilt
    /// from configuration; tombstones are a transient storage detail and
    /// are not part of the state).
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("rqueue");
        w.usize(self.live);
        for p in self.iter() {
            save_pending(p, w);
        }
    }

    /// Restore entries written by [`RequestQueue::save_state`] into this
    /// queue, replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// checkpoint holds more entries than this queue's capacity.
    pub fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("rqueue")?;
        let n = r.usize()?;
        if n > self.capacity {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "checkpoint queue holds {n} entries, capacity is {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            self.entries.push_back(Slot {
                pending: load_pending(r)?,
                dead: false,
            });
        }
        self.live = n;
        Ok(())
    }
}

/// Serialize one [`Pending`] entry.
pub(crate) fn save_pending(p: &Pending, w: &mut fgnvm_types::SnapshotWriter) {
    use fgnvm_types::request::{Op, Priority};
    w.u64(p.request.id.raw());
    w.u8(match p.request.op {
        Op::Read => 0,
        Op::Write => 1,
    });
    w.u64(p.request.addr.raw());
    w.u64(p.request.arrival.raw());
    w.u8(match p.request.priority {
        Priority::Demand => 0,
        Priority::Prefetch => 1,
    });
    w.u32(u32::from(p.request.tenant));
    w.u32(p.decoded.channel);
    w.u32(p.decoded.rank);
    w.u32(p.decoded.bank);
    w.u32(p.decoded.row);
    w.u32(p.decoded.line);
    w.u8(match p.access.op {
        Op::Read => 0,
        Op::Write => 1,
    });
    w.u32(p.access.row);
    w.u32(p.access.line);
    w.u32(p.access.coord.sag);
    w.u32(p.access.coord.cd_first);
    w.u32(p.access.coord.cd_count);
    w.usize(p.bank_index);
}

/// Restore one [`Pending`] entry written by [`save_pending`].
pub(crate) fn load_pending(
    r: &mut fgnvm_types::SnapshotReader<'_>,
) -> Result<Pending, fgnvm_types::SnapshotError> {
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::request::{Op, Priority, RequestId};
    use fgnvm_types::time::Cycle;
    fn op_from(d: u8) -> Result<Op, fgnvm_types::SnapshotError> {
        match d {
            0 => Ok(Op::Read),
            1 => Ok(Op::Write),
            other => Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "unknown op discriminant {other}"
            ))),
        }
    }
    let id = RequestId::new(r.u64()?);
    let op = op_from(r.u8()?)?;
    let addr = PhysAddr::new(r.u64()?);
    let arrival = Cycle::new(r.u64()?);
    let priority = match r.u8()? {
        0 => Priority::Demand,
        1 => Priority::Prefetch,
        other => {
            return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                "unknown priority discriminant {other}"
            )))
        }
    };
    let mut request = Request::new(id, op, addr, arrival);
    request.priority = priority;
    request.tenant = r.u32()? as u16;
    let decoded = DecodedAddr {
        channel: r.u32()?,
        rank: r.u32()?,
        bank: r.u32()?,
        row: r.u32()?,
        line: r.u32()?,
    };
    let access = Access {
        op: op_from(r.u8()?)?,
        row: r.u32()?,
        line: r.u32()?,
        coord: TileCoord {
            sag: r.u32()?,
            cd_first: r.u32()?,
            cd_count: r.u32()?,
        },
    };
    let bank_index = r.usize()?;
    Ok(Pending {
        request,
        decoded,
        access,
        bank_index,
    })
}

/// Write-drain hysteresis: drain begins above the high watermark and stops
/// at or below the low watermark.
#[derive(Debug, Clone, Copy)]
pub struct DrainPolicy {
    /// Queue occupancy (entries) that triggers draining.
    pub high: usize,
    /// Occupancy at which draining stops.
    pub low: usize,
}

impl DrainPolicy {
    /// Standard policy for a queue of `capacity`: drain from ¾ down to ¼.
    pub fn for_capacity(capacity: usize) -> Self {
        DrainPolicy {
            high: (capacity * 3 / 4).max(1),
            low: capacity / 4,
        }
    }

    /// Updates `draining` given current queue occupancy.
    ///
    /// This is a pure function, and it is a *fixpoint* under constant
    /// occupancy: `update(update(d, n), n) == update(d, n)`. The
    /// event-driven fast-forward path depends on that — while nothing
    /// issues, retires, *or enqueues*, queue occupancy is frozen, so the
    /// drain flag settles after one update and every skipped controller
    /// tick would have recomputed the same value. Enqueues *do* land
    /// between ticks, which is why every fast-forward skip settles the
    /// flag over the elided stretch before the occupancy can move again
    /// (`Controller::settle_drain`).
    pub fn update(&self, draining: bool, occupancy: usize) -> bool {
        if draining {
            occupancy > self.low
        } else {
            occupancy >= self.high
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::request::{Op, RequestId};
    use fgnvm_types::time::Cycle;

    fn pending(id: u64, addr: u64) -> Pending {
        Pending {
            request: Request::new(
                RequestId::new(id),
                Op::Read,
                PhysAddr::new(addr),
                Cycle::ZERO,
            ),
            decoded: DecodedAddr::default(),
            access: Access {
                op: Op::Read,
                row: 0,
                line: 0,
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
    fn occupied_banks_track_counts_across_words() {
        let mut banks = QueueBanks::new(130);
        let occupied = |b: &QueueBanks| b.occupied().map(|(i, _)| i).collect::<Vec<_>>();
        assert!(occupied(&banks).is_empty());
        for bank in [129, 3, 64, 63, 3, 0] {
            banks.add(bank);
        }
        assert_eq!(occupied(&banks), [0, 3, 63, 64, 129]);
        banks.remove(3);
        banks.remove(64);
        assert_eq!(occupied(&banks), [0, 3, 63, 129]);
        assert_eq!(banks[3].queued, 1);
        banks.remove(3);
        assert_eq!(occupied(&banks), [0, 63, 129]);
        banks.reset(|bank| Cycle::new(bank as u64));
        assert!(occupied(&banks).is_empty());
        assert_eq!(banks[129].bound.get(), Cycle::new(129));
    }

    #[test]
    fn push_respects_capacity() {
        let mut q = RequestQueue::new(2);
        assert!(q.push(pending(1, 0)));
        assert!(q.push(pending(2, 64)));
        assert!(!q.push(pending(3, 128)));
        assert!(q.is_full());
    }

    #[test]
    fn remove_preserves_order() {
        let mut q = RequestQueue::new(4);
        for i in 0..4 {
            q.push(pending(i, i * 64));
        }
        let removed = q.remove(1).unwrap();
        assert_eq!(removed.request.id, RequestId::new(1));
        let ids: Vec<u64> = q.iter().map(|p| p.request.id.raw()).collect();
        assert_eq!(ids, vec![0, 2, 3]);
    }

    #[test]
    fn remove_out_of_range_is_a_structured_error() {
        let mut q = RequestQueue::new(4);
        q.push(pending(0, 0));
        if cfg!(debug_assertions) {
            // Debug builds assert: an out-of-range index is a scheduler
            // bug and should fail loudly under test.
            let panicked =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.remove(1))).is_err();
            assert!(panicked, "debug builds must assert on a bad index");
        } else {
            // Release builds degrade to a structured error so a long run
            // stalls diagnosably instead of aborting.
            let err = q.remove(1).unwrap_err();
            assert!(matches!(err, SimError::QueueIndex { index: 1, len: 1 }));
        }
        // The queue is untouched by the failed removal.
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn tombstones_never_grow_the_ring_or_leak_capacity() {
        // Churn: fill, remove from the middle, refill — many times over.
        // Live indices must stay consistent, capacity must never be lost
        // to tombstones, and the backing ring must never outgrow its
        // initial 2× reservation (the zero-allocation guarantee).
        let mut q = RequestQueue::new(8);
        let reserved = q.entries.capacity();
        let mut next_id = 0u64;
        for _ in 0..8 {
            q.push(pending(next_id, next_id * 64));
            next_id += 1;
        }
        for round in 0..100u64 {
            // Remove a middle entry, then a front entry, then refill.
            let victim = (round % 6) as usize + 1;
            let removed = q.remove(victim).unwrap();
            assert!(!q.is_full());
            let front = q.remove(0).unwrap();
            assert!(front.request.id.raw() < removed.request.id.raw() + 8);
            for _ in 0..2 {
                assert!(q.push(pending(next_id, next_id * 64)));
                next_id += 1;
            }
            assert!(q.is_full());
            assert_eq!(q.iter().count(), q.len());
            // Arrival order is preserved across tombstoning/compaction.
            let ids: Vec<u64> = q.iter().map(|p| p.request.id.raw()).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted, "arrival order must survive churn");
            assert!(q.entries.capacity() <= reserved.max(16));
        }
        assert_eq!(q.entries.capacity(), reserved, "ring must never grow");
    }

    #[test]
    fn addr_lookup() {
        let mut q = RequestQueue::new(4);
        q.push(pending(0, 0));
        q.push(pending(1, 128));
        assert!(q.contains_addr(PhysAddr::new(128)));
        assert!(!q.contains_addr(PhysAddr::new(64)));
        assert_eq!(q.position_addr(PhysAddr::new(128)), Some(1));
    }

    #[test]
    fn drain_hysteresis() {
        let p = DrainPolicy::for_capacity(64);
        assert_eq!((p.high, p.low), (48, 16));
        assert!(!p.update(false, 47));
        assert!(p.update(false, 48));
        assert!(p.update(true, 17));
        assert!(!p.update(true, 16));
    }

    #[test]
    fn drain_update_is_a_fixpoint_under_constant_occupancy() {
        // Fast-forward soundness: skipped ticks recompute the drain flag
        // from unchanged occupancy, so one update must settle it.
        for capacity in [1usize, 2, 8, 64] {
            let p = DrainPolicy::for_capacity(capacity);
            for occupancy in 0..=capacity {
                for start in [false, true] {
                    let once = p.update(start, occupancy);
                    assert_eq!(
                        p.update(once, occupancy),
                        once,
                        "capacity {capacity}, occupancy {occupancy}, start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn drain_policy_tiny_queue() {
        let p = DrainPolicy::for_capacity(1);
        assert_eq!(p.high, 1);
        assert!(p.update(false, 1));
        assert!(!p.update(true, 0));
    }
}
