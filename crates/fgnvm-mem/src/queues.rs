//! Controller-side request queues.
//!
//! Reads live in a bounded transaction queue; writes are *posted* into a
//! separate write queue ("64 write drivers" in Table 2) and drained in the
//! background by watermark. Reads that hit a queued write are forwarded from
//! the buffer without touching the array.

use fgnvm_bank::Access;
use fgnvm_types::address::{DecodedAddr, PhysAddr};
use fgnvm_types::error::SimError;
use fgnvm_types::request::Request;

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

/// A queued entry's handle: its arrival sequence number and the storage
/// slot it occupies. The keys of one queue order by arrival, so the older
/// of two entries has the smaller key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    seq: u64,
    slot: u32,
}

/// The link value that names no slot (the end of a list).
const NIL: u32 = u32::MAX;

/// The sequence number of a slot on the free list.
const FREE: u64 = u64::MAX;

/// One storage slot: a pending request and its two sets of links.
#[derive(Debug, Clone, Copy)]
struct Slot {
    pending: Pending,
    /// Arrival sequence number ([`FREE`] while the slot is unused).
    seq: u64,
    /// The next older and younger entries of the queue (`next` also
    /// links the free list).
    prev: u32,
    next: u32,
    /// The next older and younger entries on the same bank.
    bank_prev: u32,
    bank_next: u32,
}

/// Bounded queue of pending requests: one arrival-ordered list per bank.
///
/// Entries live in one slab of `capacity` slots, reserved up front and
/// shared by every bank, so no storage grows with the bank count or
/// moves after construction. Each entry is linked into its bank's list
/// and into the queue-wide arrival-order index, and carries a sequence
/// number ([`Key`]) that orders entries across banks. The schedulers
/// walk only the lists of the banks they ask about and merge the
/// per-bank candidates by key; the calendar scan walks one bank's list;
/// forwarding and merging search the target bank's list; removal
/// unlinks the entry its key names without a walk. The callers that
/// need global order — checkpoints, the audit probe, the FCFS and chaos
/// heads, the watchdog dump — follow the order index ([`iter`]).
///
/// A bitset marks the banks holding at least one entry: a bank's bit is
/// set when its list goes from empty to one entry and cleared when it
/// empties, so walking the set bits visits only occupied banks, in
/// ascending bank order, for one word read per 64 banks. Sequence
/// numbers, links and the bitset are storage details: checkpoints hold
/// the entries in arrival order and a restore rebuilds the rest.
///
/// [`iter`]: RequestQueue::iter
#[derive(Debug, Clone)]
pub struct RequestQueue {
    slots: Vec<Slot>,
    /// Head of the free list (linked through `Slot::next`).
    free: u32,
    /// The oldest and youngest entries of the queue.
    head: u32,
    tail: u32,
    /// Per bank index: its oldest and youngest entries.
    banks: Vec<(u32, u32)>,
    occupied: Vec<u64>,
    len: usize,
    capacity: usize,
    next_seq: u64,
}

impl RequestQueue {
    /// Creates an empty queue holding at most `capacity` requests on a
    /// channel of `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a slot index.
    pub fn new(capacity: usize, banks: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(
            capacity < NIL as usize,
            "queue capacity must fit a slot index"
        );
        RequestQueue {
            slots: Vec::with_capacity(capacity),
            free: NIL,
            head: NIL,
            tail: NIL,
            banks: vec![(NIL, NIL); banks],
            occupied: vec![0; banks.div_ceil(64)],
            len: 0,
            capacity,
            next_seq: 0,
        }
    }

    /// Attempts to append a request; returns `false` when full.
    ///
    /// # Panics
    ///
    /// Panics if the request's bank index is outside the channel.
    pub fn push(&mut self, pending: Pending) -> bool {
        if self.len >= self.capacity {
            return false;
        }
        let bank = pending.bank_index;
        let bank_tail = self.banks[bank].1;
        let slot = Slot {
            pending,
            seq: self.next_seq,
            prev: self.tail,
            next: NIL,
            bank_prev: bank_tail,
            bank_next: NIL,
        };
        let index = if self.free == NIL {
            // Every slot is live, so fewer than `capacity` exist and the
            // reservation holds this one.
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let index = self.free;
            self.free = self.slots[index as usize].next;
            self.slots[index as usize] = slot;
            index
        };
        self.next_seq += 1;
        match self.tail {
            NIL => self.head = index,
            tail => self.slots[tail as usize].next = index,
        }
        self.tail = index;
        match bank_tail {
            NIL => {
                self.banks[bank].0 = index;
                self.occupied[bank / 64] |= 1 << (bank % 64);
            }
            tail => self.slots[tail as usize].bank_next = index,
        }
        self.banks[bank].1 = index;
        self.len += 1;
        true
    }

    /// Removes and returns the entry `key` names.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QueueIndex`] when `key` names no queued entry
    /// (every caller takes keys from this queue's current entries, so
    /// that is a scheduler bug); the queue is left untouched.
    pub fn remove(&mut self, key: Key) -> Result<Pending, SimError> {
        let Some(slot) = self.slot(key) else {
            return Err(SimError::QueueIndex {
                index: key.slot as usize,
                len: self.len,
            });
        };
        let Slot {
            pending,
            prev,
            next,
            bank_prev,
            bank_next,
            ..
        } = *slot;
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
        let bank = pending.bank_index;
        match bank_prev {
            NIL => self.banks[bank].0 = bank_next,
            prev => self.slots[prev as usize].bank_next = bank_next,
        }
        match bank_next {
            NIL => self.banks[bank].1 = bank_prev,
            next => self.slots[next as usize].bank_prev = bank_prev,
        }
        if self.banks[bank].0 == NIL {
            self.occupied[bank / 64] &= !(1 << (bank % 64));
        }
        let freed = &mut self.slots[key.slot as usize];
        freed.seq = FREE;
        freed.next = self.free;
        self.free = key.slot;
        self.len -= 1;
        Ok(pending)
    }

    /// The live slot `key` names.
    fn slot(&self, key: Key) -> Option<&Slot> {
        self.slots
            .get(key.slot as usize)
            .filter(|slot| slot.seq == key.seq)
    }

    /// The entry `key` names, if it is still queued.
    pub fn get(&self, key: Key) -> Option<&Pending> {
        self.slot(key).map(|slot| &slot.pending)
    }

    /// Entries in arrival order, with their keys.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Pending)> + '_ {
        Links::<false> {
            slots: &self.slots,
            at: self.head,
        }
    }

    /// The entries on `bank`, in arrival order, with their keys.
    pub fn bank(&self, bank: usize) -> impl Iterator<Item = (Key, &Pending)> + '_ {
        Links::<true> {
            slots: &self.slots,
            at: self.banks[bank].0,
        }
    }

    /// The oldest entry, with its key.
    pub fn front(&self) -> Option<(Key, &Pending)> {
        self.iter().next()
    }

    /// The banks holding at least one entry, in ascending bank order.
    pub fn occupied_banks(&self) -> impl Iterator<Item = usize> + '_ {
        Occupied {
            words: &self.occupied,
            word: 0,
            bits: self.occupied.first().copied().unwrap_or(0),
        }
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when no more requests fit.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if an entry on `bank` targets `addr` (line-aligned match).
    /// An address decodes to one bank, so no other bank can hold it.
    pub fn contains_addr(&self, bank: usize, addr: PhysAddr) -> bool {
        self.bank(bank).any(|(_, p)| p.request.addr == addr)
    }

    /// Serialize the queued entries in arrival order (capacity is
    /// structural and rebuilt from configuration; keys and links are
    /// storage details rebuilt on restore).
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("rqueue");
        w.usize(self.len);
        for (_, p) in self.iter() {
            save_pending(p, w);
        }
    }

    /// Restore entries written by [`RequestQueue::save_state`] into this
    /// queue, replacing its current contents.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) when the
    /// checkpoint holds more entries than this queue's capacity, or an
    /// entry names a bank outside the channel (refused before it is
    /// linked into any bank's list).
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
        self.slots.clear();
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
        self.banks.fill((NIL, NIL));
        self.occupied.fill(0);
        self.len = 0;
        self.next_seq = 0;
        for _ in 0..n {
            let pending = load_pending(r)?;
            if pending.bank_index >= self.banks.len() {
                return Err(fgnvm_types::SnapshotError::Corrupt(format!(
                    "queued {} names bank {}, channel has {} banks",
                    if pending.request.op.is_read() {
                        "read"
                    } else {
                        "write"
                    },
                    pending.bank_index,
                    self.banks.len()
                )));
            }
            self.push(pending);
        }
        Ok(())
    }
}

/// Follows one set of links from a slot: the queue-wide arrival order, or
/// one bank's list when `BANK` is set.
#[derive(Debug)]
struct Links<'a, const BANK: bool> {
    slots: &'a [Slot],
    /// The next slot to yield; [`NIL`] lies past every slot.
    at: u32,
}

impl<'a, const BANK: bool> Iterator for Links<'a, BANK> {
    type Item = (Key, &'a Pending);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.slots.get(self.at as usize)?;
        let key = Key {
            seq: slot.seq,
            slot: self.at,
        };
        self.at = if BANK { slot.bank_next } else { slot.next };
        Some((key, &slot.pending))
    }
}

/// The iterator [`RequestQueue::occupied_banks`] returns.
#[derive(Debug)]
struct Occupied<'a> {
    words: &'a [u64],
    word: usize,
    /// The set bits of `words[word]` not yet visited.
    bits: u64,
}

impl Iterator for Occupied<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bank = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(bank)
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
        on_bank(id, addr, 0)
    }

    fn on_bank(id: u64, addr: u64, bank: usize) -> Pending {
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
            bank_index: bank,
        }
    }

    fn ids<'a>(entries: impl Iterator<Item = (Key, &'a Pending)>) -> Vec<u64> {
        entries.map(|(_, p)| p.request.id.raw()).collect()
    }

    fn key_of(q: &RequestQueue, id: u64) -> Key {
        q.iter()
            .find(|(_, p)| p.request.id.raw() == id)
            .map(|(key, _)| key)
            .expect("entry is queued")
    }

    #[test]
    fn occupied_banks_track_counts_across_words() {
        let mut q = RequestQueue::new(16, 130);
        let occupied = |q: &RequestQueue| q.occupied_banks().collect::<Vec<_>>();
        assert!(occupied(&q).is_empty());
        for (id, bank) in [129, 3, 64, 63, 3, 0].into_iter().enumerate() {
            assert!(q.push(on_bank(id as u64, id as u64 * 64, bank)));
        }
        assert_eq!(occupied(&q), [0, 3, 63, 64, 129]);
        q.remove(key_of(&q, 1)).unwrap();
        q.remove(key_of(&q, 2)).unwrap();
        assert_eq!(occupied(&q), [0, 3, 63, 129]);
        assert_eq!(ids(q.bank(3)), [4]);
        q.remove(key_of(&q, 4)).unwrap();
        assert_eq!(occupied(&q), [0, 63, 129]);
        let mut w = fgnvm_types::SnapshotWriter::new();
        RequestQueue::new(16, 130).save_state(&mut w);
        let blob = w.finish();
        let mut r = fgnvm_types::SnapshotReader::new(&blob).unwrap();
        q.load_state(&mut r).unwrap();
        assert!(occupied(&q).is_empty());
    }

    #[test]
    fn push_respects_capacity() {
        let mut q = RequestQueue::new(2, 1);
        assert!(q.push(pending(1, 0)));
        assert!(q.push(pending(2, 64)));
        assert!(!q.push(pending(3, 128)));
        assert!(q.is_full());
    }

    #[test]
    fn arrival_order_survives_interleaved_removals_across_banks() {
        let mut q = RequestQueue::new(8, 3);
        for i in 0..8 {
            q.push(on_bank(i, i * 64, (i % 3) as usize));
        }
        let removed = q.remove(key_of(&q, 4)).unwrap();
        assert_eq!(removed.request.id, RequestId::new(4));
        q.remove(key_of(&q, 0)).unwrap();
        q.push(on_bank(8, 8 * 64, 1));
        q.remove(key_of(&q, 6)).unwrap();
        assert_eq!(ids(q.iter()), [1, 2, 3, 5, 7, 8]);
        assert_eq!(ids(q.bank(0)), [3]);
        assert_eq!(ids(q.bank(1)), [1, 7, 8]);
        assert_eq!(ids(q.bank(2)), [2, 5]);
        assert_eq!(q.front().map(|(_, p)| p.request.id.raw()), Some(1));
        // Keys order by arrival across banks.
        let keys: Vec<Key> = q.iter().map(|(key, _)| key).collect();
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn a_key_naming_no_entry_is_a_structured_error() {
        let mut q = RequestQueue::new(4, 2);
        q.push(pending(0, 0));
        let key = key_of(&q, 0);
        q.remove(key).unwrap();
        q.push(on_bank(1, 64, 1));
        // The freed slot now holds a younger entry: the old key names
        // nothing, and the failed removal leaves the queue untouched.
        let err = q.remove(key).unwrap_err();
        assert!(matches!(err, SimError::QueueIndex { index: 0, len: 1 }));
        assert!(q.get(key).is_none());
        assert_eq!(ids(q.iter()), [1]);
        assert_eq!(q.occupied_banks().collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn storage_stays_bounded_under_churn() {
        // Churn: fill, remove from the middle and the front, refill — many
        // times over, across banks. Capacity is never lost, arrival order
        // holds, and the slab never outgrows its reservation.
        let mut q = RequestQueue::new(8, 4);
        let reserved = q.slots.capacity();
        let mut next_id = 0u64;
        for _ in 0..8 {
            q.push(on_bank(next_id, next_id * 64, (next_id % 4) as usize));
            next_id += 1;
        }
        for round in 0..100u64 {
            let victim = q.iter().nth((round % 6) as usize + 1).unwrap().0;
            q.remove(victim).unwrap();
            assert!(!q.is_full());
            let (front, _) = q.front().unwrap();
            q.remove(front).unwrap();
            for _ in 0..2 {
                let bank = (next_id * 7 % 4) as usize;
                assert!(q.push(on_bank(next_id, next_id * 64, bank)));
                next_id += 1;
            }
            assert!(q.is_full());
            assert_eq!(q.iter().count(), q.len());
            let order = ids(q.iter());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "arrival order must survive churn");
            let per_bank: usize = (0..4).map(|bank| q.bank(bank).count()).sum();
            assert_eq!(per_bank, q.len());
            assert!(q.slots.len() <= q.capacity());
        }
        assert_eq!(q.slots.capacity(), reserved, "the slab must never grow");
    }

    #[test]
    fn contains_addr_sees_only_the_target_bank() {
        let mut q = RequestQueue::new(4, 2);
        q.push(on_bank(0, 0, 0));
        q.push(on_bank(1, 128, 1));
        assert!(q.contains_addr(1, PhysAddr::new(128)));
        assert!(!q.contains_addr(1, PhysAddr::new(64)));
        // An address decodes to one bank, so only its bank is searched.
        assert!(!q.contains_addr(0, PhysAddr::new(128)));
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
