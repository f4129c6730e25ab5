//! Steady-state fast-forward must not touch the heap.
//!
//! The event-driven core (`next_event_at` + `skip_to` + sparse ticks) is
//! the per-cycle inner loop of every sweep; an allocation there is a
//! per-event cost multiplied by billions of simulated cycles. This test
//! pins the guarantee with a counting global allocator: after a warm-up
//! that grows every internal buffer to its steady-state capacity
//! (request-queue rings, the event heap, the completion vector), further
//! enqueue/drain waves of the same shape must perform **zero** heap
//! allocations and **zero** reallocations. The same holds with the
//! observer enabled (stall attribution, its spans, the tile heatmap),
//! whose hooks run on every enqueue, command and completion. A second
//! wave shape spreads reads and writes from two tenants over every bank
//! under the QoS scheduler, so each bank's queue list, the bank bitsets
//! and the per-tenant service counters see their first use in warm-up.
//!
//! The armed flag and the tally are thread-local (const-initialized, so
//! reading them never itself allocates or registers a destructor): only
//! allocations made by a test's own thread count, keeping libtest's
//! harness threads and the other test from poisoning the tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fgnvm_mem::MemorySystem;
use fgnvm_types::address::DecodedAddr;
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::request::{Completion, Op};
use fgnvm_types::PhysAddr;

/// Forwards to the system allocator, counting alloc/realloc calls while
/// the current thread is armed. Deallocations are not counted: freeing
/// warm-up scratch late is harmless, acquiring new memory mid-loop is the
/// regression.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn armed() -> bool {
    ARMED.with(Cell::get)
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            count();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            count();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One wave of the bench's write-drain pattern: 32 writes onto one bank
/// across 16 rows, then drain to idle. Identical shape every wave, so the
/// first wave settles every buffer at its high-water mark.
fn wave(mem: &mut MemorySystem, id: &mut u64, out: &mut Vec<Completion>) {
    for _ in 0..32 {
        let addr = PhysAddr::new(((*id % 8) << 13) | (((*id / 8) % 16) << 6));
        *id += 1;
        enqueue(mem, Op::Write, addr, 0, out);
    }
    drain(mem, out);
}

/// One wave over all eight banks from two tenants: per bank and tenant,
/// four requests (one write in three) across eight rows and sixteen
/// lines, interleaved bank by bank, then drain to idle.
fn qos_wave(mem: &mut MemorySystem, id: &mut u64, out: &mut Vec<Completion>) {
    for _ in 0..4 {
        for bank in 0..8 {
            for tenant in 0..2 {
                let addr = mem.mapper().encode(DecodedAddr {
                    channel: 0,
                    rank: 0,
                    bank,
                    row: ((*id / 16) % 8) as u32,
                    line: (*id % 16) as u32,
                });
                let op = if id.is_multiple_of(3) {
                    Op::Write
                } else {
                    Op::Read
                };
                *id += 1;
                enqueue(mem, op, addr, tenant, out);
            }
        }
    }
    drain(mem, out);
}

/// Enqueues one request, ticking a cycle at a time while its queue is full.
fn enqueue(mem: &mut MemorySystem, op: Op, addr: PhysAddr, tenant: u16, out: &mut Vec<Completion>) {
    while mem.enqueue_for(op, addr, tenant).is_none() {
        mem.tick_to(fgnvm_types::time::Cycle::new(mem.now().raw() + 1), out);
    }
}

/// Hops event to event until idle (the fast-forward inner loop).
fn drain(mem: &mut MemorySystem, out: &mut Vec<Completion>) {
    while !mem.is_idle() {
        let target = fgnvm_types::time::Cycle::new(mem.now().raw() + 1_000_000);
        mem.tick_to(target, out);
        assert!(
            mem.is_idle() || mem.now().raw() < target.raw(),
            "drain failed to converge"
        );
    }
}

type Wave = fn(&mut MemorySystem, &mut u64, &mut Vec<Completion>);

/// Heap allocations made by ten armed waves after two warm-up waves.
fn allocations_in_warm_waves(config: SystemConfig, wave: Wave, observed: bool) -> u64 {
    let mut mem = MemorySystem::new(config).unwrap();
    mem.set_fast_forward(true);
    if observed {
        mem.enable_observer();
    }
    let mut id = 0u64;
    let mut out = Vec::with_capacity(4096);

    // Warm-up: two full waves grow the queues, the event heap, and `out`
    // to the repeating pattern's high-water marks.
    for _ in 0..2 {
        wave(&mut mem, &mut id, &mut out);
    }
    out.clear();

    // Armed: ten more identical waves must never touch the allocator.
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    for _ in 0..10 {
        wave(&mut mem, &mut id, &mut out);
        out.clear();
    }
    ARMED.with(|a| a.set(false));
    assert!(id >= 12 * 32, "waves did not run");
    assert!(
        !observed
            || mem.observer().is_some_and(|o| {
                o.attribution.writes.count + o.attribution.reads.count >= 12 * 32
            }),
        "the observer did not see the waves"
    );
    ALLOCS.with(Cell::get)
}

fn qos_config() -> SystemConfig {
    let mut config = SystemConfig::fgnvm(8, 2).unwrap();
    config.scheduler = SchedulerKind::FrfcfsQos;
    config
}

#[test]
fn fast_forward_steady_state_allocates_nothing() {
    let allocs = allocations_in_warm_waves(SystemConfig::fgnvm(8, 2).unwrap(), wave, false);
    assert_eq!(
        allocs, 0,
        "steady-state fast-forward performed {allocs} heap allocations"
    );
}

#[test]
fn observed_fast_forward_steady_state_allocates_nothing() {
    let allocs = allocations_in_warm_waves(SystemConfig::fgnvm(8, 2).unwrap(), wave, true);
    assert_eq!(
        allocs, 0,
        "observed steady-state fast-forward performed {allocs} heap allocations"
    );
}

#[test]
fn qos_waves_over_every_bank_allocate_nothing() {
    for observed in [false, true] {
        let allocs = allocations_in_warm_waves(qos_config(), qos_wave, observed);
        assert_eq!(
            allocs, 0,
            "QoS waves over every bank (observer {observed}) performed {allocs} heap allocations"
        );
    }
}
