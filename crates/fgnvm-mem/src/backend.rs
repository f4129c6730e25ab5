//! The memory-backend abstraction the CPU models drive.
//!
//! [`MemorySystem`](crate::MemorySystem) is the flat main memory;
//! [`HybridMemory`](crate::hybrid::HybridMemory) layers a DRAM buffer in
//! front of it. Cores are generic over this trait so either can sit
//! behind them.

use fgnvm_types::address::PhysAddr;
use fgnvm_types::request::{Completion, Op, RequestId};
use fgnvm_types::time::Cycle;

/// A tickable memory that accepts line-granular requests.
pub trait MemoryBackend {
    /// Presents a demand request; `None` means backpressure (retry later).
    fn enqueue(&mut self, op: Op, addr: PhysAddr) -> Option<RequestId>;

    /// Presents a speculative prefetch; may be dropped (`None`).
    fn enqueue_prefetch(&mut self, addr: PhysAddr) -> Option<RequestId>;

    /// Advances one memory cycle, appending completions to `out`.
    fn tick_into(&mut self, out: &mut Vec<Completion>);

    /// The earliest instant at which a tick could change state (retire a
    /// completion or issue a command), or `None` when the backend is idle
    /// or cannot tell. A `Some` answer is a *lower bound*: CPU models may
    /// leap both clocks over a pure stall, knowing the skipped memory
    /// ticks would have done nothing. The default `None` simply disables
    /// that leap. The core's gap leap (`fgnvm_cpu::Core::run` retiring
    /// compute-only cycles between two ticks in one update) never asks:
    /// it runs against every backend, whatever this returns.
    fn next_event_at(&self) -> Option<Cycle> {
        None
    }

    /// Advances the clock to exactly `target`, appending completions —
    /// equivalent to calling [`tick_into`](Self::tick_into) until
    /// [`now`](Self::now) reaches `target`. Backends with an event-driven
    /// core override this to jump dead stretches.
    fn tick_to(&mut self, target: Cycle, out: &mut Vec<Completion>) {
        while self.now() < target {
            self.tick_into(out);
        }
    }

    /// The current memory cycle.
    fn now(&self) -> Cycle;

    /// Runs until fully drained (bounded); returns remaining completions.
    ///
    /// # Panics
    ///
    /// Implementations panic if draining exceeds `max_cycles`.
    fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion>;
}

impl MemoryBackend for crate::MemorySystem {
    fn enqueue(&mut self, op: Op, addr: PhysAddr) -> Option<RequestId> {
        crate::MemorySystem::enqueue(self, op, addr)
    }

    fn enqueue_prefetch(&mut self, addr: PhysAddr) -> Option<RequestId> {
        crate::MemorySystem::enqueue_prefetch(self, addr)
    }

    fn tick_into(&mut self, out: &mut Vec<Completion>) {
        crate::MemorySystem::tick_into(self, out);
    }

    fn next_event_at(&self) -> Option<Cycle> {
        // Reported only while fast-forward is on, so CPU models driven by a
        // cycle-stepped (reference) system never leap a stall either — one
        // switch controls every memory-side skip in differential tests.
        // (The core's gap leap touches no memory state; its reference is
        // the stepped loop in `fgnvm-cpu`'s tests.)
        if self.fast_forward_enabled() {
            crate::MemorySystem::next_event_at(self)
        } else {
            None
        }
    }

    fn tick_to(&mut self, target: Cycle, out: &mut Vec<Completion>) {
        crate::MemorySystem::tick_to(self, target, out);
    }

    fn now(&self) -> Cycle {
        crate::MemorySystem::now(self)
    }

    fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        crate::MemorySystem::run_until_idle(self, max_cycles)
    }
}
