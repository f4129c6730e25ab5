//! A windowed, trace-driven out-of-order core model.
//!
//! This is the gem5 substitute of the reproduction. For the paper's
//! workloads (SPEC2006 slices with ≥ 10 LLC misses per kilo-instruction)
//! relative IPC is dominated by memory stalls, which a windowed model
//! captures:
//!
//! * the core retires up to `width` instructions per CPU cycle;
//! * demand reads go to memory and may overlap (memory-level parallelism)
//!   up to the MSHR count, with same-line misses merged;
//! * execution may run ahead of the *oldest* outstanding load by at most
//!   `rob_entries` instructions — beyond that the window is full and the
//!   core stalls, exactly the behaviour that bank conflicts and slow PCM
//!   writes amplify;
//! * writes are posted; they stall the core only through write-queue
//!   backpressure.
//!
//! The memory system ticks once every `cpu_mem_ratio` CPU cycles
//! (3.2 GHz core vs 400 MHz memory controller by default).

use std::collections::VecDeque;

use fgnvm_mem::MemoryBackend;
use fgnvm_types::error::ConfigError;
use fgnvm_types::request::{Op, RequestId};
use fgnvm_types::{IntMap, IntSet};

use crate::metrics::{CoreResult, MultiCoreResult};
use crate::trace::Trace;

/// Core parameters (defaults model the paper's Nehalem-like setup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions retired per CPU cycle when nothing stalls.
    pub width: u32,
    /// Reorder-buffer entries: how far execution may run ahead of the
    /// oldest outstanding load.
    pub rob_entries: u32,
    /// Maximum distinct outstanding cache-line reads (MSHRs).
    pub mshrs: u32,
    /// CPU cycles per memory-controller cycle.
    pub cpu_mem_ratio: u32,
    /// Next-line prefetch degree (0 disables the prefetcher). On every
    /// demand miss the prefetcher requests the next `prefetch_degree`
    /// lines; completed prefetches fill a small buffer that later demand
    /// reads hit for free. Models the L2 stream prefetcher of the paper's
    /// Nehalem-like gem5 configuration.
    pub prefetch_degree: u32,
}

impl CoreConfig {
    /// The paper's CPU: a 4-wide Nehalem-like core with the CRIB-style
    /// consolidated window of its reference \[16\] (large effective
    /// instruction window), an LLC with 32 outstanding misses, a stream
    /// prefetcher, and a 3.2 GHz clock over the 400 MHz controller.
    pub fn nehalem_like() -> Self {
        CoreConfig {
            width: 4,
            rob_entries: 256,
            mshrs: 32,
            cpu_mem_ratio: 8,
            prefetch_degree: 8,
        }
    }

    /// Same core without the stream prefetcher.
    pub fn no_prefetch() -> Self {
        CoreConfig {
            prefetch_degree: 0,
            ..CoreConfig::nehalem_like()
        }
    }

    /// A simple in-order core: dual-issue, blocking loads (no run-ahead
    /// past an outstanding miss), no prefetcher. Useful as the conservative
    /// end of the front-end spectrum when studying memory sensitivity.
    pub fn in_order() -> Self {
        CoreConfig {
            width: 2,
            rob_entries: 1,
            mshrs: 1,
            cpu_mem_ratio: 8,
            prefetch_degree: 0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // prefetch_degree may legitimately be zero (prefetcher off).
        for (field, v) in [
            ("width", self.width),
            ("rob_entries", self.rob_entries),
            ("mshrs", self.mshrs),
            ("cpu_mem_ratio", self.cpu_mem_ratio),
        ] {
            if v == 0 {
                return Err(ConfigError::OutOfRange {
                    field,
                    expected: "at least 1",
                });
            }
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::nehalem_like()
    }
}

/// Trace-driven core simulator.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fgnvm_cpu::{Core, CoreConfig, Trace, TraceRecord};
/// use fgnvm_mem::MemorySystem;
/// use fgnvm_types::config::SystemConfig;
/// use fgnvm_types::PhysAddr;
///
/// let trace = Trace::new(
///     "two-rows",
///     vec![
///         TraceRecord::read(100, PhysAddr::new(0)),
///         TraceRecord::read(100, PhysAddr::new(1 << 20)),
///     ],
/// );
/// let core = Core::new(CoreConfig::nehalem_like())?;
/// let mut memory = MemorySystem::new(SystemConfig::fgnvm(8, 2)?)?;
/// let result = core.run(&trace, &mut memory);
/// assert_eq!(result.instructions, trace.instruction_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    config: CoreConfig,
}

impl Core {
    /// Creates a core with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(config: CoreConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Core { config })
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Runs `trace` to completion against any [`MemoryBackend`] (the flat
    /// `MemorySystem` or a DRAM-buffered hybrid), returning IPC and
    /// related metrics. The memory is driven in lock-step and left fully
    /// drained afterwards (so its energy totals cover the run).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds an internal safety bound (which
    /// would indicate a deadlock in the memory system).
    pub fn run<M: MemoryBackend>(&self, trace: &Trace, memory: &mut M) -> CoreResult {
        let mut engine = [CoreEngine::new(self.config, trace)];
        let (_, mem_cycles) = self.drive(&mut engine, trace.instruction_count(), memory);
        engine[0].result(mem_cycles)
    }

    /// Runs one trace per core, every core with its own window, MSHRs and
    /// prefetcher, on a shared `memory` and one CPU clock, and leaves the
    /// memory drained. Each core's result counts the cycles up to its own
    /// finish, so a short trace is not charged a long one's run.
    ///
    /// Unlike interleaving traces onto one core (see
    /// `fgnvm_workloads::mix::interleave`), contention happens where it
    /// physically does, in the shared controller and banks.
    /// [`weighted_speedup`](crate::weighted_speedup) and
    /// [`fairness`](crate::fairness) compare the shared run against solo
    /// ones.
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use fgnvm_cpu::{Core, CoreConfig, Trace, TraceRecord};
    /// use fgnvm_mem::MemorySystem;
    /// use fgnvm_types::config::SystemConfig;
    /// use fgnvm_types::PhysAddr;
    ///
    /// // Two cores, each with its own miss stream.
    /// let traces: Vec<Trace> = (0..2u64)
    ///     .map(|core| {
    ///         Trace::new(
    ///             format!("core{core}"),
    ///             (0..200u64)
    ///                 .map(|i| TraceRecord::read(30, PhysAddr::new((core * 977 + i) * 8192)))
    ///                 .collect(),
    ///         )
    ///     })
    ///     .collect();
    /// let mut memory = MemorySystem::new(SystemConfig::fgnvm(8, 8)?)?;
    /// let shared = Core::new(CoreConfig::nehalem_like())?.run_shared(&traces, &mut memory);
    /// assert_eq!(shared.per_core.len(), 2);
    /// assert!(shared.throughput() > 0.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds an internal safety bound.
    pub fn run_shared<M: MemoryBackend>(
        &self,
        traces: &[Trace],
        memory: &mut M,
    ) -> MultiCoreResult {
        let mut engines: Vec<CoreEngine<'_>> = traces
            .iter()
            .map(|t| CoreEngine::new(self.config, t))
            .collect();
        let instructions = traces.iter().map(Trace::instruction_count).sum();
        let (total_cycles, mem_cycles) = self.drive(&mut engines, instructions, memory);
        MultiCoreResult {
            per_core: engines.iter().map(|e| e.result(mem_cycles)).collect(),
            total_cycles,
        }
    }

    /// Steps `engines` on one CPU clock until every one is done, drains
    /// the memory, and returns the final CPU cycle and the memory cycles
    /// used. The memory ticks every `cpu_mem_ratio` CPU cycles; its
    /// completions go to every engine (request ids are globally unique),
    /// and the engines then issue prefetches in an order that rotates by
    /// one each tick, so that no engine monopolizes the queue headroom.
    /// Then each live engine steps once, in index order. An engine
    /// finishes at the end of the cycle in which it becomes done, at the
    /// tick or at its step.
    fn drive<M: MemoryBackend>(
        &self,
        engines: &mut [CoreEngine<'_>],
        instructions: u64,
        memory: &mut M,
    ) -> (u64, u64) {
        let start_mem_cycle = memory.now();
        let mut cpu_cycle: u64 = 0;
        let mut completions = Vec::new();
        // Safety bound: a trace instruction should never take more than
        // ~10^5 CPU cycles even under pathological conflicts.
        let cycle_limit = 200_000 + instructions * 100_000;
        let ratio = u64::from(self.config.cpu_mem_ratio);
        let width = u64::from(self.config.width);
        let n = engines.len();
        let mut live = engines.iter().filter(|e| e.finish.is_none()).count();
        // The CPU cycle of the next memory tick.
        let mut next_tick: u64 = 0;
        while live > 0 {
            assert!(cpu_cycle < cycle_limit, "core deadlocked against memory");
            if cpu_cycle == next_tick {
                completions.clear();
                memory.tick_into(&mut completions);
                for engine in engines.iter_mut() {
                    engine.absorb_completions(&completions);
                }
                // Finished engines still drain their prefetch queues.
                let first = if n > 1 {
                    (cpu_cycle / ratio) as usize % n
                } else {
                    0
                };
                let (front, back) = engines.split_at_mut(first);
                for engine in back.iter_mut().chain(front) {
                    engine.issue_prefetches(memory);
                }
                next_tick += ratio;
            }
            // Gap leap: a cycle in which every live engine only retires
            // `width` gap instructions touches nothing but their gap
            // counters, so the run of such cycles up to the next tick (or
            // the deadlock bound, where a stepped run would panic) is
            // applied in one update.
            let mut room = u64::MAX;
            for engine in engines.iter() {
                if engine.finish.is_none() {
                    room = room.min(engine.gap_room());
                }
            }
            if room >= width {
                let gap_cycles = (room / width).min(next_tick.min(cycle_limit) - cpu_cycle);
                for engine in engines.iter_mut() {
                    if engine.finish.is_none() {
                        engine.retire_gap(gap_cycles * width);
                    }
                }
                cpu_cycle += gap_cycles;
                continue;
            }
            let mut pure_stall = true;
            for engine in engines.iter_mut() {
                if engine.finish.is_some() {
                    continue;
                }
                if !engine.is_done() {
                    pure_stall &= engine.step(memory).pure_stall();
                }
                if engine.is_done() {
                    engine.finish = Some(cpu_cycle + 1);
                    live -= 1;
                }
            }
            cpu_cycle += 1;
            // Event-driven leap: a pure stall repeats verbatim (memory is
            // only ticked at boundaries, and a no-progress step leaves an
            // engine untouched), so the clocks can jump to the boundary
            // that pre-dates the memory's next event once every live
            // engine pure-stalled. Every engine's `prefetch_idle`
            // guarantees the skipped boundaries' prefetch passes were
            // no-ops.
            if pure_stall && live > 0 && engines.iter().all(CoreEngine::prefetch_idle) {
                if let Some(event) = memory.next_event_at() {
                    let event_boundary = (event - start_mem_cycle).raw().saturating_mul(ratio);
                    // Never leap past the deadlock bound: a stepped run
                    // would panic there, and so must we.
                    let target = event_boundary.min(cycle_limit);
                    if target > cpu_cycle {
                        for engine in engines.iter_mut() {
                            if engine.finish.is_none() {
                                engine.note_stalled(target - cpu_cycle);
                            }
                        }
                        cpu_cycle = target;
                        next_tick = target.next_multiple_of(ratio);
                        if target == event_boundary {
                            completions.clear();
                            memory.tick_to(event, &mut completions);
                            debug_assert!(
                                completions.is_empty(),
                                "fast-forward leap skipped a completion"
                            );
                        }
                    }
                }
            }
        }
        // Drain remaining write traffic so energy covers the whole run.
        memory.run_until_idle(10_000_000);
        (cpu_cycle, (memory.now() - start_mem_cycle).raw())
    }
}

/// Prefetcher sizing shared by all engines.
const PREFETCH_INFLIGHT_MAX: usize = 32;
const PREFETCH_BUFFER_LINES: usize = 128;
const STREAM_TABLE: usize = 16;

/// One outstanding demand load: where it issued in the instruction stream
/// (for the window check) and the line it waits on (its `line_waiters`
/// key, removed when it completes).
#[derive(Debug, Clone, Copy)]
struct Load {
    position: u64,
    line: u64,
}

/// What one [`CoreEngine::step`] call did, used by the drivers to decide
/// whether the machine is provably frozen until the memory's next event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepOutcome {
    /// At least one instruction was issued (any state advanced).
    pub issued_any: bool,
    /// The step called into the memory backend (even a rejected enqueue
    /// mutates backend statistics, so such a stall cannot be skipped).
    pub touched_memory: bool,
}

impl StepOutcome {
    /// True when the step changed nothing but the stall counter: the same
    /// step will repeat verbatim until the memory system's state moves.
    pub fn pure_stall(self) -> bool {
        !self.issued_any && !self.touched_memory
    }
}

/// The per-cycle state machine of one windowed core: dispatch/issue
/// bookkeeping, MSHR merging, dependence stalls, and the stream
/// prefetcher. [`Core::run`] drives one engine, [`Core::run_shared`]
/// several against a shared memory.
#[derive(Debug)]
pub(crate) struct CoreEngine<'t> {
    cfg: CoreConfig,
    records: &'t [crate::trace::TraceRecord],
    record_index: usize,
    gap_left: u32,
    issued_instructions: u64,
    // The integer maps skip SipHash. Lines come from trace files, but
    // every map is bounded by the MSHRs or the prefetcher's window and
    // buffer, so even lines crafted to collide cost a bounded probe.
    loads: IntMap<RequestId, Load>,
    line_waiters: IntMap<u64, RequestId>,
    oldest_load: Option<u64>,
    stall_cycles: u64,
    prefetch_inflight: IntMap<RequestId, u64>,
    prefetch_buffer: IntSet<u64>,
    prefetch_fifo: VecDeque<u64>,
    prefetch_queue: VecDeque<u64>,
    streams: VecDeque<(u64, u64, i32)>,
    /// The CPU cycle at whose end the engine was done, once it is.
    finish: Option<u64>,
}

impl<'t> CoreEngine<'t> {
    pub(crate) fn new(cfg: CoreConfig, trace: &'t Trace) -> Self {
        let records = trace.records();
        CoreEngine {
            cfg,
            records,
            record_index: 0,
            gap_left: records.first().map_or(0, |r| r.gap),
            issued_instructions: 0,
            loads: IntMap::default(),
            line_waiters: IntMap::default(),
            oldest_load: None,
            stall_cycles: 0,
            prefetch_inflight: IntMap::default(),
            prefetch_buffer: IntSet::default(),
            prefetch_fifo: VecDeque::new(),
            prefetch_queue: VecDeque::new(),
            streams: VecDeque::new(),
            // An empty trace is done before its first cycle.
            finish: records.is_empty().then_some(0),
        }
    }

    /// True once the trace is fully issued and no loads are outstanding.
    pub(crate) fn is_done(&self) -> bool {
        self.record_index >= self.records.len() && self.loads.is_empty()
    }

    /// Notes completed memory requests (other cores' ids are ignored).
    ///
    /// A line's waiter is the one request in flight for it (a miss is
    /// only sent while the line has none), so a completion frees its own
    /// line's entry and no other.
    pub(crate) fn absorb_completions(&mut self, completions: &[fgnvm_types::Completion]) {
        for c in completions {
            if c.op.is_read() {
                if let Some(load) = self.loads.remove(&c.id) {
                    let freed = self.line_waiters.remove(&load.line);
                    debug_assert_eq!(freed, Some(c.id), "a load waits on its own line");
                    self.oldest_load = self.loads.values().map(|l| l.position).min();
                } else if let Some(line) = self.prefetch_inflight.remove(&c.id) {
                    let freed = self.line_waiters.remove(&line);
                    debug_assert_eq!(freed, Some(c.id), "a prefetch waits on its own line");
                    if self.prefetch_buffer.insert(line) {
                        self.prefetch_fifo.push_back(line);
                        if self.prefetch_fifo.len() > PREFETCH_BUFFER_LINES {
                            if let Some(evicted) = self.prefetch_fifo.pop_front() {
                                self.prefetch_buffer.remove(&evicted);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Issues queued prefetches with whatever bandwidth is left.
    pub(crate) fn issue_prefetches<M: MemoryBackend>(&mut self, memory: &mut M) {
        while self.prefetch_inflight.len() < PREFETCH_INFLIGHT_MAX {
            let Some(line) = self.prefetch_queue.pop_front() else {
                break;
            };
            if self.prefetch_buffer.contains(&line) || self.line_waiters.contains_key(&line) {
                continue;
            }
            let addr = fgnvm_types::PhysAddr::new(line << 6);
            match memory.enqueue_prefetch(addr) {
                Some(id) => {
                    self.prefetch_inflight.insert(id, line);
                    self.line_waiters.insert(line, id);
                }
                None => {
                    // Throttled or queue full: drop (best effort).
                    break;
                }
            }
        }
    }

    /// True when the prefetcher cannot interact with memory right now
    /// (nothing queued, or the in-flight window is full): calling
    /// [`issue_prefetches`](Self::issue_prefetches) would be a no-op.
    pub(crate) fn prefetch_idle(&self) -> bool {
        self.prefetch_queue.is_empty() || self.prefetch_inflight.len() >= PREFETCH_INFLIGHT_MAX
    }

    /// Accounts `n` skipped pure-stall cycles exactly as `n` individual
    /// [`step`](Self::step) calls would have.
    pub(crate) fn note_stalled(&mut self, n: u64) {
        if self.record_index < self.records.len() {
            self.stall_cycles += n;
        }
    }

    /// How many gap instructions the next steps can retire at full width
    /// with nothing else happening: the gap left, capped by the free
    /// window entries (unlimited with no load outstanding), since every
    /// instruction of a cycle must pass the window check.
    ///
    /// A [`step`](Self::step) that finds at least `width` gap instructions
    /// left and `width` free window entries retires exactly `width` gap
    /// instructions and changes nothing else: no stall, no memory call.
    /// Neither the gap nor the window's oldest load moves until a step
    /// issues a memory operation or a tick absorbs a completion, so the
    /// next `gap_room() / width` steps are all such cycles.
    pub(crate) fn gap_room(&self) -> u64 {
        let room = self.oldest_load.map_or(u64::MAX, |oldest| {
            u64::from(self.cfg.rob_entries).saturating_sub(self.issued_instructions - oldest)
        });
        u64::from(self.gap_left).min(room)
    }

    /// Retires `n` gap instructions, at most [`gap_room`](Self::gap_room),
    /// exactly as the steps that would retire them.
    pub(crate) fn retire_gap(&mut self, n: u64) {
        // `n` is at most `gap_left`, a `u32`.
        self.gap_left -= n as u32;
        self.issued_instructions += n;
    }

    /// Executes one CPU cycle: dispatches up to `width` instructions.
    pub(crate) fn step<M: MemoryBackend>(&mut self, memory: &mut M) -> StepOutcome {
        let cfg = self.cfg;
        let issued_before = self.issued_instructions;
        let mut touched_memory = false;
        let mut slots = cfg.width;
        while slots > 0 && self.record_index < self.records.len() {
            // ROB window check against the oldest outstanding load.
            if let Some(oldest) = self.oldest_load {
                if self.issued_instructions - oldest >= u64::from(cfg.rob_entries) {
                    break; // window full: stall
                }
            }
            if self.gap_left > 0 {
                self.gap_left -= 1;
                self.issued_instructions += 1;
                slots -= 1;
                continue;
            }
            // The memory operation of the current record.
            let record = self.records[self.record_index];
            match record.op {
                Op::Read => {
                    // Pointer-chase dependence: wait for all loads.
                    if record.dependent && !self.loads.is_empty() {
                        break;
                    }
                    let line = record.addr.raw() >> 6;
                    if self.prefetch_buffer.contains(&line) {
                        // Prefetch hit: the line is already on chip.
                        self.issued_instructions += 1;
                        slots -= 1;
                    } else if let std::collections::hash_map::Entry::Vacant(e) =
                        self.line_waiters.entry(line)
                    {
                        if self.loads.len() >= cfg.mshrs as usize {
                            break; // no MSHR: stall
                        }
                        touched_memory = true;
                        match memory.enqueue(Op::Read, record.addr) {
                            Some(id) => {
                                let position = self.issued_instructions;
                                self.loads.insert(id, Load { position, line });
                                e.insert(id);
                                if self.oldest_load.is_none() {
                                    self.oldest_load = Some(self.issued_instructions);
                                }
                                // Train the stream prefetcher.
                                if cfg.prefetch_degree > 0 {
                                    let page = line >> 6; // 64 lines = 4 KB
                                    let entry =
                                        self.streams.iter_mut().find(|(p, _, _)| *p == page);
                                    match entry {
                                        Some((_, last, conf)) => {
                                            if line == *last + 1 {
                                                *conf = (*conf + 1).min(4);
                                            } else {
                                                *conf -= 1;
                                            }
                                            *last = line;
                                            if *conf >= 2 {
                                                for d in 1..=u64::from(cfg.prefetch_degree) {
                                                    self.prefetch_queue.push_back(line + d);
                                                }
                                            }
                                        }
                                        None => {
                                            self.streams.push_back((page, line, 0));
                                            if self.streams.len() > STREAM_TABLE {
                                                self.streams.pop_front();
                                            }
                                        }
                                    }
                                    if self.prefetch_queue.len() > 4 * PREFETCH_INFLIGHT_MAX {
                                        self.prefetch_queue.drain(..PREFETCH_INFLIGHT_MAX);
                                    }
                                }
                                self.issued_instructions += 1;
                                slots -= 1;
                            }
                            None => break, // queue full: stall
                        }
                    } else {
                        // MSHR merge: piggyback on the in-flight miss
                        // (demand or prefetch).
                        self.issued_instructions += 1;
                        slots -= 1;
                    }
                }
                Op::Write => {
                    touched_memory = true;
                    match memory.enqueue(Op::Write, record.addr) {
                        Some(_) => {
                            self.issued_instructions += 1;
                            slots -= 1;
                        }
                        None => break, // write queue full: stall
                    }
                }
            }
            self.record_index += 1;
            self.gap_left = self.records.get(self.record_index).map_or(0, |r| r.gap);
        }
        if slots == cfg.width && self.record_index < self.records.len() {
            self.stall_cycles += 1;
        }
        StepOutcome {
            issued_any: self.issued_instructions > issued_before,
            touched_memory,
        }
    }

    /// Packages the result after the driver finishes: the CPU cycles are
    /// those up to the engine's own finish.
    pub(crate) fn result(&self, mem_cycles: u64) -> CoreResult {
        CoreResult {
            instructions: self.issued_instructions,
            cpu_cycles: self
                .finish
                .expect("the driver runs every engine to its finish")
                .max(1),
            mem_cycles,
            stall_cycles: self.stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{fairness, weighted_speedup};
    use crate::trace::TraceRecord;
    use fgnvm_mem::MemorySystem;
    use fgnvm_types::address::PhysAddr;
    use fgnvm_types::config::SystemConfig;
    use proptest::prelude::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(SystemConfig::baseline()).unwrap()
    }

    fn read_at(gap: u32, addr: u64) -> TraceRecord {
        TraceRecord::read(gap, PhysAddr::new(addr))
    }

    #[test]
    fn compute_bound_trace_hits_full_width() {
        // Huge gaps: IPC should approach the core width.
        let trace = Trace::new("compute", vec![read_at(100_000, 0)]);
        let core = Core::new(CoreConfig::nehalem_like()).unwrap();
        let result = core.run(&trace, &mut mem());
        assert!(result.ipc() > 3.5, "ipc {} should be near 4", result.ipc());
    }

    #[test]
    fn stall_accounting_tracks_memory_boundedness() {
        let compute = Trace::new("compute", vec![read_at(100_000, 0)]);
        let mem_bound: Vec<TraceRecord> = (0..50u64)
            .map(|i| TraceRecord::dependent_read(0, PhysAddr::new(i * 32 * 1024 * 1024)))
            .collect();
        let mem_bound = Trace::new("membound", mem_bound);
        let core = Core::new(CoreConfig::no_prefetch()).unwrap();
        let light = core.run(&compute, &mut mem());
        let heavy = core.run(&mem_bound, &mut mem());
        assert!(
            light.stall_fraction() < 0.05,
            "compute stalls {}",
            light.stall_fraction()
        );
        assert!(
            heavy.stall_fraction() > 0.8,
            "membound stalls {}",
            heavy.stall_fraction()
        );
    }

    #[test]
    fn memory_bound_trace_is_slow() {
        // Dependent-miss behaviour: serial row misses dominate.
        let records: Vec<TraceRecord> = (0..50u64)
            .map(|i| read_at(0, i * 32 * 1024 * 1024))
            .collect();
        let trace = Trace::new("membound", records);
        let core = Core::new(CoreConfig {
            mshrs: 1,
            ..CoreConfig::nehalem_like()
        })
        .unwrap();
        let result = core.run(&trace, &mut mem());
        assert!(result.ipc() < 0.1, "ipc {} should be tiny", result.ipc());
    }

    #[test]
    fn mlp_improves_ipc() {
        // Same misses, but 16 MSHRs overlap them across banks.
        let records: Vec<TraceRecord> = (0..64u64).map(|i| read_at(8, i * 1024)).collect();
        let trace = Trace::new("mlp", records);
        let narrow = Core::new(CoreConfig {
            mshrs: 1,
            ..CoreConfig::nehalem_like()
        })
        .unwrap();
        let wide = Core::new(CoreConfig {
            mshrs: 16,
            ..CoreConfig::nehalem_like()
        })
        .unwrap();
        let slow = narrow.run(&trace, &mut mem());
        let fast = wide.run(&trace, &mut mem());
        assert!(
            fast.ipc() > slow.ipc() * 1.5,
            "mlp ipc {} vs serial {}",
            fast.ipc(),
            slow.ipc()
        );
    }

    #[test]
    fn same_line_misses_merge() {
        let records: Vec<TraceRecord> = (0..8).map(|_| read_at(0, 0x40)).collect();
        let trace = Trace::new("merge", records);
        let core = Core::new(CoreConfig::no_prefetch()).unwrap();
        let mut memory = mem();
        core.run(&trace, &mut memory);
        // Only one actual memory read was issued.
        assert_eq!(memory.stats().enqueued_reads, 1);
    }

    #[test]
    fn dependent_reads_serialize() {
        let records: Vec<TraceRecord> = (0..32u64)
            .map(|i| TraceRecord::dependent_read(0, PhysAddr::new(i * 1024)))
            .collect();
        let independent: Vec<TraceRecord> = (0..32u64).map(|i| read_at(0, i * 1024)).collect();
        let core = Core::new(CoreConfig::nehalem_like()).unwrap();
        let chained = core.run(&Trace::new("chase", records), &mut mem());
        let parallel = core.run(&Trace::new("par", independent), &mut mem());
        assert!(
            chained.cpu_cycles > parallel.cpu_cycles * 2,
            "dependence should serialize: {} vs {}",
            chained.cpu_cycles,
            parallel.cpu_cycles
        );
    }

    #[test]
    fn writes_are_posted() {
        let records: Vec<TraceRecord> = (0..8u64)
            .map(|i| TraceRecord::write(0, PhysAddr::new(i * 4096)))
            .collect();
        let trace = Trace::new("writes", records);
        let core = Core::new(CoreConfig::nehalem_like()).unwrap();
        let result = core.run(&trace, &mut mem());
        // Posted writes retire at core speed: 8 writes in a handful of
        // cycles, not 8 × tWP.
        assert!(
            result.cpu_cycles < 100,
            "writes stalled: {} cycles",
            result.cpu_cycles
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::new("empty", vec![]);
        let core = Core::new(CoreConfig::nehalem_like()).unwrap();
        let result = core.run(&trace, &mut mem());
        assert_eq!(result.instructions, 0);
        assert_eq!(result.ipc(), 0.0);
    }

    #[test]
    fn in_order_core_is_slower_than_ooo() {
        let records: Vec<TraceRecord> = (0..32u64).map(|i| read_at(10, i * 1024)).collect();
        let trace = Trace::new("cmp", records);
        let ooo = Core::new(CoreConfig::nehalem_like()).unwrap();
        let ino = Core::new(CoreConfig::in_order()).unwrap();
        let fast = ooo.run(&trace, &mut mem());
        let slow = ino.run(&trace, &mut mem());
        assert!(
            fast.ipc() > slow.ipc() * 2.0,
            "ooo {} should dwarf in-order {}",
            fast.ipc(),
            slow.ipc()
        );
    }

    #[test]
    fn zero_config_rejected() {
        let bad = CoreConfig {
            width: 0,
            ..CoreConfig::nehalem_like()
        };
        assert!(Core::new(bad).is_err());
    }

    /// Builds `n` distinct synthetic mixed read/write miss streams
    /// (fgnvm-workloads cannot be used here — it depends on this crate).
    fn traces(n: usize, ops: usize) -> Vec<Trace> {
        (0..n as u64)
            .map(|seed| {
                let records = (0..ops as u64)
                    .map(|i| {
                        let addr =
                            (i.wrapping_mul(0x9E37_79B9).wrapping_add(seed * 977)) & 0xFFF_FFC0;
                        if i % 4 == 0 {
                            TraceRecord::write(20, PhysAddr::new(addr))
                        } else {
                            TraceRecord::read(20, PhysAddr::new(addr))
                        }
                    })
                    .collect();
                Trace::new(format!("core{seed}"), records)
            })
            .collect()
    }

    #[test]
    fn shared_memory_slows_each_core() {
        let ts = traces(2, 400);
        let cfg = CoreConfig::no_prefetch();
        // Solo runs.
        let core = Core::new(cfg).unwrap();
        let solo: Vec<CoreResult> = ts
            .iter()
            .map(|t| {
                let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
                core.run(t, &mut mem)
            })
            .collect();
        // Shared run.
        let mut mem = MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        let shared = core.run_shared(&ts, &mut mem);
        assert_eq!(shared.per_core.len(), 2);
        for (s, alone) in shared.per_core.iter().zip(&solo) {
            assert_eq!(s.instructions, alone.instructions);
            assert!(
                s.ipc() <= alone.ipc() * 1.01,
                "sharing cannot speed a core up"
            );
        }
        let ws = weighted_speedup(&shared.per_core, &solo);
        assert!(ws > 1.0 && ws <= 2.0, "weighted speedup {ws}");
        let f = fairness(&shared.per_core, &solo);
        assert!((0.0..=1.0 + 1e-9).contains(&f), "fairness {f}");
    }

    #[test]
    fn subdivision_helps_consolidation() {
        let ts = traces(4, 300);
        let cfg = CoreConfig::no_prefetch();
        let mut base = MemorySystem::new(SystemConfig::baseline()).unwrap();
        let mut fg = MemorySystem::new(SystemConfig::fgnvm(8, 8).unwrap()).unwrap();
        let core = Core::new(cfg).unwrap();
        let on_base = core.run_shared(&ts, &mut base);
        let on_fg = core.run_shared(&ts, &mut fg);
        assert!(
            on_fg.throughput() > on_base.throughput(),
            "fgnvm throughput {} should beat baseline {}",
            on_fg.throughput(),
            on_base.throughput()
        );
    }

    /// A short trace beside a long one is charged its own finish cycle,
    /// not the shared run's, although its last load completes at a
    /// memory tick rather than in one of its steps.
    #[test]
    fn short_core_is_charged_its_own_finish() {
        let reads = |seed: u64, n: u64, gap: u32| {
            let records = (0..n)
                .map(|i| {
                    let addr = (i * 0x9E37_79B9 + seed * 977) & 0xFFF_FFC0;
                    TraceRecord::read(gap, PhysAddr::new(addr))
                })
                .collect();
            Trace::new(format!("core{seed}"), records)
        };
        let (short, long) = (reads(0, 10, 400), reads(1, 2000, 100));
        let cfg = CoreConfig::no_prefetch();
        let memory = || MemorySystem::new(SystemConfig::fgnvm(8, 2).unwrap()).unwrap();
        let solo = Core::new(cfg).unwrap().run(&short, &mut memory());
        let shared = Core::new(cfg)
            .unwrap()
            .run_shared(&[short, long], &mut memory());
        let cycles = shared.per_core[0].cpu_cycles;
        assert!(
            cycles * 10 <= solo.cpu_cycles * 11,
            "short core charged {cycles} shared cycles against {} solo",
            solo.cpu_cycles
        );
    }

    /// The reference for [`Core::run`] and [`Core::run_shared`]: the
    /// shared loop without the gap leap, one [`CoreEngine::step`] per live
    /// engine per CPU cycle, so every gap instruction goes through the
    /// step loop.
    fn run_stepped<M: MemoryBackend>(
        core: &Core,
        traces: &[Trace],
        memory: &mut M,
    ) -> MultiCoreResult {
        let mut engines: Vec<CoreEngine<'_>> = traces
            .iter()
            .map(|t| CoreEngine::new(core.config, t))
            .collect();
        let mut finish_cycle: Vec<Option<u64>> = vec![None; engines.len()];
        let start_mem_cycle = memory.now();
        let mut completions = Vec::new();
        let mut cpu_cycle: u64 = 0;
        let instructions: u64 = traces.iter().map(Trace::instruction_count).sum();
        let cycle_limit = 200_000 + instructions * 100_000;
        let ratio = u64::from(core.config.cpu_mem_ratio);
        while engines.iter().any(|e| !e.is_done()) {
            assert!(cpu_cycle < cycle_limit, "core deadlocked against memory");
            if cpu_cycle.is_multiple_of(ratio) {
                completions.clear();
                memory.tick_into(&mut completions);
                for engine in &mut engines {
                    engine.absorb_completions(&completions);
                }
                let n = engines.len();
                let first = (cpu_cycle / ratio) as usize % n;
                for k in 0..n {
                    engines[(first + k) % n].issue_prefetches(memory);
                }
            }
            let mut pure_stall = true;
            for (engine, finish) in engines.iter_mut().zip(&mut finish_cycle) {
                if !engine.is_done() {
                    pure_stall &= engine.step(memory).pure_stall();
                }
                if engine.is_done() && finish.is_none() {
                    *finish = Some(cpu_cycle + 1);
                }
            }
            cpu_cycle += 1;
            if pure_stall
                && engines.iter().any(|e| !e.is_done())
                && engines.iter().all(CoreEngine::prefetch_idle)
            {
                if let Some(event) = memory.next_event_at() {
                    let event_boundary = (event - start_mem_cycle).raw().saturating_mul(ratio);
                    let target = event_boundary.min(cycle_limit);
                    if target > cpu_cycle {
                        for engine in &mut engines {
                            if !engine.is_done() {
                                engine.note_stalled(target - cpu_cycle);
                            }
                        }
                        cpu_cycle = target;
                        if target == event_boundary {
                            completions.clear();
                            memory.tick_to(event, &mut completions);
                        }
                    }
                }
            }
        }
        memory.run_until_idle(10_000_000);
        let mem_cycles = (memory.now() - start_mem_cycle).raw();
        let per_core = engines
            .iter()
            .zip(&finish_cycle)
            .map(|(engine, finish)| CoreResult {
                instructions: engine.issued_instructions,
                cpu_cycles: finish.unwrap_or(cpu_cycle).max(1),
                mem_cycles,
                stall_cycles: engine.stall_cycles,
            })
            .collect();
        MultiCoreResult {
            per_core,
            total_cycles: cpu_cycle,
        }
    }

    /// Random traces: gaps 0–300 (most not a multiple of any width),
    /// reads, dependent reads and writes, on a line that repeats (an MSHR
    /// merge or a prefetch-buffer hit), steps to the next line (training
    /// the stream prefetcher), or jumps to another page. A trace starts on
    /// one of three lines, so that traces run side by side sometimes share
    /// lines.
    fn trace_strategy() -> impl Strategy<Value = Trace> {
        (
            0u64..3,
            prop::collection::vec((0u32..301, 0u32..6, 0u64..8), 1..40),
        )
            .prop_map(|(start, ops)| {
                let mut line = start * 64 * 101;
                let records = ops
                    .into_iter()
                    .map(|(gap, kind, step)| {
                        line = match step {
                            0 => line,
                            1..=4 => line + 1,
                            5 => line + 64 * 37,
                            _ => (line * 0x9E37_79B9 + step) % (1 << 20),
                        };
                        let addr = PhysAddr::new(line << 6);
                        match kind {
                            0 => TraceRecord::write(gap, addr),
                            1 => TraceRecord::dependent_read(gap, addr),
                            _ => TraceRecord::read(gap, addr),
                        }
                    })
                    .collect();
                Trace::new("random", records)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The gap leap changes nothing: `Core::run_shared` over one to
        /// four traces, and `Core::run` over one, equal the stepped
        /// reference in each core's result, the memory's statistics and
        /// its energy, for windows the leap must respect (a ROB of 7 at
        /// width 3, the in-order core's single entry) and with the
        /// memory's fast-forward off, where the pure-stall leap never
        /// fires but the gap leap still does.
        #[test]
        fn gap_leap_matches_stepping(traces in prop::collection::vec(trace_strategy(), 1..5)) {
            let cores = [
                CoreConfig::nehalem_like(),
                CoreConfig::no_prefetch(),
                CoreConfig::in_order(),
                CoreConfig {
                    width: 3,
                    rob_entries: 7,
                    ..CoreConfig::nehalem_like()
                },
            ];
            let systems = [
                SystemConfig::baseline(),
                SystemConfig::fgnvm(8, 2).unwrap(),
                SystemConfig::many_banks_matching(8, 2).unwrap(),
                SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap(),
            ];
            for config in cores {
                let core = Core::new(config).unwrap();
                for system in systems {
                    for fast_forward in [true, false] {
                        let memory = || {
                            let mut memory = MemorySystem::new(system).unwrap();
                            memory.set_fast_forward(fast_forward);
                            memory
                        };
                        let (mut leapt, mut stepped) = (memory(), memory());
                        let case = format!(
                            "{} traces, {config:?} on {:?}, fast-forward {fast_forward}",
                            traces.len(),
                            system.bank_model
                        );
                        let shared = core.run_shared(&traces, &mut leapt);
                        let reference = run_stepped(&core, &traces, &mut stepped);
                        prop_assert_eq!(&shared.per_core, &reference.per_core, "{}", case);
                        prop_assert_eq!(shared.total_cycles, reference.total_cycles, "{}", case);
                        prop_assert!(leapt.stats() == stepped.stats(), "{}: statistics differ", case);
                        prop_assert!(leapt.energy() == stepped.energy(), "{}: energy differs", case);
                        if let [trace] = &traces[..] {
                            let mut alone = memory();
                            let result = core.run(trace, &mut alone);
                            prop_assert_eq!(result, reference.per_core[0], "{}", case);
                            prop_assert!(alone.stats() == stepped.stats(), "{}: statistics differ", case);
                        }
                    }
                }
            }
        }
    }
}
