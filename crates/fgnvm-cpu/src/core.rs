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

use crate::metrics::CoreResult;
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
        let mut engine = CoreEngine::new(self.config, trace);
        let start_mem_cycle = memory.now();
        let mut cpu_cycle: u64 = 0;
        let mut completions = Vec::new();
        // Safety bound: a trace instruction should never take more than
        // ~10^5 CPU cycles even under pathological conflicts.
        let cycle_limit = 200_000 + trace.instruction_count() * 100_000;
        let ratio = u64::from(self.config.cpu_mem_ratio);
        // Memory ticks once per `cpu_mem_ratio` CPU cycles; this is the
        // CPU cycle of the next tick.
        let mut next_tick: u64 = 0;
        while !engine.is_done() {
            assert!(cpu_cycle < cycle_limit, "core deadlocked against memory");
            if cpu_cycle == next_tick {
                completions.clear();
                memory.tick_into(&mut completions);
                engine.absorb_completions(&completions);
                engine.issue_prefetches(memory);
                next_tick += ratio;
            }
            // Gap leap: a cycle that only retires `width` gap instructions
            // touches nothing but the gap counter, so the run of such
            // cycles up to the next tick (or the deadlock bound, where a
            // stepped run would panic) is applied in one update.
            let gap_cycles = engine.leap_gap(next_tick.min(cycle_limit) - cpu_cycle);
            if gap_cycles > 0 {
                cpu_cycle += gap_cycles;
                continue;
            }
            let outcome = engine.step(memory);
            cpu_cycle += 1;
            // Event-driven leap: a pure stall repeats verbatim (memory is
            // only ticked at boundaries, and a no-progress step leaves the
            // engine untouched), so both clocks can jump to the boundary
            // that pre-dates the memory's next event. `prefetch_idle`
            // guarantees the skipped boundaries' prefetch pass was a no-op.
            if outcome.pure_stall() && !engine.is_done() && engine.prefetch_idle() {
                if let Some(event) = memory.next_event_at() {
                    let event_boundary = (event - start_mem_cycle).raw().saturating_mul(ratio);
                    // Never leap past the deadlock bound: a stepped run
                    // would panic there, and so must we.
                    let target = event_boundary.min(cycle_limit);
                    if target > cpu_cycle {
                        engine.note_stalled(target - cpu_cycle);
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
        engine.result(cpu_cycle, (memory.now() - start_mem_cycle).raw())
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
/// prefetcher. [`Core::run`] drives one engine; [`MultiCore`] drives
/// several against a shared memory.
///
/// [`MultiCore`]: crate::multicore::MultiCore
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

    /// Applies the next full-width gap cycles in one update, at most
    /// `max_cycles` of them, and returns how many it applied.
    ///
    /// A [`step`](Self::step) that finds at least `width` gap instructions
    /// left and `width` free window entries retires exactly `width` gap
    /// instructions and changes nothing else: no stall, no memory call.
    /// Neither the gap nor the window's oldest load moves until a step
    /// issues a memory operation or a tick absorbs a completion, so the
    /// next `min(gap, window room) / width` steps are all such cycles.
    /// The caller caps `max_cycles` at its next memory tick.
    pub(crate) fn leap_gap(&mut self, max_cycles: u64) -> u64 {
        let width = u64::from(self.cfg.width);
        // Every instruction of a cycle must pass the window check.
        let room = self.oldest_load.map_or(u64::MAX, |oldest| {
            u64::from(self.cfg.rob_entries).saturating_sub(self.issued_instructions - oldest)
        });
        let cycles = (u64::from(self.gap_left).min(room) / width).min(max_cycles);
        let retired = cycles * width;
        // `retired` is at most `gap_left`, a `u32`.
        self.gap_left -= retired as u32;
        self.issued_instructions += retired;
        cycles
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

    /// Packages the result after the driver finishes.
    pub(crate) fn result(&self, cpu_cycles: u64, mem_cycles: u64) -> CoreResult {
        CoreResult {
            instructions: self.issued_instructions,
            cpu_cycles: cpu_cycles.max(1),
            mem_cycles,
            stall_cycles: self.stall_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The reference for [`Core::run`]: the same loop without the gap
    /// leap, one [`CoreEngine::step`] per CPU cycle, so every gap
    /// instruction goes through the step loop.
    fn run_stepped<M: MemoryBackend>(core: &Core, trace: &Trace, memory: &mut M) -> CoreResult {
        let mut engine = CoreEngine::new(core.config, trace);
        let start_mem_cycle = memory.now();
        let mut cpu_cycle: u64 = 0;
        let mut completions = Vec::new();
        let cycle_limit = 200_000 + trace.instruction_count() * 100_000;
        let ratio = u64::from(core.config.cpu_mem_ratio);
        while !engine.is_done() {
            assert!(cpu_cycle < cycle_limit, "core deadlocked against memory");
            if cpu_cycle.is_multiple_of(ratio) {
                completions.clear();
                memory.tick_into(&mut completions);
                engine.absorb_completions(&completions);
                engine.issue_prefetches(memory);
            }
            let outcome = engine.step(memory);
            cpu_cycle += 1;
            if outcome.pure_stall() && !engine.is_done() && engine.prefetch_idle() {
                if let Some(event) = memory.next_event_at() {
                    let event_boundary = (event - start_mem_cycle).raw().saturating_mul(ratio);
                    let target = event_boundary.min(cycle_limit);
                    if target > cpu_cycle {
                        engine.note_stalled(target - cpu_cycle);
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
        engine.result(cpu_cycle, (memory.now() - start_mem_cycle).raw())
    }

    /// Random traces: gaps 0–300 (most not a multiple of any width),
    /// reads, dependent reads and writes, on a line that repeats (an MSHR
    /// merge or a prefetch-buffer hit), steps to the next line (training
    /// the stream prefetcher), or jumps to another page.
    fn trace_strategy() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u32..301, 0u32..6, 0u64..8), 1..40).prop_map(|ops| {
            let mut line = 0u64;
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

        /// The gap leap changes nothing: `Core::run` equals the stepped
        /// reference in the core's result, the memory's statistics and
        /// its energy, for windows the leap must respect (a ROB of 7 at
        /// width 3, the in-order core's single entry) and with the
        /// memory's fast-forward off, where the pure-stall leap never
        /// fires but the gap leap still does.
        #[test]
        fn gap_leap_matches_stepping(trace in trace_strategy()) {
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
                            "{config:?} on {:?}, fast-forward {fast_forward}",
                            system.bank_model
                        );
                        let result = core.run(&trace, &mut leapt);
                        let reference = run_stepped(&core, &trace, &mut stepped);
                        prop_assert_eq!(result, reference, "{}: {:?} vs {:?}", case, result, reference);
                        prop_assert!(leapt.stats() == stepped.stats(), "{}: statistics differ", case);
                        prop_assert!(leapt.energy() == stepped.energy(), "{}: energy differs", case);
                    }
                }
            }
        }
    }
}
