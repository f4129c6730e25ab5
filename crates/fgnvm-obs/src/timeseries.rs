//! Windowed time-series engine: rolling per-window aggregates over
//! configurable cycle windows.
//!
//! Cumulative histograms answer "how did the run go overall"; the
//! time-series engine answers "what was happening at cycle 40M". Every
//! [`Observer`](crate::Observer) hook folds into the *current* window
//! (the half-open cycle range `[i·N, (i+1)·N)` for window size `N`), and
//! crossing a window boundary closes the window into a bounded ring.
//!
//! Determinism contract: windows are derived purely from the observer
//! hooks, which fire identically under cycle stepping and event-driven
//! fast-forward — so the series is bit-identical across stepping modes
//! and across checkpoint/resume (the full engine state, including the
//! partially-filled current window, rides inside the observer snapshot).
//!
//! Conservation contract: latencies are folded at *completion* time with
//! the same `latency = completion − arrival` value the cumulative
//! [`SystemStats`](../../fgnvm_mem/stats) histograms record, stall cycles
//! are folded from the finished attribution record, and instants at the
//! instant hook — so summing every window (evicted, retained, and
//! current; see [`TimeSeries::aggregate`]) reproduces the cumulative
//! counters *exactly*, bucket by bucket. `fgnvm-check` enforces this.

use std::collections::VecDeque;

use crate::attribution::BUCKETS;
use crate::hist::Log2Hist;
use crate::{json, InstantKind, StallCause};

/// Number of instant-kind counters per window (mirrors
/// [`InstantKind::ALL`]).
pub const INSTANT_KINDS: usize = 8;

/// One tenant's slice of a window: the arrivals, completion latencies,
/// and stall cycles attributed to that tenant's requests.
///
/// Every request is accounted under some tenant (untagged traffic is
/// tenant 0), so summing the tenant slices of a window reproduces the
/// window's global arrival counts, latency histograms, and stall buckets
/// exactly — the tenant-conservation invariant in `fgnvm-check` pins
/// that, cross-checked against the independent per-tenant cumulative
/// counters in the memory system's stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantWindow {
    /// Read requests from this tenant that arrived in the window.
    pub arrivals_read: u64,
    /// Write requests from this tenant that arrived in the window.
    pub arrivals_write: u64,
    /// Latencies of this tenant's reads that completed in the window.
    pub read_latency: Log2Hist,
    /// Latencies of this tenant's writes that completed in the window.
    pub write_latency: Log2Hist,
    /// Stall-attribution cycles of this tenant's completed requests,
    /// indexed by [`StallCause`].
    pub stall: [u64; BUCKETS],
}

impl TenantWindow {
    /// Folds `other` into `self` (sums everywhere, exact).
    pub fn fold(&mut self, other: &TenantWindow) {
        self.arrivals_read += other.arrivals_read;
        self.arrivals_write += other.arrivals_write;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        for (a, b) in self.stall.iter_mut().zip(other.stall.iter()) {
            *a += b;
        }
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.u64(self.arrivals_read);
        w.u64(self.arrivals_write);
        self.read_latency.save_state(w);
        self.write_latency.save_state(w);
        for c in &self.stall {
            w.u64(*c);
        }
    }

    fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<TenantWindow, fgnvm_types::SnapshotError> {
        let mut t = TenantWindow {
            arrivals_read: r.u64()?,
            arrivals_write: r.u64()?,
            read_latency: Log2Hist::load_state(r)?,
            write_latency: Log2Hist::load_state(r)?,
            ..TenantWindow::default()
        };
        for c in &mut t.stall {
            *c = r.u64()?;
        }
        Ok(t)
    }

    /// Serializes this tenant slice as a JSON object (the tenant id comes
    /// from the caller — it is the slice's index in the window).
    pub fn to_json(&self, tenant: usize) -> String {
        let stall: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("{}:{}", json::quote(b.label()), self.stall[*b as usize]))
            .collect();
        format!(
            "{{\"tenant\":{},\"arrivals_read\":{},\"arrivals_write\":{},\
             \"read\":{},\"write\":{},\"stall\":{{{}}}}}",
            tenant,
            self.arrivals_read,
            self.arrivals_write,
            self.read_latency.to_json(),
            self.write_latency.to_json(),
            stall.join(",")
        )
    }
}

/// One window's aggregates: everything observed in `[start, start+N)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowAgg {
    /// Window index; the window covers cycles
    /// `[index·window_cycles, (index+1)·window_cycles)`.
    pub index: u64,
    /// Read requests that entered the system in this window.
    pub arrivals_read: u64,
    /// Write requests that entered the system in this window.
    pub arrivals_write: u64,
    /// Latencies of reads that *completed* in this window.
    pub read_latency: Log2Hist,
    /// Latencies of writes that *completed* in this window.
    pub write_latency: Log2Hist,
    /// Stall-attribution cycles of requests completed in this window,
    /// indexed by [`StallCause`].
    pub stall: [u64; BUCKETS],
    /// Instant counts in this window, indexed by [`InstantKind`].
    pub instants: [u64; INSTANT_KINDS],
    /// Commands issued in this window.
    pub issues: u64,
    /// Measured co-issue opportunity in this window: the sum of
    /// additional legal rook-compatible commands each audited decision
    /// left on the table (0 unless the decision-audit layer is enabled).
    pub opportunity: u64,
    /// Read-queue occupancy sampled at window close (serve samples at the
    /// boundary cycle; 0 when the driver never samples gauges).
    pub read_queue: u64,
    /// Write-queue occupancy sampled at window close.
    pub write_queue: u64,
    /// Channels in write-drain mode sampled at window close.
    pub draining: u64,
    /// Per-tenant slices of this window, indexed by tenant id. Grown on
    /// demand; every arrival/completion lands in exactly one slice
    /// (tenant 0 for untagged traffic), so the slices sum to the global
    /// fields above.
    pub tenants: Vec<TenantWindow>,
}

impl WindowAgg {
    fn fresh(index: u64) -> Self {
        WindowAgg {
            index,
            ..WindowAgg::default()
        }
    }

    /// Folds `other` into `self` (used for the evicted-window accumulator
    /// and [`TimeSeries::aggregate`]). Gauges fold as maxima; everything
    /// else sums.
    pub fn fold(&mut self, other: &WindowAgg) {
        self.arrivals_read += other.arrivals_read;
        self.arrivals_write += other.arrivals_write;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        for (a, b) in self.stall.iter_mut().zip(other.stall.iter()) {
            *a += b;
        }
        for (a, b) in self.instants.iter_mut().zip(other.instants.iter()) {
            *a += b;
        }
        self.issues += other.issues;
        self.opportunity += other.opportunity;
        self.read_queue = self.read_queue.max(other.read_queue);
        self.write_queue = self.write_queue.max(other.write_queue);
        self.draining = self.draining.max(other.draining);
        if self.tenants.len() < other.tenants.len() {
            self.tenants
                .resize_with(other.tenants.len(), TenantWindow::default);
        }
        for (a, b) in self.tenants.iter_mut().zip(other.tenants.iter()) {
            a.fold(b);
        }
    }

    /// The per-tenant slice for `tenant`, growing the vector on demand.
    pub fn tenant_mut(&mut self, tenant: u16) -> &mut TenantWindow {
        let idx = usize::from(tenant);
        if self.tenants.len() <= idx {
            self.tenants.resize_with(idx + 1, TenantWindow::default);
        }
        &mut self.tenants[idx]
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.u64(self.index);
        w.u64(self.arrivals_read);
        w.u64(self.arrivals_write);
        self.read_latency.save_state(w);
        self.write_latency.save_state(w);
        for c in &self.stall {
            w.u64(*c);
        }
        for c in &self.instants {
            w.u64(*c);
        }
        w.u64(self.issues);
        w.u64(self.opportunity);
        w.u64(self.read_queue);
        w.u64(self.write_queue);
        w.u64(self.draining);
        w.usize(self.tenants.len());
        for t in &self.tenants {
            t.save_state(w);
        }
    }

    fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<WindowAgg, fgnvm_types::SnapshotError> {
        let mut agg = WindowAgg::fresh(r.u64()?);
        agg.arrivals_read = r.u64()?;
        agg.arrivals_write = r.u64()?;
        agg.read_latency = Log2Hist::load_state(r)?;
        agg.write_latency = Log2Hist::load_state(r)?;
        for c in &mut agg.stall {
            *c = r.u64()?;
        }
        for c in &mut agg.instants {
            *c = r.u64()?;
        }
        agg.issues = r.u64()?;
        agg.opportunity = r.u64()?;
        agg.read_queue = r.u64()?;
        agg.write_queue = r.u64()?;
        agg.draining = r.u64()?;
        let n = r.count()?;
        agg.tenants = Vec::with_capacity(n);
        for _ in 0..n {
            agg.tenants.push(TenantWindow::load_state(r)?);
        }
        Ok(agg)
    }

    /// Serializes the window payload as a JSON object body (no provenance
    /// fields, no surrounding timestamp — callers wrap it). `end` is the
    /// exclusive end cycle: the natural boundary for a closed window, the
    /// current cycle for a partial one.
    pub fn to_json(&self, window_cycles: u64, end: u64, partial: bool) -> String {
        let start = self.index * window_cycles;
        let span = end.saturating_sub(start).max(1);
        let arrivals = self.arrivals_read + self.arrivals_write;
        let stall: Vec<String> = StallCause::ALL
            .iter()
            .map(|b| format!("{}:{}", json::quote(b.label()), self.stall[*b as usize]))
            .collect();
        let instants: Vec<String> = InstantKind::ALL
            .iter()
            .map(|k| format!("{}:{}", json::quote(k.label()), self.instants[*k as usize]))
            .collect();
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| t.to_json(i))
            .collect();
        format!(
            "\"window\":{},\"start\":{},\"end\":{},\"partial\":{},\
             \"arrivals\":{},\"arrival_rate\":{},\
             \"read\":{},\"write\":{},\"issues\":{},\"opportunity\":{},\
             \"stall\":{{{}}},\"instants\":{{{}}},\
             \"read_queue\":{},\"write_queue\":{},\"draining\":{},\
             \"tenants\":[{}]",
            self.index,
            start,
            end,
            partial,
            arrivals,
            json::number(arrivals as f64 / span as f64),
            self.read_latency.to_json(),
            self.write_latency.to_json(),
            self.issues,
            self.opportunity,
            stall.join(","),
            instants.join(","),
            self.read_queue,
            self.write_queue,
            self.draining,
            tenants.join(",")
        )
    }
}

/// The windowed time-series engine: a bounded ring of closed windows,
/// the partially-filled current window, and a fold of everything the
/// ring has evicted (so the window-vs-cumulative conservation invariant
/// holds regardless of retention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    window_cycles: u64,
    retention: usize,
    current: WindowAgg,
    ring: VecDeque<WindowAgg>,
    /// Fold of every window the bounded ring has evicted.
    evicted: WindowAgg,
    /// Windows closed over the engine's lifetime (monotonic).
    closed_total: u64,
    /// Last sampled gauges (read queue, write queue, draining channels);
    /// copied into each window as it closes.
    gauges: [u64; 3],
}

impl TimeSeries {
    /// An engine with `window_cycles`-cycle windows keeping at most
    /// `retention` closed windows in memory. Both are clamped to ≥ 1.
    pub fn new(window_cycles: u64, retention: usize) -> Self {
        TimeSeries {
            window_cycles: window_cycles.max(1),
            retention: retention.max(1),
            current: WindowAgg::fresh(0),
            ring: VecDeque::new(),
            evicted: WindowAgg::default(),
            closed_total: 0,
            gauges: [0; 3],
        }
    }

    /// The configured window size, in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// The configured closed-window retention bound.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Windows closed over the engine's lifetime (monotonic; includes
    /// evicted windows).
    pub fn closed_total(&self) -> u64 {
        self.closed_total
    }

    /// The retained closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowAgg> {
        self.ring.iter()
    }

    /// The partially-filled current window.
    pub fn current(&self) -> &WindowAgg {
        &self.current
    }

    /// Updates the sampled gauges (read queue, write queue, draining
    /// channels). The serve driver calls this when it lands on a window
    /// boundary, *before* any hook past the boundary fires, so the
    /// closing window records the occupancy at its end cycle.
    pub fn set_gauges(&mut self, read_queue: u64, write_queue: u64, draining: u64) {
        self.gauges = [read_queue, write_queue, draining];
    }

    /// Closes every window that ends at or before `now`. Hooks call this
    /// first, so a hook at cycle `t` always folds into the window
    /// containing `t`; drivers call it at boundary landings to close a
    /// window even when no hook fires past the boundary.
    pub fn roll_to(&mut self, now: u64) {
        while now / self.window_cycles > self.current.index {
            let next_index = self.current.index + 1;
            let mut closed = std::mem::replace(&mut self.current, WindowAgg::fresh(next_index));
            closed.read_queue = self.gauges[0];
            closed.write_queue = self.gauges[1];
            closed.draining = self.gauges[2];
            self.ring.push_back(closed);
            self.closed_total += 1;
            if self.ring.len() > self.retention {
                let evicted = self.ring.pop_front().expect("ring over retention");
                self.evicted.fold(&evicted);
            }
        }
    }

    /// Hook fold: a request entered the system at `now`. The arrival is
    /// accounted both globally and under `tenant`'s window slice.
    pub fn record_arrival(&mut self, is_read: bool, tenant: u16, now: u64) {
        self.roll_to(now);
        if is_read {
            self.current.arrivals_read += 1;
        } else {
            self.current.arrivals_write += 1;
        }
        let slice = self.current.tenant_mut(tenant);
        if is_read {
            slice.arrivals_read += 1;
        } else {
            slice.arrivals_write += 1;
        }
    }

    /// Hook fold: a request completed at `now` with the given end-to-end
    /// latency and per-bucket stall decomposition, accounted both
    /// globally and under `tenant`'s window slice.
    pub fn record_completion(
        &mut self,
        is_read: bool,
        tenant: u16,
        latency: u64,
        stall: &[u64; BUCKETS],
        now: u64,
    ) {
        self.roll_to(now);
        if is_read {
            self.current.read_latency.record(latency);
        } else {
            self.current.write_latency.record(latency);
        }
        for (acc, c) in self.current.stall.iter_mut().zip(stall.iter()) {
            *acc += c;
        }
        let slice = self.current.tenant_mut(tenant);
        if is_read {
            slice.read_latency.record(latency);
        } else {
            slice.write_latency.record(latency);
        }
        for (acc, c) in slice.stall.iter_mut().zip(stall.iter()) {
            *acc += c;
        }
    }

    /// Hook fold: a command issued at `at`.
    pub fn record_issue(&mut self, at: u64) {
        self.roll_to(at);
        self.current.issues += 1;
    }

    /// Hook fold: an audited decision at `at` left `count` co-issuable
    /// commands on the table.
    pub fn record_opportunity(&mut self, count: u64, at: u64) {
        self.roll_to(at);
        self.current.opportunity += count;
    }

    /// Hook fold: a discrete instant of `kind` at `now`.
    pub fn record_instant(&mut self, kind: InstantKind, now: u64) {
        self.roll_to(now);
        self.current.instants[kind as usize] += 1;
    }

    /// Fold of *every* window ever observed — evicted, retained, and the
    /// current partial one. The conservation invariant compares this
    /// against the independent cumulative counters.
    pub fn aggregate(&self) -> WindowAgg {
        let mut agg = self.evicted.clone();
        for w in &self.ring {
            agg.fold(w);
        }
        agg.fold(&self.current);
        agg
    }

    /// Serialize the full engine state (configuration included, so a
    /// restore needs no caller input) into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("tser");
        w.u64(self.window_cycles);
        w.usize(self.retention);
        w.u64(self.closed_total);
        for g in &self.gauges {
            w.u64(*g);
        }
        self.current.save_state(w);
        self.evicted.save_state(w);
        w.usize(self.ring.len());
        for win in &self.ring {
            win.save_state(w);
        }
    }

    /// Restore an engine written by [`TimeSeries::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`](fgnvm_types::SnapshotError) on a
    /// truncated or mistagged stream.
    pub fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<TimeSeries, fgnvm_types::SnapshotError> {
        r.tag("tser")?;
        let window_cycles = r.u64()?.max(1);
        let retention = r.usize()?.max(1);
        let closed_total = r.u64()?;
        let mut gauges = [0u64; 3];
        for g in &mut gauges {
            *g = r.u64()?;
        }
        let current = WindowAgg::load_state(r)?;
        let evicted = WindowAgg::load_state(r)?;
        let n = r.count()?;
        let mut ring = VecDeque::with_capacity(n);
        for _ in 0..n {
            ring.push_back(WindowAgg::load_state(r)?);
        }
        Ok(TimeSeries {
            window_cycles,
            retention,
            current,
            ring,
            evicted,
            closed_total,
            gauges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(100, 4)
    }

    #[test]
    fn hooks_fold_into_the_window_containing_the_cycle() {
        let mut ts = series();
        ts.record_arrival(true, 0, 10);
        ts.record_completion(true, 0, 42, &[0; BUCKETS], 52);
        ts.record_arrival(false, 0, 130);
        assert_eq!(ts.closed_total(), 1);
        let w0 = ts.windows().next().expect("window 0 closed");
        assert_eq!(w0.index, 0);
        assert_eq!(w0.arrivals_read, 1);
        assert_eq!(w0.read_latency.count(), 1);
        assert_eq!(ts.current().index, 1);
        assert_eq!(ts.current().arrivals_write, 1);
    }

    #[test]
    fn boundary_cycle_belongs_to_the_next_window() {
        let mut ts = series();
        ts.record_completion(true, 0, 7, &[0; BUCKETS], 100);
        assert_eq!(ts.closed_total(), 1);
        assert!(ts.windows().next().expect("w0").read_latency.is_empty());
        assert_eq!(ts.current().read_latency.count(), 1);
    }

    #[test]
    fn eviction_preserves_the_aggregate() {
        let mut ts = series();
        for i in 0..10u64 {
            ts.record_completion(true, 0, i * 3, &[1; BUCKETS], i * 100 + 5);
        }
        ts.roll_to(2_000);
        assert_eq!(ts.closed_total(), 20);
        assert_eq!(ts.windows().count(), 4, "retention bound holds");
        let agg = ts.aggregate();
        assert_eq!(agg.read_latency.count(), 10);
        assert_eq!(agg.read_latency.sum(), (0..10).map(|i| i * 3).sum::<u64>());
        assert_eq!(agg.stall, [10; BUCKETS]);
    }

    #[test]
    fn gauges_stamp_the_closing_window() {
        let mut ts = series();
        ts.record_arrival(true, 0, 5);
        ts.set_gauges(3, 7, 1);
        ts.roll_to(100);
        let w0 = ts.windows().next().expect("w0");
        assert_eq!((w0.read_queue, w0.write_queue, w0.draining), (3, 7, 1));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut ts = series();
        for i in 0..7u64 {
            ts.record_arrival(i % 2 == 0, 0, i * 60);
            ts.record_completion(i % 2 == 0, 0, i * 11, &[i; BUCKETS], i * 60 + 40);
            ts.record_issue(i * 60 + 2);
            ts.record_instant(InstantKind::Remap, i * 60 + 3);
        }
        ts.set_gauges(1, 2, 3);
        let mut w = fgnvm_types::SnapshotWriter::new();
        ts.save_state(&mut w);
        let bytes = w.finish();
        let mut r = fgnvm_types::SnapshotReader::new(&bytes).expect("readable");
        let restored = TimeSeries::load_state(&mut r).expect("decodes");
        assert_eq!(restored, ts);
        // And the restored engine continues identically.
        let mut a = ts.clone();
        let mut b = restored;
        a.record_completion(true, 0, 99, &[2; BUCKETS], 1_000);
        b.record_completion(true, 0, 99, &[2; BUCKETS], 1_000);
        assert_eq!(a, b);
    }

    #[test]
    fn window_json_shape() {
        let mut ts = series();
        ts.record_arrival(true, 0, 5);
        ts.roll_to(100);
        let w0 = ts.windows().next().expect("w0");
        let json = format!("{{{}}}", w0.to_json(ts.window_cycles(), 100, false));
        assert!(json.starts_with("{\"window\":0,\"start\":0,\"end\":100,"));
        assert!(json.contains("\"arrival_rate\":0.01"));
        assert!(json.contains("\"stall\":{\"queue-wait\":0,"));
        assert!(json.contains("\"instants\":{\"ecc-corrected\":0,"));
    }
}
