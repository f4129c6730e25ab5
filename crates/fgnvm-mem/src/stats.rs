//! System-level statistics.

use fgnvm_types::hist::{latency_bucket, percentile_from_hist, HIST_BUCKETS};
use fgnvm_types::time::CycleCount;

/// Counters accumulated by a [`MemorySystem`](crate::MemorySystem).
///
/// Latency histograms use the workspace-wide power-of-two bucketing
/// ([`fgnvm_types::hist`]): bucket 0 holds exactly latency 0, bucket *i* ≥ 1
/// holds `[2^(i-1), 2^i)`. Percentiles report a bucket's inclusive upper
/// bound, overstating the true value by strictly less than 2× (bucket 0 is
/// exact); the tracked `*_latency_max` fields are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Reads accepted into a controller queue.
    pub enqueued_reads: u64,
    /// Writes accepted into a write queue.
    pub enqueued_writes: u64,
    /// Reads served directly from the write queue (store-to-load
    /// forwarding).
    pub forwarded_reads: u64,
    /// Writes merged into an existing write-queue entry for the same line.
    pub merged_writes: u64,
    /// Reads whose data burst has completed.
    pub completed_reads: u64,
    /// Sum of read latencies (arrival → last data beat).
    pub read_latency_total: CycleCount,
    /// Largest single read latency observed.
    pub read_latency_max: CycleCount,
    /// Power-of-two read-latency histogram.
    pub read_latency_hist: [u64; HIST_BUCKETS],
    /// Writes whose device operation (verify retries included) completed.
    pub completed_writes: u64,
    /// Sum of write latencies (arrival → device completion).
    pub write_latency_total: CycleCount,
    /// Largest single write latency observed.
    pub write_latency_max: CycleCount,
    /// Power-of-two write-latency histogram.
    pub write_latency_hist: [u64; HIST_BUCKETS],
    /// Enqueue attempts rejected because a queue was full.
    pub rejected: u64,
    /// Sum of read-queue occupancies sampled once per controller tick.
    pub read_queue_depth_sum: u64,
    /// Ticks sampled for the queue-depth average.
    pub queue_depth_samples: u64,
    /// Reads whose transient bit errors ECC corrected (decode latency paid).
    pub corrected_errors: u64,
    /// Reads ECC could not correct (stuck-at fault or too many bit flips);
    /// the row is remapped to a spare.
    pub uncorrectable_errors: u64,
    /// Rows remapped to spares after uncorrectable errors.
    pub remapped_rows: u64,
    /// Spare candidates rejected during remapping because the spare had
    /// itself already failed (retired or remapped away); handing one out
    /// would silently alias two logical rows onto one dead physical row.
    pub remap_collisions: u64,
    /// Writes re-issued from the controller after the device exhausted its
    /// on-die write-verify retry budget.
    pub reissued_writes: u64,
    /// Rows retired outright because the bank's spare-row pool was already
    /// exhausted (second rung of the wear-out escalation ladder): the row's
    /// capacity is lost and reads return best-effort data.
    pub retired_rows: u64,
    /// Banks currently degraded to read-only mode because their retired-row
    /// count crossed `ReliabilityConfig::read_only_row_threshold`.
    pub read_only_banks: u64,
    /// Write enqueue attempts rejected because the target bank is read-only.
    pub read_only_write_rejections: u64,
    /// Per-tenant counters, indexed by tenant id and grown on demand.
    /// *Every* request is accounted here (untagged traffic is tenant 0),
    /// so the per-tenant sums fold exactly to the global counters above —
    /// the tenant-conservation invariant in `fgnvm-check` pins that.
    pub tenants: Vec<TenantStats>,
}

/// Cumulative counters of one tenant's traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Reads accepted into a controller queue (forwarded reads included).
    pub enqueued_reads: u64,
    /// Writes accepted into a write queue (merged writes included).
    pub enqueued_writes: u64,
    /// Reads whose data burst has completed.
    pub completed_reads: u64,
    /// Writes whose device operation completed.
    pub completed_writes: u64,
    /// Sum of this tenant's read latencies.
    pub read_latency_total: u64,
    /// Sum of this tenant's write latencies.
    pub write_latency_total: u64,
    /// Power-of-two read-latency histogram.
    pub read_latency_hist: [u64; HIST_BUCKETS],
    /// Power-of-two write-latency histogram.
    pub write_latency_hist: [u64; HIST_BUCKETS],
}

impl TenantStats {
    /// Approximate read-latency percentile (same bucket semantics as
    /// [`SystemStats::read_latency_percentile`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn read_latency_percentile(&self, p: f64) -> u64 {
        percentile_from_hist(&self.read_latency_hist, p)
    }

    /// Approximate write-latency percentile.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn write_latency_percentile(&self, p: f64) -> u64 {
        percentile_from_hist(&self.write_latency_hist, p)
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("tstats");
        for v in [
            self.enqueued_reads,
            self.enqueued_writes,
            self.completed_reads,
            self.completed_writes,
            self.read_latency_total,
            self.write_latency_total,
        ] {
            w.u64(v);
        }
        for b in self
            .read_latency_hist
            .iter()
            .chain(&self.write_latency_hist)
        {
            w.u64(*b);
        }
    }

    fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<TenantStats, fgnvm_types::SnapshotError> {
        r.tag("tstats")?;
        let mut t = TenantStats {
            enqueued_reads: r.u64()?,
            enqueued_writes: r.u64()?,
            completed_reads: r.u64()?,
            completed_writes: r.u64()?,
            read_latency_total: r.u64()?,
            write_latency_total: r.u64()?,
            ..TenantStats::default()
        };
        for b in t
            .read_latency_hist
            .iter_mut()
            .chain(t.write_latency_hist.iter_mut())
        {
            *b = r.u64()?;
        }
        Ok(t)
    }
}

impl SystemStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        SystemStats {
            enqueued_reads: 0,
            enqueued_writes: 0,
            forwarded_reads: 0,
            merged_writes: 0,
            completed_reads: 0,
            read_latency_total: CycleCount::ZERO,
            read_latency_max: CycleCount::ZERO,
            read_latency_hist: [0; HIST_BUCKETS],
            completed_writes: 0,
            write_latency_total: CycleCount::ZERO,
            write_latency_max: CycleCount::ZERO,
            write_latency_hist: [0; HIST_BUCKETS],
            rejected: 0,
            read_queue_depth_sum: 0,
            queue_depth_samples: 0,
            corrected_errors: 0,
            uncorrectable_errors: 0,
            remapped_rows: 0,
            remap_collisions: 0,
            reissued_writes: 0,
            retired_rows: 0,
            read_only_banks: 0,
            read_only_write_rejections: 0,
            tenants: Vec::new(),
        }
    }

    /// The mutable per-tenant slot for `tenant`, growing the table on
    /// first touch so idle tenants cost nothing until they send traffic.
    pub fn tenant_mut(&mut self, tenant: u16) -> &mut TenantStats {
        let index = usize::from(tenant);
        if self.tenants.len() <= index {
            self.tenants.resize_with(index + 1, TenantStats::default);
        }
        &mut self.tenants[index]
    }

    /// Accounts one accepted (or forwarded/merged) request for `tenant`.
    pub fn note_enqueued(&mut self, tenant: u16, is_read: bool) {
        let t = self.tenant_mut(tenant);
        if is_read {
            t.enqueued_reads += 1;
        } else {
            t.enqueued_writes += 1;
        }
    }

    /// Serialize every counter and histogram into a checkpoint.
    pub fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("sysstats");
        for v in [
            self.enqueued_reads,
            self.enqueued_writes,
            self.forwarded_reads,
            self.merged_writes,
            self.completed_reads,
            self.read_latency_total.raw(),
            self.read_latency_max.raw(),
            self.completed_writes,
            self.write_latency_total.raw(),
            self.write_latency_max.raw(),
            self.rejected,
            self.read_queue_depth_sum,
            self.queue_depth_samples,
            self.corrected_errors,
            self.uncorrectable_errors,
            self.remapped_rows,
            self.remap_collisions,
            self.reissued_writes,
            self.retired_rows,
            self.read_only_banks,
            self.read_only_write_rejections,
        ] {
            w.u64(v);
        }
        for b in &self.read_latency_hist {
            w.u64(*b);
        }
        for b in &self.write_latency_hist {
            w.u64(*b);
        }
        w.usize(self.tenants.len());
        for t in &self.tenants {
            t.save_state(w);
        }
    }

    /// Restore counters written by [`SystemStats::save_state`].
    pub fn load_state(
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<SystemStats, fgnvm_types::SnapshotError> {
        r.tag("sysstats")?;
        let mut s = SystemStats::new();
        s.enqueued_reads = r.u64()?;
        s.enqueued_writes = r.u64()?;
        s.forwarded_reads = r.u64()?;
        s.merged_writes = r.u64()?;
        s.completed_reads = r.u64()?;
        s.read_latency_total = CycleCount::new(r.u64()?);
        s.read_latency_max = CycleCount::new(r.u64()?);
        s.completed_writes = r.u64()?;
        s.write_latency_total = CycleCount::new(r.u64()?);
        s.write_latency_max = CycleCount::new(r.u64()?);
        s.rejected = r.u64()?;
        s.read_queue_depth_sum = r.u64()?;
        s.queue_depth_samples = r.u64()?;
        s.corrected_errors = r.u64()?;
        s.uncorrectable_errors = r.u64()?;
        s.remapped_rows = r.u64()?;
        s.remap_collisions = r.u64()?;
        s.reissued_writes = r.u64()?;
        s.retired_rows = r.u64()?;
        s.read_only_banks = r.u64()?;
        s.read_only_write_rejections = r.u64()?;
        for b in &mut s.read_latency_hist {
            *b = r.u64()?;
        }
        for b in &mut s.write_latency_hist {
            *b = r.u64()?;
        }
        for _ in 0..r.count()? {
            s.tenants.push(TenantStats::load_state(r)?);
        }
        Ok(s)
    }

    /// Records one completed read of the given latency for `tenant`.
    pub fn record_read(&mut self, tenant: u16, latency: CycleCount) {
        self.completed_reads += 1;
        self.read_latency_total += latency;
        self.read_latency_max = self.read_latency_max.max(latency);
        self.read_latency_hist[latency_bucket(latency.raw())] += 1;
        let t = self.tenant_mut(tenant);
        t.completed_reads += 1;
        t.read_latency_total += latency.raw();
        t.read_latency_hist[latency_bucket(latency.raw())] += 1;
    }

    /// Records one completed write of the given latency for `tenant`.
    pub fn record_write(&mut self, tenant: u16, latency: CycleCount) {
        self.completed_writes += 1;
        self.write_latency_total += latency;
        self.write_latency_max = self.write_latency_max.max(latency);
        self.write_latency_hist[latency_bucket(latency.raw())] += 1;
        let t = self.tenant_mut(tenant);
        t.completed_writes += 1;
        t.write_latency_total += latency.raw();
        t.write_latency_hist[latency_bucket(latency.raw())] += 1;
    }

    /// Mean read-queue occupancy per tick (the congestion the scheduler
    /// works against); zero before any tick.
    pub fn avg_read_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.read_queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Mean read latency in cycles; zero when no reads completed.
    pub fn avg_read_latency(&self) -> f64 {
        if self.completed_reads == 0 {
            0.0
        } else {
            self.read_latency_total.raw() as f64 / self.completed_reads as f64
        }
    }

    /// Mean write latency in cycles; zero when no writes completed.
    pub fn avg_write_latency(&self) -> f64 {
        if self.completed_writes == 0 {
            0.0
        } else {
            self.write_latency_total.raw() as f64 / self.completed_writes as f64
        }
    }

    /// Approximate read-latency percentile from the power-of-two
    /// histogram: the inclusive upper bound of the bucket containing the
    /// `p`-th percentile sample (p in `[0, 1]`), i.e. `2^i - 1` for bucket
    /// *i* ≥ 1 and exactly 0 for bucket 0. Zero when no reads completed.
    /// Overstates the true percentile by strictly less than 2×.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn read_latency_percentile(&self, p: f64) -> u64 {
        percentile_from_hist(&self.read_latency_hist, p)
    }

    /// Approximate write-latency percentile; same bucket semantics as
    /// [`read_latency_percentile`](Self::read_latency_percentile).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn write_latency_percentile(&self, p: f64) -> u64 {
        percentile_from_hist(&self.write_latency_hist, p)
    }
}

impl Default for SystemStats {
    fn default() -> Self {
        SystemStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_recording() {
        let mut s = SystemStats::new();
        s.record_read(0, CycleCount::new(40));
        s.record_read(0, CycleCount::new(60));
        assert_eq!(s.completed_reads, 2);
        assert!((s.avg_read_latency() - 50.0).abs() < 1e-12);
        assert_eq!(s.read_latency_max, CycleCount::new(60));
    }

    #[test]
    fn write_recording_mirrors_reads() {
        let mut s = SystemStats::new();
        s.record_write(0, CycleCount::new(400));
        s.record_write(0, CycleCount::new(600));
        assert_eq!(s.completed_writes, 2);
        assert!((s.avg_write_latency() - 500.0).abs() < 1e-12);
        assert_eq!(s.write_latency_max, CycleCount::new(600));
        assert_eq!(s.write_latency_hist[9], 1); // 256..=511
        assert_eq!(s.write_latency_hist[10], 1); // 512..=1023
        assert_eq!(s.write_latency_percentile(0.99), 1023);
        // Read-side counters untouched.
        assert_eq!(s.completed_reads, 0);
        assert_eq!(s.read_latency_percentile(0.99), 0);
    }

    #[test]
    fn histogram_buckets() {
        let mut s = SystemStats::new();
        s.record_read(0, CycleCount::new(0));
        s.record_read(0, CycleCount::new(1));
        s.record_read(0, CycleCount::new(2));
        s.record_read(0, CycleCount::new(40));
        assert_eq!(s.read_latency_hist[0], 1); // latency 0
        assert_eq!(s.read_latency_hist[1], 1); // latency 1
        assert_eq!(s.read_latency_hist[2], 1); // latency 2..3
        assert_eq!(s.read_latency_hist[6], 1); // latency 32..63
    }

    #[test]
    fn queue_depth_average() {
        let mut s = SystemStats::new();
        s.read_queue_depth_sum = 30;
        s.queue_depth_samples = 10;
        assert!((s.avg_read_queue_depth() - 3.0).abs() < 1e-12);
        assert_eq!(SystemStats::new().avg_read_queue_depth(), 0.0);
    }

    #[test]
    fn empty_average_is_zero() {
        assert_eq!(SystemStats::new().avg_read_latency(), 0.0);
        assert_eq!(SystemStats::new().avg_write_latency(), 0.0);
        assert_eq!(SystemStats::new().read_latency_percentile(0.99), 0);
        assert_eq!(SystemStats::new().write_latency_percentile(0.99), 0);
    }

    #[test]
    fn zero_latency_percentile_is_zero() {
        // Regression: bucket 0 (latency 0) used to report 1 because of a
        // `.max(1)` on the bucket bound.
        let mut s = SystemStats::new();
        for _ in 0..5 {
            s.record_read(0, CycleCount::ZERO);
        }
        assert_eq!(s.read_latency_percentile(0.99), 0);
    }

    #[test]
    fn percentiles_track_the_histogram() {
        let mut s = SystemStats::new();
        for _ in 0..90 {
            s.record_read(0, CycleCount::new(50)); // bucket 6 (< 64)
        }
        for _ in 0..10 {
            s.record_read(0, CycleCount::new(900)); // bucket 10 (< 1024)
        }
        assert_eq!(s.read_latency_percentile(0.5), 63);
        assert_eq!(s.read_latency_percentile(0.9), 63);
        assert_eq!(s.read_latency_percentile(0.99), 1023);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_rejected() {
        let _ = SystemStats::new().read_latency_percentile(1.5);
    }
}
