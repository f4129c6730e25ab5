//! The state-of-the-art NVM bank of §3.1 — the paper's baseline.
//!
//! One global wordline decoder selects a single row for the whole bank; an
//! activation senses the *entire* row into the row buffer; writes occupy the
//! whole bank for the full programming time. Consequently every access to a
//! bank is serialized behind any in-flight write, and activation energy is
//! proportional to the full row size regardless of how little data is used.

use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::time::{Cycle, CycleCount};
use fgnvm_types::TimingCycles;

use crate::access::{Access, AccessPlan, BlockReason, Blocked, Issued, PlanKind};
use crate::faults::{FaultModel, FaultOutcome};
use crate::stats::BankStats;
use crate::Bank;

/// Baseline (undivided) NVM bank model.
///
/// ```
/// use fgnvm_bank::{Access, Bank, BaselineBank};
/// use fgnvm_types::address::TileCoord;
/// use fgnvm_types::geometry::Geometry;
/// use fgnvm_types::request::Op;
/// use fgnvm_types::time::Cycle;
/// use fgnvm_types::TimingConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let geom = Geometry::builder().sags(1).cds(1).build()?;
/// let timing = TimingConfig::paper_pcm().to_cycles()?;
/// let mut bank = BaselineBank::new(&geom, timing);
/// let access = Access {
///     op: Op::Read,
///     row: 7,
///     line: 0,
///     coord: TileCoord { sag: 0, cd_first: 0, cd_count: 1 },
/// };
/// let plan = bank.plan(&access, Cycle::ZERO).expect("idle bank accepts reads");
/// let issued = bank.commit(&access, &plan, Cycle::ZERO, plan.earliest_data);
/// // Row miss: data appears tRCD + tCAS after the command.
/// assert_eq!(issued.data_start, Cycle::new(48));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BaselineBank {
    timing: TimingCycles,
    /// Bits sensed by one (full-row) activation.
    row_bits: u64,
    /// Bits driven by one cache-line write.
    line_bits: u64,
    open_row: Option<u32>,
    /// Column commands allowed once the activation completes.
    act_done: Cycle,
    /// Next column command slot (tCCD spacing; writes push this to their
    /// completion, which is what serializes the bank behind a write).
    next_col: Cycle,
    /// All in-flight operations finished; a new row may be activated.
    quiesce: Cycle,
    /// Device fault injector, when the reliability layer is enabled.
    faults: Option<FaultModel>,
    stats: BankStats,
}

impl BaselineBank {
    /// Creates an idle bank for `geometry` with resolved `timing`.
    pub fn new(geometry: &Geometry, timing: TimingCycles) -> Self {
        BaselineBank {
            timing,
            row_bits: u64::from(geometry.row_bytes()) * 8,
            line_bits: u64::from(geometry.line_bytes()) * 8,
            open_row: None,
            act_done: Cycle::ZERO,
            next_col: Cycle::ZERO,
            quiesce: Cycle::ZERO,
            faults: None,
            stats: BankStats::new(),
        }
    }

    /// Attaches a device fault model (see [`FaultModel`]); without one the
    /// bank behaves exactly as before the reliability layer existed.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Cycle at which the bank is completely idle.
    pub fn quiesce_at(&self) -> Cycle {
        self.quiesce
    }

    fn column_ready(&self) -> Cycle {
        self.act_done.max(self.next_col)
    }
}

impl Bank for BaselineBank {
    fn plan(&self, access: &Access, now: Cycle) -> Result<AccessPlan, Blocked> {
        let t = &self.timing;
        let row_open = self.open_row == Some(access.row);
        match access.op {
            Op::Read => {
                if row_open {
                    let ready = self.column_ready();
                    if now < ready {
                        return Err(Blocked {
                            reason: BlockReason::ColumnPath,
                            retry_at: ready,
                        });
                    }
                    Ok(AccessPlan {
                        kind: PlanKind::RowHit,
                        earliest_data: now + t.t_cas,
                        sense_bits: 0,
                    })
                } else {
                    let ready = self.quiesce + t.t_rp;
                    if now < ready {
                        return Err(Blocked {
                            reason: BlockReason::RowLocked,
                            retry_at: ready,
                        });
                    }
                    Ok(AccessPlan {
                        kind: PlanKind::Activate,
                        earliest_data: now + t.t_rcd + t.t_cas,
                        sense_bits: self.row_bits,
                    })
                }
            }
            Op::Write => {
                if row_open {
                    let ready = self.column_ready();
                    if now < ready {
                        return Err(Blocked {
                            reason: BlockReason::ColumnPath,
                            retry_at: ready,
                        });
                    }
                    Ok(AccessPlan {
                        kind: PlanKind::Write,
                        earliest_data: now + t.t_cwd,
                        sense_bits: 0,
                    })
                } else {
                    let ready = self.quiesce + t.t_rp;
                    if now < ready {
                        return Err(Blocked {
                            reason: BlockReason::RowLocked,
                            retry_at: ready,
                        });
                    }
                    Ok(AccessPlan {
                        kind: PlanKind::Write,
                        earliest_data: now + t.t_rcd + t.t_cwd,
                        sense_bits: 0,
                    })
                }
            }
        }
    }

    fn commit(
        &mut self,
        access: &Access,
        plan: &AccessPlan,
        now: Cycle,
        data_start: Cycle,
    ) -> Issued {
        assert!(
            data_start >= plan.earliest_data,
            "data burst scheduled before the bank can deliver it"
        );
        let t = self.timing;
        // If the controller delayed the burst for bus arbitration, the whole
        // command shifts later by the same amount.
        let shift = data_start - plan.earliest_data;
        let cmd = now + shift;
        let data_end = data_start + t.t_burst;
        let completion;
        let mut faults = FaultOutcome::default();
        match access.op {
            Op::Read => {
                if let Some(model) = &self.faults {
                    let (bit_errors, stuck) =
                        model.read_faults(access.row, access.line, self.stats.reads);
                    faults.bit_errors = bit_errors;
                    faults.stuck_fault = stuck;
                    self.stats.read_bit_errors += u64::from(bit_errors);
                    self.stats.stuck_faults += u64::from(stuck);
                }
                self.stats.reads += 1;
                match plan.kind {
                    PlanKind::RowHit => {
                        self.stats.row_hits += 1;
                        self.next_col = cmd + t.t_ccd;
                    }
                    PlanKind::Activate => {
                        self.stats.activations += 1;
                        self.stats.sensed_bits += plan.sense_bits;
                        self.open_row = Some(access.row);
                        self.act_done = cmd + t.t_rcd;
                        self.next_col = self.act_done + t.t_ccd;
                    }
                    other => unreachable!("baseline read committed with plan kind {other:?}"),
                }
                completion = data_end;
                self.quiesce = self.quiesce.max(data_end);
            }
            Op::Write => {
                if let Some(model) = &mut self.faults {
                    let (retries, verify_failed) =
                        model.write_attempts(access.row, access.line, self.stats.writes);
                    faults.retries = retries;
                    faults.verify_failed = verify_failed;
                    self.stats.write_retries += u64::from(retries);
                    self.stats.verify_failures += u64::from(verify_failed);
                }
                self.stats.writes += 1;
                self.stats.written_bits += self.line_bits;
                if self.open_row != Some(access.row) {
                    // The wordline switches to the written row without
                    // sensing; the row buffer holds nothing afterwards, so
                    // force a re-activation on the next read.
                    self.stats.activations += 1;
                    self.open_row = None;
                    self.act_done = cmd + t.t_rcd;
                } else {
                    // Writing through the open row leaves the buffered data
                    // stale; conservatively close the row.
                    self.open_row = None;
                }
                // Each write-verify retry re-applies a full programming
                // pulse, extending the bank occupancy by one tWP.
                let program = CycleCount::new(t.t_wp.raw() * u64::from(faults.retries + 1));
                completion = data_end + program + t.t_wr;
                // The entire bank is occupied until programming finishes.
                self.next_col = completion;
                self.quiesce = self.quiesce.max(completion);
            }
        }
        Issued {
            data_start,
            data_end,
            completion,
            sense_bits: plan.sense_bits,
            kind: plan.kind,
            faults,
        }
    }

    fn stats(&self) -> &BankStats {
        &self.stats
    }

    fn ready_at(&self) -> Cycle {
        // Tight bound: mirror exactly the gates `plan` applies. With a row
        // open, a same-row access waits for the column path and a row switch
        // waits for quiesce + tRP; with no row open every access takes the
        // row-switch path. The minimum over those is the earliest instant at
        // which *some* access could issue, and no access can issue sooner.
        let row_switch = self.quiesce + self.timing.t_rp;
        if self.open_row.is_some() {
            self.column_ready().min(row_switch)
        } else {
            row_switch
        }
    }

    fn stable_verdicts(&self) -> bool {
        // `plan` compares `now` against one state-derived instant and
        // reports that instant as `retry_at`.
        true
    }

    fn plan_class(&self, access: &Access) -> u128 {
        // `plan` reads the access only through the op and whether its row
        // is the open row (the monolithic bank has no sub-bank resources).
        u128::from(access.op.is_read()) | u128::from(self.open_row == Some(access.row)) << 1
    }

    fn occupancy(&self) -> crate::OccupancySnapshot {
        // The monolithic bank has one "SAG" (the whole array) and one "CD"
        // (the single column path); a write's lock shows up as the column
        // path being pushed to its completion.
        crate::OccupancySnapshot {
            open_rows: vec![self.open_row],
            sag_locks: vec![self.next_col],
            cd_io_free: vec![self.column_ready()],
            busy_until: self.quiesce,
        }
    }

    fn save_state(&self, w: &mut fgnvm_types::SnapshotWriter) {
        w.tag("bank.baseline");
        w.opt_u32(self.open_row);
        w.u64(self.act_done.raw());
        w.u64(self.next_col.raw());
        w.u64(self.quiesce.raw());
        w.bool(self.faults.is_some());
        if let Some(model) = &self.faults {
            model.save_state(w);
        }
        self.stats.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut fgnvm_types::SnapshotReader<'_>,
    ) -> Result<(), fgnvm_types::SnapshotError> {
        r.tag("bank.baseline")?;
        self.open_row = r.opt_u32()?;
        self.act_done = Cycle::new(r.u64()?);
        self.next_col = Cycle::new(r.u64()?);
        self.quiesce = Cycle::new(r.u64()?);
        let has_faults = r.bool()?;
        if has_faults != self.faults.is_some() {
            return Err(fgnvm_types::SnapshotError::Corrupt(
                "fault-model presence mismatch between checkpoint and config".into(),
            ));
        }
        if let Some(model) = &mut self.faults {
            model.load_state(r)?;
        }
        self.stats = crate::BankStats::load_state(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnvm_types::address::TileCoord;
    use fgnvm_types::time::CycleCount;
    use fgnvm_types::TimingConfig;

    fn bank() -> BaselineBank {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        BaselineBank::new(&geom, TimingConfig::paper_pcm().to_cycles().unwrap())
    }

    fn read(row: u32, line: u32) -> Access {
        Access {
            op: Op::Read,
            row,
            line,
            coord: TileCoord {
                sag: 0,
                cd_first: 0,
                cd_count: 1,
            },
        }
    }

    fn write(row: u32, line: u32) -> Access {
        Access {
            op: Op::Write,
            ..read(row, line)
        }
    }

    #[test]
    fn cold_read_pays_rcd_plus_cas() {
        let mut b = bank();
        let a = read(5, 0);
        let plan = b.plan(&a, Cycle::ZERO).unwrap();
        assert_eq!(plan.kind, PlanKind::Activate);
        assert_eq!(plan.earliest_data, Cycle::new(10 + 38));
        assert_eq!(plan.sense_bits, 8192); // full 1 KB row
        let issued = b.commit(&a, &plan, Cycle::ZERO, plan.earliest_data);
        assert_eq!(issued.data_end, Cycle::new(48 + 4));
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn row_hit_pays_only_cas_and_senses_nothing() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        // Second read to the same row after the bank is free.
        let now = Cycle::new(60);
        let a2 = read(5, 3);
        let p2 = b.plan(&a2, now).unwrap();
        assert_eq!(p2.kind, PlanKind::RowHit);
        assert_eq!(p2.earliest_data, now + CycleCount::new(38));
        assert_eq!(p2.sense_bits, 0);
        let i2 = b.commit(&a2, &p2, now, p2.earliest_data);
        assert_eq!(i2.sense_bits, 0);
        assert_eq!(b.stats().row_hits, 1);
    }

    #[test]
    fn row_switch_waits_for_quiesce() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        let issued = b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        // A different row cannot activate until the first read's data is out.
        let blocked = b.plan(&read(9, 0), Cycle::new(1)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::RowLocked);
        assert_eq!(blocked.retry_at, issued.data_end);
        // At quiesce it becomes possible.
        assert!(b.plan(&read(9, 0), issued.data_end).is_ok());
    }

    #[test]
    fn write_blocks_the_whole_bank() {
        let mut b = bank();
        let w = write(5, 0);
        let p = b.plan(&w, Cycle::ZERO).unwrap();
        let issued = b.commit(&w, &p, Cycle::ZERO, p.earliest_data);
        // tRCD(10) + tCWD(3) data start, + tBURST(4) + tWP(60) + tWR(3).
        assert_eq!(issued.data_start, Cycle::new(13));
        assert_eq!(issued.completion, Cycle::new(13 + 4 + 60 + 3));
        // Any read is blocked until the write completes.
        let blocked = b.plan(&read(5, 0), Cycle::new(20)).unwrap_err();
        assert_eq!(blocked.retry_at, issued.completion);
        assert!(b.plan(&read(5, 0), issued.completion).is_ok());
    }

    #[test]
    fn write_closes_the_row() {
        let mut b = bank();
        let w = write(5, 0);
        let p = b.plan(&w, Cycle::ZERO).unwrap();
        let issued = b.commit(&w, &p, Cycle::ZERO, p.earliest_data);
        // A read to the just-written row must re-activate (sense fresh data).
        let p2 = b.plan(&read(5, 0), issued.completion).unwrap();
        assert_eq!(p2.kind, PlanKind::Activate);
    }

    #[test]
    fn ccd_spaces_back_to_back_hits() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        let t0 = Cycle::new(100);
        let p1 = b.plan(&read(5, 1), t0).unwrap();
        b.commit(&read(5, 1), &p1, t0, p1.earliest_data);
        // Immediately after, the column path is busy for tCCD.
        let blocked = b.plan(&read(5, 2), Cycle::new(101)).unwrap_err();
        assert_eq!(blocked.reason, BlockReason::ColumnPath);
        assert_eq!(blocked.retry_at, Cycle::new(104));
    }

    #[test]
    fn bus_delay_shifts_bank_windows() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        // Controller delays the burst by 6 cycles for bus arbitration.
        let delayed = p.earliest_data + CycleCount::new(6);
        let issued = b.commit(&a, &p, Cycle::ZERO, delayed);
        assert_eq!(issued.data_start, delayed);
        // The activation window shifted accordingly: a hit planned right
        // after must respect the shifted act_done.
        let blocked = b.plan(&read(5, 1), Cycle::new(1)).unwrap_err();
        assert_eq!(blocked.retry_at, Cycle::new(6 + 10 + 4)); // shifted act + tCCD
    }

    #[test]
    #[should_panic(expected = "before the bank can deliver")]
    fn commit_rejects_early_burst() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &p, Cycle::ZERO, Cycle::new(1));
    }

    #[test]
    fn verify_retries_extend_bank_occupancy() {
        let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        // Always-fail writes with a retry budget of 2: three pulses total.
        let mut b =
            BaselineBank::new(&geom, timing).with_faults(FaultModel::new(1, 0.0, 1.0, 2, 0, 512));
        let w = write(5, 0);
        let p = b.plan(&w, Cycle::ZERO).unwrap();
        let issued = b.commit(&w, &p, Cycle::ZERO, p.earliest_data);
        assert_eq!(issued.faults.retries, 2);
        assert!(issued.faults.verify_failed);
        // data_end 17, + 3·tWP(180) + tWR(3).
        assert_eq!(issued.completion, Cycle::new(17 + 180 + 3));
        assert_eq!(b.stats().write_retries, 2);
        assert_eq!(b.stats().verify_failures, 1);
        // The bank stays blocked for the whole extended window.
        let blocked = b.plan(&read(5, 0), Cycle::new(50)).unwrap_err();
        assert_eq!(blocked.retry_at, issued.completion);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = bank();
        let a = read(5, 0);
        let p = b.plan(&a, Cycle::ZERO).unwrap();
        b.commit(&a, &p, Cycle::ZERO, p.earliest_data);
        assert_eq!(b.stats().reads, 1);
        assert_eq!(b.stats().activations, 1);
        assert_eq!(b.stats().sensed_bits, 8192);
    }
}
