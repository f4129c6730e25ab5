//! Property-based tests for the bank models.
//!
//! These drive random access sequences through [`FgnvmBank`] and
//! [`BaselineBank`] and check the structural invariants of the paper's
//! design from the *outside*, using only the committed timing results:
//!
//! * no two sensing/driving operations ever overlap on the same column
//!   division's local I/O;
//! * operations on the same subarray group that target different rows never
//!   overlap (one wordline per SAG);
//! * a blocked access always becomes issuable by following the retry hints
//!   (no livelock);
//! * statistics counters are consistent with the committed operations;
//! * a bank that declares stable verdicts keeps every blocked verdict until
//!   its retry instant — and the two models that do not (DRAM, write
//!   pausing) have concrete counterexamples.

use proptest::prelude::*;

use fgnvm_bank::{
    Access, Bank, BaselineBank, BlockReason, DramBank, FgnvmBank, Modes, PlanKind, RefreshCycles,
    PAUSE_MIN_REMAINING,
};
use fgnvm_types::address::TileCoord;
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::Op;
use fgnvm_types::time::{Cycle, CycleCount};
use fgnvm_types::TimingConfig;

/// A committed operation's resource usage, reconstructed externally.
#[derive(Debug, Clone)]
struct Footprint {
    sag: u32,
    row: u32,
    cds: Vec<u32>,
    /// Command issue instant.
    cmd: Cycle,
    /// CD local-I/O occupancy window (sensing or write driving), if any.
    io_window: Option<(Cycle, Cycle)>,
    /// Full lifetime of the operation.
    lifetime: (Cycle, Cycle),
    is_write: bool,
}

fn small_geometry(sags: u32, cds: u32) -> Geometry {
    Geometry::builder()
        .rows_per_bank(64)
        .sags(sags)
        .cds(cds)
        .build()
        .unwrap()
}

fn make_access(geom: &Geometry, op: Op, row: u32, line: u32) -> Access {
    let (cd_first, cd_count) = geom.cds_of_line(line);
    Access {
        op,
        row,
        line,
        coord: TileCoord {
            sag: geom.sag_of_row(row),
            cd_first,
            cd_count,
        },
    }
}

/// One raw step of a random workload.
#[derive(Debug, Clone)]
struct Step {
    is_write: bool,
    row: u32,
    line: u32,
    delay: u64,
}

fn step_strategy(rows: u32, lines: u32) -> impl Strategy<Value = Step> {
    (any::<bool>(), 0..rows, 0..lines, 0u64..20).prop_map(|(is_write, row, line, delay)| Step {
        is_write,
        row,
        line,
        delay,
    })
}

/// Drives a sequence of steps through the bank, following retry hints, and
/// returns the footprints of every committed operation.
fn drive(bank: &mut dyn Bank, geom: &Geometry, steps: &[Step]) -> Vec<Footprint> {
    drive_probing(bank, geom, steps, |_, _, _| {})
}

/// [`drive`], calling `probe(bank, now, i)` just before step `i` is first
/// planned.
fn drive_probing(
    bank: &mut dyn Bank,
    geom: &Geometry,
    steps: &[Step],
    mut probe: impl FnMut(&dyn Bank, Cycle, usize),
) -> Vec<Footprint> {
    let mut now = Cycle::ZERO;
    let mut footprints = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        now += CycleCount::new(step.delay);
        probe(&*bank, now, i);
        let op = if step.is_write { Op::Write } else { Op::Read };
        let access = make_access(geom, op, step.row, step.line);
        // Follow retry hints until issuable; bounded to detect livelock.
        let mut tries = 0;
        let plan = loop {
            match bank.plan(&access, now) {
                Ok(plan) => break plan,
                Err(blocked) => {
                    assert!(blocked.retry_at > now, "retry hint must make progress");
                    now = blocked.retry_at;
                    tries += 1;
                    assert!(tries < 64, "livelock following retry hints for {access}");
                }
            }
        };
        let issued = bank.commit(&access, &plan, now, plan.earliest_data);
        let io_window = match plan.kind {
            PlanKind::Activate | PlanKind::Underfetch => Some((now, issued.data_start)),
            PlanKind::Write => Some((now, issued.completion)),
            PlanKind::RowHit => None,
        };
        footprints.push(Footprint {
            sag: access.coord.sag,
            row: access.row,
            cds: access.coord.cds().collect(),
            cmd: now,
            io_window,
            lifetime: (now, issued.completion),
            is_write: step.is_write,
        });
    }
    footprints
}

fn overlaps(a: (Cycle, Cycle), b: (Cycle, Cycle)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// No two sensing/driving operations overlap on the same CD's local I/O.
    #[test]
    fn cd_io_is_exclusive(steps in prop::collection::vec(step_strategy(64, 16), 1..60)) {
        let geom = small_4x4_geometry();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
        let fps = drive(&mut bank, &geom, &steps);
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                let (Some(wa), Some(wb)) = (a.io_window, b.io_window) else { continue };
                if a.cds.iter().any(|cd| b.cds.contains(cd)) {
                    prop_assert!(
                        !overlaps(wa, wb),
                        "CD I/O overlap: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// Two operations on the same SAG with different rows never overlap:
    /// each SAG has exactly one wordline / row-address latch.
    #[test]
    fn sag_wordline_single_row(steps in prop::collection::vec(step_strategy(64, 16), 1..60)) {
        let geom = small_4x4_geometry();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
        let fps = drive(&mut bank, &geom, &steps);
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                if a.sag == b.sag && a.row != b.row {
                    prop_assert!(
                        !overlaps(a.lifetime, b.lifetime),
                        "different rows simultaneously open in SAG {}: {a:?} vs {b:?}",
                        a.sag
                    );
                }
            }
        }
    }

    /// A write makes its whole SAG unavailable: no other operation's command
    /// may issue inside a write's programming window on the same SAG.
    #[test]
    fn writes_lock_their_sag(steps in prop::collection::vec(step_strategy(64, 16), 1..60)) {
        let geom = small_4x4_geometry();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
        let fps = drive(&mut bank, &geom, &steps);
        for w in fps.iter().filter(|f| f.is_write) {
            for other in &fps {
                if std::ptr::eq(w, other) || other.sag != w.sag {
                    continue;
                }
                prop_assert!(
                    other.cmd <= w.cmd || other.cmd >= w.lifetime.1,
                    "operation issued in SAG {} during a write's program window: \
                     write={w:?} other={other:?}",
                    w.sag
                );
            }
        }
    }

    /// Baseline banks serialize writes against everything.
    #[test]
    fn baseline_write_serializes(steps in prop::collection::vec(step_strategy(64, 16), 1..60)) {
        let geom = Geometry::builder().rows_per_bank(64).sags(1).cds(1).build().unwrap();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = BaselineBank::new(&geom, timing);
        let fps = drive(&mut bank, &geom, &steps);
        for w in fps.iter().filter(|f| f.is_write) {
            for other in &fps {
                if std::ptr::eq(w, other) {
                    continue;
                }
                prop_assert!(
                    other.cmd <= w.cmd || other.cmd >= w.lifetime.1,
                    "baseline op issued during a write: write={w:?} other={other:?}"
                );
            }
        }
    }

    /// Statistics agree with what was committed.
    #[test]
    fn stats_are_consistent(steps in prop::collection::vec(step_strategy(64, 16), 1..60)) {
        let geom = small_4x4_geometry();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
        let fps = drive(&mut bank, &geom, &steps);
        let stats = bank.stats();
        let reads = fps.iter().filter(|f| !f.is_write).count() as u64;
        let writes = fps.iter().filter(|f| f.is_write).count() as u64;
        prop_assert_eq!(stats.reads, reads);
        prop_assert_eq!(stats.writes, writes);
        // Every read is a hit, an underfetch, or a fresh activation; every
        // underfetch is also counted as an activation.
        prop_assert!(stats.row_hits <= stats.reads);
        prop_assert!(stats.underfetches <= stats.activations);
        // Sense accounting: hits sense nothing, so sensed bits are bounded
        // by activations × full row.
        prop_assert!(stats.sensed_bits <= stats.activations * 8192);
    }

    /// Every access eventually issues (liveness), for all mode and
    /// write-pausing combinations.
    #[test]
    fn all_mode_combinations_make_progress(
        steps in prop::collection::vec(step_strategy(64, 16), 1..40),
        partial in any::<bool>(),
        multi in any::<bool>(),
        bg in any::<bool>(),
        pausing in any::<bool>(),
    ) {
        let geom = small_4x4_geometry();
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let modes = Modes {
            partial_activation: partial,
            multi_activation: multi,
            background_writes: bg,
        };
        let mut bank =
            FgnvmBank::new(&geom, timing, modes, true).unwrap().with_write_pausing(pausing);
        // `drive` itself asserts progress within a bounded number of retries.
        let fps = drive(&mut bank, &geom, &steps);
        prop_assert_eq!(fps.len(), steps.len());
    }

    /// With write pausing on, a read is never granted for the row whose
    /// cells are mid-program (its data would be garbage).
    #[test]
    fn pausing_never_reads_the_written_row(
        steps in prop::collection::vec(step_strategy(16, 16), 1..50),
    ) {
        let geom = small_geometry(4, 4);
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let mut bank =
            FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap().with_write_pausing(true);
        let fps = drive(&mut bank, &geom, &steps);
        for w in fps.iter().filter(|f| f.is_write) {
            for r in fps.iter().filter(|f| !f.is_write) {
                if r.sag == w.sag && r.row == w.row {
                    // Reads of the written row must not start inside the
                    // write's program window.
                    prop_assert!(
                        r.cmd <= w.cmd || r.cmd >= w.lifetime.1,
                        "read of in-flight written row: write={w:?} read={r:?}"
                    );
                }
            }
        }
    }
}

/// Asserts that `access`'s verdict at `t0`, if blocked, repeats unchanged at
/// every instant up to its retry instant.
fn assert_verdict_holds(name: &str, bank: &dyn Bank, access: &Access, t0: Cycle) {
    let Err(blocked) = bank.plan(access, t0) else {
        return;
    };
    for t in t0.raw()..blocked.retry_at.raw() {
        let verdict = bank.plan(access, Cycle::new(t));
        assert_eq!(
            verdict,
            Err(blocked),
            "{name}: {access} blocked at {t0} as {blocked:?}, but planned {verdict:?} at cy{t}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Over random commit histories, every bank that declares stable
    /// verdicts refuses each probed access the same way — same reason,
    /// same retry instant — from the moment it is blocked until that retry
    /// instant. The controller keeps a bank's issue bound at the smallest
    /// such instant on exactly this promise.
    #[test]
    fn stable_verdicts_hold_until_retry(
        steps in prop::collection::vec(step_strategy(64, 16), 1..24),
        partial in any::<bool>(),
        multi in any::<bool>(),
        bg in any::<bool>(),
        shared_column_path in any::<bool>(),
    ) {
        let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
        let modes = Modes {
            partial_activation: partial,
            multi_activation: multi,
            background_writes: bg,
        };
        let mono = small_geometry(1, 1);
        let tiled = small_4x4_geometry();
        let fgnvm = || FgnvmBank::new(&tiled, timing, modes, shared_column_path).unwrap();
        let dram_timing = TimingConfig::ddr3_like().to_cycles().unwrap();
        // Refresh windows far more often than DDR3's, so short histories
        // cross several.
        let refresh = RefreshCycles {
            t_refi: CycleCount::new(200),
            t_rfc: CycleCount::new(30),
            phase: CycleCount::new(50),
            ..RefreshCycles::ddr3_like()
        };
        let models: Vec<(&str, &Geometry, Box<dyn Bank>)> = vec![
            ("baseline", &mono, Box::new(BaselineBank::new(&mono, timing))),
            ("fgnvm", &tiled, Box::new(fgnvm())),
            ("fgnvm pausing", &tiled, Box::new(fgnvm().with_write_pausing(true))),
            (
                "dram",
                &mono,
                Box::new(DramBank::new(&mono, dram_timing, refresh)),
            ),
        ];
        let mut checked = Vec::new();
        for (name, geom, mut bank) in models {
            if !bank.stable_verdicts() {
                continue;
            }
            checked.push(name);
            // Probe the next few steps' accesses against every state the
            // history passes through.
            drive_probing(bank.as_mut(), geom, &steps, |bank, now, i| {
                for step in steps.iter().skip(i).take(3) {
                    let op = if step.is_write { Op::Write } else { Op::Read };
                    let access = make_access(geom, op, step.row, step.line);
                    assert_verdict_holds(name, bank, &access, now);
                }
            });
        }
        prop_assert_eq!(checked, vec!["baseline", "fgnvm"]);
    }
}

/// A DRAM bank's verdicts depend on the query time: a row switch blocked
/// until its precharge finishes is blocked instead until a refresh window
/// ends once that window opens, before the precharge's retry instant.
#[test]
fn dram_refresh_window_breaks_a_blocked_verdict() {
    let geom = small_geometry(1, 1);
    let timing = TimingConfig::ddr3_like().to_cycles().unwrap();
    let refresh = RefreshCycles::ddr3_like();
    let mut bank = DramBank::new(&geom, timing, refresh);
    assert!(!bank.stable_verdicts());
    // The second refresh window opens at tREFI; activate row 1 just before.
    let window = Cycle::ZERO + refresh.t_refi;
    let opener = make_access(&geom, Op::Read, 1, 0);
    let at = Cycle::new(window.raw() - 10);
    let plan = bank.plan(&opener, at).unwrap();
    bank.commit(&opener, &plan, at, plan.earliest_data);
    // A read of row 2 must wait for tRAS and the precharge, past the
    // window's start.
    let switch = make_access(&geom, Op::Read, 2, 0);
    let t0 = at + CycleCount::new(1);
    let blocked = bank.plan(&switch, t0).unwrap_err();
    assert_eq!(blocked.reason, BlockReason::RowLocked);
    assert!(blocked.retry_at > window, "{blocked:?}");
    // Inside the window the same access is refused for the refresh, until
    // the window ends — later than the precharge's retry instant.
    let refreshed = bank.plan(&switch, window).unwrap_err();
    assert_eq!(refreshed.reason, BlockReason::BankBusy);
    assert_eq!(refreshed.retry_at, window + refresh.t_rfc);
    assert!(refreshed.retry_at > blocked.retry_at);
}

/// A pausing read's verdict depends on the query time: blocked on a column
/// division while it may still pause the write in its SAG, it is blocked
/// instead by the write's SAG lock once less than `PAUSE_MIN_REMAINING`
/// of the write remains — before the column division's retry instant.
#[test]
fn pause_eligibility_expiry_breaks_a_blocked_verdict() {
    let geom = small_4x4_geometry();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true)
        .unwrap()
        .with_write_pausing(true);
    assert!(!bank.stable_verdicts());
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    // A write to SAG 0, CD 0 locks SAG 0 until `lock`.
    let write = make_access(&geom, Op::Write, 0, 0);
    let plan = bank.plan(&write, Cycle::ZERO).unwrap();
    bank.commit(&write, &plan, Cycle::ZERO, plan.earliest_data);
    let lock = bank.sag_lock_until(0);
    let pause_ends = Cycle::new(lock.raw() - PAUSE_MIN_REMAINING.raw());
    // A read sensing SAG 1 on CD 1 holds CD 1 until shortly before `lock`.
    let sense = make_access(&geom, Op::Read, rows_per_sag, 4);
    let at = Cycle::new(20);
    let plan = bank.plan(&sense, at).unwrap();
    bank.commit(&sense, &plan, at, plan.earliest_data);
    // Another row of SAG 0 on CD 1 may pause the write, so only CD 1
    // blocks it — until after the pause opportunity has run out.
    let read = make_access(&geom, Op::Read, 1, 4);
    let t0 = at + CycleCount::new(1);
    let blocked = bank.plan(&read, t0).unwrap_err();
    assert_eq!(blocked.reason, BlockReason::CdBusy);
    assert!(
        pause_ends < blocked.retry_at && blocked.retry_at < lock,
        "{blocked:?}, pause ends {pause_ends}, lock {lock}"
    );
    // From then on the read waits for the write's lock instead.
    let locked = bank.plan(&read, pause_ends).unwrap_err();
    assert_eq!(locked.reason, BlockReason::SagBusy);
    assert_eq!(locked.retry_at, lock);
}

/// 4×4 FgNVM geometry with a small row count to force conflicts.
fn small_4x4_geometry() -> Geometry {
    small_geometry(4, 4)
}
