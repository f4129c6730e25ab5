//! Differential tests for the event-driven fast-forward core.
//!
//! The fast-forward path (`MemorySystem::next_event_at` + `skip_to`) claims
//! to be *bit-identical* to cycle stepping: same completions, same stats,
//! same samples, same command log, same protocol verdicts. These tests hold
//! it to that claim three ways:
//!
//! 1. a property test pushing random request streams through every system
//!    preset (including reliability-enabled ones) in both modes;
//! 2. a sweep over every checked-in `configs/*.cfg` file, parsed exactly as
//!    the `fgnvm_trace` binary would parse it;
//! 3. exhaustive unit checks that both bank FSMs' `ready_at` is a
//!    sound lower bound — the contract the skip logic rests on.
//!
//! Every run executes with the observability layer enabled: the snapshot
//! includes the rendered metrics and Chrome-trace JSON documents, so span
//! decompositions, the S×C conflict heatmap, and the trace event stream
//! must also match byte for byte between fast-forwarded and stepped runs
//! (observer hooks only fire from stepped paths; `skip_to` fires none).

use proptest::prelude::*;

use fgnvm_bank::{Access, Bank, BaselineBank, FgnvmBank, Modes};
use fgnvm_mem::{CommandRecord, MemorySystem, ProtocolChecker, Sample, SystemStats};
use fgnvm_types::address::TileCoord;
use fgnvm_types::config::{SchedulerKind, SystemConfig};
use fgnvm_types::geometry::Geometry;
use fgnvm_types::request::{Completion, Op};
use fgnvm_types::time::Cycle;
use fgnvm_types::{PhysAddr, TimingConfig};

/// A compact random request: op, bank-ish region, row-ish index, line.
#[derive(Debug, Clone, Copy)]
struct Gen {
    is_write: bool,
    region: u64,
    row: u64,
    line: u64,
}

impl Gen {
    /// Maps the abstract coordinates onto a physical address that stays
    /// within a handful of rows/banks so conflicts actually happen.
    fn addr(&self) -> PhysAddr {
        // Default mapping: offset(6) | line(4) | bank(3) | row(15).
        PhysAddr::new((self.row << 13) | (self.region << 10) | (self.line << 6))
    }

    /// Three tenants, so the QoS scheduler's least-service pick has a
    /// choice to make.
    fn tenant(&self) -> u16 {
        (self.region % 3) as u16
    }
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    (any::<bool>(), 0u64..8, 0u64..16, 0u64..16).prop_map(|(is_write, region, row, line)| Gen {
        is_write,
        region,
        row,
        line,
    })
}

/// Every preset the scheduler/bank matrix offers, plus reliability-enabled
/// variants so the differential covers retry and remap traffic too.
fn all_presets() -> Vec<(&'static str, SystemConfig)> {
    let mut presets = vec![
        ("baseline", SystemConfig::baseline()),
        ("fgnvm 4x4", SystemConfig::fgnvm(4, 4).unwrap()),
        ("fgnvm 8x2", SystemConfig::fgnvm(8, 2).unwrap()),
        ("fgnvm 8x8", SystemConfig::fgnvm(8, 8).unwrap()),
        (
            "multi-issue 8x2",
            SystemConfig::fgnvm_multi_issue(8, 2, 2).unwrap(),
        ),
        ("many-banks 128", SystemConfig::many_banks(128).unwrap()),
        ("dram", SystemConfig::dram()),
        (
            "pausing 8x8",
            SystemConfig::fgnvm_with_pausing(8, 8).unwrap(),
        ),
    ];
    let mut fcfs = SystemConfig::fgnvm(4, 4).unwrap();
    fcfs.scheduler = SchedulerKind::Fcfs;
    presets.push(("fcfs 4x4", fcfs));
    let mut frfcfs = SystemConfig::fgnvm(4, 4).unwrap();
    frfcfs.scheduler = SchedulerKind::Frfcfs;
    presets.push(("frfcfs 4x4", frfcfs));
    let mut cap = SystemConfig::fgnvm(4, 4).unwrap();
    cap.scheduler = SchedulerKind::FrfcfsCap;
    presets.push(("frfcfs-cap 4x4", cap));
    presets.push(("qos 8x2", qos_8x2()));
    // Fault-injected variant mirroring configs/fgnvm_8x2_faulty.cfg: read
    // errors, write-verify retries, and row remaps all in play.
    let mut faulty = SystemConfig::fgnvm(8, 2).unwrap();
    faulty.reliability.fault_seed = 42;
    faulty.reliability.rber = 1e-3;
    faulty.reliability.write_fail_prob = 0.25;
    faulty.reliability.max_write_retries = 4;
    faulty.reliability.ecc_correctable_bits = 2;
    faulty.reliability.ecc_decode_penalty_cycles = 10;
    presets.push(("faulty 8x2", faulty));
    presets
}

/// The 8×2 design under the least-service QoS scheduler.
fn qos_8x2() -> SystemConfig {
    let mut qos = SystemConfig::fgnvm(8, 2).unwrap();
    qos.scheduler = SchedulerKind::FrfcfsQos;
    qos
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    now: Cycle,
    completions: Vec<Completion>,
    stats: SystemStats,
    banks: fgnvm_bank::BankStats,
    samples: Vec<Sample>,
    commands: Vec<Vec<CommandRecord>>,
    protocol: Vec<String>,
    /// Rendered metrics document (registry + spans + heatmap).
    obs_metrics: String,
    /// Rendered Chrome trace-event document.
    obs_trace: String,
    /// Rendered stall-attribution document (per-class bucket totals).
    obs_attribution: String,
}

/// Feeds `reqs` (retrying on backpressure), drains, and captures every
/// observable output — with fast-forwarding on or off.
fn drive(config: &SystemConfig, reqs: &[Gen], fast_forward: bool) -> Snapshot {
    let mut mem = MemorySystem::new(*config).unwrap();
    mem.set_fast_forward(fast_forward);
    mem.enable_command_log(1 << 20);
    mem.enable_sampling(64);
    mem.enable_trace();
    let mut completions = Vec::new();
    for g in reqs {
        let op = if g.is_write { Op::Write } else { Op::Read };
        let mut guard = 0;
        loop {
            if mem.enqueue_for(op, g.addr(), g.tenant()).is_some() {
                break;
            }
            mem.tick_into(&mut completions);
            guard += 1;
            assert!(guard < 100_000, "backpressure never relieved");
        }
    }
    completions.extend(mem.run_until_idle(10_000_000));
    let checker = ProtocolChecker::new(mem.config()).unwrap();
    let mut commands = Vec::new();
    let mut protocol = Vec::new();
    for channel in 0..mem.config().geometry.channels() {
        let log = mem.command_log(channel);
        commands.push(log.records().copied().collect());
        protocol.push(format!("{:?}", checker.check(log)));
    }
    let obs = mem.take_observer().expect("observer enabled");
    let mut reg = fgnvm_obs::Registry::new();
    mem.export_metrics(&mut reg);
    obs.export_metrics(&mut reg);
    Snapshot {
        now: mem.now(),
        completions,
        stats: mem.stats().clone(),
        banks: mem.bank_stats(),
        samples: mem.samples().to_vec(),
        commands,
        protocol,
        obs_metrics: obs.metrics_json(&reg),
        obs_trace: obs.trace_json(),
        obs_attribution: obs.attribution.to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random streams through every preset: fast-forwarded and stepped runs
    /// must agree on every observable, bit for bit.
    #[test]
    fn fast_forward_is_bit_identical_on_every_preset(
        reqs in prop::collection::vec(gen_strategy(), 1..80),
    ) {
        for (name, config) in all_presets() {
            let fast = drive(&config, &reqs, true);
            let stepped = drive(&config, &reqs, false);
            prop_assert_eq!(fast.now, stepped.now, "{}: final cycle diverged", name);
            prop_assert_eq!(
                &fast.completions, &stepped.completions,
                "{}: completions diverged", name
            );
            prop_assert_eq!(&fast.stats, &stepped.stats, "{}: stats diverged", name);
            prop_assert_eq!(&fast.banks, &stepped.banks, "{}: bank stats diverged", name);
            prop_assert_eq!(&fast.samples, &stepped.samples, "{}: samples diverged", name);
            prop_assert_eq!(&fast.commands, &stepped.commands, "{}: command log diverged", name);
            prop_assert_eq!(&fast.protocol, &stepped.protocol, "{}: checker verdict diverged", name);
            prop_assert_eq!(
                &fast.obs_metrics,
                &stepped.obs_metrics,
                "{}: observability metrics diverged",
                name
            );
            prop_assert_eq!(
                &fast.obs_trace,
                &stepped.obs_trace,
                "{}: observability trace diverged",
                name
            );
            prop_assert_eq!(
                &fast.obs_attribution,
                &stepped.obs_attribution,
                "{}: stall attribution diverged",
                name
            );
        }
    }
}

/// Deterministic mixed read/write stream (the proptest generator's shape,
/// without the proptest dependency on run order).
fn lcg_stream(seed: u64, ops: usize) -> Vec<Gen> {
    let mut state = seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..ops)
        .map(|_| Gen {
            is_write: next() % 3 == 0,
            region: next() % 8,
            row: next() % 16,
            line: next() % 16,
        })
        .collect()
}

/// Every checked-in parameter file — parsed exactly as `fgnvm_trace
/// replay --params` parses it — must be fast-forward clean, including the
/// fault-injected one.
#[test]
fn every_checked_in_config_is_fast_forward_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs/ directory present")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"))
        .collect();
    paths.sort();
    assert!(
        paths.iter().any(|p| p.ends_with("fgnvm_8x2_faulty.cfg")),
        "the fault-injected config must be part of the sweep"
    );
    let reqs = lcg_stream(0xF09D_95A4, 160);
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let config = fgnvm_types::parse_system_config(&text)
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let fast = drive(&config, &reqs, true);
        let stepped = drive(&config, &reqs, false);
        // `Snapshot` equality covers the checker verdicts too: whatever the
        // checker concludes, it must conclude it identically in both modes.
        assert_eq!(
            fast,
            stepped,
            "{} diverged under fast-forward",
            path.display()
        );
        assert!(
            fast.commands.iter().any(|c| !c.is_empty()),
            "{}: nothing issued — the sweep exercised nothing",
            path.display()
        );
        assert!(
            fast.obs_trace.contains("\"cat\":\"cmd\""),
            "{}: observer recorded no command slices",
            path.display()
        );
    }
    assert!(
        paths.len() >= 6,
        "expected the full config set, saw {paths:?}"
    );
}

// ---------------------------------------------------------------------------
// Hint tightness: `ready_at` must never point past an instant at
// which some access could issue. The fast-forward core turns the hint into
// skipped cycles, so an overshoot here silently drops real work.
// ---------------------------------------------------------------------------

fn access(geom: &Geometry, op: Op, row: u32, line: u32) -> Access {
    Access {
        op,
        row,
        line,
        coord: TileCoord {
            sag: geom.sag_of_row(row),
            cd_first: line % geom.cds(),
            cd_count: 1,
        },
    }
}

/// Brute-force check over `window` instants: for every `now`, no candidate
/// access may be issuable strictly before `ready_at().max(now)`.
fn assert_hint_is_lower_bound(bank: &dyn Bank, candidates: &[Access], window: u64) {
    for now_raw in 0..window {
        let now = Cycle::new(now_raw);
        let hint = bank.ready_at().max(now);
        assert!(hint >= now, "hint {hint} regressed behind now {now}");
        for t_raw in now_raw..hint.raw().min(window) {
            let t = Cycle::new(t_raw);
            for a in candidates {
                assert!(
                    bank.plan(a, t).is_err(),
                    "hint({now}) = {hint} overshot: {a:?} already issuable at {t}"
                );
            }
        }
    }
}

/// First instant `>= now` at which some candidate plans successfully.
fn first_issuable(bank: &dyn Bank, candidates: &[Access], now: Cycle, limit: u64) -> Cycle {
    for t_raw in now.raw()..limit {
        let t = Cycle::new(t_raw);
        if candidates.iter().any(|a| bank.plan(a, t).is_ok()) {
            return t;
        }
    }
    panic!("no candidate became issuable before cycle {limit}");
}

#[test]
fn baseline_hint_is_a_tight_lower_bound() {
    let geom = Geometry::builder().sags(1).cds(1).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = BaselineBank::new(&geom, timing);
    let candidates = [
        access(&geom, Op::Read, 3, 0),  // same row as the commits below
        access(&geom, Op::Write, 3, 2), // same row, write path
        access(&geom, Op::Read, 9, 1),  // row switch
    ];
    // Exercise the FSM: a read opens row 3, then a write dirties it.
    for a in [
        access(&geom, Op::Read, 3, 0),
        access(&geom, Op::Write, 3, 1),
    ] {
        let at = first_issuable(&bank, &[a], bank.ready_at(), 5_000);
        let plan = bank.plan(&a, at).unwrap();
        bank.commit(&a, &plan, at, plan.earliest_data);
    }
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
    // The baseline hint mirrors `plan`'s gates exactly, so with candidates
    // covering both the column path and the row-switch path it is not just
    // a lower bound but *the* next issuable instant.
    for now_raw in [0u64, 1, 50, 500, 1_000] {
        let now = Cycle::new(now_raw);
        assert_eq!(
            bank.ready_at().max(now),
            first_issuable(&bank, &candidates, now, 5_000),
            "baseline hint not tight at {now}"
        );
    }
}

#[test]
fn fgnvm_hint_is_a_sound_lower_bound() {
    let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    // Shared column path: `next_col` gates every access, so the hint must
    // both advance past it and never overshoot it.
    let mut bank = FgnvmBank::new(&geom, timing, Modes::all(), true).unwrap();
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    let candidates: Vec<Access> = (0..4u32)
        .flat_map(|sag| {
            let row = sag * rows_per_sag;
            [
                access(&geom, Op::Read, row, sag),
                access(&geom, Op::Write, row + 1, (sag + 1) % geom.cds()),
            ]
        })
        .collect();
    // Exercise: a write (long program, locks its SAG + CD) and a read in a
    // different tile, each committed at its earliest legal instant.
    for a in [
        access(&geom, Op::Write, 0, 0),
        access(&geom, Op::Read, rows_per_sag, 1),
    ] {
        let at = first_issuable(&bank, &[a], Cycle::ZERO, 5_000);
        let plan = bank.plan(&a, at).unwrap();
        bank.commit(&a, &plan, at, plan.earliest_data);
    }
    // The hint makes progress (the skip loop would otherwise degenerate to
    // single-stepping) ...
    assert!(bank.ready_at() > Cycle::ZERO);
    // ... but never past a legal issue instant.
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
}

#[test]
fn fgnvm_hint_is_sound_with_serializing_modes() {
    // With multi-activation off the bank serializes everything through
    // `serial_until` — the hint's unconditional gate. A write makes that
    // window long; the hint must track it exactly, never past it.
    let geom = Geometry::builder().sags(4).cds(4).build().unwrap();
    let timing = TimingConfig::paper_pcm().to_cycles().unwrap();
    let mut bank = FgnvmBank::new(&geom, timing, Modes::none(), false).unwrap();
    let rows_per_sag = geom.rows_per_bank() / geom.sags();
    let candidates: Vec<Access> = (0..4u32)
        .map(|sag| access(&geom, Op::Read, sag * rows_per_sag, sag))
        .collect();
    let w = access(&geom, Op::Write, 0, 0);
    let plan = bank.plan(&w, Cycle::ZERO).unwrap();
    bank.commit(&w, &plan, Cycle::ZERO, plan.earliest_data);
    assert!(bank.ready_at() > Cycle::ZERO);
    assert_hint_is_lower_bound(&bank, &candidates, 1_500);
}

// ---------------------------------------------------------------------------
// Calendar differential: the memoized `next_event_at` (per-channel NextAt
// cache + issue-bound memo) must return *exactly* what a fresh linear scan
// of every event heap and queued-request gate returns, at every instant of
// a real run. An early memo silently replays events; a late one drops
// issue opportunities. Both scans run on live systems mid-drain, so every
// memo invalidation edge (enqueue, retire, issue, skip) is crossed.
// ---------------------------------------------------------------------------

/// Drives `reqs` through a fast-forwarded run, asserting at every loop
/// step — after enqueues, after skips, after due ticks — that the
/// memoized scan and the reference linear scan agree exactly.
fn drive_checking_calendar(name: &str, config: &SystemConfig, reqs: &[Gen]) {
    let mut mem = MemorySystem::new(*config).unwrap();
    mem.set_fast_forward(true);
    let mut completions = Vec::new();
    let check = |mem: &MemorySystem, whence: &str| {
        // Linear first: it must not observe anything the memoized call
        // publishes. The second memoized call at the same cycle answers
        // from the memo the first one stored.
        let linear = mem.next_event_at_linear();
        for ask in ["first", "repeated"] {
            assert_eq!(
                mem.next_event_at(),
                linear,
                "{name}: {ask} calendar answer diverged from linear reference {whence} at cycle {}",
                mem.now().raw()
            );
        }
    };
    for g in reqs {
        let op = if g.is_write { Op::Write } else { Op::Read };
        let mut guard = 0;
        loop {
            if mem.enqueue_for(op, g.addr(), g.tenant()).is_some() {
                break;
            }
            mem.tick_into(&mut completions);
            guard += 1;
            assert!(guard < 100_000, "backpressure never relieved");
        }
        check(&mem, "after enqueue");
    }
    let mut guard = 0;
    while !mem.is_idle() {
        // One event hop at a time: `tick_to` skips the dead range (if any)
        // and steps the event instant, crossing every memo edge. Landing
        // on the event before ticking it checks the memo at the instant it
        // named, where it has arrived and must be recomputed.
        let target = match mem.next_event_at() {
            Some(at) if at > mem.now() => {
                mem.tick_to(at, &mut completions);
                check(&mem, "on an event");
                at + fgnvm_types::time::CycleCount::new(1)
            }
            _ => mem.now() + fgnvm_types::time::CycleCount::new(1),
        };
        mem.tick_to(target, &mut completions);
        check(&mem, "after hop");
        guard += 1;
        assert!(guard < 1_000_000, "{name}: drain failed to converge");
    }
    assert_eq!(
        mem.next_event_at(),
        None,
        "{name}: idle system still reports an event"
    );
}

#[test]
fn calendar_scan_matches_linear_reference_on_every_preset() {
    let reqs = lcg_stream(0xCA1E_17DA, 120);
    for (name, config) in all_presets() {
        drive_checking_calendar(name, &config, &reqs);
    }
}

#[test]
fn calendar_scan_matches_linear_reference_on_every_checked_in_config() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs/ directory present")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "cfg"))
        .collect();
    paths.sort();
    let reqs = lcg_stream(0x5CA2_CA1E, 120);
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let config = fgnvm_types::parse_system_config(&text)
            .unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        drive_checking_calendar(&path.display().to_string(), &config, &reqs);
    }
    assert!(paths.len() >= 6, "expected the full config set");
}

/// A calendar that let DRAM banks keep raised issue bounds diverged from
/// the linear reference on this stream, at cycle 391: bank 1's first
/// refresh window (windows recur every 3,120 cycles, staggered 390 apart by
/// bank) opened before the retry instant its bound had kept. DRAM declares
/// unstable verdicts, so its bounds stay at the bank's readiness.
#[test]
fn calendar_keeps_dram_bounds_at_readiness() {
    drive_checking_calendar("dram", &SystemConfig::dram(), &lcg_stream(3520, 52));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random streams: the calendar memo must track the linear reference
    /// through arbitrary interleavings of enqueue, skip, and tick.
    #[test]
    fn calendar_scan_matches_linear_reference_on_random_streams(
        reqs in prop::collection::vec(gen_strategy(), 1..60),
    ) {
        for (name, config) in [
            ("fgnvm 8x2", SystemConfig::fgnvm(8, 2).unwrap()),
            ("baseline", SystemConfig::baseline()),
            ("pausing 8x8", SystemConfig::fgnvm_with_pausing(8, 8).unwrap()),
            ("qos 8x2", qos_8x2()),
            ("dram", SystemConfig::dram()),
            // 128 banks: the occupied-bank sets span two words.
            ("many-banks 8x2", SystemConfig::many_banks_matching(8, 2).unwrap()),
        ] {
            drive_checking_calendar(name, &config, &reqs);
        }
    }
}
