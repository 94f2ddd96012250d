//! Property-based controller stress: arbitrary mechanism combinations ×
//! arbitrary request sequences must never violate the consistency
//! invariant (reads return the last written value) as long as some form
//! of VnC protection is active.
//!
//! This generalizes `tests/consistency.rs` from fixed seeds to
//! proptest-explored schedules — the net that catches scheduling corner
//! cases (pause/cancel/drain interleavings, ECP exhaustion, aging).

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sdpcm::engine::{Cycle, SimRng};
use sdpcm::memctrl::{
    Access, AccessKind, CtrlConfig, CtrlScheme, CtrlStats, MemoryController, ReqId, Wake,
};
use sdpcm::osalloc::NmRatio;
use sdpcm::pcm::geometry::{BankId, LineAddr, MemGeometry, RowId};
use sdpcm::pcm::line::LineBuf;

#[derive(Debug, Clone)]
struct Op {
    is_write: bool,
    bank: u16,
    row: u32,
    slot: u8,
    gap: u64,
    flip_seed: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0u16..2,
        0u32..6,
        0u8..3,
        1u64..1_200,
        any::<u64>(),
    )
        .prop_map(|(is_write, bank, row, slot, gap, flip_seed)| Op {
            is_write,
            bank,
            row: 20 + row,
            slot,
            gap,
            flip_seed,
        })
}

#[derive(Debug, Clone)]
struct SchemeChoice {
    lazyc: bool,
    preread: bool,
    cancel: bool,
    pause: bool,
    ecp_entries: usize,
    queue_cap: usize,
    aged: bool,
    /// ECP records written as bank-occupying `EcpWrite` steps (the
    /// inline-ECP ablation); only LazyCorrection writes records.
    inline_ecp: bool,
}

fn scheme_strategy() -> impl Strategy<Value = SchemeChoice> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..8,
        prop::sample::select(vec![4usize, 8, 32]),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(lazyc, preread, cancel, pause, ecp_entries, queue_cap, aged, inline_ecp)| {
                SchemeChoice {
                    lazyc,
                    preread,
                    cancel,
                    pause,
                    ecp_entries,
                    queue_cap,
                    aged,
                    inline_ecp,
                }
            },
        )
}

/// The controller configuration a [`SchemeChoice`] describes, with
/// Start-Gap at `start_gap_psi` when given.
fn ctrl_config(choice: &SchemeChoice, start_gap_psi: Option<u32>) -> CtrlConfig {
    let mut scheme = CtrlScheme::baseline_vnc();
    scheme.lazy_correction = choice.lazyc;
    scheme.preread = choice.preread;
    scheme.write_cancellation = choice.cancel;
    scheme.write_pausing = choice.pause;
    scheme.start_gap_psi = start_gap_psi;
    scheme.ecp_write_inline = choice.inline_ecp;
    CtrlConfig {
        write_queue_cap: choice.queue_cap,
        ecp_entries: choice.ecp_entries,
        ..CtrlConfig::table2(scheme)
    }
}

fn flip(data: &mut LineBuf, seed: u64) {
    let mut x = seed | 1;
    for _ in 0..48 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let b = (x % 512) as usize;
        let v = data.bit(b);
        data.set_bit(b, !v);
    }
}

/// A line whose stuck-cell population exceeds its ECP capacity is
/// *unprotectable* — real end-of-life PCM loses it too (the OS would
/// decommission the page). Reads of such lines are exempt from the
/// consistency oracle.
fn unprotectable(ctrl: &MemoryController, addr: LineAddr) -> bool {
    ctrl.store().hard_error_count(addr) > ctrl.config().ecp_entries
}

fn run_schedule(choice: &SchemeChoice, ops: &[Op]) -> Result<(), String> {
    let cfg = ctrl_config(choice, None);
    let mut ctrl = MemoryController::new(
        cfg,
        MemGeometry::small(64),
        SimRng::from_seed_label(97, "stress"),
    );
    if choice.aged {
        ctrl.set_dimm_age(sdpcm::pcm::wear::HardErrorModel::default(), 0.9);
    }

    let mut shadow: HashMap<LineAddr, LineBuf> = HashMap::new();
    let mut pending: HashMap<ReqId, (LineAddr, LineBuf)> = HashMap::new();
    let mut done = Vec::new();
    let mut now = Cycle::ZERO;
    for (i, op) in ops.iter().enumerate() {
        now += Cycle(op.gap);
        let addr = LineAddr {
            bank: BankId(op.bank),
            row: RowId(op.row),
            slot: op.slot,
        };
        let id = ReqId(i as u64);
        if op.is_write {
            let mut data = shadow
                .get(&addr)
                .copied()
                .unwrap_or_else(|| ctrl.store().initial_line(addr));
            flip(&mut data, op.flip_seed);
            shadow.insert(addr, data);
            ctrl.submit(
                Access {
                    id,
                    addr,
                    kind: AccessKind::Write(data),
                    ratio: NmRatio::one_one(),
                    core: 0,
                    arrive: now,
                },
                now,
            )
            .unwrap();
        } else {
            let expect = shadow
                .get(&addr)
                .copied()
                .unwrap_or_else(|| ctrl.store().initial_line(addr));
            pending.insert(id, (addr, expect));
            ctrl.submit(
                Access {
                    id,
                    addr,
                    kind: AccessKind::Read,
                    ratio: NmRatio::one_one(),
                    core: 0,
                    arrive: now,
                },
                now,
            )
            .unwrap();
            // In-order core semantics: block until this read completes so
            // later writes cannot legally overtake it.
            let mut budget = u64::MAX;
            while pending.contains_key(&id) {
                let wake = ctrl.run_until(None, &mut budget, &mut done).unwrap();
                if wake == Wake::Idle {
                    return Err("read lost: controller went idle".to_owned());
                }
                for c in &done {
                    if let Some((a, expect)) = pending.remove(&c.id) {
                        if c.data != Some(expect) && !unprotectable(&ctrl, a) {
                            return Err(format!("read of {a} returned wrong data (op {i})"));
                        }
                    }
                }
            }
        }
    }
    // Settle and sweep.
    ctrl.flush(now, &mut done).unwrap();
    for c in done {
        if let Some((a, expect)) = pending.remove(&c.id) {
            if c.data != Some(expect) && !unprotectable(&ctrl, a) {
                return Err(format!("late read of {a} returned wrong data"));
            }
        }
    }
    for (addr, expect) in &shadow {
        if ctrl.architectural_line(*addr) != *expect && !unprotectable(&ctrl, *addr) {
            return Err(format!("final sweep: {addr} corrupted"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_protected_scheme_stays_consistent(
        choice in scheme_strategy(),
        ops in vec(op_strategy(), 50..250),
    ) {
        if let Err(e) = run_schedule(&choice, &ops) {
            prop_assert!(false, "{} under {:?}", e, choice);
        }
    }
}

/// Satellite property for the chaos harness: under *any* valid fault
/// plan and any mechanism combination, a full run is bit-reproducible —
/// the same seed yields identical controller statistics, fault logs, and
/// final device contents.
#[derive(Debug, Clone)]
struct PlanChoice {
    storm_at: u64,
    storm_mult: f64,
    storm_len: u64,
    burst_at: u64,
    burst_lines: u32,
    burst_cells: u16,
    age: Option<f64>,
}

fn plan_strategy() -> impl Strategy<Value = PlanChoice> {
    (
        0u64..60,
        0.5f64..2.5,
        10u64..100_000,
        0u64..80,
        1u32..5,
        1u16..4,
        (any::<bool>(), 0.0f64..1.0),
    )
        .prop_map(
            |(storm_at, storm_mult, storm_len, burst_at, burst_lines, burst_cells, age)| {
                PlanChoice {
                    storm_at,
                    storm_mult,
                    storm_len,
                    burst_at,
                    burst_lines,
                    burst_cells,
                    age: age.0.then_some(age.1),
                }
            },
        )
}

fn install_plan(ctrl: &mut MemoryController, plan: &PlanChoice) {
    let mut fp = sdpcm::core::FaultPlan::new()
        .storm(plan.storm_at, plan.storm_mult, plan.storm_len)
        .stuck_burst(plan.burst_at, plan.burst_lines, plan.burst_cells);
    if let Some(age) = plan.age {
        fp = fp.aging_ramp(plan.burst_at + 20, age);
    }
    ctrl.install_chaos(fp).expect("generated plans are valid");
}

fn run_with_plan(
    choice: &SchemeChoice,
    plan: &PlanChoice,
    ops: &[Op],
) -> (
    sdpcm::memctrl::CtrlStats,
    Vec<sdpcm::memctrl::chaos::FaultEvent>,
    u64,
) {
    let cfg = ctrl_config(choice, None);
    let mut ctrl = MemoryController::new(
        cfg,
        MemGeometry::small(64),
        SimRng::from_seed_label(97, "stress"),
    );
    install_plan(&mut ctrl, plan);

    let mut now = Cycle::ZERO;
    for (i, op) in ops.iter().enumerate() {
        now += Cycle(op.gap);
        let addr = LineAddr {
            bank: BankId(op.bank),
            row: RowId(op.row),
            slot: op.slot,
        };
        let mut data = ctrl.store().initial_line(addr);
        flip(&mut data, op.flip_seed);
        let kind = if op.is_write {
            AccessKind::Write(data)
        } else {
            AccessKind::Read
        };
        ctrl.submit(
            Access {
                id: ReqId(i as u64),
                addr,
                kind,
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: now,
            },
            now,
        )
        .unwrap();
    }
    ctrl.flush(now, &mut Vec::new()).unwrap();
    (
        ctrl.stats().clone(),
        ctrl.fault_log().to_vec(),
        ctrl.store().content_digest(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn chaos_runs_replay_bit_exactly(
        choice in scheme_strategy(),
        plan in plan_strategy(),
        ops in vec(op_strategy(), 40..120),
    ) {
        let a = run_with_plan(&choice, &plan, &ops);
        let b = run_with_plan(&choice, &plan, &ops);
        prop_assert_eq!(&a.0, &b.0, "CtrlStats diverged under {:?}", &plan);
        prop_assert_eq!(&a.1, &b.1, "fault logs diverged under {:?}", &plan);
        prop_assert_eq!(a.2, b.2, "device contents diverged under {:?}", &plan);
    }
}

/// Drives a controller through a randomized schedule and asserts, after
/// every interaction, that the per-bank write-queue address index (the
/// O(1) fast path added for forwarding/coalescing/cancellation checks)
/// is exactly the multiset a linear scan of the queue would produce.
fn run_index_audit(choice: &SchemeChoice, ops: &[Op]) -> Result<(), String> {
    let cfg = ctrl_config(choice, None);
    let mut ctrl = MemoryController::new(
        cfg,
        MemGeometry::small(64),
        SimRng::from_seed_label(41, "wq-index"),
    );
    if choice.aged {
        ctrl.set_dimm_age(sdpcm::pcm::wear::HardErrorModel::default(), 0.9);
    }
    let mut now = Cycle::ZERO;
    for (i, op) in ops.iter().enumerate() {
        now += Cycle(op.gap);
        let addr = LineAddr {
            bank: BankId(op.bank),
            row: RowId(op.row),
            slot: op.slot,
        };
        let kind = if op.is_write {
            let mut data = ctrl.store().initial_line(addr);
            flip(&mut data, op.flip_seed);
            AccessKind::Write(data)
        } else {
            AccessKind::Read
        };
        ctrl.submit(
            Access {
                id: ReqId(i as u64),
                addr,
                kind,
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: now,
            },
            now,
        )
        .unwrap();
        ctrl.check_wq_index()
            .map_err(|e| format!("after submit {i}: {e}"))?;
    }
    ctrl.flush(now, &mut Vec::new()).unwrap();
    ctrl.check_wq_index()
        .map_err(|e| format!("after flush: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn write_queue_index_matches_linear_scan(
        choice in scheme_strategy(),
        ops in vec(op_strategy(), 50..200),
    ) {
        if let Err(e) = run_index_audit(&choice, &ops) {
            prop_assert!(false, "{} under {:?}", e, choice);
        }
    }
}

#[test]
fn kitchen_sink_scheme_long_schedule() {
    // Everything on at once, longer deterministic schedule.
    let choice = SchemeChoice {
        lazyc: true,
        preread: true,
        cancel: true,
        pause: true,
        ecp_entries: 6,
        queue_cap: 8,
        aged: true,
        inline_ecp: true,
    };
    let mut rng = SimRng::from_seed_label(123, "kitchen");
    let ops: Vec<Op> = (0..2_000)
        .map(|_| Op {
            is_write: rng.chance(0.6),
            bank: rng.below(2) as u16,
            row: 20 + rng.below(6) as u32,
            slot: rng.below(3) as u8,
            gap: rng.below(1_200) + 1,
            flip_seed: rng.next_u64(),
        })
        .collect();
    run_schedule(&choice, &ops).expect("kitchen-sink schedule stays consistent");
}

/// How often, and how far, a driver asks the controller to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cadence {
    /// `run_until` each `next_event` in turn, up to each submit time.
    EveryEvent,
    /// `run_until` with the next submit time as the limit; the wakes in
    /// between are read completions.
    RunUntil,
    /// The `RunUntil` loop before every k-th submit only; the submits in
    /// between bring the banks current themselves.
    Sparse(usize),
}

/// Everything a run can observe, for cadence comparisons.
#[derive(Debug, PartialEq)]
struct Outcome {
    completions: Vec<(ReqId, Cycle, Option<LineBuf>)>,
    stats: CtrlStats,
    energy: sdpcm::pcm::energy::EnergyMeter,
    wear: sdpcm::pcm::wear::WearMeter,
    faults: Vec<sdpcm::memctrl::chaos::FaultEvent>,
    digest: u64,
}

/// Completions as a cadence comparison records them.
type Recorded = Vec<(ReqId, Cycle, Option<LineBuf>)>;

/// Drives an open-loop schedule (requests arrive at fixed times whatever
/// the controller does) at the given cadence. Returns the unflushed
/// controller, the completions handed out so far and the last submit
/// time.
fn drive(
    choice: &SchemeChoice,
    start_gap_psi: Option<u32>,
    plan: Option<&PlanChoice>,
    ops: &[Op],
    cadence: Cadence,
) -> (MemoryController, Recorded, Cycle) {
    let mut ctrl = MemoryController::new(
        ctrl_config(choice, start_gap_psi),
        MemGeometry::small(64),
        SimRng::from_seed_label(53, "cadence"),
    );
    if choice.aged {
        ctrl.set_dimm_age(sdpcm::pcm::wear::HardErrorModel::default(), 0.9);
    }
    if let Some(plan) = plan {
        install_plan(&mut ctrl, plan);
    }
    let mut completions = Vec::new();
    let mut record = |done: &[sdpcm::memctrl::Completion]| {
        completions.extend(done.iter().map(|c| (c.id, c.at, c.data)));
    };
    let mut scratch = Vec::new();
    let mut now = Cycle::ZERO;
    let mut budget = u64::MAX;
    for (i, op) in ops.iter().enumerate() {
        now += Cycle(op.gap);
        let mut run_to = |ctrl: &mut MemoryController, limit: Cycle| loop {
            let wake = ctrl.run_until(Some(limit), &mut budget, &mut scratch);
            record(&scratch);
            match wake.unwrap() {
                Wake::At(t) if t == limit => break,
                Wake::At(t) => assert!(t < limit, "woke past the limit"),
                other => panic!("a limited run cannot stop with {other:?}"),
            }
        };
        match cadence {
            Cadence::EveryEvent => {
                while let Some(t) = ctrl.next_event().filter(|&t| t <= now) {
                    run_to(&mut ctrl, t);
                }
            }
            Cadence::RunUntil => run_to(&mut ctrl, now),
            Cadence::Sparse(k) if i % k == 0 => run_to(&mut ctrl, now),
            Cadence::Sparse(_) => {}
        }
        let addr = LineAddr {
            bank: BankId(op.bank),
            row: RowId(op.row),
            slot: op.slot,
        };
        let kind = if op.is_write {
            let mut data = ctrl.store().initial_line(addr);
            flip(&mut data, op.flip_seed);
            AccessKind::Write(data)
        } else {
            AccessKind::Read
        };
        ctrl.submit(
            Access {
                id: ReqId(i as u64),
                addr,
                kind,
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: now,
            },
            now,
        )
        .unwrap();
    }
    (ctrl, completions, now)
}

/// [`drive`], then flush from the last submit time.
fn run_cadence(
    choice: &SchemeChoice,
    start_gap_psi: Option<u32>,
    plan: Option<&PlanChoice>,
    ops: &[Op],
    cadence: Cadence,
) -> Outcome {
    let (mut ctrl, mut completions, now) = drive(choice, start_gap_psi, plan, ops, cadence);
    let mut done = Vec::new();
    ctrl.flush(now, &mut done).unwrap();
    completions.extend(done.iter().map(|c| (c.id, c.at, c.data)));
    Outcome {
        completions,
        stats: ctrl.stats(),
        energy: ctrl.energy(),
        wear: ctrl.store().wear(),
        faults: ctrl.fault_log().to_vec(),
        digest: ctrl.store().content_digest(),
    }
}

/// Replay property 1 (DESIGN.md), checked directly: however often and
/// however far the controller is asked to run, it completes the same
/// operations in the same order and hands out the same completions.
///
/// A sparse driver may hand out completions due at one time in another
/// order: a write that coalesces at `t` completes at `t`, after a denser
/// driver already took the other completions due at `t`. So the sparse
/// cadence is compared with completions in `(at, id)` order.
fn check_cadence_invariance(
    choice: &SchemeChoice,
    start_gap_psi: Option<u32>,
    plan: Option<&PlanChoice>,
    ops: &[Op],
) {
    let every = run_cadence(choice, start_gap_psi, plan, ops, Cadence::EveryEvent);
    let ctx = format!("under {choice:?}, psi {start_gap_psi:?}, {plan:?}");
    let run_until = run_cadence(choice, start_gap_psi, plan, ops, Cadence::RunUntil);
    assert_eq!(every, run_until, "RunUntil diverged from EveryEvent {ctx}");
    let sorted = |mut o: Outcome| {
        o.completions.sort_by_key(|&(id, at, _)| (at, id));
        o
    };
    let every = sorted(every);
    for k in [3, 16] {
        let sparse = sorted(run_cadence(
            choice,
            start_gap_psi,
            plan,
            ops,
            Cadence::Sparse(k),
        ));
        assert_eq!(every, sparse, "Sparse({k}) diverged from EveryEvent {ctx}");
    }
}

fn start_gap_strategy() -> impl Strategy<Value = Option<u32>> {
    prop::sample::select(vec![0u32, 4, 16]).prop_map(|psi| (psi > 0).then_some(psi))
}

fn maybe_plan_strategy() -> impl Strategy<Value = Option<PlanChoice>> {
    (any::<bool>(), plan_strategy()).prop_map(|(on, plan)| on.then_some(plan))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn advance_cadence_is_unobservable(
        choice in scheme_strategy(),
        psi in start_gap_strategy(),
        plan in maybe_plan_strategy(),
        ops in vec(op_strategy(), 50..250),
    ) {
        check_cadence_invariance(&choice, psi, plan.as_ref(), &ops);
    }
}

/// Everything a flush can change except when things happened.
#[derive(Debug, PartialEq)]
struct Flushed {
    /// The flush's completions, sorted by id.
    completions: Vec<(ReqId, Option<LineBuf>)>,
    stats: CtrlStats,
    energy: sdpcm::pcm::energy::EnergyMeter,
    wear: sdpcm::pcm::wear::WearMeter,
    digest: u64,
}

/// Drives `ops` without a chaos plan, then flushes `shift` cycles after
/// the start a simulator's back end uses: the controller's next event,
/// or the last submit when it is idle.
fn flush_shifted(
    choice: &SchemeChoice,
    start_gap_psi: Option<u32>,
    ops: &[Op],
    shift: u64,
) -> Flushed {
    let (mut ctrl, _, now) = drive(choice, start_gap_psi, None, ops, Cadence::RunUntil);
    let start = ctrl.next_event().unwrap_or(now);
    let mut done = Vec::new();
    ctrl.flush(start + Cycle(shift), &mut done).unwrap();
    let mut completions: Vec<_> = done.iter().map(|c| (c.id, c.data)).collect();
    completions.sort_by_key(|&(id, _)| id);
    Flushed {
        completions,
        stats: ctrl.stats(),
        energy: ctrl.energy(),
        wear: ctrl.store().wear(),
        digest: ctrl.store().content_digest(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What the one flush rule of the simulators rests on: a flush start
    /// only moves banks that sit idle with queued writes, which hold no
    /// reads, so without a chaos plan no result depends on it.
    #[test]
    fn flush_start_is_unobservable(
        choice in scheme_strategy(),
        psi in start_gap_strategy(),
        ops in vec(op_strategy(), 50..250),
    ) {
        let base = flush_shifted(&choice, psi, &ops, 0);
        for shift in [1, 400, 100_000] {
            let shifted = flush_shifted(&choice, psi, &ops, shift);
            prop_assert_eq!(&base, &shifted, "shift {} under {:?}, psi {:?}", shift, choice, psi);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Release-mode soak of the cadence property over long schedules:
    /// `cargo test --release --test controller_stress -- --ignored`.
    #[test]
    #[ignore = "soak; run in release with --ignored"]
    fn advance_cadence_soak(
        choice in scheme_strategy(),
        psi in start_gap_strategy(),
        plan in maybe_plan_strategy(),
        ops in vec(op_strategy(), 500..1_500),
    ) {
        check_cadence_invariance(&choice, psi, plan.as_ref(), &ops);
    }
}
