//! Chaos-harness integration: a scheduled disturbance storm drives the
//! ECP table to exhaustion and the controller walks the whole graceful
//! degradation ladder — bounded retry, escalation to immediate
//! correction, and finally line decommission into the salvage pool —
//! while staying consistent and bit-reproducible across same-seed runs.

use std::collections::HashMap;

use sdpcm::core::{ExperimentParams, FaultPlan, Scheme, SystemSim};
use sdpcm::engine::{Cycle, SimRng};
use sdpcm::memctrl::chaos::FaultEvent;
use sdpcm::memctrl::{
    Access, AccessKind, CtrlConfig, CtrlScheme, CtrlStats, MemoryController, ReqId,
};
use sdpcm::osalloc::NmRatio;
use sdpcm::pcm::geometry::{BankId, LineAddr, MemGeometry, RowId};
use sdpcm::pcm::line::LineBuf;
use sdpcm::trace::BenchKind;

/// A tiny ECP table plus a tight ladder so every rung fires quickly.
/// The 4-entry queue keeps the small working set draining continuously
/// (a wider queue would coalesce it forever), and the 6-line pool is
/// smaller than the blast radius so pool-full rejections show up too.
fn ladder_config() -> CtrlConfig {
    CtrlConfig {
        ecp_entries: 1,
        write_queue_cap: 4,
        ecp_retry_cap: 1,
        decommission_after: 3,
        salvage_pool_lines: 6,
        ..CtrlConfig::table2(CtrlScheme::lazyc())
    }
}

/// Hammers a handful of adjacent lines under a scheduled WD storm and a
/// stuck-cell burst, then drains. Returns everything a reproducibility
/// comparison needs.
fn run_ladder(seed: u64) -> (CtrlStats, Vec<FaultEvent>, u64, usize) {
    let mut ctrl = MemoryController::new(
        ladder_config(),
        MemGeometry::small(256),
        SimRng::from_seed_label(seed, "chaos-ladder"),
    );
    // A mild storm: hot enough to overwhelm the 1-entry ECP table on
    // every verification, cool enough that correction cascades still
    // converge (past ~2x the 11.5% base rate each correction breeds more
    // errors than it fixes and write jobs stop completing).
    let plan = FaultPlan::new()
        .storm(5, 1.5, 100_000)
        .stuck_burst(40, 4, 2);
    ctrl.install_chaos(plan).expect("valid plan");

    let mut rng = SimRng::from_seed_label(seed, "chaos-traffic");
    let mut shadow: HashMap<LineAddr, LineBuf> = HashMap::new();
    let mut now = Cycle::ZERO;
    for i in 0..2_000u64 {
        now += Cycle(rng.below(400) + 1);
        // A 4-row × 3-slot working set in one bank maximizes adjacency
        // pressure: every write verifies (and disturbs) its neighbours.
        let addr = LineAddr {
            bank: BankId(0),
            row: RowId(60 + rng.below(4) as u32),
            slot: rng.below(3) as u8,
        };
        let mut data = shadow
            .get(&addr)
            .copied()
            .unwrap_or_else(|| ctrl.store().initial_line(addr));
        for _ in 0..40 {
            let b = rng.index(512);
            let v = data.bit(b);
            data.set_bit(b, !v);
        }
        shadow.insert(addr, data);
        ctrl.submit(
            Access {
                id: ReqId(i),
                addr,
                kind: AccessKind::Write(data),
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: now,
            },
            now,
        )
        .expect("hammering writes stay accepted");
    }
    ctrl.flush(now, &mut Vec::new())
        .expect("the flush never faults");
    // Consistency holds across the entire ladder: every written line —
    // decommissioned or not — reads back its program-order value. Lines
    // whose planted stuck-cell population exceeds the 1-entry ECP are
    // unprotectable (real hardware decommissions the page; see
    // tests/consistency.rs) and exempt from the oracle.
    let mut checked = 0;
    for (addr, expect) in &shadow {
        if ctrl.store().hard_error_count(*addr) > ctrl.config().ecp_entries {
            continue;
        }
        checked += 1;
        assert_eq!(
            ctrl.architectural_line(*addr),
            *expect,
            "line {addr} corrupted under chaos"
        );
    }
    assert!(
        checked >= shadow.len() / 2,
        "the stuck burst must not blanket the whole working set"
    );
    (
        ctrl.stats().clone(),
        ctrl.fault_log().to_vec(),
        ctrl.store().content_digest(),
        ctrl.salvaged_lines(),
    )
}

#[test]
fn ecp_exhaustion_walks_the_full_degradation_ladder() {
    let (stats, log, _digest, salvaged) = run_ladder(2015);
    assert!(
        stats.ecp_exhaustions.get() > 0,
        "the storm must overwhelm a 1-entry ECP table"
    );
    assert!(
        stats.correction_retries.get() > 0,
        "rung 1: bounded retry must fire before escalation"
    );
    assert!(
        stats.immediate_corrections.get() > 0,
        "rung 2: escalated lines correct immediately"
    );
    assert!(
        stats.decommissions.get() > 0,
        "rung 3: persistent distress must decommission a line"
    );
    assert!(
        salvaged > 0,
        "decommissioned lines live in the salvage pool"
    );
    assert!(
        stats.salvage_rejections.get() > 0,
        "a full pool must refuse further decommissions, not panic"
    );
    assert!(
        stats.fault_events.get() >= 2,
        "storm begin + stuck burst are logged"
    );
    assert_eq!(
        stats.fault_events.get(),
        log.len() as u64,
        "counter and log agree"
    );
    assert_eq!(
        stats.internal_anomalies.get(),
        0,
        "chaos must not trip internal invariants"
    );
}

#[test]
fn chaos_runs_are_bit_reproducible() {
    let a = run_ladder(77);
    let b = run_ladder(77);
    assert_eq!(a.0, b.0, "CtrlStats diverged between same-seed runs");
    assert_eq!(a.1, b.1, "fault logs diverged between same-seed runs");
    assert_eq!(a.2, b.2, "device contents diverged between same-seed runs");
    assert_eq!(a.3, b.3, "salvage pools diverged between same-seed runs");

    let c = run_ladder(78);
    assert_ne!(
        (&a.0, &a.2),
        (&c.0, &c.2),
        "a different seed must actually change the run"
    );
}

/// The same property through the full-system front end: a `FaultPlan`
/// installed into `SystemSim` replays bit-exactly and its degradation
/// events surface in the run's `CtrlStats`.
#[test]
fn system_level_fault_plan_is_deterministic() {
    let run = || {
        let params = ExperimentParams {
            refs_per_core: 1_200,
            ecp_entries: 1,
            ..ExperimentParams::quick_test()
        };
        let mut sim = SystemSim::build(&Scheme::lazyc(), BenchKind::Mcf, &params)
            .expect("quick-test params are valid");
        sim.install_fault_plan(
            FaultPlan::new()
                .storm(50, 2.0, 50_000)
                .stuck_burst(200, 3, 2),
        )
        .expect("plan is valid");
        let stats = sim.run().expect("chaos run completes");
        let log = sim.controller().fault_log().to_vec();
        let digest = sim.controller().store().content_digest();
        (stats.ctrl.clone(), log, digest)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "system CtrlStats diverged");
    assert_eq!(a.1, b.1, "system fault logs diverged");
    assert_eq!(a.2, b.2, "system device contents diverged");
    assert!(a.0.fault_events.get() >= 2, "the plan actually fired");
    assert!(
        a.0.ecp_exhaustions.get() > 0,
        "storm + 1-entry ECP must exhaust at system level"
    );
}

/// Installing a fault plan must not change the run it never fires in.
/// The plan below triggers at write 2^40, far past any quick-test run,
/// so the planned and plan-free runs must end with identical statistics
/// and device contents for every scheme — including the write
/// cancellation, write pausing and Start-Gap paths the figure set skips.
#[test]
fn idle_fault_plan_leaves_every_scheme_bit_identical() {
    let mut schemes = Scheme::figure11_set();
    for (name, ctrl) in [
        ("LazyC+WC", Scheme::lazyc().ctrl.with_write_cancellation()),
        ("LazyC+WP", Scheme::lazyc().ctrl.with_write_pausing()),
        ("DIN+StartGap", Scheme::din().ctrl.with_start_gap(8)),
    ] {
        schemes.push(Scheme {
            name: name.to_owned(),
            ctrl,
            ..Scheme::lazyc()
        });
    }
    let params = ExperimentParams::quick_test();
    let mut reached = [0u64; 3];
    for scheme in &schemes {
        let run = |plan: Option<FaultPlan>| {
            let mut sim = SystemSim::build(scheme, BenchKind::Mcf, &params)
                .expect("quick-test params are valid");
            if let Some(plan) = plan {
                sim.install_fault_plan(plan).expect("plan is valid");
            }
            let stats = sim.run().expect("run completes");
            (stats, sim.controller().store().content_digest())
        };
        let (plain, plain_digest) = run(None);
        let (planned, planned_digest) = run(Some(FaultPlan::new().storm(1 << 40, 1.5, 10)));
        assert_eq!(
            format!("{plain:?}"),
            format!("{planned:?}"),
            "{}: RunStats diverged",
            scheme.name
        );
        assert_eq!(
            plain_digest, planned_digest,
            "{}: device contents diverged",
            scheme.name
        );
        reached[0] += plain.ctrl.write_cancellations.get();
        reached[1] += plain.ctrl.write_pauses.get();
        reached[2] += plain.ctrl.gap_moves.get();
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "cancellations, pauses and gap moves must all occur: {reached:?}"
    );
}
