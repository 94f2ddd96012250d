//! Absolute content-digest goldens.
//!
//! The relative goldens (`tests/replay_golden.rs`, `tests/parallel_sweep.rs`)
//! pin that two ways of running the same simulation agree; this file pins
//! the simulation *output itself*, for both front ends. Any change that touches an RNG draw,
//! the draw-derivation scheme, or the simulated write path will move
//! these constants — that is the point. Such a change invalidates every
//! externally recorded digest at once and must be deliberate: update the
//! constants here in the same commit and call the migration out in
//! DESIGN.md ("Golden migrations"). Each entry also pins
//! `total_cycles`, so a change to event timing fails here even when the
//! final device content happens not to move.
//!
//! Last re-pin: skip-sampled write-disturbance draws (one draw per
//! victim cell plus one, instead of one per RESET exposure), which move
//! every injected victim set; DESIGN.md "Golden migrations" lists every
//! old → new pin. The one before it was the counter-based
//! (Philox4x32-10) RNG swap.

use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm_core::{ExperimentParams, FaultPlan, Scheme, SystemSim};
use sdpcm_memctrl::CtrlScheme;
use sdpcm_trace::BenchKind;

#[test]
fn content_digests_match_pinned_goldens() {
    let params = ExperimentParams {
        refs_per_core: 400,
        ..ExperimentParams::quick_test()
    };
    let golden: [(Scheme, u64, u64, u64); 2] = [
        (Scheme::baseline(), 0x707f74812cd2db5e, 1477, 1_555_588),
        (Scheme::lazyc_preread(), 0xcc784afd5d4017aa, 1477, 746_748),
    ];
    for (scheme, digest, writes, cycles) in golden {
        let mut sim = SystemSim::build(&scheme, BenchKind::Mcf, &params).unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(
            sim.controller().store().content_digest(),
            digest,
            "{}: content digest moved — an RNG-affecting change must re-pin \
             this golden deliberately (see module docs)",
            scheme.name
        );
        assert_eq!(stats.ctrl.writes.get(), writes, "{}", scheme.name);
        assert_eq!(stats.total_cycles, cycles, "{}", scheme.name);
    }
}

#[test]
fn hierarchy_content_digests_match_pinned_goldens() {
    // The hierarchy front end has no second path to cross-check against,
    // so its live cache simulation is pinned absolutely.
    let golden: [(Scheme, u64, (u64, u64), u64); 2] = [
        (
            Scheme::baseline(),
            0xb4c0bd7a85313ac3,
            (11996, 3247),
            5_179_675,
        ),
        (
            Scheme::lazyc_preread(),
            0xd0898e2084fb73f5,
            (11996, 3247),
            2_840_300,
        ),
    ];
    for (scheme, digest, traffic, cycles) in golden {
        let name = scheme.name.clone();
        let mut sim = HierarchySim::build(
            scheme,
            BenchKind::Mcf,
            &ExperimentParams::quick_test(),
            &HierarchyParams::quick_test(),
        )
        .unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(
            sim.controller().store().content_digest(),
            digest,
            "{name}: hierarchy content digest moved (see module docs)"
        );
        assert_eq!(sim.pcm_traffic(), traffic, "{name}");
        assert_eq!(stats.total_cycles, cycles, "{name}");
    }
}

/// The mechanism paths the two probes above skip: DIN without VnC,
/// write cancellation, write pausing, Start-Gap, and an installed fault
/// plan. Each is pinned by content digest, committed writes and
/// `total_cycles`; the fault-plan cell also pins how many faults fired.
/// These pin the event core itself: any change to how the controller
/// orders or batches bank operations that is not result-neutral fails
/// here.
#[test]
fn mechanism_paths_match_pinned_goldens() {
    let params = ExperimentParams {
        refs_per_core: 400,
        ..ExperimentParams::quick_test()
    };
    let with_ctrl = |name: &str, base: Scheme, ctrl: fn(CtrlScheme) -> CtrlScheme| Scheme {
        name: name.to_owned(),
        ctrl: ctrl(base.ctrl),
        ..base
    };
    let plan = || {
        FaultPlan::new()
            .storm(50, 1.5, 400)
            .stuck_burst(100, 3, 2)
            .aging_ramp(200, 0.5)
    };
    let wc = with_ctrl(
        "LazyC+WC",
        Scheme::lazyc(),
        CtrlScheme::with_write_cancellation,
    );
    let wp = with_ctrl("LazyC+WP", Scheme::lazyc(), CtrlScheme::with_write_pausing);
    let sg = with_ctrl("LazyC+PreRead+SG", Scheme::lazyc_preread(), |c| {
        c.with_start_gap(8)
    });
    // (scheme, fault plan installed, content digest, writes, cycles, faults fired)
    let golden: [(Scheme, bool, u64, u64, u64, usize); 5] = [
        (Scheme::din(), false, 0x7e927d70f6a0465f, 1477, 568_080, 0),
        (wc, false, 0xcc784afd5d4017aa, 1477, 486_824, 0),
        (wp, false, 0xcc784afd5d4017aa, 1477, 465_156, 0),
        (sg, false, 0xe2c9680e6fe5a56e, 1653, 858_548, 0),
        (
            Scheme::lazyc_preread(),
            true,
            0x244c243e8d592df8,
            1477,
            803_432,
            4,
        ),
    ];
    let mut reached = [0u64; 3];
    for (scheme, chaos, digest, writes, cycles, faults) in golden {
        let mut sim = SystemSim::build(&scheme, BenchKind::Mcf, &params).unwrap();
        if chaos {
            sim.install_fault_plan(plan()).unwrap();
        }
        let stats = sim.run().unwrap();
        let name = format!("{}{}", scheme.name, if chaos { "+chaos" } else { "" });
        assert_eq!(
            sim.controller().store().content_digest(),
            digest,
            "{name}: content digest moved (see module docs)"
        );
        assert_eq!(stats.ctrl.writes.get(), writes, "{name}");
        assert_eq!(stats.total_cycles, cycles, "{name}");
        assert_eq!(sim.controller().fault_log().len(), faults, "{name}");
        reached[0] += stats.ctrl.write_cancellations.get();
        reached[1] += stats.ctrl.write_pauses.get();
        reached[2] += stats.ctrl.gap_moves.get();
    }
    assert!(
        reached.iter().all(|&n| n > 0),
        "cancellations, pauses and gap moves must all occur: {reached:?}"
    );
}

/// The tiny hierarchy above has 16 L3 sets, and the Table 2 caches never
/// evict within a short run, so neither pins set/tag arithmetic at a
/// realistic set count. These caches do: 64 L1 sets, 256 L2 sets and
/// 2,048 L3 sets, driven far enough on mcf that L3 evicts dirty lines
/// to PCM.
#[test]
fn hierarchy_midsize_caches_match_pinned_golden() {
    use sdpcm_cachesim::{CacheConfig, HierarchyConfig};
    use sdpcm_engine::Cycle;
    let hparams = HierarchyParams {
        accesses_per_core: 12_000,
        caches: HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
                hit_latency: Cycle(2),
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                hit_latency: Cycle(20),
            },
            l3: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 8,
                hit_latency: Cycle(200),
            },
        },
        ..HierarchyParams::quick_test()
    };
    let mut sim = HierarchySim::build(
        Scheme::lazyc_preread(),
        BenchKind::Mcf,
        &ExperimentParams::quick_test(),
        &hparams,
    )
    .unwrap();
    let stats = sim.run().unwrap();
    assert_eq!(hparams.caches.l3.sets(), 2048);
    assert_eq!(
        sim.controller().store().content_digest(),
        0xce5b6f85ebae0103,
        "mid-size hierarchy content digest moved (see module docs)"
    );
    assert_eq!(sim.pcm_traffic(), (93_848, 947));
    assert_eq!(stats.total_cycles, 8_920_710);
}
