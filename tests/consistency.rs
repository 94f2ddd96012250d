//! The reproduction's load-bearing invariant: under every protected
//! scheme, a read always returns the last value written — no matter how
//! much write disturbance the workload provokes. A shadow model tracks
//! program-order contents and every read completion is checked against
//! it. The unprotected ablation must, by contrast, corrupt data.

use std::collections::HashMap;

use sdpcm::engine::{Cycle, SimRng};
use sdpcm::memctrl::{
    Access, AccessKind, Completion, CtrlConfig, CtrlScheme, MemoryController, ReqId, Wake,
};
use sdpcm::osalloc::NmRatio;
use sdpcm::pcm::geometry::{BankId, LineAddr, MemGeometry, RowId};
use sdpcm::pcm::line::LineBuf;

struct Harness {
    ctrl: MemoryController,
    shadow: HashMap<LineAddr, LineBuf>,
    pending_reads: HashMap<ReqId, (LineAddr, Option<LineBuf>)>,
    rng: SimRng,
    now: Cycle,
    next_id: u64,
    mismatches: Vec<LineAddr>,
    reads_checked: u64,
    writes_submitted: u64,
    /// Under Start-Gap, never-written lines read as some *other*
    /// physical slot's initial content — skip those checks.
    check_unwritten: bool,
}

/// The seed of every pinned run below.
const SEED: u64 = 2024;

impl Harness {
    /// A harness whose controller and request stream both draw from `seed`.
    fn new(scheme: CtrlScheme, seed: u64) -> Harness {
        Harness::with_config(CtrlConfig::table2(scheme), seed)
    }

    /// [`Harness::new`] with a full controller configuration.
    fn with_config(cfg: CtrlConfig, seed: u64) -> Harness {
        Harness {
            ctrl: MemoryController::new(
                cfg,
                MemGeometry::small(512),
                SimRng::from_seed_label(seed, "consistency-ctrl"),
            ),
            shadow: HashMap::new(),
            pending_reads: HashMap::new(),
            rng: SimRng::from_seed_label(seed, "consistency-drv"),
            now: Cycle::ZERO,
            next_id: 0,
            mismatches: Vec::new(),
            reads_checked: 0,
            writes_submitted: 0,
            check_unwritten: true,
        }
    }

    fn fresh_id(&mut self) -> ReqId {
        self.next_id += 1;
        ReqId(self.next_id)
    }

    fn addr(&mut self, ratio: NmRatio) -> LineAddr {
        // A small set of rows in few banks maximizes adjacency pressure.
        // Under (n:m) ratios only unmarked strips hold data, as the OS
        // would enforce.
        loop {
            let a = LineAddr {
                bank: BankId(self.rng.below(2) as u16),
                row: RowId(40 + self.rng.below(8) as u32),
                slot: self.rng.below(4) as u8,
            };
            if !ratio.is_nouse_strip(u64::from(a.row.0)) {
                return a;
            }
        }
    }

    fn expected(&self, addr: LineAddr) -> Option<LineBuf> {
        match self.shadow.get(&addr) {
            Some(v) => Some(*v),
            None if self.check_unwritten => Some(self.ctrl.store().initial_line(addr)),
            None => None,
        }
    }

    fn check(&mut self, done: Vec<Completion>) {
        for c in done {
            if let Some((addr, expect)) = self.pending_reads.remove(&c.id) {
                self.reads_checked += 1;
                if let Some(expect) = expect {
                    if c.data != Some(expect) {
                        self.mismatches.push(addr);
                    }
                }
            }
        }
    }

    fn step(&mut self, ratio: NmRatio) {
        let addr = self.addr(ratio);
        self.now += Cycle(self.rng.below(500) + 1);
        let is_write = self.rng.chance(0.6);
        let id = self.fresh_id();
        if is_write {
            // Flip a batch of bits of the program-order current value.
            let mut data = self
                .expected(addr)
                .unwrap_or_else(|| self.ctrl.latest_architectural(addr));
            for _ in 0..60 {
                let b = self.rng.index(512);
                let v = data.bit(b);
                data.set_bit(b, !v);
            }
            self.shadow.insert(addr, data);
            self.writes_submitted += 1;
            self.ctrl
                .submit(
                    Access {
                        id,
                        addr,
                        kind: AccessKind::Write(data),
                        ratio,
                        core: 0,
                        arrive: self.now,
                    },
                    self.now,
                )
                .unwrap();
        } else {
            // Program order: the read must observe the newest write, even
            // if it is still queued. Like the in-order cores of Table 2,
            // the driver blocks until the read completes — later stores
            // must not overtake an outstanding load of the same location.
            let expect = self.expected(addr);
            self.pending_reads.insert(id, (addr, expect));
            self.ctrl
                .submit(
                    Access {
                        id,
                        addr,
                        kind: AccessKind::Read,
                        ratio,
                        core: 0,
                        arrive: self.now,
                    },
                    self.now,
                )
                .unwrap();
            let mut budget = u64::MAX;
            while self.pending_reads.contains_key(&id) {
                let mut done = Vec::new();
                match self.ctrl.run_until(None, &mut budget, &mut done).unwrap() {
                    Wake::At(t) => self.now = self.now.max(t),
                    other => panic!("read in flight keeps the controller busy: {other:?}"),
                }
                self.check(done);
            }
        }
    }

    fn finish(&mut self) {
        let mut done = Vec::new();
        self.ctrl.flush(self.now, &mut done).unwrap();
        self.check(done);
    }

    /// Idle pre-reads are issued at most once per side of each write
    /// the queues took in: a submitted write, a cancelled one going back
    /// or a Start-Gap copy. Flags lost to the wrong entry show up here
    /// as pre-reads re-issued without end.
    fn check_preread_bound(&self) {
        let s = self.ctrl.stats();
        let entries = self.writes_submitted + s.write_cancellations.get() + s.gap_moves.get();
        assert!(
            s.prereads_issued.get() <= 2 * entries,
            "{} pre-reads issued for {} queued writes",
            s.prereads_issued.get(),
            entries
        );
    }

    /// After the dust settles, every line must hold its shadow value.
    fn final_sweep_mismatches(&self) -> usize {
        self.shadow
            .iter()
            .filter(|(addr, expect)| self.ctrl.architectural_logical(**addr) != **expect)
            .count()
    }
}

fn run(scheme: CtrlScheme, ratio: NmRatio, steps: u32) -> Harness {
    run_seeded(scheme, ratio, steps, SEED)
}

fn run_seeded(scheme: CtrlScheme, ratio: NmRatio, steps: u32, seed: u64) -> Harness {
    run_config(CtrlConfig::table2(scheme), ratio, steps, seed)
}

fn run_config(cfg: CtrlConfig, ratio: NmRatio, steps: u32, seed: u64) -> Harness {
    let mut h = Harness::with_config(cfg, seed);
    for _ in 0..steps {
        h.step(ratio);
    }
    h.finish();
    assert!(
        h.reads_checked > steps as u64 / 4,
        "reads actually happened"
    );
    h.check_preread_bound();
    h
}

#[test]
fn baseline_vnc_never_corrupts() {
    let h = run(CtrlScheme::baseline_vnc(), NmRatio::one_one(), 3000);
    assert_eq!(h.mismatches, vec![], "read results diverged from shadow");
    assert_eq!(h.final_sweep_mismatches(), 0);
}

#[test]
fn lazyc_never_corrupts() {
    let h = run(CtrlScheme::lazyc(), NmRatio::one_one(), 3000);
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    assert!(h.ctrl.stats().ecp_records.get() > 0, "LazyC was exercised");
}

/// The inline-ECP ablation: ECP records occupy the bank as `EcpWrite`
/// steps instead of overlapping with its next operation.
#[test]
fn inline_ecp_writes_never_corrupt() {
    let h = run(
        CtrlScheme::lazyc().with_inline_ecp_writes(),
        NmRatio::one_one(),
        3000,
    );
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    let stats = h.ctrl.stats();
    assert!(stats.ecp_records.get() > 0, "LazyC was exercised");
    assert!(
        stats.phases.ecp_writes > Cycle::ZERO,
        "records were written as EcpWrite steps"
    );
}

#[test]
fn lazyc_preread_never_corrupts() {
    let h = run(CtrlScheme::lazyc_preread(), NmRatio::one_one(), 3000);
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
}

#[test]
fn write_cancellation_never_corrupts() {
    let h = run(
        CtrlScheme::lazyc().with_write_cancellation(),
        NmRatio::one_one(),
        3000,
    );
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    assert!(
        h.ctrl.stats().write_cancellations.get() > 0,
        "cancellation was exercised"
    );
}

#[test]
fn two_three_alloc_never_corrupts() {
    let h = run(CtrlScheme::lazyc(), NmRatio::two_three(), 3000);
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
}

#[test]
fn one_two_alloc_never_corrupts_without_any_vnc() {
    let h = run(CtrlScheme::baseline_vnc(), NmRatio::one_two(), 3000);
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    assert_eq!(
        h.ctrl.stats().verification_ops.get(),
        0,
        "(1:2) interior strips need no verification at all"
    );
}

#[test]
fn write_pausing_never_corrupts() {
    let h = run(
        CtrlScheme::lazyc().with_write_pausing(),
        NmRatio::one_one(),
        3000,
    );
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    assert!(
        h.ctrl.stats().write_pauses.get() > 0,
        "pausing was exercised"
    );
}

#[test]
fn pausing_plus_cancellation_never_corrupts() {
    let h = run(
        CtrlScheme::lazyc()
            .with_write_pausing()
            .with_write_cancellation(),
        NmRatio::one_one(),
        3000,
    );
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
}

#[test]
fn start_gap_wear_leveling_never_corrupts() {
    let mut h = Harness::new(CtrlScheme::lazyc().with_start_gap(4), SEED);
    h.check_unwritten = false; // rotated unwritten lines hold other slots' init content
    for _ in 0..3000 {
        h.step(NmRatio::one_one());
    }
    h.finish();
    h.check_preread_bound();
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
    assert!(h.ctrl.stats().gap_moves.get() > 100, "gap actually rotated");
}

#[test]
fn din_array_never_corrupts() {
    let h = run(CtrlScheme::din(), NmRatio::one_one(), 3000);
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
}

#[test]
fn unprotected_super_dense_does_corrupt() {
    // The negative control: same traffic, no VnC → bit-line disturbance
    // must corrupt stored data.
    let h = run(
        CtrlScheme::unprotected_super_dense(),
        NmRatio::one_one(),
        3000,
    );
    assert!(
        !h.mismatches.is_empty() || h.final_sweep_mismatches() > 0,
        "11.5% per-vulnerable-cell disturbance must corrupt an unprotected array"
    );
}

#[test]
fn aged_dimm_with_hard_errors_never_corrupts() {
    let mut h = Harness::new(CtrlScheme::lazyc(), SEED);
    h.ctrl
        .set_dimm_age(sdpcm::pcm::wear::HardErrorModel::default(), 1.0);
    for _ in 0..3000 {
        h.step(NmRatio::one_one());
    }
    h.finish();
    assert_eq!(h.mismatches, vec![]);
    assert_eq!(h.final_sweep_mismatches(), 0);
}

/// Write cancellation re-queues a cancelled write at the front of its
/// bank's queue, possibly ahead of a later write to the same line, so
/// the seeds that happen to build that state matter. Every cancelling
/// scheme at 200 seeds each, plus LazyC+PreRead+WC at ECP-1, where
/// tables exhaust fast enough that lines are decommissioned with such
/// pairs queued. Every run also checks the pre-read bound.
#[test]
#[ignore = "release soak; run with --ignored"]
fn write_cancellation_never_corrupts_across_seeds() {
    let table2 = CtrlConfig::table2;
    let configs = [
        (
            "BaselineVnC+WC",
            table2(CtrlScheme::baseline_vnc().with_write_cancellation()),
        ),
        (
            "LazyC+WC",
            table2(CtrlScheme::lazyc().with_write_cancellation()),
        ),
        (
            "LazyC+PreRead+WC",
            table2(CtrlScheme::lazyc_preread().with_write_cancellation()),
        ),
        (
            "LazyC+WP+WC",
            table2(
                CtrlScheme::lazyc()
                    .with_write_pausing()
                    .with_write_cancellation(),
            ),
        ),
        (
            "LazyC+PreRead+WC at ECP-1",
            CtrlConfig {
                ecp_entries: 1,
                ..table2(CtrlScheme::lazyc_preread().with_write_cancellation())
            },
        ),
    ];
    for (name, cfg) in configs {
        let mut decommissions = 0;
        for seed in 0..200 {
            let h = run_config(cfg, NmRatio::one_one(), 3000, seed);
            assert_eq!(h.mismatches, vec![], "{name} seed {seed}");
            assert_eq!(h.final_sweep_mismatches(), 0, "{name} seed {seed}");
            decommissions += h.ctrl.stats().decommissions.get();
        }
        if cfg.ecp_entries == 1 {
            assert!(
                decommissions > 0,
                "{name}: no line reached the salvage rung"
            );
        }
    }
}
