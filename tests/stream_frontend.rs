//! Driving the memory controller with the exact STREAM kernels — the
//! structural front end — and checking timing and consistency against
//! the statistical front end used by the figures.

use std::collections::HashMap;

use sdpcm::engine::{Cycle, SimRng};
use sdpcm::memctrl::{Access, AccessKind, CtrlConfig, CtrlScheme, MemoryController, ReqId};
use sdpcm::osalloc::NmRatio;
use sdpcm::pcm::geometry::{LineAddr, MemGeometry, PageId};
use sdpcm::pcm::line::LineBuf;
use sdpcm::trace::stream::{Kernel, StreamKernels};

/// Runs `n` STREAM references through a controller, one core, with the
/// arrays identity-mapped to the first frames.
fn run_stream(scheme: CtrlScheme, n: usize) -> (MemoryController, HashMap<LineAddr, LineBuf>) {
    let geometry = MemGeometry::small(256);
    let mut ctrl = MemoryController::new(
        CtrlConfig::table2(scheme),
        geometry,
        SimRng::from_seed_label(55, "stream-ctrl"),
    );
    let mut gen = StreamKernels::new(0, 8, 50, SimRng::from_seed_label(55, "stream-gen"));
    let mut rng = SimRng::from_seed_label(55, "stream-payload");
    let mut shadow: HashMap<LineAddr, LineBuf> = HashMap::new();
    let mut now = Cycle::ZERO;
    for i in 0..n {
        let r = gen.next_ref();
        now += Cycle(r.gap);
        let (bank, row) = geometry.page_to_bank_row(PageId(r.vpage));
        let addr = LineAddr {
            bank,
            row,
            slot: r.slot,
        };
        let kind = if r.is_write {
            let mut data = ctrl.latest_architectural(addr);
            for _ in 0..r.flip_bits {
                let b = rng.index(512);
                let v = data.bit(b);
                data.set_bit(b, !v);
            }
            shadow.insert(addr, data);
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
    (ctrl, shadow)
}

#[test]
fn stream_kernels_complete_under_full_sdpcm() {
    let (ctrl, shadow) = run_stream(CtrlScheme::lazyc_preread(), 6_000);
    assert!(ctrl.stats().writes.get() > 1_000);
    // Every line the kernels wrote reads back correctly.
    for (addr, expect) in &shadow {
        assert_eq!(ctrl.architectural_line(*addr), *expect, "line {addr}");
    }
}

#[test]
fn stream_sequential_writes_disturb_their_row_neighbors() {
    // Sequential kernel writes sweep whole rows; adjacent rows hold the
    // other arrays' data, so bit-line WD must appear and be handled.
    let (ctrl, _) = run_stream(CtrlScheme::baseline_vnc(), 6_000);
    assert!(
        ctrl.stats().bl_errors_per_neighbor.total() > 0,
        "verification must have observed neighbours"
    );
    assert!(
        ctrl.stats().verification_ops.get() > 1_000,
        "sequential writes verify their neighbours"
    );
}

#[test]
fn kernel_metadata_is_consistent() {
    for k in Kernel::ORDER {
        let (sources, dest) = k.operands();
        assert!(!sources.is_empty());
        assert!(!sources.contains(&dest), "{k:?} reads its own destination");
        assert!(dest < 3);
        assert!(sources.iter().all(|&s| s < 3));
    }
}
