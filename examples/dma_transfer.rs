//! WD-aware DMA (paper §4.4, "DMA support").
//!
//! DMA engines address physical memory and expect consecutive frames.
//! Under (n:m)-Alloc the physically consecutive layout has holes — the
//! marked strips — so the paper teaches the DMA controller the allocator
//! tag: (1:1) transfers walk densely, (1:2) transfers skip every other
//! strip. This example runs both kinds of transfer end-to-end through
//! the memory controller and verifies the copied data.
//!
//! ```text
//! cargo run --release --example dma_transfer
//! ```

use sdpcm::engine::{Cycle, SimRng};
use sdpcm::memctrl::{Access, AccessKind, CtrlConfig, CtrlScheme, MemoryController, ReqId};
use sdpcm::osalloc::dma::DmaController;
use sdpcm::osalloc::NmRatio;
use sdpcm::pcm::geometry::{LineAddr, MemGeometry, PageId};
use sdpcm::pcm::line::LineBuf;

fn line_addr(geometry: &MemGeometry, frame: u64, slot: u8) -> LineAddr {
    let (bank, row) = geometry.page_to_bank_row(PageId(frame));
    LineAddr { bank, row, slot }
}

fn main() {
    let geometry = MemGeometry::small(512);
    let mut ctrl = MemoryController::new(
        CtrlConfig::table2(CtrlScheme::lazyc()),
        geometry,
        SimRng::from_seed_label(14, "dma-example"),
    );
    let dma = DmaController::new();
    let mut rng = SimRng::from_seed_label(14, "dma-data");
    let mut now = Cycle::ZERO;
    let mut next_id = 0u64;

    for ratio in [NmRatio::one_one(), NmRatio::one_two()] {
        println!("== DMA transfer under {ratio} ==");
        assert!(dma.supports(ratio));

        // A 24-frame buffer starting at frame 0; the walk is the DMA
        // engine's physical address sequence.
        let walk = dma.walk(ratio, 0, 24).expect("supported configuration");
        println!(
            "  physical frames touched: {} .. {} ({} frames, span {})",
            walk[0],
            walk.last().unwrap(),
            walk.len(),
            walk.last().unwrap() - walk[0] + 1
        );

        // Fill the buffer via the controller (the "device writes memory"
        // half of a DMA), then read it back and verify.
        let mut written = Vec::new();
        for &frame in &walk {
            let addr = line_addr(&geometry, frame, 0);
            let mut data = LineBuf::zeroed();
            for _ in 0..64 {
                data.set_bit(rng.index(512), true);
            }
            written.push((addr, data));
            now += Cycle(100);
            next_id += 1;
            ctrl.submit(
                Access {
                    id: ReqId(next_id),
                    addr,
                    kind: AccessKind::Write(data),
                    ratio,
                    core: 0,
                    arrive: now,
                },
                now,
            )
            .unwrap();
        }
        ctrl.flush(now, &mut Vec::new()).unwrap();
        let ok = written
            .iter()
            .all(|(addr, data)| ctrl.architectural_line(*addr) == *data);
        println!(
            "  transfer verified: {} ({} lines)",
            if ok { "OK" } else { "CORRUPT" },
            written.len()
        );
        assert!(ok);

        // Under (1:2) no line of the transfer needed any verification.
        if ratio == NmRatio::one_two() {
            println!(
                "  verification reads so far: {} (interior (1:2) strips need none)",
                ctrl.stats().verification_ops
            );
        }
        println!();
    }

    // Unsupported ratios are rejected up front, as §4.4 specifies.
    let err = dma.walk(NmRatio::two_three(), 0, 8).unwrap_err();
    println!("(2:3) transfer rejected as designed: {err}");
}
