//! Property-based tests (proptest) on the core data structures and
//! invariants: differential writes, DIN coding, ECP tables, the buddy
//! and (n:m) page allocators, (n:m) marking, the vulnerable-pattern
//! analysis, and the skip-sampled disturbance draws.

use proptest::collection::vec;
use proptest::prelude::*;

use sdpcm::engine::{ChanceGate, SimRng};
use sdpcm::memctrl::StartGap;
use sdpcm::osalloc::buddy::BuddyAllocator;
use sdpcm::osalloc::dma::DmaController;
use sdpcm::osalloc::{NmAllocator, NmRatio};
use sdpcm::pcm::ecp::{EcpKind, EcpTable};
use sdpcm::pcm::line::{DiffMask, LineBuf};
use sdpcm::trace::stream::StreamKernels;
use sdpcm::wd::din::{DinCodec, DinFlags};
use sdpcm::wd::pattern::{bitline_vulnerable, wordline_exposure_masks, wordline_vulnerable};
use sdpcm::wd::WdInjector;

fn line_strategy() -> impl Strategy<Value = LineBuf> {
    proptest::array::uniform8(any::<u64>()).prop_map(LineBuf::from_words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn diff_apply_realizes_target(old in line_strategy(), new in line_strategy()) {
        let d = DiffMask::between(&old, &new);
        prop_assert_eq!(d.apply(&old), new);
        // SETs and RESETs partition the changed bits.
        prop_assert_eq!(d.set_count() + d.reset_count(), old.xor(&new).count_ones());
        // A diff against self is empty.
        prop_assert!(DiffMask::between(&new, &new).is_empty());
    }

    #[test]
    fn diff_masks_are_disjoint(old in line_strategy(), new in line_strategy()) {
        let d = DiffMask::between(&old, &new);
        for b in 0..512 {
            prop_assert!(!(d.is_set(b) && d.is_reset(b)), "bit {} both set and reset", b);
            if d.is_programmed(b) {
                prop_assert_ne!(old.bit(b), new.bit(b));
            } else {
                prop_assert_eq!(old.bit(b), new.bit(b));
            }
        }
    }

    #[test]
    fn line_byte_roundtrip(l in line_strategy()) {
        prop_assert_eq!(LineBuf::from_bytes(&l.to_bytes()), l);
        let ones: Vec<usize> = l.iter_ones().collect();
        prop_assert_eq!(ones.len() as u32, l.count_ones());
    }

    #[test]
    fn din_roundtrips_any_history(
        plains in vec(line_strategy(), 1..6),
        group_pow in 3usize..=9, // 8..512-bit groups
    ) {
        let codec = DinCodec::new(1 << group_pow);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for plain in plains {
            let (enc, f) = codec.encode(&plain, &stored, flags);
            prop_assert_eq!(codec.decode(&enc, f), plain);
            stored = enc;
            flags = f;
        }
    }

    #[test]
    fn din_never_beats_raw_at_vulnerability(
        old in line_strategy(),
        new in line_strategy(),
    ) {
        // The encoder's greedy choice must not be worse than identity
        // coding when starting from identical stored state.
        let codec = DinCodec::paper_default();
        let raw_diff = DiffMask::between(&old, &new);
        let raw_victims = wordline_vulnerable(&new, &raw_diff).len();
        let (enc, _) = codec.encode(&new, &old, DinFlags::default());
        let din_diff = DiffMask::between(&old, &enc);
        let din_victims = wordline_vulnerable(&enc, &din_diff).len();
        prop_assert!(din_victims <= raw_victims,
            "DIN produced more victims ({}) than identity ({})", din_victims, raw_victims);
    }

    #[test]
    fn vulnerable_patterns_follow_the_rules(
        old in line_strategy(),
        new in line_strategy(),
        neighbor in line_strategy(),
    ) {
        let diff = DiffMask::between(&old, &new);
        for v in wordline_vulnerable(&new, &diff) {
            let b = v as usize;
            prop_assert!(!diff.is_programmed(b), "victim must be idle");
            prop_assert!(!new.bit(b), "victim must store 0");
            let l = b > 0 && diff.is_reset(b - 1);
            let r = b + 1 < 512 && diff.is_reset(b + 1);
            prop_assert!(l || r, "victim must neighbour a RESET");
        }
        for v in bitline_vulnerable(&diff, &neighbor) {
            let b = v as usize;
            prop_assert!(diff.is_reset(b), "bit-line victim under a RESET position");
            prop_assert!(!neighbor.bit(b), "bit-line victim stores 0");
        }
    }

    #[test]
    fn ecp_patch_fixes_exactly_recorded_cells(
        raw in line_strategy(),
        entries in vec((0u16..512, any::<bool>()), 0..6),
    ) {
        let mut t = EcpTable::new(6);
        for (bit, val) in &entries {
            prop_assert!(t.try_record(*bit, *val, EcpKind::Disturb));
        }
        let patched = t.patch(&raw);
        for b in 0..512u16 {
            let expected = t.entries().iter().find(|e| e.bit == b)
                .map_or(raw.bit(b as usize), |e| e.value);
            prop_assert_eq!(patched.bit(b as usize), expected);
        }
    }

    #[test]
    fn ecp_capacity_is_respected(
        cap in 0usize..8,
        bits in vec(0u16..512, 0..20),
    ) {
        let mut t = EcpTable::new(cap);
        for b in bits {
            let _ = t.try_record(b, false, EcpKind::Disturb);
            prop_assert!(t.entries().len() <= cap);
            prop_assert_eq!(t.free_slots(), cap - t.entries().len());
        }
        t.clear_disturb();
        prop_assert_eq!(t.free_slots(), cap);
    }

    #[test]
    fn buddy_conservation(
        total in 1u64..512,
        ops in vec((0u8..5, any::<bool>()), 1..40),
    ) {
        let mut b = BuddyAllocator::new(total);
        let mut held: Vec<(u64, u8)> = Vec::new();
        for (order, free_instead) in ops {
            if free_instead && !held.is_empty() {
                let (base, order) = held.swap_remove(0);
                b.free(base, order);
            } else if let Some(base) = b.alloc(order) {
                // Alignment and range invariants.
                prop_assert_eq!(base % (1 << order), 0);
                prop_assert!(base + (1 << order) <= total);
                held.push((base, order));
            }
            let held_pages: u64 = held.iter().map(|(_, o)| 1u64 << o).sum();
            prop_assert_eq!(b.free_pages() + held_pages, total);
        }
        // Outstanding blocks never overlap.
        let mut pages = std::collections::HashSet::new();
        for (base, order) in &held {
            for p in *base..*base + (1 << order) {
                prop_assert!(pages.insert(p), "page {} double-owned", p);
            }
        }
    }

    #[test]
    fn nm_allocator_churn_matches_held_set(
        total in 1u64..1500,
        ops in vec((0usize..4, 1u64..80, 0u8..3, any::<u64>()), 1..60),
    ) {
        let ratios = [
            NmRatio::one_one(),
            NmRatio::one_two(),
            NmRatio::two_three(),
            NmRatio::three_four(),
        ];
        let mut a = NmAllocator::new(total);
        let mut owner = std::collections::HashMap::new();
        let mut held: Vec<(NmRatio, Vec<u64>)> = Vec::new();
        for (r, count, op, pick) in ops {
            if op == 0 && !held.is_empty() {
                // Free one allocation, in two calls.
                let (ratio, frames) = held.swap_remove(pick as usize % held.len());
                let (first, rest) = frames.split_at(pick as usize % frames.len());
                a.free_pages(ratio, first);
                a.free_pages(ratio, rest);
                for f in frames {
                    prop_assert_eq!(owner.remove(&f), Some(ratio));
                }
            } else if let Some(frames) = a.alloc_pages(ratios[r], count) {
                prop_assert_eq!(frames.len() as u64, count);
                for &f in &frames {
                    prop_assert!(f < total);
                    // No frame in a marked strip, none held twice (across
                    // ratios too).
                    prop_assert!(!ratios[r].is_nouse_strip(f / 16), "frame {} marked", f);
                    prop_assert!(owner.insert(f, ratios[r]).is_none(), "frame {} held twice", f);
                }
                held.push((ratios[r], frames));
            }
        }
        for (ratio, frames) in held {
            a.free_pages(ratio, &frames);
        }
        prop_assert_eq!(a.base_free_pages(), total);
        for ratio in ratios {
            prop_assert_eq!(a.pool_free_pages(ratio), 0);
        }
    }

    #[test]
    fn nm_marking_is_periodic_within_blocks(n in 1u8..5, m_extra in 0u8..4, strip in 0u64..100_000) {
        let m = n + m_extra;
        let ratio = NmRatio::new(n, m);
        // Marking depends only on the position within the 64 MB block.
        let in_block = strip % 1024;
        let twin = (strip + 1024 * 7) % (1024 * 128); // same position, other block
        let twin = twin - twin % 1024 + in_block;
        prop_assert_eq!(ratio.is_nouse_strip(strip), ratio.is_nouse_strip(twin));
        // (n:m) marks exactly m-n positions per full group.
        let marked = (0..u64::from(m)).filter(|&p| ratio.is_nouse_strip(p)).count();
        if u64::from(m) <= 1024 {
            prop_assert_eq!(marked, usize::from(m - n));
        }
    }

    #[test]
    fn start_gap_stays_bijective_and_in_range(
        n in 2u64..64,
        moves in 0u32..300,
    ) {
        let mut sg = StartGap::new(n, 1);
        for _ in 0..moves {
            let mv = sg.advance_gap();
            prop_assert!(mv.from <= n && mv.to <= n);
            prop_assert_ne!(mv.from, mv.to);
        }
        let mut seen = std::collections::HashSet::new();
        for la in 0..n {
            let pa = sg.map(la);
            prop_assert!(pa <= n);
            prop_assert!(seen.insert(pa), "collision at logical {}", la);
        }
    }

    #[test]
    fn stream_kernels_cover_all_arrays(pages in 1u64..8, take in 100usize..2000) {
        let mut s = StreamKernels::new(0, pages, 5, SimRng::from_seed(9));
        let total = s.total_pages();
        let mut reads = 0u64;
        let mut writes = 0u64;
        for _ in 0..take {
            let r = s.next_ref();
            prop_assert!(r.vpage < total);
            prop_assert!(u64::from(r.slot) < 64);
            prop_assert!(r.gap >= 1);
            if r.is_write {
                writes += 1;
                prop_assert!(r.flip_bits >= 1);
            } else {
                reads += 1;
                prop_assert_eq!(r.flip_bits, 0);
            }
        }
        // 3:2 read:write within rounding of partial kernels.
        prop_assert!(reads + writes == take as u64);
    }

    #[test]
    fn dma_one_two_walks_are_usable_and_monotone(
        base_strip in 0u64..64,
        frames in 1u64..200,
    ) {
        let d = DmaController::new();
        let base = base_strip * 2 * 16; // even strip start
        let walk = d.walk(NmRatio::one_two(), base, frames).unwrap();
        prop_assert_eq!(walk.len() as u64, frames);
        prop_assert!(walk.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(walk.iter().all(|f| (f / 16) % 2 == 0));
    }

    #[test]
    fn chance_gate_matches_f64_reference(
        seed in any::<u64>(),
        p in prop_oneof![
            4 => 0.0f64..=1.0,
            2 => 0.0f64..=0.01, // WD probabilities live down here
            1 => proptest::sample::select(vec![
                0.0,
                f64::MIN_POSITIVE,
                1e-12,
                0.115, // the paper's per-write disturbance headline number
                0.5,
                1.0 - f64::EPSILON,
                1.0,
            ]),
        ],
        draws in 1usize..200,
    ) {
        // Two identically seeded streams: one decides through the
        // integer-threshold gate, the other through the historical f64
        // procedure (`unit() < p`, no draw at the clamped extremes).
        // Every decision must match AND both must consume the same
        // number of raw draws, or downstream draw order shifts.
        let mut gate_rng = SimRng::from_seed(seed);
        let mut ref_rng = SimRng::from_seed(seed);
        let gate = ChanceGate::new(p);
        for i in 0..draws {
            let expect = if p <= 0.0 {
                false
            } else if p >= 1.0 {
                true
            } else {
                ref_rng.unit() < p
            };
            prop_assert_eq!(
                gate_rng.chance_gate(gate), expect,
                "gate diverged from f64 reference at draw {} (p={})", i, p
            );
        }
        // Stream alignment: the next raw word is identical.
        prop_assert_eq!(gate_rng.next_u64(), ref_rng.next_u64());
    }

    #[test]
    fn wd_victims_are_ascending_cells_of_the_vulnerable_mask(
        old in line_strategy(),
        new in line_strategy(),
        neighbor in line_strategy(),
        p in prop_oneof![
            3 => 0.0f64..=1.0,
            1 => proptest::sample::select(vec![0.0, 0.099, 0.115, 1.0]),
        ],
        epoch in any::<u64>(),
    ) {
        let inj = WdInjector::with_probs(p, p, SimRng::from_seed(epoch)).unwrap();
        let diff = DiffMask::between(&old, &new);
        let ev = inj.event(0x77, epoch);
        let wl = inj.draw_wordline(&ev, &new, &diff);
        let bl = inj.draw_bitline(&ev, 1, &diff, &neighbor);
        let wl_mask = wordline_vulnerable(&new, &diff);
        let bl_mask = bitline_vulnerable(&diff, &neighbor);
        for (victims, mask) in [(&wl, &wl_mask), (&bl, &bl_mask)] {
            prop_assert!(victims.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(victims.iter().all(|v| mask.binary_search(v).is_ok()));
            if p == 0.0 {
                prop_assert!(victims.is_empty());
            }
            if p == 1.0 {
                prop_assert_eq!(victims, mask);
            }
        }
    }

    #[test]
    fn reset_only_masks_only_reset(bits in vec(0usize..512, 0..32)) {
        let d = DiffMask::reset_only(&bits);
        prop_assert_eq!(d.set_count(), 0);
        for b in &bits {
            prop_assert!(d.is_reset(*b));
        }
        let mut unique = bits.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(d.reset_count() as usize, unique.len());
    }
}

/// The fast tier of the disturbance sampler's statistics (the full grid
/// is `sdpcm-wd`'s `skip_sampling` soak): over 3,000 events on one
/// pseudorandom write at the calibrated rates, the victim totals of
/// each draw land within four standard deviations of the per-cell
/// model, `p` per one-neighbour word-line cell, `1 − (1 − p)²` per
/// two-neighbour cell and `p` per bit-line cell.
#[test]
fn wd_victim_totals_match_the_per_cell_model() {
    let (p_wl, p_bl) = (0.099, 0.115);
    let inj = WdInjector::with_probs(p_wl, p_bl, SimRng::from_seed_label(5, "wd-totals")).unwrap();
    let mut words = [0u64; 8];
    let mut rng = SimRng::from_seed(6);
    rng.fill(&mut words);
    let old = LineBuf::from_words(words);
    rng.fill(&mut words);
    let new = LineBuf::from_words(words);
    let diff = DiffMask::between(&old, &new);
    let neighbor = LineBuf::zeroed();
    let (once, twice) = wordline_exposure_masks(&new, &diff);
    let p_twice = 1.0 - (1.0 - p_wl) * (1.0 - p_wl);
    let trials = 3_000u32;
    let (mut wl, mut bl) = (0u64, 0u64);
    for epoch in 0..trials {
        let ev = inj.event(9, u64::from(epoch));
        wl += inj.draw_wordline(&ev, &new, &diff).len() as u64;
        bl += inj.draw_bitline(&ev, 0, &diff, &neighbor).len() as u64;
    }
    let t = f64::from(trials);
    let bl_cells = f64::from(diff.reset_count());
    let (n1, n2) = (f64::from(once.count_ones()), f64::from(twice.count_ones()));
    let within = |got: u64, mean: f64, var: f64| (got as f64 - mean).abs() <= 4.0 * var.sqrt();
    assert!(
        within(bl, t * bl_cells * p_bl, t * bl_cells * p_bl * (1.0 - p_bl)),
        "bit-line: {bl} victims"
    );
    let wl_mean = t * (n1 * p_wl + n2 * p_twice);
    let wl_var = t * (n1 * p_wl * (1.0 - p_wl) + n2 * p_twice * (1.0 - p_twice));
    assert!(
        within(wl, wl_mean, wl_var),
        "word-line: {wl} victims, mean {wl_mean}"
    );
}
