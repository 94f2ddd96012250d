//! Start-Gap wear levelling [Qureshi et al., MICRO'09] (paper §7).
//!
//! PCM lines wear out; hot lines die first unless writes are spread.
//! Start-Gap provisions one spare line per region and rotates a *gap*
//! through the physical slots: every ψ demand writes, the line adjacent
//! to the gap is copied into it and the gap moves one slot, so every
//! logical line slowly migrates through every physical slot.
//!
//! This module implements the address algebra and the controller's
//! per-bank line mapping built on it; the controller performs the
//! actual copies through its normal write path (so gap-move writes are
//! subject to write disturbance and VnC like any other write — an
//! interaction the original proposals never had to consider).
//!
//! Composition caveat (documented in DESIGN.md): Start-Gap remaps lines
//! *physically*, which silently breaks (n:m)-Alloc's assumption that
//! marked strips stay where the OS put them. The controller therefore
//! accepts Start-Gap only with the (1:1) allocator.
//!
//! State per region of `n` logical lines over `n + 1` physical slots:
//!
//! ```text
//! map(la)  = (la + start) mod n;  if map >= gap { map += 1 }
//! move:      gap > 0:  copy slot[gap-1] -> slot[gap]; gap -= 1
//!            gap == 0: copy slot[n]     -> slot[0];   gap = n;
//!                      start = (start + 1) mod n
//! ```

use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::geometry::{BankId, LineAddr, MemGeometry, RowId, LINES_PER_ROW};

use crate::error::CtrlError;
use crate::req::Access;

/// The Start-Gap state of one region.
///
/// # Examples
///
/// ```
/// use sdpcm_memctrl::wearlevel::StartGap;
///
/// let mut sg = StartGap::new(8, 4); // 8 logical lines, move every 4 writes
/// assert_eq!(sg.map(3), 3); // identity before any move
/// assert!(sg.note_write().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartGap {
    n: u64,
    start: u64,
    gap: u64,
    psi: u32,
    writes: u32,
    moves: u64,
}

/// One pending gap move: copy the line at `from` into `to` (physical
/// slot indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMove {
    /// Source physical slot.
    pub from: u64,
    /// Destination physical slot (the current gap).
    pub to: u64,
}

impl StartGap {
    /// Creates a region of `n` logical lines (physical slots `0..=n`),
    /// moving the gap every `psi` demand writes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `psi == 0`.
    #[must_use]
    pub fn new(n: u64, psi: u32) -> StartGap {
        assert!(n >= 2, "a region needs at least two lines");
        assert!(psi > 0, "gap must move eventually");
        StartGap {
            n,
            start: 0,
            gap: n,
            psi,
            writes: 0,
            moves: 0,
        }
    }

    /// Logical lines in the region.
    #[must_use]
    pub fn logical_lines(&self) -> u64 {
        self.n
    }

    /// Total gap moves performed.
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Maps a logical line to its current physical slot.
    ///
    /// # Panics
    ///
    /// Panics if `la >= n`.
    #[must_use]
    pub fn map(&self, la: u64) -> u64 {
        assert!(la < self.n, "logical line out of range");
        let pa = (la + self.start) % self.n;
        if pa >= self.gap {
            pa + 1
        } else {
            pa
        }
    }

    /// The data movement the *next* gap move will perform.
    #[must_use]
    pub fn peek_move(&self) -> GapMove {
        if self.gap == 0 {
            GapMove {
                from: self.n,
                to: 0,
            }
        } else {
            GapMove {
                from: self.gap - 1,
                to: self.gap,
            }
        }
    }

    /// Advances the gap by one slot, returning the copy to perform.
    /// The mapping returned by [`StartGap::map`] reflects the move
    /// immediately; the caller must enqueue the copy through a path with
    /// store-forwarding (so reads of the moving line stay consistent).
    pub fn advance_gap(&mut self) -> GapMove {
        let mv = self.peek_move();
        if self.gap == 0 {
            self.gap = self.n;
            self.start = (self.start + 1) % self.n;
        } else {
            self.gap -= 1;
        }
        self.moves += 1;
        mv
    }

    /// Notes one demand write; every ψ-th returns the gap move to
    /// perform.
    pub fn note_write(&mut self) -> Option<GapMove> {
        self.writes += 1;
        if self.writes >= self.psi {
            self.writes = 0;
            Some(self.advance_gap())
        } else {
            None
        }
    }
}

/// The controller's logical → physical line mapping: one Start-Gap
/// region per bank over all its lines but the last, which is the spare
/// slot, or the identity when wear levelling is off.
#[derive(Debug, Clone)]
pub(crate) struct LineMap {
    banks: usize,
    regions: Option<Vec<StartGap>>,
}

impl LineMap {
    /// The mapping for `geometry`, moving each bank's gap every `psi`
    /// demand writes (`None`: no wear levelling).
    pub(crate) fn new(geometry: &MemGeometry, psi: Option<u32>) -> LineMap {
        let banks = usize::from(geometry.banks());
        LineMap {
            banks,
            regions: psi.map(|psi| {
                // n logical lines, n + 1 physical slots.
                let n = u64::from(geometry.rows_per_bank()) * LINES_PER_ROW as u64 - 1;
                (0..banks).map(|_| StartGap::new(n, psi)).collect()
            }),
        }
    }

    /// Applies the bank's mapping to a demand request, rejecting
    /// ratio/spare-line violations: Start-Gap composes only with the
    /// (1:1) allocator.
    pub(crate) fn remap_start_gap(&self, access: Access) -> Result<Access, CtrlError> {
        if self.regions.is_some() && access.ratio != NmRatio::one_one() {
            return Err(CtrlError::StartGapRatio {
                ratio: access.ratio,
            });
        }
        Ok(Access {
            addr: self.try_remap_addr(access.addr)?,
            ..access
        })
    }

    /// Logical → physical line address under the bank's mapping.
    /// Rejects out-of-range banks and the spare line.
    pub(crate) fn try_remap_addr(&self, addr: LineAddr) -> Result<LineAddr, CtrlError> {
        if usize::from(addr.bank.0) >= self.banks {
            return Err(CtrlError::BankOutOfRange {
                bank: addr.bank.0,
                banks: self.banks,
            });
        }
        let Some(regions) = &self.regions else {
            return Ok(addr);
        };
        let la = u64::from(addr.row.0) * LINES_PER_ROW as u64 + u64::from(addr.slot);
        let sg = &regions[usize::from(addr.bank.0)];
        if la >= sg.logical_lines() {
            // The last line of each bank is Start-Gap's spare slot.
            return Err(CtrlError::SpareLineAccess { addr });
        }
        Ok(slot_addr(addr.bank, sg.map(la)))
    }

    /// Counts a demand write against `bank`'s gap schedule; every ψ-th
    /// moves the gap and returns the copy to perform, `(from, to)` as
    /// physical line addresses. The mapping reflects the move at once.
    pub(crate) fn note_write(&mut self, bank: usize) -> Option<(LineAddr, LineAddr)> {
        let mv = self.regions.as_mut()?[bank].note_write()?;
        let bank = BankId(bank as u16);
        Some((slot_addr(bank, mv.from), slot_addr(bank, mv.to)))
    }
}

/// The line address of physical slot `p` of `bank`.
fn slot_addr(bank: BankId, p: u64) -> LineAddr {
    let lines_per_row = LINES_PER_ROW as u64;
    LineAddr {
        bank,
        row: RowId((p / lines_per_row) as u32),
        slot: (p % lines_per_row) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use sdpcm_engine::Cycle;
    use sdpcm_pcm::line::LineBuf;

    use crate::ctrl::testkit::*;
    use crate::scheme::CtrlScheme;

    /// Simulates the physical array to confirm mapping and copies agree.
    struct Sim {
        sg: StartGap,
        slots: Vec<Option<u64>>, // physical slot -> logical line stored
    }

    impl Sim {
        fn new(n: u64, psi: u32) -> Sim {
            let sg = StartGap::new(n, psi);
            let mut slots = vec![None; (n + 1) as usize];
            for la in 0..n {
                slots[sg.map(la) as usize] = Some(la);
            }
            Sim { sg, slots }
        }

        fn step(&mut self) {
            let mv = self.sg.advance_gap();
            let moved = self.slots[mv.from as usize].take();
            assert!(moved.is_some(), "gap move from an empty slot");
            assert!(
                self.slots[mv.to as usize].is_none(),
                "gap move into an occupied slot"
            );
            self.slots[mv.to as usize] = moved;
        }

        fn verify(&self) {
            for la in 0..self.sg.logical_lines() {
                let pa = self.sg.map(la);
                assert_eq!(
                    self.slots[pa as usize],
                    Some(la),
                    "line {la} mapped to slot {pa} after {} moves",
                    self.sg.moves()
                );
            }
        }
    }

    #[test]
    fn identity_before_first_move() {
        let sg = StartGap::new(16, 4);
        for la in 0..16 {
            assert_eq!(sg.map(la), la);
        }
    }

    #[test]
    fn mapping_is_injective_forever() {
        let mut sg = StartGap::new(7, 1);
        for _ in 0..200 {
            let mapped: HashSet<u64> = (0..7).map(|la| sg.map(la)).collect();
            assert_eq!(mapped.len(), 7, "mapping collision");
            assert!(mapped.iter().all(|&p| p <= 7), "slot out of range");
            let _ = sg.advance_gap();
        }
    }

    #[test]
    fn copies_track_the_mapping_exactly() {
        // The load-bearing invariant: after every move, the data the
        // copies produced sits where the mapping points.
        for n in [2u64, 3, 5, 8, 64] {
            let mut sim = Sim::new(n, 1);
            sim.verify();
            for _ in 0..(3 * (n + 1) * n) {
                sim.step();
                sim.verify();
            }
        }
    }

    #[test]
    fn every_line_visits_every_slot() {
        // Full wear levelling: over enough moves, each logical line
        // occupies each physical slot at least once.
        let n = 6u64;
        let mut sim = Sim::new(n, 1);
        let mut visited: Vec<HashSet<u64>> = vec![HashSet::new(); n as usize];
        for _ in 0..((n + 1) * n * 2) {
            sim.step();
            for la in 0..n {
                visited[la as usize].insert(sim.sg.map(la));
            }
        }
        for (la, slots) in visited.iter().enumerate() {
            assert_eq!(
                slots.len(),
                (n + 1) as usize,
                "line {la} visited only {:?}",
                slots
            );
        }
    }

    #[test]
    fn note_write_fires_every_psi() {
        let mut sg = StartGap::new(8, 3);
        let mut moves = 0;
        for i in 1..=30 {
            if sg.note_write().is_some() {
                moves += 1;
                assert_eq!(i % 3, 0, "move off schedule at write {i}");
            }
        }
        assert_eq!(moves, 10);
        assert_eq!(sg.moves(), 10);
    }

    #[test]
    fn peek_matches_advance() {
        let mut sg = StartGap::new(5, 1);
        for _ in 0..40 {
            let peek = sg.peek_move();
            assert_eq!(sg.advance_gap(), peek);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_line_panics() {
        let _ = StartGap::new(4, 1).map(4);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_region_panics() {
        let _ = StartGap::new(1, 1);
    }

    #[test]
    fn start_gap_preserves_data_across_moves() {
        // psi=1: every write moves the gap; data must stay readable at
        // its logical address through many full rotations.
        let mut c = ctrl(CtrlScheme::din().with_start_gap(1));
        let mut expected = Vec::new();
        for i in 0..40u64 {
            let a = line(2, (i % 10) as u32, (i % 3) as u8);
            let data = patterned(1000 + i);
            let t = Cycle(i * 100_000);
            c.submit(write(i, a, data, t), t).unwrap();
            let _ = run_until_idle(&mut c);
            expected.retain(|(prev, _): &(LineAddr, LineBuf)| *prev != a);
            expected.push((a, data));
        }
        assert!(c.stats().gap_moves.get() >= 40);
        for (a, data) in expected {
            assert_eq!(c.architectural_logical(a), data, "line {a} lost");
            // Reads also return the right data.
            c.submit(
                read(10_000 + u64::from(a.row.0), a, Cycle(1 << 40)),
                Cycle(1 << 40),
            )
            .unwrap();
            let done = run_until_idle(&mut c);
            assert_eq!(done.last().unwrap().data, Some(data));
        }
    }

    #[test]
    fn start_gap_actually_remaps() {
        let mut c = ctrl(CtrlScheme::din().with_start_gap(1));
        let a = line(0, 5, 0);
        // After enough writes the physical location of `a` must differ
        // from its logical one.
        for i in 0..200u64 {
            let t = Cycle(i * 100_000);
            c.submit(write(i, a, patterned(i), t), t).unwrap();
            let _ = run_until_idle(&mut c);
        }
        // The logical view tracks the data regardless.
        assert_eq!(c.architectural_logical(a), patterned(199));
        assert!(c.stats().gap_moves.get() >= 200);
    }

    #[test]
    fn start_gap_rejects_nm_ratios() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_start_gap(8));
        let a = Access {
            ratio: NmRatio::one_two(),
            ..write(1, line(0, 2, 0), patterned(1), Cycle(0))
        };
        assert!(matches!(
            c.submit(a, Cycle(0)),
            Err(CtrlError::StartGapRatio { .. })
        ));
    }
}
