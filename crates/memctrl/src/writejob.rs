//! The multi-phase write state machine.
//!
//! A demand write on super dense PCM is a *sequence* of bank operations
//! (paper §3.2 / §6.8): up to two pre-write reads, the array write, the
//! DIN word-line check of the written line (plus fix-ups), up to two
//! post-write verification reads, ECP record writes or correction writes,
//! and — when corrections disturb further lines — cascading verification
//! reads. All of them occupy the same bank (the adjacent rows live
//! there), so the job executes its steps serially; reads to the bank wait
//! unless write cancellation is enabled and the job has not committed.
//!
//! This module holds the job's data and its initial step list; the
//! private `program` module runs the steps on a bank lane, where the
//! device state is accessible.

use std::collections::VecDeque;

use sdpcm_pcm::geometry::LineAddr;
use sdpcm_pcm::line::{DiffMask, LineBuf};
use sdpcm_wd::din::DinFlags;

use crate::req::Access;

/// Which bit-line neighbour of the written line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Row above (`row − 1`).
    Up,
    /// Row below (`row + 1`).
    Down,
}

impl Side {
    /// Both sides, fixed order.
    pub const BOTH: [Side; 2] = [Side::Up, Side::Down];

    /// Index into two-element side arrays.
    #[must_use]
    pub fn idx(self) -> usize {
        match self {
            Side::Up => 0,
            Side::Down => 1,
        }
    }
}

/// One bank occupancy of a write job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Pre-write read of an adjacent line (skipped when PreRead already
    /// buffered it).
    PreRead(Side),
    /// The differential array write of the demand data.
    ArrayWrite,
    /// Post-write read of the written line (word-line error check).
    OwnVerify,
    /// RESET rewrite of word-line-disturbed cells in the written line.
    OwnFix,
    /// Post-write verification read of an adjacent line.
    PostRead(Side),
    /// Verification read of a line reached by cascading verification.
    CascadeVerify(LineAddr),
    /// Write of buffered-WD records into the (low-density) ECP chip.
    EcpWrite {
        /// The line whose ECP table receives the records.
        line: LineAddr,
        /// Disturbed cells to record (their correct value is always `0`:
        /// WD only crystallizes amorphous cells).
        cells: Vec<u16>,
    },
    /// Correction write: RESET the listed cells of `line`.
    Correction {
        /// The line being corrected.
        line: LineAddr,
        /// Cells to RESET back to `0`.
        cells: Vec<u16>,
    },
}

impl Step {
    /// Whether this step occurs before the array write commits — the
    /// window in which write cancellation may abort the job.
    #[must_use]
    pub fn pre_commit(&self) -> bool {
        matches!(self, Step::PreRead(_) | Step::ArrayWrite)
    }
}

/// An entry of the write queue, with the PreRead enhancement bits
/// (Figure 8: two flag bits + two 64 B buffers per entry).
#[derive(Debug, Clone)]
pub struct WqEntry {
    /// The demand write.
    pub access: Access,
    /// PreRead flag bits: pre-write read done for up/down.
    pub pr_done: [bool; 2],
    /// The buffered old data of the adjacent lines.
    pub pr_buf: [Option<LineBuf>; 2],
    /// Which neighbours may need verification, fixed when the write is
    /// queued: the scheme's VnC switch, the (n:m) policy for the line's
    /// strip, and whether the neighbour exists. Decommissioning can
    /// only remove a need later, never add one, so this is a superset
    /// of the live need and lets the idle-slot PreRead search skip
    /// entries without re-deriving it.
    pub need: [bool; 2],
}

impl WqEntry {
    /// Wraps a demand write with cleared PreRead state and its static
    /// verification need.
    #[must_use]
    pub fn new(access: Access, need: [bool; 2]) -> WqEntry {
        WqEntry {
            access,
            pr_done: [false; 2],
            pr_buf: [None; 2],
            need,
        }
    }

    /// Whether a side the static need covers still lacks its pre-read.
    #[inline]
    #[must_use]
    pub fn preread_open(&self) -> bool {
        (self.need[0] && !self.pr_done[0]) || (self.need[1] && !self.pr_done[1])
    }
}

/// Safety cap on steps executed by one job. Cascades decay
/// geometrically, so reaching this indicates a modelling bug; the
/// controller counts it and presses on.
pub const MAX_JOB_STEPS: u32 = 1_000;

/// The in-flight write job.
#[derive(Debug, Clone)]
pub struct WriteJob {
    /// The originating queue entry (returned to the queue on cancel).
    pub entry: WqEntry,
    /// Remaining steps, front first.
    pub steps: VecDeque<Step>,
    /// Whether the array write has committed (cancellation forbidden
    /// after this).
    pub committed: bool,
    /// The diff computed for the array write (held between phase start
    /// and completion).
    pub diff: Option<DiffMask>,
    /// Encoded data to store at commit.
    pub encoded: Option<LineBuf>,
    /// DIN flags of the encoded data, installed at commit.
    pub new_flags: DinFlags,
    /// Pending word-line errors of the written line awaiting OwnFix.
    pub pending_wl: Vec<u16>,
    /// Bit-line errors injected into each neighbour, awaiting its
    /// verification read.
    pub injected: [Vec<u16>; 2],
    /// Errors injected into lines reached by cascading corrections,
    /// awaiting their CascadeVerify.
    pub cascade_pending: Vec<(LineAddr, Vec<u16>)>,
    /// Steps executed so far (safety cap).
    pub steps_done: u32,
}

impl WriteJob {
    /// Builds the initial step program for a write with the given
    /// verification needs.
    #[must_use]
    pub fn new(entry: WqEntry, need_up: bool, need_down: bool, own_verify: bool) -> WriteJob {
        let mut steps = VecDeque::new();
        if need_up && !entry.pr_done[Side::Up.idx()] {
            steps.push_back(Step::PreRead(Side::Up));
        }
        if need_down && !entry.pr_done[Side::Down.idx()] {
            steps.push_back(Step::PreRead(Side::Down));
        }
        steps.push_back(Step::ArrayWrite);
        if own_verify {
            steps.push_back(Step::OwnVerify);
        }
        if need_up {
            steps.push_back(Step::PostRead(Side::Up));
        }
        if need_down {
            steps.push_back(Step::PostRead(Side::Down));
        }
        WriteJob {
            entry,
            steps,
            committed: false,
            diff: None,
            encoded: None,
            new_flags: DinFlags::default(),
            pending_wl: Vec::new(),
            injected: [Vec::new(), Vec::new()],
            cascade_pending: Vec::new(),
            steps_done: 0,
        }
    }

    /// Adds injected errors for a cascade-verified line, merging with an
    /// existing pending entry for the same line.
    pub fn add_cascade(&mut self, line: LineAddr, mut bits: Vec<u16>) {
        if let Some((_, existing)) = self.cascade_pending.iter_mut().find(|(l, _)| *l == line) {
            existing.append(&mut bits);
        } else {
            self.cascade_pending.push((line, bits));
        }
    }

    /// Removes and returns the injected errors pending for `line`.
    #[must_use]
    pub fn take_cascade(&mut self, line: LineAddr) -> Vec<u16> {
        if let Some(pos) = self.cascade_pending.iter().position(|(l, _)| *l == line) {
            self.cascade_pending.remove(pos).1
        } else {
            Vec::new()
        }
    }

    /// Whether a CascadeVerify step for `line` is already queued.
    #[must_use]
    pub fn has_cascade_step(&self, line: LineAddr) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, Step::CascadeVerify(l) if *l == line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpcm_engine::Cycle;
    use sdpcm_osalloc::NmRatio;
    use sdpcm_pcm::geometry::{BankId, RowId};
    use sdpcm_pcm::line::LineBuf;

    use crate::req::{AccessKind, ReqId};

    fn entry() -> WqEntry {
        WqEntry::new(
            Access {
                id: ReqId(1),
                addr: LineAddr {
                    bank: BankId(0),
                    row: RowId(5),
                    slot: 3,
                },
                kind: AccessKind::Write(LineBuf::zeroed()),
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: Cycle(0),
            },
            [true, true],
        )
    }

    fn line(row: u32) -> LineAddr {
        LineAddr {
            bank: BankId(0),
            row: RowId(row),
            slot: 3,
        }
    }

    #[test]
    fn full_program_when_both_needed() {
        let job = WriteJob::new(entry(), true, true, true);
        let steps: Vec<Step> = job.steps.iter().cloned().collect();
        assert_eq!(
            steps,
            vec![
                Step::PreRead(Side::Up),
                Step::PreRead(Side::Down),
                Step::ArrayWrite,
                Step::OwnVerify,
                Step::PostRead(Side::Up),
                Step::PostRead(Side::Down),
            ]
        );
    }

    #[test]
    fn prereads_skipped_when_buffered() {
        let mut e = entry();
        e.pr_done = [true, false];
        let job = WriteJob::new(e, true, true, false);
        let steps: Vec<Step> = job.steps.iter().cloned().collect();
        assert_eq!(
            steps,
            vec![
                Step::PreRead(Side::Down),
                Step::ArrayWrite,
                Step::PostRead(Side::Up),
                Step::PostRead(Side::Down),
            ]
        );
    }

    #[test]
    fn no_vnc_program_is_write_only() {
        let job = WriteJob::new(entry(), false, false, false);
        let steps: Vec<Step> = job.steps.iter().cloned().collect();
        assert_eq!(steps, vec![Step::ArrayWrite]);
    }

    #[test]
    fn pre_commit_classification() {
        assert!(Step::PreRead(Side::Up).pre_commit());
        assert!(Step::ArrayWrite.pre_commit());
        assert!(!Step::OwnVerify.pre_commit());
        assert!(!Step::PostRead(Side::Down).pre_commit());
        assert!(!Step::Correction {
            line: line(4),
            cells: vec![]
        }
        .pre_commit());
    }

    #[test]
    fn cascade_merge_and_take() {
        let mut job = WriteJob::new(entry(), true, true, true);
        job.add_cascade(line(4), vec![1, 2]);
        job.add_cascade(line(4), vec![3]);
        job.add_cascade(line(6), vec![9]);
        assert_eq!(job.take_cascade(line(4)), vec![1, 2, 3]);
        assert_eq!(job.take_cascade(line(4)), Vec::<u16>::new());
        assert_eq!(job.take_cascade(line(6)), vec![9]);
    }

    #[test]
    fn cascade_step_detection() {
        let mut job = WriteJob::new(entry(), false, false, false);
        assert!(!job.has_cascade_step(line(7)));
        job.steps.push_back(Step::CascadeVerify(line(7)));
        assert!(job.has_cascade_step(line(7)));
    }
}
