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
    /// read it while the write was queued).
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

/// An entry of the write queue, with the PreRead flag bits.
///
/// Figure 8 gives each entry two flag bits and two 64 B buffers for the
/// neighbours' pre-write contents. Only the flags are modelled, with the
/// bank time the reads take: verification compares each neighbour
/// against the victims the write's injection recorded, so the buffered
/// contents would never be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WqEntry {
    /// The demand write.
    pub access: Access,
    /// PreRead flag bits: pre-write read done for up/down.
    pub pr_done: [bool; 2],
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
///
/// A bank lane keeps a finished job as a spare and [`WriteJob::reset`]s
/// it for its next write, so the job and its buffers are allocated once
/// per bank rather than once per write.
#[derive(Debug, Clone, PartialEq)]
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
        let mut job = WriteJob {
            entry,
            steps: VecDeque::new(),
            committed: false,
            diff: None,
            encoded: None,
            new_flags: DinFlags::default(),
            pending_wl: Vec::new(),
            injected: [Vec::new(), Vec::new()],
            cascade_pending: Vec::new(),
            steps_done: 0,
        };
        job.reset(entry, need_up, need_down, own_verify);
        job
    }

    /// Turns this job, whatever state it is in, into
    /// `WriteJob::new(entry, need_up, need_down, own_verify)`, keeping
    /// the capacity of its step and victim buffers.
    pub fn reset(&mut self, entry: WqEntry, need_up: bool, need_down: bool, own_verify: bool) {
        let steps = &mut self.steps;
        steps.clear();
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
        self.entry = entry;
        self.committed = false;
        self.diff = None;
        self.encoded = None;
        self.new_flags = DinFlags::default();
        self.pending_wl.clear();
        for victims in &mut self.injected {
            victims.clear();
        }
        self.cascade_pending.clear();
        self.steps_done = 0;
    }

    /// Adds injected errors for a cascade-verified line, merging with an
    /// existing pending entry for the same line.
    pub fn add_cascade(&mut self, line: LineAddr, bits: &[u16]) {
        if let Some((_, existing)) = self.cascade_pending.iter_mut().find(|(l, _)| *l == line) {
            existing.extend_from_slice(bits);
        } else {
            self.cascade_pending.push((line, bits.to_vec()));
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
    fn prereads_skipped_when_already_done() {
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
        job.add_cascade(line(4), &[1, 2]);
        job.add_cascade(line(4), &[3]);
        job.add_cascade(line(6), &[9]);
        assert_eq!(job.take_cascade(line(4)), vec![1, 2, 3]);
        assert_eq!(job.take_cascade(line(4)), Vec::<u16>::new());
        assert_eq!(job.take_cascade(line(6)), vec![9]);
    }

    #[test]
    fn a_reset_job_equals_a_new_one() {
        // Every field a run of the program can leave behind: own-line
        // fixes, corrections, ECP records and cascades, all committed.
        let dirty = || {
            let mut job = WriteJob::new(entry(), true, true, true);
            job.steps.clear();
            job.steps.push_back(Step::OwnFix);
            job.steps.push_back(Step::Correction {
                line: line(4),
                cells: vec![1, 2],
            });
            job.steps.push_back(Step::EcpWrite {
                line: line(6),
                cells: vec![3],
            });
            job.steps.push_back(Step::CascadeVerify(line(7)));
            job.committed = true;
            job.diff = Some(DiffMask::reset_only_cells(&[5, 9]));
            job.encoded = Some(LineBuf::from_words([u64::MAX; 8]));
            job.new_flags = DinFlags(0b1011);
            job.pending_wl.extend_from_slice(&[11, 12]);
            job.injected[0].extend_from_slice(&[13]);
            job.injected[1].extend_from_slice(&[14, 15]);
            job.add_cascade(line(7), &[16]);
            job.add_cascade(line(8), &[17, 18]);
            job.steps_done = 9;
            job
        };
        for bits in 0..32u32 {
            let bit = |i: u32| bits >> i & 1 == 1;
            let mut e = entry();
            e.pr_done = [bit(0), bit(1)];
            let (need_up, need_down, own_verify) = (bit(2), bit(3), bit(4));
            let fresh = WriteJob::new(e, need_up, need_down, own_verify);
            let mut job = dirty();
            job.reset(e, need_up, need_down, own_verify);
            assert_eq!(
                job, fresh,
                "pr_done {:?}, need ({need_up}, {need_down}), own {own_verify}",
                e.pr_done
            );
            // Resetting twice, as recycling does, changes nothing more.
            job.reset(e, need_up, need_down, own_verify);
            assert_eq!(job, fresh);
        }
    }

    #[test]
    fn cascade_step_detection() {
        let mut job = WriteJob::new(entry(), false, false, false);
        assert!(!job.has_cascade_step(line(7)));
        job.steps.push_back(Step::CascadeVerify(line(7)));
        assert!(job.has_cascade_step(line(7)));
    }
}
