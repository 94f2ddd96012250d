//! One bank's queues and the operation it is busy with.
//!
//! A bank holds a FIFO read queue, a write queue, at most one operation
//! in flight and at most one paused write job. The write queue carries
//! three derived views that replace full-queue scans on the hot path: an
//! address index (is this line queued?), the count of entries whose
//! PreRead is still open, and a position before which none is. Every
//! push and pop goes through [`Bank::wq_push`] / [`Bank::wq_remove`],
//! which keep all three in step; [`Bank::check_wq_index`] rechecks them
//! for the randomized audit.

use std::collections::VecDeque;

use sdpcm_engine::hash::FxHashMap;
use sdpcm_engine::Cycle;
use sdpcm_pcm::geometry::LineAddr;
use sdpcm_pcm::line::LineBuf;

use crate::req::Access;
use crate::writejob::{Side, WqEntry, WriteJob};

/// What a bank is busy with.
#[derive(Debug)]
pub(crate) enum BankOp {
    Read(Access),
    /// A pre-read of `side` for the queued write at `pos` in the write
    /// queue, to `write_line`. The position holds until it completes:
    /// while the bank is busy, writes only join the back of the queue.
    IdlePreRead {
        pos: usize,
        write_line: LineAddr,
        side: Side,
    },
    Write(Box<WriteJob>),
}

#[derive(Debug, Default)]
pub(crate) struct Bank {
    pub(crate) busy_until: Cycle,
    pub(crate) op: Option<BankOp>,
    /// A write job set aside between phases to serve reads (write
    /// pausing); resumed when the read queue empties.
    pub(crate) paused: Option<Box<WriteJob>>,
    pub(crate) read_q: VecDeque<Access>,
    pub(crate) write_q: VecDeque<WqEntry>,
    /// Per-address entry count for `write_q` — the membership index that
    /// answers the hot path's "is this line queued?" in O(1) instead of a
    /// linear scan. A *count* rather than a set: coalescing keeps demand
    /// writes unique, but a cancelled write is pushed back at the front
    /// while a later write to the same line may already have queued
    /// behind it, so an address can transiently hold two entries.
    wq_index: FxHashMap<LineAddr, u32>,
    /// Entries of `write_q` whose static need still lacks a pre-read
    /// ([`WqEntry::preread_open`]); the idle-slot PreRead search walks
    /// the queue only while this is nonzero.
    pr_open: usize,
    /// No entry of `write_q` before this position has a pre-read open,
    /// so the idle-slot search starts here. A lower bound: entries only
    /// ever close, so it moves back only when one is removed before it
    /// or an open one goes back at the front.
    pr_first: usize,
    pub(crate) draining: bool,
    /// Writes left in the current burst.
    pub(crate) drain_left: usize,
    /// End-of-run flush: drain to empty, ignoring the burst bound.
    pub(crate) flushing: bool,
}

impl Bank {
    /// Whether any queued write targets `addr` (O(1) index probe). The
    /// scans that need the entry itself still walk the queue, but only
    /// after this says there is something to find.
    #[inline]
    pub(crate) fn wq_contains(&self, addr: LineAddr) -> bool {
        !self.wq_index.is_empty() && self.wq_index.contains_key(&addr)
    }

    /// Data of the newest queued write to `addr`, if any.
    pub(crate) fn queued_data(&self, addr: LineAddr) -> Option<LineBuf> {
        if !self.wq_contains(addr) {
            return None;
        }
        let e = self.write_q.iter().rev().find(|e| e.access.addr == addr)?;
        e.access.kind.write_data()
    }

    /// The data a read of `addr` must observe instead of the array: the
    /// newest queued write, else the write job in flight, else the
    /// paused one. Jobs whose array write already committed count only
    /// when `committed_too` is set.
    pub(crate) fn pending_data(&self, addr: LineAddr, committed_too: bool) -> Option<LineBuf> {
        let in_flight = match &self.op {
            Some(BankOp::Write(job)) => Some(job),
            _ => None,
        };
        self.queued_data(addr).or_else(|| {
            [in_flight, self.paused.as_ref()]
                .into_iter()
                .flatten()
                .find(|job| job.entry.access.addr == addr && (committed_too || !job.committed))
                .and_then(|job| job.entry.access.kind.write_data())
        })
    }

    /// Whether some queued write still lacks a needed pre-read.
    #[inline]
    pub(crate) fn prereads_open(&self) -> bool {
        self.pr_open > 0
    }

    /// Queues `entry` at the back (a new write) or the front (a
    /// cancelled one going back), keeping the derived views in step.
    pub(crate) fn wq_push(&mut self, entry: WqEntry, front: bool) {
        *self.wq_index.entry(entry.access.addr).or_insert(0) += 1;
        let open = entry.preread_open();
        self.pr_open += usize::from(open);
        if front {
            self.pr_first = if open { 0 } else { self.pr_first + 1 };
            self.write_q.push_front(entry);
        } else {
            self.write_q.push_back(entry);
        }
    }

    /// Removes the entry at `pos` (0 pops the oldest), keeping the
    /// derived views in step.
    pub(crate) fn wq_remove(&mut self, pos: usize) -> Option<WqEntry> {
        let entry = self.write_q.remove(pos)?;
        let addr = entry.access.addr;
        match self.wq_index.get_mut(&addr) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.wq_index.remove(&addr);
            }
            None => debug_assert!(false, "write-queue index lost {addr}"),
        }
        self.pr_open -= usize::from(entry.preread_open());
        if pos < self.pr_first {
            self.pr_first -= 1;
        }
        Some(entry)
    }

    /// The position of the oldest queued write with a pre-read open, or
    /// the queue's length if none is. The next search starts there.
    pub(crate) fn first_open_preread(&mut self) -> usize {
        let skip = self
            .write_q
            .iter()
            .skip(self.pr_first)
            .position(WqEntry::preread_open);
        self.pr_first = skip.map_or(self.write_q.len(), |n| self.pr_first + n);
        self.pr_first
    }

    /// Marks an idle-slot pre-read of `side` done in the queued write at
    /// `pos` it was issued for. (A search by `addr` could find a cancelled
    /// write back at the front, its pre-reads done, ahead of a later
    /// write to its line.)
    pub(crate) fn wq_preread_done(&mut self, pos: usize, addr: LineAddr, side: Side) {
        let s = side.idx();
        let issued_for = |e: &WqEntry| e.access.addr == addr && e.need[s] && !e.pr_done[s];
        let Some(e) = self.write_q.get_mut(pos).filter(|e| issued_for(e)) else {
            debug_assert!(false, "idle pre-read lost its entry at {pos}");
            return;
        };
        // The entry was open on `side`; it closes once no side is.
        e.pr_done[s] = true;
        self.pr_open -= usize::from(!e.preread_open());
    }

    /// Compares the address index and the open pre-read count with an
    /// exact linear recount of the queue, and checks that no open
    /// pre-read sits before the search start.
    pub(crate) fn check_wq_index(&self) -> Result<(), String> {
        let mut recount: FxHashMap<LineAddr, u32> = FxHashMap::default();
        for e in &self.write_q {
            *recount.entry(e.access.addr).or_insert(0) += 1;
        }
        if recount != self.wq_index {
            return Err(format!(
                "wq_index {:?} != linear recount {:?}",
                self.wq_index, recount
            ));
        }
        let open = self.write_q.iter().filter(|e| e.preread_open()).count();
        if open != self.pr_open {
            return Err(format!("pr_open {} != linear recount {open}", self.pr_open));
        }
        let first = self.write_q.iter().position(WqEntry::preread_open);
        if self.pr_first > first.unwrap_or(self.write_q.len()) {
            return Err(format!(
                "pr_first {} is past the first open pre-read {first:?}",
                self.pr_first
            ));
        }
        Ok(())
    }
}
