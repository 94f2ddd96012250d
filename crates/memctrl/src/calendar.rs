//! The controller's two calendars: when each occupied bank's operation
//! completes, and when each queued completion is due.
//!
//! The controller completes bank operations in global `(busy_until,
//! bank)` order. The bank calendar answers "which operation is next?" without
//! visiting the banks themselves: it holds one `busy_until` per bank in a
//! dense array (`Cycle::MAX` marks an idle bank) and keeps the earliest
//! `(at, bank)` entry cached. Setting a bank's entry is O(1) except when
//! the head bank moves later, which rescans the array — a handful of
//! contiguous words, not the per-bank queues.
//!
//! The controller writes the bank calendar at exactly one point, the
//! exit of its per-bank lane view, because every change to a bank's
//! operation or `busy_until` happens inside a lane.
//!
//! Completions wait in [`DueQueue`], which pops in `(at, id)` order but
//! keeps reads apart from writes, so the earliest *read* completion —
//! the only completion a core can observe — is a peek, not a search.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use sdpcm_engine::Cycle;

use crate::req::{Completion, ReqId};

/// Per-bank completion times of in-flight operations, earliest cached.
#[derive(Debug, Clone)]
pub(crate) struct BankCalendar {
    /// `busy_until` of each bank's operation; `Cycle::MAX` = idle.
    at: Vec<Cycle>,
    /// The earliest `(at, bank)` among occupied banks; ties go to the
    /// lowest bank. `None` when every bank is idle.
    head: Option<(Cycle, usize)>,
}

impl BankCalendar {
    /// A calendar over `banks` idle banks.
    pub(crate) fn new(banks: usize) -> BankCalendar {
        BankCalendar {
            at: vec![Cycle::MAX; banks],
            head: None,
        }
    }

    /// The next operation to complete: `(busy_until, bank)`.
    #[inline]
    pub(crate) fn head(&self) -> Option<(Cycle, usize)> {
        self.head
    }

    /// Records that `bank`'s operation completes at `at` (`None`: the
    /// bank is idle).
    #[inline]
    pub(crate) fn set(&mut self, bank: usize, at: Option<Cycle>) {
        let at = at.unwrap_or(Cycle::MAX);
        let old = std::mem::replace(&mut self.at[bank], at);
        if old == at {
            return;
        }
        match self.head {
            // The head bank moved later (or went idle): someone else may
            // now be first.
            Some((_, hb)) if hb == bank && at > old => self.rescan(),
            Some(head) if (at, bank) >= head => {}
            _ if at == Cycle::MAX => {}
            _ => self.head = Some((at, bank)),
        }
    }

    /// Recomputes the head from the per-bank array: one branch-free
    /// minimum over it (`min_by_key` keeps the first of equal keys, so
    /// ties go to the lowest bank), then one test for all-idle.
    fn rescan(&mut self) {
        self.head = self
            .at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &at)| at)
            .filter(|&(_, &at)| at != Cycle::MAX)
            .map(|(bank, &at)| (at, bank));
    }
}

/// A queued completion, ordered so a max-heap pops the earliest
/// `(at, id)` first.
struct Due(Completion);

impl Due {
    fn key(&self) -> (Cycle, ReqId) {
        (self.0.at, self.0.id)
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Due) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Due) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Due {
    fn eq(&self, other: &Due) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Due {}

/// Every queued completion, popped in `(at, id)` order across reads and
/// writes.
#[derive(Default)]
pub(crate) struct DueQueue {
    reads: BinaryHeap<Due>,
    writes: BinaryHeap<Due>,
}

impl DueQueue {
    /// Queues a completion.
    #[inline]
    pub(crate) fn push(&mut self, c: Completion) {
        if c.data.is_some() {
            self.reads.push(Due(c));
        } else {
            self.writes.push(Due(c));
        }
    }

    /// When the earliest queued read completes.
    #[inline]
    pub(crate) fn next_read(&self) -> Option<Cycle> {
        self.reads.peek().map(|d| d.0.at)
    }

    /// When the earliest queued completion of either kind is due.
    #[inline]
    pub(crate) fn next_due(&self) -> Option<Cycle> {
        let w = self.writes.peek().map(|d| d.0.at);
        match (self.next_read(), w) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }

    /// Removes the earliest completion if it is due by `now`.
    #[inline]
    pub(crate) fn pop_due(&mut self, now: Cycle) -> Option<Completion> {
        let heap = match (self.reads.peek(), self.writes.peek()) {
            (Some(r), Some(w)) if w.key() < r.key() => &mut self.writes,
            (Some(_), _) => &mut self.reads,
            (None, Some(_)) => &mut self.writes,
            (None, None) => return None,
        };
        let due = heap.peek_mut()?;
        if due.0.at > now {
            return None;
        }
        Some(PeekMut::pop(due).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference head: a full scan of the array.
    fn scan(c: &BankCalendar) -> Option<(Cycle, usize)> {
        c.at.iter()
            .enumerate()
            .filter(|&(_, &t)| t != Cycle::MAX)
            .map(|(b, &t)| (t, b))
            .min()
    }

    fn completion(id: u64, at: u64, write: bool) -> Completion {
        Completion {
            id: ReqId(id),
            core: 0,
            at: Cycle(at),
            data: (!write).then(sdpcm_pcm::line::LineBuf::zeroed),
        }
    }

    #[test]
    fn due_queue_merges_reads_and_writes_in_at_id_order() {
        let mut q = DueQueue::default();
        for (id, at, w) in [(5, 30, true), (2, 10, false), (9, 10, true), (1, 30, false)] {
            q.push(completion(id, at, w));
        }
        assert_eq!(q.next_read(), Some(Cycle(10)));
        assert_eq!(q.next_due(), Some(Cycle(10)));
        let mut order = Vec::new();
        while let Some(c) = q.pop_due(Cycle(20)) {
            order.push(c.id.0);
        }
        assert_eq!(order, [2, 9]);
        assert_eq!(q.next_read(), Some(Cycle(30)));
        while let Some(c) = q.pop_due(Cycle::MAX) {
            order.push(c.id.0);
        }
        assert_eq!(order, [2, 9, 1, 5]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn ties_go_to_the_lowest_bank() {
        let mut c = BankCalendar::new(4);
        c.set(3, Some(Cycle(10)));
        c.set(1, Some(Cycle(10)));
        c.set(2, Some(Cycle(10)));
        assert_eq!(c.head(), Some((Cycle(10), 1)));
        c.set(1, None);
        assert_eq!(c.head(), Some((Cycle(10), 2)));
        c.set(2, None);
        c.set(3, None);
        assert_eq!(c.head(), None);
    }

    #[test]
    fn rescan_breaks_ties_to_the_lowest_bank_and_sees_all_idle() {
        let mut c = BankCalendar::new(8);
        for bank in [6, 2, 5, 3] {
            c.set(bank, Some(Cycle(40)));
        }
        c.set(7, Some(Cycle(10)));
        assert_eq!(c.head(), Some((Cycle(10), 7)));
        // The head moves later: the rescan finds four banks tied at 40.
        c.set(7, Some(Cycle(90)));
        assert_eq!(c.head(), Some((Cycle(40), 2)));
        c.set(2, None);
        assert_eq!(c.head(), Some((Cycle(40), 3)));
        for bank in [3, 5, 6] {
            c.set(bank, None);
        }
        assert_eq!(c.head(), Some((Cycle(90), 7)));
        c.set(7, None);
        assert_eq!(c.head(), None, "every bank idle");
        c.rescan();
        assert_eq!(c.head(), None);
    }

    #[test]
    fn cached_head_matches_a_full_scan() {
        let mut c = BankCalendar::new(16);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let bank = (x % 16) as usize;
            let at = if x & 0x300 == 0 {
                None
            } else {
                Some(Cycle((x >> 20) % 64))
            };
            c.set(bank, at);
            assert_eq!(c.head(), scan(&c));
        }
    }
}
