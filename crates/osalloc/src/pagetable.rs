//! Per-process page tables carrying the allocator tag (paper Figure 9).
//!
//! Each process (core) has a page table mapping virtual pages to physical
//! frames. SD-PCM adds a 4-bit **(n:m) allocator tag** to every entry;
//! a translation returns the tag with the physical frame, and the tag
//! travels with the request to the memory controller, which uses it to
//! decide which adjacent lines need verification. Translation is
//! functional: the paper treats its latency as part of the core
//! pipeline.

use std::collections::HashMap;

use crate::nm::NmRatio;

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteEntry {
    /// Physical frame number.
    pub frame: u64,
    /// The allocator this page came from.
    pub ratio: NmRatio,
}

/// A per-process page table with allocator tags.
///
/// # Examples
///
/// ```
/// use sdpcm_osalloc::{NmRatio, PageTable};
///
/// let mut pt = PageTable::new();
/// pt.map(0, 42, NmRatio::two_three());
/// let e = pt.translate(0).unwrap();
/// assert_eq!(e.frame, 42);
/// assert_eq!(e.ratio, NmRatio::two_three());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: HashMap<u64, PteEntry>,
}

impl PageTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps `vpage` to `frame` with the given allocator tag.
    ///
    /// # Panics
    ///
    /// Panics if the virtual page is already mapped.
    pub fn map(&mut self, vpage: u64, frame: u64, ratio: NmRatio) {
        let prev = self.entries.insert(vpage, PteEntry { frame, ratio });
        assert!(prev.is_none(), "virtual page {vpage} double mapped");
    }

    /// Looks up a virtual page.
    #[must_use]
    pub fn translate(&self, vpage: u64) -> Option<PteEntry> {
        self.entries.get(&vpage).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate() {
        let mut pt = PageTable::new();
        pt.map(5, 99, NmRatio::one_two());
        let e = pt.translate(5).unwrap();
        assert_eq!(e.frame, 99);
        assert_eq!(e.ratio, NmRatio::one_two());
        assert!(pt.translate(6).is_none());
    }

    #[test]
    #[should_panic(expected = "double mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(1, 2, NmRatio::one_one());
        pt.map(1, 3, NmRatio::one_one());
    }
}
