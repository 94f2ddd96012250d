//! Error-Correcting Pointers (ECP) per memory line.
//!
//! ECP [Schechter et al., ISCA'10] pairs each 64 B line with `N` pointer
//! entries; each entry stores a 9-bit cell address plus the 1-bit correct
//! value (10 bits total). The original proposal targets *hard* (stuck-at)
//! errors. SD-PCM's **LazyCorrection** (§4.2) reuses spare entries to
//! buffer *write-disturbance* errors detected in adjacent lines, deferring
//! the expensive correction RESET until the entries run out:
//!
//! * hard errors always have allocation priority;
//! * WD errors fill whatever remains;
//! * a correction (or a normal write to the line) clears the WD entries —
//!   hard-error entries are permanent;
//! * if hard errors consume the entire table, the line falls back to the
//!   basic per-write VnC strategy.
//!
//! Reads of a line are patched with the recorded values, so a line whose
//! ECP entries cover all its outstanding errors is never observed in an
//! erroneous state.

use crate::line::{LineBuf, LINE_BITS};

#[cfg(test)]
mod oracle;

/// Default number of ECP entries per 64 B line (the paper's ECP-6).
pub const DEFAULT_ECP_ENTRIES: usize = 6;
/// Bits written into the ECP chip per recorded error: 9-bit cell address
/// + 1-bit value (paper §6.7).
pub const BITS_PER_ECP_RECORD: u64 = 10;

/// Why an ECP recording could not be performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcpError {
    /// Every entry is occupied and nothing can be displaced: the caller
    /// must fall back to an immediate correction (or retire the line).
    Exhausted {
        /// Table capacity (N in ECP-N).
        capacity: usize,
        /// Entries pinned by permanent hard errors.
        hard: usize,
    },
    /// The cell index does not address a cell of the line.
    BadCell {
        /// The rejected index.
        bit: u16,
    },
}

impl std::fmt::Display for EcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcpError::Exhausted { capacity, hard } => write!(
                f,
                "ECP table exhausted: all {capacity} entries in use ({hard} hard)"
            ),
            EcpError::BadCell { bit } => {
                write!(f, "cell index {bit} outside the line ({LINE_BITS} cells)")
            }
        }
    }
}

impl std::error::Error for EcpError {}

/// What an ECP entry protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EcpKind {
    /// Permanent stuck-at cell failure.
    Hard,
    /// Buffered write-disturbance error (LazyCorrection).
    Disturb,
}

/// One correction pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcpEntry {
    /// The failed/disturbed cell (`0..512`).
    pub bit: u16,
    /// The correct stored value of that cell.
    pub value: bool,
    /// Hard failure or buffered disturbance.
    pub kind: EcpKind,
}

/// Largest ECP table a line can have (N of ECP-N): room for the
/// figures' ECP-10 and the stress tests' ECP-0..8.
pub const MAX_ECP_ENTRIES: usize = 12;

/// Packed entry slot: the cell in bits 0–8, the correct value in bit 9,
/// the hard-error flag in bit 10.
const CELL_MASK: u16 = (1 << 9) - 1;
const VALUE_BIT: u16 = 1 << 9;
const HARD_BIT: u16 = 1 << 10;
const _: () = assert!(LINE_BITS - 1 <= CELL_MASK as usize);

fn pack(bit: u16, value: bool, kind: EcpKind) -> u16 {
    let mut slot = bit;
    if value {
        slot |= VALUE_BIT;
    }
    if kind == EcpKind::Hard {
        slot |= HARD_BIT;
    }
    slot
}

fn unpack(slot: u16) -> EcpEntry {
    EcpEntry {
        bit: slot & CELL_MASK,
        value: slot & VALUE_BIT != 0,
        kind: if slot & HARD_BIT != 0 {
            EcpKind::Hard
        } else {
            EcpKind::Disturb
        },
    }
}

/// The ECP table of one line.
///
/// An inline `Copy` value of 26 bytes: up to [`MAX_ECP_ENTRIES`] packed
/// 16-bit entries (the hardware's 10-bit pointer-plus-value, and the
/// hard flag the controller keeps beside it) in recording order, so a
/// line's table never touches the heap. Slots past the live entries
/// stay zero, which keeps the derived equality exact.
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::ecp::{EcpKind, EcpTable};
///
/// let mut t = EcpTable::new(6);
/// assert_eq!(t.free_slots(), 6);
/// assert!(t.try_record(3, false, EcpKind::Disturb));
/// assert_eq!(t.len(), 1);
/// t.clear_disturb();
/// assert_eq!(t.free_slots(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct EcpTable {
    slots: [u16; MAX_ECP_ENTRIES],
    len: u8,
    capacity: u8,
}

impl std::fmt::Debug for EcpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcpTable")
            .field("entries", &self.entries().collect::<Vec<_>>())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl EcpTable {
    /// Creates an empty table with room for `capacity` entries (ECP-N).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` exceeds [`MAX_ECP_ENTRIES`].
    #[must_use]
    pub fn new(capacity: usize) -> EcpTable {
        assert!(
            capacity <= MAX_ECP_ENTRIES,
            "ECP-{capacity} exceeds the {MAX_ECP_ENTRIES}-entry table"
        );
        EcpTable {
            slots: [0; MAX_ECP_ENTRIES],
            len: 0,
            capacity: capacity as u8,
        }
    }

    /// Total entry slots (N in ECP-N).
    #[must_use]
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }

    /// Occupied entry slots.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no entry is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Unused entry slots.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.capacity() - self.len()
    }

    fn live(&self) -> &[u16] {
        &self.slots[..self.len()]
    }

    /// Number of recorded hard errors.
    #[must_use]
    pub fn hard_count(&self) -> usize {
        self.live().iter().filter(|&&s| s & HARD_BIT != 0).count()
    }

    /// All current entries, in recording order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EcpEntry> + '_ {
        self.live().iter().map(|&s| unpack(s))
    }

    /// Records an error if a slot is free (or if the same cell is already
    /// recorded, in which case the entry is updated in place). Returns
    /// `false` when the table is full — the caller must fall back to an
    /// immediate correction.
    ///
    /// Hard errors may displace a buffered WD entry (hard errors have
    /// allocation priority, §4.2): the hard error takes the first
    /// disturbance's slot, in place, and the displaced disturbance then
    /// needs an immediate correction.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a valid cell index.
    pub fn try_record(&mut self, bit: u16, value: bool, kind: EcpKind) -> bool {
        assert!((bit as usize) < LINE_BITS, "cell index out of range");
        let len = self.len();
        if let Some(s) = self.slots[..len]
            .iter_mut()
            .find(|s| **s & CELL_MASK == bit)
        {
            // Same cell already pointed at: refresh value; hard status is
            // sticky (a disturbed reading of a stuck cell is still stuck).
            *s = pack(bit, value, kind) | (*s & HARD_BIT);
            return true;
        }
        if len < self.capacity() {
            self.slots[len] = pack(bit, value, kind);
            self.len += 1;
            return true;
        }
        if kind == EcpKind::Hard {
            // Displace one buffered disturbance in favour of the hard error.
            if let Some(s) = self.slots[..len].iter_mut().find(|s| **s & HARD_BIT == 0) {
                *s = pack(bit, value, kind);
                return true;
            }
        }
        false
    }

    /// [`EcpTable::try_record`] with a typed error instead of a boolean
    /// (and a `Result` for the bad-cell case rather than a panic): the
    /// memory controller's degradation ladder branches on the reason.
    pub fn record(&mut self, bit: u16, value: bool, kind: EcpKind) -> Result<(), EcpError> {
        if (bit as usize) >= LINE_BITS {
            return Err(EcpError::BadCell { bit });
        }
        if self.try_record(bit, value, kind) {
            Ok(())
        } else {
            Err(EcpError::Exhausted {
                capacity: self.capacity(),
                hard: self.hard_count(),
            })
        }
    }

    /// Removes all buffered WD entries (after a correction write or a
    /// normal write to the line) and returns how many were dropped. The
    /// hard-error entries keep their order.
    pub fn clear_disturb(&mut self) -> usize {
        let len = self.len();
        let mut kept = 0;
        for i in 0..len {
            let s = self.slots[i];
            if s & HARD_BIT != 0 {
                self.slots[kept] = s;
                kept += 1;
            }
        }
        self.slots[kept..len].fill(0);
        self.len = kept as u8;
        len - kept
    }

    /// Patches raw array data with every recorded correct value — the
    /// read-path fixup. Hard-error cells and buffered-disturbance cells
    /// both read back correctly.
    #[must_use]
    pub fn patch(&self, raw: &LineBuf) -> LineBuf {
        let mut out = *raw;
        for &s in self.live() {
            out.set_bit(usize::from(s & CELL_MASK), s & VALUE_BIT != 0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::VecTable;
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn is_hard(t: &EcpTable, bit: u16) -> bool {
        t.entries().any(|e| e.bit == bit && e.kind == EcpKind::Hard)
    }

    #[test]
    fn record_until_full() {
        let mut t = EcpTable::new(2);
        assert!(t.try_record(0, false, EcpKind::Disturb));
        assert!(t.try_record(1, false, EcpKind::Disturb));
        assert!(!t.try_record(2, false, EcpKind::Disturb));
        assert_eq!(t.free_slots(), 0);
    }

    #[test]
    fn hard_displaces_disturb() {
        let mut t = EcpTable::new(1);
        assert!(t.try_record(5, false, EcpKind::Disturb));
        assert!(t.try_record(9, true, EcpKind::Hard));
        assert_eq!(t.hard_count(), 1);
        assert_eq!(t.len(), 1);
        // A second hard error finds no WD victim and fails.
        assert!(!t.try_record(10, false, EcpKind::Hard));
    }

    #[test]
    fn duplicate_cell_updates_in_place() {
        let mut t = EcpTable::new(1);
        assert!(t.try_record(7, false, EcpKind::Disturb));
        assert!(t.try_record(7, true, EcpKind::Disturb));
        assert_eq!(t.entries().len(), 1);
        assert!(t.entries().next().unwrap().value);
        // Upgrading to hard is sticky.
        assert!(t.try_record(7, false, EcpKind::Hard));
        assert!(is_hard(&t, 7));
        assert!(t.try_record(7, true, EcpKind::Disturb));
        assert!(is_hard(&t, 7), "hard status must not be downgraded");
    }

    #[test]
    fn clear_disturb_keeps_hard() {
        let mut t = EcpTable::new(4);
        t.try_record(1, false, EcpKind::Hard);
        t.try_record(2, false, EcpKind::Disturb);
        t.try_record(3, false, EcpKind::Disturb);
        assert_eq!(t.clear_disturb(), 2);
        assert_eq!(t.hard_count(), 1);
        assert_eq!(t.free_slots(), 3);
    }

    #[test]
    fn patch_fixes_reads() {
        let mut t = EcpTable::new(6);
        let mut raw = LineBuf::zeroed();
        raw.set_bit(100, true); // disturbed: should be 0
        t.try_record(100, false, EcpKind::Disturb);
        t.try_record(200, true, EcpKind::Hard); // stuck at 0, should be 1
        let fixed = t.patch(&raw);
        assert!(!fixed.bit(100));
        assert!(fixed.bit(200));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_cell_index_panics() {
        let mut t = EcpTable::new(1);
        t.try_record(512, false, EcpKind::Disturb);
    }

    #[test]
    fn record_reports_typed_errors() {
        let mut t = EcpTable::new(1);
        assert_eq!(
            t.record(512, false, EcpKind::Disturb),
            Err(EcpError::BadCell { bit: 512 })
        );
        assert_eq!(t.record(3, false, EcpKind::Hard), Ok(()));
        assert_eq!(
            t.record(4, false, EcpKind::Disturb),
            Err(EcpError::Exhausted {
                capacity: 1,
                hard: 1
            })
        );
        assert!(t
            .record(4, false, EcpKind::Disturb)
            .unwrap_err()
            .to_string()
            .contains("exhausted"));
    }

    /// Drives the packed table and the `Vec` oracle with the same
    /// operations at one capacity and compares everything observable
    /// after each: entries in order, counts and patched reads.
    fn check_against_oracle(capacity: usize, ops: impl IntoIterator<Item = (u8, u64)>) {
        let mut t = EcpTable::new(capacity);
        let mut oracle = VecTable::new(capacity);
        for (n, (op, r)) in ops.into_iter().enumerate() {
            // Most cells come from a few, so updates in place, hard
            // upgrades and displacements keep meeting.
            let bit = if r & 1 == 0 {
                (r >> 1) % 16
            } else {
                (r >> 1) % 512
            } as u16;
            let value = r >> 63 == 1;
            let kind = if r >> 62 & 1 == 1 {
                EcpKind::Hard
            } else {
                EcpKind::Disturb
            };
            let at = || format!("ECP-{capacity}, op {n} (kind {}), cell {bit}", op % 8);
            match op % 8 {
                0..=3 => assert_eq!(
                    t.try_record(bit, value, kind),
                    oracle.try_record(bit, value, kind),
                    "{}",
                    at()
                ),
                4 => {
                    // The typed form, with an out-of-range cell now and then.
                    let bit = if op & 0x80 == 0 { bit } else { 512 + bit };
                    let expect = if bit as usize >= LINE_BITS {
                        Err(EcpError::BadCell { bit })
                    } else if oracle.try_record(bit, value, kind) {
                        Ok(())
                    } else {
                        Err(EcpError::Exhausted {
                            capacity,
                            hard: oracle.hard_count(),
                        })
                    };
                    assert_eq!(t.record(bit, value, kind), expect, "{}", at());
                }
                5 | 6 => assert_eq!(t.clear_disturb(), oracle.clear_disturb(), "{}", at()),
                _ => {
                    let raw = LineBuf::from_words(std::array::from_fn(|j| {
                        (r ^ j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    }));
                    assert_eq!(t.patch(&raw), oracle.patch(&raw), "{}", at());
                }
            }
            assert!(t.entries().eq(oracle.entries().iter().copied()), "{}", at());
            assert_eq!(t.len(), oracle.entries().len(), "{}", at());
            assert_eq!(t.is_empty(), oracle.entries().is_empty(), "{}", at());
            assert_eq!(t.free_slots(), oracle.free_slots(), "{}", at());
            assert_eq!(t.hard_count(), oracle.hard_count(), "{}", at());
            assert_eq!(t.capacity(), capacity, "{}", at());
            // Equal tables compare equal: the slots past the entries stay
            // cleared.
            let mut rebuilt = EcpTable::new(capacity);
            for e in oracle.entries() {
                rebuilt.slots[rebuilt.len()] = pack(e.bit, e.value, e.kind);
                rebuilt.len += 1;
            }
            assert_eq!(t, rebuilt, "{}", at());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packed_table_matches_vec_oracle(
            capacity in 0usize..=MAX_ECP_ENTRIES,
            ops in prop::collection::vec((any::<u8>(), any::<u64>()), 1..200)
        ) {
            check_against_oracle(capacity, ops.iter().copied());
        }
    }

    /// Release-mode soak: 200,000 runs of 100 operations on fresh
    /// tables, cycling through every capacity.
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-pcm -- --ignored"]
    fn packed_table_matches_vec_oracle_soak() {
        for run in 0..200_000u32 {
            let mut rng = TestRng::for_case("ecp-table-soak", run);
            let ops = std::iter::repeat_with(|| (rng.next_u64() as u8, rng.next_u64()));
            check_against_oracle(run as usize % (MAX_ECP_ENTRIES + 1), ops.take(100));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_table_panics() {
        let _ = EcpTable::new(MAX_ECP_ENTRIES + 1);
    }
}
