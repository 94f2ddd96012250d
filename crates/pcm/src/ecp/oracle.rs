//! The `Vec`-backed ECP table that the packed inline table replaced,
//! kept as a test oracle: entries in a heap vector in recording order,
//! a hard error displacing the first buffered disturbance in place, and
//! `clear_disturb` a stable `retain`.

use super::{EcpEntry, EcpKind};
use crate::line::{LineBuf, LINE_BITS};

#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct VecTable {
    entries: Vec<EcpEntry>,
    capacity: usize,
}

impl VecTable {
    pub(super) fn new(capacity: usize) -> VecTable {
        VecTable {
            entries: Vec::new(),
            capacity,
        }
    }

    pub(super) fn free_slots(&self) -> usize {
        self.capacity - self.entries.len()
    }

    pub(super) fn hard_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == EcpKind::Hard)
            .count()
    }

    pub(super) fn entries(&self) -> &[EcpEntry] {
        &self.entries
    }

    pub(super) fn try_record(&mut self, bit: u16, value: bool, kind: EcpKind) -> bool {
        assert!((bit as usize) < LINE_BITS, "cell index out of range");
        if let Some(e) = self.entries.iter_mut().find(|e| e.bit == bit) {
            e.value = value;
            if kind == EcpKind::Hard {
                e.kind = EcpKind::Hard;
            }
            return true;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(EcpEntry { bit, value, kind });
            return true;
        }
        if kind == EcpKind::Hard {
            if let Some(pos) = self.entries.iter().position(|e| e.kind == EcpKind::Disturb) {
                self.entries[pos] = EcpEntry { bit, value, kind };
                return true;
            }
        }
        false
    }

    pub(super) fn clear_disturb(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.kind == EcpKind::Hard);
        before - self.entries.len()
    }

    pub(super) fn patch(&self, raw: &LineBuf) -> LineBuf {
        let mut out = *raw;
        for e in &self.entries {
            out.set_bit(e.bit as usize, e.value);
        }
        out
    }
}
