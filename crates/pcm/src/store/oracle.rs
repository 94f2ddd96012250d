//! The map-based device store that the slab store replaced, kept as a
//! test oracle: one `FxHashMap<(u32, u8), LineState>` per bank with the
//! line's data, ECP table and stuck cells in each entry, plus the
//! per-line DIN-flag and injection-epoch maps that the controller's bank
//! lanes kept beside it.

use sdpcm_engine::hash::FxHashMap;

use super::{initial_line_of, InitContent};
use crate::ecp::{EcpKind, EcpTable};
use crate::geometry::{LineAddr, MemGeometry};
use crate::line::{DiffMask, LineBuf};
use crate::wear::{WearMeter, WriteClass};

/// Materialized state of one 64 B line.
#[derive(Debug, Clone)]
struct LineState {
    data: LineBuf,
    ecp: EcpTable,
    stuck: Vec<(u16, bool)>,
}

#[derive(Debug, Default)]
struct BankStore {
    lines: FxHashMap<(u32, u8), LineState>,
    wear: WearMeter,
    flags: FxHashMap<(u32, u8), u64>,
    epochs: FxHashMap<(u32, u8), u64>,
}

#[derive(Debug)]
pub(super) struct MapStore {
    ecp_entries: usize,
    init: InitContent,
    banks: Vec<BankStore>,
}

fn key(addr: LineAddr) -> (u32, u8) {
    (addr.row.0, addr.slot)
}

impl MapStore {
    pub(super) fn new(geometry: MemGeometry, ecp_entries: usize, init: InitContent) -> MapStore {
        MapStore {
            ecp_entries,
            init,
            banks: (0..geometry.banks())
                .map(|_| BankStore::default())
                .collect(),
        }
    }

    fn bank(&self, addr: LineAddr) -> &BankStore {
        &self.banks[addr.bank.0 as usize]
    }

    fn line(&self, addr: LineAddr) -> Option<&LineState> {
        self.bank(addr).lines.get(&key(addr))
    }

    fn line_mut(&mut self, addr: LineAddr) -> &mut LineState {
        let (init, ecp_entries) = (self.init, self.ecp_entries);
        self.banks[addr.bank.0 as usize]
            .lines
            .entry(key(addr))
            .or_insert_with(|| LineState {
                data: initial_line_of(init, addr),
                ecp: EcpTable::new(ecp_entries),
                stuck: Vec::new(),
            })
    }

    pub(super) fn wear(&self) -> WearMeter {
        let mut total = WearMeter::default();
        for bank in &self.banks {
            total.merge(&bank.wear);
        }
        total
    }

    pub(super) fn materialized_lines(&self) -> usize {
        self.banks.iter().map(|b| b.lines.len()).sum()
    }

    pub(super) fn read_line(&self, addr: LineAddr) -> LineBuf {
        match self.line(addr) {
            None => initial_line_of(self.init, addr),
            Some(l) => l.ecp.patch(&l.data),
        }
    }

    pub(super) fn raw_line(&self, addr: LineAddr) -> LineBuf {
        self.line(addr)
            .map_or_else(|| initial_line_of(self.init, addr), |l| l.data)
    }

    pub(super) fn hard_error_count(&self, addr: LineAddr) -> usize {
        self.line(addr).map_or(0, |l| l.stuck.len())
    }

    pub(super) fn ecp_ref(&self, addr: LineAddr) -> Option<&EcpTable> {
        self.line(addr).map(|l| &l.ecp)
    }

    pub(super) fn din_flags(&self, addr: LineAddr) -> u64 {
        self.bank(addr).flags.get(&key(addr)).copied().unwrap_or(0)
    }

    pub(super) fn inject_epoch(&self, addr: LineAddr) -> u64 {
        self.bank(addr).epochs.get(&key(addr)).copied().unwrap_or(0)
    }

    pub(super) fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut total: u64 = 0;
        let mut count: u64 = 0;
        for (bank, store) in self.banks.iter().enumerate() {
            for (key, line) in &store.lines {
                let mut h = OFFSET;
                let mut mix = |v: u64| {
                    for byte in v.to_le_bytes() {
                        h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
                    }
                };
                mix(bank as u64);
                mix(u64::from(key.0) << 8 | u64::from(key.1));
                for &w in line.data.words() {
                    mix(w);
                }
                for e in line.ecp.entries() {
                    mix(u64::from(e.bit) << 2
                        | u64::from(e.value) << 1
                        | u64::from(e.kind == EcpKind::Hard));
                }
                for &(bit, val) in &line.stuck {
                    mix(u64::from(bit) << 1 | u64::from(val));
                }
                total = total.wrapping_add(h.wrapping_mul(PRIME) ^ h.rotate_left(32));
                count += 1;
            }
        }
        total ^ count.wrapping_mul(PRIME)
    }

    pub(super) fn apply_write(&mut self, addr: LineAddr, diff: &DiffMask, class: WriteClass) {
        let line = self.line_mut(addr);
        let mut after = diff.apply(&line.data);
        for &(bit, stuck_val) in &line.stuck {
            after.set_bit(bit as usize, stuck_val);
        }
        line.data = after;
        self.banks[addr.bank.0 as usize]
            .wear
            .charge_data_bits(u64::from(diff.changed_count()), class);
    }

    pub(super) fn inject_disturb(&mut self, addr: LineAddr, bit: u16) -> bool {
        let line = self.line_mut(addr);
        if line.stuck.iter().any(|&(b, _)| b == bit) || line.data.bit(bit as usize) {
            return false;
        }
        line.data.set_bit(bit as usize, true);
        true
    }

    pub(super) fn plant_hard_error(&mut self, addr: LineAddr, bit: u16, stuck_val: bool) -> bool {
        let correct = {
            let line = self.line_mut(addr);
            line.ecp.patch(&line.data).bit(bit as usize)
        };
        self.plant_hard_error_with_value(addr, bit, stuck_val, correct)
    }

    pub(super) fn plant_hard_error_with_value(
        &mut self,
        addr: LineAddr,
        bit: u16,
        stuck_val: bool,
        correct: bool,
    ) -> bool {
        let line = self.line_mut(addr);
        if !line.stuck.iter().any(|&(b, _)| b == bit) {
            line.stuck.push((bit, stuck_val));
            line.data.set_bit(bit as usize, stuck_val);
        }
        line.ecp.try_record(bit, correct, EcpKind::Hard)
    }

    pub(super) fn refresh_hard_values(&mut self, addr: LineAddr, intended: &LineBuf) {
        let line = self.line_mut(addr);
        let stuck = line.stuck.clone();
        for (bit, _) in stuck {
            line.ecp
                .try_record(bit, intended.bit(bit as usize), EcpKind::Hard);
        }
    }

    pub(super) fn ecp_mut(&mut self, addr: LineAddr) -> &mut EcpTable {
        &mut self.line_mut(addr).ecp
    }

    pub(super) fn charge_ecp_record(&mut self, addr: LineAddr) {
        self.banks[addr.bank.0 as usize].wear.charge_ecp_record();
    }

    pub(super) fn set_din_flags(&mut self, addr: LineAddr, flags: u64) {
        self.banks[addr.bank.0 as usize]
            .flags
            .insert(key(addr), flags);
    }

    /// Takes the line's next injection epoch, as the lane's
    /// `inject_epochs` map did.
    pub(super) fn next_inject_epoch(&mut self, addr: LineAddr) -> u64 {
        let e = self.banks[addr.bank.0 as usize]
            .epochs
            .entry(key(addr))
            .or_insert(0);
        let epoch = *e;
        *e += 1;
        epoch
    }
}
