//! Sparse device store: the actual cell contents of the PCM DIMM.
//!
//! Only lines that have been touched by a write, a disturbance, or an
//! ECP/hard-error event are materialized (64 B of data plus the line's
//! ECP table and stuck-cell list), so simulating the full 8 GB address
//! space costs host memory proportional to the set of *written* lines.
//! Untouched lines read as their [`InitContent`] — all-zero for a fresh
//! array, or deterministic pseudorandom data modelling a running system.
//!
//! The store exposes *device-level* primitives — raw reads, applying a
//! differential-write mask, crystallizing a disturbed cell, planting hard
//! errors — on per-bank [`StoreLane`] views, and keeps wear accounting.
//! [`DeviceStore`] itself only answers whole-DIMM read-only questions
//! (architectural reads, stuck-cell counts, digests). Orchestration (when
//! to verify, what to correct) lives in the memory-controller crate.

use sdpcm_engine::hash::FxHashMap;
use sdpcm_engine::prof::{self, Site};

use crate::ecp::{EcpKind, EcpTable};
use crate::geometry::{LineAddr, MemGeometry, LINES_PER_ROW};
use crate::line::{DiffMask, LineBuf};
use crate::wear::{WearMeter, WriteClass};

/// Materialized state of one 64 B line.
#[derive(Debug, Clone)]
pub struct LineState {
    data: LineBuf,
    ecp: EcpTable,
    stuck: Vec<(u16, bool)>,
}

impl LineState {
    fn new(ecp_entries: usize) -> LineState {
        LineState {
            data: LineBuf::zeroed(),
            ecp: EcpTable::new(ecp_entries),
            stuck: Vec::new(),
        }
    }
}

/// Initial (pre-first-write) content of the array.
///
/// A fresh PCM array is fully amorphous (all zero), but a *running*
/// system's lines hold program data long before the first simulated
/// write reaches them (pages are loaded, zeroed, reused). `Pseudorandom`
/// models that steady state: every untouched line reads as a
/// deterministic hash of its address, so first writes perform realistic
/// mixed SET/RESET differential programming instead of all-SET bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitContent {
    /// Fully amorphous array (all cells `0`).
    Zeroed,
    /// Deterministic per-address pseudorandom content.
    Pseudorandom(u64),
}

/// The sparse cell-array store of the whole DIMM.
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::geometry::{BankId, LineAddr, MemGeometry, RowId};
/// use sdpcm_pcm::line::{DiffMask, LineBuf};
/// use sdpcm_pcm::store::DeviceStore;
/// use sdpcm_pcm::wear::WriteClass;
///
/// let mut dev = DeviceStore::new(MemGeometry::small(16), 6);
/// let addr = LineAddr { bank: BankId(0), row: RowId(3), slot: 0 };
/// let mut data = LineBuf::zeroed();
/// data.set_bit(42, true);
/// let mut lane = dev.lane_mut(addr.bank.0);
/// let diff = DiffMask::between(&lane.raw_line(addr), &data);
/// lane.apply_write(addr, &diff, WriteClass::Normal);
/// assert_eq!(dev.read_line(addr), data);
/// ```
#[derive(Debug)]
pub struct DeviceStore {
    geometry: MemGeometry,
    ecp_entries: usize,
    init: InitContent,
    banks: Vec<BankStore>,
}

/// The materialized lines and wear tally of a single bank.
///
/// Keeping wear accounting per bank (merged on read) means each bank lane
/// charges wear in its own bank-local event order, so totals are
/// independent of the order lanes are processed in.
#[derive(Debug, Default)]
struct BankStore {
    lines: FxHashMap<(u32, u8), LineState>,
    wear: WearMeter,
}

impl BankStore {
    fn line(&self, addr: LineAddr) -> Option<&LineState> {
        self.lines.get(&(addr.row.0, addr.slot))
    }

    /// See [`DeviceStore::read_line`].
    fn read_line(&self, init: InitContent, addr: LineAddr) -> LineBuf {
        let _t = prof::timer(Site::StoreRead);
        match self.line(addr) {
            None => initial_line_of(init, addr),
            Some(l) if l.ecp.entries().is_empty() => l.data,
            Some(l) => l.ecp.patch(&l.data),
        }
    }

    /// See [`DeviceStore::hard_error_count`].
    fn hard_error_count(&self, addr: LineAddr) -> usize {
        self.line(addr).map_or(0, |l| l.stuck.len())
    }
}

/// Mutable view of one bank of the store.
///
/// Holds everything needed to serve per-line device primitives for
/// addresses within that bank, borrowed disjointly from the other banks.
/// Every method
/// debug-asserts that the address belongs to the viewed bank.
#[derive(Debug)]
pub struct StoreLane<'a> {
    geometry: &'a MemGeometry,
    ecp_entries: usize,
    init: InitContent,
    bank_id: u16,
    bank: &'a mut BankStore,
}

impl DeviceStore {
    /// Creates an all-zero (fully amorphous) store.
    #[must_use]
    pub fn new(geometry: MemGeometry, ecp_entries: usize) -> DeviceStore {
        DeviceStore::with_init(geometry, ecp_entries, InitContent::Zeroed)
    }

    /// Creates a store with the given initial-content policy.
    #[must_use]
    pub fn with_init(geometry: MemGeometry, ecp_entries: usize, init: InitContent) -> DeviceStore {
        DeviceStore {
            geometry,
            ecp_entries,
            init,
            banks: (0..geometry.banks())
                .map(|_| BankStore::default())
                .collect(),
        }
    }

    /// The initial content of an untouched line.
    #[must_use]
    pub fn initial_line(&self, addr: LineAddr) -> LineBuf {
        initial_line_of(self.init, addr)
    }

    /// The geometry this store was built with.
    #[must_use]
    pub fn geometry(&self) -> &MemGeometry {
        &self.geometry
    }

    /// ECP entries per line (N of ECP-N).
    #[must_use]
    pub fn ecp_entries(&self) -> usize {
        self.ecp_entries
    }

    /// Wear accounting collected so far, aggregated over the per-bank
    /// meters in fixed bank order.
    #[must_use]
    pub fn wear(&self) -> WearMeter {
        let mut total = WearMeter::default();
        for bank in &self.banks {
            total.merge(&bank.wear);
        }
        total
    }

    /// Number of materialized lines (test/diagnostic aid).
    #[must_use]
    pub fn materialized_lines(&self) -> usize {
        self.banks.iter().map(|b| b.lines.len()).sum()
    }

    /// Mutable view of one bank, for the controller's bank lanes.
    ///
    /// # Panics
    /// Panics if `bank` is out of range for the geometry.
    #[must_use]
    pub fn lane_mut(&mut self, bank: u16) -> StoreLane<'_> {
        StoreLane {
            geometry: &self.geometry,
            ecp_entries: self.ecp_entries,
            init: self.init,
            bank_id: bank,
            bank: &mut self.banks[bank as usize],
        }
    }

    /// Architectural read: raw contents patched by the line's ECP table.
    /// This is what the memory controller returns to the system.
    ///
    /// Fast paths: an unmaterialized line is its initial content, and a
    /// line with an empty ECP table needs no patching — both skip the
    /// patch loop and its intermediate copy (most reads, since ECP
    /// entries exist only on lines that have absorbed errors).
    #[must_use]
    pub fn read_line(&self, addr: LineAddr) -> LineBuf {
        self.banks[addr.bank.0 as usize].read_line(self.init, addr)
    }

    /// Number of stuck cells planted on a line.
    #[must_use]
    pub fn hard_error_count(&self, addr: LineAddr) -> usize {
        self.banks[addr.bank.0 as usize].hard_error_count(addr)
    }

    /// Digest of all materialized device state (raw data, ECP tables,
    /// stuck cells). Each line is hashed on its own (FNV-1a over the
    /// line's address and state) and the per-line digests are combined
    /// with a commutative sum, so the value is independent of hash-map
    /// iteration order *without* collecting and sorting the keys on
    /// every call. Two runs of the same seeded simulation must end with
    /// identical digests — the reproducibility tests compare this
    /// instead of dumping 8 GB.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
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
                // Finalize: a second multiply round decorrelates lines so
                // the commutative sum cannot cancel structured pairs.
                total = total.wrapping_add(h.wrapping_mul(PRIME) ^ h.rotate_left(32));
                count += 1;
            }
        }
        total ^ count.wrapping_mul(PRIME)
    }
}

impl<'a> StoreLane<'a> {
    /// The bank this lane views.
    #[must_use]
    pub fn bank_id(&self) -> u16 {
        self.bank_id
    }

    fn line(&self, addr: LineAddr) -> Option<&LineState> {
        debug_assert_eq!(addr.bank.0, self.bank_id, "address outside lane bank");
        self.bank.line(addr)
    }

    fn line_mut(&mut self, addr: LineAddr) -> &mut LineState {
        debug_assert_eq!(addr.bank.0, self.bank_id, "address outside lane bank");
        debug_assert!(addr.row.0 < self.geometry.rows_per_bank());
        debug_assert!((addr.slot as usize) < LINES_PER_ROW);
        materialize_line(self.bank, self.init, self.ecp_entries, addr)
    }

    /// The initial content of an untouched line.
    #[must_use]
    pub fn initial_line(&self, addr: LineAddr) -> LineBuf {
        initial_line_of(self.init, addr)
    }

    /// Raw array contents of a line — *without* ECP patching. Untouched
    /// lines read as their initial content.
    #[must_use]
    pub fn raw_line(&self, addr: LineAddr) -> LineBuf {
        let _t = prof::timer(Site::StoreRead);
        self.line(addr)
            .map_or_else(|| self.initial_line(addr), |l| l.data)
    }

    /// Architectural read (see [`DeviceStore::read_line`]).
    #[must_use]
    pub fn read_line(&self, addr: LineAddr) -> LineBuf {
        debug_assert_eq!(addr.bank.0, self.bank_id, "address outside lane bank");
        self.bank.read_line(self.init, addr)
    }

    /// Applies a differential-write mask to the array. Stuck cells retain
    /// their stuck value regardless of the pulse applied. Returns the
    /// post-write raw contents.
    ///
    /// Wear is charged to `class` (normal data write vs correction) on
    /// this lane's bank meter.
    pub fn apply_write(&mut self, addr: LineAddr, diff: &DiffMask, class: WriteClass) -> LineBuf {
        let _t = prof::timer(Site::StoreWrite);
        let line = self.line_mut(addr);
        let mut after = diff.apply(&line.data);
        for &(bit, stuck_val) in &line.stuck {
            after.set_bit(bit as usize, stuck_val);
        }
        line.data = after;
        self.bank
            .wear
            .charge_data_bits(u64::from(diff.changed_count()), class);
        after
    }

    /// Crystallizes one cell of a line: the write-disturbance effect
    /// (an idle amorphous cell partially SETs, reading back as `1`).
    /// Returns whether the cell actually changed state — stuck cells are
    /// unaffected, and an already-crystalline cell cannot flip again.
    pub fn inject_disturb(&mut self, addr: LineAddr, bit: u16) -> bool {
        let line = self.line_mut(addr);
        if line.stuck.iter().any(|&(b, _)| b == bit) {
            return false;
        }
        if line.data.bit(bit as usize) {
            return false;
        }
        line.data.set_bit(bit as usize, true);
        true
    }

    /// Plants a permanent stuck-at fault and records it in the line's ECP
    /// table (hard errors have allocation priority). Returns `false` if
    /// the ECP table could not absorb it (table full of hard errors) — the
    /// line is then unprotected, as in the paper's end-of-life regime.
    pub fn plant_hard_error(&mut self, addr: LineAddr, bit: u16, stuck_val: bool) -> bool {
        let correct = {
            let line = self.line_mut(addr);
            line.ecp.patch(&line.data).bit(bit as usize)
        };
        self.plant_hard_error_with_value(addr, bit, stuck_val, correct)
    }

    /// Like [`StoreLane::plant_hard_error`], but with the architectural
    /// value supplied by the caller — needed when the raw array currently
    /// holds *known-but-unrecorded* disturbance errors that must not be
    /// mistaken for data.
    pub fn plant_hard_error_with_value(
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

    /// Refreshes the ECP `value` fields of hard-error entries after a
    /// write so reads patch stuck cells with the newly written data.
    ///
    /// `intended` is the data the write was supposed to store.
    pub fn refresh_hard_values(&mut self, addr: LineAddr, intended: &LineBuf) {
        let line = self.line_mut(addr);
        let stuck = line.stuck.clone();
        for (bit, _) in stuck {
            line.ecp
                .try_record(bit, intended.bit(bit as usize), EcpKind::Hard);
        }
    }

    /// Borrowed view of a line's ECP table, `None` for untouched lines
    /// (whose notional table is empty).
    #[must_use]
    pub fn ecp_ref(&self, addr: LineAddr) -> Option<&EcpTable> {
        self.line(addr).map(|l| &l.ecp)
    }

    /// Mutable access to a line's ECP table (materializes the line).
    pub fn ecp_mut(&mut self, addr: LineAddr) -> &mut EcpTable {
        &mut self.line_mut(addr).ecp
    }

    /// Number of stuck cells planted on a line.
    #[must_use]
    pub fn hard_error_count(&self, addr: LineAddr) -> usize {
        debug_assert_eq!(addr.bank.0, self.bank_id, "address outside lane bank");
        self.bank.hard_error_count(addr)
    }

    /// Charges one ECP-chip record write to this bank's wear meter.
    pub fn charge_ecp_record(&mut self) {
        self.bank.wear.charge_ecp_record();
    }
}

fn materialize_line(
    bank: &mut BankStore,
    init: InitContent,
    ecp_entries: usize,
    addr: LineAddr,
) -> &mut LineState {
    bank.lines
        .entry((addr.row.0, addr.slot))
        .or_insert_with(|| {
            let mut l = LineState::new(ecp_entries);
            l.data = initial_line_of(init, addr);
            l
        })
}

fn initial_line_of(init: InitContent, addr: LineAddr) -> LineBuf {
    match init {
        InitContent::Zeroed => LineBuf::zeroed(),
        InitContent::Pseudorandom(seed) => {
            let mut words = [0u64; 8];
            let base = seed
                ^ (u64::from(addr.bank.0) << 48)
                ^ (u64::from(addr.row.0) << 8)
                ^ u64::from(addr.slot);
            for (i, w) in words.iter_mut().enumerate() {
                *w = splitmix64(
                    base.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                );
            }
            LineBuf::from_words(words)
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BankId, RowId};
    use crate::wear::WriteClass;

    fn addr(bank: u16, row: u32, slot: u8) -> LineAddr {
        LineAddr {
            bank: BankId(bank),
            row: RowId(row),
            slot,
        }
    }

    fn store() -> DeviceStore {
        DeviceStore::new(MemGeometry::small(64), 6)
    }

    /// Differentially writes `data` to `a` through its bank's lane.
    fn write(dev: &mut DeviceStore, a: LineAddr, data: &LineBuf) {
        let mut lane = dev.lane_mut(a.bank.0);
        let diff = DiffMask::between(&lane.raw_line(a), data);
        lane.apply_write(a, &diff, WriteClass::Normal);
    }

    #[test]
    fn untouched_lines_read_zero() {
        let dev = store();
        assert_eq!(dev.read_line(addr(5, 10, 3)), LineBuf::zeroed());
        assert_eq!(dev.materialized_lines(), 0);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut dev = store();
        let a = addr(1, 2, 3);
        let mut data = LineBuf::zeroed();
        data.set_bit(0, true);
        data.set_bit(511, true);
        write(&mut dev, a, &data);
        assert_eq!(dev.read_line(a), data);
        assert_eq!(dev.lane_mut(1).read_line(a), data);
        assert_eq!(dev.materialized_lines(), 1);
    }

    #[test]
    fn reads_do_not_materialize() {
        let mut dev = store();
        let _ = dev.read_line(addr(0, 1, 2));
        let lane = dev.lane_mut(0);
        let _ = lane.read_line(addr(0, 1, 2));
        let _ = lane.raw_line(addr(0, 1, 3));
        assert_eq!(dev.materialized_lines(), 0);
        dev.lane_mut(0).inject_disturb(addr(0, 1, 2), 5);
        assert_eq!(dev.materialized_lines(), 1);
    }

    #[test]
    fn disturb_flips_idle_zero_to_one() {
        let mut dev = store();
        let a = addr(0, 0, 0);
        let mut lane = dev.lane_mut(0);
        lane.inject_disturb(a, 7);
        assert!(lane.raw_line(a).bit(7));
        // Not patched: no ECP entry recorded yet, so the read sees it too.
        assert!(dev.read_line(a).bit(7));
    }

    #[test]
    fn ecp_patch_hides_disturbance() {
        let mut dev = store();
        let a = addr(0, 0, 0);
        let mut lane = dev.lane_mut(0);
        lane.inject_disturb(a, 7);
        lane.ecp_mut(a).try_record(7, false, EcpKind::Disturb);
        assert!(lane.raw_line(a).bit(7), "raw cell stays disturbed");
        assert!(!dev.read_line(a).bit(7), "architectural read is patched");
    }

    #[test]
    fn stuck_cell_ignores_writes_and_disturbs() {
        let mut dev = store();
        let a = addr(2, 4, 6);
        let mut lane = dev.lane_mut(2);
        assert!(lane.plant_hard_error(a, 100, false));
        // Try to SET the stuck cell.
        let mut data = LineBuf::zeroed();
        data.set_bit(100, true);
        let diff = DiffMask::between(&lane.raw_line(a), &data);
        lane.apply_write(a, &diff, WriteClass::Normal);
        assert!(!lane.raw_line(a).bit(100), "stuck at 0");
        // But ECP patches the read once refreshed with the intended data.
        lane.refresh_hard_values(a, &data);
        assert!(lane.read_line(a).bit(100));
        // Disturbance cannot flip it either.
        lane.inject_disturb(a, 100);
        assert!(!lane.raw_line(a).bit(100));
    }

    #[test]
    fn wear_charged_by_class() {
        let mut dev = store();
        let a = addr(0, 1, 0);
        let mut data = LineBuf::zeroed();
        for b in 0..10 {
            data.set_bit(b, true);
        }
        write(&mut dev, a, &data);
        dev.lane_mut(0)
            .apply_write(a, &DiffMask::reset_only(&[0, 1]), WriteClass::Correction);
        assert_eq!(dev.wear().data_bits_normal(), 10);
        assert_eq!(dev.wear().data_bits_correction(), 2);
    }

    #[test]
    fn content_digest_tracks_device_state() {
        let build = || {
            let mut dev = store();
            let mut data = LineBuf::zeroed();
            data.set_bit(9, true);
            write(&mut dev, addr(1, 2, 3), &data);
            dev.lane_mut(0).plant_hard_error(addr(0, 0, 0), 17, true);
            dev
        };
        let mut dev = build();
        assert_eq!(dev.content_digest(), build().content_digest());
        let before = dev.content_digest();
        dev.lane_mut(1).inject_disturb(addr(1, 2, 3), 200);
        assert_ne!(dev.content_digest(), before, "digest sees new state");
    }

    #[test]
    fn hard_error_count_tracks_plants() {
        let mut dev = store();
        let a = addr(3, 3, 3);
        let mut lane = dev.lane_mut(3);
        lane.plant_hard_error(a, 1, true);
        lane.plant_hard_error(a, 2, false);
        lane.plant_hard_error(a, 2, false); // duplicate ignored
        assert_eq!(lane.hard_error_count(a), 2);
        assert_eq!(lane.ecp_ref(a).map(EcpTable::hard_count), Some(2));
        assert_eq!(dev.hard_error_count(a), 2);
    }

    #[test]
    fn pseudorandom_init_is_deterministic_and_consistent() {
        let mut dev =
            DeviceStore::with_init(MemGeometry::small(64), 6, InitContent::Pseudorandom(7));
        let a = addr(1, 2, 3);
        let first = dev.read_line(a);
        assert_eq!(dev.read_line(a), first);
        assert_eq!(dev.initial_line(a), first);
        assert_eq!(dev.lane_mut(1).raw_line(a), first);
        assert_ne!(first, LineBuf::zeroed());
        // Different addresses get different content.
        assert_ne!(dev.read_line(addr(1, 2, 4)), first);
        // Different seeds differ.
        let dev2 = DeviceStore::with_init(MemGeometry::small(64), 6, InitContent::Pseudorandom(8));
        assert_ne!(dev2.read_line(a), first);
    }

    #[test]
    fn writes_over_pseudorandom_content_diff_correctly() {
        let mut dev =
            DeviceStore::with_init(MemGeometry::small(64), 6, InitContent::Pseudorandom(7));
        let a = addr(0, 1, 1);
        let target = LineBuf::zeroed();
        let mut lane = dev.lane_mut(0);
        let diff = DiffMask::between(&lane.raw_line(a), &target);
        assert!(diff.reset_count() > 100, "random content has many ones");
        lane.apply_write(a, &diff, WriteClass::Normal);
        assert_eq!(dev.read_line(a), target);
    }

    #[test]
    fn lines_of_same_row_are_independent() {
        let mut dev = store();
        let a = addr(1, 5, 0);
        let b = addr(1, 5, 1);
        let mut data = LineBuf::zeroed();
        data.set_bit(3, true);
        write(&mut dev, a, &data);
        assert_eq!(dev.read_line(b), LineBuf::zeroed());
        assert_eq!(dev.materialized_lines(), 1);
    }
}
