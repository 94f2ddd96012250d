//! Sparse device store: the actual cell contents of the PCM DIMM, and
//! the per-line state the controller keeps beside them.
//!
//! Each bank keeps one 112-byte record per touched line: the line's
//! 64 B of data, its inline ECP table, its DIN flags and its injection
//! epoch. Records live in an append-only slab of fixed-size chunks,
//! found through a compact index keyed `row << 6 | slot`, so a lookup
//! probes a table of 8-byte buckets and growth never moves a record.
//! The rare lines with stuck cells (DIMM-aging runs only) keep the cell
//! list in a side table keyed by slab position, flagged on the record,
//! so no record holds a heap pointer. Host memory scales with the set of
//! touched lines, never with the address space.
//!
//! A line is *materialized* once a write, a disturbance or an
//! ECP/hard-error event has touched its cells. A record that so far
//! carries only DIN flags or an injection epoch is not: like an
//! untouched line, it reads as its [`InitContent`] (all-zero for a fresh
//! array, or deterministic pseudorandom data modelling a running
//! system) and stays out of [`DeviceStore::materialized_lines`] and
//! [`DeviceStore::content_digest`]. Reads never materialize a line.
//!
//! The store exposes *device-level* primitives — raw reads, applying a
//! differential-write mask, crystallizing a disturbed cell, planting hard
//! errors — on per-bank [`StoreLane`] views, and keeps wear accounting.
//! [`DeviceStore`] itself only answers whole-DIMM read-only questions
//! (architectural reads, stuck-cell counts, digests). Orchestration (when
//! to verify, what to correct) lives in the memory-controller crate.

use sdpcm_engine::hash::FxHashMap;
use sdpcm_engine::prof::{self, Site};

use crate::ecp::{EcpKind, EcpTable, MAX_ECP_ENTRIES};
use crate::geometry::{LineAddr, MemGeometry, LINES_PER_ROW};
use crate::line::{DiffMask, LineBuf};
use crate::wear::{WearMeter, WriteClass};

#[cfg(test)]
mod oracle;

/// Bits of a line's index key that hold its slot within the row.
const SLOT_BITS: u32 = LINES_PER_ROW.trailing_zeros();
const _: () = assert!(LINES_PER_ROW == 1 << SLOT_BITS);

/// Records per slab chunk (14 KiB).
const CHUNK: usize = 128;

/// The index key of a line within its bank.
fn key_of(addr: LineAddr) -> u32 {
    addr.row.0 << SLOT_BITS | u32::from(addr.slot)
}

/// Everything kept about one touched line: its cells and the
/// controller's per-line metadata.
#[derive(Debug, Clone)]
struct LineRecord {
    data: LineBuf,
    /// DIN inversion flags of the stored encoding.
    din_flags: u64,
    /// Programming operations that have disturbed from this line so far.
    inject_epoch: u64,
    /// The line's index key.
    key: u32,
    ecp: EcpTable,
    /// Whether the bank's side table lists stuck cells for this record.
    has_stuck: bool,
    /// Whether the cells have been touched; until then `data` and `ecp`
    /// are unused and the line reads as its initial content.
    materialized: bool,
}

// Data 64 B, flags and epoch 16 B, key 4 B, ECP table 26 B, two flags.
const _: () = assert!(std::mem::size_of::<LineRecord>() <= 112);

impl LineRecord {
    /// Applies a differential-write mask to the cells (see
    /// [`StoreLane::apply_write`]) and returns the post-write contents.
    /// `stuck` lists the line's stuck cells.
    fn apply(&mut self, diff: &DiffMask, stuck: &[(u16, bool)]) -> LineBuf {
        let mut after = diff.apply(&self.data);
        for &(bit, stuck_val) in stuck {
            after.set_bit(bit as usize, stuck_val);
        }
        self.data = after;
        after
    }

    /// Crystallizes one idle amorphous cell (see
    /// [`StoreLane::inject_disturb`]).
    fn disturb(&mut self, bit: u16, stuck: &[(u16, bool)]) -> bool {
        if self.data.bit(bit as usize) || stuck.iter().any(|&(b, _)| b == bit) {
            return false;
        }
        self.data.set_bit(bit as usize, true);
        true
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

/// The line records and wear tally of a single bank.
///
/// Keeping wear accounting per bank (merged on read) means each bank lane
/// charges wear in its own bank-local event order, so totals are
/// independent of the order lanes are processed in.
#[derive(Debug, Default)]
struct BankStore {
    /// Line key → position in `slab`.
    index: FxHashMap<u32, u32>,
    /// The records in the order they were first touched, in chunks of
    /// [`CHUNK`] that are never reallocated.
    slab: Vec<Vec<LineRecord>>,
    /// Slab position → stuck cells and their stuck values, for the
    /// records flagged `has_stuck`.
    stuck: FxHashMap<u32, Vec<(u16, bool)>>,
    /// Materialized records.
    materialized: usize,
    wear: WearMeter,
}

impl BankStore {
    fn at(&self, i: u32) -> &LineRecord {
        &self.slab[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn at_mut(&mut self, i: u32) -> &mut LineRecord {
        &mut self.slab[i as usize / CHUNK][i as usize % CHUNK]
    }

    fn record(&self, addr: LineAddr) -> Option<&LineRecord> {
        self.index.get(&key_of(addr)).map(|&i| self.at(i))
    }

    fn line(&self, addr: LineAddr) -> Option<&LineRecord> {
        self.record(addr).filter(|r| r.materialized)
    }

    /// The record at slab position `i` and its stuck cells.
    fn with_stuck(&mut self, i: u32) -> (&mut LineRecord, &[(u16, bool)]) {
        let rec = &mut self.slab[i as usize / CHUNK][i as usize % CHUNK];
        let stuck = if rec.has_stuck {
            self.stuck.get(&i).map_or(&[][..], Vec::as_slice)
        } else {
            &[]
        };
        (rec, stuck)
    }

    /// The slab position of `addr`'s record, appending an unmaterialized
    /// one on first use.
    fn position(&mut self, ecp_entries: usize, addr: LineAddr) -> u32 {
        let key = key_of(addr);
        let next = self.index.len() as u32;
        let i = *self.index.entry(key).or_insert(next);
        if i == next {
            let rec = LineRecord {
                data: LineBuf::zeroed(),
                din_flags: 0,
                inject_epoch: 0,
                key,
                ecp: EcpTable::new(ecp_entries),
                has_stuck: false,
                materialized: false,
            };
            match self.slab.last_mut() {
                Some(chunk) if chunk.len() < CHUNK => chunk.push(rec),
                _ => {
                    let mut chunk = Vec::with_capacity(CHUNK);
                    chunk.push(rec);
                    self.slab.push(chunk);
                }
            }
        }
        i
    }

    /// Sets the cells of the record at slab position `i` to `initial()`
    /// (the line's initial content) if they were untouched.
    fn materialize(&mut self, i: u32, initial: impl FnOnce() -> LineBuf) {
        let rec = &mut self.slab[i as usize / CHUNK][i as usize % CHUNK];
        if !rec.materialized {
            rec.data = initial();
            rec.materialized = true;
            self.materialized += 1;
        }
    }

    /// Raw contents of the record at `i` (initial content if untouched).
    fn raw_at(&self, i: Option<u32>, init: InitContent, addr: LineAddr) -> LineBuf {
        let _t = prof::timer(Site::StoreRead);
        match i.map(|i| self.at(i)) {
            Some(r) if r.materialized => r.data,
            _ => initial_line_of(init, addr),
        }
    }

    /// See [`DeviceStore::read_line`].
    fn read_line(&self, init: InitContent, addr: LineAddr) -> LineBuf {
        let _t = prof::timer(Site::StoreRead);
        match self.line(addr) {
            None => initial_line_of(init, addr),
            Some(l) if l.ecp.is_empty() => l.data,
            Some(l) => l.ecp.patch(&l.data),
        }
    }

    /// See [`DeviceStore::read_line_and_flags`].
    fn read_line_and_flags(&self, init: InitContent, addr: LineAddr) -> (LineBuf, u64) {
        let _t = prof::timer(Site::StoreRead);
        match self.record(addr) {
            Some(r) if r.materialized && r.ecp.is_empty() => (r.data, r.din_flags),
            Some(r) if r.materialized => (r.ecp.patch(&r.data), r.din_flags),
            r => (initial_line_of(init, addr), r.map_or(0, |r| r.din_flags)),
        }
    }

    /// See [`DeviceStore::hard_error_count`].
    fn hard_error_count(&self, addr: LineAddr) -> usize {
        match self.index.get(&key_of(addr)) {
            Some(i) if self.at(*i).has_stuck => self.stuck[i].len(),
            _ => 0,
        }
    }

    /// See [`DeviceStore::din_flags`].
    fn din_flags(&self, addr: LineAddr) -> u64 {
        self.record(addr).map_or(0, |r| r.din_flags)
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
    ///
    /// # Panics
    /// As [`DeviceStore::with_init`].
    #[must_use]
    pub fn new(geometry: MemGeometry, ecp_entries: usize) -> DeviceStore {
        DeviceStore::with_init(geometry, ecp_entries, InitContent::Zeroed)
    }

    /// Creates a store with the given initial-content policy.
    ///
    /// # Panics
    /// Panics if `ecp_entries` exceeds [`MAX_ECP_ENTRIES`], the size of
    /// a line's inline table, or if a bank has more than 2^26 rows,
    /// whose lines would not fit the 32-bit index key.
    #[must_use]
    pub fn with_init(geometry: MemGeometry, ecp_entries: usize, init: InitContent) -> DeviceStore {
        assert!(
            ecp_entries <= MAX_ECP_ENTRIES,
            "ECP-{ecp_entries} exceeds the {MAX_ECP_ENTRIES}-entry table"
        );
        assert!(
            u64::from(geometry.rows_per_bank()) << SLOT_BITS <= 1 << 32,
            "{} rows per bank overflow the store's line index",
            geometry.rows_per_bank()
        );
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
        self.banks.iter().map(|b| b.materialized).sum()
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

    /// [`DeviceStore::read_line`] and [`DeviceStore::din_flags`] of a
    /// line in one index probe: what its architectural (DIN-decoded)
    /// read needs.
    #[must_use]
    pub fn read_line_and_flags(&self, addr: LineAddr) -> (LineBuf, u64) {
        self.banks[addr.bank.0 as usize].read_line_and_flags(self.init, addr)
    }

    /// Number of stuck cells planted on a line.
    #[must_use]
    pub fn hard_error_count(&self, addr: LineAddr) -> usize {
        self.banks[addr.bank.0 as usize].hard_error_count(addr)
    }

    /// The DIN inversion flags stored with a line (`0` until set).
    #[must_use]
    pub fn din_flags(&self, addr: LineAddr) -> u64 {
        self.banks[addr.bank.0 as usize].din_flags(addr)
    }

    /// Digest of all materialized device state (raw data, ECP tables,
    /// stuck cells). Each line is hashed on its own (FNV-1a over the
    /// line's address and state) and the per-line digests are combined
    /// with a commutative sum, so the value is independent of slab order
    /// *without* collecting and sorting the keys on every call. DIN
    /// flags and injection epochs are not device content and stay out.
    /// Two runs of the same seeded simulation must end with identical
    /// digests — the reproducibility tests compare this instead of
    /// dumping 8 GB.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut total: u64 = 0;
        let mut count: u64 = 0;
        for (bank, store) in self.banks.iter().enumerate() {
            for (i, line) in store.slab.iter().flatten().enumerate() {
                if !line.materialized {
                    continue;
                }
                let mut h = OFFSET;
                let mut mix = |v: u64| {
                    for byte in v.to_le_bytes() {
                        h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
                    }
                };
                mix(bank as u64);
                let (row, slot) = (line.key >> SLOT_BITS, line.key & ((1 << SLOT_BITS) - 1));
                mix(u64::from(row) << 8 | u64::from(slot));
                for &w in line.data.words() {
                    mix(w);
                }
                for e in line.ecp.entries() {
                    mix(u64::from(e.bit) << 2
                        | u64::from(e.value) << 1
                        | u64::from(e.kind == EcpKind::Hard));
                }
                if line.has_stuck {
                    for &(bit, val) in &store.stuck[&(i as u32)] {
                        mix(u64::from(bit) << 1 | u64::from(val));
                    }
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

    fn check(&self, addr: LineAddr) {
        debug_assert_eq!(addr.bank.0, self.bank_id, "address outside lane bank");
        debug_assert!(addr.row.0 < self.geometry.rows_per_bank());
        debug_assert!((addr.slot as usize) < LINES_PER_ROW);
    }

    fn line(&self, addr: LineAddr) -> Option<&LineRecord> {
        self.check(addr);
        self.bank.line(addr)
    }

    /// The slab position of `addr`'s record, materialized.
    fn touch(&mut self, addr: LineAddr) -> u32 {
        self.check(addr);
        let i = self.bank.position(self.ecp_entries, addr);
        let init = self.init;
        self.bank.materialize(i, || initial_line_of(init, addr));
        i
    }

    fn line_mut(&mut self, addr: LineAddr) -> &mut LineRecord {
        let i = self.touch(addr);
        self.bank.at_mut(i)
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

    /// [`StoreLane::raw_line`] and [`StoreLane::din_flags`] in one index
    /// probe: what DIN-encoding a write to the line needs.
    #[must_use]
    pub fn raw_line_and_flags(&self, addr: LineAddr) -> (LineBuf, u64) {
        let _t = prof::timer(Site::StoreRead);
        self.check(addr);
        match self.bank.record(addr) {
            Some(r) if r.materialized => (r.data, r.din_flags),
            r => (self.initial_line(addr), r.map_or(0, |r| r.din_flags)),
        }
    }

    /// Architectural read (see [`DeviceStore::read_line`]).
    #[must_use]
    pub fn read_line(&self, addr: LineAddr) -> LineBuf {
        self.check(addr);
        self.bank.read_line(self.init, addr)
    }

    /// Architectural read and DIN flags in one index probe (see
    /// [`DeviceStore::read_line_and_flags`]).
    #[must_use]
    pub fn read_line_and_flags(&self, addr: LineAddr) -> (LineBuf, u64) {
        self.check(addr);
        self.bank.read_line_and_flags(self.init, addr)
    }

    /// Applies a differential-write mask to the array. Stuck cells retain
    /// their stuck value regardless of the pulse applied. Returns the
    /// post-write raw contents.
    ///
    /// Wear is charged to `class` (normal data write vs correction) on
    /// this lane's bank meter.
    pub fn apply_write(&mut self, addr: LineAddr, diff: &DiffMask, class: WriteClass) -> LineBuf {
        let _t = prof::timer(Site::StoreWrite);
        let i = self.touch(addr);
        let (line, stuck) = self.bank.with_stuck(i);
        let after = line.apply(diff, stuck);
        self.bank
            .wear
            .charge_data_bits(u64::from(diff.changed_count()), class);
        after
    }

    /// Commits a demand write in one record lookup:
    /// [`StoreLane::apply_write`] under [`WriteClass::Normal`], then
    /// three metadata updates. The ECP `value` fields of hard-error
    /// entries take the bits of `intended`, the data the write was
    /// supposed to store, so reads patch stuck cells with it. The line's
    /// DIN inversion flags become `flags`. Its buffered-disturbance ECP
    /// entries are cleared: the write re-programmed those cells.
    /// Returns the post-write raw contents.
    pub fn commit_write(
        &mut self,
        addr: LineAddr,
        diff: &DiffMask,
        intended: &LineBuf,
        flags: u64,
    ) -> LineBuf {
        let _t = prof::timer(Site::StoreWrite);
        let i = self.touch(addr);
        let (line, stuck) = self.bank.with_stuck(i);
        let after = line.apply(diff, stuck);
        for &(bit, _) in stuck {
            line.ecp
                .try_record(bit, intended.bit(bit as usize), EcpKind::Hard);
        }
        line.din_flags = flags;
        line.ecp.clear_disturb();
        self.bank
            .wear
            .charge_data_bits(u64::from(diff.changed_count()), WriteClass::Normal);
        after
    }

    /// Crystallizes one cell of a line: the write-disturbance effect
    /// (an idle amorphous cell partially SETs, reading back as `1`).
    /// Returns whether the cell actually changed state — stuck cells are
    /// unaffected, and an already-crystalline cell cannot flip again.
    pub fn inject_disturb(&mut self, addr: LineAddr, bit: u16) -> bool {
        let i = self.touch(addr);
        let (line, stuck) = self.bank.with_stuck(i);
        line.disturb(bit, stuck)
    }

    /// Disturbs a line in one lookup. `draw` is handed the line's raw
    /// contents and lists candidate victim cells in `victims`; those that
    /// physically flip (as [`StoreLane::inject_disturb`] judges) stay
    /// listed, the rest are dropped. An untouched line materializes only
    /// when one of its cells flips.
    pub fn disturb_with(
        &mut self,
        addr: LineAddr,
        victims: &mut Vec<u16>,
        draw: impl FnOnce(&LineBuf, &mut Vec<u16>),
    ) {
        self.check(addr);
        let found = self.bank.index.get(&key_of(addr)).copied();
        let raw = self.bank.raw_at(found, self.init, addr);
        draw(&raw, victims);
        if !victims.is_empty() {
            let i = match found {
                Some(i) => i,
                None => self.bank.position(self.ecp_entries, addr),
            };
            // An untouched line's raw contents are its initial content.
            self.bank.materialize(i, || raw);
            let (rec, stuck) = self.bank.with_stuck(i);
            victims.retain(|&bit| rec.disturb(bit, stuck));
        }
    }

    /// [`StoreLane::disturb_with`] for a line being programmed, which
    /// also takes the line's next injection epoch: `draw` receives it
    /// with the raw contents, and its result is returned. The epoch
    /// count is kept even when no cell flips, on a record that stays
    /// unmaterialized until the line's cells are touched.
    pub fn disturb_programmed_with<R>(
        &mut self,
        addr: LineAddr,
        victims: &mut Vec<u16>,
        draw: impl FnOnce(u64, &LineBuf, &mut Vec<u16>) -> R,
    ) -> R {
        self.check(addr);
        let i = self.bank.position(self.ecp_entries, addr);
        let rec = self.bank.at_mut(i);
        let epoch = rec.inject_epoch;
        rec.inject_epoch += 1;
        let raw = self.bank.raw_at(Some(i), self.init, addr);
        let out = draw(epoch, &raw, victims);
        if !victims.is_empty() {
            // An untouched line's raw contents are its initial content.
            self.bank.materialize(i, || raw);
            let (rec, stuck) = self.bank.with_stuck(i);
            victims.retain(|&bit| rec.disturb(bit, stuck));
        }
        out
    }

    /// Injection epochs a line has used so far: the next injection from
    /// it draws from this epoch.
    #[must_use]
    pub fn inject_epoch(&self, addr: LineAddr) -> u64 {
        self.check(addr);
        self.bank.record(addr).map_or(0, |r| r.inject_epoch)
    }

    /// The DIN inversion flags stored with a line (`0` until set).
    #[must_use]
    pub fn din_flags(&self, addr: LineAddr) -> u64 {
        self.check(addr);
        self.bank.din_flags(addr)
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
        let i = self.touch(addr);
        let bank = &mut *self.bank;
        let line = &mut bank.slab[i as usize / CHUNK][i as usize % CHUNK];
        let stuck = bank.stuck.entry(i).or_default();
        if !stuck.iter().any(|&(b, _)| b == bit) {
            stuck.push((bit, stuck_val));
            line.data.set_bit(bit as usize, stuck_val);
        }
        line.has_stuck = true;
        line.ecp.try_record(bit, correct, EcpKind::Hard)
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
        self.check(addr);
        self.bank.hard_error_count(addr)
    }

    /// Charges one ECP-chip record write to this bank's wear meter.
    pub fn charge_ecp_record(&mut self) {
        self.bank.wear.charge_ecp_record();
    }
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
    use super::oracle::MapStore;
    use super::*;
    use crate::geometry::{BankId, RowId};
    use crate::wear::WriteClass;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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
        lane.commit_write(a, &diff, &data, 0);
        assert!(!lane.raw_line(a).bit(100), "stuck at 0");
        // But ECP patches the read with the intended data.
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

    #[test]
    fn epoch_records_stay_invisible() {
        let init = InitContent::Pseudorandom(7);
        let mut dev = DeviceStore::with_init(MemGeometry::small(64), 6, init);
        let empty = dev.content_digest();
        let a = addr(2, 9, 4);
        let mut lane = dev.lane_mut(2);
        let mut victims = Vec::new();
        let epoch = lane.disturb_programmed_with(a, &mut victims, |epoch, raw, _| {
            assert_eq!(*raw, initial_line_of(init, a));
            epoch
        });
        assert_eq!(epoch, 0);
        lane.disturb_with(addr(2, 10, 4), &mut victims, |_, _| {});
        assert_eq!(lane.inject_epoch(a), 1);
        assert_eq!(lane.ecp_ref(a), None);
        assert_eq!(dev.materialized_lines(), 0);
        assert_eq!(dev.content_digest(), empty);
        assert_eq!(dev.read_line(a), dev.initial_line(a));
        // Touching the cells materializes the record from the line's
        // initial content, keeping its metadata.
        let mut lane = dev.lane_mut(2);
        assert!(
            lane.disturb_programmed_with(a, &mut victims, |epoch, raw, v| {
                v.extend(raw.not().iter_ones().take(2).map(|b| b as u16));
                epoch == 1
            })
        );
        assert_eq!(victims.len(), 2);
        assert_eq!(lane.inject_epoch(a), 2);
        assert_eq!(dev.materialized_lines(), 1);
        let mut expect = dev.initial_line(a);
        for &b in &victims {
            expect.set_bit(b as usize, true);
        }
        assert_eq!(dev.read_line(a), expect);
    }

    #[test]
    fn digest_is_independent_of_slab_order() {
        let lines = [addr(0, 1, 2), addr(0, 63, 63), addr(0, 2, 1), addr(5, 1, 2)];
        let build = |order: &[usize]| {
            let mut dev = store();
            for &i in order {
                let a = lines[i];
                dev.lane_mut(a.bank.0).inject_disturb(a, i as u16);
            }
            dev.content_digest()
        };
        assert_eq!(build(&[0, 1, 2, 3]), build(&[3, 2, 1, 0]));
        assert_ne!(build(&[0, 1, 2, 3]), build(&[0, 1, 2]));
    }

    fn mix(x: u64) -> u64 {
        splitmix64(x)
    }

    /// A victim list drawn from `r`: none, or up to four cells, half the
    /// time only among cells that `raw` holds at `0`.
    fn draw_victims(r: u64, raw: &LineBuf, out: &mut Vec<u16>) {
        out.clear();
        for j in 0..r % 5 {
            let x = mix(r.wrapping_add(j));
            out.push(if x & 1 == 0 {
                (x >> 1) % 8
            } else {
                (x >> 1) % 512
            } as u16);
        }
        if r >> 63 == 1 {
            out.retain(|&b| !raw.bit(b as usize));
        }
    }

    /// Drives the slab store and the map-based oracle with the same
    /// operations and compares everything observable after each one.
    fn check_against_oracle(init: InitContent, ops: impl IntoIterator<Item = (u8, u32, u64)>) {
        let geometry = MemGeometry::small(64);
        let mut dev = DeviceStore::with_init(geometry, 4, init);
        let mut oracle = MapStore::new(geometry, 4, init);
        let mut victims = Vec::new();
        let mut expect = Vec::new();
        for (n, (op, a, r)) in ops.into_iter().enumerate() {
            // A few lines, at the corners of the key space, so that
            // operations keep meeting on the same records.
            let line = addr(
                (a % 3) as u16,
                [0, 1, 2, 31, 62, 63][(a >> 2) as usize % 6],
                [0, 1, 62, 63][(a >> 5) as usize % 4],
            );
            // Half the cells come from a few, so stuck cells, ECP entries
            // and disturbances meet.
            let bit = if r & 1 == 0 {
                (r >> 1) % 8
            } else {
                (r >> 1) % 512
            } as u16;
            let (flag, value) = (r >> 63 == 1, r >> 62 & 1 == 1);
            let at = || format!("{init:?}, op {n} (kind {}), {line}", op % 12);
            let mut lane = dev.lane_mut(line.bank.0);
            // A differential write from the raw contents to a few cells
            // rewritten, or to fresh data.
            let write_of = |raw: LineBuf| {
                let target = if op & 0x80 == 0 {
                    let mut t = raw;
                    for j in 0..4 {
                        let b = mix(r ^ j) as usize % 512;
                        t.set_bit(b, !t.bit(b));
                    }
                    t
                } else {
                    LineBuf::from_words(std::array::from_fn(|j| mix(r ^ j as u64)))
                };
                (DiffMask::between(&raw, &target), target)
            };
            match op % 12 {
                0 | 1 => {
                    let (diff, _) = write_of(lane.raw_line(line));
                    let class = [
                        WriteClass::Normal,
                        WriteClass::WordlineFix,
                        WriteClass::Correction,
                    ][(r % 3) as usize];
                    lane.apply_write(line, &diff, class);
                    oracle.apply_write(line, &diff, class);
                }
                2 => assert_eq!(
                    lane.inject_disturb(line, bit),
                    oracle.inject_disturb(line, bit),
                    "{}",
                    at()
                ),
                3 => assert_eq!(
                    lane.plant_hard_error(line, bit, flag),
                    oracle.plant_hard_error(line, bit, flag),
                    "{}",
                    at()
                ),
                4 => assert_eq!(
                    lane.plant_hard_error_with_value(line, bit, flag, value),
                    oracle.plant_hard_error_with_value(line, bit, flag, value),
                    "{}",
                    at()
                ),
                5 | 8 => {
                    // The fused commit against the four separate calls
                    // it replaces.
                    let (diff, intended) = write_of(lane.raw_line(line));
                    let after = lane.commit_write(line, &diff, &intended, r);
                    oracle.apply_write(line, &diff, WriteClass::Normal);
                    oracle.refresh_hard_values(line, &intended);
                    oracle.set_din_flags(line, r);
                    oracle.ecp_mut(line).clear_disturb();
                    assert_eq!(after, oracle.raw_line(line), "{}", at());
                }
                6 => {
                    let kind = if flag {
                        EcpKind::Hard
                    } else {
                        EcpKind::Disturb
                    };
                    assert_eq!(
                        lane.ecp_mut(line).record(bit, value, kind),
                        oracle.ecp_mut(line).record(bit, value, kind),
                        "{}",
                        at()
                    );
                }
                7 => assert_eq!(
                    lane.ecp_mut(line).clear_disturb(),
                    oracle.ecp_mut(line).clear_disturb(),
                    "{}",
                    at()
                ),
                9 => {
                    let epoch =
                        lane.disturb_programmed_with(line, &mut victims, |epoch, raw, v| {
                            draw_victims(r, raw, v);
                            epoch
                        });
                    assert_eq!(epoch, oracle.next_inject_epoch(line), "{}", at());
                    draw_victims(r, &oracle.raw_line(line), &mut expect);
                    expect.retain(|&b| oracle.inject_disturb(line, b));
                    assert_eq!(victims, expect, "{}", at());
                }
                10 => {
                    lane.disturb_with(line, &mut victims, |raw, v| draw_victims(r, raw, v));
                    draw_victims(r, &oracle.raw_line(line), &mut expect);
                    expect.retain(|&b| oracle.inject_disturb(line, b));
                    assert_eq!(victims, expect, "{}", at());
                }
                _ => {
                    lane.charge_ecp_record();
                    oracle.charge_ecp_record(line);
                }
            }
            let lane = dev.lane_mut(line.bank.0);
            assert_eq!(lane.read_line(line), oracle.read_line(line), "{}", at());
            assert_eq!(lane.raw_line(line), oracle.raw_line(line), "{}", at());
            // The fused reads against the oracle's separate calls.
            let read_and_flags = (oracle.read_line(line), oracle.din_flags(line));
            let raw_and_flags = (oracle.raw_line(line), oracle.din_flags(line));
            assert_eq!(lane.read_line_and_flags(line), read_and_flags, "{}", at());
            assert_eq!(lane.raw_line_and_flags(line), raw_and_flags, "{}", at());
            assert_eq!(lane.ecp_ref(line), oracle.ecp_ref(line), "{}", at());
            assert_eq!(lane.din_flags(line), oracle.din_flags(line), "{}", at());
            assert_eq!(
                lane.inject_epoch(line),
                oracle.inject_epoch(line),
                "{}",
                at()
            );
            assert_eq!(
                lane.hard_error_count(line),
                oracle.hard_error_count(line),
                "{}",
                at()
            );
            assert_eq!(dev.read_line(line), oracle.read_line(line), "{}", at());
            assert_eq!(dev.din_flags(line), oracle.din_flags(line), "{}", at());
            assert_eq!(dev.read_line_and_flags(line), read_and_flags, "{}", at());
            assert_eq!(dev.wear(), oracle.wear(), "{}", at());
            assert_eq!(
                dev.materialized_lines(),
                oracle.materialized_lines(),
                "{}",
                at()
            );
            assert_eq!(dev.content_digest(), oracle.content_digest(), "{}", at());
        }
    }

    const INITS: [InitContent; 2] = [InitContent::Zeroed, InitContent::Pseudorandom(11)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn slab_store_matches_map_oracle(
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u64>()), 1..400)
        ) {
            for init in INITS {
                check_against_oracle(init, ops.iter().copied());
            }
        }
    }

    /// Release-mode soak: one million operations in runs of a thousand
    /// on fresh stores (longer runs only pile up stuck cells), under
    /// each initial content in turn.
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-pcm -- --ignored"]
    fn slab_store_matches_map_oracle_soak() {
        for run in 0..1_000u32 {
            let mut rng = TestRng::for_case("device-store-soak", run);
            let ops = std::iter::repeat_with(|| {
                let a = rng.next_u64();
                (a as u8, (a >> 32) as u32, rng.next_u64())
            });
            check_against_oracle(INITS[run as usize % 2], ops.take(1_000));
        }
    }
}
