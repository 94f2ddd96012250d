//! The memory controller: queues, bank scheduling, and the VnC engine.
//!
//! Event-driven, through three calls: [`MemoryController::submit`] hands
//! in a request; [`MemoryController::run_until`] runs the banks to the
//! next time a core can observe something — its own next issue time or
//! the earliest read completion — collecting the completions due then;
//! [`MemoryController::flush`] ends the run, draining every write queue
//! and handing out every remaining completion in one call. Write
//! completions, write-job steps and idle pre-reads complete inside
//! those calls and wake no one. [`MemoryController::next_event`] (the
//! earliest bank operation or queued completion of any kind) and
//! [`MemoryController::advance`] (process up to a given time) remain for
//! drivers that poll the controller at their own times.
//!
//! Every run walks one event path: bank operations complete in global
//! `(busy_until, bank)` order, read off a per-bank calendar whose head
//! is cached, and completions leave one controller-wide queue in
//! `(at, id)` order. Each bank's logic runs as an independent lane, so
//! the order banks are visited in is unobservable — it only fixes the
//! draw order of the chaos harness — and so is how often the controller
//! is asked to advance (cadence invariance).
//!
//! Per bank (Table 2: 16 banks, 32-entry write queue per bank):
//!
//! * reads have priority and queue FIFO;
//! * writes buffer in the write queue; when it fills, the bank enters a
//!   bursty drain that blocks reads until the queue is empty (§5.1) —
//!   unless write cancellation is on, in which case reads preempt and
//!   may cancel the uncommitted write in flight;
//! * a write executes as a [`WriteJob`] — the multi-phase VnC sequence —
//!   whose steps occupy the bank back to back;
//! * with PreRead enabled, idle banks run pre-write reads for queued
//!   writes, and pre-reads whose target sits in the write queue are
//!   forwarded for free;
//! * reads that hit a queued write are forwarded from the queue.
//!
//! Modelling notes: the read-before-write of differential write is folded
//! into the write latency (Table 2 reports write latencies as-is); the
//! shared channel bus (≈8 cycles per 64 B burst) is not modelled — it is
//! two orders of magnitude below the array latencies that dominate.

use std::collections::VecDeque;

use sdpcm_engine::hash::{FxHashMap, FxHashSet};
use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{Cycle, RngStream, SimRng};
use sdpcm_osalloc::{NmRatio, VerifyPolicy};
use sdpcm_pcm::ecp::EcpKind;
use sdpcm_pcm::energy::{EnergyMeter, EnergyParams};
use sdpcm_pcm::geometry::{LineAddr, MemGeometry};
use sdpcm_pcm::line::{DiffMask, LineBuf};
use sdpcm_pcm::store::{DeviceStore, InitContent, StoreLane};
use sdpcm_pcm::timing::PcmTiming;
use sdpcm_pcm::wear::{HardErrorModel, WriteClass};
use sdpcm_wd::chaos::{ChaosAction, ChaosEngine, ChaosPlan, FaultEvent};
use sdpcm_wd::din::{DinCodec, DinFlags};
use sdpcm_wd::{DisturbanceModel, WdInjector};

use crate::calendar::{BankCalendar, DueQueue};
use crate::error::{BankSnapshot, CtrlError, CtrlSnapshot};
use crate::req::{Access, AccessKind, Completion, ReqId};
use crate::scheme::CtrlScheme;
use crate::stats::CtrlStats;
use crate::wearlevel::StartGap;
use crate::writejob::{Side, Step, WqEntry, WriteJob, MAX_JOB_STEPS};

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlConfig {
    /// PCM array timing.
    pub timing: PcmTiming,
    /// Write-queue entries per bank (Table 2: 32).
    pub write_queue_cap: usize,
    /// Writes serviced per bursty drain before the bank is released back
    /// to reads. A full queue re-triggers immediately, so sustained write
    /// pressure degenerates to back-to-back bursts; light pressure gets
    /// short, bounded read-blocking windows regardless of queue capacity.
    pub drain_burst: usize,
    /// Mechanism switches.
    pub scheme: CtrlScheme,
    /// Latency of a read forwarded from the write queue.
    pub forward_latency: Cycle,
    /// ECP entries per line (ECP-N; the paper's default is 6).
    pub ecp_entries: usize,
    /// Degradation ladder, rung 1: LazyCorrection exhaustion events a
    /// line may answer with plain verify-and-correct retries before it
    /// is escalated.
    pub ecp_retry_cap: u32,
    /// Degradation ladder, rung 3: total exhaustion events after which
    /// an escalated line is decommissioned into the salvage pool.
    /// Must exceed `ecp_retry_cap`.
    pub decommission_after: u32,
    /// Capacity of each bank's salvage pool (controller-held line
    /// buffers serving decommissioned lines at `forward_latency`).
    /// Per bank so decommission decisions stay bank-local — a
    /// requirement of order-independent bank lanes.
    pub salvage_pool_lines: usize,
}

impl CtrlConfig {
    /// Table 2 defaults with the given scheme.
    #[must_use]
    pub fn table2(scheme: CtrlScheme) -> CtrlConfig {
        CtrlConfig {
            timing: PcmTiming::table2(),
            write_queue_cap: 32,
            drain_burst: 8,
            scheme,
            forward_latency: Cycle(20),
            ecp_entries: 6,
            ecp_retry_cap: 2,
            decommission_after: 8,
            salvage_pool_lines: 64,
        }
    }

    /// Rejects configurations the controller cannot run with.
    pub fn validate(&self) -> Result<(), CtrlError> {
        if self.write_queue_cap == 0 {
            return Err(CtrlError::InvalidConfig {
                field: "write_queue_cap",
                reason: "must be > 0",
            });
        }
        if self.drain_burst == 0 {
            return Err(CtrlError::InvalidConfig {
                field: "drain_burst",
                reason: "must be > 0",
            });
        }
        if self.decommission_after <= self.ecp_retry_cap {
            return Err(CtrlError::InvalidConfig {
                field: "decommission_after",
                reason: "must exceed ecp_retry_cap so every ladder rung can fire",
            });
        }
        Ok(())
    }
}

/// Where [`MemoryController::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The front end acts at this time: its limit, or the earliest read
    /// completion if that came first. Every completion due by then was
    /// handed out.
    At(Cycle),
    /// No limit was given and no read is pending: the controller ran out
    /// of work without producing anything a blocked core could observe.
    Idle,
    /// The operation budget ran out before the wake time; carries the
    /// completion time of the next unprocessed operation.
    OutOfBudget(Cycle),
}

/// Committed-write addresses remembered as chaos-burst victim
/// candidates.
const RECENT_WRITES_CAP: usize = 64;

#[derive(Debug)]
enum BankOp {
    Read(Access),
    IdlePreRead { write_line: LineAddr, side: Side },
    Write(Box<WriteJob>),
}

#[derive(Debug, Default)]
struct Bank {
    busy_until: Cycle,
    op: Option<BankOp>,
    /// A write job set aside between phases to serve reads (write
    /// pausing); resumed when the read queue empties.
    paused: Option<Box<WriteJob>>,
    read_q: VecDeque<Access>,
    write_q: VecDeque<WqEntry>,
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
    draining: bool,
    /// Writes left in the current burst.
    drain_left: usize,
    /// End-of-run flush: drain to empty, ignoring the burst bound.
    flushing: bool,
}

impl Bank {
    /// Whether any queued write targets `addr` (O(1) index probe). The
    /// scans that need the entry itself still walk the queue, but only
    /// after this says there is something to find.
    #[inline]
    fn wq_contains(&self, addr: LineAddr) -> bool {
        !self.wq_index.is_empty() && self.wq_index.contains_key(&addr)
    }

    /// Data of the newest queued write to `addr`, if any.
    fn queued_data(&self, addr: LineAddr) -> Option<LineBuf> {
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
    fn pending_data(&self, addr: LineAddr, committed_too: bool) -> Option<LineBuf> {
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

    /// Queues `entry` at the back (a new write) or the front (a
    /// cancelled one going back), keeping the index and the open
    /// pre-read count in step.
    fn wq_push(&mut self, entry: WqEntry, front: bool) {
        *self.wq_index.entry(entry.access.addr).or_insert(0) += 1;
        self.pr_open += usize::from(entry.preread_open());
        if front {
            self.write_q.push_front(entry);
        } else {
            self.write_q.push_back(entry);
        }
    }

    /// Removes the entry at `pos` (0 pops the oldest), keeping the index
    /// and the open pre-read count in step.
    fn wq_remove(&mut self, pos: usize) -> Option<WqEntry> {
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
        Some(entry)
    }

    /// Buffers an idle-slot pre-read of `side` into the oldest queued
    /// write to `addr`, if it is still queued.
    fn wq_preread_done(&mut self, addr: LineAddr, side: Side, data: Option<LineBuf>) {
        if !self.wq_contains(addr) {
            return;
        }
        if let Some(e) = self.write_q.iter_mut().find(|e| e.access.addr == addr) {
            let was_open = e.preread_open();
            e.pr_done[side.idx()] = true;
            e.pr_buf[side.idx()] = data;
            self.pr_open -= usize::from(was_open && !e.preread_open());
        }
    }
}

/// Read-only context shared by every bank lane during processing.
///
/// Everything a lane needs that is not per-bank state: configuration,
/// geometry, the verification policy, the (pure) disturbance injector,
/// the DIN codec, and the counter-based key material for hard-error
/// planting. All of it is either a shared borrow of controller state or
/// `Copy` data.
struct LaneShared<'a> {
    cfg: &'a CtrlConfig,
    geometry: &'a MemGeometry,
    policy: &'a VerifyPolicy,
    injector: &'a WdInjector,
    codec: &'a DinCodec,
    hard_plan: Option<(HardErrorModel, f64)>,
    /// Root stream for first-touch hard-error planting; each line draws
    /// from `plant_stream.keyed(line.stream_key())`, so planting is
    /// independent of the order lines are first touched in.
    plant_stream: RngStream,
    /// Whether lanes must remember committed write addresses for the
    /// chaos harness (only while a chaos plan is installed).
    track_commits: bool,
}

/// All mutable per-bank controller state.
///
/// Each bank owns its queues, its architectural metadata (DIN flags,
/// salvage pool, degradation ladder), and — crucially — its *own
/// permanent accumulators* (statistics, energy). Per-bank accumulation
/// keeps every floating-point and histogram sum in a fixed bank-local
/// order regardless of the order lanes are processed in;
/// [`MemoryController::stats`] folds the lanes together in bank order at
/// read time, so aggregate totals are path-independent. Completions go
/// to the controller's one queue, whose `(at, id)` order does not depend
/// on which lane pushed first.
struct LaneState {
    bank_id: u16,
    bank: Bank,
    /// DIN flags of lines in this bank.
    flags: FxHashMap<LineAddr, DinFlags>,
    /// Decommissioned lines and their architectural contents, served
    /// from controller buffers at `forward_latency`.
    salvaged: FxHashMap<LineAddr, LineBuf>,
    /// LazyCorrection exhaustion events per line (degradation ladder).
    distress: FxHashMap<LineAddr, u32>,
    /// Lines past the retry cap: ECP buffering is no longer attempted.
    escalated: FxHashSet<LineAddr>,
    /// Lines whose first-touch hard errors have been planted.
    planted: FxHashSet<LineAddr>,
    /// Injection epoch per line: how many programming operations have
    /// disturbed from this line so far. Keys the injector's event
    /// stream, making each injection's draws independent of every
    /// other line's activity.
    inject_epochs: FxHashMap<LineAddr, u64>,
    /// This lane's statistics slice (bank-local accumulation order).
    stats: CtrlStats,
    /// This lane's energy slice.
    energy: EnergyMeter,
    /// First broken deep invariant seen by this lane, surfaced as a
    /// `CtrlError` at the next `submit`/`advance`.
    pending_anomaly: Option<&'static str>,
    /// Next sequence number for internal (gap-move) request IDs.
    next_internal_seq: u64,
    /// Scratch: word-line victims of the most recent injection.
    wl_scratch: Vec<u16>,
    /// Scratch: per-side bit-line victims of the most recent
    /// [`Lane::inject_for`] call — valid until the next one.
    bl_hits: [Vec<u16>; 2],
    /// Committed write addresses not yet handed to the chaos harness
    /// (only populated while a chaos plan is installed).
    recent_commits: Vec<LineAddr>,
}

impl LaneState {
    fn new(bank_id: u16) -> LaneState {
        LaneState {
            bank_id,
            bank: Bank::default(),
            flags: FxHashMap::default(),
            salvaged: FxHashMap::default(),
            distress: FxHashMap::default(),
            escalated: FxHashSet::default(),
            planted: FxHashSet::default(),
            inject_epochs: FxHashMap::default(),
            stats: CtrlStats::new(),
            energy: EnergyMeter::new(EnergyParams::default()),
            pending_anomaly: None,
            next_internal_seq: 0,
            wl_scratch: Vec::new(),
            bl_hits: [Vec::new(), Vec::new()],
            recent_commits: Vec::new(),
        }
    }

    /// The architectural (error-corrected, DIN-decoded) contents of
    /// `addr`, given its ECP-patched array read. Salvaged lines answer
    /// from their buffer without reading the array.
    fn architectural(
        &self,
        codec: &DinCodec,
        addr: LineAddr,
        patched: impl FnOnce() -> LineBuf,
    ) -> LineBuf {
        match self.salvaged.get(&addr) {
            Some(data) => *data,
            None => codec.decode(
                &patched(),
                self.flags.get(&addr).copied().unwrap_or_default(),
            ),
        }
    }

    /// Records a broken deep invariant; the first one is surfaced as a
    /// [`CtrlError::InternalAnomaly`] at the next API-boundary call.
    fn note_anomaly(&mut self, what: &'static str) {
        self.stats.internal_anomalies.inc();
        if self.pending_anomaly.is_none() {
            self.pending_anomaly = Some(what);
        }
    }

    /// Allocates a request ID for an internal (gap-move) write. IDs
    /// count down from the top of a per-bank window so they never
    /// collide with demand IDs or with another bank's internal IDs.
    fn alloc_internal_id(&mut self) -> ReqId {
        let id = u64::MAX - (u64::from(self.bank_id) << 40) - self.next_internal_seq;
        self.next_internal_seq += 1;
        ReqId(id)
    }
}

/// A bank lane: one bank's mutable state plus its disjoint slice of the
/// device store, processed against the shared read-only context. The
/// entire per-bank controller logic lives here; lanes touch nothing
/// outside their own bank (bit-line neighbours are same-bank adjacent
/// rows) except the shared completion queue, which orders its contents
/// itself, so lanes can be processed in any order.
struct Lane<'a, 's> {
    sh: &'a LaneShared<'a>,
    ls: &'a mut LaneState,
    store: &'a mut StoreLane<'s>,
    done: &'a mut DueQueue,
}

/// Clears from `patched` every cell of `line` that `job` still tracks
/// as disturbed-but-unfixed: cells of queued corrections and ECP
/// records, cascade victims awaiting verification, and injected
/// bit-line victims whose post-read has not resolved yet. Used by
/// decommissioning to reconstruct the true architectural content.
fn cleanse_job_disturbances(
    geometry: &MemGeometry,
    job: &WriteJob,
    line: LineAddr,
    patched: &mut LineBuf,
) {
    for s in &job.steps {
        match s {
            Step::Correction { line: l, cells } | Step::EcpWrite { line: l, cells }
                if *l == line =>
            {
                for &bit in cells {
                    patched.set_bit(bit as usize, false);
                }
            }
            _ => {}
        }
    }
    for (l, cells) in &job.cascade_pending {
        if *l == line {
            for &bit in cells {
                patched.set_bit(bit as usize, false);
            }
        }
    }
    let neighbors = geometry.bitline_neighbors(job.entry.access.addr);
    for side in Side::BOTH {
        if neighbors[side.idx()] == Some(line) {
            for &bit in &job.injected[side.idx()] {
                patched.set_bit(bit as usize, false);
            }
        }
    }
}

impl Lane<'_, '_> {
    /// The architectural (error-corrected, DIN-decoded) contents of a
    /// line in this bank — zero simulated time.
    fn architectural_line(&self, addr: LineAddr) -> LineBuf {
        self.ls
            .architectural(self.sh.codec, addr, || self.store.read_line(addr))
    }

    /// Queues a completion on the controller-wide queue: a read's when
    /// `data` is given, a write's otherwise.
    fn push_completion(&mut self, access: &Access, at: Cycle, data: Option<LineBuf>) {
        self.done.push(Completion {
            id: access.id,
            core: access.core,
            at,
            was_write: data.is_none(),
            data,
        });
    }

    /// Answers a read at `at` with `data`, whatever served it (salvage
    /// pool, write-queue forward or the array).
    fn complete_read(&mut self, access: &Access, at: Cycle, data: LineBuf) {
        self.ls.stats.reads.inc();
        self.ls.stats.read_latency_total += at - access.arrive;
        self.ls
            .stats
            .read_latency_sketch
            .record((at - access.arrive).0);
        self.push_completion(access, at, Some(data));
    }

    // ----- submission -----

    fn submit_read(&mut self, access: Access, now: Cycle) {
        // Decommissioned lines live in controller buffers: no bank
        // operation, no disturbance, `forward_latency` to answer.
        if let Some(data) = self.ls.salvaged.get(&access.addr).copied() {
            self.ls.stats.salvaged_reads.inc();
            self.complete_read(&access, now + self.sh.cfg.forward_latency, data);
            return;
        }
        // Forward from the write queue (newest entry wins) or from the
        // write job in flight or paused.
        if let Some(data) = self.ls.bank.pending_data(access.addr, true) {
            self.ls.stats.read_forwards.inc();
            self.complete_read(&access, now + self.sh.cfg.forward_latency, data);
            return;
        }
        self.ls.bank.read_q.push_back(access);
        // Write cancellation: a pending read cancels an uncommitted write.
        if self.sh.cfg.scheme.write_cancellation {
            self.try_cancel(now);
        }
    }

    fn submit_write(&mut self, access: Access, data: LineBuf, now: Cycle) {
        // Decommissioned lines absorb writes in their controller buffer.
        if let Some(buf) = self.ls.salvaged.get_mut(&access.addr) {
            *buf = data;
            self.ls.stats.salvaged_writes.inc();
            self.push_completion(&access, now + self.sh.cfg.forward_latency, None);
            return;
        }
        // Coalesce with a queued write to the same line.
        if self.ls.bank.wq_contains(access.addr) {
            if let Some(e) = self
                .ls
                .bank
                .write_q
                .iter_mut()
                .find(|e| e.access.addr == access.addr)
            {
                e.access.kind = AccessKind::Write(data);
                self.push_completion(&access, now, None);
                return;
            }
        }
        let need = self.static_need(&access);
        let mut entry = WqEntry::new(access, need);
        if self.sh.cfg.scheme.preread {
            self.forward_prereads(&mut entry);
        }
        self.ls.bank.wq_push(entry, false);
        if self.ls.bank.write_q.len() >= self.sh.cfg.write_queue_cap {
            self.arm_drain();
        }
    }

    fn arm_drain(&mut self) {
        if !self.ls.bank.draining {
            self.ls.stats.drains.inc();
            self.ls.bank.draining = true;
        }
        self.ls.bank.drain_left = self.ls.bank.drain_left.max(self.sh.cfg.drain_burst);
    }

    /// PreRead forwarding: if an adjacent line of `entry` has a pending
    /// write in the queue, its up-to-date data is forwarded — no bank
    /// operation needed (§4.3).
    fn forward_prereads(&mut self, entry: &mut WqEntry) {
        let neighbors = self.sh.geometry.bitline_neighbors(entry.access.addr);
        for side in Side::BOTH {
            if entry.pr_done[side.idx()] {
                continue;
            }
            let Some(n) = neighbors[side.idx()] else {
                continue;
            };
            if let Some(data) = self.ls.bank.queued_data(n) {
                entry.pr_done[side.idx()] = true;
                entry.pr_buf[side.idx()] = Some(data);
                self.ls.stats.preread_forwards.inc();
            }
        }
    }

    // ----- scheduling -----

    fn dispatch(&mut self, now: Cycle) {
        if self.ls.bank.op.is_some() {
            return;
        }
        let wc = self.sh.cfg.scheme.write_cancellation;
        let wp = self.sh.cfg.scheme.write_pausing;
        loop {
            let b = &mut self.ls.bank;
            if b.draining {
                if wc || wp {
                    if let Some(access) = b.read_q.pop_front() {
                        self.start_read(access, now);
                        return;
                    }
                }
                if self.resume_paused(now) {
                    return;
                }
                // Service one burst's worth of writes, then release the
                // bank back to reads (end-of-run flushes go all the way).
                let b = &mut self.ls.bank;
                if b.drain_left > 0 || b.flushing {
                    if let Some(entry) = b.wq_remove(0) {
                        b.drain_left = b.drain_left.saturating_sub(1);
                        self.start_write(entry, now);
                        return;
                    }
                }
                b.draining = false;
                b.flushing = false;
                continue;
            }
            if let Some(access) = b.read_q.pop_front() {
                self.start_read(access, now);
                return;
            }
            if self.resume_paused(now) {
                return;
            }
            if self.ls.bank.write_q.len() >= self.sh.cfg.write_queue_cap {
                self.arm_drain();
                continue;
            }
            if self.sh.cfg.scheme.preread && self.try_issue_preread(now) {
                return;
            }
            return; // idle
        }
    }

    fn start_read(&mut self, access: Access, now: Cycle) {
        self.ls.bank.busy_until = now + self.sh.cfg.timing.read;
        self.ls.bank.op = Some(BankOp::Read(access));
    }

    fn start_write(&mut self, entry: WqEntry, now: Cycle) {
        let [up, down] = self.verify_need(&entry);
        let job = WriteJob::new(entry, up, down, self.sh.cfg.scheme.own_line_verify);
        self.run_step(Box::new(job), now);
    }

    /// Puts the paused write job (if any) back on the bank.
    fn resume_paused(&mut self, now: Cycle) -> bool {
        let Some(job) = self.ls.bank.paused.take() else {
            return false;
        };
        self.run_step(job, now);
        true
    }

    /// Occupies the bank with the job's front step from `now`.
    fn run_step(&mut self, mut job: Box<WriteJob>, now: Cycle) {
        let dur = self.step_duration(&mut job);
        self.ls.bank.busy_until = now + dur;
        self.ls.bank.op = Some(BankOp::Write(job));
    }

    /// Which neighbours of a write may need verification, indexed by
    /// [`Side::idx`], as far as it is fixed when the write is queued:
    /// scheme VnC off → none; otherwise the (n:m) policy decides, and
    /// physically absent neighbours (bank edges) never need it.
    fn static_need(&self, access: &Access) -> [bool; 2] {
        if !self.sh.cfg.scheme.vnc {
            return [false, false];
        }
        let strip = self.sh.geometry.strip_of(access.addr);
        let need = self.sh.policy.need(access.ratio, strip);
        let nb = self.sh.geometry.bitline_neighbors(access.addr);
        [need.up && nb[0].is_some(), need.down && nb[1].is_some()]
    }

    /// Which neighbours of a queued write need verification now: its
    /// static need minus decommissioned neighbours (served from the
    /// salvage pool, nothing architectural to protect).
    fn verify_need(&self, entry: &WqEntry) -> [bool; 2] {
        let nb = self.sh.geometry.bitline_neighbors(entry.access.addr);
        let live = |side: Side| {
            entry.need[side.idx()]
                && nb[side.idx()].is_some_and(|n| !self.ls.salvaged.contains_key(&n))
        };
        [live(Side::Up), live(Side::Down)]
    }

    fn try_issue_preread(&mut self, now: Cycle) -> bool {
        // Oldest queued write with an outstanding, needed pre-read. The
        // cached static need rules most entries out without a lookup;
        // only a candidate rechecks the salvage pool. Pools only grow,
        // so the static need covers the live one and the choice is the
        // one a full re-derivation per entry would make.
        if self.ls.bank.pr_open == 0 {
            return false;
        }
        let cap = self.sh.cfg.write_queue_cap;
        let target = self.ls.bank.write_q.iter().take(cap).find_map(|e| {
            if !e.preread_open() {
                return None;
            }
            let need = self.verify_need(e);
            Side::BOTH
                .into_iter()
                .find(|side| need[side.idx()] && !e.pr_done[side.idx()])
                .map(|side| (e.access.addr, side))
        });
        let Some((write_line, side)) = target else {
            return false;
        };
        self.ls.bank.busy_until = now + self.sh.cfg.timing.read;
        self.ls.bank.op = Some(BankOp::IdlePreRead { write_line, side });
        true
    }

    /// Cancels the uncommitted write in flight on this bank, if any
    /// (§6.8).
    ///
    /// A cancellation during the array-write phase leaves physically
    /// disturbed cells in the adjacent lines (the RESET pulses already
    /// fired). Serving a read from such a line before the retried write
    /// verifies it would return corrupt data, so the collateral must be
    /// absorbed into the victims' ECP entries at cancel time; when the
    /// entries do not fit (or LazyCorrection is off), the cancellation is
    /// *denied* and the write runs to completion — the paper's own
    /// warning that "canceling writes in super dense PCM is not
    /// desirable" (§6.8) made concrete.
    fn try_cancel(&mut self, now: Cycle) {
        let cancel = matches!(
            &self.ls.bank.op,
            Some(BankOp::Write(job)) if !job.committed
        );
        if !cancel {
            return;
        }
        // Peek: can the array-write collateral be absorbed?
        if let Some(BankOp::Write(job)) = &self.ls.bank.op {
            if matches!(job.steps.front(), Some(Step::ArrayWrite)) {
                let addr = job.entry.access.addr;
                let Some(diff) = job.diff else {
                    // The diff is computed when the phase is scheduled;
                    // its absence is a bookkeeping bug. Deny the cancel
                    // (the write runs to completion) and surface it.
                    self.ls
                        .note_anomaly("array-write phase in flight without its diff");
                    return;
                };
                if !self.absorb_cancel_collateral(addr, &diff) {
                    return; // denied: corruption could not be buffered
                }
            }
        }
        match self.ls.bank.op.take() {
            Some(BankOp::Write(job)) => {
                self.ls.stats.write_cancellations.inc();
                self.ls.bank.wq_push(job.entry, true);
                self.ls.bank.busy_until = now;
                self.dispatch(now);
            }
            other => {
                self.ls.bank.op = other;
                self.ls
                    .note_anomaly("cancellation target changed type mid-check");
            }
        }
    }

    /// Rolls the disturbance of a half-finished (cancelled) array write
    /// and buffers every bit-line victim in its line's ECP table.
    /// Returns `false` — without injecting — when the victims cannot all
    /// be buffered. Own-line word-line flips need no buffering: reads of
    /// the line are forwarded from the queued write's data, and the
    /// retried differential write re-programs the flipped cells.
    fn absorb_cancel_collateral(&mut self, addr: LineAddr, diff: &DiffMask) -> bool {
        if !self.sh.cfg.scheme.lazy_correction {
            // Without LazyC there is no place to buffer the victims.
            // Only disturbance-free cancellations can proceed.
            let neighbors = self.sh.geometry.bitline_neighbors(addr);
            let would_disturb = neighbors.iter().flatten().any(|n| {
                let raw = self.store.raw_line(*n);
                sdpcm_wd::pattern::bitline_any_vulnerable(diff, &raw)
            });
            if would_disturb {
                return false;
            }
        }
        // Check capacity first (no side effects on denial).
        let neighbors = self.sh.geometry.bitline_neighbors(addr);
        for n in neighbors.iter().flatten() {
            let raw = self.store.raw_line(*n);
            let vulnerable = sdpcm_wd::pattern::bitline_vulnerable_count(diff, &raw);
            let free = self
                .store
                .ecp_ref(*n)
                .map_or(self.sh.cfg.ecp_entries, |t| t.free_slots());
            if vulnerable > free {
                return false;
            }
        }
        // Inject and buffer. The own-line word-line victims need no
        // handling here (reads forward from the queued entry, and the
        // retried write re-programs them). The retried write's injection
        // draws come from the line's next epoch, so the cancelled
        // epoch's draws stay consumed exactly once.
        let _ = self.inject_for(addr, diff, None);
        for side in Side::BOTH {
            if let Some(n) = neighbors[side.idx()] {
                let cells = std::mem::take(&mut self.ls.bl_hits[side.idx()]);
                if !cells.is_empty() {
                    self.record_ecp(n, &cells);
                }
                self.ls.bl_hits[side.idx()] = cells;
            }
        }
        true
    }

    // ----- execution -----

    fn complete_op(&mut self, at: Cycle) {
        let Some(op) = self.ls.bank.op.take() else {
            self.ls.note_anomaly("completion fired on an idle bank");
            return;
        };
        match op {
            BankOp::Read(access) => {
                self.ls.energy.charge_read(512, false);
                let data = self.architectural_line(access.addr);
                self.complete_read(&access, at, data);
            }
            BankOp::IdlePreRead { write_line, side } => {
                self.ls.energy.charge_read(512, true);
                let data = self.sh.geometry.bitline_neighbors(write_line)[side.idx()]
                    .map(|n| self.architectural_line(n));
                self.ls.bank.wq_preread_done(write_line, side, data);
                self.ls.stats.prereads_issued.inc();
            }
            BankOp::Write(mut job) => {
                self.finish_step(&mut job, at);
                job.steps_done += 1;
                if job.steps_done >= MAX_JOB_STEPS {
                    self.ls.stats.cascade_overflows.inc();
                    job.steps.clear();
                }
                if job.steps.is_empty() {
                    // Job done; completion was pushed at commit.
                } else if self.sh.cfg.scheme.write_pausing
                    && !self.ls.bank.read_q.is_empty()
                    && self.pause_is_safe(&job)
                {
                    // Set the job aside between phases so the pending
                    // reads go first; dispatch resumes it afterwards.
                    self.ls.stats.write_pauses.inc();
                    self.ls.bank.paused = Some(job);
                } else {
                    self.run_step(job, at);
                }
            }
        }
    }

    /// Computes the duration of the job's front step, performing the
    /// pure pre-computation (DIN encode + diff) for array writes.
    fn step_duration(&mut self, job: &mut WriteJob) -> Cycle {
        let t = self.sh.cfg.timing;
        let Some(step) = job.steps.front() else {
            self.ls
                .note_anomaly("write job scheduled with no remaining step");
            return Cycle(1);
        };
        match step {
            Step::PreRead(_) | Step::OwnVerify | Step::PostRead(_) | Step::CascadeVerify(_) => {
                t.read
            }
            Step::ArrayWrite => {
                let addr = job.entry.access.addr;
                let AccessKind::Write(plain) = job.entry.access.kind else {
                    self.ls
                        .note_anomaly("array-write step on a non-write access");
                    return t.read;
                };
                self.plant_hard(addr);
                let raw_old = self.store.raw_line(addr);
                let old_flags = self.ls.flags.get(&addr).copied().unwrap_or_default();
                let (encoded, new_flags) = self.sh.codec.encode(&plain, &raw_old, old_flags);
                let diff = DiffMask::between(&raw_old, &encoded);
                let dur = t.write_latency(&diff);
                job.diff = Some(diff);
                job.encoded = Some(encoded);
                job.new_flags = new_flags;
                dur
            }
            Step::OwnFix => t.correction_latency(job.pending_wl.len() as u32),
            Step::EcpWrite { .. } => t.reset_pulse,
            Step::Correction { cells, .. } => t.correction_latency(cells.len() as u32),
        }
    }

    /// Applies the side effects of the completed front step and extends
    /// the program as VnC demands.
    fn finish_step(&mut self, job: &mut WriteJob, at: Cycle) {
        let Some(step) = job.steps.pop_front() else {
            self.ls
                .note_anomaly("write job completed with no step to finish");
            return;
        };
        let t = self.sh.cfg.timing;
        let addr = job.entry.access.addr;
        match step {
            Step::PreRead(side) => {
                self.ls.stats.phases.pre_reads += t.read;
                self.ls.energy.charge_read(512, true);
                let data = self.sh.geometry.bitline_neighbors(addr)[side.idx()]
                    .map(|n| self.architectural_line(n));
                job.entry.pr_done[side.idx()] = true;
                job.entry.pr_buf[side.idx()] = data;
            }
            Step::ArrayWrite => {
                let (Some(diff), Some(encoded)) = (job.diff.take(), job.encoded.take()) else {
                    self.ls
                        .note_anomaly("array write lost its precomputed encoding");
                    job.steps.clear();
                    return;
                };
                let dur = t.write_latency(&diff);
                self.ls.stats.phases.array_writes += dur;
                self.ls
                    .energy
                    .charge_write(diff.set_count(), diff.reset_count(), false);
                self.store.apply_write(addr, &diff, WriteClass::Normal);
                self.store.refresh_hard_values(addr, &encoded);
                self.ls.flags.insert(addr, job.new_flags);
                // A normal write clears the line's own buffered WD errors
                // (LazyCorrection consolidation, §4.2).
                self.store.ecp_mut(addr).clear_disturb();
                job.committed = true;
                self.ls.stats.writes.inc();
                self.push_completion(&job.entry.access, at, None);
                // Disturbance injection.
                let wl = self.inject_for(addr, &diff, Some(&mut job.pending_wl));
                self.ls.stats.wl_errors.record(wl as u64);
                let neighbors = self.sh.geometry.bitline_neighbors(addr);
                for side in Side::BOTH {
                    if neighbors[side.idx()].is_some() {
                        self.ls
                            .stats
                            .bl_errors_per_neighbor
                            .record(self.ls.bl_hits[side.idx()].len() as u64);
                    }
                    job.injected[side.idx()].extend_from_slice(&self.ls.bl_hits[side.idx()]);
                }
                // Chaos bookkeeping: the controller drains these after
                // each completed operation (only while a plan is
                // installed).
                if self.sh.track_commits {
                    self.ls.recent_commits.push(addr);
                }
            }
            Step::OwnVerify => {
                self.ls.stats.phases.own_verifies += t.read;
                self.ls.energy.charge_read(512, true);
                if !job.pending_wl.is_empty() {
                    job.steps.push_front(Step::OwnFix);
                }
            }
            Step::OwnFix => {
                let _t = prof::timer(Site::CtrlCorrect);
                let cells = std::mem::take(&mut job.pending_wl);
                let dur = t.correction_latency(cells.len() as u32);
                self.ls.stats.phases.own_fixes += dur;
                let fix = DiffMask::reset_only_cells(&cells);
                self.ls.energy.charge_write(0, fix.reset_count(), true);
                self.store.apply_write(addr, &fix, WriteClass::WordlineFix);
                // The fix's RESET pulses disturb again.
                let _ = self.inject_for(addr, &fix, Some(&mut job.pending_wl));
                for side in Side::BOTH {
                    job.injected[side.idx()].extend_from_slice(&self.ls.bl_hits[side.idx()]);
                }
                if !job.pending_wl.is_empty() {
                    job.steps.push_front(Step::OwnFix);
                }
            }
            Step::PostRead(side) => {
                self.ls.stats.phases.post_reads += t.read;
                self.ls.stats.verification_ops.inc();
                self.ls.energy.charge_read(512, true);
                let Some(neighbor) = self.sh.geometry.bitline_neighbors(addr)[side.idx()] else {
                    return;
                };
                let new_errors = std::mem::take(&mut job.injected[side.idx()]);
                self.resolve_verification(job, neighbor, new_errors, at);
            }
            Step::CascadeVerify(line) => {
                self.ls.stats.phases.cascade_reads += t.read;
                self.ls.stats.verification_ops.inc();
                self.ls.stats.cascade_rounds.inc();
                self.ls.energy.charge_read(512, true);
                let new_errors = job.take_cascade(line);
                self.resolve_verification(job, line, new_errors, at);
            }
            Step::EcpWrite { line, cells } => {
                self.ls.stats.phases.ecp_writes += t.reset_pulse;
                self.record_ecp(line, &cells);
            }
            Step::Correction { line, cells } => {
                let _t = prof::timer(Site::CtrlCorrect);
                let dur = t.correction_latency(cells.len() as u32);
                self.ls.stats.phases.corrections += dur;
                self.ls.stats.correction_ops.inc();
                self.ls.stats.corrected_cells.add(cells.len() as u64);
                let fix = DiffMask::reset_only_cells(&cells);
                self.ls.energy.charge_write(0, fix.reset_count(), true);
                self.store.apply_write(line, &fix, WriteClass::Correction);
                self.store.ecp_mut(line).clear_disturb();
                // The correction's RESET pulses disturb the corrected
                // line's own word-line cells and its bit-line neighbours:
                // cascading verification (§3.2).
                let mut own_wl = Vec::new();
                let _ = self.inject_for(line, &fix, Some(&mut own_wl));
                if !own_wl.is_empty() {
                    job.add_cascade(line, own_wl);
                    if !job.has_cascade_step(line) {
                        job.steps.push_front(Step::CascadeVerify(line));
                    }
                }
                let strip = self.sh.geometry.strip_of(line);
                let need = self.sh.policy.need(job.entry.access.ratio, strip);
                let neighbors = self.sh.geometry.bitline_neighbors(line);
                for side in Side::BOTH {
                    let victims = &self.ls.bl_hits[side.idx()];
                    if victims.is_empty() {
                        continue;
                    }
                    let needed = match side {
                        Side::Up => need.up,
                        Side::Down => need.down,
                    };
                    if !needed {
                        continue; // no-use strip: nothing to protect
                    }
                    let Some(n) = neighbors[side.idx()] else {
                        continue;
                    };
                    job.add_cascade(n, victims.clone());
                    if !job.has_cascade_step(n) {
                        job.steps.push_front(Step::CascadeVerify(n));
                    }
                }
            }
        }
    }

    /// Injects disturbances for a committed programming operation on
    /// `addr`: word-line victims inside the line (appended to `wl_out`
    /// when given) and bit-line victims in both physical neighbours,
    /// left in `self.ls.bl_hits` until the next call. Returns the
    /// word-line victim count.
    ///
    /// Every injection draws from the injector's *event stream* keyed
    /// by `(line, epoch)` — the line's stable address key plus a
    /// per-line count of programming operations — so the outcome
    /// depends only on the line's own history, never on what other
    /// lines (or banks) did in between. All buffers are lane-held
    /// scratch — the hot path allocates nothing once their capacities
    /// have grown.
    fn inject_for(
        &mut self,
        addr: LineAddr,
        diff: &DiffMask,
        wl_out: Option<&mut Vec<u16>>,
    ) -> usize {
        let epoch = {
            let e = self.ls.inject_epochs.entry(addr).or_insert(0);
            let epoch = *e;
            *e += 1;
            epoch
        };
        let ev = self.sh.injector.event(addr.stream_key(), epoch);
        let after = self.store.raw_line(addr);
        let mut wl = std::mem::take(&mut self.ls.wl_scratch);
        self.sh
            .injector
            .draw_wordline_into(&ev, &after, diff, &mut wl);
        // Only cells that physically flipped count: stuck cells cannot
        // crystallize, and the hardware's pre/post-read comparison would
        // show no change for them either.
        wl.retain(|&bit| self.store.inject_disturb(addr, bit));
        let wl_count = wl.len();
        if let Some(out) = wl_out {
            out.extend_from_slice(&wl);
        }
        self.ls.wl_scratch = wl;
        let neighbors = self.sh.geometry.bitline_neighbors(addr);
        for side in Side::BOTH {
            let mut victims = std::mem::take(&mut self.ls.bl_hits[side.idx()]);
            victims.clear();
            if let Some(n) = neighbors[side.idx()] {
                // Decommissioned lines are no longer programmed in the
                // array, so they can neither disturb nor be disturbed.
                if !self.ls.salvaged.contains_key(&n) {
                    let raw = self.store.raw_line(n);
                    self.sh
                        .injector
                        .draw_bitline_into(&ev, side.idx(), diff, &raw, &mut victims);
                    victims.retain(|&bit| self.store.inject_disturb(n, bit));
                }
            }
            self.ls.bl_hits[side.idx()] = victims;
        }
        wl_count
    }

    /// LazyCorrection-or-correct decision after a verification read found
    /// `new_errors` in `line` (§4.2), extended with the graceful
    /// degradation ladder for ECP exhaustion:
    ///
    /// 1. **Bounded retry** — the first `ecp_retry_cap` exhaustions on a
    ///    line fall back to an immediate verify-and-correct pass but keep
    ///    LazyCorrection armed (the next errors may again fit the table).
    /// 2. **Escalation** — past the cap the line stops attempting ECP
    ///    buffering entirely; every new error is corrected on the spot.
    /// 3. **Decommission** — a line that keeps accumulating distress even
    ///    under immediate correction is remapped into the salvage pool.
    fn resolve_verification(
        &mut self,
        job: &mut WriteJob,
        line: LineAddr,
        new_errors: Vec<u16>,
        at: Cycle,
    ) {
        let _t = prof::timer(Site::CtrlVerify);
        if self.ls.salvaged.contains_key(&line) {
            return;
        }
        self.plant_hard_excluding(line, &new_errors);
        self.ls
            .stats
            .errors_per_verification
            .record(new_errors.len() as u64);
        if new_errors.is_empty() {
            return;
        }
        let free_slots = self
            .store
            .ecp_ref(line)
            .map_or(self.sh.cfg.ecp_entries, |t| t.free_slots());
        if self.sh.cfg.scheme.lazy_correction {
            if self.ls.escalated.contains(&line) {
                // Rung 2: buffering is abandoned for this line; count
                // distress toward the decommission threshold.
                let d = self.ls.distress.entry(line).or_insert(0);
                *d += 1;
                let d = *d;
                if d >= self.sh.cfg.decommission_after
                    && self.try_decommission(line, job, &new_errors, at)
                {
                    return;
                }
                self.ls.stats.immediate_corrections.inc();
            } else if new_errors.len() <= free_slots {
                if self.sh.cfg.scheme.ecp_write_inline {
                    job.steps.push_front(Step::EcpWrite {
                        line,
                        cells: new_errors,
                    });
                } else {
                    // The record targets the separate ECP chip and overlaps
                    // with the bank's next data operation.
                    self.record_ecp(line, &new_errors);
                }
                return;
            } else {
                // The table cannot absorb this batch.
                self.ls.stats.ecp_exhaustions.inc();
                let d = self.ls.distress.entry(line).or_insert(0);
                *d += 1;
                if *d <= self.sh.cfg.ecp_retry_cap {
                    // Rung 1: correct now, retry buffering next time.
                    self.ls.stats.correction_retries.inc();
                } else {
                    self.ls.escalated.insert(line);
                    self.ls.stats.immediate_corrections.inc();
                }
            }
        }
        // Correct everything: the new errors plus any buffered ones.
        let mut cells: Vec<u16> = self
            .store
            .ecp_ref(line)
            .map(|t| {
                t.entries()
                    .iter()
                    .filter(|e| e.kind == EcpKind::Disturb)
                    .map(|e| e.bit)
                    .collect()
            })
            .unwrap_or_default();
        cells.extend(new_errors);
        cells.sort_unstable();
        cells.dedup();
        job.steps.push_front(Step::Correction { line, cells });
    }

    /// Attempts to retire `line` from the array into the bank's salvage
    /// pool. Refuses when the pool is full or when the in-flight job (or
    /// its paused sibling) still targets the line. Returns `true` when
    /// the line was decommissioned.
    fn try_decommission(
        &mut self,
        line: LineAddr,
        job: &mut WriteJob,
        new_errors: &[u16],
        at: Cycle,
    ) -> bool {
        if self.ls.salvaged.len() >= self.sh.cfg.salvage_pool_lines {
            self.ls.stats.salvage_rejections.inc();
            return false;
        }
        if job.entry.access.addr == line {
            return false;
        }
        if let Some(paused) = &self.ls.bank.paused {
            if paused.entry.access.addr == line {
                return false;
            }
        }
        // Reconstruct the architectural content: raw array bits, minus
        // every disturbance the controller knows about (WD only flips
        // 0 -> 1, so their correct value is 0), DIN-decoded. "Knows
        // about" spans more than `new_errors`: the in-flight job (and a
        // paused sibling) may still hold unserved fixes for this line —
        // queued `Correction`/`EcpWrite` cells, cascade victims awaiting
        // their verify, and injected-but-not-yet-post-read neighbour
        // victims. Those steps are dropped below, so their cells must be
        // cleansed here or the crystallized bits would be frozen into the
        // salvage snapshot as data.
        let mut patched = self.store.read_line(line);
        for &bit in new_errors {
            patched.set_bit(bit as usize, false);
        }
        cleanse_job_disturbances(self.sh.geometry, job, line, &mut patched);
        if let Some(paused) = &self.ls.bank.paused {
            cleanse_job_disturbances(self.sh.geometry, paused, line, &mut patched);
        }
        let data = self.ls.architectural(self.sh.codec, line, || patched);
        self.ls.salvaged.insert(line, data);
        self.ls.distress.remove(&line);
        self.ls.escalated.remove(&line);
        self.ls.stats.decommissions.inc();
        // The job owes the line no further maintenance.
        job.steps.retain(|s| {
            !matches!(s,
                Step::Correction { line: l, .. }
                | Step::EcpWrite { line: l, .. }
                | Step::CascadeVerify(l) if *l == line)
        });
        job.cascade_pending.retain(|(l, _)| *l != line);
        // Absorb any queued write to the line (coalescing keeps at most
        // one) so its requester still sees a completion.
        let removed = {
            let b = &mut self.ls.bank;
            if b.wq_contains(line) {
                b.write_q
                    .iter()
                    .position(|e| e.access.addr == line)
                    .and_then(|pos| b.wq_remove(pos))
            } else {
                None
            }
        };
        if let Some(e) = removed {
            if let Some(d) = e.access.kind.write_data() {
                self.ls.salvaged.insert(line, d);
            }
            self.push_completion(&e.access, at + self.sh.cfg.forward_latency, None);
        }
        true
    }

    /// Records buffered-WD cells into a line's ECP table, charging the
    /// ECP chip's wear (10 bits per record). The correct value of a
    /// disturbed cell is always `0` — WD only crystallizes amorphous
    /// cells. A record that overflows despite the earlier capacity check
    /// (a racing hard error can steal the slot) degrades to a direct
    /// RESET fix of the cell.
    fn record_ecp(&mut self, line: LineAddr, cells: &[u16]) {
        for &bit in cells {
            match self
                .store
                .ecp_mut(line)
                .record(bit, false, EcpKind::Disturb)
            {
                Ok(()) => {
                    self.store.charge_ecp_record();
                    self.ls.stats.ecp_records.inc();
                }
                Err(_) => {
                    self.ls.stats.ecp_overflow_fixes.inc();
                    let fix = DiffMask::reset_only_cells(&[bit]);
                    self.store.apply_write(line, &fix, WriteClass::Correction);
                }
            }
        }
    }

    /// Whether pausing `job` now would let a pending read observe a
    /// physically disturbed, not-yet-verified line. Before the array
    /// write commits there is no collateral (and reads of the write's
    /// own line are forwarded from the queue entry); after commit, the
    /// job's unverified victims — neighbours with injected errors and
    /// cascade-pending lines — are off limits.
    fn pause_is_safe(&self, job: &WriteJob) -> bool {
        if !job.committed {
            return true;
        }
        let neighbors = self.sh.geometry.bitline_neighbors(job.entry.access.addr);
        // Hazard predicate evaluated per queued read — avoids
        // materializing the hazard list on every pause check.
        let is_hazard = |addr: LineAddr| -> bool {
            for side in Side::BOTH {
                if !job.injected[side.idx()].is_empty() && neighbors[side.idx()] == Some(addr) {
                    return true;
                }
            }
            if job.cascade_pending.iter().any(|(l, _)| *l == addr) {
                return true;
            }
            // Lines awaiting a queued correction / ECP record / cascade
            // verify are also physically dirty until their step runs.
            if job.steps.iter().any(|s| {
                matches!(s,
                    Step::Correction { line, .. }
                    | Step::EcpWrite { line, .. }
                    | Step::CascadeVerify(line) if *line == addr)
            }) {
                return true;
            }
            !job.pending_wl.is_empty() && job.entry.access.addr == addr
        };
        self.ls.bank.read_q.iter().all(|r| !is_hazard(r.addr))
    }

    /// First-touch hard-error planting for the DIMM-aging experiments.
    fn plant_hard(&mut self, line: LineAddr) {
        self.plant_hard_excluding(line, &[]);
    }

    /// First-touch hard-error planting; cells listed in `known_errors`
    /// are raw-disturbed but architecturally `0`, so a fault landing on
    /// one must record `0` as the correct value, not the corrupted raw
    /// bit.
    ///
    /// Draws come from the plant stream keyed by the line's address, so
    /// a line's planted faults are a pure function of `(seed, line,
    /// age)` — independent of which other lines were touched first.
    fn plant_hard_excluding(&mut self, line: LineAddr, known_errors: &[u16]) {
        let Some((model, age)) = self.sh.hard_plan else {
            return;
        };
        if !self.ls.planted.insert(line) {
            return;
        }
        let mut rng = self.sh.plant_stream.keyed(line.stream_key()).sequence();
        let k = model.sample_line_errors(age, &mut rng);
        for _ in 0..k {
            let bit = rng.below(512) as u16;
            let stuck = rng.chance(0.5);
            if known_errors.contains(&bit) {
                self.store
                    .plant_hard_error_with_value(line, bit, stuck, false);
            } else {
                self.store.plant_hard_error(line, bit, stuck);
            }
        }
    }
}

/// The memory controller.
pub struct MemoryController {
    cfg: CtrlConfig,
    geometry: MemGeometry,
    store: DeviceStore,
    policy: VerifyPolicy,
    injector: WdInjector,
    codec: DinCodec,
    /// Per-bank lanes: queues, architectural metadata, and accumulator
    /// slices. Aggregate views ([`MemoryController::stats`]) fold them
    /// in bank order.
    lanes: Vec<LaneState>,
    hard_plan: Option<(HardErrorModel, f64)>,
    /// Root stream for first-touch hard-error planting (keyed per line).
    plant_stream: RngStream,
    start_gap: Option<Vec<StartGap>>,
    chaos: Option<ChaosEngine>,
    /// Sequential RNG for chaos victim selection — bank operations
    /// complete in one global order, so a shared draw order is
    /// well-defined.
    chaos_rng: SimRng,
    fault_log: Vec<FaultEvent>,
    /// Recently committed write targets — the victim pool for chaos
    /// stuck-at bursts (bounded, deterministic order).
    recent_writes: VecDeque<LineAddr>,
    /// Every queued completion, popped in `(at, id)` order.
    completions: DueQueue,
    /// When each occupied bank's operation completes; written only at
    /// the exit of [`MemoryController::with_lane`].
    calendar: BankCalendar,
    /// Whether some lane holds an anomaly not yet surfaced, so
    /// `take_anomaly` scans the lanes only when there is one to find.
    anomaly_pending: bool,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("banks", &self.lanes.len())
            .field("scheme", &self.cfg.scheme)
            .finish()
    }
}

impl MemoryController {
    /// Builds a controller owning the device store.
    ///
    /// `rng` seeds both the disturbance injector and hard-error
    /// placement; two controllers built with equal arguments behave
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`CtrlConfig::validate`] rejects; use
    /// [`MemoryController::try_new`] for configurations taken from
    /// user input.
    #[must_use]
    pub fn new(cfg: CtrlConfig, geometry: MemGeometry, rng: SimRng) -> MemoryController {
        MemoryController::try_new(cfg, geometry, rng).expect("valid controller configuration")
    }

    /// Fallible [`MemoryController::new`].
    pub fn try_new(
        cfg: CtrlConfig,
        geometry: MemGeometry,
        mut rng: SimRng,
    ) -> Result<MemoryController, CtrlError> {
        cfg.validate()?;
        // Lines hold (pseudorandom) program data before the first
        // simulated write reaches them — see `InitContent`.
        let init = InitContent::Pseudorandom(rng.derive("init-content").next_u64());
        let store = DeviceStore::with_init(geometry, cfg.ecp_entries, init);
        let injector = WdInjector::new(
            &DisturbanceModel::calibrated(),
            cfg.scheme.spacing,
            rng.derive("injector"),
        );
        let plant_stream = rng.derive_stream("hard-plant");
        Ok(MemoryController {
            cfg,
            geometry,
            store,
            policy: VerifyPolicy::new(geometry.strips()),
            injector,
            codec: DinCodec::paper_default(),
            lanes: (0..geometry.banks()).map(LaneState::new).collect(),
            hard_plan: None,
            plant_stream,
            start_gap: cfg.scheme.start_gap_psi.map(|psi| {
                // One region per bank over all lines but the spare slot:
                // n logical lines, n + 1 physical slots.
                let n = u64::from(geometry.rows_per_bank())
                    * sdpcm_pcm::geometry::LINES_PER_ROW as u64
                    - 1;
                (0..geometry.banks())
                    .map(|_| StartGap::new(n, psi))
                    .collect()
            }),
            chaos: None,
            chaos_rng: rng,
            fault_log: Vec::new(),
            recent_writes: VecDeque::new(),
            completions: DueQueue::default(),
            calendar: BankCalendar::new(geometry.banks() as usize),
            anomaly_pending: false,
        })
    }

    /// Controller configuration.
    #[must_use]
    pub fn config(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// Statistics collected so far — the per-bank lane slices folded in
    /// bank order, so the totals are identical no matter which order
    /// lanes were processed in.
    #[must_use]
    pub fn stats(&self) -> CtrlStats {
        let mut total = CtrlStats::new();
        for lane in &self.lanes {
            total.merge(&lane.stats);
        }
        total
    }

    /// The device store (wear counters, ECP state, raw cells).
    #[must_use]
    pub fn store(&self) -> &DeviceStore {
        &self.store
    }

    /// Energy accounting (demand vs mitigation overhead), folded from
    /// the per-bank lane slices in bank order.
    #[must_use]
    pub fn energy(&self) -> EnergyMeter {
        let mut total = EnergyMeter::new(EnergyParams::default());
        for lane in &self.lanes {
            total.merge(&lane.energy);
        }
        total
    }

    /// Ages the DIMM: lines touched from now on receive hard errors
    /// sampled from `model` at `lifetime_fraction` (Figure 14).
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn set_dimm_age(&mut self, model: HardErrorModel, lifetime_fraction: f64) {
        assert!((0.0..=1.0).contains(&lifetime_fraction));
        self.hard_plan = Some((model, lifetime_fraction));
    }

    /// Installs a chaos scenario, replacing any previous one. Faults
    /// fire as the committed-write counter crosses their trigger points,
    /// polled after every bank operation in the controller's global
    /// `(completion time, bank)` order, so the scenario's shared draw
    /// order is well-defined.
    pub fn install_chaos(&mut self, plan: ChaosPlan) {
        self.chaos = Some(ChaosEngine::new(plan));
    }

    /// Every chaos action executed so far, in order. Two same-seed runs
    /// of the same scenario produce identical logs.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.fault_log
    }

    /// Lines currently decommissioned into the per-bank salvage pools.
    #[must_use]
    pub fn salvaged_lines(&self) -> usize {
        self.lanes.iter().map(|l| l.salvaged.len()).sum()
    }

    /// Test-only probe: asserts every bank's write-queue address index
    /// and open pre-read count equal an exact linear recount of its
    /// queue. Both replace full-queue scans on the fast path, so any
    /// drift here silently changes forwarding, coalescing or PreRead
    /// decisions; the randomized equivalence test in
    /// `tests/controller_stress.rs` calls this after every controller
    /// interaction.
    ///
    /// # Errors
    ///
    /// Returns which bank diverged and both values on mismatch.
    #[doc(hidden)]
    pub fn check_wq_index(&self) -> Result<(), String> {
        for (bi, l) in self.lanes.iter().enumerate() {
            let b = &l.bank;
            let mut recount: FxHashMap<LineAddr, u32> = FxHashMap::default();
            for e in &b.write_q {
                *recount.entry(e.access.addr).or_insert(0) += 1;
            }
            if recount != b.wq_index {
                return Err(format!(
                    "bank {bi}: wq_index {:?} != linear recount {:?}",
                    b.wq_index, recount
                ));
            }
            let open = b.write_q.iter().filter(|e| e.preread_open()).count();
            if open != b.pr_open {
                return Err(format!(
                    "bank {bi}: pr_open {} != linear recount {open}",
                    b.pr_open
                ));
            }
        }
        Ok(())
    }

    /// Captures queue state for diagnostics (livelock reports, error
    /// payloads). Idle banks are omitted from the per-bank list.
    #[must_use]
    pub fn snapshot(&self, cycle: Cycle) -> CtrlSnapshot {
        let banks: Vec<BankSnapshot> = self
            .lanes
            .iter()
            .map(|l| &l.bank)
            .enumerate()
            .filter(|(_, b)| {
                b.op.is_some()
                    || b.paused.is_some()
                    || !b.read_q.is_empty()
                    || !b.write_q.is_empty()
            })
            .map(|(i, b)| BankSnapshot {
                bank: i as u16,
                read_q: b.read_q.len(),
                write_q: b.write_q.len(),
                busy: b.op.is_some(),
                paused: b.paused.is_some(),
                draining: b.draining,
            })
            .collect();
        CtrlSnapshot {
            cycle,
            in_flight: self.lanes.iter().filter(|l| l.bank.op.is_some()).count(),
            queued_reads: self.lanes.iter().map(|l| l.bank.read_q.len()).sum(),
            queued_writes: self.lanes.iter().map(|l| l.bank.write_q.len()).sum(),
            banks,
        }
    }

    /// Surfaces the first pending lane anomaly (in bank order),
    /// attaching the current queue state.
    fn take_anomaly(&mut self, now: Cycle) -> Result<(), CtrlError> {
        if !self.anomaly_pending {
            return Ok(());
        }
        let what = self.lanes.iter_mut().find_map(|l| l.pending_anomaly.take());
        self.anomaly_pending = self.lanes.iter().any(|l| l.pending_anomaly.is_some());
        match what {
            Some(what) => Err(CtrlError::InternalAnomaly {
                what,
                snapshot: self.snapshot(now),
            }),
            None => Ok(()),
        }
    }

    /// Runs `f` on one bank's lane view. The lane borrows the shared
    /// read-only context, its own `LaneState`, and its disjoint store
    /// slice — all split borrows of `self`, built here in one body so
    /// the borrow checker can see they never overlap.
    ///
    /// Every change to a bank's operation or `busy_until` happens inside
    /// a lane, so the exit of this function is the one point that keeps
    /// the bank calendar (and the pending-anomaly flag) current.
    fn with_lane<R>(&mut self, bank: usize, f: impl FnOnce(&mut Lane<'_, '_>) -> R) -> R {
        let sh = LaneShared {
            cfg: &self.cfg,
            geometry: &self.geometry,
            policy: &self.policy,
            injector: &self.injector,
            codec: &self.codec,
            hard_plan: self.hard_plan,
            plant_stream: self.plant_stream,
            track_commits: self.chaos.is_some(),
        };
        let mut store = self.store.lane_mut(bank as u16);
        let mut lane = Lane {
            sh: &sh,
            ls: &mut self.lanes[bank],
            store: &mut store,
            done: &mut self.completions,
        };
        let r = f(&mut lane);
        let ls = &self.lanes[bank];
        self.calendar
            .set(bank, ls.bank.op.as_ref().map(|_| ls.bank.busy_until));
        self.anomaly_pending |= ls.pending_anomaly.is_some();
        r
    }

    /// Like [`MemoryController::architectural_line`], but `addr` is a
    /// *logical* address: the bank's Start-Gap mapping (if enabled) is
    /// applied first. Without Start-Gap the two are identical.
    #[must_use]
    pub fn architectural_logical(&self, addr: LineAddr) -> LineBuf {
        self.architectural_line(self.remap_addr(addr))
    }

    /// The architectural (error-corrected, DIN-decoded) contents of a
    /// line — zero simulated time; used by the system to synthesize
    /// write payloads and by tests to check consistency.
    #[must_use]
    pub fn architectural_line(&self, addr: LineAddr) -> LineBuf {
        self.lanes[addr.bank.0 as usize]
            .architectural(&self.codec, addr, || self.store.read_line(addr))
    }

    /// Whether a write to `addr` can be accepted right now without
    /// exceeding the queue capacity (coalescing writes always fit).
    /// Cores stall their next write while this is `false` — the
    /// back-pressure that makes bursty drains visible to the pipeline.
    #[must_use]
    pub fn can_accept_write(&self, addr: LineAddr) -> bool {
        let Ok(addr) = self.try_remap_addr(addr) else {
            return false; // unmappable writes can never be accepted
        };
        let lane = &self.lanes[addr.bank.0 as usize];
        if lane.salvaged.contains_key(&addr) {
            return true; // served from the pool, no queue entry needed
        }
        let b = &lane.bank;
        b.write_q.len() < self.cfg.write_queue_cap || b.wq_contains(addr)
    }

    /// The newest architectural value of a *logical* line as the program
    /// observes it: a queued or in-flight-but-uncommitted write's data
    /// wins over the array contents. Zero simulated time; used by the
    /// system to synthesize the next write's payload.
    #[must_use]
    pub fn latest_architectural(&self, addr: LineAddr) -> LineBuf {
        self.latest_architectural_physical(self.remap_addr(addr))
    }

    /// [`MemoryController::latest_architectural`] on an already-physical
    /// address (gap-move copies).
    fn latest_architectural_physical(&self, addr: LineAddr) -> LineBuf {
        self.lanes[addr.bank.0 as usize]
            .bank
            .pending_data(addr, false)
            .unwrap_or_else(|| self.architectural_line(addr))
    }

    /// Earliest time anything observable happens: an in-flight bank
    /// operation completes or an already-scheduled completion (e.g. a
    /// forwarded read) becomes due.
    #[must_use]
    pub fn next_event(&self) -> Option<Cycle> {
        let op = self.calendar.head().map(|(at, _)| at);
        match (op, self.completions.next_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Forces every bank with queued writes to drain them to empty,
    /// ignoring the burst bound ([`MemoryController::flush`]).
    fn drain_all(&mut self, now: Cycle) {
        for i in 0..self.lanes.len() {
            if !self.lanes[i].bank.write_q.is_empty() {
                self.lanes[i].bank.draining = true;
                self.lanes[i].bank.flushing = true;
            }
            self.with_lane(i, |lane| lane.dispatch(now));
        }
    }

    /// Hands a request to the controller.
    ///
    /// Bank state is first brought current to `now`, so requests never
    /// interact with operations that should already have completed
    /// (completions stay buffered for the next [`MemoryController::advance`]).
    ///
    /// # Errors
    ///
    /// Rejects requests outside the geometry ([`CtrlError::BankOutOfRange`],
    /// [`CtrlError::SpareLineAccess`]) or combining Start-Gap with a
    /// non-(1:1) allocator ([`CtrlError::StartGapRatio`]); surfaces any
    /// broken deep invariant as [`CtrlError::InternalAnomaly`].
    pub fn submit(&mut self, access: Access, now: Cycle) -> Result<(), CtrlError> {
        let _t = prof::timer(Site::CtrlSubmit);
        let access = self.remap_start_gap(access)?;
        let is_demand_write = access.kind.is_write();
        let bank = access.addr.bank.0 as usize;
        self.submit_physical(access, now)?;
        if is_demand_write {
            self.maybe_move_gap(bank, now);
        }
        self.take_anomaly(now)
    }

    /// Submits a request whose address is already physical (post
    /// Start-Gap remapping) — also the entry point for internal gap-move
    /// copies.
    fn submit_physical(&mut self, access: Access, now: Cycle) -> Result<(), CtrlError> {
        let bank = access.addr.bank.0 as usize;
        if bank >= self.lanes.len() {
            return Err(CtrlError::BankOutOfRange {
                bank: access.addr.bank.0,
                banks: self.lanes.len(),
            });
        }
        self.process_until(now, false, u64::MAX);
        self.with_lane(bank, |lane| {
            match access.kind {
                AccessKind::Read => lane.submit_read(access, now),
                AccessKind::Write(data) => lane.submit_write(access, data, now),
            }
            lane.dispatch(now);
        });
        Ok(())
    }

    /// Applies the bank's Start-Gap mapping to a demand request,
    /// rejecting ratio/spare-line violations.
    fn remap_start_gap(&self, access: Access) -> Result<Access, CtrlError> {
        if self.start_gap.is_some() && access.ratio != NmRatio::one_one() {
            return Err(CtrlError::StartGapRatio {
                ratio: access.ratio,
            });
        }
        Ok(Access {
            addr: self.try_remap_addr(access.addr)?,
            ..access
        })
    }

    /// Logical → physical line address under the bank's Start-Gap
    /// mapping (identity without Start-Gap). Rejects out-of-range banks
    /// and the spare line.
    fn try_remap_addr(&self, addr: LineAddr) -> Result<LineAddr, CtrlError> {
        if addr.bank.0 as usize >= self.lanes.len() {
            return Err(CtrlError::BankOutOfRange {
                bank: addr.bank.0,
                banks: self.lanes.len(),
            });
        }
        let Some(regions) = &self.start_gap else {
            return Ok(addr);
        };
        let lines_per_row = sdpcm_pcm::geometry::LINES_PER_ROW as u64;
        let la = u64::from(addr.row.0) * lines_per_row + u64::from(addr.slot);
        let sg = &regions[addr.bank.0 as usize];
        if la >= sg.logical_lines() {
            // The last line of each bank is Start-Gap's spare slot.
            return Err(CtrlError::SpareLineAccess { addr });
        }
        let pa = sg.map(la);
        Ok(LineAddr {
            bank: addr.bank,
            row: sdpcm_pcm::geometry::RowId((pa / lines_per_row) as u32),
            slot: (pa % lines_per_row) as u8,
        })
    }

    /// [`MemoryController::try_remap_addr`] for the zero-time diagnostic
    /// helpers, which promise a valid address.
    ///
    /// # Panics
    ///
    /// Panics on an address [`MemoryController::try_remap_addr`] rejects.
    fn remap_addr(&self, addr: LineAddr) -> LineAddr {
        self.try_remap_addr(addr)
            .expect("diagnostic helpers are called with valid addresses")
    }

    /// Counts a demand write against the bank's gap schedule; every ψ-th
    /// performs the move: the mapping shifts immediately and the data
    /// copy is enqueued as an internal write (store-forwarding keeps
    /// concurrent reads of the moving line consistent).
    fn maybe_move_gap(&mut self, bank: usize, now: Cycle) {
        let Some(regions) = &mut self.start_gap else {
            return;
        };
        let Some(mv) = regions[bank].note_write() else {
            return;
        };
        self.lanes[bank].stats.gap_moves.inc();
        let lines_per_row = sdpcm_pcm::geometry::LINES_PER_ROW as u64;
        let to_addr = |p: u64| LineAddr {
            bank: sdpcm_pcm::geometry::BankId(bank as u16),
            row: sdpcm_pcm::geometry::RowId((p / lines_per_row) as u32),
            slot: (p % lines_per_row) as u8,
        };
        let from = to_addr(mv.from);
        let to = to_addr(mv.to);
        let data = self.latest_architectural_physical(from);
        let id = self.lanes[bank].alloc_internal_id();
        let copy = Access {
            id,
            addr: to,
            kind: AccessKind::Write(data),
            ratio: NmRatio::one_one(),
            core: u8::MAX,
            arrive: now,
        };
        if self.submit_physical(copy, now).is_err() {
            self.lanes[bank].note_anomaly("Start-Gap copy targeted an invalid address");
            self.anomaly_pending = true;
        }
    }

    /// Processes all bank activity up to `now`; returns completions due.
    ///
    /// # Errors
    ///
    /// Surfaces any broken deep invariant as
    /// [`CtrlError::InternalAnomaly`] with a queue snapshot attached.
    pub fn advance(&mut self, now: Cycle) -> Result<Vec<Completion>, CtrlError> {
        let _t = prof::timer(Site::CtrlAdvance);
        self.process_until(now, false, u64::MAX);
        self.take_anomaly(now)?;
        let mut out = Vec::new();
        while let Some(c) = self.completions.pop_due(now) {
            out.push(c);
        }
        Ok(out)
    }

    /// Ends a run: every bank with queued writes drains them to empty,
    /// idle ones starting at `start`, and every remaining bank operation
    /// completes in the same global `(busy_until, bank)` order as any
    /// other advance. All outstanding completions are moved into `out`
    /// (cleared first) in `(at, id)` order. A flush with anything left
    /// to complete counts as one call under `Site::CtrlAdvance`.
    ///
    /// `start` only moves the timeline of banks that sit idle with
    /// queued writes. Such a bank holds no reads, and bank lanes are
    /// independent, so without a chaos plan the choice of `start`
    /// changes no statistic, wear count or device content, only the
    /// times of those banks' write completions. With a chaos plan it
    /// can also move the faults fired during the flush, because the
    /// plan draws in global operation order.
    ///
    /// # Errors
    ///
    /// Surfaces any broken deep invariant as
    /// [`CtrlError::InternalAnomaly`] with a queue snapshot attached.
    pub fn flush(&mut self, start: Cycle, out: &mut Vec<Completion>) -> Result<(), CtrlError> {
        out.clear();
        self.drain_all(start);
        if self.next_event().is_none() {
            return Ok(()); // nothing queued or in flight: no call to time
        }
        let _t = prof::timer(Site::CtrlAdvance);
        self.process_until(Cycle::MAX, false, u64::MAX);
        while let Some(c) = self.completions.pop_due(Cycle::MAX) {
            out.push(c);
        }
        self.take_anomaly(out.last().map_or(start, |c| c.at))
    }

    /// Runs the controller to the next time a front end can observe
    /// something: `limit` (the front end's next issue time; `None` when
    /// no core will issue before a read returns) or the earliest read
    /// completion, whichever comes first. Bank operations up to that
    /// time complete internally — write completions, write-job steps and
    /// idle pre-reads wake no one — and every completion due by then is
    /// moved into `out` (cleared first) in `(at, id)` order.
    ///
    /// Processing is the same [`MemoryController::advance`] does;
    /// by cadence invariance a front end that calls this once per wake
    /// sees exactly the completions and state it would see polling at
    /// every [`MemoryController::next_event`]. Each processed operation
    /// costs one unit of `budget`.
    ///
    /// # Errors
    ///
    /// Surfaces any broken deep invariant as
    /// [`CtrlError::InternalAnomaly`] with a queue snapshot attached.
    pub fn run_until(
        &mut self,
        limit: Option<Cycle>,
        budget: &mut u64,
        out: &mut Vec<Completion>,
    ) -> Result<Wake, CtrlError> {
        let _t = prof::timer(Site::CtrlAdvance);
        out.clear();
        let (wake, ops) = self.process_until(limit.unwrap_or(Cycle::MAX), true, *budget);
        *budget -= ops;
        self.take_anomaly(wake)?;
        if let Some((at, _)) = self.calendar.head().filter(|&(at, _)| at <= wake) {
            return Ok(Wake::OutOfBudget(at));
        }
        if limit.is_none() && self.completions.next_read().is_none() {
            return Ok(Wake::Idle);
        }
        while let Some(c) = self.completions.pop_due(wake) {
            out.push(c);
        }
        Ok(Wake::At(wake))
    }

    /// Completes bank operations in global `(busy_until, bank)` order
    /// while the calendar's head is due by `limit`, re-dispatching each
    /// bank after its operation and handing its committed writes to the
    /// chaos harness in between. With `wake_on_read`, `limit` shrinks to
    /// the earliest queued read completion as reads complete. Stops
    /// after `budget` operations; returns the final limit and the
    /// number of operations processed.
    ///
    /// Bank lanes are mutually independent — every RNG draw is keyed by
    /// `(line, epoch)`, every accumulator is lane-local — so the order
    /// is unobservable to a run without a chaos plan; with one, it fixes
    /// the draw order of the scenario's shared victim selection.
    fn process_until(&mut self, mut limit: Cycle, wake_on_read: bool, budget: u64) -> (Cycle, u64) {
        let mut ops = 0;
        loop {
            if wake_on_read {
                if let Some(r) = self.completions.next_read() {
                    limit = limit.min(r);
                }
            }
            let Some((at, bank)) = self.calendar.head() else {
                break;
            };
            if at > limit || ops == budget {
                break;
            }
            ops += 1;
            self.with_lane(bank, |lane| lane.complete_op(at));
            self.drain_commits(bank, at);
            self.with_lane(bank, |lane| lane.dispatch(at));
        }
        (limit, ops)
    }

    /// Hands a lane's freshly committed write addresses to the chaos
    /// harness, polling the fault plan once per commit.
    fn drain_commits(&mut self, bank: usize, at: Cycle) {
        if self.lanes[bank].recent_commits.is_empty() {
            return;
        }
        let commits = std::mem::take(&mut self.lanes[bank].recent_commits);
        for addr in commits {
            self.recent_writes.push_back(addr);
            while self.recent_writes.len() > RECENT_WRITES_CAP {
                self.recent_writes.pop_front();
            }
            self.apply_chaos(at);
        }
    }

    // ----- chaos harness -----

    /// Drains every fault action due at the current write count.
    fn apply_chaos(&mut self, at: Cycle) {
        let committed: u64 = self.lanes.iter().map(|l| l.stats.writes.get()).sum();
        let actions = match &mut self.chaos {
            Some(engine) => engine.poll(committed),
            None => return,
        };
        for action in actions {
            self.execute_chaos(action, committed, at);
        }
    }

    /// Applies one fault action to the device/injector and logs it.
    fn execute_chaos(&mut self, action: ChaosAction, committed: u64, at: Cycle) {
        match action {
            ChaosAction::BeginStorm { mult } => {
                if self.injector.set_storm(mult).is_err() {
                    // ChaosPlan::new validated the multiplier; reaching
                    // here means the plan was corrupted in flight.
                    self.lanes[0].note_anomaly("chaos storm multiplier went invalid");
                    self.anomaly_pending = true;
                    return;
                }
            }
            ChaosAction::EndStorm => self.injector.clear_storm(),
            ChaosAction::PlantStuckBurst {
                lines,
                cells_per_line,
            } => {
                for _ in 0..lines {
                    let victim = if self.recent_writes.is_empty() {
                        LineAddr {
                            bank: sdpcm_pcm::geometry::BankId(
                                self.chaos_rng.below(self.lanes.len() as u64) as u16,
                            ),
                            row: sdpcm_pcm::geometry::RowId(
                                self.chaos_rng
                                    .below(u64::from(self.geometry.rows_per_bank()))
                                    as u32,
                            ),
                            slot: self
                                .chaos_rng
                                .below(sdpcm_pcm::geometry::LINES_PER_ROW as u64)
                                as u8,
                        }
                    } else {
                        let i = self.chaos_rng.index(self.recent_writes.len());
                        self.recent_writes[i]
                    };
                    if self.lanes[victim.bank.0 as usize]
                        .salvaged
                        .contains_key(&victim)
                    {
                        continue;
                    }
                    for _ in 0..cells_per_line {
                        let bit = self.chaos_rng.below(512) as u16;
                        let stuck = self.chaos_rng.chance(0.5);
                        self.store
                            .lane_mut(victim.bank.0)
                            .plant_hard_error(victim, bit, stuck);
                    }
                }
            }
            ChaosAction::SetAge { lifetime_fraction } => {
                let model = self
                    .hard_plan
                    .map_or_else(HardErrorModel::default, |(m, _)| m);
                self.hard_plan = Some((model, lifetime_fraction));
            }
        }
        let fault_lane = &mut self.lanes[0];
        fault_lane.stats.fault_events.inc();
        self.fault_log.push(FaultEvent {
            at_write: committed,
            at_cycle: at.0,
            action,
        });
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::ReqId;
    use sdpcm_pcm::geometry::{BankId, RowId};

    fn ctrl(scheme: CtrlScheme) -> MemoryController {
        MemoryController::new(
            CtrlConfig::table2(scheme),
            MemGeometry::small(256),
            SimRng::from_seed_label(77, "ctrl-test"),
        )
    }

    fn line(bank: u16, row: u32, slot: u8) -> LineAddr {
        LineAddr {
            bank: BankId(bank),
            row: RowId(row),
            slot,
        }
    }

    fn read(id: u64, addr: LineAddr, at: Cycle) -> Access {
        Access {
            id: ReqId(id),
            addr,
            kind: AccessKind::Read,
            ratio: NmRatio::one_one(),
            core: 0,
            arrive: at,
        }
    }

    fn write(id: u64, addr: LineAddr, data: LineBuf, at: Cycle) -> Access {
        Access {
            id: ReqId(id),
            addr,
            kind: AccessKind::Write(data),
            ratio: NmRatio::one_one(),
            core: 0,
            arrive: at,
        }
    }

    fn patterned(seed: u64) -> LineBuf {
        let mut words = [0u64; 8];
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for w in &mut words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        LineBuf::from_words(words)
    }

    fn run_until_idle(c: &mut MemoryController) -> Vec<Completion> {
        let mut out = Vec::new();
        c.flush(c.next_event().unwrap_or(Cycle::ZERO), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn cold_read_takes_array_latency() {
        let mut c = ctrl(CtrlScheme::din());
        let a = line(0, 10, 0);
        let expect = c.architectural_line(a);
        c.submit(read(1, a, Cycle(0)), Cycle(0)).unwrap();
        let done = c.advance(Cycle(400)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, Cycle(400));
        assert_eq!(done[0].data, Some(expect));
    }

    #[test]
    fn write_then_read_roundtrip() {
        for scheme in [
            CtrlScheme::din(),
            CtrlScheme::baseline_vnc(),
            CtrlScheme::lazyc(),
            CtrlScheme::lazyc_preread(),
        ] {
            let mut c = ctrl(scheme);
            let a = line(2, 20, 5);
            let data = patterned(9);
            c.submit(write(1, a, data, Cycle(0)), Cycle(0)).unwrap();
            let _ = run_until_idle(&mut c);
            assert_eq!(c.architectural_line(a), data, "scheme {scheme:?}");
            // A demand read returns the same.
            c.submit(read(2, a, Cycle(1_000_000)), Cycle(1_000_000))
                .unwrap();
            let done = run_until_idle(&mut c);
            assert_eq!(done.last().unwrap().data, Some(data));
        }
    }

    #[test]
    fn read_forwards_from_write_queue() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let a = line(1, 30, 0);
        let data = patterned(3);
        c.submit(write(1, a, data, Cycle(0)), Cycle(0)).unwrap();
        // While the write is queued/in flight, a read arrives.
        c.submit(read(2, a, Cycle(10)), Cycle(10)).unwrap();
        let done = run_until_idle(&mut c);
        let r = done.iter().find(|d| d.id == ReqId(2)).unwrap();
        assert_eq!(r.data, Some(data));
        assert!(c.stats().read_forwards.get() >= 1);
    }

    #[test]
    fn vnc_write_occupies_longer_than_din_write() {
        let data = patterned(4);
        let mut din = ctrl(CtrlScheme::din());
        din.submit(write(1, line(0, 50, 0), data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut din);
        let din_busy = din.stats().phases.pre_reads
            + din.stats().phases.post_reads
            + din.stats().phases.array_writes;

        let mut base = ctrl(CtrlScheme::baseline_vnc());
        base.submit(write(1, line(0, 50, 0), data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut base);
        let base_busy = base.stats().phases.pre_reads
            + base.stats().phases.post_reads
            + base.stats().phases.array_writes;
        // Baseline adds 2 pre-reads + 2 post-reads = 1600 extra cycles,
        // plus whatever corrections the injected disturbances demand.
        assert!(
            base_busy.0 - din_busy.0 >= 1600,
            "delta={}",
            base_busy.0 - din_busy.0
        );
        assert!(base.stats().verification_ops.get() >= 2);
        assert_eq!(din.stats().verification_ops.get(), 0);
    }

    #[test]
    fn disturbed_neighbors_stay_architecturally_correct_with_vnc() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let victim_up = line(3, 40, 7);
        let target = line(3, 41, 7);
        let victim_down = line(3, 42, 7);
        let up_data = patterned(10);
        let down_data = patterned(11);
        c.submit(write(1, victim_up, up_data, Cycle(0)), Cycle(0))
            .unwrap();
        c.submit(write(2, victim_down, down_data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut c);
        // Hammer the middle line with alternating data.
        for i in 0..50u64 {
            let t = Cycle(1_000_000 + i);
            c.submit(write(100 + i, target, patterned(100 + i), t), t)
                .unwrap();
            let _ = run_until_idle(&mut c);
        }
        assert_eq!(c.architectural_line(victim_up), up_data);
        assert_eq!(c.architectural_line(victim_down), down_data);
        assert!(c.stats().correction_ops.get() > 0, "VnC actually corrected");
    }

    #[test]
    fn unprotected_super_dense_corrupts_neighbors() {
        let mut c = ctrl(CtrlScheme::unprotected_super_dense());
        let victim = line(3, 40, 7);
        let target = line(3, 41, 7);
        let victim_data = patterned(10);
        c.submit(write(1, victim, victim_data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut c);
        for i in 0..50u64 {
            let t = Cycle(1_000_000 + i);
            c.submit(write(100 + i, target, patterned(100 + i), t), t)
                .unwrap();
            let _ = run_until_idle(&mut c);
        }
        assert_ne!(
            c.architectural_line(victim),
            victim_data,
            "50 disturbing writes at p=11.5% per vulnerable cell must corrupt"
        );
    }

    #[test]
    fn lazyc_buffers_instead_of_correcting() {
        let mut base = ctrl(CtrlScheme::baseline_vnc());
        let mut lazy = ctrl(CtrlScheme::lazyc());
        for c in [&mut base, &mut lazy] {
            let target = line(3, 41, 7);
            c.submit(write(1, line(3, 40, 7), patterned(1), Cycle(0)), Cycle(0))
                .unwrap();
            c.submit(write(2, line(3, 42, 7), patterned(2), Cycle(0)), Cycle(0))
                .unwrap();
            let _ = run_until_idle(c);
            for i in 0..30u64 {
                let t = Cycle(1_000_000 + i);
                c.submit(write(100 + i, target, patterned(100 + i), t), t)
                    .unwrap();
                let _ = run_until_idle(c);
            }
        }
        assert!(lazy.stats().ecp_records.get() > 0, "LazyC records errors");
        assert!(
            lazy.stats().correction_ops.get() < base.stats().correction_ops.get(),
            "LazyC: {} corrections, baseline: {}",
            lazy.stats().correction_ops.get(),
            base.stats().correction_ops.get()
        );
    }

    #[test]
    fn one_two_ratio_skips_all_verification() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let a = Access {
            ratio: NmRatio::one_two(),
            // Interior even strip: both neighbours marked no-use.
            ..write(1, line(0, 50, 0), patterned(5), Cycle(0))
        };
        c.submit(a, Cycle(0)).unwrap();
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().verification_ops.get(), 0);
        assert_eq!(c.stats().phases.pre_reads, Cycle::ZERO);
    }

    #[test]
    fn preread_issues_during_idle_time() {
        let mut c = ctrl(CtrlScheme::lazyc_preread());
        let a = line(4, 60, 1);
        c.submit(write(1, a, patterned(6), Cycle(0)), Cycle(0))
            .unwrap();
        // Let the bank idle: the queued write's pre-reads are issued.
        for t in [400u64, 800, 1200, 1600] {
            let _ = c.advance(Cycle(t)).unwrap();
        }
        assert!(c.stats().prereads_issued.get() >= 2);
        // When the drain later fires, inline pre-reads are skipped.
        c.drain_all(Cycle(2000));
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().phases.pre_reads, Cycle::ZERO);
    }

    #[test]
    fn preread_skips_a_neighbour_decommissioned_after_queueing() {
        // A write queues behind a demand read, so its static need (both
        // neighbours) is cached before any idle slot opens. Returns the
        // pre-reads issued and the entry's PreRead flags once the bank
        // has gone idle.
        let run = |decommission_up: bool| {
            let mut c = ctrl(CtrlScheme::lazyc_preread());
            let a = line(0, 10, 0);
            c.submit(read(1, line(0, 40, 1), Cycle(0)), Cycle(0))
                .unwrap();
            c.submit(write(2, a, patterned(3), Cycle(1)), Cycle(1))
                .unwrap();
            assert_eq!(c.lanes[0].bank.write_q[0].need, [true, true]);
            if decommission_up {
                // Retire the upper neighbour into the salvage pool, as
                // the degradation ladder does.
                let up = c.geometry.bitline_neighbors(a)[0].unwrap();
                let data = c.architectural_line(up);
                c.lanes[0].salvaged.insert(up, data);
            }
            let _ = c.advance(Cycle(10_000)).unwrap();
            assert!(c.lanes[0].bank.op.is_none(), "the bank must end idle");
            (
                c.stats().prereads_issued.get(),
                c.lanes[0].bank.write_q[0].pr_done,
            )
        };
        assert_eq!(run(false), (2, [true, true]));
        assert_eq!(run(true), (1, [false, true]));
    }

    #[test]
    fn write_cancellation_lets_read_preempt() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_cancellation());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        c.drain_all(Cycle(0)); // start the write job now
                               // Mid-job read to a different line of the same bank.
        c.submit(read(2, r, Cycle(100)), Cycle(100)).unwrap();
        let done = run_until_idle(&mut c);
        assert!(c.stats().write_cancellations.get() >= 1);
        let read_done = done.iter().find(|d| d.id == ReqId(2)).unwrap();
        assert_eq!(read_done.at, Cycle(500), "read served right after cancel");
        // The cancelled write still commits eventually.
        assert_eq!(c.architectural_line(w), patterned(7));
    }

    #[test]
    fn without_cancellation_read_waits_for_whole_job() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        c.drain_all(Cycle(0));
        c.submit(read(2, r, Cycle(100)), Cycle(100)).unwrap();
        let done = run_until_idle(&mut c);
        let read_done = done.iter().find(|d| d.id == ReqId(2)).unwrap();
        // Job = 2 pre-reads + write + own-verify + 2 post-reads ≥ 2800.
        assert!(read_done.at >= Cycle(2800), "read at {:?}", read_done.at);
        assert_eq!(c.stats().write_cancellations.get(), 0);
    }

    #[test]
    fn queue_fills_trigger_drain() {
        let mut c = ctrl(CtrlScheme::din());
        for i in 0..32u64 {
            // Distinct lines of one bank.
            let a = line(6, i as u32, 0);
            c.submit(write(i, a, patterned(i), Cycle(0)), Cycle(0))
                .unwrap();
        }
        assert!(c.stats().drains.get() >= 1);
        let done = run_until_idle(&mut c);
        assert_eq!(done.iter().filter(|d| d.was_write).count(), 32);
        assert_eq!(c.stats().writes.get(), 32);
    }

    #[test]
    fn drains_are_burst_bounded_for_reads() {
        // Without any read-priority mechanism, a read still waits only
        // for the current burst (8 writes), not the whole 32-entry queue.
        let mut c = ctrl(CtrlScheme::din());
        for i in 0..32u64 {
            c.submit(
                write(i, line(6, i as u32, 0), patterned(i), Cycle(0)),
                Cycle(0),
            )
            .unwrap();
        }
        assert!(c.stats().drains.get() >= 1, "queue filled");
        c.submit(read(99, line(6, 60, 0), Cycle(10)), Cycle(10))
            .unwrap();
        // Advance naturally (no forced flush) until the read completes.
        let mut rd = None;
        while rd.is_none() {
            let t = c.next_event().expect("work pending");
            rd = c
                .advance(t)
                .unwrap()
                .into_iter()
                .find(|d| d.id == ReqId(99));
        }
        let rd = rd.expect("loop exits with the completion");
        // One DIN write job on near-random data is ~2400-2800 cycles
        // (two write waves + own-verify + occasional fix); a burst of 8
        // bounds the wait far below the 32-write full-queue drain
        // (~80k cycles).
        assert!(
            rd.at < Cycle(8 * 3_000 + 800),
            "read blocked past one burst: {:?}",
            rd.at
        );
        // All 32 writes still commit eventually.
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().writes.get(), 32);
    }

    #[test]
    fn full_queue_keeps_draining_in_bursts() {
        // Sustained pressure: refill the queue after the first burst;
        // the drain re-arms and everything commits.
        let mut c = ctrl(CtrlScheme::din());
        for i in 0..32u64 {
            c.submit(
                write(i, line(7, i as u32, 0), patterned(i), Cycle(0)),
                Cycle(0),
            )
            .unwrap();
        }
        // Let one burst finish, then add more writes.
        let _ = c.advance(Cycle(20_000)).unwrap();
        for i in 32..40u64 {
            let t = Cycle(20_000 + i);
            c.submit(write(i, line(7, i as u32, 0), patterned(i), t), t)
                .unwrap();
        }
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().writes.get(), 40);
    }

    #[test]
    fn coalescing_merges_queued_writes() {
        let mut c = ctrl(CtrlScheme::din());
        let a = line(7, 5, 5);
        c.submit(write(1, a, patterned(1), Cycle(0)), Cycle(0))
            .unwrap();
        c.submit(write(2, a, patterned(2), Cycle(1)), Cycle(1))
            .unwrap();
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().writes.get(), 1, "coalesced into one array write");
        assert_eq!(c.architectural_line(a), patterned(2), "newest data wins");
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut c = ctrl(CtrlScheme::lazyc_preread());
            for i in 0..40u64 {
                let a = line((i % 4) as u16, 40 + (i % 8) as u32, (i % 64) as u8);
                let t = Cycle(i * 50);
                if i % 3 == 0 {
                    c.submit(read(i, a, t), t).unwrap();
                } else {
                    c.submit(write(i, a, patterned(i), t), t).unwrap();
                }
                let _ = c.advance(t).unwrap();
            }
            let done = run_until_idle(&mut c);
            (
                done.len(),
                c.stats().writes.get(),
                c.stats().ecp_records.get(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn write_pausing_serves_read_between_phases() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_pausing());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0); // unrelated line, same bank
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        c.drain_all(Cycle(0));
        c.submit(read(2, r, Cycle(100)), Cycle(100)).unwrap();
        let done = run_until_idle(&mut c);
        assert!(c.stats().write_pauses.get() >= 1, "job paused for the read");
        let read_done = done.iter().find(|d| d.id == ReqId(2)).unwrap();
        // The read waits at most for the current phase (ends at 400),
        // then 400 of its own — far less than the full VnC job.
        assert_eq!(read_done.at, Cycle(800), "read at {:?}", read_done.at);
        // The paused write still finishes with correct data.
        assert_eq!(c.architectural_line(w), patterned(7));
        assert_eq!(c.stats().write_cancellations.get(), 0);
    }

    #[test]
    fn pausing_refuses_reads_into_unverified_victims() {
        // A read targeting the write's disturbed neighbour must not be
        // served mid-job; it waits until verification finishes and then
        // returns clean data.
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_pausing());
        let victim = line(3, 40, 7);
        let target = line(3, 41, 7);
        let victim_data = patterned(10);
        c.submit(write(1, victim, victim_data, Cycle(0)), Cycle(0))
            .unwrap();
        let _ = run_until_idle(&mut c);
        for i in 0..20u64 {
            let t = Cycle(1_000_000 + i * 10_000);
            c.submit(write(100 + i, target, patterned(100 + i), t), t)
                .unwrap();
            c.drain_all(t);
            // Read the victim while the write job is mid-flight.
            c.submit(read(1000 + i, victim, t + Cycle(900)), t + Cycle(900))
                .unwrap();
            let done = run_until_idle(&mut c);
            let rd = done.iter().find(|d| d.id == ReqId(1000 + i)).unwrap();
            assert_eq!(
                rd.data,
                Some(victim_data),
                "read {i} observed a disturbed, unverified line"
            );
        }
    }

    #[test]
    fn vnc_energy_overhead_exceeds_din() {
        let run = |scheme: CtrlScheme| {
            let mut c = ctrl(scheme);
            for i in 0..20u64 {
                let t = Cycle(i * 100_000);
                c.submit(
                    write(i, line(1, 30 + (i % 5) as u32, 0), patterned(i), t),
                    t,
                )
                .unwrap();
                let _ = run_until_idle(&mut c);
            }
            c.energy().overhead_fraction()
        };
        let din = run(CtrlScheme::din());
        let vnc = run(CtrlScheme::baseline_vnc());
        assert!(
            vnc > din,
            "VnC must cost extra energy: vnc={vnc:.3} din={din:.3}"
        );
        assert!(vnc > 0.2, "pre/post reads + corrections are significant");
    }

    #[test]
    fn start_gap_preserves_data_across_moves() {
        // psi=1: every write moves the gap; data must stay readable at
        // its logical address through many full rotations.
        let mut c = ctrl(CtrlScheme::din().with_start_gap(1));
        let mut expected = Vec::new();
        for i in 0..40u64 {
            let a = line(2, (i % 10) as u32, (i % 3) as u8);
            let data = patterned(1000 + i);
            let t = Cycle(i * 100_000);
            c.submit(write(i, a, data, t), t).unwrap();
            let _ = run_until_idle(&mut c);
            expected.retain(|(prev, _): &(LineAddr, LineBuf)| *prev != a);
            expected.push((a, data));
        }
        assert!(c.stats().gap_moves.get() >= 40);
        for (a, data) in expected {
            assert_eq!(c.architectural_logical(a), data, "line {a} lost");
            // Reads also return the right data.
            c.submit(
                read(10_000 + u64::from(a.row.0), a, Cycle(1 << 40)),
                Cycle(1 << 40),
            )
            .unwrap();
            let done = run_until_idle(&mut c);
            assert_eq!(done.last().unwrap().data, Some(data));
        }
    }

    #[test]
    fn start_gap_actually_remaps() {
        let mut c = ctrl(CtrlScheme::din().with_start_gap(1));
        let a = line(0, 5, 0);
        // After enough writes the physical location of `a` must differ
        // from its logical one.
        for i in 0..200u64 {
            let t = Cycle(i * 100_000);
            c.submit(write(i, a, patterned(i), t), t).unwrap();
            let _ = run_until_idle(&mut c);
        }
        // The logical view tracks the data regardless.
        assert_eq!(c.architectural_logical(a), patterned(199));
        assert!(c.stats().gap_moves.get() >= 200);
    }

    #[test]
    fn start_gap_rejects_nm_ratios() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_start_gap(8));
        let a = Access {
            ratio: NmRatio::one_two(),
            ..write(1, line(0, 2, 0), patterned(1), Cycle(0))
        };
        assert!(matches!(
            c.submit(a, Cycle(0)),
            Err(CtrlError::StartGapRatio { .. })
        ));
    }

    #[test]
    fn reads_forward_from_paused_jobs() {
        // A write paused mid-VnC still forwards its data to reads of the
        // same line (program order must not observe the old contents).
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_pausing());
        let w = line(5, 70, 0);
        let other = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        c.drain_all(Cycle(0));
        // A read to another line triggers a pause at the next phase edge.
        c.submit(read(2, other, Cycle(100)), Cycle(100)).unwrap();
        let _ = c.advance(Cycle(450)).unwrap(); // first phase done, job paused
                                                // Now read the paused write's own line: must forward new data.
        c.submit(read(3, w, Cycle(460)), Cycle(460)).unwrap();
        let done = run_until_idle(&mut c);
        let fwd = done.iter().find(|d| d.id == ReqId(3)).unwrap();
        assert_eq!(fwd.data, Some(patterned(7)));
        assert!(c.stats().read_forwards.get() >= 1);
    }

    #[test]
    fn newest_queued_write_wins_forwarding() {
        // Two buffered writes to the same line coalesce; a read sees the
        // second one's data.
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let a = line(4, 33, 2);
        c.submit(write(1, a, patterned(1), Cycle(0)), Cycle(0))
            .unwrap();
        c.submit(write(2, a, patterned(2), Cycle(5)), Cycle(5))
            .unwrap();
        c.submit(read(3, a, Cycle(10)), Cycle(10)).unwrap();
        let done = run_until_idle(&mut c);
        let fwd = done.iter().find(|d| d.id == ReqId(3)).unwrap();
        assert_eq!(fwd.data, Some(patterned(2)));
    }

    #[test]
    fn latest_architectural_sees_queued_then_committed_data() {
        let mut c = ctrl(CtrlScheme::din());
        let a = line(3, 21, 1);
        let before = c.latest_architectural(a);
        assert_eq!(before, c.architectural_line(a));
        c.submit(write(1, a, patterned(9), Cycle(0)), Cycle(0))
            .unwrap();
        // Still queued: latest view is the pending data, array unchanged.
        assert_eq!(c.latest_architectural(a), patterned(9));
        assert_eq!(c.architectural_line(a), before);
        let _ = run_until_idle(&mut c);
        assert_eq!(c.architectural_line(a), patterned(9));
    }

    #[test]
    fn hard_errors_consume_ecp_and_still_read_correctly() {
        let mut c = ctrl(CtrlScheme::lazyc());
        c.set_dimm_age(HardErrorModel::default(), 1.0);
        let a = line(0, 80, 0);
        let data = patterned(42);
        c.submit(write(1, a, data, Cycle(0)), Cycle(0)).unwrap();
        let _ = run_until_idle(&mut c);
        assert_eq!(c.architectural_line(a), data, "ECP patches stuck cells");
    }
}
