//! Bank lanes: the per-bank controller logic.
//!
//! A [`Lane`] is one bank's mutable state ([`LaneState`]) plus its
//! disjoint slice of the device store, processed against the context
//! every lane shares ([`LaneShared`]). This module holds what decides
//! *when* a bank does what: submission (salvage-pool service, write-queue
//! forwarding and coalescing), dispatch (read priority, bursty drains,
//! idle-slot PreRead), write cancellation and write pausing, and the
//! completion of bank operations. What a write job's steps *do* lives in
//! [`crate::program`]; retiring a line into the salvage pool lives in
//! [`crate::salvage`].

use sdpcm_engine::hash::{FxHashMap, FxHashSet};
use sdpcm_engine::{Cycle, RngStream};
use sdpcm_osalloc::VerifyPolicy;
use sdpcm_pcm::energy::{EnergyMeter, EnergyParams};
use sdpcm_pcm::geometry::{LineAddr, MemGeometry};
use sdpcm_pcm::line::{DiffMask, LineBuf};
use sdpcm_pcm::store::StoreLane;
use sdpcm_pcm::wear::HardErrorModel;
use sdpcm_wd::din::{DinCodec, DinFlags};
use sdpcm_wd::WdInjector;

use crate::bank::{Bank, BankOp};
use crate::calendar::DueQueue;
use crate::ctrl::{CtrlConfig, DRAIN_BURST, FORWARD_LATENCY};
use crate::req::{Access, AccessKind, Completion, ReqId};
use crate::stats::CtrlStats;
use crate::writejob::{Side, Step, WqEntry, WriteJob, MAX_JOB_STEPS};

/// The context every bank lane reads: configuration, geometry, the
/// verification policy, the (pure) disturbance injector, the DIN codec,
/// and the key material for hard-error planting.
///
/// The controller owns one and lends it to each lane it runs. Lanes
/// never write it; the controller changes it between operations — a
/// chaos storm or aging step, [`crate::MemoryController::set_dimm_age`]
/// and [`crate::MemoryController::install_chaos`].
pub(crate) struct LaneShared {
    pub(crate) cfg: CtrlConfig,
    pub(crate) geometry: MemGeometry,
    pub(crate) policy: VerifyPolicy,
    pub(crate) injector: WdInjector,
    pub(crate) codec: DinCodec,
    pub(crate) hard_plan: Option<(HardErrorModel, f64)>,
    /// Root stream for first-touch hard-error planting; each line draws
    /// from `plant_stream.keyed(line.stream_key())`, so planting is
    /// independent of the order lines are first touched in.
    pub(crate) plant_stream: RngStream,
    /// Whether lanes must remember committed write addresses for the
    /// chaos harness (only once a chaos plan is installed).
    pub(crate) track_commits: bool,
}

/// All mutable per-bank controller state.
///
/// Each bank owns its queues, its architectural metadata (salvage pool,
/// degradation ladder, first-touch planting), and — crucially — its
/// *own permanent accumulators* (statistics, energy). A line's DIN flags
/// and injection epoch live in its device-store record, behind the
/// [`StoreLane`] accessors. Per-bank accumulation
/// keeps every floating-point and histogram sum in a fixed bank-local
/// order regardless of the order lanes are processed in;
/// [`crate::MemoryController::stats`] folds the lanes together in bank
/// order at read time, so aggregate totals are path-independent.
/// Completions go to the controller's one queue, whose `(at, id)` order
/// does not depend on which lane pushed first.
pub(crate) struct LaneState {
    bank_id: u16,
    pub(crate) bank: Bank,
    /// Decommissioned lines and their architectural contents, served
    /// from controller buffers at [`FORWARD_LATENCY`].
    pub(crate) salvaged: FxHashMap<LineAddr, LineBuf>,
    /// LazyCorrection exhaustion events per line (degradation ladder).
    /// A line past `ecp_retry_cap` is escalated: ECP buffering is no
    /// longer attempted for it.
    pub(crate) distress: FxHashMap<LineAddr, u32>,
    /// Lines whose first-touch hard errors have been planted.
    pub(crate) planted: FxHashSet<LineAddr>,
    /// This lane's statistics slice (bank-local accumulation order).
    pub(crate) stats: CtrlStats,
    /// This lane's energy slice.
    pub(crate) energy: EnergyMeter,
    /// First broken deep invariant seen by this lane, surfaced as a
    /// `CtrlError` at the next driver call.
    pub(crate) pending_anomaly: Option<&'static str>,
    /// Next sequence number for internal (gap-move) request IDs.
    next_internal_seq: u64,
    /// Scratch: word-line victims of the most recent injection.
    pub(crate) wl_scratch: Vec<u16>,
    /// Scratch: per-side bit-line victims of the most recent
    /// [`Lane::inject_for`] call — valid until the next one.
    pub(crate) bl_hits: [Vec<u16>; 2],
    /// Committed write addresses not yet handed to the chaos harness
    /// (only populated while a chaos plan is installed).
    pub(crate) recent_commits: Vec<LineAddr>,
    /// The bank's last finished (or cancelled) write job, reset in place
    /// for the next write so its buffers are reused.
    pub(crate) spare_job: Option<Box<WriteJob>>,
}

impl LaneState {
    pub(crate) fn new(bank_id: u16) -> LaneState {
        LaneState {
            bank_id,
            bank: Bank::default(),
            salvaged: FxHashMap::default(),
            distress: FxHashMap::default(),
            planted: FxHashSet::default(),
            stats: CtrlStats::new(),
            energy: EnergyMeter::new(EnergyParams::default()),
            pending_anomaly: None,
            next_internal_seq: 0,
            wl_scratch: Vec::new(),
            bl_hits: [Vec::new(), Vec::new()],
            recent_commits: Vec::new(),
            spare_job: None,
        }
    }

    /// The salvage-pool buffer of `addr`, if it is decommissioned. Most
    /// runs never decommission a line, so an empty pool is not probed.
    #[inline]
    pub(crate) fn salvage_buf(&self, addr: LineAddr) -> Option<&LineBuf> {
        if self.salvaged.is_empty() {
            return None;
        }
        self.salvaged.get(&addr)
    }

    /// Whether `addr` is decommissioned (see [`LaneState::salvage_buf`]).
    #[inline]
    pub(crate) fn is_salvaged(&self, addr: LineAddr) -> bool {
        self.salvage_buf(addr).is_some()
    }

    /// The LazyCorrection exhaustion events of `line` so far, without
    /// probing an empty map.
    #[inline]
    pub(crate) fn distress_of(&self, line: LineAddr) -> u32 {
        if self.distress.is_empty() {
            return 0;
        }
        self.distress.get(&line).copied().unwrap_or(0)
    }

    /// The architectural (error-corrected, DIN-decoded) contents of
    /// `addr`, given its ECP-patched array read and its stored DIN flags.
    /// Salvaged lines answer from their buffer without reading the
    /// array.
    pub(crate) fn architectural(
        &self,
        codec: &DinCodec,
        addr: LineAddr,
        read: impl FnOnce() -> (LineBuf, u64),
    ) -> LineBuf {
        match self.salvage_buf(addr) {
            Some(data) => *data,
            None => {
                let (patched, flags) = read();
                codec.decode(&patched, DinFlags(flags))
            }
        }
    }

    /// Records a broken deep invariant; the first one is surfaced as a
    /// [`crate::CtrlError::InternalAnomaly`] at the next API-boundary
    /// call.
    pub(crate) fn note_anomaly(&mut self, what: &'static str) {
        self.stats.internal_anomalies.inc();
        if self.pending_anomaly.is_none() {
            self.pending_anomaly = Some(what);
        }
    }

    /// Allocates a request ID for an internal (gap-move) write. IDs
    /// count down from the top of a per-bank window so they never
    /// collide with demand IDs or with another bank's internal IDs.
    pub(crate) fn alloc_internal_id(&mut self) -> ReqId {
        let id = u64::MAX - (u64::from(self.bank_id) << 40) - self.next_internal_seq;
        self.next_internal_seq += 1;
        ReqId(id)
    }
}

/// A bank lane: one bank's mutable state plus its disjoint slice of the
/// device store, processed against the shared context. The entire
/// per-bank controller logic lives on this type; lanes touch nothing
/// outside their own bank (bit-line neighbours are same-bank adjacent
/// rows) except the shared completion queue, which orders its contents
/// itself, so lanes can be processed in any order.
pub(crate) struct Lane<'a, 's> {
    pub(crate) sh: &'a LaneShared,
    pub(crate) ls: &'a mut LaneState,
    pub(crate) store: &'a mut StoreLane<'s>,
    pub(crate) done: &'a mut DueQueue,
}

impl Lane<'_, '_> {
    /// The architectural (error-corrected, DIN-decoded) contents of a
    /// line in this bank — zero simulated time.
    pub(crate) fn architectural_line(&self, addr: LineAddr) -> LineBuf {
        self.ls.architectural(&self.sh.codec, addr, || {
            self.store.read_line_and_flags(addr)
        })
    }

    /// Queues a completion on the controller-wide queue: a read's when
    /// `data` is given, a write's otherwise.
    pub(crate) fn push_completion(&mut self, access: &Access, at: Cycle, data: Option<LineBuf>) {
        self.done.push(Completion {
            id: access.id,
            core: access.core,
            at,
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

    /// Takes in one request at `now` and lets the bank dispatch.
    pub(crate) fn submit(&mut self, access: Access, now: Cycle) {
        match access.kind {
            AccessKind::Read => self.submit_read(access, now),
            AccessKind::Write(data) => self.submit_write(access, data, now),
        }
        self.dispatch(now);
    }

    fn submit_read(&mut self, access: Access, now: Cycle) {
        // Decommissioned lines live in controller buffers: no bank
        // operation, no disturbance, `FORWARD_LATENCY` to answer.
        if let Some(data) = self.ls.salvage_buf(access.addr).copied() {
            self.ls.stats.salvaged_reads.inc();
            self.complete_read(&access, now + FORWARD_LATENCY, data);
            return;
        }
        // Forward from the write queue (newest entry wins) or from the
        // write job in flight or paused.
        if let Some(data) = self.ls.bank.pending_data(access.addr, true) {
            self.ls.stats.read_forwards.inc();
            self.complete_read(&access, now + FORWARD_LATENCY, data);
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
        if self.ls.is_salvaged(access.addr) {
            self.ls.salvaged.insert(access.addr, data);
            self.ls.stats.salvaged_writes.inc();
            self.push_completion(&access, now + FORWARD_LATENCY, None);
            return;
        }
        // Coalesce with the newest queued write to the same line. A
        // cancelled write goes back at the front, possibly ahead of a
        // later write to its line: the newer entry is the one reads
        // forward from and the one that drains last, so it must absorb
        // the data.
        if self.ls.bank.wq_contains(access.addr) {
            if let Some(e) = self
                .ls
                .bank
                .write_q
                .iter_mut()
                .rev()
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
        self.ls.bank.drain_left = self.ls.bank.drain_left.max(DRAIN_BURST);
    }

    /// PreRead forwarding: if an adjacent line of `entry` has a pending
    /// write in the queue, its up-to-date data is forwarded — no bank
    /// operation needed (§4.3), so the side's flag is set at once.
    fn forward_prereads(&mut self, entry: &mut WqEntry) {
        let neighbors = self.sh.geometry.bitline_neighbors(entry.access.addr);
        for side in Side::BOTH {
            if entry.pr_done[side.idx()] {
                continue;
            }
            let Some(n) = neighbors[side.idx()] else {
                continue;
            };
            if self.ls.bank.wq_contains(n) {
                entry.pr_done[side.idx()] = true;
                self.ls.stats.preread_forwards.inc();
            }
        }
    }

    // ----- scheduling -----

    pub(crate) fn dispatch(&mut self, now: Cycle) {
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
        let own = self.sh.cfg.scheme.own_line_verify;
        let job = match self.ls.spare_job.take() {
            Some(mut job) => {
                job.reset(entry, up, down, own);
                job
            }
            None => Box::new(WriteJob::new(entry, up, down, own)),
        };
        self.run_step(job, now);
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
            entry.need[side.idx()] && nb[side.idx()].is_some_and(|n| !self.ls.is_salvaged(n))
        };
        [live(Side::Up), live(Side::Down)]
    }

    fn try_issue_preread(&mut self, now: Cycle) -> bool {
        // Oldest queued write with an outstanding, needed pre-read. The
        // cached static need rules most entries out without a lookup;
        // only a candidate rechecks the salvage pool. Pools only grow,
        // so the static need covers the live one and the choice is the
        // one a full re-derivation per entry would make.
        if !self.ls.bank.prereads_open() {
            return false;
        }
        let cap = self.sh.cfg.write_queue_cap;
        let first = self.ls.bank.first_open_preread();
        let b = &self.ls.bank;
        let target = b
            .write_q
            .iter()
            .enumerate()
            .take(cap)
            .skip(first)
            .find_map(|(pos, e)| {
                if !e.preread_open() {
                    return None;
                }
                let need = self.verify_need(e);
                Side::BOTH
                    .into_iter()
                    .find(|side| need[side.idx()] && !e.pr_done[side.idx()])
                    .map(|side| (pos, e.access.addr, side))
            });
        let Some((pos, write_line, side)) = target else {
            return false;
        };
        self.ls.bank.busy_until = now + self.sh.cfg.timing.read;
        self.ls.bank.op = Some(BankOp::IdlePreRead {
            pos,
            write_line,
            side,
        });
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
                self.ls.spare_job = Some(job);
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

    /// Completes the bank's operation at `at`: answers a read, flags
    /// an idle pre-read done, or finishes a write job's front step and then
    /// continues, pauses or ends the job.
    pub(crate) fn complete_op(&mut self, at: Cycle) {
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
            BankOp::IdlePreRead {
                pos,
                write_line,
                side,
            } => {
                self.ls.energy.charge_read(512, true);
                self.ls.bank.wq_preread_done(pos, write_line, side);
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
                    // Job done; completion was pushed at commit. Keep it
                    // for the bank's next write.
                    self.ls.spare_job = Some(job);
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
}

#[cfg(test)]
mod tests {
    use sdpcm_engine::Cycle;
    use sdpcm_pcm::line::DiffMask;

    use crate::ctrl::testkit::*;
    use crate::req::ReqId;
    use crate::scheme::CtrlScheme;
    use crate::writejob::WqEntry;
    use crate::Wake;

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
        assert_eq!(done.iter().filter(|d| d.data.is_none()).count(), 32);
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
        // Run naturally (no forced flush) until the read completes.
        let mut done = Vec::new();
        let mut budget = u64::MAX;
        let rd = loop {
            let wake = c.run_until(None, &mut budget, &mut done).unwrap();
            assert!(matches!(wake, Wake::At(_)), "read lost: {wake:?}");
            if let Some(rd) = done.iter().find(|d| d.id == ReqId(99)) {
                break *rd;
            }
        };
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
        let _ = run_to(&mut c, Cycle(20_000));
        for i in 32..40u64 {
            let t = Cycle(20_000 + i);
            c.submit(write(i, line(7, i as u32, 0), patterned(i), t), t)
                .unwrap();
        }
        let _ = run_until_idle(&mut c);
        assert_eq!(c.stats().writes.get(), 40);
    }

    #[test]
    fn preread_issues_during_idle_time() {
        let mut c = ctrl(CtrlScheme::lazyc_preread());
        let a = line(4, 60, 1);
        c.submit(write(1, a, patterned(6), Cycle(0)), Cycle(0))
            .unwrap();
        // Let the bank idle: the queued write's pre-reads are issued.
        let _ = run_to(&mut c, Cycle(1600));
        assert!(c.stats().prereads_issued.get() >= 2);
        // When the drain later fires, inline pre-reads are skipped.
        drain_all(&mut c, Cycle(2000));
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
            assert_eq!(lane_state(&mut c, 0).bank.write_q[0].need, [true, true]);
            if decommission_up {
                // Retire the upper neighbour into the salvage pool, as
                // the degradation ladder does.
                let up = c.store().geometry().bitline_neighbors(a)[0].unwrap();
                let data = c.architectural_line(up);
                lane_state(&mut c, 0).salvaged.insert(up, data);
            }
            let _ = run_to(&mut c, Cycle(10_000));
            assert!(
                lane_state(&mut c, 0).bank.op.is_none(),
                "the bank must end idle"
            );
            (
                c.stats().prereads_issued.get(),
                lane_state(&mut c, 0).bank.write_q[0].pr_done,
            )
        };
        assert_eq!(run(false), (2, [true, true]));
        assert_eq!(run(true), (1, [false, true]));
    }

    #[test]
    fn an_idle_preread_flags_the_entry_it_was_issued_for() {
        // A cancelled write back at the front of the queue, its
        // pre-reads done, ahead of a later write to the same line whose
        // pre-reads are still open: each idle pre-read must flag the
        // later entry, so the bank issues two and then rests.
        let mut c = ctrl(CtrlScheme::lazyc_preread().with_write_cancellation());
        let a = line(0, 10, 0);
        let mut cancelled = WqEntry::new(write(1, a, patterned(1), Cycle(0)), [true, true]);
        cancelled.pr_done = [true, true];
        let later = WqEntry::new(write(2, a, patterned(2), Cycle(0)), [true, true]);
        let b = &mut lane_state(&mut c, 0).bank;
        b.wq_push(later, false);
        b.wq_push(cancelled, true);
        with_lane(&mut c, 0, |lane| lane.dispatch(Cycle(0)));
        let _ = run_to(&mut c, Cycle(10_000));
        assert_eq!(c.stats().prereads_issued.get(), 2);
        let b = &lane_state(&mut c, 0).bank;
        assert!(b.op.is_none(), "the bank must end idle");
        assert!(!b.prereads_open());
        let flags: Vec<_> = b.write_q.iter().map(|e| e.pr_done).collect();
        assert_eq!(flags, [[true, true], [true, true]]);
        c.check_wq_index().unwrap();
    }

    #[test]
    fn write_cancellation_lets_read_preempt() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_cancellation());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        drain_all(&mut c, Cycle(0)); // start the write job now
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
    fn a_write_behind_a_cancelled_one_coalesces_into_the_newest_entry() {
        // Write A starts; write B to the same line queues behind the job;
        // a read cancels the job, so A goes back at the front, ahead of
        // B. Write C must coalesce into B, which reads forward from and
        // which drains last — not into the cancelled A.
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_cancellation());
        let w = line(5, 70, 0);
        c.submit(write(1, w, patterned(1), Cycle(0)), Cycle(0))
            .unwrap();
        drain_all(&mut c, Cycle(0));
        c.submit(write(2, w, patterned(2), Cycle(10)), Cycle(10))
            .unwrap();
        c.submit(read(3, line(5, 90, 0), Cycle(100)), Cycle(100))
            .unwrap();
        assert_eq!(c.stats().write_cancellations.get(), 1);
        c.submit(write(4, w, patterned(3), Cycle(101)), Cycle(101))
            .unwrap();
        let queued: Vec<_> = lane_state(&mut c, 5)
            .bank
            .write_q
            .iter()
            .map(|e| e.access.kind.write_data())
            .collect();
        assert_eq!(queued, [Some(patterned(1)), Some(patterned(3))]);
        c.submit(read(5, w, Cycle(102)), Cycle(102)).unwrap();
        let done = run_until_idle(&mut c);
        let fwd = done.iter().find(|d| d.id == ReqId(5)).unwrap();
        assert_eq!(fwd.data, Some(patterned(3)), "read of the newest write");
        assert_eq!(c.architectural_line(w), patterned(3), "drained in order");
    }

    #[test]
    fn cancelled_injection_on_an_unwritten_line_keeps_only_its_epoch() {
        // The collateral injection of a cancelled write to a line never
        // written, whose diff programs no cell: no victim anywhere.
        let mut c = ctrl(CtrlScheme::lazyc().with_write_cancellation());
        let a = line(2, 50, 3);
        let (lines, digest) = (c.store().materialized_lines(), c.store().content_digest());
        let hits = with_lane(&mut c, 2, |lane| {
            assert!(lane.absorb_cancel_collateral(a, &DiffMask::empty()));
            lane.ls.bl_hits.clone()
        });
        assert_eq!(hits, [Vec::<u16>::new(), Vec::new()]);
        assert_eq!(c.store().materialized_lines(), lines);
        assert_eq!(c.store().content_digest(), digest);
        // The cancelled epoch stays consumed: the next injection from the
        // line draws from epoch 1.
        assert_eq!(with_lane(&mut c, 2, |lane| lane.store.inject_epoch(a)), 1);
    }

    #[test]
    fn without_cancellation_read_waits_for_whole_job() {
        let mut c = ctrl(CtrlScheme::baseline_vnc());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        drain_all(&mut c, Cycle(0));
        c.submit(read(2, r, Cycle(100)), Cycle(100)).unwrap();
        let done = run_until_idle(&mut c);
        let read_done = done.iter().find(|d| d.id == ReqId(2)).unwrap();
        // Job = 2 pre-reads + write + own-verify + 2 post-reads ≥ 2800.
        assert!(read_done.at >= Cycle(2800), "read at {:?}", read_done.at);
        assert_eq!(c.stats().write_cancellations.get(), 0);
    }

    #[test]
    fn write_pausing_serves_read_between_phases() {
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_pausing());
        let w = line(5, 70, 0);
        let r = line(5, 90, 0); // unrelated line, same bank
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        drain_all(&mut c, Cycle(0));
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
            drain_all(&mut c, t);
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
    fn reads_forward_from_paused_jobs() {
        // A write paused mid-VnC still forwards its data to reads of the
        // same line (program order must not observe the old contents).
        let mut c = ctrl(CtrlScheme::baseline_vnc().with_write_pausing());
        let w = line(5, 70, 0);
        let other = line(5, 90, 0);
        c.submit(write(1, w, patterned(7), Cycle(0)), Cycle(0))
            .unwrap();
        drain_all(&mut c, Cycle(0));
        // A read to another line triggers a pause at the next phase edge.
        c.submit(read(2, other, Cycle(100)), Cycle(100)).unwrap();
        let _ = run_to(&mut c, Cycle(450)); // first phase done, job paused
                                            // Now read the paused write's own line: must forward new data.
        c.submit(read(3, w, Cycle(460)), Cycle(460)).unwrap();
        let done = run_until_idle(&mut c);
        let fwd = done.iter().find(|d| d.id == ReqId(3)).unwrap();
        assert_eq!(fwd.data, Some(patterned(7)));
        assert!(c.stats().read_forwards.get() >= 1);
    }
}
