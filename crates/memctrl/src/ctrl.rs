//! The memory controller: a small driver over independent bank lanes.
//!
//! Event-driven, through three calls: [`MemoryController::submit`] hands
//! in a request; [`MemoryController::run_until`] runs the banks to the
//! next time a core can observe something — its own next issue time or
//! the earliest read completion — collecting the completions due then;
//! [`MemoryController::flush`] ends the run, draining every write queue
//! and handing out every remaining completion in one call. Write
//! completions, write-job steps and idle pre-reads complete inside
//! those calls and wake no one. [`MemoryController::next_event`] (the
//! earliest bank operation or queued completion of any kind) and the
//! zero-time diagnostics ([`MemoryController::architectural_line`],
//! [`MemoryController::snapshot`], …) read state without moving time.
//!
//! Every run walks one event path: bank operations complete in global
//! `(busy_until, bank)` order, read off a per-bank calendar whose head
//! is cached, and completions leave one controller-wide queue in
//! `(at, id)` order. Each bank's logic runs as an independent lane, so
//! the order banks are visited in is unobservable — it only fixes the
//! draw order of the chaos harness — and so is how often and how far
//! the controller is asked to run (cadence invariance).
//!
//! Per bank (Table 2: 16 banks, 32-entry write queue per bank):
//!
//! * reads have priority and queue FIFO;
//! * writes buffer in the write queue; when it fills, the bank enters a
//!   bursty drain that blocks reads until the queue is empty (§5.1) —
//!   unless write cancellation is on, in which case reads preempt and
//!   may cancel the uncommitted write in flight;
//! * a write executes as a [`WriteJob`](crate::writejob::WriteJob) — the
//!   multi-phase VnC sequence — whose steps occupy the bank back to back;
//! * with PreRead enabled, idle banks run pre-write reads for queued
//!   writes, and pre-reads whose target sits in the write queue are
//!   forwarded for free;
//! * reads that hit a queued write are forwarded from the queue.
//!
//! This module holds construction, the driver surface and the
//! diagnostics. The per-bank logic lives in the private `bank`, `lane`,
//! `program` and `salvage` modules, Start-Gap mapping in
//! [`crate::wearlevel`], and the chaos harness in [`crate::chaos`].
//!
//! Modelling notes: the read-before-write of differential write is folded
//! into the write latency (Table 2 reports write latencies as-is); the
//! shared channel bus (≈8 cycles per 64 B burst) is not modelled — it is
//! two orders of magnitude below the array latencies that dominate.

use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_osalloc::{NmRatio, VerifyPolicy};
use sdpcm_pcm::energy::{EnergyMeter, EnergyParams};
use sdpcm_pcm::geometry::{LineAddr, MemGeometry};
use sdpcm_pcm::line::LineBuf;
use sdpcm_pcm::store::{DeviceStore, InitContent};
use sdpcm_pcm::timing::PcmTiming;
use sdpcm_pcm::wear::HardErrorModel;
use sdpcm_wd::din::DinCodec;
use sdpcm_wd::{DisturbanceModel, WdInjector};

use crate::calendar::{BankCalendar, DueQueue};
use crate::chaos::Chaos;
use crate::error::{BankSnapshot, CtrlError, CtrlSnapshot};
use crate::lane::{Lane, LaneShared, LaneState};
use crate::req::{Access, AccessKind, Completion};
use crate::scheme::CtrlScheme;
use crate::stats::CtrlStats;
use crate::wearlevel::LineMap;

/// Writes serviced per bursty drain before the bank is released back to
/// reads. A full queue re-triggers immediately, so sustained write
/// pressure degenerates to back-to-back bursts; light pressure gets
/// short, bounded read-blocking windows regardless of queue capacity.
pub const DRAIN_BURST: usize = 8;

/// Latency of a read forwarded from the write queue, and of any answer
/// served from controller buffers without an array operation.
pub const FORWARD_LATENCY: Cycle = Cycle(20);

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlConfig {
    /// PCM array timing.
    pub timing: PcmTiming,
    /// Write-queue entries per bank (Table 2: 32).
    pub write_queue_cap: usize,
    /// Mechanism switches.
    pub scheme: CtrlScheme,
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
    /// buffers serving decommissioned lines at [`FORWARD_LATENCY`]).
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
            scheme,
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

/// The memory controller.
pub struct MemoryController {
    /// The context every lane reads, lent to each lane as it runs.
    pub(crate) sh: LaneShared,
    pub(crate) store: DeviceStore,
    /// Per-bank lanes: queues, architectural metadata, and accumulator
    /// slices. Aggregate views ([`MemoryController::stats`]) fold them
    /// in bank order.
    pub(crate) lanes: Vec<LaneState>,
    /// Logical → physical line mapping (Start-Gap or identity).
    map: LineMap,
    /// The chaos harness's fault state.
    pub(crate) chaos: Chaos,
    /// Every queued completion, popped in `(at, id)` order.
    completions: DueQueue,
    /// When each occupied bank's operation completes; written only at
    /// the exit of [`MemoryController::with_lane`].
    calendar: BankCalendar,
    /// Whether some lane holds an anomaly not yet surfaced, so
    /// `take_anomaly` scans the lanes only when there is one to find.
    pub(crate) anomaly_pending: bool,
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("banks", &self.lanes.len())
            .field("scheme", &self.sh.cfg.scheme)
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
            sh: LaneShared {
                cfg,
                geometry,
                policy: VerifyPolicy::new(geometry.strips()),
                injector,
                codec: DinCodec::paper_default(),
                hard_plan: None,
                plant_stream,
                track_commits: false,
            },
            store,
            lanes: (0..geometry.banks()).map(LaneState::new).collect(),
            map: LineMap::new(&geometry, cfg.scheme.start_gap_psi),
            chaos: Chaos::new(rng),
            completions: DueQueue::default(),
            calendar: BankCalendar::new(geometry.banks() as usize),
            anomaly_pending: false,
        })
    }

    /// Controller configuration.
    #[must_use]
    pub fn config(&self) -> &CtrlConfig {
        &self.sh.cfg
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
        self.sh.hard_plan = Some((model, lifetime_fraction));
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
            l.bank
                .check_wq_index()
                .map_err(|e| format!("bank {bi}: {e}"))?;
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

    /// Runs `f` on one bank's lane view: the shared context, the bank's
    /// own `LaneState`, its disjoint store slice and the completion
    /// queue — split borrows of `self` the borrow checker can see never
    /// overlap.
    ///
    /// Every change to a bank's operation or `busy_until` happens inside
    /// a lane, so the exit of this function is the one point that keeps
    /// the bank calendar (and the pending-anomaly flag) current.
    fn with_lane<R>(&mut self, bank: usize, f: impl FnOnce(&mut Lane<'_, '_>) -> R) -> R {
        let mut store = self.store.lane_mut(bank as u16);
        let mut lane = Lane {
            sh: &self.sh,
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
        self.lanes[addr.bank.0 as usize].architectural(&self.sh.codec, addr, || {
            self.store.read_line_and_flags(addr)
        })
    }

    /// Whether a write to `addr` can be accepted right now without
    /// exceeding the queue capacity (coalescing writes always fit).
    /// Cores stall their next write while this is `false` — the
    /// back-pressure that makes bursty drains visible to the pipeline.
    #[must_use]
    pub fn can_accept_write(&self, addr: LineAddr) -> bool {
        let Ok(addr) = self.map.try_remap_addr(addr) else {
            return false; // unmappable writes can never be accepted
        };
        let lane = &self.lanes[addr.bank.0 as usize];
        if lane.is_salvaged(addr) {
            return true; // served from the pool, no queue entry needed
        }
        let b = &lane.bank;
        b.write_q.len() < self.sh.cfg.write_queue_cap || b.wq_contains(addr)
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
    /// (completions stay queued for the next
    /// [`MemoryController::run_until`] or [`MemoryController::flush`]).
    ///
    /// # Errors
    ///
    /// Rejects requests outside the geometry ([`CtrlError::BankOutOfRange`],
    /// [`CtrlError::SpareLineAccess`]) or combining Start-Gap with a
    /// non-(1:1) allocator ([`CtrlError::StartGapRatio`]); surfaces any
    /// broken deep invariant as [`CtrlError::InternalAnomaly`].
    pub fn submit(&mut self, access: Access, now: Cycle) -> Result<(), CtrlError> {
        let _t = prof::timer(Site::CtrlSubmit);
        let access = self.map.remap_start_gap(access)?;
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
        self.with_lane(bank, |lane| lane.submit(access, now));
        Ok(())
    }

    /// Logical → physical for the zero-time diagnostic helpers, which
    /// promise a valid address.
    ///
    /// # Panics
    ///
    /// Panics on an address the mapping rejects (out-of-range bank or
    /// Start-Gap's spare line).
    fn remap_addr(&self, addr: LineAddr) -> LineAddr {
        self.map
            .try_remap_addr(addr)
            .expect("diagnostic helpers are called with valid addresses")
    }

    /// Counts a demand write against the bank's gap schedule; every ψ-th
    /// performs the move: the mapping shifts immediately and the data
    /// copy is enqueued as an internal write (store-forwarding keeps
    /// concurrent reads of the moving line consistent).
    fn maybe_move_gap(&mut self, bank: usize, now: Cycle) {
        let Some((from, to)) = self.map.note_write(bank) else {
            return;
        };
        self.lanes[bank].stats.gap_moves.inc();
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

    /// Ends a run: every bank with queued writes drains them to empty,
    /// idle ones starting at `start`, and every remaining bank operation
    /// completes in the same global `(busy_until, bank)` order as during
    /// the run. All outstanding completions are moved into `out`
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
    /// By cadence invariance a front end sees the same completions and
    /// state however it spaces its calls: once per wake, at every
    /// [`MemoryController::next_event`], or only now and then, leaving
    /// [`MemoryController::submit`] to bring the banks current. Each
    /// processed operation costs one unit of `budget`.
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
            if self.sh.track_commits {
                // The chaos harness sees each operation's commits before
                // the bank dispatches its next one.
                self.with_lane(bank, |lane| lane.complete_op(at));
                self.drain_commits(bank, at);
                self.with_lane(bank, |lane| lane.dispatch(at));
            } else {
                self.with_lane(bank, |lane| {
                    lane.complete_op(at);
                    lane.dispatch(at);
                });
            }
        }
        (limit, ops)
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Fixtures shared by the controller's unit tests.

    use super::*;
    use crate::req::ReqId;
    use sdpcm_pcm::geometry::{BankId, RowId};

    /// A Table 2 controller over a small geometry.
    pub(crate) fn ctrl(scheme: CtrlScheme) -> MemoryController {
        ctrl_with(CtrlConfig::table2(scheme))
    }

    /// A controller with an explicit configuration.
    pub(crate) fn ctrl_with(cfg: CtrlConfig) -> MemoryController {
        MemoryController::new(
            cfg,
            MemGeometry::small(256),
            SimRng::from_seed_label(77, "ctrl-test"),
        )
    }

    pub(crate) fn line(bank: u16, row: u32, slot: u8) -> LineAddr {
        LineAddr {
            bank: BankId(bank),
            row: RowId(row),
            slot,
        }
    }

    pub(crate) fn read(id: u64, addr: LineAddr, at: Cycle) -> Access {
        Access {
            id: ReqId(id),
            addr,
            kind: AccessKind::Read,
            ratio: NmRatio::one_one(),
            core: 0,
            arrive: at,
        }
    }

    pub(crate) fn write(id: u64, addr: LineAddr, data: LineBuf, at: Cycle) -> Access {
        Access {
            id: ReqId(id),
            addr,
            kind: AccessKind::Write(data),
            ratio: NmRatio::one_one(),
            core: 0,
            arrive: at,
        }
    }

    pub(crate) fn patterned(seed: u64) -> LineBuf {
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

    /// Ends the run: flushes and returns every remaining completion.
    pub(crate) fn run_until_idle(c: &mut MemoryController) -> Vec<Completion> {
        let mut out = Vec::new();
        c.flush(c.next_event().unwrap_or(Cycle::ZERO), &mut out)
            .unwrap();
        out
    }

    /// Runs the banks to `t` and returns every completion due by then.
    pub(crate) fn run_to(c: &mut MemoryController, t: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut out = Vec::new();
        let mut budget = u64::MAX;
        loop {
            let wake = c.run_until(Some(t), &mut budget, &mut out).unwrap();
            done.append(&mut out);
            if wake == Wake::At(t) {
                return done;
            }
        }
    }

    /// Starts every bank's queued writes at `now` (a flush without the
    /// run to the end).
    pub(crate) fn drain_all(c: &mut MemoryController, now: Cycle) {
        c.drain_all(now);
    }

    /// One bank's lane state, to stage or inspect it directly.
    pub(crate) fn lane_state(c: &mut MemoryController, bank: usize) -> &mut LaneState {
        &mut c.lanes[bank]
    }

    /// Runs `f` on one bank's lane, as the driver does.
    pub(crate) fn with_lane<R>(
        c: &mut MemoryController,
        bank: usize,
        f: impl FnOnce(&mut Lane<'_, '_>) -> R,
    ) -> R {
        c.with_lane(bank, f)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    #[test]
    fn cold_read_takes_array_latency() {
        let mut c = ctrl(CtrlScheme::din());
        let a = line(0, 10, 0);
        let expect = c.architectural_line(a);
        c.submit(read(1, a, Cycle(0)), Cycle(0)).unwrap();
        let done = run_to(&mut c, Cycle(400));
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
}
