//! The PCM half both front ends share: OS mapping, request submission and
//! the event loop.
//!
//! [`crate::system::SystemSim`] and [`crate::hiersim::HierarchySim`]
//! differ only in what their cores do before a reference reaches main
//! memory. Everything behind that point lives here, once: the per-core
//! page tables filled by the WD-aware allocator, translation (the
//! page-table entry carries the `(n:m)` allocator tag to the controller,
//! Figure 9), write payload synthesis, the in-flight read map, the demand
//! traffic counters, the event loop and the end-of-run flush. A front end
//! plugs its cores in through [`Cores`].

use sdpcm_engine::hash::FxHashMap;
use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_memctrl::{Access, AccessKind, Completion, MemoryController, ReqId};
use sdpcm_osalloc::{NmAllocator, NmRatio, PageTable};
use sdpcm_pcm::geometry::{LineAddr, PageId};
use sdpcm_pcm::line::LineBuf;
use sdpcm_trace::{ToggleMask, Workload};

use crate::config::{ExperimentParams, Scheme};
use crate::error::{MapError, SdpcmError, SimError};
use crate::metrics::RunStats;

/// A front end's cores, as the shared event loop drives them.
pub(crate) trait Cores {
    /// The profiler site one loop iteration is charged to.
    const STEP: Site;
    /// Whether every core has retired.
    fn finished(&self) -> bool;
    /// The earliest time an unblocked core is ready to act.
    fn next_issue(&self) -> Option<Cycle>;
    /// The read `core` was blocked on completed at `at`.
    fn read_done(&mut self, core: usize, at: Cycle);
    /// Lets every unblocked core that is ready at `now` act.
    fn issue_ready(&mut self, be: &mut Backend, now: Cycle) -> Result<(), SdpcmError>;
    /// References retired so far (reported on livelock).
    fn progress(&self) -> u64;
}

/// A translated reference: the device line and the allocator tag its
/// page-table entry carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Target {
    pub(crate) addr: LineAddr,
    pub(crate) ratio: NmRatio,
}

/// The controller plus everything between it and the cores.
pub(crate) struct Backend {
    ctrl: MemoryController,
    tables: Vec<PageTable>,
    /// Outstanding reads and the core blocked on each.
    inflight: FxHashMap<ReqId, usize>,
    /// Reusable completion buffer for the event loop.
    done_scratch: Vec<Completion>,
    next_id: u64,
    reads: u64,
    writes: u64,
}

impl Backend {
    /// Validates `params`, maps every core's working set under the
    /// scheme's ratio and builds the controller. Returns the RNG rooted at
    /// `label` *after* the controller stream has been derived, for the
    /// front end's own draws.
    pub(crate) fn build(
        scheme: &Scheme,
        workload: &Workload,
        params: &ExperimentParams,
        label: &str,
    ) -> Result<(Backend, SimRng), SdpcmError> {
        params.validate()?;
        let mut rng = SimRng::from_seed_label(params.seed, label);
        let geometry = params.geometry_for(workload, scheme.ratio)?;
        // Map before the controller exists and free the allocator's buddy
        // lists at once: the device store and the hierarchy's cache stacks
        // then reuse that memory instead of growing the heap (which
        // doubles build time on Table 2 caches and raises peak RSS).
        let mut os = NmAllocator::new(geometry.total_pages());
        let mut tables = Vec::new();
        for (core, pages) in workload.pages_per_core().into_iter().enumerate() {
            let frames = os
                .alloc_pages(scheme.ratio, pages)
                .ok_or(MapError::DeviceFull { core, pages })?;
            let mut table = PageTable::new();
            for (vpage, frame) in frames.into_iter().enumerate() {
                table.map(vpage as u64, frame, scheme.ratio);
            }
            tables.push(table);
        }
        drop(os);
        let ctrl = params.controller(scheme.ctrl, geometry, rng.derive("ctrl"))?;
        let be = Backend {
            ctrl,
            tables,
            inflight: FxHashMap::default(),
            done_scratch: Vec::new(),
            next_id: 0,
            reads: 0,
            writes: 0,
        };
        Ok((be, rng))
    }

    /// The controller (diagnostics, write-queue back-pressure).
    pub(crate) fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// Mutable access to the controller (chaos installation).
    pub(crate) fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.ctrl
    }

    /// `(demand reads, demand writes)` submitted so far.
    pub(crate) fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Translates a core's virtual line position to its device line and
    /// allocator tag.
    pub(crate) fn translate(&self, core: usize, vpage: u64, slot: u8) -> Result<Target, MapError> {
        let pte = self.tables[core]
            .translate(vpage)
            .ok_or(MapError::WorkingSetUnmapped { core, vpage })?;
        let (bank, row) = self
            .ctrl
            .store()
            .geometry()
            .page_to_bank_row(PageId(pte.frame));
        Ok(Target {
            addr: LineAddr { bank, row, slot },
            ratio: pte.ratio,
        })
    }

    /// Submits a demand read at `at` and registers `core` as blocked on
    /// it; [`Backend::run`] hands the completion to [`Cores::read_done`].
    pub(crate) fn read(&mut self, core: usize, to: Target, at: Cycle) -> Result<(), SdpcmError> {
        self.reads += 1;
        let id = self.submit(core, to, AccessKind::Read, at)?;
        self.inflight.insert(id, core);
        Ok(())
    }

    /// Posts a write at `at` whose payload is the line's newest
    /// architectural value with `mask` applied. Live, replayed and
    /// hierarchy write-backs all go through here, so their payloads are
    /// synthesized identically by construction.
    pub(crate) fn write(
        &mut self,
        core: usize,
        to: Target,
        mask: &ToggleMask,
        at: Cycle,
    ) -> Result<(), SdpcmError> {
        let mut words = *self.ctrl.latest_architectural(to.addr).words();
        for (w, m) in words.iter_mut().zip(mask) {
            *w ^= m;
        }
        self.writes += 1;
        let data = LineBuf::from_words(words);
        self.submit(core, to, AccessKind::Write(data), at)?;
        Ok(())
    }

    /// Hands one access to the controller under a fresh request id.
    fn submit(
        &mut self,
        core: usize,
        to: Target,
        kind: AccessKind,
        at: Cycle,
    ) -> Result<ReqId, SdpcmError> {
        let id = ReqId(self.next_id);
        self.next_id += 1;
        let access = Access {
            id,
            addr: to.addr,
            kind,
            ratio: to.ratio,
            core: core as u8,
            arrive: at,
        };
        self.ctrl.submit(access, at)?;
        Ok(id)
    }

    /// Runs the event loop until every core has retired: pick the next
    /// time a core or the controller acts, advance the controller to it,
    /// unblock cores whose reads completed, then let ready cores act.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with the controller's queue
    /// snapshot) when the loop stops making progress, and propagates
    /// controller and translation errors.
    pub(crate) fn run<C: Cores>(&mut self, cores: &mut C) -> Result<(), SdpcmError> {
        let mut guard: u64 = 0;
        while !cores.finished() {
            let _t = prof::timer(C::STEP);
            let Some(now) = cores
                .next_issue()
                .into_iter()
                .chain(self.ctrl.next_event())
                .min()
            else {
                // Cores are unfinished but nothing is scheduled: the loop
                // can never progress again.
                return Err(self.livelock(Cycle::MAX, cores.progress()));
            };
            guard += 1;
            if guard >= 500_000_000 {
                return Err(self.livelock(now, cores.progress()));
            }
            // Deliver controller completions first: they may unblock
            // cores whose next issue is also at `now`.
            self.ctrl.advance_into(now, &mut self.done_scratch)?;
            for done in &self.done_scratch {
                if done.was_write {
                    continue;
                }
                if let Some(core) = self.inflight.remove(&done.id) {
                    cores.read_done(core, done.at);
                }
            }
            cores.issue_ready(self, now)?;
        }
        Ok(())
    }

    /// Drains every queued write from `start` on, so per-write statistics
    /// cover the full reference stream. Not counted toward execution
    /// time; completions are dropped.
    pub(crate) fn flush(&mut self, start: Cycle) -> Result<(), SdpcmError> {
        self.ctrl.drain_all(start);
        while let Some(t) = self.ctrl.next_event() {
            self.ctrl.advance_into(t, &mut self.done_scratch)?;
            self.ctrl.drain_all(t);
        }
        Ok(())
    }

    /// The run's statistics; the demand counters are the backend's own.
    pub(crate) fn stats(
        &self,
        scheme: &str,
        workload: String,
        total_cycles: u64,
        instructions: u64,
    ) -> RunStats {
        RunStats {
            scheme: scheme.to_owned(),
            workload,
            total_cycles,
            instructions,
            reads: self.reads,
            writes: self.writes,
            ctrl: self.ctrl.stats(),
            wear: self.ctrl.store().wear(),
            energy: self.ctrl.energy(),
        }
    }

    /// The livelock report with the controller's queue snapshot.
    fn livelock(&self, now: Cycle, refs_done: u64) -> SdpcmError {
        SimError::Livelock {
            cycle: now.0,
            refs_done,
            snapshot: self.ctrl.snapshot(now),
        }
        .into()
    }
}
