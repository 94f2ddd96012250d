//! The PCM half both front ends share: OS mapping, request submission and
//! the event loop.
//!
//! [`crate::system::SystemSim`] and [`crate::hiersim::HierarchySim`]
//! differ only in what their cores do before a reference reaches main
//! memory. Everything behind that point lives here, once: the per-core
//! page tables filled by the WD-aware allocator, translation (the
//! page-table entry carries the `(n:m)` allocator tag to the controller,
//! Figure 9), write payload synthesis, the demand traffic counters, the
//! event loop and the end of the run. A front end plugs its cores in
//! through [`Cores`].

use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_memctrl::{Access, AccessKind, Completion, MemoryController, ReqId, Wake};
use sdpcm_osalloc::{NmAllocator, NmRatio, PageTable};
use sdpcm_pcm::geometry::{LineAddr, PageId};
use sdpcm_pcm::line::LineBuf;
use sdpcm_trace::{ToggleMask, Workload};

use crate::config::{ExperimentParams, Scheme};
use crate::error::{MapError, SdpcmError, SimError};
use crate::metrics::RunStats;

/// Livelock guard of [`Backend::run`]: front-end wakes plus bank
/// operations processed inside the controller.
const LOOP_BUDGET: u64 = 500_000_000;

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
    /// The run's execution time: when the last core retired.
    fn total_cycles(&self) -> u64;
    /// Instructions retired across all cores.
    fn instructions(&self) -> u64;
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
        // The allocator is needed only to map, so its buddy lists are freed
        // before anything else is built. The cache stacks do not reuse that
        // memory: their zeroed arrays come straight from pages the OS maps
        // on first touch, and keeping the allocator alive until they are
        // built leaves hier-wrf's set-up time and peak RSS unchanged.
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

    /// Submits a demand read at `at` for `core`; [`Backend::run`] hands
    /// its completion to [`Cores::read_done`].
    pub(crate) fn read(&mut self, core: usize, to: Target, at: Cycle) -> Result<(), SdpcmError> {
        self.reads += 1;
        self.submit(core, to, AccessKind::Read, at)
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
        self.submit(core, to, AccessKind::Write(data), at)
    }

    /// Hands one access to the controller under a fresh request id.
    fn submit(
        &mut self,
        core: usize,
        to: Target,
        kind: AccessKind,
        at: Cycle,
    ) -> Result<(), SdpcmError> {
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
        Ok(())
    }

    /// Runs the event loop until every core has retired — run the
    /// controller to the next time a core can observe something (its
    /// next issue, or a read completion that may unblock one), unblock
    /// cores whose reads completed, then let ready cores act — and
    /// reports the run's statistics under `scheme` and `workload`.
    ///
    /// The run ends with one [`MemoryController::flush`], so per-write
    /// statistics cover the full reference stream; it is not counted
    /// toward execution time, and its completions wake no core. The
    /// flush starts at the controller's next event, or at the last
    /// finish when the controller is idle. That start is unobservable
    /// without a chaos plan (see `flush`), so both front ends share it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with the controller's queue
    /// snapshot) when the loop stops making progress, and propagates
    /// controller and translation errors.
    pub(crate) fn run<C: Cores>(
        &mut self,
        cores: &mut C,
        scheme: &str,
        workload: &str,
    ) -> Result<RunStats, SdpcmError> {
        self.run_within(cores, LOOP_BUDGET)?;
        let total_cycles = cores.total_cycles();
        let start = self.ctrl.next_event().unwrap_or(Cycle(total_cycles));
        self.ctrl.flush(start, &mut self.done_scratch)?;
        Ok(RunStats {
            scheme: scheme.to_owned(),
            workload: workload.to_owned(),
            total_cycles,
            instructions: cores.instructions(),
            reads: self.reads,
            writes: self.writes,
            ctrl: self.ctrl.stats(),
            wear: self.ctrl.store().wear(),
            energy: self.ctrl.energy(),
        })
    }

    /// [`Backend::run`] with an explicit livelock budget, spent one unit
    /// per wake and one per bank operation the controller processes.
    fn run_within<C: Cores>(&mut self, cores: &mut C, mut budget: u64) -> Result<(), SdpcmError> {
        while !cores.finished() {
            let _t = prof::timer(C::STEP);
            if budget == 0 {
                let at = self.ctrl.next_event().unwrap_or(Cycle::MAX);
                return Err(self.livelock(at, cores.progress()));
            }
            budget -= 1;
            // Deliver controller completions first: they may unblock
            // cores whose next issue is also at `now`.
            let wake =
                self.ctrl
                    .run_until(cores.next_issue(), &mut budget, &mut self.done_scratch)?;
            let now = match wake {
                Wake::At(now) => now,
                // Cores are unfinished but nothing they wait on will
                // ever happen: the loop can never progress again.
                Wake::Idle => return Err(self.livelock(Cycle::MAX, cores.progress())),
                Wake::OutOfBudget(at) => return Err(self.livelock(at, cores.progress())),
            };
            for done in &self.done_scratch {
                if done.data.is_some() {
                    cores.read_done(usize::from(done.core), done.at);
                }
            }
            cores.issue_ready(self, now)?;
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use sdpcm_trace::BenchKind;

    /// Cores blocked on a read the controller never received: nothing
    /// they wait on can ever happen.
    struct Stuck;

    impl Cores for Stuck {
        const STEP: Site = Site::SystemStep;

        fn finished(&self) -> bool {
            false
        }

        fn next_issue(&self) -> Option<Cycle> {
            None
        }

        fn read_done(&mut self, core: usize, _at: Cycle) {
            panic!("core {core} never submitted a read");
        }

        fn issue_ready(&mut self, _be: &mut Backend, _now: Cycle) -> Result<(), SdpcmError> {
            Ok(())
        }

        fn progress(&self) -> u64 {
            7
        }

        fn total_cycles(&self) -> u64 {
            0
        }

        fn instructions(&self) -> u64 {
            0
        }
    }

    fn backend() -> Backend {
        let (be, _) = Backend::build(
            &Scheme::lazyc_preread(),
            &Workload::homogeneous(BenchKind::Mcf),
            &ExperimentParams::quick_test(),
            "backend-test",
        )
        .unwrap();
        be
    }

    fn livelock(err: SdpcmError) -> (u64, u64, sdpcm_memctrl::CtrlSnapshot) {
        match err {
            SdpcmError::Sim(SimError::Livelock {
                cycle,
                refs_done,
                snapshot,
            }) => (cycle, refs_done, snapshot),
            other => panic!("expected a livelock, got {other}"),
        }
    }

    #[test]
    fn blocked_cores_over_an_idle_controller_livelock() {
        let err = backend().run(&mut Stuck, "stuck", "stuck");
        let (cycle, refs_done, snapshot) = livelock(err.unwrap_err());
        assert_eq!((cycle, refs_done), (u64::MAX, 7));
        assert_eq!(snapshot.in_flight, 0);
    }

    #[test]
    fn controller_work_counts_against_the_livelock_budget() {
        // A full write queue keeps the controller busy draining, but none
        // of its bank operations can wake the blocked cores: the budget,
        // not the controller running dry, must end the loop.
        let mut be = backend();
        let cap = be.controller().config().write_queue_cap;
        for slot in 0..cap {
            let to = be.translate(0, 0, slot as u8).unwrap();
            be.write(0, to, &[u64::MAX; 8], Cycle(0)).unwrap();
        }
        let (cycle, refs_done, snapshot) = livelock(be.run_within(&mut Stuck, 4).unwrap_err());
        assert_ne!(cycle, u64::MAX, "must stop on the budget, not on idleness");
        assert_eq!(refs_done, 7);
        assert!(snapshot.in_flight > 0 || snapshot.queued_writes > 0);
    }
}
