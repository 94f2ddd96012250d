//! The full-hierarchy front end: cores → L1/L2/L3 → memory controller.
//!
//! [`crate::system::SystemSim`] replays *post-cache* reference streams,
//! matching the paper's PIN methodology (§5.2). This simulator is the
//! other front end the paper's in-house tool had: cores issue cache-line
//! loads/stores, the Table 2 hierarchy filters them, and only L3 misses
//! and dirty L3 evictions reach PCM. Useful when the question is how a
//! cache configuration changes the PCM-level traffic mix (the figures do
//! not need it; `examples/hierarchy_mode.rs` shows the raw plumbing).
//!
//! Modelling notes: cores are in-order and blocking — a load stalls the
//! core through the hierarchy latency plus, on an L3 miss, the PCM read;
//! stores are posted once the hierarchy access completes; write-backs
//! synthesize their payload from the line's newest architectural value
//! XOR a per-core toggle mask (the store path is presence/dirtiness
//! only, per `sdpcm-cachesim`).
//!
//! Every core simulates its cache stack inline, driven by its own
//! address stream and RNG; `tests/content_golden.rs` pins the resulting
//! device state.

use sdpcm_cachesim::cache::AccessKind as CacheAccess;
use sdpcm_cachesim::hierarchy::CoreCaches;
use sdpcm_engine::hash::FxHashMap;
use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_memctrl::{Access, AccessKind, Completion, CtrlConfig, MemoryController, ReqId};
use sdpcm_osalloc::{NmAllocator, PageTable};
use sdpcm_pcm::geometry::{LineAddr, PageId};
use sdpcm_trace::addr::{AddressStream, LINES_PER_PAGE};
use sdpcm_trace::{BenchKind, ToggleMask, Workload};

use crate::config::{ExperimentParams, Scheme};
use crate::error::{MapError, SdpcmError, SimError};
use crate::metrics::RunStats;

/// Knobs specific to hierarchy mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyParams {
    /// Cache accesses each core performs.
    pub accesses_per_core: u64,
    /// Instructions (cycles at 1 CPI) between consecutive cache accesses.
    pub insts_per_access: u64,
    /// Fraction of accesses that are stores.
    pub store_fraction: f64,
    /// The cache stack (Table 2 by default; shrink for tests so misses
    /// actually reach PCM).
    pub caches: sdpcm_cachesim::hierarchy::HierarchyConfig,
}

impl HierarchyParams {
    /// Small caches + short runs: every test reaches PCM quickly.
    #[must_use]
    pub fn quick_test() -> HierarchyParams {
        HierarchyParams {
            accesses_per_core: 1_500,
            insts_per_access: 3,
            store_fraction: 0.3,
            caches: sdpcm_cachesim::hierarchy::HierarchyConfig::tiny(),
        }
    }

    /// The paper's Table 2 hierarchy.
    #[must_use]
    pub fn table2() -> HierarchyParams {
        HierarchyParams {
            accesses_per_core: 100_000,
            insts_per_access: 3,
            store_fraction: 0.3,
            caches: sdpcm_cachesim::hierarchy::HierarchyConfig::table2(),
        }
    }
}

/// An access whose cache outcome is known but whose controller
/// interactions (write-backs, fill) must wait until the event loop
/// reaches the access's start time. Produced when
/// [`HierarchySim::step_core_live`] batches cache-resident accesses past
/// `now` and then hits one that touches PCM: the payload synthesis reads
/// controller state, so it may only run once the controller has been
/// advanced to the access time.
struct PendingAccess {
    fill: Option<u64>,
    writebacks: Vec<(u64, ToggleMask)>,
    latency: Cycle,
}

struct HCore {
    stream: AddressStream,
    caches: Box<CoreCaches>,
    rng: SimRng,
    ready_at: Cycle,
    accesses_done: u64,
    instructions: u64,
    blocked_on: Option<ReqId>,
    finish: Option<Cycle>,
    /// Deferred non-absorbed access from a batch (see [`PendingAccess`]).
    pending: Option<PendingAccess>,
}

/// The hierarchy-mode simulator.
///
/// # Examples
///
/// ```
/// use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
/// use sdpcm_core::{ExperimentParams, Scheme};
/// use sdpcm_trace::BenchKind;
///
/// let mut sim = HierarchySim::build(
///     Scheme::lazyc(),
///     BenchKind::Wrf,
///     &ExperimentParams::quick_test(),
///     &HierarchyParams::quick_test(),
/// )
/// .unwrap();
/// let stats = sim.run().unwrap();
/// assert!(stats.total_cycles > 0);
/// ```
pub struct HierarchySim {
    scheme: Scheme,
    workload_name: String,
    hparams: HierarchyParams,
    ctrl: MemoryController,
    cores: Vec<HCore>,
    tables: Vec<PageTable>,
    inflight: FxHashMap<ReqId, usize>,
    done_scratch: Vec<Completion>,
    next_id: u64,
    pcm_fills: u64,
    pcm_writebacks: u64,
}

impl std::fmt::Debug for HierarchySim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HierarchySim")
            .field("scheme", &self.scheme.name)
            .field("workload", &self.workload_name)
            .finish()
    }
}

impl HierarchySim {
    /// Builds the system: eight copies of `bench`, each core with its own
    /// private cache stack and OS page mapping. Fails when the parameters
    /// are degenerate or the workload does not fit the device.
    pub fn build(
        scheme: Scheme,
        bench: BenchKind,
        params: &ExperimentParams,
        hparams: &HierarchyParams,
    ) -> Result<HierarchySim, SdpcmError> {
        params.validate()?;
        let workload = Workload::homogeneous(bench);
        let mut rng = SimRng::from_seed_label(params.seed, "hier-system");
        let geometry = params.geometry_for(&workload, scheme.ratio)?;
        let cfg = CtrlConfig {
            write_queue_cap: params.write_queue_cap,
            ecp_entries: params.ecp_entries,
            ..CtrlConfig::table2(scheme.ctrl)
        };
        let ctrl = MemoryController::try_new(cfg, geometry, rng.derive("ctrl"))?;

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
        // Free the OS allocator's buddy lists before the cache stacks are
        // allocated, so they reuse that memory instead of growing the heap
        // (the difference doubles build time on Table 2 caches).
        drop(os);

        let cores = workload
            .profiles()
            .iter()
            .enumerate()
            .map(|(core, profile)| HCore {
                stream: AddressStream::new(
                    profile.pattern,
                    profile.ws_pages,
                    rng.derive(&format!("hier-addr{core}")),
                ),
                caches: Box::new(CoreCaches::new(hparams.caches)),
                rng: rng.derive(&format!("hier-core{core}")),
                ready_at: Cycle::ZERO,
                accesses_done: 0,
                instructions: 0,
                blocked_on: None,
                finish: None,
                pending: None,
            })
            .collect();
        Ok(HierarchySim {
            scheme,
            workload_name: workload.name().to_owned(),
            hparams: *hparams,
            ctrl,
            cores,
            tables,
            inflight: FxHashMap::default(),
            done_scratch: Vec::new(),
            next_id: 0,
            pcm_fills: 0,
            pcm_writebacks: 0,
        })
    }

    /// The controller (diagnostics).
    #[must_use]
    pub fn controller(&self) -> &MemoryController {
        &self.ctrl
    }

    /// `(L3-miss fills, dirty write-backs)` the hierarchy produced.
    #[must_use]
    pub fn pcm_traffic(&self) -> (u64, u64) {
        (self.pcm_fills, self.pcm_writebacks)
    }

    fn translate(&self, core: usize, vline: u64) -> Result<LineAddr, MapError> {
        let vpage = vline / LINES_PER_PAGE;
        let slot = (vline % LINES_PER_PAGE) as u8;
        let pte = self.tables[core]
            .translate(vpage)
            .ok_or(MapError::WorkingSetUnmapped { core, vpage })?;
        let (bank, row) = self
            .ctrl
            .store()
            .geometry()
            .page_to_bank_row(PageId(pte.frame));
        Ok(LineAddr { bank, row, slot })
    }

    /// Posts a dirty write-back whose payload is the line's newest
    /// architectural value with `mask` applied.
    fn submit_writeback_mask(
        &mut self,
        core: usize,
        vline: u64,
        mask: &ToggleMask,
        now: Cycle,
    ) -> Result<(), SdpcmError> {
        let addr = self.translate(core, vline)?;
        let mut words = *self.ctrl.latest_architectural(addr).words();
        for (w, m) in words.iter_mut().zip(mask) {
            *w ^= m;
        }
        let id = ReqId(self.next_id);
        self.next_id += 1;
        self.pcm_writebacks += 1;
        self.ctrl.submit(
            Access {
                id,
                addr,
                kind: AccessKind::Write(sdpcm_pcm::line::LineBuf::from_words(words)),
                ratio: self.scheme.ratio,
                core: core as u8,
                arrive: now,
            },
            now,
        )?;
        Ok(())
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] when the event loop stops making
    /// progress, and propagates controller and translation errors.
    pub fn run(&mut self) -> Result<RunStats, SdpcmError> {
        let quota = self.hparams.accesses_per_core;
        let mut guard = 0u64;
        loop {
            if self.cores.iter().all(|c| c.finish.is_some()) {
                break;
            }
            let core_t = self
                .cores
                .iter()
                .filter(|c| c.blocked_on.is_none() && c.finish.is_none())
                .map(|c| c.ready_at)
                .min();
            let ctrl_t = self.ctrl.next_event();
            let now = match (core_t, ctrl_t) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return Err(self.livelock(Cycle::MAX)),
            };
            guard += 1;
            if guard >= 500_000_000 {
                return Err(self.livelock(now));
            }
            let _t = prof::timer(Site::HierStep);

            let mut done_buf = std::mem::take(&mut self.done_scratch);
            self.ctrl.advance_into(now, &mut done_buf)?;
            for done in &done_buf {
                if let Some(core) = self.inflight.remove(&done.id) {
                    self.cores[core].blocked_on = None;
                    self.cores[core].ready_at = done.at;
                }
            }
            self.done_scratch = done_buf;

            for core in 0..self.cores.len() {
                let c = &self.cores[core];
                if c.finish.is_some() || c.blocked_on.is_some() || c.ready_at > now {
                    continue;
                }
                self.step_core_live(core, now, quota)?;
            }
        }

        // Final flush so per-write statistics cover everything.
        let end = Cycle(self.total_cycles());
        self.ctrl.drain_all(end);
        while let Some(t) = self.ctrl.next_event() {
            let mut done_buf = std::mem::take(&mut self.done_scratch);
            self.ctrl.advance_into(t, &mut done_buf)?;
            self.done_scratch = done_buf;
            self.ctrl.drain_all(t);
        }

        Ok(RunStats {
            scheme: self.scheme.name.clone(),
            workload: format!("{}(hier)", self.workload_name),
            total_cycles: self.total_cycles(),
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            reads: self.pcm_fills,
            writes: self.pcm_writebacks,
            ctrl: self.ctrl.stats(),
            wear: self.ctrl.store().wear(),
            energy: self.ctrl.energy(),
        })
    }

    /// Builds the livelock report with the controller's queue snapshot.
    fn livelock(&self, now: Cycle) -> SdpcmError {
        SimError::Livelock {
            cycle: now.0,
            refs_done: self.cores.iter().map(|c| c.accesses_done).sum(),
            snapshot: self.ctrl.snapshot(now),
        }
        .into()
    }

    /// One core turn. Cache-resident (absorbed) accesses are purely
    /// core-local — stream, RNG, and cache state are private, and they
    /// never touch the controller — so consecutive ones are retired in a
    /// batch here instead of bouncing through the event loop once per
    /// access. The first access that does reach PCM ends the batch: its
    /// cache outcome and toggle draws are taken immediately (the per-core
    /// RNG order must not change), but its controller interactions are
    /// deferred via [`PendingAccess`] until the event loop has advanced
    /// the controller to the access's start time — payload synthesis
    /// reads controller state, and submitting early would reorder it
    /// against other cores' intervening traffic.
    fn step_core_live(&mut self, core: usize, now: Cycle, quota: u64) -> Result<(), SdpcmError> {
        if let Some(p) = self.cores[core].pending.take() {
            for (vline, mask) in &p.writebacks {
                self.submit_writeback_mask(core, *vline, mask, now)?;
            }
            let c = &mut self.cores[core];
            c.accesses_done += 1;
            c.instructions += self.hparams.insts_per_access;
            let after = now + p.latency + Cycle(self.hparams.insts_per_access);
            return self.finish_access(core, p.fill, after, quota);
        }
        let store_fraction = self.hparams.store_fraction;
        let insts = self.hparams.insts_per_access;
        let mut t = now;
        loop {
            let HCore {
                stream,
                caches,
                rng,
                ..
            } = &mut self.cores[core];
            let (vpage, slot) = stream.next_line();
            let vline = vpage * LINES_PER_PAGE + u64::from(slot);
            let is_store = rng.chance(store_fraction);
            let kind = if is_store {
                CacheAccess::Write
            } else {
                CacheAccess::Read
            };
            let out = caches.access(vline, kind);
            if out.pcm_fill.is_none() && out.pcm_writebacks.is_empty() {
                let latency = out.latency;
                let c = &mut self.cores[core];
                c.accesses_done += 1;
                c.instructions += insts;
                t = t + latency + Cycle(insts);
                if c.accesses_done >= quota {
                    c.finish = Some(t);
                    c.blocked_on = None;
                    self.inflight.retain(|_, &mut owner| owner != core);
                    return Ok(());
                }
                continue;
            }
            // Dirty evictions become posted PCM writes; payloads are the
            // newest architectural value XOR 48 per-core toggle draws.
            let mut writebacks = Vec::new();
            for &wb in &out.pcm_writebacks {
                let mut mask = ToggleMask::default();
                for _ in 0..48 {
                    let b = rng.index(512);
                    mask[b / 64] ^= 1 << (b % 64);
                }
                writebacks.push((wb, mask));
            }
            if t == now {
                for (vline, mask) in &writebacks {
                    self.submit_writeback_mask(core, *vline, mask, now)?;
                }
                let c = &mut self.cores[core];
                c.accesses_done += 1;
                c.instructions += insts;
                let after = now + out.latency + Cycle(insts);
                return self.finish_access(core, out.pcm_fill, after, quota);
            }
            let c = &mut self.cores[core];
            c.pending = Some(PendingAccess {
                fill: out.pcm_fill,
                writebacks,
                latency: out.latency,
            });
            c.ready_at = t;
            return Ok(());
        }
    }

    /// The shared back half of one access: block on an L3-miss fill,
    /// otherwise resume at `after`; retire the core when it reaches its
    /// quota (a final fill is still submitted but no longer awaited).
    fn finish_access(
        &mut self,
        core: usize,
        fill: Option<u64>,
        after: Cycle,
        quota: u64,
    ) -> Result<(), SdpcmError> {
        if let Some(fill_line) = fill {
            // L3 miss: the core blocks on the PCM read.
            let addr = self.translate(core, fill_line)?;
            let id = ReqId(self.next_id);
            self.next_id += 1;
            self.pcm_fills += 1;
            self.inflight.insert(id, core);
            self.cores[core].blocked_on = Some(id);
            self.ctrl.submit(
                Access {
                    id,
                    addr,
                    kind: AccessKind::Read,
                    ratio: self.scheme.ratio,
                    core: core as u8,
                    arrive: after,
                },
                after,
            )?;
        } else {
            self.cores[core].ready_at = after;
        }
        if self.cores[core].accesses_done >= quota {
            self.cores[core].finish = Some(after);
            self.cores[core].blocked_on = None;
            self.inflight.retain(|_, &mut c| c != core);
        }
        Ok(())
    }

    fn total_cycles(&self) -> u64 {
        self.cores
            .iter()
            .filter_map(|c| c.finish)
            .map(|c| c.0)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme, bench: BenchKind) -> (RunStats, (u64, u64)) {
        let mut sim = HierarchySim::build(
            scheme,
            bench,
            &ExperimentParams::quick_test(),
            &HierarchyParams::quick_test(),
        )
        .unwrap();
        let stats = sim.run().unwrap();
        let traffic = sim.pcm_traffic();
        (stats, traffic)
    }

    #[test]
    fn completes_and_produces_pcm_traffic() {
        let (stats, (fills, wbs)) = quick(Scheme::lazyc(), BenchKind::Mcf);
        assert!(stats.total_cycles > 0);
        assert!(fills > 100, "random mcf traffic must miss the tiny caches");
        assert!(wbs > 10, "stores must eventually write back");
        assert_eq!(stats.reads, fills);
        assert_eq!(stats.writes, wbs);
    }

    #[test]
    fn cache_resident_workload_barely_touches_pcm() {
        // wrf's hot set fits even the tiny L3 after warmup: PCM fills per
        // access must be far below mcf's.
        let (wrf, (wrf_fills, _)) = quick(Scheme::lazyc(), BenchKind::Wrf);
        let (mcf, (mcf_fills, _)) = quick(Scheme::lazyc(), BenchKind::Mcf);
        let wrf_rate = wrf_fills as f64 / 1_500.0;
        let mcf_rate = mcf_fills as f64 / 1_500.0;
        assert!(
            wrf_rate < mcf_rate,
            "hot-set wrf ({wrf_rate:.3}) must miss less than random mcf ({mcf_rate:.3})"
        );
        assert!(wrf.total_cycles < mcf.total_cycles);
    }

    #[test]
    fn vnc_overhead_visible_through_the_hierarchy() {
        let (din, _) = quick(Scheme::din(), BenchKind::Mcf);
        let (base, _) = quick(Scheme::baseline(), BenchKind::Mcf);
        assert!(
            base.total_cycles > din.total_cycles,
            "basic VnC must be slower even behind caches: {} vs {}",
            base.total_cycles,
            din.total_cycles
        );
        assert!(base.ctrl.verification_ops.get() > 0);
    }

    #[test]
    fn deterministic() {
        let (a, ta) = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        let (b, tb) = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(ta, tb);
    }
}
