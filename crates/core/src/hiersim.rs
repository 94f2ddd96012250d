//! The full-hierarchy front end: cores → L1/L2/L3 → memory controller.
//!
//! [`crate::system::SystemSim`] replays *post-cache* reference streams,
//! matching the paper's PIN methodology (§5.2). This simulator is the
//! other front end the paper's in-house tool had: cores issue cache-line
//! loads/stores, the Table 2 hierarchy filters them, and only L3 misses
//! and dirty L3 evictions reach PCM. Useful when the question is how a
//! cache configuration changes the PCM-level traffic mix (the figures do
//! not need it; `examples/hierarchy_mode.rs` runs [`HierarchySim`]).
//!
//! Modelling notes: cores are in-order and blocking — a load stalls the
//! core through the hierarchy latency plus, on an L3 miss, the PCM read;
//! stores are posted once the hierarchy access completes; write-backs
//! synthesize their payload from the line's newest architectural value
//! XOR a per-core toggle mask (the store path is presence/dirtiness
//! only, per `sdpcm-cachesim`).
//!
//! Dirty write-backs are posted without asking
//! [`MemoryController::can_accept_write`], so a bank's write queue can
//! exceed its cap (the post-cache front end stalls the core instead). In
//! the pinned golden configuration (`quick_test`, mcf, cap 32) a queue
//! peaks at 37 entries under baseline VnC and 34 under LazyC+PreRead,
//! with 49 and 19 over-cap postings. Adding the back-pressure moves the
//! hierarchy goldens, so it waits for a deliberate migration.
//!
//! Every core simulates its cache stack inline, driven by its own
//! address stream and RNG; `tests/content_golden.rs` pins the resulting
//! device state. The OS mapping, the controller and the event loop are
//! the back end shared with `SystemSim` (`backend.rs`); this module
//! holds only the cores.

use sdpcm_cachesim::cache::AccessKind as CacheAccess;
use sdpcm_cachesim::hierarchy::CoreCaches;
use sdpcm_engine::prof::Site;
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_memctrl::MemoryController;
use sdpcm_trace::addr::{AddressStream, LINES_PER_PAGE};
use sdpcm_trace::{BenchKind, ToggleMask, Workload};

use crate::backend::{Backend, Cores, Target};
use crate::config::{ExperimentParams, Scheme};
use crate::error::{MapError, SdpcmError};
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
/// [`CacheCores::step`] batches cache-resident accesses past
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
    caches: CoreCaches,
    rng: SimRng,
    ready_at: Cycle,
    accesses_done: u64,
    instructions: u64,
    /// Waiting for an L3-miss fill.
    blocked: bool,
    finish: Option<Cycle>,
    /// Deferred non-absorbed access from a batch (see [`PendingAccess`]).
    pending: Option<PendingAccess>,
}

/// The cache-driven cores and the knobs they run under.
struct CacheCores {
    cores: Vec<HCore>,
    hparams: HierarchyParams,
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
    be: Backend,
    cores: CacheCores,
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
        let workload = Workload::homogeneous(bench);
        let (be, mut rng) = Backend::build(&scheme, &workload, params, "hier-system")?;
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
                caches: CoreCaches::new(hparams.caches),
                rng: rng.derive(&format!("hier-core{core}")),
                ready_at: Cycle::ZERO,
                accesses_done: 0,
                instructions: 0,
                blocked: false,
                finish: None,
                pending: None,
            })
            .collect();
        Ok(HierarchySim {
            scheme,
            workload_name: workload.name().to_owned(),
            be,
            cores: CacheCores {
                cores,
                hparams: *hparams,
            },
        })
    }

    /// The controller (diagnostics).
    #[must_use]
    pub fn controller(&self) -> &MemoryController {
        self.be.controller()
    }

    /// `(L3-miss fills, dirty write-backs)` the hierarchy produced.
    #[must_use]
    pub fn pcm_traffic(&self) -> (u64, u64) {
        self.be.traffic()
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`](crate::SimError::Livelock) when the
    /// event loop stops making progress, and propagates controller and
    /// translation errors.
    pub fn run(&mut self) -> Result<RunStats, SdpcmError> {
        let workload = format!("{}(hier)", self.workload_name);
        self.be.run(&mut self.cores, &self.scheme.name, &workload)
    }
}

/// Translates a core's virtual cache line.
fn translate(be: &Backend, core: usize, vline: u64) -> Result<Target, MapError> {
    be.translate(core, vline / LINES_PER_PAGE, (vline % LINES_PER_PAGE) as u8)
}

impl CacheCores {
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
    fn step(&mut self, be: &mut Backend, core: usize, now: Cycle) -> Result<(), SdpcmError> {
        let insts = self.hparams.insts_per_access;
        if let Some(p) = self.cores[core].pending.take() {
            for (vline, mask) in &p.writebacks {
                be.write(core, translate(be, core, *vline)?, mask, now)?;
            }
            let c = &mut self.cores[core];
            c.accesses_done += 1;
            c.instructions += insts;
            let after = now + p.latency + Cycle(insts);
            return self.finish_access(be, core, p.fill, after);
        }
        let store_fraction = self.hparams.store_fraction;
        let quota = self.hparams.accesses_per_core;
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
                    be.write(core, translate(be, core, *vline)?, mask, now)?;
                }
                let c = &mut self.cores[core];
                c.accesses_done += 1;
                c.instructions += insts;
                let after = now + out.latency + Cycle(insts);
                return self.finish_access(be, core, out.pcm_fill, after);
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
        be: &mut Backend,
        core: usize,
        fill: Option<u64>,
        after: Cycle,
    ) -> Result<(), SdpcmError> {
        if let Some(fill_line) = fill {
            be.read(core, translate(be, core, fill_line)?, after)?;
        }
        let c = &mut self.cores[core];
        c.ready_at = after;
        if c.accesses_done >= self.hparams.accesses_per_core {
            c.finish = Some(after);
        } else {
            // An L3 miss blocks the core on the PCM read.
            c.blocked = fill.is_some();
        }
        Ok(())
    }
}

impl Cores for CacheCores {
    const STEP: Site = Site::HierStep;

    fn finished(&self) -> bool {
        self.cores.iter().all(|c| c.finish.is_some())
    }

    fn next_issue(&self) -> Option<Cycle> {
        self.cores
            .iter()
            .filter(|c| !c.blocked && c.finish.is_none())
            .map(|c| c.ready_at)
            .min()
    }

    fn read_done(&mut self, core: usize, at: Cycle) {
        // A retired core's final fill lands here too; it no longer acts.
        let c = &mut self.cores[core];
        c.blocked = false;
        c.ready_at = at;
    }

    fn issue_ready(&mut self, be: &mut Backend, now: Cycle) -> Result<(), SdpcmError> {
        for core in 0..self.cores.len() {
            let c = &self.cores[core];
            if c.finish.is_none() && !c.blocked && c.ready_at <= now {
                self.step(be, core, now)?;
            }
        }
        Ok(())
    }

    fn progress(&self) -> u64 {
        self.cores.iter().map(|c| c.accesses_done).sum()
    }

    fn total_cycles(&self) -> u64 {
        self.cores
            .iter()
            .filter_map(|c| c.finish)
            .map(|c| c.0)
            .max()
            .unwrap_or(0)
    }

    fn instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
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
    fn dimm_age_reaches_the_controller() {
        let digest = |dimm_age| {
            let params = ExperimentParams {
                dimm_age,
                ..ExperimentParams::quick_test()
            };
            let mut sim = HierarchySim::build(
                Scheme::lazyc(),
                BenchKind::Mcf,
                &params,
                &HierarchyParams::quick_test(),
            )
            .unwrap();
            sim.run().unwrap();
            sim.controller().store().content_digest()
        };
        assert_ne!(
            digest(Some(0.9)),
            digest(None),
            "an aged DIMM must plant hard errors"
        );
    }

    #[test]
    fn deterministic() {
        let (a, ta) = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        let (b, tb) = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(ta, tb);
    }
}
