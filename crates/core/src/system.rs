//! The full-system simulator.
//!
//! Eight trace-driven, single-issue, in-order cores (Table 2) execute
//! their main-memory reference streams: non-memory instructions advance
//! the core clock at 1 CPI, reads block the core until the controller
//! answers, and writes post into the write queue (stalling only when the
//! bank's queue is full — the back-pressure behind bursty drains).
//!
//! Cores always replay a captured [`RefTrace`]: building a system from
//! a workload captures its trace first. The OS mapping, the controller
//! and the event loop are the shared back end (`backend.rs`); this
//! module holds only the cores.

use std::sync::Arc;

use sdpcm_engine::prof::Site;
use sdpcm_engine::Cycle;
use sdpcm_memctrl::chaos::FaultPlan;
use sdpcm_memctrl::MemoryController;
use sdpcm_trace::{BenchKind, RefCursor, RefTrace, TraceMeta, TraceRef, Workload};

use crate::backend::{Backend, Cores};
use crate::config::{ExperimentParams, Scheme};
use crate::error::{SdpcmError, SimError};
use crate::metrics::RunStats;

struct Core {
    /// The core's references, replayed from the shared capture.
    refs: RefCursor<Arc<RefTrace>>,
    /// The next reference and the time the core is ready to issue it.
    pending: Option<(TraceRef, Cycle)>,
    /// Waiting for a read to complete.
    blocked: bool,
    refs_done: u64,
    instructions: u64,
    finish: Option<Cycle>,
}

/// The trace-driven cores.
struct TraceCores {
    cores: Vec<Core>,
}

/// The assembled system: cores + OS mapping + controller.
pub struct SystemSim {
    scheme: Scheme,
    workload_name: String,
    be: Backend,
    cores: TraceCores,
}

impl std::fmt::Debug for SystemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("scheme", &self.scheme.name)
            .field("workload", &self.workload_name)
            .finish()
    }
}

impl SystemSim {
    /// Builds the system for eight copies of `bench` under `scheme`.
    /// The scheme is borrowed (sweeps reuse one instance across many
    /// cells) and cloned once into the simulator.
    pub fn build(
        scheme: &Scheme,
        bench: BenchKind,
        params: &ExperimentParams,
    ) -> Result<SystemSim, SdpcmError> {
        SystemSim::build_workload(scheme, &Workload::homogeneous(bench), params)
    }

    /// Builds the system for an arbitrary 8-core workload: captures its
    /// reference trace and builds over it with
    /// [`SystemSim::build_replay`]. Fails, before anything is captured,
    /// when the parameters are degenerate ([`ExperimentParams::validate`])
    /// or the workload does not fit the device under the scheme's
    /// allocation ratio.
    pub fn build_workload(
        scheme: &Scheme,
        workload: &Workload,
        params: &ExperimentParams,
    ) -> Result<SystemSim, SdpcmError> {
        params.validate()?;
        params.geometry_for(workload, scheme.ratio)?;
        let trace = RefTrace::capture(workload, params.seed, params.refs_per_core);
        SystemSim::build_replay(scheme, workload, params, &Arc::new(trace))
    }

    /// Builds the system over a previously captured reference trace,
    /// which any number of cells may share.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TraceMismatch`] when the trace was captured
    /// for a different `(workload, seed, refs_per_core)` than `params`
    /// asks for, plus everything [`SystemSim::build_workload`] reports.
    pub fn build_replay(
        scheme: &Scheme,
        workload: &Workload,
        params: &ExperimentParams,
        trace: &Arc<RefTrace>,
    ) -> Result<SystemSim, SdpcmError> {
        let expect = TraceMeta::of(workload, params.seed, params.refs_per_core);
        if trace.meta != expect {
            return Err(SimError::TraceMismatch {
                expect: expect.to_string(),
                got: trace.meta.to_string(),
            }
            .into());
        }
        let (be, _) = Backend::build(scheme, workload, params, "system")?;
        let mut cores = TraceCores {
            cores: (0..trace.cores())
                .map(|core| Core {
                    refs: RefCursor::new(Arc::clone(trace), core),
                    pending: None,
                    blocked: false,
                    refs_done: 0,
                    instructions: 0,
                    finish: None,
                })
                .collect(),
        };
        for core in 0..trace.cores() {
            cores.next_ref(core, Cycle::ZERO);
        }
        Ok(SystemSim {
            scheme: scheme.clone(),
            workload_name: workload.name().to_owned(),
            be,
            cores,
        })
    }

    /// Immutable access to the controller (tests, diagnostics).
    #[must_use]
    pub fn controller(&self) -> &MemoryController {
        self.be.controller()
    }

    /// Installs a chaos scenario: the plan is validated and handed to the
    /// controller, which fires its faults as the committed-write counter
    /// crosses their trigger points.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SdpcmError> {
        Ok(self.be.controller_mut().install_chaos(plan)?)
    }

    /// Runs the simulation to completion and reports the statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Livelock`] (with the controller's queue
    /// snapshot) when the event loop stops making progress, and
    /// propagates controller and translation errors.
    pub fn run(&mut self) -> Result<RunStats, SdpcmError> {
        self.be
            .run(&mut self.cores, &self.scheme.name, &self.workload_name)
    }
}

impl TraceCores {
    /// Issues the pending reference of `core` at time `now`.
    fn issue(&mut self, be: &mut Backend, core: usize, now: Cycle) -> Result<(), SdpcmError> {
        let Some((r, _)) = self.cores[core].pending.take() else {
            return Ok(()); // raced away; nothing to issue
        };
        let to = be.translate(core, r.vpage, r.slot)?;
        if r.is_write {
            if !be.controller().can_accept_write(to.addr) {
                // Queue full: stall until the controller makes progress.
                let retry = be
                    .controller()
                    .next_event()
                    .map_or(now + Cycle(400), |t| t.max(now + Cycle(1)));
                self.cores[core].pending = Some((r, retry));
                return Ok(());
            }
            be.write(core, to, &r.mask, now)?;
            self.cores[core].refs_done += 1;
            self.next_ref(core, now);
        } else {
            be.read(core, to, now)?;
            self.cores[core].blocked = true;
            self.cores[core].refs_done += 1;
        }
        Ok(())
    }

    /// Prepares the core's next reference after time `at`, or marks it
    /// finished once its trace, `refs_per_core` references long, is spent.
    fn next_ref(&mut self, core: usize, at: Cycle) {
        let c = &mut self.cores[core];
        c.pending = c.refs.next().map(|r| (r, at + Cycle(r.gap)));
        match c.pending {
            Some((r, _)) => c.instructions += r.gap,
            None => {
                c.finish.get_or_insert(at);
            }
        }
    }
}

impl Cores for TraceCores {
    const STEP: Site = Site::SystemStep;

    fn finished(&self) -> bool {
        self.cores.iter().all(|c| c.finish.is_some())
    }

    fn next_issue(&self) -> Option<Cycle> {
        self.cores
            .iter()
            .filter(|c| !c.blocked)
            .filter_map(|c| c.pending.as_ref())
            .map(|(_, at)| *at)
            .min()
    }

    fn read_done(&mut self, core: usize, at: Cycle) {
        self.cores[core].blocked = false;
        self.next_ref(core, at);
    }

    fn issue_ready(&mut self, be: &mut Backend, now: Cycle) -> Result<(), SdpcmError> {
        for core in 0..self.cores.len() {
            let c = &self.cores[core];
            if !c.blocked && matches!(c.pending, Some((_, at)) if at <= now) {
                self.issue(be, core, now)?;
            }
        }
        Ok(())
    }

    fn progress(&self) -> u64 {
        self.cores.iter().map(|c| c.refs_done).sum()
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
    use crate::config::Scheme;

    fn quick(scheme: Scheme, bench: BenchKind) -> RunStats {
        let params = ExperimentParams {
            refs_per_core: 400,
            ..ExperimentParams::quick_test()
        };
        SystemSim::build(&scheme, bench, &params)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn run_completes_and_counts_refs() {
        let s = quick(Scheme::din(), BenchKind::Stream);
        assert_eq!(s.reads + s.writes, 8 * 400);
        assert!(s.total_cycles > 0);
        assert!(s.instructions > 0);
        assert!(s.cpi() > 1.0, "memory stalls must raise CPI above 1");
    }

    #[test]
    fn write_fraction_tracks_profile() {
        let s = quick(Scheme::din(), BenchKind::Mcf);
        let frac = s.writes as f64 / (s.reads + s.writes) as f64;
        let expect = BenchKind::Mcf.profile().write_fraction();
        assert!((frac - expect).abs() < 0.05, "frac={frac} expect={expect}");
    }

    #[test]
    fn baseline_vnc_slower_than_din() {
        let din = quick(Scheme::din(), BenchKind::Mcf);
        let base = quick(Scheme::baseline(), BenchKind::Mcf);
        let speedup = din.speedup_vs(&base);
        assert!(
            speedup > 1.05,
            "DIN must clearly beat basic VnC on mcf, got {speedup}"
        );
    }

    #[test]
    fn one_two_alloc_matches_din_performance() {
        // Identical per-write work (no VnC on either side); wall-clock
        // may differ by drain-alignment noise, so allow a 12% band —
        // seed-to-seed variance of this drain-bound workload is ±2-3%
        // and queue alignment adds several more points at small scale.
        let params = ExperimentParams {
            refs_per_core: 2_000,
            ..ExperimentParams::quick_test()
        };
        let din = SystemSim::build(&Scheme::din(), BenchKind::Lbm, &params)
            .unwrap()
            .run()
            .unwrap();
        let alloc12 = SystemSim::build(&Scheme::one_two_alloc(), BenchKind::Lbm, &params)
            .unwrap()
            .run()
            .unwrap();
        let ratio = alloc12.speedup_vs(&din);
        assert!((ratio - 1.0).abs() < 0.12, "ratio={ratio}");
        // The mechanism itself is exact: (1:2) never verifies interior
        // strips.
        assert_eq!(alloc12.ctrl.verification_ops.get(), 0);
        assert_eq!(alloc12.ctrl.phases.pre_reads, Cycle::ZERO);
    }

    #[test]
    fn deterministic_runs() {
        let a = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        let b = quick(Scheme::lazyc_preread(), BenchKind::Zeusmp);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.ctrl.ecp_records.get(), b.ctrl.ecp_records.get());
        assert_eq!(a.wear, b.wear);
    }

    #[test]
    fn every_constructor_reports_build_time_errors() {
        use crate::error::ConfigError;
        use sdpcm_trace::BenchmarkProfile;

        let scheme = Scheme::lazyc();
        let quick = ExperimentParams {
            refs_per_core: 10,
            ..ExperimentParams::quick_test()
        };
        let mcf = Workload::homogeneous(BenchKind::Mcf);
        // Eight 4 GB working sets: far past the 8 GB device.
        let huge = Workload::mixed(
            "huge",
            vec![
                BenchmarkProfile {
                    ws_pages: 1 << 20,
                    ..BenchKind::Mcf.profile()
                };
                8
            ],
        );
        let too_large = quick.geometry_for(&huge, scheme.ratio).unwrap_err();
        assert!(matches!(too_large, ConfigError::WorkloadTooLarge { .. }));
        let cases = [
            (
                &mcf,
                ExperimentParams {
                    refs_per_core: 0,
                    ..quick
                },
                ConfigError::ZeroField {
                    field: "refs_per_core",
                },
            ),
            (
                &mcf,
                ExperimentParams {
                    write_queue_cap: 0,
                    ..quick
                },
                ConfigError::ZeroField {
                    field: "write_queue_cap",
                },
            ),
            (&huge, quick, too_large),
        ];
        for (workload, params, want) in cases {
            let trace = Arc::new(RefTrace::capture(
                workload,
                params.seed,
                params.refs_per_core,
            ));
            let mut built = vec![
                SystemSim::build_workload(&scheme, workload, &params),
                SystemSim::build_replay(&scheme, workload, &params, &trace),
            ];
            // `build` runs eight copies of one benchmark, so it cannot
            // ask for the oversized mix.
            if *workload == mcf {
                built.push(SystemSim::build(&scheme, BenchKind::Mcf, &params));
            }
            for got in built {
                let err = got.expect_err("a degenerate build must fail");
                assert_eq!(err, SdpcmError::Config(want), "{}", workload.name());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let params = ExperimentParams {
            refs_per_core: 400,
            ..ExperimentParams::quick_test()
        };
        let a = SystemSim::build(&Scheme::baseline(), BenchKind::Lbm, &params)
            .unwrap()
            .run()
            .unwrap();
        let params_b = ExperimentParams {
            seed: 1234,
            ..params
        };
        let b = SystemSim::build(&Scheme::baseline(), BenchKind::Lbm, &params_b)
            .unwrap()
            .run()
            .unwrap();
        assert_ne!(a.total_cycles, b.total_cycles);
    }
}
