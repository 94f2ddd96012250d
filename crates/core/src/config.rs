//! Scheme definitions (§5.3) and experiment parameters.

use sdpcm_engine::SimRng;
use sdpcm_memctrl::{CtrlConfig, CtrlError, CtrlScheme, MemoryController};
use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::geometry::MemGeometry;
use sdpcm_pcm::wear::HardErrorModel;
use sdpcm_trace::Workload;

use crate::error::ConfigError;

/// A complete evaluated configuration: controller mechanisms plus the
/// page-allocation ratio every application uses (§5.3 assumes one
/// allocator per application).
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// Display name used in figures.
    pub name: String,
    /// Controller mechanism switches.
    pub ctrl: CtrlScheme,
    /// The (n:m) allocator applications request.
    pub ratio: NmRatio,
}

impl Scheme {
    fn named(name: &str, ctrl: CtrlScheme, ratio: NmRatio) -> Scheme {
        Scheme {
            name: name.to_owned(),
            ctrl,
            ratio,
        }
    }

    /// `DIN` — 8F² DIN-enhanced PCM, WD-free along bit-lines.
    #[must_use]
    pub fn din() -> Scheme {
        Scheme::named("DIN", CtrlScheme::din(), NmRatio::one_one())
    }

    /// `baseline` — basic VnC on super dense 4F² PCM.
    #[must_use]
    pub fn baseline() -> Scheme {
        Scheme::named("baseline", CtrlScheme::baseline_vnc(), NmRatio::one_one())
    }

    /// `LazyC`.
    #[must_use]
    pub fn lazyc() -> Scheme {
        Scheme::named("LazyC", CtrlScheme::lazyc(), NmRatio::one_one())
    }

    /// `PreRead` (on top of baseline, without LazyC).
    #[must_use]
    pub fn preread() -> Scheme {
        Scheme::named("PreRead", CtrlScheme::preread(), NmRatio::one_one())
    }

    /// `LazyC+PreRead`.
    #[must_use]
    pub fn lazyc_preread() -> Scheme {
        Scheme::named(
            "LazyC+PreRead",
            CtrlScheme::lazyc_preread(),
            NmRatio::one_one(),
        )
    }

    /// `LazyC+(2:3)Alloc`.
    #[must_use]
    pub fn lazyc_two_three() -> Scheme {
        Scheme::named("LazyC+(2:3)", CtrlScheme::lazyc(), NmRatio::two_three())
    }

    /// `LazyC+PreRead+(2:3)Alloc` — the paper's best VnC-bearing combo.
    #[must_use]
    pub fn lazyc_preread_two_three() -> Scheme {
        Scheme::named(
            "LazyC+PreRead+(2:3)",
            CtrlScheme::lazyc_preread(),
            NmRatio::two_three(),
        )
    }

    /// `(1:2)Alloc` — eliminates VnC entirely; needs no LazyC/PreRead.
    #[must_use]
    pub fn one_two_alloc() -> Scheme {
        Scheme::named("(1:2)Alloc", CtrlScheme::baseline_vnc(), NmRatio::one_two())
    }

    /// Basic VnC combined with an arbitrary allocator (Figure 16 sweep).
    #[must_use]
    pub fn baseline_with_ratio(ratio: NmRatio) -> Scheme {
        Scheme::named(&format!("VnC+{ratio}"), CtrlScheme::baseline_vnc(), ratio)
    }

    /// The seven bars of Figure 11, in the paper's order.
    #[must_use]
    pub fn figure11_set() -> Vec<Scheme> {
        vec![
            Scheme::din(),
            Scheme::baseline(),
            Scheme::lazyc(),
            Scheme::lazyc_preread(),
            Scheme::lazyc_two_three(),
            Scheme::lazyc_preread_two_three(),
            Scheme::one_two_alloc(),
        ]
    }
}

/// Global experiment knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentParams {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Main-memory references each of the eight cores executes (the
    /// paper uses 10 M total; see EXPERIMENTS.md for the counts used).
    pub refs_per_core: u64,
    /// Write-queue entries per bank.
    pub write_queue_cap: usize,
    /// ECP entries per line.
    pub ecp_entries: usize,
    /// Consumed-lifetime fraction for DIMM-aging runs.
    pub dimm_age: Option<f64>,
}

impl ExperimentParams {
    /// Tiny runs for unit/integration tests.
    #[must_use]
    pub fn quick_test() -> ExperimentParams {
        ExperimentParams {
            seed: 0x5d9c_2015,
            refs_per_core: 1_500,
            write_queue_cap: 32,
            ecp_entries: 6,
            dimm_age: None,
        }
    }

    /// Default size for the figure harness: large enough for stable
    /// relative results, small enough for a full multi-figure sweep.
    #[must_use]
    pub fn bench_default() -> ExperimentParams {
        ExperimentParams {
            refs_per_core: 25_000,
            ..ExperimentParams::quick_test()
        }
    }

    /// Rejects parameter sets the simulators cannot run with: zero-sized
    /// queues or reference quotas, and aging fractions outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.refs_per_core == 0 {
            return Err(ConfigError::ZeroField {
                field: "refs_per_core",
            });
        }
        if self.write_queue_cap == 0 {
            return Err(ConfigError::ZeroField {
                field: "write_queue_cap",
            });
        }
        if let Some(age) = self.dimm_age {
            if !(0.0..=1.0).contains(&age) {
                return Err(ConfigError::AgeOutOfRange { value: age });
            }
        }
        Ok(())
    }

    /// Sizes a device geometry that fits `workload` under `ratio`, with
    /// slack for the allocator's block granularity. Fails when the
    /// required geometry would exceed the real 8 GB device.
    pub fn geometry_for(
        &self,
        workload: &Workload,
        ratio: NmRatio,
    ) -> Result<MemGeometry, ConfigError> {
        let demand = workload.total_pages() as f64 / ratio.capacity_fraction();
        let padded = (demand * 1.5) as u64 + 1024;
        let rows_per_bank = padded.div_ceil(16).max(64);
        const LIMIT: u64 = 128 * 1024;
        if rows_per_bank > LIMIT {
            return Err(ConfigError::WorkloadTooLarge {
                rows_per_bank,
                limit: LIMIT,
            });
        }
        Ok(MemGeometry::small(rows_per_bank as u32))
    }

    /// The memory controller both front ends run: Table 2 defaults for
    /// `scheme` with this write-queue depth and ECP size, aged to
    /// `dimm_age` when one is set.
    pub(crate) fn controller(
        &self,
        scheme: CtrlScheme,
        geometry: MemGeometry,
        rng: SimRng,
    ) -> Result<MemoryController, CtrlError> {
        let cfg = CtrlConfig {
            write_queue_cap: self.write_queue_cap,
            ecp_entries: self.ecp_entries,
            ..CtrlConfig::table2(scheme)
        };
        let mut ctrl = MemoryController::try_new(cfg, geometry, rng)?;
        if let Some(age) = self.dimm_age {
            ctrl.set_dimm_age(HardErrorModel::default(), age);
        }
        Ok(ctrl)
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams::bench_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdpcm_trace::BenchKind;

    #[test]
    fn figure11_set_matches_paper_order() {
        let names: Vec<String> = Scheme::figure11_set().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "DIN",
                "baseline",
                "LazyC",
                "LazyC+PreRead",
                "LazyC+(2:3)",
                "LazyC+PreRead+(2:3)",
                "(1:2)Alloc"
            ]
        );
    }

    #[test]
    fn scheme_mechanisms() {
        assert!(!Scheme::din().ctrl.vnc);
        assert!(Scheme::baseline().ctrl.vnc);
        assert!(Scheme::lazyc().ctrl.lazy_correction);
        assert!(Scheme::lazyc_preread().ctrl.preread);
        assert_eq!(Scheme::one_two_alloc().ratio, NmRatio::one_two());
        assert_eq!(Scheme::lazyc_two_three().ratio, NmRatio::two_three());
    }

    #[test]
    fn geometry_scales_with_ratio() {
        let p = ExperimentParams::quick_test();
        let w = sdpcm_trace::Workload::homogeneous(BenchKind::Wrf);
        let g11 = p.geometry_for(&w, NmRatio::one_one()).unwrap();
        let g12 = p.geometry_for(&w, NmRatio::one_two()).unwrap();
        assert!(g12.total_pages() > g11.total_pages());
        assert!(g11.total_pages() >= w.total_pages());
    }

    #[test]
    fn validate_rejects_degenerate_params() {
        use crate::error::ConfigError;
        assert!(ExperimentParams::quick_test().validate().is_ok());
        let p = ExperimentParams {
            refs_per_core: 0,
            ..ExperimentParams::quick_test()
        };
        assert_eq!(
            p.validate(),
            Err(ConfigError::ZeroField {
                field: "refs_per_core"
            })
        );
        let p = ExperimentParams {
            write_queue_cap: 0,
            ..ExperimentParams::quick_test()
        };
        assert!(p.validate().is_err());
        let p = ExperimentParams {
            dimm_age: Some(1.2),
            ..ExperimentParams::quick_test()
        };
        assert_eq!(p.validate(), Err(ConfigError::AgeOutOfRange { value: 1.2 }));
    }

    #[test]
    fn ratio_name_formatting() {
        assert_eq!(
            Scheme::baseline_with_ratio(NmRatio::three_four()).name,
            "VnC+(3:4)"
        );
    }
}
