//! Typed errors for the full-system simulators.
//!
//! The simulators never panic on the steady-state path: configuration
//! problems, OS-mapping failures, controller faults, and scheduling
//! livelocks all surface as an [`SdpcmError`], carrying enough state (a
//! [`CtrlSnapshot`] where relevant) to diagnose a failed multi-hour run
//! from its error message alone.

use sdpcm_memctrl::chaos::ChaosError;
use sdpcm_memctrl::{CtrlError, CtrlSnapshot};

/// A rejected [`crate::ExperimentParams`] / workload combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// A count or capacity that must be positive was zero.
    ZeroField {
        /// The offending field.
        field: &'static str,
    },
    /// A DIMM-age fraction outside `[0, 1]`.
    AgeOutOfRange {
        /// The rejected fraction.
        value: f64,
    },
    /// The workload needs more rows per bank than the 8 GB device has.
    WorkloadTooLarge {
        /// Rows per bank the workload would need.
        rows_per_bank: u64,
        /// Rows per bank the device offers.
        limit: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroField { field } => {
                write!(f, "experiment parameter {field} must be > 0")
            }
            ConfigError::AgeOutOfRange { value } => {
                write!(f, "dimm_age {value} outside [0, 1]")
            }
            ConfigError::WorkloadTooLarge {
                rows_per_bank,
                limit,
            } => write!(
                f,
                "workload needs {rows_per_bank} rows per bank, device has {limit}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// An OS-mapping failure: the working set could not be placed, or a
/// reference escaped the mapped region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// A core referenced a virtual page its page table does not map.
    WorkingSetUnmapped {
        /// The faulting core.
        core: usize,
        /// The unmapped virtual page.
        vpage: u64,
    },
    /// The allocator could not place a core's working set.
    DeviceFull {
        /// The core whose allocation failed.
        core: usize,
        /// Pages the core asked for.
        pages: u64,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::WorkingSetUnmapped { core, vpage } => {
                write!(f, "core {core} referenced unmapped virtual page {vpage}")
            }
            MapError::DeviceFull { core, pages } => {
                write!(f, "no room to map {pages} pages for core {core}")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// A runtime simulation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The event loop stopped making progress: cores are unfinished but
    /// the iteration guard tripped. The queue state shows where the
    /// requests piled up.
    Livelock {
        /// Simulated cycle at detection.
        cycle: u64,
        /// References completed across all cores.
        refs_done: u64,
        /// Controller queue state at detection.
        snapshot: CtrlSnapshot,
    },
    /// A replay build was handed a trace captured for different inputs
    /// (workload, seed or quota); replaying it would silently simulate
    /// the wrong experiment.
    TraceMismatch {
        /// What the simulator expected, `workload/seed/refs_per_core`.
        expect: String,
        /// What the trace was captured for.
        got: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Livelock {
                cycle,
                refs_done,
                snapshot,
            } => write!(
                f,
                "simulation livelock at cycle {cycle} after {refs_done} refs [{snapshot}]"
            ),
            SimError::TraceMismatch { expect, got } => {
                write!(f, "trace mismatch: expected {expect}, capture is {got}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Umbrella error for everything the simulators can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SdpcmError {
    /// Rejected experiment configuration.
    Config(ConfigError),
    /// OS-mapping failure.
    Map(MapError),
    /// Memory-controller error (including internal anomalies).
    Ctrl(CtrlError),
    /// Runtime simulation failure.
    Sim(SimError),
    /// Rejected chaos scenario.
    Chaos(ChaosError),
}

impl std::fmt::Display for SdpcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdpcmError::Config(e) => write!(f, "{e}"),
            SdpcmError::Map(e) => write!(f, "{e}"),
            SdpcmError::Ctrl(e) => write!(f, "{e}"),
            SdpcmError::Sim(e) => write!(f, "{e}"),
            SdpcmError::Chaos(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SdpcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SdpcmError::Config(e) => Some(e),
            SdpcmError::Map(e) => Some(e),
            SdpcmError::Ctrl(e) => Some(e),
            SdpcmError::Sim(e) => Some(e),
            SdpcmError::Chaos(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SdpcmError {
    fn from(e: ConfigError) -> SdpcmError {
        SdpcmError::Config(e)
    }
}

impl From<MapError> for SdpcmError {
    fn from(e: MapError) -> SdpcmError {
        SdpcmError::Map(e)
    }
}

impl From<CtrlError> for SdpcmError {
    fn from(e: CtrlError) -> SdpcmError {
        SdpcmError::Ctrl(e)
    }
}

impl From<SimError> for SdpcmError {
    fn from(e: SimError) -> SdpcmError {
        SdpcmError::Sim(e)
    }
}

impl From<ChaosError> for SdpcmError {
    fn from(e: ChaosError) -> SdpcmError {
        SdpcmError::Chaos(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_diagnostic() {
        let e = SdpcmError::from(SimError::Livelock {
            cycle: 42,
            refs_done: 7,
            snapshot: CtrlSnapshot::default(),
        });
        let msg = e.to_string();
        assert!(msg.contains("livelock"));
        assert!(msg.contains("cycle 42"));
        assert!(msg.contains("7 refs"));
    }

    #[test]
    fn conversions_tag_the_source() {
        let e: SdpcmError = MapError::WorkingSetUnmapped { core: 3, vpage: 9 }.into();
        assert!(matches!(e, SdpcmError::Map(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: SdpcmError = ConfigError::ZeroField {
            field: "refs_per_core",
        }
        .into();
        assert!(e.to_string().contains("refs_per_core"));
    }
}
