//! Typed controller errors and the diagnostic snapshot they carry.
//!
//! The controller's steady-state API ([`crate::MemoryController::submit`],
//! [`crate::MemoryController::run_until`] and
//! [`crate::MemoryController::flush`]) never panics: invalid
//! requests and broken internal invariants surface as a [`CtrlError`]
//! carrying a [`CtrlSnapshot`] of the queues at detection time, so a
//! failed multi-hour run ends with an actionable diagnosis instead of a
//! backtrace.

use sdpcm_engine::Cycle;
use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::geometry::LineAddr;

/// Queue state of one bank at snapshot time (idle banks are omitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSnapshot {
    /// Bank index.
    pub bank: u16,
    /// Pending demand reads.
    pub read_q: usize,
    /// Buffered writes.
    pub write_q: usize,
    /// Whether an operation occupies the bank.
    pub busy: bool,
    /// Whether a write job is parked between phases.
    pub paused: bool,
    /// Whether the bank is in a bursty drain.
    pub draining: bool,
}

/// Controller state attached to errors (and to the system's livelock
/// report): enough to see where requests piled up.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CtrlSnapshot {
    /// Simulation cycle at capture.
    pub cycle: Cycle,
    /// Banks with an operation in flight.
    pub in_flight: usize,
    /// Demand reads queued across all banks.
    pub queued_reads: usize,
    /// Writes buffered across all banks.
    pub queued_writes: usize,
    /// Per-bank detail for every non-idle bank.
    pub banks: Vec<BankSnapshot>,
}

impl std::fmt::Display for CtrlSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {}: {} banks busy, {} reads / {} writes queued",
            self.cycle.0, self.in_flight, self.queued_reads, self.queued_writes
        )?;
        for b in &self.banks {
            write!(
                f,
                "; bank {} [r={} w={}{}{}{}]",
                b.bank,
                b.read_q,
                b.write_q,
                if b.busy { " busy" } else { "" },
                if b.paused { " paused" } else { "" },
                if b.draining { " draining" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// Errors surfaced at the controller API boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlError {
    /// A rejected configuration field (see
    /// [`crate::CtrlConfig::validate`]).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A request addressed a bank outside the geometry.
    BankOutOfRange {
        /// The requested bank.
        bank: u16,
        /// Banks the device actually has.
        banks: usize,
    },
    /// Start-Gap wear leveling composed with a non-(1:1) allocator (the
    /// rotation would break strip marking).
    StartGapRatio {
        /// The offending allocator ratio.
        ratio: NmRatio,
    },
    /// A request touched a bank's Start-Gap spare line.
    SpareLineAccess {
        /// The offending address.
        addr: LineAddr,
    },
    /// A deep scheduling invariant broke; the queues at detection time
    /// are attached. The controller stays safe to drop but its further
    /// behaviour is unspecified — the run should stop.
    InternalAnomaly {
        /// What was violated.
        what: &'static str,
        /// Queue state when the anomaly surfaced.
        snapshot: CtrlSnapshot,
    },
}

impl std::fmt::Display for CtrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlError::InvalidConfig { field, reason } => {
                write!(f, "invalid controller config: {field} {reason}")
            }
            CtrlError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range (device has {banks})")
            }
            CtrlError::StartGapRatio { ratio } => write!(
                f,
                "Start-Gap composes only with the (1:1) allocator, got {ratio}"
            ),
            CtrlError::SpareLineAccess { addr } => {
                write!(f, "request touches Start-Gap's spare line ({addr})")
            }
            CtrlError::InternalAnomaly { what, snapshot } => {
                write!(f, "internal anomaly: {what} [{snapshot}]")
            }
        }
    }
}

impl std::error::Error for CtrlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_diagnostics() {
        let snap = CtrlSnapshot {
            cycle: Cycle(1234),
            in_flight: 1,
            queued_reads: 2,
            queued_writes: 3,
            banks: vec![BankSnapshot {
                bank: 7,
                read_q: 2,
                write_q: 3,
                busy: true,
                paused: false,
                draining: true,
            }],
        };
        let e = CtrlError::InternalAnomaly {
            what: "bank had no op",
            snapshot: snap,
        };
        let msg = e.to_string();
        assert!(msg.contains("cycle 1234"));
        assert!(msg.contains("bank 7"));
        assert!(msg.contains("draining"));
    }

    #[test]
    fn config_error_names_field() {
        let e = CtrlError::InvalidConfig {
            field: "write_queue_cap",
            reason: "must be > 0",
        };
        assert!(e.to_string().contains("write_queue_cap"));
    }
}
