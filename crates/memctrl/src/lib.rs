#![warn(missing_docs)]

//! The SD-PCM memory controller.
//!
//! This crate is the heart of the reproduction: a cycle-accurate,
//! event-driven model of the PCM memory controller with every mechanism
//! the paper evaluates:
//!
//! * **basic VnC** (§3.2) — a write to a super dense line pre-reads both
//!   bit-line-adjacent lines, writes, post-reads and verifies them, and
//!   corrects disturbed cells with RESET pulses; corrections can disturb
//!   *their* neighbours, triggering cascading verification.
//! * **LazyCorrection** (§4.2) — buffered WD errors live in the line's
//!   spare ECP entries (on a low-density, WD-free ECP chip); the
//!   expensive correction fires only when `X + Y > N`, and a normal write
//!   to the line clears its buffered errors for free.
//! * **PreRead** (§4.3) — the two pre-write reads are issued while the
//!   write waits in the queue, using idle bank slots, with forwarding
//!   when the adjacent line itself sits in the write queue.
//! * **(n:m)-Alloc support** (§4.4) — the per-request allocator tag and
//!   the [`sdpcm_osalloc::VerifyPolicy`] decide which
//!   neighbours need VnC at all.
//! * **Write cancellation** (§6.8) — reads may cancel an in-flight write
//!   that has not yet committed to the array; cancelled RESET pulses
//!   still disturb neighbours, modelling the paper's warning that
//!   repeated writes amplify WD.
//!
//! Robustness: the steady-state API ([`MemoryController::submit`] /
//! [`MemoryController::run_until`] / [`MemoryController::flush`])
//! returns typed [`CtrlError`]s instead of panicking, ECP exhaustion
//! under LazyCorrection degrades through a retry → escalate →
//! decommission ladder, and a chaos scenario ([`chaos::FaultPlan`]) can
//! be installed to stress all of it deterministically.
//!
//! Organization: [`req`] (requests/completions), [`scheme`] (mechanism
//! switches), [`stats`] (counters behind Figures 4, 5, 11–19),
//! [`writejob`] (a write job's data and initial step list), [`error`]
//! (typed errors + diagnostic snapshots), [`wearlevel`] (Start-Gap and
//! the controller's line mapping), [`ctrl`] (the driver: construction,
//! `submit` / `run_until` / `flush`, diagnostics) and [`chaos`] (the
//! chaos harness: fault scenarios, their schedule, their execution and
//! the fault log). The per-bank logic sits in private modules:
//! `bank` (a bank's queues and write-queue index), `lane` (submission,
//! forwarding, dispatch, PreRead, cancellation, pausing), `program` (the
//! VnC write program), `salvage` (decommissioning) and `calendar` (the
//! bank calendar and the completion queue the event core reads).

mod bank;
mod calendar;
pub mod chaos;
pub mod ctrl;
pub mod error;
mod lane;
mod program;
pub mod req;
mod salvage;
pub mod scheme;
pub mod stats;
pub mod wearlevel;
pub mod writejob;

pub use ctrl::{CtrlConfig, MemoryController, Wake, DRAIN_BURST, FORWARD_LATENCY};
pub use error::{BankSnapshot, CtrlError, CtrlSnapshot};
pub use req::{Access, AccessKind, Completion, ReqId};
pub use scheme::CtrlScheme;
pub use stats::CtrlStats;
pub use wearlevel::StartGap;
