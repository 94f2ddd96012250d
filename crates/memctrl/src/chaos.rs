//! The chaos harness: deterministic fault scenarios, their schedule and
//! their execution on the controller.
//!
//! A scenario ([`FaultPlan`]) is a list of faults scheduled against the
//! *committed write count* of the memory controller — not against
//! cycles, whose alignment shifts with queue contention. Keying on the
//! write stream makes a scenario bit-reproducible: the same seed and plan
//! disturb exactly the same writes in every run.
//!
//! Three fault families cover the failure modes studied in the paper:
//!
//! * **stuck-at bursts** — a batch of permanent cell failures landing at
//!   once (infant-mortality cluster, localized wear-out);
//! * **storm windows** — a bounded interval during which the calibrated
//!   WD probabilities are multiplied (thermal emergency, marginal DIMM);
//! * **aging ramps** — stepping the DIMM's consumed-lifetime fraction,
//!   which drives the [`HardErrorModel`] hard-error population for lines
//!   touched afterwards.
//!
//! [`MemoryController::install_chaos`] validates a plan and orders it by
//! trigger point. Bank lanes then note each committed write address;
//! after every bank operation the controller hands them to
//! `drain_commits`, which polls the private `Schedule` once per commit
//! against the write count summed over all lanes and executes each due
//! [`ChaosAction`], logging one [`FaultEvent`] per action. Operations
//! complete in one global `(busy_until, bank)` order, so the victim
//! draws of stuck-at bursts happen in a well-defined order.

use std::collections::VecDeque;

use sdpcm_engine::{Cycle, SimRng};
use sdpcm_pcm::geometry::{BankId, LineAddr, RowId, LINES_PER_ROW};
use sdpcm_pcm::line::LINE_BITS;
use sdpcm_pcm::wear::HardErrorModel;

use crate::MemoryController;

/// Committed-write addresses remembered as stuck-burst victim
/// candidates.
const RECENT_WRITES_CAP: usize = 64;

/// One fault with its trigger point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fault {
    /// Fires when the controller has committed this many writes.
    at_write: u64,
    /// What firing does: begin a storm, plant a burst or set the age.
    action: ChaosAction,
    /// A storm's window in committed writes (0 for other actions).
    storm_writes: u64,
}

/// A deterministic fault scenario, built fault by fault and validated by
/// [`MemoryController::install_chaos`].
///
/// # Examples
///
/// ```
/// use sdpcm_engine::SimRng;
/// use sdpcm_memctrl::chaos::{ChaosError, FaultPlan};
/// use sdpcm_memctrl::{CtrlConfig, CtrlScheme, MemoryController};
/// use sdpcm_pcm::geometry::MemGeometry;
///
/// let mut ctrl = MemoryController::new(
///     CtrlConfig::table2(CtrlScheme::lazyc()),
///     MemGeometry::small(256),
///     SimRng::from_seed_label(1, "doc"),
/// );
/// let plan = FaultPlan::new()
///     .storm(200, 1.5, 400)
///     .stuck_burst(500, 4, 3)
///     .aging_ramp(800, 0.9);
/// ctrl.install_chaos(plan).unwrap();
/// assert!(ctrl.fault_log().is_empty(), "nothing fires before a write commits");
///
/// let bad = FaultPlan::new().aging_ramp(0, 1.5);
/// assert_eq!(ctrl.install_chaos(bad), Err(ChaosError::InvalidAge { value: 1.5 }));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty scenario.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules an elevated-disturbance window: both WD probabilities
    /// are multiplied by `mult` for the `duration_writes` committed
    /// writes after write number `at_write`.
    #[must_use]
    pub fn storm(self, at_write: u64, mult: f64, duration_writes: u64) -> FaultPlan {
        self.with(at_write, ChaosAction::BeginStorm { mult }, duration_writes)
    }

    /// Schedules a burst of permanent cell failures: `cells_per_line`
    /// stuck-at cells on each of `lines` lines near the working set.
    #[must_use]
    pub fn stuck_burst(self, at_write: u64, lines: u32, cells_per_line: u16) -> FaultPlan {
        let burst = ChaosAction::PlantStuckBurst {
            lines,
            cells_per_line,
        };
        self.with(at_write, burst, 0)
    }

    /// Schedules a DIMM aging step to `lifetime_fraction` of consumed
    /// lifetime (drives the hard-error model for lines touched after).
    #[must_use]
    pub fn aging_ramp(self, at_write: u64, lifetime_fraction: f64) -> FaultPlan {
        self.with(at_write, ChaosAction::SetAge { lifetime_fraction }, 0)
    }

    /// Whether the scenario schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn with(mut self, at_write: u64, action: ChaosAction, storm_writes: u64) -> FaultPlan {
        self.faults.push(Fault {
            at_write,
            action,
            storm_writes,
        });
        self
    }

    /// Checks every fault and orders the scenario by trigger point;
    /// ties on `at_write` keep the order they were scheduled in.
    fn validated(mut self) -> Result<FaultPlan, ChaosError> {
        for f in &self.faults {
            match f.action {
                ChaosAction::BeginStorm { mult } => {
                    if !mult.is_finite() || mult < 0.0 {
                        return Err(ChaosError::InvalidStormMult { value: mult });
                    }
                    if f.storm_writes == 0 {
                        return Err(ChaosError::EmptyStormWindow);
                    }
                }
                ChaosAction::PlantStuckBurst {
                    lines,
                    cells_per_line,
                } => {
                    if lines == 0 || cells_per_line == 0 || usize::from(cells_per_line) > LINE_BITS
                    {
                        return Err(ChaosError::InvalidBurst {
                            lines,
                            cells_per_line,
                        });
                    }
                }
                ChaosAction::SetAge { lifetime_fraction } => {
                    if !(0.0..=1.0).contains(&lifetime_fraction) {
                        return Err(ChaosError::InvalidAge {
                            value: lifetime_fraction,
                        });
                    }
                }
                ChaosAction::EndStorm => {} // never scheduled: storms expire
            }
        }
        self.faults.sort_by_key(|f| f.at_write);
        Ok(self)
    }
}

/// Why a fault plan was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosError {
    /// A storm multiplier that is negative or non-finite.
    InvalidStormMult {
        /// The rejected multiplier.
        value: f64,
    },
    /// A storm window of zero writes.
    EmptyStormWindow,
    /// A stuck burst planting nothing, or more cells than a line holds.
    InvalidBurst {
        /// Rejected line count.
        lines: u32,
        /// Rejected per-line cell count.
        cells_per_line: u16,
    },
    /// A lifetime fraction outside `[0, 1]`.
    InvalidAge {
        /// The rejected fraction.
        value: f64,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::InvalidStormMult { value } => {
                write!(f, "storm multiplier {value} must be finite and >= 0")
            }
            ChaosError::EmptyStormWindow => write!(f, "storm window must cover >= 1 write"),
            ChaosError::InvalidBurst {
                lines,
                cells_per_line,
            } => write!(
                f,
                "stuck burst of {lines} lines x {cells_per_line} cells is not plantable"
            ),
            ChaosError::InvalidAge { value } => {
                write!(f, "lifetime fraction {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// One fault action, as executed by the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosAction {
    /// Apply a storm multiplier to the WD injector.
    BeginStorm {
        /// Probability multiplier.
        mult: f64,
    },
    /// Restore the calibrated WD probabilities.
    EndStorm,
    /// Plant a batch of stuck-at cells.
    PlantStuckBurst {
        /// Victim lines.
        lines: u32,
        /// Stuck cells per victim line.
        cells_per_line: u16,
    },
    /// Re-age the DIMM.
    SetAge {
        /// Consumed-lifetime fraction.
        lifetime_fraction: f64,
    },
}

/// One executed action, as recorded in the controller's fault log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Committed-write count at execution time.
    pub at_write: u64,
    /// Simulation cycle at execution time.
    pub at_cycle: u64,
    /// What was done.
    pub action: ChaosAction,
}

/// Steps a validated plan against the committed-write count.
#[derive(Debug)]
struct Schedule {
    plan: FaultPlan,
    cursor: usize,
    /// Write count at which the active storm expires.
    storm_until: Option<u64>,
}

impl Schedule {
    fn new(plan: FaultPlan) -> Schedule {
        Schedule {
            plan,
            cursor: 0,
            storm_until: None,
        }
    }

    /// Returns the actions due at `committed_writes`, in deterministic
    /// order: storm expiry first, then newly triggered faults in plan
    /// order. Overlapping storms coalesce — a new window replaces the
    /// multiplier and the expiry point, counted from the write count at
    /// which it fires.
    fn poll(&mut self, committed_writes: u64) -> Vec<ChaosAction> {
        let mut out = Vec::new();
        if self
            .storm_until
            .is_some_and(|until| committed_writes >= until)
        {
            self.storm_until = None;
            out.push(ChaosAction::EndStorm);
        }
        while let Some(f) = self.plan.faults.get(self.cursor) {
            if f.at_write > committed_writes {
                break;
            }
            self.cursor += 1;
            if let ChaosAction::BeginStorm { .. } = f.action {
                self.storm_until = Some(committed_writes + f.storm_writes);
            }
            out.push(f.action);
        }
        out
    }
}

/// The controller's fault state: the installed schedule, the victim
/// RNG, the pool of recent write targets and the fault log.
#[derive(Debug)]
pub(crate) struct Chaos {
    schedule: Option<Schedule>,
    /// Sequential RNG for stuck-burst victim selection — bank operations
    /// complete in one global order, so a shared draw order is
    /// well-defined.
    rng: SimRng,
    /// Recently committed write targets — the victim pool for stuck-at
    /// bursts (bounded, deterministic order).
    recent_writes: VecDeque<LineAddr>,
    log: Vec<FaultEvent>,
    /// When the schedule was last polled: the time a storm ended by
    /// replacing the plan is logged at.
    last_poll: Cycle,
}

impl Chaos {
    /// No scenario installed; `rng` draws the victims of any later one.
    pub(crate) fn new(rng: SimRng) -> Chaos {
        Chaos {
            schedule: None,
            rng,
            recent_writes: VecDeque::new(),
            log: Vec::new(),
            last_poll: Cycle::ZERO,
        }
    }
}

impl MemoryController {
    /// Installs a chaos scenario, replacing any previous one. Faults
    /// fire as the committed-write counter crosses their trigger points,
    /// polled after every bank operation in the controller's global
    /// `(completion time, bank)` order, so the scenario's shared draw
    /// order is well-defined. A storm the replaced plan left open ends
    /// here, with an `EndStorm` logged at the last poll.
    ///
    /// # Errors
    ///
    /// Rejects a plan holding an invalid fault ([`ChaosError`]) and
    /// leaves the controller as it was.
    pub fn install_chaos(&mut self, plan: FaultPlan) -> Result<(), ChaosError> {
        let old = self
            .chaos
            .schedule
            .replace(Schedule::new(plan.validated()?));
        if old.is_some_and(|s| s.storm_until.is_some()) {
            let committed = self.committed_writes();
            self.execute_chaos(ChaosAction::EndStorm, committed, self.chaos.last_poll);
        }
        self.sh.track_commits = true;
        Ok(())
    }

    fn committed_writes(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats.writes.get()).sum()
    }

    /// Every chaos action executed so far, in order. Two same-seed runs
    /// of the same scenario produce identical logs.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultEvent] {
        &self.chaos.log
    }

    /// Hands a lane's freshly committed write addresses to the chaos
    /// harness, polling the schedule once per commit.
    pub(crate) fn drain_commits(&mut self, bank: usize, at: Cycle) {
        if self.lanes[bank].recent_commits.is_empty() {
            return;
        }
        let commits = std::mem::take(&mut self.lanes[bank].recent_commits);
        for addr in commits {
            let recent = &mut self.chaos.recent_writes;
            recent.push_back(addr);
            if recent.len() > RECENT_WRITES_CAP {
                recent.pop_front();
            }
            let committed = self.committed_writes();
            self.chaos.last_poll = at;
            let Some(schedule) = &mut self.chaos.schedule else {
                continue;
            };
            for action in schedule.poll(committed) {
                self.execute_chaos(action, committed, at);
            }
        }
    }

    /// Applies one fault action to the device or the lane context and
    /// logs it.
    fn execute_chaos(&mut self, action: ChaosAction, committed: u64, at: Cycle) {
        match action {
            ChaosAction::BeginStorm { mult } => {
                if self.sh.injector.set_storm(mult).is_err() {
                    // Validation accepted the multiplier; reaching here
                    // means the plan was corrupted in flight.
                    self.lanes[0].note_anomaly("chaos storm multiplier went invalid");
                    self.anomaly_pending = true;
                    return;
                }
            }
            ChaosAction::EndStorm => self.sh.injector.clear_storm(),
            ChaosAction::PlantStuckBurst {
                lines,
                cells_per_line,
            } => self.plant_stuck_burst(lines, cells_per_line),
            ChaosAction::SetAge { lifetime_fraction } => {
                let model = self
                    .sh
                    .hard_plan
                    .map_or_else(HardErrorModel::default, |(m, _)| m);
                self.set_dimm_age(model, lifetime_fraction);
            }
        }
        self.lanes[0].stats.fault_events.inc();
        self.chaos.log.push(FaultEvent {
            at_write: committed,
            at_cycle: at.0,
            action,
        });
    }

    /// Plants `cells_per_line` random stuck-at cells on each of `lines`
    /// victims drawn from the recent-write pool (anywhere on the device
    /// while the pool is empty). A salvaged victim is skipped after its
    /// draw.
    fn plant_stuck_burst(&mut self, lines: u32, cells_per_line: u16) {
        let rng = &mut self.chaos.rng;
        for _ in 0..lines {
            let victim = if self.chaos.recent_writes.is_empty() {
                LineAddr {
                    bank: BankId(rng.below(self.lanes.len() as u64) as u16),
                    row: RowId(rng.below(u64::from(self.sh.geometry.rows_per_bank())) as u32),
                    slot: rng.below(LINES_PER_ROW as u64) as u8,
                }
            } else {
                self.chaos.recent_writes[rng.index(self.chaos.recent_writes.len())]
            };
            if self.lanes[victim.bank.0 as usize]
                .salvaged
                .contains_key(&victim)
            {
                continue;
            }
            let mut store = self.store.lane_mut(victim.bank.0);
            for _ in 0..cells_per_line {
                let bit = rng.below(512) as u16;
                let stuck = rng.chance(0.5);
                store.plant_hard_error(victim, bit, stuck);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: FaultPlan) -> Schedule {
        Schedule::new(plan.validated().unwrap())
    }

    fn exhausted(s: &Schedule) -> bool {
        s.cursor == s.plan.faults.len() && s.storm_until.is_none()
    }

    #[test]
    fn plan_validates_and_sorts_stably() {
        let plan = FaultPlan::new()
            .stuck_burst(900, 2, 1)
            .storm(50, 2.0, 10)
            .aging_ramp(10, 0.5)
            .aging_ramp(50, 0.25)
            .validated()
            .unwrap();
        let expected = FaultPlan::new()
            .aging_ramp(10, 0.5)
            .storm(50, 2.0, 10)
            .aging_ramp(50, 0.25)
            .stuck_burst(900, 2, 1);
        assert_eq!(
            plan, expected,
            "trigger order, ties in the order they were scheduled"
        );
    }

    #[test]
    fn plan_rejects_invalid_faults() {
        let reject = |plan: FaultPlan| plan.validated().unwrap_err();
        assert_eq!(
            reject(FaultPlan::new().storm(0, -1.0, 5)),
            ChaosError::InvalidStormMult { value: -1.0 }
        );
        assert!(matches!(
            reject(FaultPlan::new().storm(0, f64::NAN, 5)),
            ChaosError::InvalidStormMult { .. }
        ));
        assert_eq!(
            reject(FaultPlan::new().storm(0, 2.0, 0)),
            ChaosError::EmptyStormWindow
        );
        for (lines, cells_per_line) in [(0, 3), (2, 0), (1, 513)] {
            assert_eq!(
                reject(FaultPlan::new().stuck_burst(0, lines, cells_per_line)),
                ChaosError::InvalidBurst {
                    lines,
                    cells_per_line
                }
            );
        }
        assert_eq!(
            reject(FaultPlan::new().aging_ramp(0, 1.5)),
            ChaosError::InvalidAge { value: 1.5 }
        );
        // One bad fault rejects the whole plan.
        assert_eq!(
            reject(FaultPlan::new().storm(0, 2.0, 5).aging_ramp(9, 2.0)),
            ChaosError::InvalidAge { value: 2.0 }
        );
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().aging_ramp(0, 1.0).is_empty());
    }

    #[test]
    fn rejected_plan_leaves_the_installed_one() {
        let mut ctrl = crate::ctrl::testkit::ctrl(crate::CtrlScheme::lazyc());
        ctrl.install_chaos(FaultPlan::new().aging_ramp(3, 0.5))
            .unwrap();
        assert!(ctrl
            .install_chaos(FaultPlan::new().storm(0, 2.0, 0))
            .is_err());
        let kept = ctrl.chaos.schedule.as_ref().unwrap();
        assert_eq!(kept.plan, FaultPlan::new().aging_ramp(3, 0.5));
    }

    #[test]
    fn replacing_a_plan_ends_its_open_storm() {
        use crate::ctrl::testkit::{ctrl, line, patterned, run_until_idle, write};
        let mut c = ctrl(crate::CtrlScheme::lazyc());
        c.install_chaos(FaultPlan::new().storm(1, 2.0, 5)).unwrap();
        // Commits write `n` to a line of its own.
        let commit = |c: &mut MemoryController, n: u64| {
            let t = Cycle(n * 100_000);
            c.submit(write(n, line(1, n as u32, 0), patterned(n), t), t)
                .unwrap();
            let _ = run_until_idle(c);
        };
        commit(&mut c, 1);
        assert_eq!(c.sh.injector.storm(), 2.0, "the storm fired");
        c.install_chaos(FaultPlan::new()).unwrap();
        for n in 2..=12 {
            commit(&mut c, n);
        }
        assert_eq!(c.stats().writes.get(), 12);
        assert_eq!(c.sh.injector.storm(), 1.0);
        let actions: Vec<_> = c
            .fault_log()
            .iter()
            .map(|e| (e.at_write, e.action))
            .collect();
        assert_eq!(
            actions,
            vec![
                (1, ChaosAction::BeginStorm { mult: 2.0 }),
                (1, ChaosAction::EndStorm)
            ]
        );
        assert_eq!(c.fault_log()[1].at_cycle, c.fault_log()[0].at_cycle);
    }

    #[test]
    fn storm_opens_and_expires() {
        let mut s = schedule(FaultPlan::new().storm(5, 4.0, 10));
        assert!(s.poll(4).is_empty());
        assert_eq!(s.poll(5), vec![ChaosAction::BeginStorm { mult: 4.0 }]);
        assert!(s.poll(14).is_empty());
        assert_eq!(s.poll(15), vec![ChaosAction::EndStorm]);
        assert!(exhausted(&s));
    }

    #[test]
    fn storm_window_counts_from_the_write_it_fires_at() {
        // Polled late: the window opens at write 9, not at its trigger.
        let mut s = schedule(FaultPlan::new().storm(5, 4.0, 10));
        assert_eq!(s.poll(9), vec![ChaosAction::BeginStorm { mult: 4.0 }]);
        assert!(s.poll(18).is_empty());
        assert_eq!(s.poll(19), vec![ChaosAction::EndStorm]);
    }

    #[test]
    fn overlapping_storms_coalesce() {
        let mut s = schedule(FaultPlan::new().storm(0, 2.0, 100).storm(10, 8.0, 5));
        assert_eq!(s.poll(0), vec![ChaosAction::BeginStorm { mult: 2.0 }]);
        assert_eq!(s.poll(10), vec![ChaosAction::BeginStorm { mult: 8.0 }]);
        // The second window's expiry governs.
        assert_eq!(s.poll(15), vec![ChaosAction::EndStorm]);
        assert!(exhausted(&s));
    }

    #[test]
    fn expiry_comes_before_newly_triggered_faults() {
        let mut s = schedule(FaultPlan::new().storm(0, 2.0, 5).storm(5, 1.5, 5));
        assert_eq!(s.poll(0), vec![ChaosAction::BeginStorm { mult: 2.0 }]);
        assert_eq!(
            s.poll(5),
            vec![ChaosAction::EndStorm, ChaosAction::BeginStorm { mult: 1.5 }]
        );
    }

    #[test]
    fn skipped_polls_catch_up() {
        // Writes can jump past several trigger points between polls
        // (bursty drains); everything due fires in plan order.
        let mut s = schedule(FaultPlan::new().stuck_burst(3, 2, 1).aging_ramp(7, 1.0));
        assert_eq!(
            s.poll(20),
            vec![
                ChaosAction::PlantStuckBurst {
                    lines: 2,
                    cells_per_line: 1
                },
                ChaosAction::SetAge {
                    lifetime_fraction: 1.0
                },
            ]
        );
        assert!(exhausted(&s));
    }
}
